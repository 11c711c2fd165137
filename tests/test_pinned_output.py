"""The output bits of three tiny runs, pinned in ``tests/pinned_output.txt``.

Each run is one config below through ``tools/output_digest.digest()``: the
sha256 of ``metrics.csv``, ``model.ckpt``, the summary rounds and, for the
run with ``checkpoint_every=2``, ``round_0002.ckpt``. The three client mixes
cover every client type, with drift and without. A change that moves the
bits fails here; moving the pin is a reviewed act: rewrite the file with

    PYTHONPATH=src python3 tests/test_pinned_output.py

and say in CHANGES.md why the bits moved. The bits hold for one numpy and
one BLAS build, which the file's header records; the BLAS line is
OpenBLAS's own configuration, which names the kernel set it picked for the
CPU. Elsewhere the test skips and names both environments.
"""

import ctypes
import importlib.util
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
PIN_FILE = Path(__file__).resolve().parent / "pinned_output.txt"

BASE = dict(seed=3, n_samples=300, warmup_epochs=2, rounds=3, local_epochs=1,
            eval_restarts=3)
CONFIGS = {
    "2,2,2": dict(BASE, mixed_counts=(2, 2, 2), checkpoint_every=2),
    "6,0,0": dict(BASE, mixed_counts=(6, 0, 0)),
    "0,0,6": dict(BASE, mixed_counts=(0, 0, 6)),
}


def blas_config() -> str:
    """OpenBLAS's runtime configuration line, or numpy's build record of it
    when the library's own query cannot be reached."""
    for lib in (Path(np.__file__).parent.parent / "numpy.libs").glob("libscipy_openblas*"):
        query = getattr(ctypes.CDLL(str(lib)), "scipy_openblas_get_config64_", None)
        if query is not None:
            query.argtypes, query.restype = [], ctypes.c_char_p
            return query().decode().strip()
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return blas.get("openblas configuration", f"{blas['name']} {blas['version']}")


def environment() -> list[str]:
    return [f"# numpy {np.__version__}", f"# blas {blas_config()}"]


def load_tool():
    spec = importlib.util.spec_from_file_location("output_digest_pinned",
                                                  ROOT / "tools" / "output_digest.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def digest_lines() -> list[str]:
    tool = load_tool()
    return [f"mixed_counts={name} {tool.digest(overrides)}"
            for name, overrides in CONFIGS.items()]


def test_output_bits_match_the_pin():
    lines = PIN_FILE.read_text(encoding="utf-8").splitlines()
    pinned_env = [line for line in lines if line.startswith("#")]
    if pinned_env != environment():
        pytest.skip(f"bits pinned on {'; '.join(pinned_env)}, "
                    f"this environment has {'; '.join(environment())}")
    expected = [line for line in lines if not line.startswith("#")]
    difference = load_tool().first_difference(digest_lines(), expected)
    assert difference is None, f"{PIN_FILE.name}: {difference}"


if __name__ == "__main__":
    PIN_FILE.write_text("\n".join(environment() + digest_lines()) + "\n",
                        encoding="utf-8")
    print(PIN_FILE.read_text(encoding="utf-8"), end="")
