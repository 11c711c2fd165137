"""Every fedmvc attribute the benchmark wraps still exists and is callable.

``perfbench/tracer.py`` skips an attribute it cannot find, so a renamed
function or class would make its layer read zero with no error. The list is
read from the benchmark's own files: the tracer's ``patch`` calls are
recorded by running ``install_tracer`` against a recording tracer, and the
attributes the phase clocks and checks wrap are read from their source.
"""

import ast
import importlib
import importlib.util
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "perfbench"
FILES = ("tracer.py", "child.py")


def _load_child():
    spec = importlib.util.spec_from_file_location("perfbench_child_under_test",
                                                  BENCH / "child.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class RecordingTracer:
    """Stands in for ``perfbench.tracer.Tracer``; records, wraps nothing."""

    def __init__(self):
        self.counts = {}
        self.patched = []

    def patch(self, owner, attr, name, before=None, after=None):
        self.patched.append((owner, attr, name))

    def inside(self, name):
        return False


def _module_attributes(path: Path) -> list[tuple[str, str, int]]:
    """(module, attribute, line) for every ``alias.attr`` read off an
    imported ``fedmvc`` module, and every name imported from one."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    aliases = {}
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.startswith("fedmvc.") and alias.asname:
                    aliases[alias.asname] = alias.name
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("fedmvc"):
            out += [(node.module, alias.name, node.lineno) for alias in node.names]
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in aliases):
            out.append((aliases[node.value.id], node.attr, node.lineno))
    return out


def test_every_traced_attribute_exists_and_is_callable():
    tracer = RecordingTracer()
    _load_child().install_tracer(tracer)
    assert len(tracer.patched) >= 20
    names = {name for _, _, name in tracer.patched}
    assert {"tensor.optimizer_step", "model.clone", "federation.broadcast",
            "federation.local_round"} <= names
    missing = [f"{getattr(owner, '__name__', owner)}.{attr} ({name})"
               for owner, attr, name in tracer.patched
               if not callable(getattr(owner, attr, None))]
    assert missing == []


@pytest.mark.parametrize("filename", FILES)
def test_every_wrapped_module_attribute_exists_and_is_callable(filename):
    found = _module_attributes(BENCH / filename)
    if filename == "child.py":
        # the phase clocks and the aggregate check wrap these by assignment
        assert {("fedmvc.federation", "pretrain_client"),
                ("fedmvc.federation", "aggregate"),
                ("fedmvc.cli", "run_federation")} <= {(m, a) for m, a, _ in found}
    missing = [f"{module}.{attr} (line {line})" for module, attr, line in found
               if not callable(getattr(importlib.import_module(module), attr, None))]
    assert missing == []
