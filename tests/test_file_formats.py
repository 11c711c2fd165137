"""Both binary formats, ``MVD1`` datasets and ``MVP1`` checkpoints, under
every truncation and every single-byte change: a file either loads, and
saving what it loaded writes the same bytes, or it raises DataFormatError."""

import struct

import numpy as np
import pytest

from fedmvc.data import MultiViewDataset, load_dataset, save_dataset
from fedmvc.errors import DataFormatError
from fedmvc.model import Architecture, init_params, load_checkpoint, save_checkpoint

# the values a changed byte is set to
BYTES = (0x00, 0x01, 0x80, 0xFF)


def _dataset(labelled: bool) -> MultiViewDataset:
    rng = np.random.default_rng(0)
    views = [rng.standard_normal((3, 2)), rng.standard_normal((3, 1))]
    return MultiViewDataset(views, np.array([0, 1, 1]) if labelled else None, 2)


def _checkpoint():
    return init_params(Architecture((2, 1), n_clusters=2, latent_dim=1,
                                    high_dim=1, hidden=1), seed=0)


FORMATS = {
    "dataset-labelled": (lambda: _dataset(True), save_dataset, load_dataset),
    "dataset-unlabelled": (lambda: _dataset(False), save_dataset, load_dataset),
    "checkpoint": (_checkpoint, save_checkpoint, load_checkpoint),
}


def _variants(blob: bytes):
    """Every truncation of ``blob``, then every byte set to each of BYTES."""
    for n in range(len(blob)):
        yield f"first {n} bytes", blob[:n]
    for i in range(len(blob)):
        for value in BYTES:
            changed = bytearray(blob)
            changed[i] = value
            yield f"byte {i} = {value:#04x}", bytes(changed)


@pytest.mark.parametrize("name", FORMATS)
def test_every_truncation_and_byte_change_loads_exactly_or_is_rejected(tmp_path, name):
    make, save, load = FORMATS[name]
    original, back = tmp_path / "original", tmp_path / "back"
    save(make(), original)
    faults = []
    for case, blob in _variants(original.read_bytes()):
        original.write_bytes(blob)
        try:
            loaded = load(original)
        except DataFormatError:
            continue
        except Exception as err:  # noqa: BLE001 -- any other type is the fault
            faults.append(f"{case}: {type(err).__name__}: {err}")
            continue
        save(loaded, back)
        if back.read_bytes() != blob:
            faults.append(f"{case}: loads, but saves different bytes")
    assert faults == []


def _corrupt(tmp_path, save, obj, offset, fmt, value):
    path = tmp_path / "file"
    save(obj, path)
    blob = bytearray(path.read_bytes())
    struct.pack_into(fmt, blob, offset, value)
    path.write_bytes(bytes(blob))
    return path


# header offsets: MVD1 is magic, u32 version, u32 V, u64 N, u32 K, u8
# has_labels; MVP1 is magic, u32 version, u32 V, V x u32 dims, u32
# latent_dim, u32 high_dim, u32 hidden, u32 K, u64 count
@pytest.mark.parametrize("offset,fmt,value,message", [
    (20, "<I", 0, r"header: n_clusters: must be >= 1 \(got 0\)"),
    (24, "<B", 0x80, r"header: has_labels must be 0 or 1 \(got 128\)"),
    (25, "<I", 0, r"view 0 dimension: view_dims: must be .* \(got \(0,\)\)"),
])
def test_dataset_header_breaking_a_rule_names_its_part(tmp_path, offset, fmt, value,
                                                        message):
    path = _corrupt(tmp_path, save_dataset, _dataset(True), offset, fmt, value)
    with pytest.raises(DataFormatError, match=message):
        load_dataset(path)


@pytest.mark.parametrize("offset,fmt,value,message", [
    (8, "<I", 0, r"architecture: view_dims: must be .* \(got \(\)\)"),
    (20, "<I", 0, r"architecture: latent_dim: must be >= 1 \(got 0\)"),
])
def test_checkpoint_header_breaking_a_rule_names_its_part(tmp_path, offset, fmt, value,
                                                           message):
    path = _corrupt(tmp_path, save_checkpoint, _checkpoint(), offset, fmt, value)
    with pytest.raises(DataFormatError, match=message):
        load_checkpoint(path)
