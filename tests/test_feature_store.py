import json
import struct

import numpy as np
import pytest

from gaitrerank.errors import (
    DuplicateIdError,
    FormatError,
    NonFiniteError,
    ShapeError,
)
from gaitrerank.feature_store import (
    FeatureMap,
    FeatureSet,
    load_feature_set,
    manifest_path,
    save_feature_set,
    validate,
)

from conftest import make_maps


def test_feature_map_coerces_to_float32():
    m = FeatureMap("a-00", "a", np.ones((2, 3), dtype=np.float64))
    assert m.strips.dtype == np.float32
    assert m.strips.flags["C_CONTIGUOUS"]
    assert (m.s, m.d) == (2, 3)


def test_feature_map_rejects_bad_shapes():
    with pytest.raises(ShapeError):
        FeatureMap("a-00", "a", np.ones(3))
    with pytest.raises(ShapeError):
        FeatureMap("a-00", "a", np.ones((0, 3)))


def test_roundtrip_is_bit_exact(tmp_path, small_set):
    path = tmp_path / "feat.gfm"
    save_feature_set(small_set, path)
    back = load_feature_set(path)
    assert back.ids() == small_set.ids()
    assert back.partition == small_set.partition
    assert (back.s, back.d) == (small_set.s, small_set.d)
    for a, b in zip(back.entries, small_set.entries):
        assert a.identity_id == b.identity_id
        assert a.strips.tobytes() == b.strips.tobytes()


def test_manifest_sidecar_contents(tmp_path, small_set):
    path = tmp_path / "feat.gfm"
    save_feature_set(small_set, path)
    manifest = json.loads(manifest_path(path).read_text())
    assert set(manifest) == set(small_set.ids())
    rec = manifest[small_set.ids()[0]]
    assert rec == {"identity": "id000", "partition": "train"}


def test_load_missing_file(tmp_path):
    with pytest.raises(FileNotFoundError):
        load_feature_set(tmp_path / "nope.gfm")


def test_load_bad_magic(tmp_path, small_set):
    path = tmp_path / "feat.gfm"
    save_feature_set(small_set, path)
    blob = bytearray(path.read_bytes())
    blob[:4] = b"XXXX"
    path.write_bytes(bytes(blob))
    with pytest.raises(FormatError):
        load_feature_set(path)


def test_load_truncated_payload(tmp_path, small_set):
    path = tmp_path / "feat.gfm"
    save_feature_set(small_set, path)
    blob = path.read_bytes()
    path.write_bytes(blob[:-7])
    with pytest.raises(FormatError):
        load_feature_set(path)


def test_load_trailing_bytes(tmp_path, small_set):
    path = tmp_path / "feat.gfm"
    save_feature_set(small_set, path)
    path.write_bytes(path.read_bytes() + b"\x00\x00")
    with pytest.raises(FormatError):
        load_feature_set(path)


def test_load_missing_manifest(tmp_path, small_set):
    path = tmp_path / "feat.gfm"
    save_feature_set(small_set, path)
    manifest_path(path).unlink()
    with pytest.raises(FormatError):
        load_feature_set(path)


def test_load_manifest_identity_mismatch(tmp_path, small_set):
    path = tmp_path / "feat.gfm"
    save_feature_set(small_set, path)
    manifest = json.loads(manifest_path(path).read_text())
    manifest[small_set.ids()[0]]["identity"] = "wrong"
    manifest_path(path).write_text(json.dumps(manifest))
    with pytest.raises(FormatError):
        load_feature_set(path)


def test_load_duplicate_id(tmp_path):
    """A hand-built blob with the same sequence id twice must be refused."""
    s, d = 2, 2
    header = struct.Struct("<4sIII").pack(b"GFM1", 2, s, d)
    entry = b""
    for _ in range(2):
        for text in (b"dup-00", b"dup"):
            entry += struct.pack("<H", len(text)) + text
        entry += np.zeros((s, d), dtype="<f4").tobytes()
    path = tmp_path / "feat.gfm"
    path.write_bytes(header + entry)
    manifest_path(path).write_text(
        json.dumps({"dup-00": {"identity": "dup", "partition": "train"}})
    )
    with pytest.raises(DuplicateIdError):
        load_feature_set(path)


def test_load_non_finite_payload(tmp_path):
    """A hand-built blob with a NaN strip value and a matching manifest."""
    s, d = 2, 2
    values = np.zeros((s, d), dtype="<f4")
    values[1, 0] = np.nan
    blob = struct.Struct("<4sIII").pack(b"GFM1", 1, s, d)
    for text in (b"nan-00", b"nan"):
        blob += struct.pack("<H", len(text)) + text
    path = tmp_path / "feat.gfm"
    path.write_bytes(blob + values.tobytes())
    manifest_path(path).write_text(
        json.dumps({"nan-00": {"identity": "nan", "partition": "train"}})
    )
    with pytest.raises(NonFiniteError, match="nan-00"):
        load_feature_set(path)


def test_save_rejects_non_finite(tmp_path):
    bad = FeatureMap("a-00", "a", np.array([[1.0, np.nan]], dtype=np.float32))
    fs = FeatureSet.from_entries([bad])
    with pytest.raises(NonFiniteError):
        save_feature_set(fs, tmp_path / "feat.gfm")


def test_validate_reports_all_violations():
    entries = [
        FeatureMap("a-00", "a", np.ones((2, 2), dtype=np.float32)),
        FeatureMap("a-00", "a", np.full((2, 2), np.inf, dtype=np.float32)),
        FeatureMap("b-00", "b", np.ones((3, 2), dtype=np.float32)),
    ]
    fs = FeatureSet(entries=tuple(entries), s=2, d=2)
    msgs = validate(fs)
    assert len(msgs) == 3
    assert any("duplicate" in m for m in msgs)
    assert any("NaN or Inf" in m for m in msgs)
    assert any("shape" in m for m in msgs)
    assert validate(FeatureSet.from_entries(entries[:1])) == []


def test_from_entries_empty_requires_dims():
    with pytest.raises(ShapeError):
        FeatureSet.from_entries([])
    fs = FeatureSet.from_entries([], s=4, d=8)
    assert fs.stacked().shape == (0, 4, 8)


def test_accessors(small_set):
    assert small_set.identities() == [f"id{i:03d}" for i in range(6)]
    assert small_set.identity_map()["id002-01"] == "id002"
    assert small_set.get("id003-00").sequence_id == "id003-00"
    with pytest.raises(KeyError):
        small_set.get("missing")
    stack = small_set.stacked()
    assert stack.shape == (18, 4, 6)
    assert stack.dtype == np.float64


def test_unicode_ids_roundtrip(tmp_path):
    m = FeatureMap("プローブ-00", "プローブ", np.ones((2, 2), dtype=np.float32))
    fs = FeatureSet.from_entries([m])
    path = tmp_path / "feat.gfm"
    save_feature_set(fs, path)
    assert load_feature_set(path).ids() == ["プローブ-00"]
