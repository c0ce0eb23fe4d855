import json
import os
import struct
import tracemalloc

import numpy as np
import pytest

from gaitrerank import feature_store
from gaitrerank.errors import (
    DuplicateIdError,
    FormatError,
    NonFiniteError,
    ShapeError,
)
from gaitrerank.feature_store import (
    PARTITIONS,
    FeatureMap,
    FeatureSet,
    load_feature_set,
    manifest_path,
    save_feature_set,
)
from gaitrerank.ranking import rank_gallery
from gaitrerank.synth import generate
from gaitrerank.training import Triplet, make_batch

from conftest import DiskFullAfter, make_maps


def test_feature_map_coerces_to_float32():
    m = FeatureMap("a-00", "a", np.ones((2, 3), dtype=np.float64))
    assert m.strips.dtype == np.float32
    assert m.strips.flags["C_CONTIGUOUS"]
    assert (m.s, m.d) == (2, 3)
    wide = np.arange(12, dtype=np.float32).reshape(3, 4)
    for given in (wide.tolist(), wide.T.copy().T, wide.astype(">f4")):
        m = FeatureMap("a-00", "a", given)
        assert m.strips.dtype == np.float32 and m.strips.flags["C_CONTIGUOUS"]
        assert m.strips.dtype.isnative and m.strips.tobytes() == wide.tobytes()
    # a contiguous float32 matrix, as every entry of a set is, is kept as it is
    assert FeatureMap("a-00", "a", wide).strips is wide


def test_feature_map_rejects_bad_shapes():
    with pytest.raises(ShapeError):
        FeatureMap("a-00", "a", np.ones(3))
    with pytest.raises(ShapeError):
        FeatureMap("a-00", "a", np.ones((0, 3)))
    for bad in (np.ones((2, 2, 2), dtype=np.float32), np.ones((2, 0), dtype=np.float32)):
        with pytest.raises(ShapeError):
            FeatureMap("a-00", "a", bad)


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


def ref_saved_bytes(fs):
    """save_feature_set's two files as an entry-at-a-time loop and json's
    own indenting encoder write them: the chunked writer and its manifest
    template must give these bytes."""
    blob = struct.pack("<4sIII", b"GFM1", len(fs), fs.s, fs.d)
    for sid, iid, row in zip(fs.sequence_ids, fs.identity_ids, fs.strips):
        for text in (sid, iid):
            raw = text.encode("utf-8")
            blob += struct.pack("<H", len(raw)) + raw
        blob += row.astype("<f4").tobytes()
    manifest = {sid: {"identity": iid, "partition": fs.partition}
                for sid, iid in zip(fs.sequence_ids, fs.identity_ids)}
    return blob, (json.dumps(manifest, indent=2, sort_keys=True) + "\n").encode("utf-8")


# non-ASCII, quotes, backslashes, control characters and mixed lengths
ODD_IDS = ["\u00e9-\u00fc", 'q"uote', "back\\slash", "ctl\x00\x01\x1f\x7f", "tab\tline\n",
           "emoji\U0001f600", "long" * 300, "a", "Z", " lead"]


@pytest.mark.parametrize("partition", PARTITIONS)
@pytest.mark.parametrize(
    "n, write_rows",
    [(0, 1), (1, 256), (10, 256), (10, 3), (10, 1)],
    ids=["empty", "one-entry", "one-write", "ends-mid-write", "one-entry-per-write"],
)
def test_save_writes_the_reference_bytes(tmp_path, monkeypatch, partition, n, write_rows):
    s, d = 3, 5
    monkeypatch.setattr(feature_store, "WRITE_BYTES", 4 * s * d * write_rows)
    values = np.random.default_rng(n).standard_normal((n, s, d))
    fs = FeatureSet(values, tuple(ODD_IDS[:n]), tuple(sid[::-1] + "\u2603" for sid in ODD_IDS[:n]),
                    partition)
    path = tmp_path / "feat.gfm"
    save_feature_set(fs, path)
    assert (path.read_bytes(), manifest_path(path).read_bytes()) == ref_saved_bytes(fs)


def test_save_holds_one_write_of_values_at_a_time(tmp_path):
    fs = FeatureSet.from_entries(make_maps(250, 4, 16, 64, seed=6))
    path = tmp_path / "feat.gfm"
    tracemalloc.start()
    try:
        save_feature_set(fs, path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert load_feature_set(path).strips.tobytes() == fs.strips.tobytes()
    # one write's values (1 MB), its ids and the 71 KB manifest; the file
    # held whole would take all of strips.nbytes (4 MB)
    assert peak < feature_store.WRITE_BYTES + (256 << 10) < fs.strips.nbytes / 2, peak


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


def test_construction_rejects_non_finite():
    bad = FeatureMap("a-00", "a", np.array([[1.0, np.nan]], dtype=np.float32))
    with pytest.raises(NonFiniteError, match=r"NaN or Inf in entry 0 \('a-00'\)"):
        FeatureSet.from_entries([bad])


def test_from_entries_names_an_entry_of_another_shape():
    entries = [
        FeatureMap("a-00", "a", np.ones((2, 2), dtype=np.float32)),
        FeatureMap("b-00", "b", np.ones((3, 2), dtype=np.float32)),
    ]
    # one array cannot hold a mismatched shape
    with pytest.raises(ShapeError, match="'b-00' has shape"):
        FeatureSet.from_entries(entries, s=2, d=2)


def test_from_entries_empty_requires_dims():
    with pytest.raises(ShapeError):
        FeatureSet.from_entries([])
    fs = FeatureSet.from_entries([], s=4, d=8)
    assert fs.strips.shape == (0, 4, 8)


def test_accessors(small_set):
    assert small_set.identities() == [f"id{i:03d}" for i in range(6)]
    assert small_set.identity_map()["id002-01"] == "id002"
    assert small_set.get("id003-00").sequence_id == "id003-00"
    with pytest.raises(KeyError):
        small_set.get("missing")
    stack = small_set.strips
    assert stack.shape == (18, 4, 6)
    assert stack.dtype == np.float32


def test_unicode_ids_roundtrip(tmp_path):
    m = FeatureMap("プローブ-00", "プローブ", np.ones((2, 2), dtype=np.float32))
    fs = FeatureSet.from_entries([m])
    path = tmp_path / "feat.gfm"
    save_feature_set(fs, path)
    assert load_feature_set(path).ids() == ["プローブ-00"]


# ---------------------------------------------------------------------------
# one array per set
# ---------------------------------------------------------------------------


def _assert_entries_view_the_array(fs):
    assert fs.strips.dtype == np.float32 and not fs.strips.flags.writeable
    assert fs.strips.shape == (len(fs), fs.s, fs.d)
    for row, e in zip(fs.strips, fs.entries):
        assert np.shares_memory(e.strips, fs.strips) and not e.strips.flags.writeable
        assert e.strips.tobytes() == row.tobytes()


def test_entries_are_views_into_one_read_only_array(tmp_path, small_set):
    _assert_entries_view_the_array(small_set)
    path = tmp_path / "feat.gfm"
    save_feature_set(small_set, path)
    _assert_entries_view_the_array(load_feature_set(path))
    _assert_entries_view_the_array(generate(3, 2, 4, 5, hardness=0.5, noise=0.2, seed=0))


def test_get_and_make_batch_resolve_ids_through_the_index():
    strips = np.arange(3 * 2 * 2, dtype=np.float32).reshape(3, 2, 2)
    fs = FeatureSet(strips, ("c", "b", "a"), ("x", "y", "x"))
    assert fs.row_of == {"c": 0, "b": 1, "a": 2}
    assert fs.get("a") is fs.entries[2]
    assert fs.get("b").strips.tobytes() == strips[1].tobytes()
    batch = make_batch([Triplet("a", "b", "c")], fs, {"a": 0, "b": 1, "c": 0})
    assert batch.maps is fs.strips
    assert batch.index.tolist() == [[2, 1, 0]]


def test_rank_gallery_allocates_no_copy_of_the_gallery():
    gallery = FeatureSet.from_entries(make_maps(200, 5, 16, 64, seed=2))
    # every row ties with every other: the top-k prefilter keeps them all
    equal = np.broadcast_to(gallery.strips[:1], gallery.strips.shape)
    all_equal = FeatureSet(equal, gallery.sequence_ids, gallery.identity_ids)
    for fs, k in ((gallery, None), (gallery, 10), (all_equal, 10)):
        tracemalloc.start()
        try:
            rank_gallery(fs.entries[0], fs, k)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # a float32 copy would take all of strips.nbytes (4 MB), a float64
        # one twice that; the 1 MB distance block buffer, and the candidate
        # rows gathered into it a block at a time, stay below half
        assert peak < fs.strips.nbytes / 2, (k, peak, fs.strips.nbytes)


# ---------------------------------------------------------------------------
# header values that must not size an allocation
# ---------------------------------------------------------------------------


def _write_header(path, count, s, d, body=b""):
    path.write_bytes(struct.Struct("<4sIII").pack(b"GFM1", count, s, d) + body)
    manifest_path(path).write_text("{}")


def test_header_strip_shape_too_large_for_one_array(tmp_path):
    path = tmp_path / "feat.gfm"
    _write_header(path, 0, 2**32 - 1, 2**32 - 1)
    with pytest.raises(FormatError, match="too large"):
        load_feature_set(path)


def test_header_count_larger_than_the_file(tmp_path):
    path = tmp_path / "feat.gfm"
    # 4 + 4 * 64 * 64 bytes per entry, a little over 16 KB
    _write_header(path, 2**32 - 1, 64, 64, body=bytes(20_000))
    with pytest.raises(FormatError, match="truncated"):
        load_feature_set(path)


# ---------------------------------------------------------------------------
# atomic save
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("fail_at", [0, 1], ids=["features", "manifest"])
@pytest.mark.parametrize("previous", [True, False], ids=["over-previous", "fresh"])
def test_interrupted_save_leaves_the_previous_files_or_none(
    tmp_path, monkeypatch, small_set, fail_at, previous
):
    path = tmp_path / "feat.gfm"
    if previous:
        save_feature_set(small_set, path)
    before = {f.name: f.read_bytes() for f in tmp_path.iterdir()}

    doubled = FeatureSet(small_set.strips * 2, small_set.sequence_ids, small_set.identity_ids)
    monkeypatch.setattr(feature_store, "open", DiskFullAfter(fail_at), raising=False)
    with pytest.raises(OSError, match="No space left"):
        save_feature_set(doubled, path)
    monkeypatch.undo()

    # no temp file is left behind, and the failed target is as it was
    after = {f.name: f.read_bytes() for f in tmp_path.iterdir()}
    failed = [path, manifest_path(path)][fail_at]
    assert after.get(failed.name) == before.get(failed.name)
    if fail_at == 0:
        assert after == before
    else:
        # the features file was complete when its rename ran
        assert set(after) == {path.name} | ({manifest_path(path).name} if previous else set())
        blob = after[path.name]
        assert blob[-doubled.strips[-1].nbytes :] == doubled.strips[-1].tobytes()


def _loaded(tmp_path, entries):
    blob = struct.Struct("<4sIII").pack(b"GFM1", len(entries), 2, 2)
    for sid, value in entries:
        for text in (sid.encode(), sid[0].encode()):
            blob += struct.pack("<H", len(text)) + text
        blob += np.full((2, 2), value, dtype="<f4").tobytes()
    path = tmp_path / "feat.gfm"
    path.write_bytes(blob)
    manifest_path(path).write_text(
        json.dumps({sid: {"identity": sid[0], "partition": "train"} for sid, _ in entries})
    )
    return load_feature_set(path)


def _constructed(tmp_path, entries):
    sids = tuple(sid for sid, _ in entries)
    values = np.stack([np.full((2, 2), value) for _, value in entries])
    return FeatureSet(values, sids, tuple(sid[0] for sid in sids))


def _from_entries(tmp_path, entries):
    return FeatureSet.from_entries(
        [FeatureMap(sid, sid[0], np.full((2, 2), value)) for sid, value in entries]
    )


FIRST_DEFECT = [
    ("nan-then-duplicate", [("a-00", np.nan), ("a-00", 0.0)], NonFiniteError, "NaN or Inf in entry 0 ('a-00')"),
    ("duplicate-and-nan", [("a-00", 0.0), ("a-00", np.nan)], DuplicateIdError, "duplicate sequence_id 'a-00'"),
    (
        "inf-then-duplicate",
        [("a-00", 0.0), ("b-00", np.inf), ("b-00", 0.0)],
        NonFiniteError,
        "NaN or Inf in entry 1 ('b-00')",
    ),
    (
        "duplicate-then-nan",
        [("a-00", 0.0), ("a-00", 0.0), ("b-00", np.nan)],
        DuplicateIdError,
        "duplicate sequence_id 'a-00'",
    ),
]


@pytest.mark.parametrize(
    "build, entries, error, message",
    [
        # the file path keeps the bare case name
        pytest.param(build, entries, error, message, id=case + suffix)
        for build, suffix in ((_loaded, ""), (_constructed, "-FeatureSet"), (_from_entries, "-from_entries"))
        for case, entries, error, message in FIRST_DEFECT
    ],
)
def test_first_defective_entry_decides_the_load_error(tmp_path, build, entries, error, message):
    with pytest.raises(error) as info:
        build(tmp_path, entries)
    # a loaded file's error is the set's, prefixed with its path
    prefix = f"{tmp_path / 'feat.gfm'}: " if build is _loaded else ""
    assert str(info.value) == prefix + message


@pytest.mark.parametrize("build", ["FeatureSet", "from_entries"])
@pytest.mark.parametrize(
    "shape, partition, error, message",
    [
        ((2, 1, 2), "bogus", FormatError, "unknown partition tag 'bogus'"),
        ((2, 0, 2), "train", ShapeError, "s >= 1 and d >= 1"),
        ((2, 2, 0), "train", ShapeError, "s >= 1 and d >= 1"),
    ],
    ids=["unknown-partition", "s=0", "d=0"],
)
def test_construction_rejects_an_invalid_set(build, shape, partition, error, message):
    values = np.zeros(shape, dtype=np.float32)
    with pytest.raises(error, match=message):
        if build == "FeatureSet":
            FeatureSet(values, ("a-00", "b-00"), ("a", "b"), partition)
        else:
            # FeatureMap itself refuses an empty matrix, so only the empty
            # set can carry s or d of 0 here
            entries = [FeatureMap("a-00", "a", values[0])] if values.size else []
            FeatureSet.from_entries(entries, partition, s=shape[1], d=shape[2])


def test_construction_rejects_a_nan_map_before_ranking():
    # a 6-entry set with one NaN value: ranked, its top-k lists would not be
    # prefixes of its full lists, so it cannot be built at all
    values = np.random.default_rng(3).standard_normal((6, 2, 3))
    values[4, 1, 2] = np.nan
    sids = tuple(f"g{i * 7919 % 1000:03d}" for i in range(6))
    with pytest.raises(NonFiniteError, match=rf"NaN or Inf in entry 4 \('{sids[4]}'\)"):
        FeatureSet.from_entries([FeatureMap(sid, sid, v) for sid, v in zip(sids, values)])


def test_generated_sets_are_checked_at_construction():
    # a finite noise whose maps overflow float32: the set's own check finds
    # the Inf map, and generate reports it as a bad noise value
    with pytest.raises(ValueError, match=r"entry 0 \('id000-00'\)") as info:
        generate(2, 2, 2, 2, hardness=0.5, noise=1e39, seed=0)
    assert isinstance(info.value.__cause__, NonFiniteError)


def test_load_streams_values_into_the_set_array(tmp_path):
    fs = FeatureSet.from_entries(make_maps(40, 2, 32, 64, seed=5))
    path = tmp_path / "feat.gfm"
    save_feature_set(fs, path)
    tracemalloc.start()
    try:
        loaded = load_feature_set(path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert np.array_equal(loaded.strips, fs.strips)
    # the array, plus the set's finiteness mask of one byte per value (a
    # quarter of it) and the ids; the file's bytes held whole would add
    # as much again as the array
    assert peak < loaded.strips.nbytes * 1.25 + (128 << 10), (peak, loaded.strips.nbytes)


def test_a_feature_input_that_is_not_a_regular_file_is_a_format_error(tmp_path):
    fifo = tmp_path / "feat.gfm"
    os.mkfifo(fifo)
    manifest_path(fifo).write_text("{}")
    # a writer on the other end, so that opening the FIFO does not block
    fd = os.open(fifo, os.O_RDWR)
    try:
        with pytest.raises(FormatError, match="not a regular file"):
            load_feature_set(fifo)
    finally:
        os.close(fd)
