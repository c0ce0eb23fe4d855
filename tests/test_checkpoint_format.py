"""Byte-level format checks for both parameter files, CGRK (re-ranker)
and CGBL (baseline).

Each blob is packed here with ``struct`` from the documented layout: a
``<4sII`` magic, version and dtype code (the item size, 4 or 8), the
format's config fields as uint32, then every parameter little-endian in
canonical order. Loading it must give exactly those arrays, and saving
the loaded weights must give exactly those bytes.
"""

import json
import re
import struct
from dataclasses import dataclass
from typing import Callable

import numpy as np
import pytest

from gaitrerank.baseline import load_baseline, save_baseline
from gaitrerank import feature_store
from gaitrerank.cli import main
from gaitrerank.errors import FormatError, NonFiniteError
from gaitrerank.reranker import load_checkpoint, save_checkpoint

from conftest import DiskFullAfter


@dataclass(frozen=True)
class Format:
    magic: bytes
    header_fields: tuple[int, ...]
    shapes: dict[str, tuple[int, ...]]
    load: Callable
    save: Callable


# s=2, d=3, heads=1, hidden=2, blocks=1, num_classes=2, mlp_hidden=4
CGRK = Format(
    magic=b"CGRK",
    header_fields=(2, 3, 1, 2, 1, 2, 4),
    shapes={
        "block0.w_q": (3, 2), "block0.b_q": (2,),
        "block0.w_k": (3, 2), "block0.b_k": (2,),
        "block0.w_v": (3, 2), "block0.b_v": (2,),
        "block0.w_o": (2, 3), "block0.b_o": (3,),
        "cls.w1": (3, 4), "cls.b1": (4,),
        "cls.w2": (4, 2), "cls.b2": (2,),
    },
    load=load_checkpoint,
    save=save_checkpoint,
)

# s=2, d=3, hidden=4; the MLP input is the 2*s*d concatenated pair
CGBL = Format(
    magic=b"CGBL",
    header_fields=(2, 3, 4),
    shapes={"w1": (12, 4), "b1": (4,), "w2": (4, 1), "b2": (1,)},
    load=load_baseline,
    save=save_baseline,
)

FORMATS = pytest.mark.parametrize("fmt", [CGRK, CGBL], ids=["CGRK", "CGBL"])


def header_size(fmt: Format) -> int:
    return 12 + 4 * len(fmt.header_fields)


def expected_arrays(fmt: Format, dtype) -> dict[str, np.ndarray]:
    rng = np.random.default_rng(7)
    return {name: rng.standard_normal(shape).astype(dtype) for name, shape in fmt.shapes.items()}


def pack(fmt: Format, arrays: dict[str, np.ndarray], code: int) -> bytes:
    n = len(fmt.header_fields)
    blob = struct.pack(f"<4sII{n}I", fmt.magic, 1, code, *fmt.header_fields)
    return blob + b"".join(a.astype(f"<f{code}").tobytes() for a in arrays.values())


@FORMATS
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_hand_packed_blob_loads_and_saves_back_byte_for_byte(tmp_path, fmt, dtype):
    arrays = expected_arrays(fmt, dtype)
    blob = pack(fmt, arrays, np.dtype(dtype).itemsize)
    path = tmp_path / "params.bin"
    path.write_bytes(blob)
    (tmp_path / "params.bin.meta.json").write_text('{"seed": 3}\n')

    weights, _, meta = fmt.load(path)
    assert meta == {"seed": 3}
    got = weights.params()
    assert list(got) == list(arrays)
    for name, want in arrays.items():
        assert got[name].dtype == want.dtype and got[name].shape == want.shape
        assert got[name].tobytes() == want.tobytes(), name

    out = tmp_path / "again.bin"
    fmt.save(weights, out, metadata={"seed": 3})
    assert out.read_bytes() == blob
    assert (tmp_path / "again.bin.meta.json").read_text() == '{\n  "seed": 3\n}\n'


def with_u32(blob: bytes, offset: int, value: int) -> bytes:
    out = bytearray(blob)
    struct.pack_into("<I", out, offset, value)
    return bytes(out)


# (case, blob edit, sidecar text or None, message fragment)
CORRUPTIONS = [
    ("bad-magic", lambda b, fmt: b"XXXX" + b[4:], None, "bad magic"),
    ("bad-version", lambda b, fmt: with_u32(b, 4, 2), None, "unsupported version 2"),
    ("unknown-dtype-code", lambda b, fmt: with_u32(b, 8, 2), None, "unknown dtype code 2"),
    ("truncated-header", lambda b, fmt: b[: header_size(fmt) - 1], None, "truncated checkpoint header"),
    ("truncated-parameter", lambda b, fmt: b[:-1], None, "truncated at parameter"),
    ("trailing-bytes", lambda b, fmt: b + b"\0", None, "1 trailing bytes"),
    ("invalid-sidecar", lambda b, fmt: b, '{"seed": ', "invalid JSON"),
    ("non-object-sidecar", lambda b, fmt: b, "[1, 2]", "must be a JSON object"),
    # 2**31 blocks (CGRK) or strips (CGBL): the loader stops at the first
    # parameter past the end instead of listing every declared shape
    ("huge-header-field",
     lambda b, fmt: with_u32(b, 12 + 4 * (len(fmt.header_fields) - 3), 1 << 31), None,
     "truncated at parameter"),
]


@FORMATS
@pytest.mark.parametrize(
    "edit, sidecar, message", [c[1:] for c in CORRUPTIONS], ids=[c[0] for c in CORRUPTIONS]
)
def test_corrupt_files_are_format_errors(tmp_path, fmt, edit, sidecar, message):
    blob = pack(fmt, expected_arrays(fmt, np.float32), 4)
    path = tmp_path / "params.bin"
    path.write_bytes(edit(blob, fmt))
    if sidecar is not None:
        (tmp_path / "params.bin.meta.json").write_text(sidecar)
    with pytest.raises(FormatError, match=message):
        fmt.load(path)


@FORMATS
@pytest.mark.parametrize("fail_at", [0, 1], ids=["parameters", "sidecar"])
@pytest.mark.parametrize("previous", [True, False], ids=["over-previous", "fresh"])
def test_interrupted_save_leaves_the_previous_file_or_none(
    tmp_path, monkeypatch, fmt, fail_at, previous
):
    source = tmp_path / "source.bin"
    source.write_bytes(pack(fmt, expected_arrays(fmt, np.float32), 4))
    weights, _, _ = fmt.load(source)
    source.unlink()
    path = tmp_path / "params.bin"
    sidecar = tmp_path / "params.bin.meta.json"
    if previous:
        fmt.save(weights, path, metadata={"run": 1})
    before = {f.name: f.read_bytes() for f in tmp_path.iterdir()}

    for arr in weights.params().values():
        arr *= 2
    monkeypatch.setattr(feature_store, "open", DiskFullAfter(fail_at), raising=False)
    with pytest.raises(OSError, match="No space left"):
        fmt.save(weights, path, metadata={"run": 2})
    monkeypatch.undo()

    # no temp file is left behind, and the failed target is as it was
    after = {f.name: f.read_bytes() for f in tmp_path.iterdir()}
    failed = [path, sidecar][fail_at]
    assert after.get(failed.name) == before.get(failed.name)
    if fail_at == 0:
        assert after == before
    else:
        # the parameter file was complete when its rename ran
        assert set(after) == {path.name} | ({sidecar.name} if previous else set())
        doubled, _, _ = fmt.load(path)
        for name, arr in weights.params().items():
            assert doubled.params()[name].tobytes() == arr.tobytes()


NON_FINITE = pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf],
                                     ids=["nan", "+inf", "-inf"])


def with_non_finite(fmt: Format, value: float) -> tuple[dict[str, np.ndarray], str]:
    """Finite arrays with ``value`` in the second and next-to-last
    parameters, and the name of the first of them."""
    arrays = expected_arrays(fmt, np.float32)
    names = list(arrays)
    arrays[names[1]].reshape(-1)[-1] = value
    arrays[names[-2]].reshape(-1)[0] = value
    return arrays, names[1]


@FORMATS
@NON_FINITE
def test_non_finite_parameters_are_refused_on_load(tmp_path, fmt, value):
    arrays, first = with_non_finite(fmt, value)
    path = tmp_path / "params.bin"
    path.write_bytes(pack(fmt, arrays, 4))
    with pytest.raises(NonFiniteError, match=re.escape(f"{path}: NaN or Inf in parameter {first}")):
        fmt.load(path)


@FORMATS
@NON_FINITE
@pytest.mark.parametrize("previous", [True, False], ids=["over-previous", "fresh"])
def test_non_finite_parameters_are_refused_on_save_leaving_the_previous_file(
    tmp_path, fmt, value, previous
):
    source = tmp_path / "source.bin"
    source.write_bytes(pack(fmt, expected_arrays(fmt, np.float32), 4))
    weights, _, _ = fmt.load(source)
    source.unlink()
    path = tmp_path / "params.bin"
    if previous:
        fmt.save(weights, path, metadata={"run": 1})
    before = {f.name: f.read_bytes() for f in tmp_path.iterdir()}

    arrays, first = with_non_finite(fmt, value)
    for name, arr in weights.params().items():
        arr[...] = arrays[name]
    with pytest.raises(NonFiniteError, match=re.escape(f"{path}: NaN or Inf in parameter {first}")):
        fmt.save(weights, path, metadata={"run": 2})
    assert {f.name: f.read_bytes() for f in tmp_path.iterdir()} == before


@FORMATS
def test_rerank_with_a_non_finite_model_file_exits_7_and_writes_nothing(tmp_path, capsys, fmt):
    feats, initial, out = tmp_path / "f.gfm", tmp_path / "initial.jsonl", tmp_path / "out.jsonl"
    assert main(["synth", "--ids", "4", "--per-id", "2", "--strips", "2", "--dim", "3",
                 "--seed", "1", "--out", str(feats)]) == 0
    assert main(["rank", "--probes", str(feats), "--gallery", str(feats),
                 "--out", str(initial)]) == 0
    capsys.readouterr()
    model = tmp_path / "model.bin"
    model.write_bytes(pack(fmt, with_non_finite(fmt, np.nan)[0], 4))
    code = main(["rerank", "--checkpoint", str(model), "--probes", str(feats), "--gallery", str(feats),
                 "--initial", str(initial), "--out", str(out)])
    captured = capsys.readouterr()
    assert code == 7 and captured.out == ""
    report = json.loads(captured.err)
    assert report["error"] == "non-finite" and report["message"].startswith(f"{model}: ")
    assert not out.exists()
