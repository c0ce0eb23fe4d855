"""Bit-exact persistence and validation of strip feature maps.

Binary layout (GFM1, all integers little-endian):

    magic "GFM1" | u32 entry_count | u32 s | u32 d
    per entry: u16 seq_id_len, seq_id utf-8 bytes,
               u16 identity_len, identity utf-8 bytes,
               s*d float32 values, row-major

A JSON manifest sidecar at ``<path>.manifest.json`` maps each sequence_id
to ``{"identity": ..., "partition": ...}`` and is required on load.
"""

from __future__ import annotations

import json
import os
import struct
from contextlib import contextmanager
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import IO, Iterator

import numpy as np

from .errors import (
    DuplicateIdError,
    FormatError,
    NonFiniteError,
    ShapeError,
)

MAGIC = b"GFM1"
PARTITIONS = ("train", "val", "gallery", "probe")

_HEADER = struct.Struct("<4sIII")
_U16 = struct.Struct("<H")


@dataclass(frozen=True)
class FeatureMap:
    """One sequence's s x d strip feature matrix.

    ``strips`` is coerced to a contiguous float32 matrix; values are the
    unit of persistence, so float32 is the in-memory precision as well.
    """

    sequence_id: str
    identity_id: str
    strips: np.ndarray

    def __post_init__(self) -> None:
        arr = np.ascontiguousarray(self.strips, dtype=np.float32)
        if arr.ndim != 2 or arr.shape[0] < 1 or arr.shape[1] < 1:
            raise ShapeError(
                f"strips of {self.sequence_id!r} must be a non-empty 2-d "
                f"matrix, got shape {arr.shape}"
            )
        object.__setattr__(self, "strips", arr)

    @property
    def s(self) -> int:
        return self.strips.shape[0]

    @property
    def d(self) -> int:
        return self.strips.shape[1]


@dataclass(frozen=True, eq=False)
class FeatureSet:
    """An ordered, immutable set of same-shape strip maps in one array.

    ``strips`` is the read-only float32 ``(n, s, d)`` array of all maps in
    entry order, ``sequence_ids`` and ``identity_ids`` the ids in that
    order. The rest (the FeatureMap views in ``entries``, the id -> row
    index, the ranking keys and strip norms) is derived on first use and
    cached: every layer reads ``strips`` itself instead of copying it.

    A set is valid by construction, however it is built: s and d are at
    least 1 (else ShapeError), the partition is one of ``PARTITIONS``
    (else FormatError), and sequence ids are unique and values finite.
    The first entry that repeats an id or holds a NaN or Inf decides
    between DuplicateIdError and NonFiniteError.
    """

    strips: np.ndarray
    sequence_ids: tuple[str, ...]
    identity_ids: tuple[str, ...]
    partition: str = "train"

    def __post_init__(self) -> None:
        # a read-only view, so the caller's own array stays writeable
        strips = np.ascontiguousarray(self.strips, dtype=np.float32).view()
        if strips.ndim != 3 or not len(strips) == len(self.sequence_ids) == len(self.identity_ids):
            raise ShapeError(
                f"strips of shape {strips.shape} for {len(self.sequence_ids)} sequence "
                f"and {len(self.identity_ids)} identity ids; need (n, s, d) and n of each"
            )
        if strips.shape[1] < 1 or strips.shape[2] < 1:
            raise ShapeError(f"a set requires s >= 1 and d >= 1, got shape {strips.shape}")
        if self.partition not in PARTITIONS:
            raise FormatError(f"unknown partition tag {self.partition!r}")
        n = len(strips)
        finite = np.isfinite(strips).all(axis=(1, 2))
        first_bad = int(np.argmin(finite)) if not finite.all() else n
        first_dup, seen = n, set()
        for i, sid in enumerate(self.sequence_ids):
            if sid in seen:
                first_dup = i
                break
            seen.add(sid)
        if first_dup < n and first_dup <= first_bad:
            raise DuplicateIdError(f"duplicate sequence_id {self.sequence_ids[first_dup]!r}")
        if first_bad < n:
            raise NonFiniteError(f"NaN or Inf in entry {first_bad} ({self.sequence_ids[first_bad]!r})")
        strips.flags.writeable = False
        object.__setattr__(self, "strips", strips)

    @classmethod
    def from_entries(
        cls,
        entries,
        partition: str = "train",
        s: int | None = None,
        d: int | None = None,
    ) -> "FeatureSet":
        """Stack the entries into a new set, inferring s and d from the
        first entry if present."""
        entries = tuple(entries)
        if s is None or d is None:
            if not entries:
                raise ShapeError("empty set requires explicit s and d")
            s, d = entries[0].s, entries[0].d
        for e in entries:
            if e.strips.shape != (s, d):
                raise ShapeError(
                    f"entry {e.sequence_id!r} has shape {e.strips.shape}, set declares ({s}, {d})"
                )
        strips = np.stack([e.strips for e in entries]) if entries else np.empty((0, s, d))
        sequence_ids = tuple(e.sequence_id for e in entries)
        identity_ids = tuple(e.identity_id for e in entries)
        return cls(strips, sequence_ids, identity_ids, partition)

    @property
    def s(self) -> int:
        return self.strips.shape[1]

    @property
    def d(self) -> int:
        return self.strips.shape[2]

    @cached_property
    def entries(self) -> tuple[FeatureMap, ...]:
        """One FeatureMap per entry, its strips a view into ``strips``."""
        return tuple(map(FeatureMap, self.sequence_ids, self.identity_ids, self.strips))

    def __len__(self) -> int:
        return len(self.sequence_ids)

    def __iter__(self) -> Iterator[FeatureMap]:
        return iter(self.entries)

    def ids(self) -> list[str]:
        return list(self.sequence_ids)

    @cached_property
    def row_of(self) -> dict[str, int]:
        """sequence_id -> row of ``strips``."""
        return {sid: row for row, sid in enumerate(self.sequence_ids)}

    def get(self, sequence_id: str) -> FeatureMap:
        return self.entries[self.row_of[sequence_id]]

    def identity_map(self) -> dict[str, str]:
        """sequence_id -> identity_id for every entry."""
        return dict(zip(self.sequence_ids, self.identity_ids))

    def identities(self) -> list[str]:
        """Sorted unique identity ids."""
        return sorted(set(self.identity_ids))

    @cached_property
    def rank_of(self) -> dict[str, int]:
        """Each sequence id's position in Python's str order, the order
        rankings tie-break in (numpy "U" arrays drop trailing NULs)."""
        return {sid: i for i, sid in enumerate(sorted(self.sequence_ids))}

    @cached_property
    def id_rank(self) -> np.ndarray:
        """``rank_of`` of every entry: the ranking tie-break key and the
        self-exclusion key."""
        return np.array([self.rank_of[sid] for sid in self.sequence_ids], dtype=np.intp)

    @cached_property
    def strip_sq_norms(self) -> np.ndarray:
        """The squared norm of every strip, summed in float32 and held as
        float64, shape ``(s, n)``: the gallery side of stage one's bound
        prefilter (``ranking._distance_bounds``)."""
        norms = np.einsum("nsd,nsd->sn", self.strips, self.strips).astype(np.float64, order="C")
        norms.flags.writeable = False
        return norms

    def manifest(self) -> dict[str, dict[str, str]]:
        return {
            sid: {"identity": iid, "partition": self.partition}
            for sid, iid in zip(self.sequence_ids, self.identity_ids)
        }


def manifest_path(path) -> Path:
    return Path(str(path) + ".manifest.json")


def _read_bytes(path) -> bytes:
    """The bytes of input ``path``: the one place a missing input is named."""
    p = Path(path)
    if not p.exists():
        raise FileNotFoundError(str(p))
    return p.read_bytes()


def _read_text(path) -> str:
    """The text of input ``path``; bytes that are not UTF-8 are a FormatError."""
    try:
        return _read_bytes(path).decode("utf-8")
    except UnicodeDecodeError as exc:
        raise FormatError(f"{path}: not UTF-8 text ({exc})") from exc


def read_manifest(path) -> dict[str, dict]:
    """Read a manifest: a JSON object mapping each sequence id to a record
    object with at least a string ``"identity"``."""
    try:
        payload = json.loads(_read_text(path))
    except json.JSONDecodeError as exc:
        raise FormatError(f"{path}: invalid JSON ({exc})") from exc
    if not isinstance(payload, dict):
        raise FormatError(f"{path}: manifest must be a JSON object")
    for seq, rec in payload.items():
        if not isinstance(rec, dict) or not isinstance(rec.get("identity"), str):
            raise FormatError(f"{path}: record {seq!r} has no string \"identity\"")
    return payload


@contextmanager
def _write_atomic(path, mode: str) -> Iterator[IO]:
    """The one way an artefact is written: a handle (mode "w", UTF-8 with
    newlines as given, or "wb") on a temp file beside ``path``'s resolved
    target, renamed over it when the block ends and removed on any error,
    so an interrupted write leaves the previous file or none. A FIFO or
    device (/dev/stdout) is written in place. Errors name ``path``."""
    path = Path(path)
    text = {} if "b" in mode else {"encoding": "utf-8", "newline": ""}
    if path.exists() and not path.is_file():
        with open(path, mode, **text) as fh:
            yield fh
        return
    target = path.resolve()
    tmp = target.with_name(f".{target.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, mode, **text) as fh:
            yield fh
        os.replace(tmp, target)
    except BaseException as exc:
        tmp.unlink(missing_ok=True)
        if isinstance(exc, OSError) and exc.errno is not None:
            raise OSError(exc.errno, exc.strerror, str(path)) from exc
        raise


def save_feature_set(fs: FeatureSet, path) -> None:
    """Write the GFM1 binary file plus its JSON manifest sidecar, each
    atomically."""
    with _write_atomic(path, "wb") as fh:
        fh.write(_HEADER.pack(MAGIC, len(fs), fs.s, fs.d))
        rows = fs.strips.astype("<f4", copy=False)
        for sid, iid, row in zip(fs.sequence_ids, fs.identity_ids, rows):
            for text in (sid, iid):
                raw = text.encode("utf-8")
                if len(raw) > 0xFFFF:
                    raise FormatError(f"id longer than 65535 bytes in {sid!r}")
                fh.write(_U16.pack(len(raw)) + raw)
            fh.write(row)
    with _write_atomic(manifest_path(path), "w") as fh:
        fh.write(json.dumps(fs.manifest(), indent=2, sort_keys=True) + "\n")


def load_feature_set(path) -> FeatureSet:
    """Read a GFM1 file and its manifest, checking the format, then build
    the set, which checks its own invariants; their errors name the file.

    The values are copied once, straight from the file into the set's
    array.
    """
    p = Path(path)
    blob = _read_bytes(p)
    if len(blob) < _HEADER.size:
        raise FormatError(f"{p}: truncated header ({len(blob)} bytes)")
    magic, count, s, d = _HEADER.unpack_from(blob, 0)
    if magic != MAGIC:
        raise FormatError(f"{p}: bad magic {magic!r}")
    if s < 1 or d < 1:
        raise FormatError(f"{p}: header declares s={s} d={d}")
    payload = s * d * 4
    if payload > np.iinfo(np.intp).max:
        raise FormatError(f"{p}: header declares s={s} d={d}, too large for one array")
    # every entry holds at least two id lengths and its values: the header
    # must not size an array the file cannot fill
    rest = len(blob) - _HEADER.size
    if count * (2 * _U16.size + payload) > rest:
        raise FormatError(f"{p}: truncated: {count} entries of {s}x{d} need over {rest} bytes")

    strips = np.empty((count, s, d), dtype="<f4")
    dst = memoryview(strips.reshape(-1).view(np.uint8))
    src = memoryview(blob)
    sids: list[str] = []
    iids: list[str] = []
    offset = _HEADER.size
    for i in range(count):
        for ids in (sids, iids):
            if offset + _U16.size > len(blob):
                raise FormatError(f"{p}: truncated at entry {i}")
            (n,) = _U16.unpack_from(blob, offset)
            offset += _U16.size
            if offset + n > len(blob):
                raise FormatError(f"{p}: truncated at entry {i}")
            try:
                ids.append(blob[offset : offset + n].decode("utf-8"))
            except UnicodeDecodeError as exc:
                raise FormatError(f"{p}: id of entry {i} is not UTF-8 ({exc})") from exc
            offset += n
        if offset + payload > len(blob):
            raise FormatError(f"{p}: truncated payload at entry {i}")
        dst[i * payload : (i + 1) * payload] = src[offset : offset + payload]
        offset += payload
    if offset != len(blob):
        raise FormatError(f"{p}: {len(blob) - offset} trailing bytes")

    mpath = manifest_path(p)
    if not mpath.exists():
        raise FormatError(f"{p}: missing manifest sidecar {mpath.name}")
    manifest = read_manifest(mpath)
    if set(manifest) != set(sids):
        raise FormatError(f"{mpath}: manifest ids do not match payload ids")
    for rec in manifest.values():
        if rec.get("partition") not in PARTITIONS:
            raise FormatError(f"{mpath}: unknown partition tag {rec.get('partition')!r}")
    partitions = {rec["partition"] for rec in manifest.values()}
    if len(partitions) > 1:
        raise FormatError(f"{mpath}: mixed partition tags {sorted(partitions)}")
    partition = partitions.pop() if partitions else "train"

    for sid, iid in zip(sids, iids):
        if manifest[sid]["identity"] != iid:
            raise FormatError(
                f"{mpath}: identity mismatch for {sid!r} "
                f"({manifest[sid]['identity']!r} vs {iid!r})"
            )
    try:
        return FeatureSet(strips, tuple(sids), tuple(iids), partition)
    except (DuplicateIdError, NonFiniteError) as exc:
        raise type(exc)(f"{p}: {exc}") from None
