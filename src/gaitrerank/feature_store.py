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
import struct
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import Iterator

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


@dataclass(frozen=True)
class RankIndex:
    """A gallery laid out for ranking: what ``FeatureSet.rank_index``
    caches.

    ``stack`` is the read-only float32 ``(n, s, d)`` array of all strips in
    entry order, ``ids`` the sequence ids in the same order, and
    ``id_rank[i]`` the position of ``ids[i]`` among the sorted distinct ids,
    which ``rank_of`` maps each distinct id to. Equal ids share a rank, so
    ``id_rank`` is both the tie-break key and the self-exclusion key.
    """

    stack: np.ndarray
    ids: tuple[str, ...]
    id_rank: np.ndarray
    rank_of: dict[str, int]


@dataclass(frozen=True)
class FeatureSet:
    """An ordered, immutable collection of FeatureMaps with uniform shape."""

    entries: tuple[FeatureMap, ...]
    s: int
    d: int
    partition: str = "train"

    @classmethod
    def from_entries(
        cls,
        entries,
        partition: str = "train",
        s: int | None = None,
        d: int | None = None,
    ) -> "FeatureSet":
        """Build a set, inferring s and d from the first entry if present."""
        entries = tuple(entries)
        if s is None or d is None:
            if not entries:
                raise ShapeError("empty set requires explicit s and d")
            s, d = entries[0].s, entries[0].d
        return cls(entries=entries, s=s, d=d, partition=partition)

    def __len__(self) -> int:
        return len(self.entries)

    def __iter__(self) -> Iterator[FeatureMap]:
        return iter(self.entries)

    def ids(self) -> list[str]:
        return [e.sequence_id for e in self.entries]

    def get(self, sequence_id: str) -> FeatureMap:
        for e in self.entries:
            if e.sequence_id == sequence_id:
                return e
        raise KeyError(sequence_id)

    def identity_map(self) -> dict[str, str]:
        """sequence_id -> identity_id for every entry."""
        return {e.sequence_id: e.identity_id for e in self.entries}

    def identities(self) -> list[str]:
        """Sorted unique identity ids."""
        return sorted({e.identity_id for e in self.entries})

    def stacked(self, dtype=np.float64) -> np.ndarray:
        """All strips as one new (n, s, d) array in the requested dtype."""
        return self.rank_index.stack.astype(dtype)

    @cached_property
    def rank_index(self) -> RankIndex:
        """The set stacked for ranking, built on first use and kept for the
        life of the set: in-place edits to an entry's strips after that
        are not seen by ranking."""
        if self.entries:
            stack = np.stack([e.strips for e in self.entries])
        else:
            stack = np.zeros((0, self.s, self.d), dtype=np.float32)
        stack.flags.writeable = False
        ids = tuple(e.sequence_id for e in self.entries)
        # Python's str ordering, the order rankings have always tie-broken
        # in; a numpy "U" array would drop trailing NULs and compare wrong.
        rank_of = {sid: i for i, sid in enumerate(sorted(set(ids)))}
        id_rank = np.array([rank_of[sid] for sid in ids], dtype=np.intp)
        return RankIndex(stack=stack, ids=ids, id_rank=id_rank, rank_of=rank_of)

    def manifest(self) -> dict[str, dict[str, str]]:
        return {
            e.sequence_id: {"identity": e.identity_id, "partition": self.partition}
            for e in self.entries
        }


def manifest_path(path) -> Path:
    return Path(str(path) + ".manifest.json")


def _violations(fs: FeatureSet) -> list[tuple[type, str]]:
    """Structured invariant check: list of (error class, message)."""
    out: list[tuple[type, str]] = []
    if fs.s < 1 or fs.d < 1:
        out.append((ShapeError, f"set header requires s >= 1 and d >= 1, got s={fs.s} d={fs.d}"))
    if fs.partition not in PARTITIONS:
        out.append((FormatError, f"unknown partition tag {fs.partition!r}"))
    seen: set[str] = set()
    dup_reported: set[str] = set()
    for idx, e in enumerate(fs.entries):
        if e.strips.shape != (fs.s, fs.d):
            out.append(
                (ShapeError, f"entry {e.sequence_id!r} has shape {e.strips.shape}, set declares ({fs.s}, {fs.d})")
            )
        if not np.isfinite(e.strips).all():
            out.append(
                (NonFiniteError, f"entry {idx} ({e.sequence_id!r}) contains NaN or Inf")
            )
        if e.sequence_id in seen and e.sequence_id not in dup_reported:
            out.append((DuplicateIdError, f"duplicate sequence_id {e.sequence_id!r}"))
            dup_reported.add(e.sequence_id)
        seen.add(e.sequence_id)
    return out


def validate(fs: FeatureSet) -> list[str]:
    """Return one human-readable description per violated invariant.

    Empty list iff the set would save and load cleanly. Never raises.
    """
    return [msg for _, msg in _violations(fs)]


def _require_valid(fs: FeatureSet) -> None:
    violations = _violations(fs)
    if violations:
        err_cls, msg = violations[0]
        raise err_cls(msg)


def save_feature_set(fs: FeatureSet, path) -> None:
    """Write the GFM1 binary file plus its JSON manifest sidecar."""
    _require_valid(fs)
    blob = bytearray(_HEADER.pack(MAGIC, len(fs.entries), fs.s, fs.d))
    for e in fs.entries:
        for text in (e.sequence_id, e.identity_id):
            raw = text.encode("utf-8")
            if len(raw) > 0xFFFF:
                raise FormatError(f"id longer than 65535 bytes in {e.sequence_id!r}")
            blob += _U16.pack(len(raw))
            blob += raw
        blob += np.ascontiguousarray(e.strips, dtype="<f4").tobytes()
    Path(path).write_bytes(bytes(blob))
    manifest_path(path).write_text(
        json.dumps(fs.manifest(), indent=2, sort_keys=True) + "\n"
    )


def load_feature_set(path) -> FeatureSet:
    """Read a GFM1 file and its manifest; verify all invariants."""
    p = Path(path)
    if not p.exists():
        raise FileNotFoundError(str(p))
    blob = p.read_bytes()
    if len(blob) < _HEADER.size:
        raise FormatError(f"{p}: truncated header ({len(blob)} bytes)")
    magic, count, s, d = _HEADER.unpack_from(blob, 0)
    if magic != MAGIC:
        raise FormatError(f"{p}: bad magic {magic!r}")
    if s < 1 or d < 1:
        raise FormatError(f"{p}: header declares s={s} d={d}")

    offset = _HEADER.size
    payload = s * d * 4
    raw_entries: list[tuple[str, str, np.ndarray]] = []
    for i in range(count):
        ids: list[str] = []
        for _ in range(2):
            if offset + _U16.size > len(blob):
                raise FormatError(f"{p}: truncated at entry {i}")
            (n,) = _U16.unpack_from(blob, offset)
            offset += _U16.size
            if offset + n > len(blob):
                raise FormatError(f"{p}: truncated at entry {i}")
            ids.append(blob[offset : offset + n].decode("utf-8"))
            offset += n
        if offset + payload > len(blob):
            raise FormatError(f"{p}: truncated payload at entry {i}")
        values = np.frombuffer(blob, dtype="<f4", count=s * d, offset=offset)
        offset += payload
        raw_entries.append((ids[0], ids[1], values.reshape(s, d).copy()))
    if offset != len(blob):
        raise FormatError(f"{p}: {len(blob) - offset} trailing bytes")

    seen: set[str] = set()
    for i, (sid, _, values) in enumerate(raw_entries):
        if sid in seen:
            raise DuplicateIdError(f"{p}: duplicate sequence_id {sid!r}")
        seen.add(sid)
        if not np.isfinite(values).all():
            raise NonFiniteError(f"{p}: NaN or Inf in entry {i} ({sid!r})")

    mpath = manifest_path(p)
    if not mpath.exists():
        raise FormatError(f"{p}: missing manifest sidecar {mpath.name}")
    try:
        manifest = json.loads(mpath.read_text())
    except json.JSONDecodeError as exc:
        raise FormatError(f"{mpath}: invalid JSON ({exc})") from exc
    if set(manifest) != seen:
        raise FormatError(f"{mpath}: manifest ids do not match payload ids")
    partitions = {rec.get("partition") for rec in manifest.values()}
    if len(partitions) > 1:
        raise FormatError(f"{mpath}: mixed partition tags {sorted(partitions)}")
    partition = partitions.pop() if partitions else "train"
    if partition not in PARTITIONS:
        raise FormatError(f"{mpath}: unknown partition tag {partition!r}")

    entries = []
    for sid, iid, values in raw_entries:
        if manifest[sid].get("identity") != iid:
            raise FormatError(
                f"{mpath}: identity mismatch for {sid!r} "
                f"({manifest[sid].get('identity')!r} vs {iid!r})"
            )
        entries.append(FeatureMap(sequence_id=sid, identity_id=iid, strips=values))
    fs = FeatureSet(entries=tuple(entries), s=s, d=d, partition=partition)
    _require_valid(fs)
    return fs
