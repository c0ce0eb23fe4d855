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
import stat
import struct
from contextlib import contextmanager
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import IO, BinaryIO, Iterator

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
_escape = json.encoder.encode_basestring_ascii

# bytes of values per write of save_feature_set, 256 entries at 16 x 64:
# saving the 10,000 x 16 x 64 set took 78-88 ms at 64 KB to 4 MB per
# write and 142 ms at one 4 KB entry per write (median of 9)
WRITE_BYTES = 1 << 20

# bytes of values a set's own passes over its array take at a time: the
# finiteness check's mask of a whole 10,000 x 16 x 64 array, 10 MB, once
# freed, stayed resident as glibc heap
PASS_BYTES = 1 << 20


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
        arr = self.strips  # a set's entries, views of its float32 array, are kept as they are
        if not (type(arr) is np.ndarray and arr.dtype == np.float32 and arr.flags.c_contiguous):
            arr = np.ascontiguousarray(arr, dtype=np.float32)
            object.__setattr__(self, "strips", arr)
        if arr.ndim != 2 or not arr.size:
            raise ShapeError(
                f"strips of {self.sequence_id!r} must be a non-empty 2-d "
                f"matrix, got shape {arr.shape}"
            )

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
    index, the ranking keys, and ``bound_table`` and ``sum_table``, the
    gallery side of stage one's top-k bounds) is derived on first use and
    cached: every layer reads ``strips`` itself instead of copying it.
    Each table is built in one pass over ``strips`` on the first top-k
    call that reads it, never at load.

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
        first_bad, step = n, max(1, PASS_BYTES // (4 * strips.shape[1] * strips.shape[2]))
        for start in range(0, n, step):
            finite = np.isfinite(strips[start : start + step]).all(axis=(1, 2))
            if not finite.all():
                first_bad = start + int(np.argmin(finite))
                break
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
    def bound_table(self) -> np.ndarray:
        """The gallery side of stage one's per-strip bound: float64 terms of
        the strips' norms, ``(s, n)`` (``ranking._norm_terms``)."""
        from .ranking import _norm_terms  # ranking imports this module

        return _norm_terms(self.strips)

    @cached_property
    def sum_table(self) -> tuple[np.ndarray, np.ndarray]:
        """The gallery side of stage one's strip-sum bound
        (``ranking._sum_table``), which only galleries of at least
        ``ranking.CASCADE_ROWS`` rows read."""
        from .ranking import _sum_table

        return _sum_table(self.strips)


def manifest_path(path) -> Path:
    return Path(str(path) + ".manifest.json")


def _open_input(path) -> BinaryIO:
    """A binary handle on input ``path``: the one place a missing input is
    named."""
    p = Path(path)
    if not p.exists():
        raise FileNotFoundError(str(p))
    return open(p, "rb")


def _read_bytes(path) -> bytes:
    """The bytes of input ``path``."""
    with _open_input(path) as fh:
        return fh.read()


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


def _prefixed_id(text: str, sid: str) -> bytes:
    """An id as GFM1 stores it: u16 length, then utf-8 bytes."""
    raw = text.encode("utf-8")
    if len(raw) > 0xFFFF:
        raise FormatError(f"id longer than 65535 bytes in {sid!r}")
    return _U16.pack(len(raw)) + raw


def _manifest_text(fs: FeatureSet) -> str:
    """The manifest of ``fs``, each sequence id mapped to ``{"identity":
    ..., "partition": ...}``, as ``json.dumps(manifest, indent=2,
    sort_keys=True)`` plus a newline would write it, without json's
    pure-Python indenting encoder: the records follow one template, and
    each id is escaped by the function ``json.dumps`` escapes it with."""
    if not len(fs):
        return "{}\n"
    tail = f'\n    "partition": {_escape(fs.partition)}\n  }}'
    records = ",\n".join(
        f'  {_escape(sid)}: {{\n    "identity": {_escape(iid)},{tail}'
        for sid, iid in sorted(zip(fs.sequence_ids, fs.identity_ids))
    )
    return "{\n" + records + "\n}\n"


def save_feature_set(fs: FeatureSet, path) -> None:
    """Write the GFM1 binary file plus its JSON manifest sidecar, each
    atomically. The entries go out WRITE_BYTES of values at a time, one
    write each, so the file's bytes are never held whole."""
    step = max(1, WRITE_BYTES // (4 * fs.s * fs.d))
    rows = fs.strips.astype("<f4", copy=False)
    with _write_atomic(path, "wb") as fh:
        fh.write(_HEADER.pack(MAGIC, len(fs), fs.s, fs.d))
        for start in range(0, len(fs), step):
            stop = start + step
            parts = []
            for sid, iid, row in zip(fs.sequence_ids[start:stop], fs.identity_ids[start:stop],
                                     rows[start:stop]):
                parts += (_prefixed_id(sid, sid), _prefixed_id(iid, sid), row)
            fh.write(b"".join(parts))
    with _write_atomic(manifest_path(path), "w") as fh:
        fh.write(_manifest_text(fs))


def load_feature_set(path) -> FeatureSet:
    """Read a GFM1 file and its manifest, checking the format, then build
    the set, which checks its own invariants; their errors name the file.

    The file is streamed: ids come in small reads and each entry's values
    are read straight into the set's array, so the file's bytes are never
    held whole. A GFM1 input must be a regular file, whose size bounds
    what its header may declare.
    """
    p = Path(path)
    sids: list[str] = []
    iids: list[str] = []
    with _open_input(p) as fh:
        st = os.fstat(fh.fileno())
        if not stat.S_ISREG(st.st_mode):
            raise FormatError(f"{p}: not a regular file")
        header = fh.read(_HEADER.size)
        if len(header) < _HEADER.size:
            raise FormatError(f"{p}: truncated header ({len(header)} bytes)")
        magic, count, s, d = _HEADER.unpack(header)
        if magic != MAGIC:
            raise FormatError(f"{p}: bad magic {magic!r}")
        if s < 1 or d < 1:
            raise FormatError(f"{p}: header declares s={s} d={d}")
        payload = s * d * 4
        if payload > np.iinfo(np.intp).max:
            raise FormatError(f"{p}: header declares s={s} d={d}, too large for one array")
        # every entry holds at least two id lengths and its values: the
        # header must not size an array the file cannot fill
        rest = st.st_size - _HEADER.size
        if count * (2 * _U16.size + payload) > rest:
            raise FormatError(f"{p}: truncated: {count} entries of {s}x{d} need over {rest} bytes")

        strips = np.empty((count, s, d), dtype="<f4")
        dst = memoryview(strips.reshape(-1).view(np.uint8))
        for i in range(count):
            for ids in (sids, iids):
                raw = fh.read(_U16.size)
                if len(raw) < _U16.size:
                    raise FormatError(f"{p}: truncated at entry {i}")
                (n,) = _U16.unpack(raw)
                raw = fh.read(n)
                if len(raw) < n:
                    raise FormatError(f"{p}: truncated at entry {i}")
                try:
                    ids.append(raw.decode("utf-8"))
                except UnicodeDecodeError as exc:
                    raise FormatError(f"{p}: id of entry {i} is not UTF-8 ({exc})") from exc
            if fh.readinto(dst[i * payload : (i + 1) * payload]) < payload:
                raise FormatError(f"{p}: truncated payload at entry {i}")
        trailing = st.st_size - fh.tell()
        if trailing:
            raise FormatError(f"{p}: {trailing} trailing bytes")

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
