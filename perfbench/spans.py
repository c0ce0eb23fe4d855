"""In-memory span recorder for the traced benchmark run.

Spans are recorded by wrapping module-level functions of the program at
the name their caller looks up (``cli.rank_all``, not only
``ranking.rank_all``), so nothing inside ``src/`` is edited. Each span
keeps its name, start, end and parent; nothing is written until the run
ends. Self time is a span's duration minus the part of it that its child
spans cover.

Work counters are attached to the same wrappers. They are computed from
the arguments the caller passes and the values it gets back, never from
the program's internals.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path


class Tracer:
    def __init__(self) -> None:
        # each span: [name, start_s, end_s, parent_index]
        self.spans: list[list] = []
        self._open: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self.counts: dict[str, float] = defaultdict(float)
        self._distinct: dict[tuple[str, int], set] = defaultdict(set)

    # -- spans -------------------------------------------------------------

    def begin(self, name: str) -> int:
        parent = self._open[-1] if self._open else -1
        self.spans.append([name, time.perf_counter(), None, parent])
        self._open.append(len(self.spans) - 1)
        return self._open[-1]

    def end(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        popped = self._open.pop()
        if popped != index:
            raise RuntimeError(f"span {self.spans[index][0]!r} closed out of order")

    @contextmanager
    def span(self, name: str):
        index = self.begin(name)
        try:
            yield
        finally:
            self.end(index)

    def enclosing(self, name: str) -> bool:
        """Whether a span called ``name`` is open right now."""
        return any(self.spans[i][0] == name for i in self._open)

    def add_distinct(self, label: str, values) -> None:
        """Track distinct values per top-level phase (the spans directly
        under the root), so reuse is measured within one phase."""
        phase = self._open[1] if len(self._open) > 1 else -1
        self._distinct[(label, phase)].update(values)

    def distinct(self, label: str) -> int:
        return sum(len(v) for (name, _), v in self._distinct.items() if name == label)

    # -- wrapping ----------------------------------------------------------

    def wrap(self, module, attr: str, name: str, count=None) -> None:
        """Replace ``module.attr`` by a wrapper that records a span called
        ``name`` and then calls ``count(args, kwargs, result)``."""
        original = getattr(module, attr)

        def wrapper(*args, **kwargs):
            index = self.begin(name)
            try:
                result = original(*args, **kwargs)
            finally:
                self.end(index)
            if count is not None:
                count(args, kwargs, result)
            return result

        wrapper.__wrapped__ = original
        setattr(module, attr, wrapper)
        self._patches.append((module, attr, original))

    def restore(self) -> None:
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches.clear()

    # -- summaries ---------------------------------------------------------

    def self_times(self) -> list[float]:
        """Self time of every span in seconds, by span index."""
        children: dict[int, list[int]] = defaultdict(list)
        for i, (_, _, _, parent) in enumerate(self.spans):
            if parent >= 0:
                children[parent].append(i)
        out = []
        for i, (_, start, end, _) in enumerate(self.spans):
            covered, reach = 0.0, start
            for c in sorted(children[i], key=lambda j: self.spans[j][1]):
                c_start, c_end = self.spans[c][1], self.spans[c][2]
                lo = max(c_start, reach)
                if c_end > lo:
                    covered += c_end - lo
                    reach = c_end
            out.append((end - start) - covered)
        return out

    def totals(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, total ms (outermost spans of that name
        only, so recursion is not counted twice) and self ms."""
        self_s = self.self_times()
        table: dict[str, dict[str, float]] = defaultdict(
            lambda: {"calls": 0, "ms": 0.0, "self_ms": 0.0}
        )
        for i, (name, start, end, parent) in enumerate(self.spans):
            row = table[name]
            row["calls"] += 1
            row["self_ms"] += self_s[i] * 1e3
            if not self._has_ancestor_named(parent, name):
                row["ms"] += (end - start) * 1e3
        return dict(table)

    def _has_ancestor_named(self, index: int, name: str) -> bool:
        while index >= 0:
            if self.spans[index][0] == name:
                return True
            index = self.spans[index][3]
        return False

    def write(self, path: Path, extra: dict) -> None:
        payload = dict(extra)
        payload["spans"] = [
            {"name": n, "start_ms": s * 1e3, "end_ms": e * 1e3, "parent": p}
            for n, s, e, p in self.spans
        ]
        payload["totals"] = self.totals()
        payload["counts"] = dict(self.counts)
        path.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n")
