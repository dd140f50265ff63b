"""Measuring tools of the end-to-end benchmark: calibration, spans, statistics.

Nothing here imports the program under test, ``benchmarks/common.py`` or
``repro.profiling``: a later change to any of them cannot move the yardstick.
"""

from __future__ import annotations

import hashlib
import heapq
import json
import resource
import statistics
import time
from contextlib import contextmanager
from typing import Any, Dict, Iterator, List, Optional, Sequence

perf_counter = time.perf_counter

#: Seconds ``cal()`` takes on the machine the benchmark was sized on.  Times
#: the benchmark judges are wall seconds scaled by ``CAL_NOMINAL_S / cal_s``:
#: seconds of a host on which the kernel takes exactly this long.
CAL_NOMINAL_S = 0.1


# -- calibration kernel -----------------------------------------------------------


class _Cell:
    __slots__ = ("key", "value", "next")

    def __init__(self, key: int, value: float) -> None:
        self.key = key
        self.value = value
        self.next = None


def _accumulator():
    total = 0.0
    while True:
        total += yield total


def cal() -> float:
    """Run the fixed calibration kernel and return its wall time in seconds.

    About 0.1 s of the operations a discrete-event simulation in pure Python
    is made of: heap push/pop of tuples, ``__slots__`` allocation, dict
    get/set, float multiply-add, list append and generator ``send``.  The
    work is the same on every call, so its duration tracks how fast this
    host runs that mix *right now*; a timed region is scored as its wall
    time over the mean of the kernel's duration just before and just after.
    """
    start = perf_counter()
    heap: List[tuple] = []
    table: Dict[int, float] = {}
    log: List[float] = []
    gen = _accumulator()
    next(gen)
    push, pop, send, append = heapq.heappush, heapq.heappop, gen.send, log.append
    x = 0.5
    head = None
    for i in range(60000):
        x = x * 0.999 + 0.37
        push(heap, (x % 1.0, i, None))
        cell = _Cell(i, x)
        cell.next = head
        head = cell if i & 7 else None
        table[i & 1023] = table.get((i * 7) & 1023, 0.0) + x
        if i & 3 == 3:
            when, _, _ = pop(heap)
            append(send(when))
    while heap:
        append(pop(heap)[0])
    return perf_counter() - start


# -- statistics -------------------------------------------------------------------


def median(values: Sequence[float]) -> float:
    return float(statistics.median(values))


def iqr_frac(values: Sequence[float]) -> float:
    """Distance between the quartiles as a share of the median (0 below 2 values)."""
    if len(values) < 2:
        return 0.0
    q = statistics.quantiles(values, n=4)
    mid = statistics.median(values)
    return (q[2] - q[0]) / mid if mid else 0.0


def peak_rss_mb(children: bool = False) -> float:
    """High-water resident set in MiB of this process, or of its largest child."""
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def fingerprint(value: Any) -> str:
    """sha256 of the canonical JSON of ``value``."""
    text = json.dumps(value, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


# -- spans ------------------------------------------------------------------------


class Spans:
    """In-memory span recorder: name, start, end, parent, repetition id.

    Disabled (the default for untraced repetitions) it records nothing and
    ``span()`` costs one attribute test.
    """

    def __init__(self) -> None:
        self.enabled = False
        self.rep = 0
        #: ``[name, start, end, parent_index, rep]``; ``end`` is None while open.
        self.records: List[list] = []
        self._stack: List[int] = []

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        if not self.enabled:
            yield
            return
        index = self.begin(name)
        try:
            yield
        finally:
            self.end(index)

    def begin(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        index = len(self.records)
        self.records.append([name, perf_counter(), None, parent, self.rep])
        self._stack.append(index)
        return index

    def end(self, index: int) -> None:
        self.records[index][2] = perf_counter()
        popped = self._stack.pop()
        assert popped == index, "spans must close innermost first"

    def current(self) -> int:
        """Index of the innermost open span (-1 when none is open)."""
        return self._stack[-1] if self._stack else -1

    def adopt(self, records: List[list], parent: int) -> None:
        """Graft spans recorded by a child process under span ``parent``."""
        offset = len(self.records)
        for name, start, end, local_parent, _ in records:
            grafted = parent if local_parent < 0 else local_parent + offset
            self.records.append([name, start, end, grafted, self.rep])

    def table(self, root: Optional[str] = None) -> Dict[str, Dict[str, float]]:
        """Per span name: count, total seconds and self seconds.

        Self time is the span's duration minus the part its children cover.
        With ``root`` only spans below a top-level span of that name count.
        """
        child_time = [0.0] * len(self.records)
        roots: List[str] = []
        for name, start, end, parent, _ in self.records:
            if parent >= 0:
                child_time[parent] += end - start
            roots.append(roots[parent] if parent >= 0 else name)
        rows: Dict[str, Dict[str, float]] = {}
        for index, (name, start, end, parent, _) in enumerate(self.records):
            if root is not None and roots[index] != root:
                continue
            row = rows.setdefault(name, {"count": 0, "total_s": 0.0, "self_s": 0.0})
            row["count"] += 1
            row["total_s"] += end - start
            row["self_s"] += end - start - child_time[index]
        return rows

    def to_json(self) -> List[Dict[str, Any]]:
        return [
            {"id": i, "name": n, "start": s, "end": e, "parent": p, "rep": r}
            for i, (n, s, e, p, r) in enumerate(self.records)
        ]


def format_self_time_table(rows: Dict[str, Dict[str, float]], reps: int) -> str:
    """The self-time table of a traced run, per repetition, widest self time first."""
    lines = [f"{'span':28s} {'count':>8s} {'total_s':>10s} {'self_s':>10s}"]
    for name, row in sorted(rows.items(), key=lambda kv: -kv[1]["self_s"]):
        lines.append(
            f"{name:28s} {row['count'] / reps:8.1f} "
            f"{row['total_s'] / reps:10.4f} {row['self_s'] / reps:10.4f}"
        )
    return "\n".join(lines)
