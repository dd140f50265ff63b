"""Streaming result aggregation: fold JSONL increments, never hold it all.

A million-scenario sweep cannot materialise every record in one process.
Instead, workers append result increments to per-worker JSONL shards
(:meth:`repro.campaign.queue.ScenarioQueue.append_increment`) and a
:class:`StreamingAggregator` folds them — record by record, shard by
shard, in any order — into fixed-memory running statistics:

* **counts** per status (and per ``error_kind``) — exact;
* **means** — exact and *order-independent*: sums accumulate as exact
  rationals (:class:`fractions.Fraction`), so any sharding or
  permutation of the same records produces the bit-identical mean,
  extending the campaign byte-identity contract to aggregates;
* **percentiles** — a fixed-memory mergeable quantile sketch
  (:class:`QuantileSketch`, t-digest flavoured) with a *certified*
  error bound per query.

Aggregators merge associatively (``a.merge(b)``), so a tree of partial
aggregates folds exactly like one sequential pass.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction
from pathlib import Path
from typing import Any, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple, Union

from repro.campaign.runner import REPORT_METRICS

#: Schema tag on aggregate payloads.
AGGREGATE_SCHEMA = "elastisim-campaign-aggregate/1"

#: Default sketch resolution: centroids hold <= max(1, ceil(n/delta))
#: points, so quantile rank error is typically <= 2/delta.
DEFAULT_COMPRESSION = 100

#: Default percentiles reported by :meth:`StreamingAggregator.as_dict`.
DEFAULT_PERCENTILES = (0.5, 0.9, 0.99)


class QuantileSketch:
    """Fixed-memory mergeable quantile sketch over disjoint value intervals.

    Centroids are ``[lo, hi, weight, sum]`` rows covering *disjoint*
    value intervals, kept sorted.  Compression greedily merges sorted
    neighbours while the merged weight stays under
    ``max(1, ceil(n / compression))`` — and *always* merges overlapping
    intervals (which only arise when sketches built from different
    shards interleave), so disjointness is an invariant.

    **Documented error bound.**  Because intervals are disjoint and
    weights are exact, the centroid whose cumulative weight range covers
    rank ``r`` brackets the exact rank-``r`` order statistic:
    :meth:`quantile_bounds` returns ``(lo, hi)`` with the *guarantee*
    that the exact quantile lies in ``[lo, hi]`` — certified accounting,
    not an estimate.  :meth:`quantile` interpolates inside that bracket;
    with compression :math:`\\delta` each regular centroid holds at most
    ``max(1, ceil(n/δ))`` points, so the estimate's rank error is
    typically ``<= 2/δ`` (forced merges of heavily overlapping shards
    can locally widen the bracket — which the bracket then reports
    honestly).  With ``n <= 2δ`` nothing is ever compressed and every
    quantile is exact.
    """

    def __init__(self, compression: int = DEFAULT_COMPRESSION) -> None:
        if compression < 1:
            raise ValueError(f"compression must be >= 1, got {compression}")
        self.compression = int(compression)
        self.count = 0
        self._centroids: List[List[float]] = []

    def add(self, value: float) -> None:
        """Fold one finite value."""
        value = float(value)
        if not math.isfinite(value):
            raise ValueError(f"quantile sketch values must be finite: {value!r}")
        self._centroids.append([value, value, 1.0, value])
        self.count += 1
        if len(self._centroids) > 2 * self.compression:
            self._compress()

    def merge(self, other: "QuantileSketch") -> None:
        """Fold another sketch in; associative and commutative up to bounds."""
        self._centroids.extend([row[:] for row in other._centroids])
        self.count += other.count
        self._compress()

    def _compress(self) -> None:
        if not self._centroids:
            return
        rows = sorted(self._centroids, key=lambda row: (row[0], row[1]))
        limit = max(1.0, math.ceil(self.count / self.compression))
        merged: List[List[float]] = [rows[0][:]]
        for row in rows[1:]:
            head = merged[-1]
            overlapping = row[0] <= head[1]
            if overlapping or head[2] + row[2] <= limit:
                head[1] = max(head[1], row[1])
                head[2] += row[2]
                head[3] += row[3]
            else:
                merged.append(row[:])
        self._centroids = merged

    def __len__(self) -> int:
        return len(self._centroids)

    def _bracket(self, rank: float) -> Tuple[float, float]:
        """The centroid interval covering 0-based ``rank``."""
        cumulative = 0.0
        for lo, hi, weight, _ in self._centroids:
            if rank < cumulative + weight:
                return lo, hi
            cumulative += weight
        tail = self._centroids[-1]
        return tail[0], tail[1]

    def quantile_bounds(self, q: float) -> Tuple[float, float]:
        """Certified bracket: the exact q-quantile lies within it.

        The exact quantile (linear interpolation between order
        statistics, numpy's default) sits between the ``floor(r)``-th
        and ``ceil(r)``-th order statistics for ``r = q * (n - 1)``;
        each of those lives inside its covering centroid's interval.
        """
        if self.count == 0:
            raise ValueError("empty sketch has no quantiles")
        self._compress()
        q = min(max(q, 0.0), 1.0)
        rank = q * (self.count - 1)
        lo, _ = self._bracket(math.floor(rank))
        _, hi = self._bracket(math.ceil(rank))
        return lo, hi

    def _value_at(self, k: int) -> float:
        """Estimate for the 0-based ``k``-th order statistic.

        Inside a centroid the ``weight`` points are assumed evenly
        spread over ``[lo, hi]`` — exact for singleton centroids, so the
        whole sketch is exact while nothing has been compressed.
        """
        cumulative = 0.0
        for lo, hi, weight, _ in self._centroids:
            if k < cumulative + weight:
                if weight <= 1.0 or hi == lo:
                    return lo
                position = (k - cumulative) / (weight - 1.0)
                return lo + (hi - lo) * min(max(position, 0.0), 1.0)
            cumulative += weight
        return self._centroids[-1][1]

    def quantile(self, q: float) -> float:
        """Point estimate: linear interpolation between bracketing ranks."""
        if self.count == 0:
            raise ValueError("empty sketch has no quantiles")
        self._compress()
        q = min(max(q, 0.0), 1.0)
        rank = q * (self.count - 1)
        low = self._value_at(math.floor(rank))
        high = self._value_at(math.ceil(rank))
        if low == high:
            return low
        return low + (high - low) * (rank - math.floor(rank))

    def to_dict(self) -> Dict[str, Any]:
        self._compress()
        return {
            "compression": self.compression,
            "count": self.count,
            "centroids": [list(row) for row in self._centroids],
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "QuantileSketch":
        sketch = cls(int(payload["compression"]))
        sketch.count = int(payload["count"])
        sketch._centroids = [
            [float(v) for v in row] for row in payload.get("centroids", [])
        ]
        return sketch


class MetricAccumulator:
    """Exact count/sum/min/max plus a quantile sketch for one metric."""

    def __init__(self, compression: int = DEFAULT_COMPRESSION) -> None:
        self.count = 0
        self._sum = Fraction(0)
        self.min: Optional[float] = None
        self.max: Optional[float] = None
        self.sketch = QuantileSketch(compression)

    def add(self, value: float) -> None:
        value = float(value)
        if not math.isfinite(value):
            return
        self.count += 1
        # Fractions make the sum exact, hence independent of fold order:
        # any sharding of the same records reports the bit-identical mean.
        self._sum += Fraction(value)
        self.min = value if self.min is None else min(self.min, value)
        self.max = value if self.max is None else max(self.max, value)
        self.sketch.add(value)

    def merge(self, other: "MetricAccumulator") -> None:
        self.count += other.count
        self._sum += other._sum
        for bound in (other.min, other.max):
            if bound is None:
                continue
            self.min = bound if self.min is None else min(self.min, bound)
            self.max = bound if self.max is None else max(self.max, bound)
        self.sketch.merge(other.sketch)

    @property
    def mean(self) -> Optional[float]:
        if self.count == 0:
            return None
        return float(self._sum / self.count)

    def as_dict(self, percentiles: Sequence[float]) -> Dict[str, Any]:
        out: Dict[str, Any] = {
            "count": self.count,
            "mean": self.mean,
            "min": self.min,
            "max": self.max,
        }
        for q in percentiles:
            label = f"p{q * 100:g}".replace(".", "_")
            out[label] = self.sketch.quantile(q) if self.count else None
        return out


def iter_jsonl_records(path: Union[str, Path]) -> Iterator[Dict[str, Any]]:
    """The records of one JSONL shard, in file order.

    Accepts worker increment shards and ``scenarios.jsonl`` report
    streams alike.  Blank lines, a trailing partial line (a worker killed
    mid-append) and lines that are not objects are skipped, not fatal.
    """
    with Path(path).open() as stream:
        for line in stream:
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError:
                continue
            if isinstance(record, dict):
                yield record


class StreamingAggregator:
    """Fold scenario records (or JSONL shards of them) into running stats."""

    def __init__(
        self,
        metrics: Sequence[str] = REPORT_METRICS,
        *,
        compression: int = DEFAULT_COMPRESSION,
    ) -> None:
        self.metrics = tuple(metrics)
        self.compression = int(compression)
        self.scenarios = 0
        self.status_counts: Dict[str, int] = {}
        self.error_kinds: Dict[str, int] = {}
        self.wall_s = 0.0
        self._accumulators: Dict[str, MetricAccumulator] = {
            metric: MetricAccumulator(compression) for metric in self.metrics
        }

    def fold_record(self, record: Dict[str, Any]) -> None:
        """Fold one scenario record (the shape ``run_scenario`` returns)."""
        self.scenarios += 1
        status = str(record.get("status", "failed"))
        self.status_counts[status] = self.status_counts.get(status, 0) + 1
        kind = record.get("error_kind")
        if kind is not None:
            kind = str(kind)
            self.error_kinds[kind] = self.error_kinds.get(kind, 0) + 1
        wall = record.get("wall_s")
        if isinstance(wall, (int, float)) and math.isfinite(wall):
            self.wall_s += float(wall)
        if status != "ok":
            return
        summary = record.get("result", {}).get("summary", {})
        for metric in self.metrics:
            value = summary.get(metric)
            if (
                isinstance(value, (int, float))
                and not isinstance(value, bool)
                and math.isfinite(value)
            ):
                self._accumulators[metric].add(value)

    def fold_jsonl(self, path: Union[str, Path]) -> int:
        """Fold every record in a JSONL shard (:func:`iter_jsonl_records`);
        returns records folded."""
        folded = 0
        for record in iter_jsonl_records(path):
            self.fold_record(record)
            folded += 1
        return folded

    def fold_paths(self, paths: Iterable[Union[str, Path]]) -> int:
        return sum(self.fold_jsonl(path) for path in paths)

    def merge(self, other: "StreamingAggregator") -> None:
        """Fold another aggregator in (associative shard reduction)."""
        if other.metrics != self.metrics:
            raise ValueError(
                f"cannot merge aggregators over different metrics: "
                f"{other.metrics} vs {self.metrics}"
            )
        self.scenarios += other.scenarios
        for status, count in other.status_counts.items():
            self.status_counts[status] = self.status_counts.get(status, 0) + count
        for kind, count in other.error_kinds.items():
            self.error_kinds[kind] = self.error_kinds.get(kind, 0) + count
        self.wall_s += other.wall_s
        for metric in self.metrics:
            self._accumulators[metric].merge(other._accumulators[metric])

    def accumulator(self, metric: str) -> MetricAccumulator:
        return self._accumulators[metric]

    def as_dict(
        self, percentiles: Sequence[float] = DEFAULT_PERCENTILES
    ) -> Dict[str, Any]:
        return {
            "schema": AGGREGATE_SCHEMA,
            "scenarios": self.scenarios,
            "status": dict(sorted(self.status_counts.items())),
            "error_kinds": dict(sorted(self.error_kinds.items())),
            "total_wall_s": self.wall_s,
            "metrics": {
                metric: self._accumulators[metric].as_dict(percentiles)
                for metric in self.metrics
            },
        }


__all__ = [
    "AGGREGATE_SCHEMA",
    "DEFAULT_COMPRESSION",
    "DEFAULT_PERCENTILES",
    "MetricAccumulator",
    "QuantileSketch",
    "StreamingAggregator",
    "iter_jsonl_records",
]
