"""Study-grade report tables folded from campaign scenario records.

The evaluation stage of the real-workload malleability study
(``docs/STUDY.md``): scenario records — in memory, or streamed back out
of ``scenarios.jsonl`` / worker increment shards — are grouped by their
grid coordinates (type mix, strategy, parallel-fraction point, …) and
each group is folded through a :class:`~repro.campaign.aggregate
.StreamingAggregator`, one aggregator per group, so the per-mix means
are exact (Fraction sums) and byte-identical no matter which executor
produced the records or in which order the shards arrive.

The output is one table: a row per group, columns ``<metric>_mean`` /
``<metric>_min`` / ``<metric>_max`` for each report metric, rendered as

* JSON in the ``{"header": [...], "rows": [{...}]}`` shape the
  regression comparer (:mod:`repro.campaign.compare`) diffs, tagged with
  :data:`REPORT_SCHEMA`;
* GitHub-flavoured markdown for humans.

``elastisim campaign report`` is the CLI face of this module.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple, Union

from repro.campaign.aggregate import StreamingAggregator, iter_jsonl_records

#: Schema tag on report payloads.
REPORT_SCHEMA = "elastisim-campaign-report/1"

#: Metrics promoted into study report tables: the published-results
#: comparison reads makespan, utilization, and mean/p95 response time.
STUDY_METRICS = (
    "makespan",
    "mean_utilization",
    "mean_turnaround",
    "p95_turnaround",
    "mean_wait",
    "completed_jobs",
    "killed_jobs",
    "total_reconfigurations",
)

#: Statistics emitted per metric column.  Means are exact rationals in
#: the fold, so they are order- and executor-independent.
_STATS = ("mean", "min", "max")


class CampaignStudyReport:
    """Grouped aggregation of scenario records into one comparison table."""

    def __init__(
        self,
        *,
        group_by: Optional[Sequence[str]] = None,
        metrics: Sequence[str] = STUDY_METRICS,
    ) -> None:
        self.group_by = None if group_by is None else tuple(group_by)
        self.metrics = tuple(metrics)
        self._groups: Dict[Tuple[Tuple[str, Any], ...], StreamingAggregator] = {}

    # -- folding -----------------------------------------------------------

    @staticmethod
    def _resolve(record: Mapping[str, Any], params: Mapping[str, Any], key: str) -> Any:
        """A group coordinate: ``params`` first, then scalar record fields.

        ``params`` carries the grid coordinates; ``algorithm`` (and other
        spec fields) live in the record's embedded ``scenario`` payload,
        so strategy comparisons group correctly without every campaign
        having to duplicate the algorithm into a grid axis.
        """
        if key in params:
            return params[key]
        value = record.get(key)
        if value is not None and not isinstance(value, (Mapping, list)):
            return value
        scenario = record.get("scenario")
        if isinstance(scenario, Mapping):
            value = scenario.get(key)
            if not isinstance(value, (Mapping, list)):
                return value
        return None

    def _group_key(self, record: Mapping[str, Any]) -> Tuple[Tuple[str, Any], ...]:
        params = record.get("params") or {}
        if not isinstance(params, Mapping):
            params = {}
        if self.group_by is None:
            names = set(params) - {"seed"}
            if self._resolve(record, params, "algorithm") is not None:
                names.add("algorithm")
            keys = sorted(names)
        else:
            keys = list(self.group_by)
        return tuple((key, self._resolve(record, params, key)) for key in keys)

    def fold_record(self, record: Mapping[str, Any]) -> None:
        """Fold one scenario record into its group's aggregator.

        Grouping reads the record's ``params`` (grid coordinates plus
        platform/workload labels) and the scheduling algorithm from its
        embedded scenario spec; seeds are never part of ``params``, so a
        group naturally aggregates across the seed axis.
        """
        key = self._group_key(record)
        aggregator = self._groups.get(key)
        if aggregator is None:
            aggregator = StreamingAggregator(self.metrics)
            self._groups[key] = aggregator
        aggregator.fold_record(dict(record))

    def fold_records(self, records: Iterable[Mapping[str, Any]]) -> int:
        count = 0
        for record in records:
            self.fold_record(record)
            count += 1
        return count

    def fold_jsonl(self, path: Union[str, Path]) -> int:
        """Fold a ``scenarios.jsonl`` stream or worker increment shard."""
        return self.fold_records(iter_jsonl_records(path))

    def fold_paths(self, paths: Iterable[Union[str, Path]]) -> int:
        return sum(self.fold_jsonl(path) for path in paths)

    # -- rendering ---------------------------------------------------------

    @staticmethod
    def _label(key: Tuple[Tuple[str, Any], ...]) -> str:
        if not key:
            return "all"
        return "/".join(f"{name}={value}" for name, value in key)

    def header(self) -> List[str]:
        columns = ["group", "scenarios", "failed"]
        for metric in self.metrics:
            columns.extend(f"{metric}_{stat}" for stat in _STATS)
        return columns

    def rows(self) -> List[Dict[str, Any]]:
        """One row per group, ordered by group label for determinism."""
        rows: List[Dict[str, Any]] = []
        for key in sorted(self._groups, key=self._label):
            aggregator = self._groups[key]
            ok = aggregator.status_counts.get("ok", 0)
            row: Dict[str, Any] = {
                "group": self._label(key),
                "scenarios": aggregator.scenarios,
                "failed": aggregator.scenarios - ok,
            }
            for metric in self.metrics:
                accumulator = aggregator.accumulator(metric)
                row[f"{metric}_mean"] = accumulator.mean
                row[f"{metric}_min"] = accumulator.min
                row[f"{metric}_max"] = accumulator.max
            rows.append(row)
        return rows

    def as_dict(self) -> Dict[str, Any]:
        """JSON payload in the comparer's ``header``/``rows`` shape."""
        return {
            "schema": REPORT_SCHEMA,
            "group_by": None if self.group_by is None else list(self.group_by),
            "metrics": list(self.metrics),
            "header": self.header(),
            "rows": self.rows(),
        }

    def to_json(self) -> str:
        """Deterministic serialisation: byte-identical for identical records."""
        return json.dumps(self.as_dict(), sort_keys=True, indent=2) + "\n"

    def to_markdown(self, *, title: str = "Campaign report") -> str:
        """GitHub-flavoured markdown table of the same rows."""
        header = self.header()
        lines = [f"# {title}", ""]
        lines.append("| " + " | ".join(header) + " |")
        lines.append("|" + "|".join(" --- " for _ in header) + "|")
        for row in self.rows():
            cells = []
            for column in header:
                value = row.get(column)
                if isinstance(value, float):
                    cells.append(f"{value:.4g}")
                elif value is None:
                    cells.append("—")
                else:
                    cells.append(str(value))
            lines.append("| " + " | ".join(cells) + " |")
        lines.append("")
        return "\n".join(lines)

    def write(
        self, output_dir: Union[str, Path], *, title: str = "Campaign report"
    ) -> Dict[str, Path]:
        """Write ``report.json`` + ``report.md`` into ``output_dir``."""
        out = Path(output_dir)
        out.mkdir(parents=True, exist_ok=True)
        json_path = out / "report.json"
        json_path.write_text(self.to_json())
        markdown_path = out / "report.md"
        markdown_path.write_text(self.to_markdown(title=title))
        return {"json": json_path, "markdown": markdown_path}


def build_report(
    records: Iterable[Mapping[str, Any]],
    *,
    group_by: Optional[Sequence[str]] = None,
    metrics: Sequence[str] = STUDY_METRICS,
) -> CampaignStudyReport:
    """Fold ``records`` into a grouped study report in one call."""
    report = CampaignStudyReport(group_by=group_by, metrics=metrics)
    report.fold_records(records)
    return report


__all__ = [
    "REPORT_SCHEMA",
    "STUDY_METRICS",
    "CampaignStudyReport",
    "build_report",
]
