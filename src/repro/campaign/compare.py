"""Regression checking: diff a campaign/bench report against a baseline.

Reports are the aggregate JSON emitted by
:meth:`repro.campaign.runner.CampaignReport.write` — the same
``{"header": [...], "rows": [{...}]}`` shape as the ``BENCH_*.json``
artefacts from :func:`benchmarks.common.write_bench_json` — so one
checker covers both campaign results and benchmark timings.

Rows are matched on their label column (first header entry), numeric
columns are compared with per-metric relative tolerances, and the
direction of "worse" is inferred from the metric name (utilization and
completion counts are higher-is-better; everything else, lower).  CI
invokes this as ``elastisim campaign compare`` or
``python -m repro.campaign.compare``.

Exit codes: 0 clean (or ``--soft``), 1 regressions, 2 usage/input error.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, List, Mapping, Optional, Sequence, Union

from repro._input import InputError, read_json

#: Metrics where a *decrease* is a regression.
HIGHER_IS_BETTER = ("util", "completed", "speedup", "throughput", "hits")

#: Default relative tolerance for metrics without an explicit one.
DEFAULT_TOLERANCE = 0.05


class CompareError(InputError):
    """Raised for unreadable or malformed reports."""


@dataclass
class Delta:
    """One metric of one row, compared against the baseline."""

    row: str
    metric: str
    current: float
    baseline: float
    tolerance: float
    higher_is_better: bool

    @property
    def rel_change(self) -> float:
        if self.baseline == 0:
            return 0.0 if self.current == 0 else float("inf")
        return (self.current - self.baseline) / abs(self.baseline)

    @property
    def regressed(self) -> bool:
        change = self.rel_change
        if self.higher_is_better:
            return change < -self.tolerance
        return change > self.tolerance

    def describe(self) -> str:
        arrow = "better is higher" if self.higher_is_better else "better is lower"
        return (
            f"{self.row}: {self.metric} {self.baseline:g} -> {self.current:g} "
            f"({self.rel_change:+.1%}, tolerance {self.tolerance:.1%}, {arrow})"
        )


@dataclass
class Comparison:
    """Outcome of diffing two reports."""

    deltas: List[Delta]
    missing_rows: List[str]
    new_rows: List[str]

    @property
    def regressions(self) -> List[Delta]:
        return [d for d in self.deltas if d.regressed]

    @property
    def clean(self) -> bool:
        return not self.regressions and not self.missing_rows


def metric_direction(metric: str) -> bool:
    """True when higher values of ``metric`` are better."""
    lowered = metric.lower()
    return any(token in lowered for token in HIGHER_IS_BETTER)


def _normalize_report(report: Mapping[str, Any]) -> Mapping[str, Any]:
    """Fold alternative report shapes into the ``header``/``rows`` one.

    The streaming-aggregation payloads written by ``elastisim campaign
    aggregate`` (schema ``elastisim-campaign-aggregate/1``) carry a
    ``metrics`` mapping instead of rows; they become one row per metric,
    labelled by metric name, so aggregate regressions gate exactly like
    bench and campaign tables.
    """
    schema = report.get("schema")
    metrics = report.get("metrics")
    if (
        isinstance(schema, str)
        and schema.startswith("elastisim-campaign-aggregate/")
        and isinstance(metrics, Mapping)
    ):
        # One row, columns "<metric>_<stat>": the metric name stays part
        # of every column so metric_direction() sees it (utilization
        # means are higher-is-better even though the stat is "mean").
        row: Dict[str, Any] = {"report": "aggregate"}
        for name in sorted(metrics):
            stats = metrics[name]
            if not isinstance(stats, Mapping):
                raise CompareError(f"malformed aggregate metric {name!r}: {stats!r}")
            for stat in sorted(stats):
                row[f"{name}_{stat}"] = stats[stat]
        scenarios = report.get("scenarios")
        if isinstance(scenarios, (int, float)):
            row["scenarios"] = scenarios
        return {"header": ["report", *[c for c in row if c != "report"]], "rows": [row]}
    return report


def _rows_by_label(report: Mapping[str, Any]) -> Dict[str, Mapping[str, Any]]:
    report = _normalize_report(report)
    header = report.get("header")
    rows = report.get("rows")
    if (
        not isinstance(header, list)
        or not header
        or not isinstance(header[0], str)
        or not isinstance(rows, list)
    ):
        raise CompareError(
            "report needs 'header', column names, and 'rows' (write_bench_json shape)"
        )
    label = header[0]
    out: Dict[str, Mapping[str, Any]] = {}
    for row in rows:
        if not isinstance(row, Mapping) or label not in row:
            raise CompareError(f"malformed row (no {label!r} label): {row!r}")
        out[str(row[label])] = row
    return out


def compare_reports(
    current: Mapping[str, Any],
    baseline: Mapping[str, Any],
    *,
    metrics: Optional[Sequence[str]] = None,
    tolerances: Optional[Mapping[str, float]] = None,
    default_tolerance: float = DEFAULT_TOLERANCE,
) -> Comparison:
    """Diff two reports row by row.

    ``metrics`` restricts the compared columns (default: every column
    numeric in both rows); ``tolerances`` maps metric name to relative
    tolerance, overriding ``default_tolerance``.
    """
    tolerances = dict(tolerances or {})
    current_rows = _rows_by_label(current)
    baseline_rows = _rows_by_label(baseline)

    deltas: List[Delta] = []
    for name, base_row in baseline_rows.items():
        cur_row = current_rows.get(name)
        if cur_row is None:
            continue
        columns = metrics if metrics is not None else list(base_row)
        for metric in columns:
            base_value = base_row.get(metric)
            cur_value = cur_row.get(metric)
            if not _is_number(base_value) or not _is_number(cur_value):
                continue
            deltas.append(
                Delta(
                    row=name,
                    metric=metric,
                    current=float(cur_value),
                    baseline=float(base_value),
                    tolerance=tolerances.get(metric, default_tolerance),
                    higher_is_better=metric_direction(metric),
                )
            )
    return Comparison(
        deltas=deltas,
        missing_rows=sorted(set(baseline_rows) - set(current_rows)),
        new_rows=sorted(set(current_rows) - set(baseline_rows)),
    )


def _is_number(value: Any) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def load_report(path: Union[str, Path]) -> Dict[str, Any]:
    return read_json(path, CompareError)


def _parse_tolerances(pairs: Sequence[str]) -> Dict[str, float]:
    tolerances: Dict[str, float] = {}
    for pair in pairs:
        metric, _, value = pair.partition("=")
        if not metric or not value:
            raise CompareError(f"--tolerance wants metric=value, got {pair!r}")
        try:
            tolerances[metric] = float(value)
        except ValueError:
            raise CompareError(f"bad tolerance value in {pair!r}") from None
    return tolerances


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="elastisim campaign compare",
        description="diff a campaign/bench report against a committed baseline",
    )
    parser.add_argument("current", help="report JSON produced by this run")
    parser.add_argument("baseline", help="committed baseline report JSON")
    parser.add_argument(
        "--metric",
        action="append",
        default=None,
        metavar="NAME",
        help="compare only these columns (repeatable; default: all numeric)",
    )
    parser.add_argument(
        "--tolerance",
        action="append",
        default=[],
        metavar="METRIC=REL",
        help="per-metric relative tolerance, e.g. makespan=0.02 (repeatable)",
    )
    parser.add_argument(
        "--default-tolerance",
        type=float,
        default=DEFAULT_TOLERANCE,
        help=f"tolerance for unlisted metrics (default {DEFAULT_TOLERANCE})",
    )
    parser.add_argument(
        "--soft",
        action="store_true",
        help="report regressions but exit 0 (baseline still maturing)",
    )
    parser.add_argument(
        "--missing-baseline-ok",
        action="store_true",
        help="exit 0 with a warning when the baseline file does not exist",
    )
    args = parser.parse_args(argv)

    if args.missing_baseline_ok and not Path(args.baseline).is_file():
        print(
            f"compare: no baseline at {args.baseline} yet - skipping "
            "(commit one to arm the regression gate)",
            file=sys.stderr,
        )
        return 0

    try:
        comparison = compare_reports(
            load_report(args.current),
            load_report(args.baseline),
            metrics=args.metric,
            tolerances=_parse_tolerances(args.tolerance),
            default_tolerance=args.default_tolerance,
        )
    except CompareError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    for row in comparison.missing_rows:
        print(f"MISSING  {row} (in baseline, not in current report)")
    for row in comparison.new_rows:
        print(f"NEW      {row} (not in baseline)")
    for delta in comparison.regressions:
        print(f"REGRESSED  {delta.describe()}")
    ok = len(comparison.deltas) - len(comparison.regressions)
    print(
        f"compared {len(comparison.deltas)} metrics across "
        f"{len(set(d.row for d in comparison.deltas))} rows: "
        f"{ok} within tolerance, {len(comparison.regressions)} regressed, "
        f"{len(comparison.missing_rows)} rows missing"
    )
    if comparison.clean:
        return 0
    if args.soft:
        print("soft mode: regressions reported but not fatal", file=sys.stderr)
        return 0
    return 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())


__all__ = [
    "Comparison",
    "CompareError",
    "DEFAULT_TOLERANCE",
    "Delta",
    "compare_reports",
    "load_report",
    "main",
    "metric_direction",
]
