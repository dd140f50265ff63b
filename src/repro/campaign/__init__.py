"""Campaigns: declarative scenario grids run in parallel with caching.

The scaling axis *across* simulations: where :class:`repro.Simulation`
runs one scenario, a campaign runs a whole parameter grid — one
synchronous loop over one executor (in-process, process pool, or a
distributed queue-worker fleet; two plain methods each), memoised in a
content-addressed result cache with an optional shared second tree, and
reported in a machine-readable form CI can diff against baselines.

    >>> from repro.campaign import CampaignRunner, ScenarioSpec
    >>> scenarios = [
    ...     ScenarioSpec(
    ...         platform={"nodes": {"count": 16, "flops": 1e12},
    ...                   "network": {"topology": "star", "bandwidth": 1e10}},
    ...         workload={"generate": {"num_jobs": 10}},
    ...         algorithm=algorithm,
    ...     )
    ...     for algorithm in ("easy", "malleable")
    ... ]
    >>> report = CampaignRunner(scenarios, workers=2).run()
    >>> len(report.ok)
    2

See ``docs/CAMPAIGNS.md`` for the campaign-file format, executor and
distributed-run configuration, and CLI usage.
"""

from repro.campaign.aggregate import (
    AGGREGATE_SCHEMA,
    MetricAccumulator,
    QuantileSketch,
    StreamingAggregator,
)
from repro.campaign.cache import CACHE_DIR_ENV, ResultCache, default_cache_dir
from repro.campaign.compare import (
    Comparison,
    CompareError,
    Delta,
    compare_reports,
    load_report,
)
from repro.campaign.executors import (
    BaseExecutor,
    ExecutorBroken,
    ExecutorError,
    InProcessExecutor,
    ProcessPoolCampaignExecutor,
    executor_names,
    make_executor,
)
from repro.campaign.report import (
    REPORT_SCHEMA,
    STUDY_METRICS,
    CampaignStudyReport,
    build_report,
)
from repro.campaign.queue import (
    DEFAULT_LEASE_S,
    QueueError,
    QueueWorkerExecutor,
    ScenarioQueue,
    spawn_worker,
    worker_loop,
)
from repro.campaign.runner import (
    DEFAULT_EXECUTOR,
    REPORT_METRICS,
    CampaignReport,
    CampaignRunner,
    ScenarioTimeout,
    result_fingerprint,
    run_scenario,
)
from repro.campaign.spec import (
    CAMPAIGN_FORMAT,
    DEFAULT_SALT,
    CampaignError,
    ScenarioSpec,
    campaign_name,
    campaign_run_settings,
    canonical_json,
    canonicalize,
    derive_seed,
    expand_campaign,
    load_campaign,
    load_campaign_spec,
    scenario_key,
    scenarios_from_grid,
)

__all__ = [
    "AGGREGATE_SCHEMA",
    "BaseExecutor",
    "CACHE_DIR_ENV",
    "CAMPAIGN_FORMAT",
    "CampaignError",
    "CampaignReport",
    "CampaignRunner",
    "CampaignStudyReport",
    "Comparison",
    "CompareError",
    "DEFAULT_EXECUTOR",
    "DEFAULT_LEASE_S",
    "DEFAULT_SALT",
    "Delta",
    "ExecutorBroken",
    "ExecutorError",
    "InProcessExecutor",
    "MetricAccumulator",
    "ProcessPoolCampaignExecutor",
    "QuantileSketch",
    "QueueError",
    "QueueWorkerExecutor",
    "REPORT_METRICS",
    "REPORT_SCHEMA",
    "STUDY_METRICS",
    "ResultCache",
    "ScenarioQueue",
    "ScenarioSpec",
    "ScenarioTimeout",
    "StreamingAggregator",
    "build_report",
    "campaign_name",
    "campaign_run_settings",
    "canonical_json",
    "canonicalize",
    "compare_reports",
    "default_cache_dir",
    "derive_seed",
    "executor_names",
    "expand_campaign",
    "load_campaign",
    "load_campaign_spec",
    "load_report",
    "make_executor",
    "result_fingerprint",
    "run_scenario",
    "scenario_key",
    "scenarios_from_grid",
    "spawn_worker",
    "worker_loop",
]
