"""Code-smell evolution analytics.

Detect threshold smells per version, track each instance's life across a
version history, run censored survival statistics over the lifetimes, and
flag anomalies in the evolution of smell density.
"""

from .anomaly import (
    AnomalyFlag,
    AnomalyKind,
    AnomalyThresholds,
    ChangeRates,
    DensityPoint,
    change_rate,
    density_series,
    flag_anomalies,
    metric_change_rates,
)
from .errors import ConfigError, ManifestError, ReportParseError, SmellSurvError
from .ingest import (
    History,
    SizeMetrics,
    VersionSnapshot,
    load_manifest,
    load_manifests,
    parse_pmd_report,
)
from .rules import (
    CodeEntity,
    EntityKind,
    RuleId,
    Scope,
    SmellOccurrence,
    SmellRule,
    default_ruleset,
    evaluate_rules,
    load_code_model,
    load_ruleset,
    scope_of,
)
from .survival import (
    GroupComparison,
    GroupSummary,
    LogRankResult,
    SurvivalCurve,
    compare_groups,
    kaplan_meier,
    log_rank,
    median_survival,
    restricted_mean,
    summarize,
)
from .tracking import (
    InstanceKey,
    SurvivalRecord,
    TrackingOptions,
    apply_rename_heuristic,
    assign_keys,
    assign_timeframes,
    build_survival_records,
    make_key,
    split_instant,
)

__version__ = "0.1.0"
