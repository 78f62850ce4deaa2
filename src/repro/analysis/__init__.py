"""User-facing analysis API: engine, reports and strategy evaluation."""

from repro.analysis.engine import AnalysisEngine, EngineConfig
from repro.analysis.evaluation import StrategyScore, ground_truth, score_strategy
from repro.analysis.report import (
    ClusterReport,
    CongestionReport,
    build_report,
    describe_cluster,
    weather_breakdown,
)

__all__ = [
    "AnalysisEngine",
    "EngineConfig",
    "StrategyScore",
    "ground_truth",
    "score_strategy",
    "ClusterReport",
    "CongestionReport",
    "build_report",
    "describe_cluster",
    "weather_breakdown",
]
