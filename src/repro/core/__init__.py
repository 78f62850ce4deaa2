"""Core atypical-cluster model and algorithms (the paper's contribution)."""

from repro.core.cluster import AtypicalCluster, ClusterIdGenerator
from repro.core.events import (
    AtypicalEvent,
    EventExtractor,
    ExtractionParams,
    UnionFind,
)
from repro.core.features import SeverityFeature, SpatialFeature, TemporalFeature
from repro.core.forest import AtypicalForest, ForestStats
from repro.core.integration import ClusterIntegrator, IntegrationResult
from repro.core.merge import merge_clusters
from repro.core.query import (
    STRATEGIES,
    AnalyticalQuery,
    QueryProcessor,
    QueryResult,
    QueryStats,
    RegionSeverityProvider,
)
from repro.core.records import AtypicalRecord, RecordBatch
from repro.core.redzone import RedZones, compute_red_zones, filter_by_red_zones
from repro.core.significance import SignificanceThreshold, significant_clusters
from repro.core.streaming import OnlineEventTracker, OpenEvent
from repro.core.similarity import (
    BALANCE_FUNCTIONS,
    ClusterSimilarity,
    balance_function,
    similarity,
    spatial_similarity,
    temporal_similarity,
)

__all__ = [
    "AtypicalCluster",
    "ClusterIdGenerator",
    "AtypicalEvent",
    "EventExtractor",
    "ExtractionParams",
    "UnionFind",
    "SeverityFeature",
    "SpatialFeature",
    "TemporalFeature",
    "AtypicalForest",
    "ForestStats",
    "ClusterIntegrator",
    "IntegrationResult",
    "merge_clusters",
    "STRATEGIES",
    "AnalyticalQuery",
    "QueryProcessor",
    "QueryResult",
    "QueryStats",
    "RegionSeverityProvider",
    "AtypicalRecord",
    "RecordBatch",
    "RedZones",
    "compute_red_zones",
    "filter_by_red_zones",
    "SignificanceThreshold",
    "significant_clusters",
    "OnlineEventTracker",
    "OpenEvent",
    "BALANCE_FUNCTIONS",
    "ClusterSimilarity",
    "balance_function",
    "similarity",
    "spatial_similarity",
    "temporal_similarity",
]
