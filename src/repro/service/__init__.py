"""The serving layer: fingerprinted artifact cache + batched multi-backend routing.

``repro.service`` operationalises the paper's preprocessing/query tradeoff:
preprocess each expander once per backend, cache the resulting
:class:`~repro.core.router.PreprocessArtifact` by canonical graph fingerprint
(in memory and optionally on disk), and serve batches of routing queries in
parallel off the shared artifacts — through any backend of the
:mod:`repro.backends` registry.  See :class:`RoutingService` for the entry
point, :meth:`RoutingService.compare_batch` for the side-by-side backend
comparison, and ``examples/serving_demo.py`` /
``examples/backend_showdown.py`` for tours.
"""

from repro.service.cache import ArtifactCache, CacheStats
from repro.service.fingerprint import (
    canonical_graph_payload,
    graph_fingerprint,
    graph_payload,
)
from repro.service.service import (
    BatchReport,
    ComparisonEntry,
    ComparisonReport,
    QueryResult,
    RoutingQuery,
    RoutingService,
)

__all__ = [
    "ArtifactCache",
    "CacheStats",
    "canonical_graph_payload",
    "graph_fingerprint",
    "graph_payload",
    "BatchReport",
    "ComparisonEntry",
    "ComparisonReport",
    "QueryResult",
    "RoutingQuery",
    "RoutingService",
]
