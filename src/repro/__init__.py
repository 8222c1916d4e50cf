"""repro: hybrid graph pattern query evaluation with runtime index graphs.

A from-scratch Python reproduction of "Evaluating Hybrid Graph Pattern
Queries Using Runtime Index Graphs" (EDBT 2023).  The public API re-exports
the pieces most applications need:

* :class:`DataGraph` / :class:`GraphBuilder` — the data-graph substrate;
* :class:`PatternQuery` / :func:`parse_query` — hybrid pattern queries
  (direct ``->`` and reachability ``=>`` edges);
* :class:`GraphMatcher` — the GM pipeline (double simulation + runtime
  index graph + MJoin enumeration);
* :class:`JMMatcher`, :class:`TMMatcher`, :class:`ISOMatcher` — the
  baselines of the paper's evaluation;
* :func:`build_reachability_index` — per-pair reachability indexes (BFL,
  transitive closure, index-free BFS);
* :class:`Budget` / :class:`MatchReport` — per-query limits and outcomes;
* :class:`MatchStream` — incremental (pipelined) match iteration with
  running counters, finalising into a :class:`MatchReport`;
* :class:`QuerySession` — cached per-graph indexes shared by every query
  over one graph;
* :class:`GraphDelta` / :class:`MutableDataGraph` — batched graph updates
  with incremental index maintenance (``session.apply(delta)``);
* :class:`GraphDB` — the unified facade: open / ingest / apply / query /
  stream / count / histogram / stats over the whole store + service stack;
* :class:`Telemetry` / :class:`MetricsRegistry` / :class:`SlowQueryLog`
  — the unified observability context threaded through every layer
  (``repro.obs``): labelled metric families, end-to-end query traces as
  linked spans (traced on request), and a structured slow-query log;
* :class:`GraphServer` / :class:`GraphCatalog` / :class:`GraphClient` —
  multi-tenant network serving of the facade over a length-prefixed JSON
  frame protocol (``repro.server`` / ``repro.client``);
* ``GraphServer(primary=(host, port))`` / :class:`RoutedClient` —
  one-writer/N-replica replication: a replica server tails the primary's
  delta log (one :class:`ReplicaTail` per tenant) and serves the full
  read surface, the routed client splits writes (primary) from reads
  (replicas, round-robin under a staleness floor) — ``repro.replication``.
"""

from repro.exceptions import (
    ReproError,
    GraphError,
    QueryError,
    QueryParseError,
    ReachabilityError,
    MatchingError,
    BudgetExceeded,
    TimeoutExceeded,
    MemoryBudgetExceeded,
    QueryCancelled,
    EngineError,
    StaleIndexError,
    StoreError,
    CatalogError,
    UnknownGraphError,
    ProtocolError,
    ServiceOverloadedError,
    ReplicationError,
    ReadOnlyReplicaError,
    ReplicaDivergedError,
    PrimaryUnavailableError,
)
from repro.graph import DataGraph, GraphBuilder, load_dataset, available_datasets
from repro.query import (
    EdgeType,
    PatternEdge,
    PatternQuery,
    parse_query,
    format_query,
    transitive_reduction,
    template_query,
    instantiate_template,
    random_pattern_query,
)
from repro.reachability import build_reachability_index
from repro.simulation import MatchContext, fbsim, fbsim_basic
from repro.rig import build_rig, RuntimeIndexGraph
from repro.matching import (
    Budget,
    MatchReport,
    MatchStatus,
    MatchStream,
    GraphMatcher,
    GMVariant,
    OrderingMethod,
    mjoin,
    mjoin_iter,
)
from repro.baselines import JMMatcher, TMMatcher, ISOMatcher, bruteforce_homomorphisms
from repro.dynamic import ApplyReport, GraphDelta, MutableDataGraph
from repro.session import QuerySession
from repro.store import StoreSnapshot, VersionedGraphStore
from repro.service import (
    QueryService,
    QueryTicket,
    ServiceConfig,
    StreamingResult,
)
from repro.api import GraphDB
from repro.explain import PlanOperator, QueryPlan, plan_digest
from repro.obs import MetricsRegistry, SlowQueryLog, Telemetry
from repro.wal import DeltaLog, RecoveryReport, WalDurability
from repro.server import GraphCatalog, GraphServer
from repro.client import GraphClient, RemoteSnapshot, RemoteStream, RoutedClient
from repro.replication import ReplicaTail, ReplicationHub

__version__ = "1.0.0"

__all__ = [
    "ReproError",
    "GraphError",
    "QueryError",
    "QueryParseError",
    "ReachabilityError",
    "MatchingError",
    "BudgetExceeded",
    "TimeoutExceeded",
    "MemoryBudgetExceeded",
    "EngineError",
    "DataGraph",
    "GraphBuilder",
    "load_dataset",
    "available_datasets",
    "EdgeType",
    "PatternEdge",
    "PatternQuery",
    "parse_query",
    "format_query",
    "transitive_reduction",
    "template_query",
    "instantiate_template",
    "random_pattern_query",
    "build_reachability_index",
    "MatchContext",
    "fbsim",
    "fbsim_basic",
    "build_rig",
    "RuntimeIndexGraph",
    "Budget",
    "MatchReport",
    "MatchStatus",
    "MatchStream",
    "GraphMatcher",
    "GMVariant",
    "OrderingMethod",
    "mjoin",
    "mjoin_iter",
    "JMMatcher",
    "TMMatcher",
    "ISOMatcher",
    "bruteforce_homomorphisms",
    "ApplyReport",
    "GraphDelta",
    "MutableDataGraph",
    "QuerySession",
    "QueryCancelled",
    "StaleIndexError",
    "StoreError",
    "ServiceOverloadedError",
    "StoreSnapshot",
    "VersionedGraphStore",
    "QueryService",
    "QueryTicket",
    "ServiceConfig",
    "StreamingResult",
    "GraphDB",
    "PlanOperator",
    "QueryPlan",
    "plan_digest",
    "MetricsRegistry",
    "SlowQueryLog",
    "Telemetry",
    "DeltaLog",
    "RecoveryReport",
    "WalDurability",
    "CatalogError",
    "UnknownGraphError",
    "ProtocolError",
    "GraphCatalog",
    "GraphServer",
    "GraphClient",
    "RemoteSnapshot",
    "RemoteStream",
    "RoutedClient",
    "ReplicationError",
    "ReadOnlyReplicaError",
    "ReplicaDivergedError",
    "PrimaryUnavailableError",
    "ReplicaTail",
    "ReplicationHub",
    "__version__",
]
