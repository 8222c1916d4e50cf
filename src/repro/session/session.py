"""QuerySession: per-graph cached state shared by every query.

The paper's headline result rests on expensive per-graph artifacts — the
reachability index, the transitive closure, runtime index graphs — being
built *once* and reused across queries.  A
:class:`QuerySession` is the object that owns that cached state: construct
one per data graph, then push any number of queries (and any mix of
matchers) through it.  Every artifact is built lazily on first use, guarded
by a lock, and counted in the ``session_cache_*`` families of the session's
telemetry registry so callers can assert reuse.
"""

from __future__ import annotations

import threading
import time
from typing import Callable, Dict, Iterable, List, Mapping, Optional, Tuple, Union

from repro.baselines.iso import ISOMatcher
from repro.baselines.jm import JMMatcher
from repro.baselines.tm import TMMatcher
from repro.dynamic.delta import GraphDelta
from repro.dynamic.maintenance import ApplyReport
from repro.exceptions import QueryError, StoreError
from repro.explain.plan import QueryPlan
from repro.engines.base import Engine, expand_descendant_edges
from repro.engines.binary_join import BinaryJoinEngine
from repro.engines.relational import RelationalEngine, build_edge_partitions
from repro.engines.treedecomp import TreeDecompEngine
from repro.engines.wcoj import WCOJEngine, build_catalog
from repro.graph.digraph import DataGraph
from repro.matching.gm import GMVariant, GraphMatcher
from repro.matching.ordering import OrderingMethod
from repro.matching.result import Budget, MatchReport
from repro.matching.stream import MatchStream
from repro.obs.telemetry import Telemetry
from repro.query.pattern import PatternQuery
from repro.reachability.base import ReachabilityIndex
from repro.reachability.transitive_closure import TransitiveClosureIndex
from repro.rig.build import RIGBuildReport, RIGOptions
from repro.session.batch import BatchReport, QueryOutcome
from repro.simulation.context import MatchContext


#: The four ``session_cache_<outcome>_total`` families, with their help text.
_CACHE_FAMILIES = {
    "hits": "Cached-artifact reuses",
    "misses": "Cached-artifact builds",
    "invalidations": "Artifacts dropped by graph updates",
    "patches": "Artifacts carried across graph updates",
}

#: The comparator engines' artifacts.  Each is built from one version's graph
#: the first time an engine asks for it there; a fork shares the built ones
#: read-only and :meth:`QuerySession.apply` drops them from the new version.
_COMPARATOR_BUILDERS: Dict[str, Callable[["QuerySession"], object]] = {
    "closure": lambda session: TransitiveClosureIndex(session.graph),
    "expanded_graph": lambda session: expand_descendant_edges(
        session.graph, closure=session.transitive_closure
    )[0],
    "catalog": lambda session: build_catalog(session.graph),
    "partitions": lambda session: build_edge_partitions(session.graph),
}


def _delta(before: Dict[str, float], after: Dict[str, float]) -> Dict[str, int]:
    """Per-artifact increase between two ``by="artifact"`` registry reads."""
    return {
        key: int(value - before.get(key, 0))
        for key, value in after.items()
        if value != before.get(key, 0)
    }


class _ObservedRigCache(dict):
    """RIG cache handed to :class:`GraphMatcher`; records hits and misses.

    ``GraphMatcher._rig_for`` probes the cache exactly once per match, so
    counting inside :meth:`get` yields one hit or one miss per GM query.
    ``hit`` / ``miss`` are the ``artifact="rig"`` counter children.
    """

    def __init__(self, hit, miss) -> None:
        super().__init__()
        self._hit = hit
        self._miss = miss

    def get(self, key, default=None):
        value = super().get(key, default)
        if value is None:
            self._miss.inc()
        else:
            self._hit.inc()
        return value


class QuerySession:
    """Cached-index query execution over one data graph.

    Parameters
    ----------
    graph:
        The data graph to serve queries on.
    ordering / rig_options / budget:
        Defaults forwarded to the GM matchers the session constructs.
    telemetry:
        The :class:`~repro.obs.Telemetry` whose registry the session counts
        into.  A session built bare owns a private one; the epochs of a
        :class:`~repro.store.VersionedGraphStore` share the tenant's.

    The session owns, lazily and at most once each:

    * the :class:`MatchContext`: the SCC condensation and label tables, and
      a per-pair reachability index built only for the matchers that ask;
    * the comparator artifacts: the materialised transitive closure and the
      closure-expanded data graph the comparator engines need for
      descendant queries, the GF catalog and the EH edge-relation
      partitions, each built from this version's graph;
    * one RIG per distinct (GM variant, query) pair;
    * one matcher / engine instance per matcher name.

    Every build (a *miss*) and reuse (a *hit*) of an artifact is counted
    per artifact name (``"reachability"``, ``"closure"``,
    ``"expanded_graph"``, ``"catalog"``, ``"partitions"``, ``"rig"``,
    ``"matcher"``; ``"matcher"`` only records builds) in the
    ``session_cache_*`` families, and :meth:`cache_counts` reads them back;
    after a warm-up query, identical queries must record only hits (no
    rebuilds).

    Graph updates flow in through :meth:`apply` as batched
    :class:`~repro.dynamic.GraphDelta` edits: the graph advances to a new
    monotone version, the match context and the RIGs the delta spares are
    carried to it (counted as patches), and the comparator artifacts are
    dropped to rebuild on first use there (counted as invalidations).
    :meth:`clear` drops every artifact; the counts, like every registry
    counter, only go up.

    Thread safety: artifact construction is serialised by an internal lock;
    match execution itself only reads shared state, so :meth:`run_batch` may
    fan queries out over a thread pool.
    """

    def __init__(
        self,
        graph: DataGraph,
        ordering: OrderingMethod = OrderingMethod.JO,
        rig_options: Optional[RIGOptions] = None,
        budget: Optional[Budget] = None,
        telemetry: Optional[Telemetry] = None,
    ) -> None:
        self.graph = graph
        self.ordering = ordering
        self.rig_options = rig_options or RIGOptions()
        self.budget = budget or Budget()
        #: The telemetry bundle the session counts into.
        self.telemetry = telemetry if telemetry is not None else Telemetry()
        registry = self.telemetry.registry
        self._counters = {
            outcome: registry.counter(
                f"session_cache_{outcome}_total", help, labelnames=("artifact",)
            )
            for outcome, help in _CACHE_FAMILIES.items()
        }
        self._lock = threading.RLock()
        self._context: Optional[MatchContext] = None
        # Built comparator artifacts by name (the ``_COMPARATOR_BUILDERS`` keys).
        self._comparators: Dict[str, object] = {}
        # RIG caches are keyed by (GM variant, graph version): apply() moves
        # the RIGs a delta cannot have changed to the new version's caches.
        self._rig_caches: Dict[Tuple[str, int], _ObservedRigCache] = {}
        self._matchers: Dict[str, object] = {}
        # A frozen session is one epoch of a VersionedGraphStore: it serves
        # reads forever at its version and refuses in-place mutation.
        self._frozen = False

    # ------------------------------------------------------------------ #
    # cached artifacts
    # ------------------------------------------------------------------ #

    def _comparator(self, key: str):
        """Return the comparator artifact ``key``, building it on first use."""
        with self._lock:
            value = self._comparators.get(key)
            if value is None:
                self._count("misses", key)
                value = self._comparators[key] = _COMPARATOR_BUILDERS[key](self)
            else:
                self._count("hits", key)
            return value

    def _count(self, outcome: str, artifact: str, amount: int = 1) -> None:
        """Count ``amount`` of ``outcome`` (hits / misses / patches /
        invalidations)."""
        self._counters[outcome].labels(artifact).inc(amount)

    def cache_counts(self, artifact: Optional[str] = None) -> Dict[str, int]:
        """Hits, misses, patches and invalidations of ``artifact`` (of every
        artifact when omitted), read from the registry the session counts
        into.

        A bare session reads its own counts; an epoch of a store reads those
        of every epoch of its tenant.
        """
        labels = {} if artifact is None else {"artifact": artifact}
        registry = self.telemetry.registry
        return {
            outcome: int(registry.read(f"session_cache_{outcome}_total", **labels))
            for outcome in _CACHE_FAMILIES
        }

    @property
    def version(self) -> int:
        """The monotone version of the session's current graph."""
        return getattr(self.graph, "version", 0)

    @property
    def context(self) -> MatchContext:
        """The shared :class:`MatchContext`: the condensation and label
        tables GM runs on, carried across insert deltas by :meth:`apply`."""
        with self._lock:
            if self._context is None:
                self._count("misses", "reachability")
                self._context = MatchContext(self.graph)
            else:
                self._count("hits", "reachability")
            return self._context

    @property
    def reachability(self) -> ReachabilityIndex:
        """The context's per-pair reachability index, built on first read
        (ISO and JM ask for it; GM and TM never do)."""
        return self.context.reachability

    @property
    def transitive_closure(self) -> TransitiveClosureIndex:
        """The materialised transitive closure (reused by engine expansion)."""
        return self._comparator("closure")

    @property
    def expanded_graph(self) -> DataGraph:
        """The closure-expanded data graph engines use for descendant edges."""
        return self._comparator("expanded_graph")

    @property
    def catalog(self):
        """The GF subgraph-cardinality catalog."""
        return self._comparator("catalog")

    @property
    def partitions(self):
        """The EH edge relations partitioned by label pair."""
        return self._comparator("partitions")

    # ------------------------------------------------------------------ #
    # matcher construction
    # ------------------------------------------------------------------ #

    _GM_SPECS: Dict[str, Tuple[GMVariant, Optional[OrderingMethod]]] = {
        "GM": (GMVariant.GM, None),
        "GM-S": (GMVariant.GM_S, None),
        "GM-F": (GMVariant.GM_F, None),
        "GM-NR": (GMVariant.GM_NR, None),
        "GM-JO": (GMVariant.GM, OrderingMethod.JO),
        "GM-RI": (GMVariant.GM, OrderingMethod.RI),
        "GM-BJ": (GMVariant.GM, OrderingMethod.BJ),
    }
    _BASELINE_CLASSES = {"JM": JMMatcher, "TM": TMMatcher, "ISO": ISOMatcher}
    _ENGINE_CLASSES = {
        "Neo4j": BinaryJoinEngine,
        "EH": RelationalEngine,
        "GF": WCOJEngine,
        "RM": TreeDecompEngine,
    }

    @classmethod
    def available_matchers(cls) -> Tuple[str, ...]:
        """Matcher names :meth:`matcher` accepts."""
        return tuple(
            sorted({**cls._GM_SPECS, **cls._BASELINE_CLASSES, **cls._ENGINE_CLASSES})
        )

    @classmethod
    def register_engine(cls, name: str, engine_class) -> None:
        """Register a custom :class:`~repro.engines.base.Engine` subclass.

        The engine becomes addressable by ``name`` in :meth:`query` /
        :meth:`stream` / :meth:`run_batch` (and therefore through the
        store, the service and the :class:`~repro.api.GraphDB` facade).
        Registration is process-wide (the registry is class-level) and
        overwrites an existing entry with the same name — tests should
        unregister with :meth:`unregister_engine` when done.
        """
        if not (isinstance(engine_class, type) and issubclass(engine_class, Engine)):
            raise TypeError(
                f"engine_class must be an Engine subclass, got {engine_class!r}"
            )
        cls._ENGINE_CLASSES[name] = engine_class

    @classmethod
    def unregister_engine(cls, name: str) -> None:
        """Remove a previously registered custom engine (missing names ok)."""
        if name not in {"Neo4j", "EH", "GF", "RM"}:
            cls._ENGINE_CLASSES.pop(name, None)

    def _new_rig_cache(self) -> _ObservedRigCache:
        return _ObservedRigCache(
            self._counters["hits"].labels("rig"), self._counters["misses"].labels("rig")
        )

    def _rig_cache_for(self, variant: GMVariant) -> _ObservedRigCache:
        key = (variant.value, self.version)
        cache = self._rig_caches.get(key)
        if cache is None:
            cache = self._rig_caches[key] = self._new_rig_cache()
        return cache

    def _build_matcher(self, name: str):
        if name in self._GM_SPECS:
            variant, ordering = self._GM_SPECS[name]
            return GraphMatcher(
                self.graph,
                context=self.context,
                variant=variant,
                ordering=ordering or self.ordering,
                rig_options=self.rig_options,
                budget=self.budget,
                rig_cache=self._rig_cache_for(variant),
            )
        if name in self._BASELINE_CLASSES:
            return self._BASELINE_CLASSES[name](
                self.graph, context=self.context, budget=self.budget
            )
        if name in self._ENGINE_CLASSES:
            engine_class = self._ENGINE_CLASSES[name]
            kwargs: Dict[str, object] = {
                "budget": self.budget,
                # Lazy providers: the closure / expanded graph are only built
                # if this engine actually sees a descendant query, and are
                # then shared with every other engine of the session.
                "expanded_graph": lambda: self.expanded_graph,
            }
            if engine_class is WCOJEngine:
                kwargs["catalog"] = self.catalog
            if engine_class is RelationalEngine:
                kwargs["partitions"] = self.partitions
            return engine_class(self.graph, **kwargs)
        raise KeyError(
            f"unknown matcher {name!r}; available: {', '.join(self.available_matchers())}"
        )

    def matcher(self, name: str = "GM"):
        """The session's shared matcher / engine instance for ``name``.

        Instances are built once and cached; engines receive the session's
        pre-built artifacts (catalog, partitions, closure-expanded graph)
        instead of recomputing their own.
        """
        with self._lock:
            matcher = self._matchers.get(name)
            if matcher is None:
                self._count("misses", "matcher")
                matcher = self._build_matcher(name)
                self._matchers[name] = matcher
            # Reusing the instance is not counted as a hit: every query()
            # performs this lookup, and counting it would drown the real
            # index-reuse signal (rig / reachability / closure hits).
            return matcher

    # ------------------------------------------------------------------ #
    # query execution
    # ------------------------------------------------------------------ #

    def query(
        self,
        query: PatternQuery,
        engine: str = "GM",
        budget: Optional[Budget] = None,
        injective: bool = False,
    ) -> MatchReport:
        """Evaluate one query through the session's cached state.

        Returns a :class:`MatchReport`; for comparator engines the engine's
        precomputation time is recorded in ``report.extra``.  An option the
        named evaluator does not implement (``injective`` on anything but
        GM / ISO) raises :class:`~repro.exceptions.EngineError`.
        """
        evaluator = self.matcher(engine)
        return evaluator.match(
            query,
            budget=budget or self.budget,
            **evaluator.checked_options(injective=injective),
        )

    def stream(
        self,
        query: PatternQuery,
        engine: str = "GM",
        budget: Optional[Budget] = None,
        injective: bool = False,
        keep_occurrences: bool = True,
    ) -> MatchStream:
        """Incrementally evaluate one query as a :class:`MatchStream`.

        Occurrences flow out as the evaluator finds them — every evaluator
        streams genuinely from its enumeration phase; ``stream.report()``
        drains the rest and finalises into the :class:`MatchReport` of a
        drained run.
        """
        return self.matcher(engine).match_stream(
            query,
            budget=budget or self.budget,
            keep_occurrences=keep_occurrences,
            injective=injective,
        )

    def explain(
        self,
        query: PatternQuery,
        engine: str = "GM",
        analyze: bool = False,
        budget: Optional[Budget] = None,
        injective: bool = False,
    ) -> QueryPlan:
        """The query plan ``engine`` would execute for ``query``.

        With ``analyze=False`` the query is planned but never executed:
        GM runs its real pipeline up to (and including) search-order
        selection — RIG build, ordering strategy, per-step candidate
        estimates — the comparator engines describe their operator
        trees with catalog / label-cardinality estimates, and the JM / TM /
        ISO baselines are a single opaque evaluate node.  With
        ``analyze=True`` the query *is* executed (under ``budget``) with
        lightweight per-operator counters, and the plan carries
        estimate-vs-actual columns whose root row count equals the
        :class:`MatchReport` occurrence count of a plain :meth:`query`.

        The returned :class:`~repro.explain.QueryPlan` is annotated with
        which of the session's shared artifacts were already cached at
        explain time (nothing is built just to report on it).
        """
        plan = self.matcher(engine).explain(
            query, analyze=analyze, budget=budget or self.budget, injective=injective
        )
        # Session-level context: which shared artifacts were already cached
        # when this plan was produced.
        with self._lock:
            cached = ["reachability"] if self._context is not None else []
            cached += [key for key in _COMPARATOR_BUILDERS if key in self._comparators]
        plan.artifacts.setdefault("session_cached", cached)
        self.telemetry.registry.counter(
            "explain_total",
            "EXPLAIN / EXPLAIN ANALYZE requests",
            labelnames=("engine", "mode"),
        ).labels(engine, "analyze" if analyze else "plan").inc()
        return plan

    def count(self, query: PatternQuery, engine: str = "GM", budget: Optional[Budget] = None) -> int:
        """Number of occurrences of ``query`` (subject to the budget).

        The evaluator's counting drain (:meth:`Evaluator.count
        <repro.matching.stream.Evaluator.count>`): the occurrence list is
        never materialised, and a non-solved termination returns the
        matches counted *so far*.
        """
        return self.matcher(engine).count(query, budget=budget or self.budget)

    def histogram(
        self,
        query: PatternQuery,
        node: Optional[int] = None,
        engine: str = "GM",
        budget: Optional[Budget] = None,
    ) -> Dict[str, int]:
        """Per-label histogram of the distinct data nodes in the result set.

        The analytics companion of :meth:`count`: a streamed aggregation
        drain that answers "how many distinct data nodes of each label
        participate in at least one occurrence" without materialising the
        occurrence list.  ``node`` restricts the drain to the bindings of
        one query node (all positions by default).  Memory is bounded by
        the number of *participating data nodes*, never by the number of
        occurrences, and the budget's match cap / deadline short-circuit
        the enumeration exactly as in :meth:`count`.
        """
        if node is not None and not (0 <= node < query.num_nodes):
            raise QueryError(
                f"histogram node {node} outside query nodes 0..{query.num_nodes - 1}"
            )
        stream = self.stream(query, engine=engine, budget=budget, keep_occurrences=False)
        participating: set = set()
        if node is None:
            for occurrence in stream:
                participating.update(occurrence)
        else:
            for occurrence in stream:
                participating.add(occurrence[node])
        graph = self.graph
        histogram: Dict[str, int] = {}
        for data_node in participating:
            label = graph.label(data_node)
            histogram[label] = histogram.get(label, 0) + 1
        return histogram

    def run_batch(
        self,
        queries: Union[Mapping[str, PatternQuery], Iterable[PatternQuery]],
        engine: str = "GM",
        workers: int = 1,
        budget: Optional[Budget] = None,
        injective: bool = False,
        keep_occurrences: bool = True,
    ) -> BatchReport:
        """Execute a batch of queries and return aggregate statistics.

        ``queries`` is either a name -> query mapping or an iterable of
        queries (named by their ``.name``).  ``workers > 1`` fans the batch
        out over a thread pool; every query still honours the per-query
        ``budget`` (time limit, match cap, intermediate cap).  Results are
        returned in input order regardless of worker count.
        """
        if isinstance(queries, Mapping):
            items: List[Tuple[str, PatternQuery]] = list(queries.items())
        else:
            items = [(query.name, query) for query in queries]

        # Warm the matcher once so worker threads never race its construction.
        self.matcher(engine)
        registry = self.telemetry.registry
        hits_before = registry.read("session_cache_hits_total", by="artifact")
        misses_before = registry.read("session_cache_misses_total", by="artifact")

        def run_one(item: Tuple[str, PatternQuery]) -> QueryOutcome:
            name, query = item
            started = time.perf_counter()
            report = self.query(query, engine=engine, budget=budget, injective=injective)
            elapsed = time.perf_counter() - started
            return QueryOutcome(
                name=name,
                seconds=elapsed,
                num_matches=report.num_matches,
                status=report.status.value,
                occurrences=tuple(report.occurrences) if keep_occurrences else (),
                extra=dict(report.extra),
            )

        wall_start = time.perf_counter()
        if workers > 1 and len(items) > 1:
            from concurrent.futures import ThreadPoolExecutor

            with ThreadPoolExecutor(max_workers=workers) as pool:
                outcomes = list(pool.map(run_one, items))
        else:
            outcomes = [run_one(item) for item in items]
        wall_seconds = time.perf_counter() - wall_start

        return BatchReport(
            engine=engine,
            outcomes=outcomes,
            wall_seconds=wall_seconds,
            workers=max(1, workers),
            cache_hits=_delta(
                hits_before, registry.read("session_cache_hits_total", by="artifact")
            ),
            cache_misses=_delta(
                misses_before, registry.read("session_cache_misses_total", by="artifact")
            ),
        )

    # ------------------------------------------------------------------ #
    # introspection
    # ------------------------------------------------------------------ #

    def cached_rig(self, query: PatternQuery, variant: GMVariant = GMVariant.GM) -> Optional[RIGBuildReport]:
        """The cached RIG build report for ``query`` at the current version."""
        cache = self._rig_caches.get((variant.value, self.version))
        if cache is None:
            return None
        return dict.get(cache, query)

    # ------------------------------------------------------------------ #
    # graph updates
    # ------------------------------------------------------------------ #

    def apply(self, delta: GraphDelta) -> ApplyReport:
        """Apply a batched graph update: fold the graph, fold the match
        context, carry the RIGs.

        * The graph folds to the post-delta state at a bumped
          :attr:`version`.
        * The match context (artifact ``"reachability"``) folds forward by
          :meth:`MatchContext.with_delta` for every delta without a
          removal, SCC merges included — a new context object, so a fork's
          source keeps its own; a removal invalidates it.
        * A cached RIG moves to the new version when the folded context's
          :class:`~repro.simulation.context.Gains` spare its query
          (:meth:`~repro.rig.build.RIGBuildReport.survives`), with its
          memoised search orders and MJoin plans; every other RIG is left
          behind at the old version, as are all RIGs when the gains are
          unknown (a removal, a relabel, a new node).  RIGs count one patch
          or invalidation each.

        Nothing else is carried: the comparator artifacts (closure,
        expanded graph, catalog, partitions) rebuild from the new graph on
        first use, and matcher instances rebind to it.  Outcomes are
        recorded per artifact as ``session_cache_patches_total`` /
        ``session_cache_invalidations_total`` and summarised in the
        returned :class:`~repro.dynamic.ApplyReport`.

        A delta whose every operation turns out to be a no-op (edges that
        already exist, relabels to the current label) changes nothing: the
        graph, version, artifacts and counters are all left untouched.
        """
        started = time.perf_counter()
        with self._lock:
            if self._frozen:
                raise StoreError(
                    "session is a frozen store epoch "
                    f"(graph {self.graph.name!r} version {self.version}); "
                    "apply deltas through the owning VersionedGraphStore"
                )
            old_version = self.version
            new_graph, effective = self.graph.with_delta(delta)
            if not effective:
                return ApplyReport(
                    old_version=old_version,
                    new_version=old_version,
                    num_ops=0,
                    seconds=time.perf_counter() - started,
                )
            patched: List[str] = []
            invalidated: List[str] = []

            def note_patch(key: str, amount: int = 1) -> None:
                self._count("patches", key, amount)
                patched.append(key)

            def note_invalidate(key: str, amount: int = 1) -> None:
                self._count("invalidations", key, amount)
                invalidated.append(key)

            # The match context folds every delta without a removal: the
            # condensation and label tables ride along (``with_delta``).
            gains = None
            if self._context is not None:
                if effective.has_removals:
                    self._context = None
                    note_invalidate("reachability")
                else:
                    self._context = self._context.with_delta(new_graph, effective)
                    gains = self._context.gains
                    note_patch("reachability")
            # Comparator artifacts rebuild per version, on first use.
            for key in self._comparators:
                note_invalidate(key)
            self._comparators = {}

            # Per-query state.  New cache objects: a matcher still running at
            # the old version keeps filling the old ones.
            new_version = getattr(new_graph, "version", 0)
            carried = dropped = 0
            rig_caches = {}
            for (variant, version), cache in self._rig_caches.items():
                if version != old_version:
                    continue
                # A C-level snapshot: readers of a fork's source may be
                # adding to the cache now.
                reports = list(cache.items())
                kept = self._new_rig_cache()
                if gains is not None:
                    kept.update({q: report for q, report in reports if report.survives(gains)})
                carried += len(kept)
                dropped += len(reports) - len(kept)
                rig_caches[variant, new_version] = kept
            self._rig_caches = rig_caches
            if carried:
                note_patch("rig", carried)
            if dropped:
                note_invalidate("rig", dropped)
            if self._matchers:
                note_invalidate("matcher")
            self._matchers.clear()

            self.graph = new_graph
            return ApplyReport(
                old_version=old_version,
                new_version=self.version,
                num_ops=len(effective),
                seconds=time.perf_counter() - started,
                patched=patched,
                invalidated=invalidated,
            )

    def freeze(self) -> None:
        """Mark this session as an immutable store epoch.

        A frozen session keeps serving reads (queries, batches) but
        :meth:`apply` raises :class:`~repro.exceptions.StoreError`: graph
        updates must flow through the owning
        :class:`~repro.store.VersionedGraphStore`, which forks a fresh
        session per version instead of mutating a shared one.
        """
        with self._lock:
            self._frozen = True

    @property
    def frozen(self) -> bool:
        """True if this session is an immutable store epoch."""
        return self._frozen

    def fork(self) -> "QuerySession":
        """A clone that shares this session's artifacts and copies none.

        The clone serves the same graph at the same version.  Nothing any
        session builds is changed in place afterwards, so every built
        artifact is shared read-only: the match context (:meth:`apply`
        replaces it with a folded one), the comparator artifacts
        (:meth:`apply` drops them) and the RIG caches (one dict copy:
        :meth:`apply` moves the RIGs a delta spares into new caches and
        never changes these).  ``clone.apply(delta)`` therefore never
        changes an answer this session returns.  Matcher instances are not
        carried: they rebind to the clone's artifacts on first use.
        The clone counts into this session's telemetry and is never frozen,
        regardless of this session's frozen state.

        This is the write primitive behind
        :meth:`VersionedGraphStore.apply`: fork the head epoch, fold the
        delta into the fork with :meth:`apply`, publish the fork as the new
        head — readers pinned to the old epoch never observe a torn
        artifact.
        """
        with self._lock:
            clone = QuerySession(
                self.graph,
                ordering=self.ordering,
                rig_options=self.rig_options,
                budget=self.budget,
                telemetry=self.telemetry,
            )
            clone._context = self._context
            clone._comparators = dict(self._comparators)
            clone._rig_caches = dict(self._rig_caches)
            return clone

    def clear(self) -> None:
        """Drop every cached artifact.

        The next query rebuilds each artifact it needs (counted as misses);
        the counts themselves are registry counters and never go back.
        """
        with self._lock:
            self._context = None
            self._comparators = {}
            self._rig_caches.clear()
            self._matchers.clear()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"QuerySession(graph={self.graph.name!r}, "
            f"matchers={sorted(self._matchers)})"
        )
