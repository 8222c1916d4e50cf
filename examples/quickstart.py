"""Quickstart: one `GraphDB`, the whole stack.

:class:`repro.GraphDB` is the unified entry point: ingest a graph, run
hybrid pattern queries (direct ``->`` and reachability ``=>`` edges),
stream results as they are found, fold updates into new versions, and read
the serving statistics — all through one object.  Underneath it composes
the layers the library grew PR by PR (cached-index sessions, dynamic
deltas, the MVCC store, the concurrent query service), and each of those
remains available on its own — see ``docs/architecture.md`` for the layer
diagram and the migration table from the older entry points.

Run with::

    python examples/quickstart.py
"""

from repro import GraphDB


def main() -> None:
    # 1. Open an empty database and ingest a small graph: people, the
    #    projects they lead, and the tasks those projects (transitively)
    #    contain.  New nodes get the next dense ids, so the edge list may
    #    reference nodes created in the same call.
    db = GraphDB.open()
    names = ["ana", "bob", "atlas", "hermes", "design", "review", "deploy"]
    ids = {name: index for index, name in enumerate(names)}
    db.ingest(
        labels=["Person", "Person", "Project", "Project", "Task", "Task", "Task"],
        edges=[
            (ids["ana"], ids["atlas"]),      # ana leads atlas
            (ids["bob"], ids["hermes"]),     # bob leads hermes
            (ids["atlas"], ids["design"]),   # atlas contains design
            (ids["design"], ids["review"]),  # design is followed by review
            (ids["hermes"], ids["deploy"]),  # hermes contains deploy
        ],
    )

    # 2. A hybrid pattern, written in the query DSL: a person leading a
    #    project (direct edge ->) that directly or indirectly contains a
    #    task (reachability edge =>).
    pattern = """
    node p Person
    node proj Project
    node t Task
    edge p -> proj
    edge proj => t
    """

    # 3. Evaluate to completion.  The GM pipeline (double simulation +
    #    runtime index graph + MJoin) runs on a pinned snapshot through the
    #    service's worker pool.
    report = db.query(pattern, name="person-project-task")
    print(f"query '{report.query_name}': {report.num_matches} occurrences "
          f"({report.total_seconds * 1000:.2f} ms, status={report.status.value})")
    for person, project, task in sorted(report.occurrences):
        print(f"  {names[person]:>4} -> {names[project]:<6} => {names[task]}")
    # The reachability edge is what finds (ana, atlas, review): the task is
    # two hops away from the project.  A child-only pattern would miss it.

    # 4. Stream instead of waiting: pages are fed from the worker as the
    #    matcher produces them, so the first page is consumable *before*
    #    the query finishes — on large graphs this is the difference
    #    between milliseconds and minutes to the first result.
    with db.stream(pattern, page_size=2) as stream:
        for page_number, page in enumerate(stream.pages(timeout=30.0)):
            print(f"  streamed page {page_number}: {len(page)} occurrence(s)")
    # Need only a count?  db.count() drains the same iterator without ever
    # materialising the occurrence list.
    print(f"count via counting drain: {db.count(pattern)}")

    # 5. The graph evolves: a new task lands under atlas, and ana picks up
    #    hermes too.  ingest()/apply() fold the edits into a *new version*
    #    behind any running readers (MVCC: a pinned stream keeps answering
    #    from the version it started on).
    launch = db.num_nodes  # id the new node will receive
    names.append("launch")
    db.ingest(
        labels=["Task"],
        edges=[(ids["review"], launch),        # review is followed by launch
               (ids["ana"], ids["hermes"])],   # ana now co-leads hermes
    )
    requery = db.query(pattern, name="person-project-task")
    print(f"\nafter update (version {db.head_version}): "
          f"{requery.num_matches} occurrences")
    for person, project, task in sorted(requery.occurrences):
        print(f"  {names[person]:>4} -> {names[project]:<6} => {names[task]}")
    # The cached indexes were *patched* in place (not rebuilt) where the
    # delta shape allowed — that is the dynamic subsystem's whole point.

    # 6. Prepared deltas give finer control than ingest(): batch several
    #    edits, then fold them in one version bump (or apply_async to queue
    #    them on the background writer).
    delta = db.delta()
    delta.add_edge(ids["bob"], ids["atlas"])   # bob joins atlas
    db.apply(delta)

    # 7. Serving statistics: service counters (throughput, latency
    #    percentiles, shed counts) merged with the store gauges (head
    #    version, pinned epochs, GC activity).
    stats = db.stats()
    print(f"\nstats: {stats['completed']} queries, "
          f"p95 {stats['latency_p95_seconds'] * 1000:.2f}ms, "
          f"{stats['shed_count']} shed, head v{stats['head_version']}, "
          f"{stats['versions_retained']} version(s) retained")

    # 8. Analytics without materialisation: histogram() drains the same
    #    streaming iterator as count(), tallying the distinct data nodes
    #    of each label that participate in at least one match.
    print(f"participating nodes per label: {db.histogram(pattern)}")

    # 9. EXPLAIN ANALYZE: what plan ran, and what each operator actually
    #    did.  Plan-only explain (analyze=False) never enumerates; with
    #    analyze=True the query executes with live per-operator counters,
    #    and the root row count reconciles exactly with db.query()'s
    #    occurrence count.  The same call exists on the remote client.
    plan = db.explain(pattern, analyze=True)
    print(f"\n{plan.render()}")

    # 10. Serve the database over the network.  A GraphServer fronts a
    #    multi-tenant catalog of named GraphDBs (attach this one, or let
    #    clients create their own); the synchronous GraphClient mirrors
    #    the GraphDB API, so the calls below are the ones used above —
    #    over a length-prefixed frame protocol on a socket.
    from repro import GraphClient, GraphServer
    from repro.server import GraphCatalog

    catalog = GraphCatalog()
    catalog.attach("quickstart", db)
    with GraphServer(catalog) as server:
        host, port = server.address
        with GraphClient(host, port, graph="quickstart") as remote:
            print(f"\nserving on {host}:{port}: "
                  f"{[g['name'] for g in remote.graphs()]}")
            print(f"remote query: {remote.query(pattern).num_matches} occurrences "
                  f"(count {remote.count(pattern)}, "
                  f"histogram {remote.histogram(pattern)})")
            # Remote streaming stays pipelined: pages cross the socket as
            # the server-side worker produces them, under credit-based
            # flow control, and the first page arrives before the query
            # finishes.  Closing early cancels the remote producer.
            with remote.stream(pattern, page_size=2) as stream:
                pages = [len(page) for page in stream.pages(timeout=30.0)]
            print(f"remote stream: {len(pages)} page(s) of sizes {pages}")
            # A second tenant is fully isolated: own store, own workers.
            remote.create_graph("scratch", labels=["X", "Y"], edges=[(0, 1)])
            xy = "node x X\nnode y Y\nedge x -> y"
            print(f"tenant 'scratch': {remote.count(xy)} match(es)")
            # Telemetry is on by default: every layer mirrors its counters
            # into one per-tenant metrics registry, snapshotable over the
            # wire (or as Prometheus text via format="prometheus").  A
            # trace_id on any query traces it: a root span with one child
            # span per stage, in the reply and in the tenant's span ring.
            metrics = remote.server_metrics(graph="quickstart")
            interesting = [
                "service_completed_total", "session_cache_hits_total",
                "store_applies_total", "server_requests_total",
            ]
            print("server metrics (quickstart tenant):")
            for family in interesting:
                values = metrics[family]["values"]
                total = sum(value["value"] for value in values)
                print(f"  {family} = {total:g}")
            traced = remote.query(pattern, trace_id="quickstart-trace")
            spans = ", ".join(
                f"{span['name']} {span['seconds'] * 1000:.2f}ms"
                for span in traced.extra["trace"]["spans"]
            )
            print(f"traced remote query: {spans}")
    catalog.close()

    db.close()

    # 11. Durability: a server opened with data_dir journals every fold to
    #     a per-tenant write-ahead log (fsync'd *before* the fold is
    #     acknowledged) and snapshots on checkpoint().  Kill the process —
    #     even between journal and publish — and a restarted server over
    #     the same data_dir recovers every tenant to the exact head
    #     version that was last acknowledged.
    import shutil
    import tempfile

    data_dir = tempfile.mkdtemp(prefix="quickstart-wal-")
    pattern_versions = {}
    with GraphServer(data_dir=data_dir) as server:
        with GraphClient(*server.address) as remote:
            remote.create_graph(
                "durable",
                labels=["Person", "Person", "Project", "Task"],
                edges=[(0, 2), (1, 2), (2, 3)],
            )
            remote.ingest(labels=["Task"], edges=[(3, 4)])   # journaled fold
            remote.checkpoint()                              # snapshot + truncate
            remote.ingest(labels=["Task"], edges=[(4, 5)])   # in the log tail
            pt = "node p Person\nnode proj Project\nnode t Task\nedge p -> proj\nedge proj => t"
            pattern_versions["before"] = (
                remote.info()["head_version"], remote.count(pt)
            )
    # the server is gone (imagine SIGKILL here — tests/test_wal.py does
    # exactly that); restart over the same directory:
    with GraphServer(data_dir=data_dir) as server:
        with GraphClient(*server.address, graph="durable") as remote:
            pt = "node p Person\nnode proj Project\nnode t Task\nedge p -> proj\nedge proj => t"
            version, matches = pattern_versions["before"]
            assert remote.info()["head_version"] == version
            assert remote.count(pt) == matches
            recovery = remote.stats()["durability"]["recovery"]
            print(f"\nrestarted from {data_dir}: tenant 'durable' back at "
                  f"v{remote.info()['head_version']} "
                  f"(checkpoint v{recovery['checkpoint_version']} + "
                  f"{recovery['entries_applied']} replayed journal entries), "
                  f"{matches} match(es) as before the restart")
    shutil.rmtree(data_dir)

    # 12. Replication: one writer, N read replicas.  A replica server —
    #     GraphServer(primary=(host, port)), role "replica" — bootstraps
    #     each tenant from the primary's latest checkpoint and
    #     then tails the delta WAL live, serving the whole read surface at
    #     its replicated version; a RoutedClient splits the facade — writes
    #     go to the primary, reads fan out round-robin across the replicas
    #     under read-your-writes (reads wait for a replica at or above this
    #     client's own last acknowledged write, falling back to the primary
    #     only when none qualifies).
    from repro import RoutedClient

    primary_dir = tempfile.mkdtemp(prefix="quickstart-primary-")
    with GraphServer(data_dir=primary_dir) as primary:
        host, port = primary.address
        with GraphClient(host, port) as writer:
            writer.create_graph(
                "routed",
                labels=["Person", "Person", "Project", "Task"],
                edges=[(0, 2), (1, 2), (2, 3)],
            )
        with GraphServer(primary=(host, port)) as replica_a, \
                GraphServer(primary=(host, port)) as replica_b:
            endpoints = [replica_a.address, replica_b.address]
            with RoutedClient((host, port), replicas=endpoints,
                              graph="routed") as routed:
                pt = ("node p Person\nnode proj Project\nnode t Task\n"
                      "edge p -> proj\nedge proj => t")
                routed.ingest(labels=["Task"], edges=[(3, 4)])  # -> primary
                # Read-your-writes: the count below is served by a replica
                # only once it has tailed the v1 journal frame.
                print(f"\nrouted count (>= own write): {routed.count(pt)}")
                print(f"routed query: {routed.query(pt).num_matches} occurrences")
                for status in routed.replica_status():
                    print(f"  {status['target']}: head v{status['head_version']}, "
                          f"lag {status['lag_versions']} version(s)")
                reads = routed.registry.snapshot()["routed_reads_total"]["values"]
                spread = {v["labels"]["target"]: int(v["value"]) for v in reads}
                print(f"reads by target: {spread}")
    shutil.rmtree(primary_dir)

    # 13. Cluster observability: one write, one trace, every node — and a
    #     federated metrics/health surface over the whole fleet.  The same
    #     primary + 2 replicas topology; trace=True makes the router record
    #     the trace's root span, the primary hang ingest/fold/publish/ship
    #     under it, and each replica join with a replica_apply span, all
    #     stitched back by assemble_trace.  ClusterMonitor scrapes health +
    #     per-tenant metrics from all three nodes into one document (the
    #     `python -m repro.obs.console` dashboard renders it live).
    import time as _time

    from repro.obs import ClusterMonitor, assemble_trace
    from repro.obs.console import render_dashboard

    with GraphServer(node="primary") as primary:
        host, port = primary.address
        with GraphClient(host, port) as writer:
            writer.create_graph(
                "fleet",
                labels=["Person", "Project", "Task"],
                edges=[(0, 1), (1, 2)],
            )
        with GraphServer(primary=(host, port), node="replica-a") as replica_a, \
                GraphServer(primary=(host, port), node="replica-b") as replica_b:
            endpoints = [replica_a.address, replica_b.address]
            with RoutedClient((host, port), replicas=endpoints,
                              graph="fleet") as routed:
                report = routed.ingest(labels=["Task"], edges=[(1, 3)],
                                       trace=True)
                deadline = _time.monotonic() + 30.0
                while _time.monotonic() < deadline and not all(
                    s.get("head_version") == report.new_version
                    for s in routed.replica_status() if s.get("reachable")
                ):
                    _time.sleep(0.05)
                _time.sleep(0.2)  # let the replicas record their spans
                tree = assemble_trace(routed.trace_spans(),
                                      trace_id=routed.last_trace_id)

                def show(node, depth=0):
                    span = node["span"]
                    print(f"  {'  ' * depth}{span['name']:<14} "
                          f"[{span['node']}] {span['seconds'] * 1000:.2f}ms")
                    for child in node["children"]:
                        show(child, depth + 1)

                print(f"\none traced write, trace {tree['trace_id']}:")
                show(tree["root"])

                for entry in routed.health():
                    print(f"health {entry['target']}: {entry['status']}")

                with ClusterMonitor([(host, port), *endpoints],
                                    interval=2.0) as monitor:
                    document = monitor.scrape_once()
                    print("\nops console frame:")
                    print(render_dashboard(
                        document, events=monitor.events(limit=4)))
                    lag_lines = [
                        line for line in monitor.to_prometheus().splitlines()
                        if line.startswith("replication_lag_versions{")
                    ]
                    print("\nfederated lag gauges:")
                    for line in lag_lines:
                        print(f"  {line}")


if __name__ == "__main__":
    main()
