"""Tests for GraphBuilder and the edge-list / label-file / JSON persistence."""

import pytest

from repro.dynamic import GraphDelta, MutableDataGraph
from repro.exceptions import GraphError
from repro.graph.builder import GraphBuilder
from repro.graph.digraph import DataGraph
from repro.graph.generators import random_labeled_graph
from repro.graph.io import (
    graph_from_parts,
    load_graph,
    load_graph_delta_json,
    load_graph_json,
    read_edge_list,
    read_labels,
    save_graph,
    save_graph_json,
    write_edge_list,
    write_labels,
)


class TestGraphBuilder:
    def test_add_node_returns_dense_ids(self):
        builder = GraphBuilder()
        assert builder.add_node("x", "A") == 0
        assert builder.add_node("y", "B") == 1

    def test_add_node_idempotent(self):
        builder = GraphBuilder()
        builder.add_node("x", "A")
        assert builder.add_node("x", "A") == 0
        assert builder.num_nodes == 1

    def test_relabel_rejected(self):
        builder = GraphBuilder()
        builder.add_node("x", "A")
        with pytest.raises(GraphError):
            builder.add_node("x", "B")

    def test_add_edge_requires_known_nodes(self):
        builder = GraphBuilder()
        builder.add_node("x", "A")
        with pytest.raises(GraphError):
            builder.add_edge("x", "missing")
        with pytest.raises(GraphError):
            builder.add_edge("missing", "x")

    def test_ensure_node(self):
        builder = GraphBuilder()
        node = builder.ensure_node("x", "A")
        assert builder.ensure_node("x") == node
        with pytest.raises(GraphError):
            builder.ensure_node("new-node")

    def test_add_labeled_edge_creates_endpoints(self):
        builder = GraphBuilder()
        builder.add_labeled_edge("x", "A", "y", "B")
        graph = builder.build()
        assert graph.num_nodes == 2
        assert graph.has_edge(0, 1)

    def test_add_edges_bulk(self):
        builder = GraphBuilder()
        for key in "abc":
            builder.add_node(key, "L")
        builder.add_edges([("a", "b"), ("b", "c")])
        assert builder.num_edges == 2

    def test_contains_and_node_id(self):
        builder = GraphBuilder()
        builder.add_node("x", "A")
        assert "x" in builder
        assert "y" not in builder
        assert builder.node_id("x") == 0
        with pytest.raises(GraphError):
            builder.node_id("y")

    def test_build_and_id_mapping(self):
        builder = GraphBuilder()
        builder.add_node("alice", "Person")
        builder.add_node("post", "Post")
        builder.add_edge("alice", "post")
        graph = builder.build(name="social")
        assert graph.name == "social"
        assert graph.label(0) == "Person"
        assert builder.id_mapping() == {"alice": 0, "post": 1}


class TestIO:
    @pytest.fixture()
    def graph(self):
        return DataGraph(["A", "B", "C"], [(0, 1), (1, 2)], name="io-test")

    def test_edge_list_roundtrip(self, graph, tmp_path):
        path = str(tmp_path / "graph.edges")
        write_edge_list(graph, path)
        assert read_edge_list(path) == [(0, 1), (1, 2)]

    def test_labels_roundtrip(self, graph, tmp_path):
        path = str(tmp_path / "graph.labels")
        write_labels(graph, path)
        assert read_labels(path) == {0: "A", 1: "B", 2: "C"}

    def test_save_and_load_graph(self, graph, tmp_path):
        stem = str(tmp_path / "graph")
        save_graph(graph, stem)
        loaded = load_graph(stem)
        assert loaded == graph

    def test_load_missing_files(self, tmp_path):
        with pytest.raises(GraphError):
            load_graph(str(tmp_path / "absent"))

    def test_edge_list_comments_and_blank_lines(self, tmp_path):
        path = tmp_path / "edges.txt"
        path.write_text("# comment\n\n0\t1\n1 2\n")
        assert read_edge_list(str(path)) == [(0, 1), (1, 2)]

    def test_edge_list_malformed(self, tmp_path):
        path = tmp_path / "edges.txt"
        path.write_text("justonecolumn\n")
        with pytest.raises(GraphError):
            read_edge_list(str(path))

    def test_labels_malformed(self, tmp_path):
        path = tmp_path / "labels.txt"
        path.write_text("5\n")
        with pytest.raises(GraphError):
            read_labels(str(path))

    def test_graph_from_parts(self):
        graph = graph_from_parts({0: "A", 1: "B"}, [(0, 1)], name="parts")
        assert graph.num_nodes == 2
        assert graph.has_edge(0, 1)

    def test_graph_from_parts_missing_label(self):
        with pytest.raises(GraphError):
            graph_from_parts({0: "A", 2: "C"}, [(0, 2)])

    def test_graph_from_parts_edge_to_unlabelled(self):
        with pytest.raises(GraphError):
            graph_from_parts({0: "A"}, [(0, 3)])

    def test_graph_from_parts_empty(self):
        graph = graph_from_parts({}, [])
        assert graph.num_nodes == 0


class TestJsonRoundTrip:
    """Regression: load(save(g)) preserves labels, edges and I_label order."""

    def test_round_trip_preserves_everything(self, tmp_path):
        graph = random_labeled_graph(25, 60, num_labels=4, seed=7, name="rt")
        path = str(tmp_path / "graph.json")
        save_graph_json(graph, path)
        loaded = load_graph_json(path)
        assert loaded == graph
        assert loaded.name == graph.name
        assert loaded.labels == graph.labels
        assert sorted(loaded.edges()) == sorted(graph.edges())
        for label in graph.label_alphabet():
            assert loaded.inverted_list(label) == graph.inverted_list(label)
        assert loaded.label_alphabet() == graph.label_alphabet()

    def test_round_trip_preserves_version(self, tmp_path):
        base = random_labeled_graph(10, 20, num_labels=3, seed=2)
        overlay = MutableDataGraph(base)
        overlay.add_node("Z")
        patched = overlay.materialize()
        assert patched.version == 1
        path = str(tmp_path / "versioned.json")
        save_graph_json(patched, path)
        assert load_graph_json(path).version == 1

    def test_round_trip_with_pending_delta(self, tmp_path):
        graph = random_labeled_graph(8, 12, num_labels=3, seed=5)
        delta = GraphDelta.for_graph(graph)
        node = delta.add_node("D")
        delta.add_edge(0, node)
        delta.relabel(1, "D")
        path = str(tmp_path / "with_delta.json")
        save_graph_json(graph, path, delta=delta)
        loaded, restored = load_graph_delta_json(path)
        assert loaded == graph
        assert restored is not None
        assert restored.ops == delta.ops
        # the restored delta is applicable and reproduces the same state
        direct = MutableDataGraph(graph, delta).materialize()
        via_json = MutableDataGraph(loaded, restored).materialize()
        assert via_json == direct
        assert via_json.labels == direct.labels

    def test_round_trip_without_delta(self, tmp_path):
        graph = random_labeled_graph(6, 8, num_labels=2, seed=4)
        path = str(tmp_path / "plain.json")
        save_graph_json(graph, path)
        loaded, restored = load_graph_delta_json(path)
        assert loaded == graph
        assert restored is None

    def test_overlay_saves_current_state(self, tmp_path):
        graph = random_labeled_graph(6, 8, num_labels=2, seed=9)
        overlay = MutableDataGraph(graph)
        node = overlay.add_node("Q")
        overlay.add_edge(0, node)
        path = str(tmp_path / "overlay.json")
        save_graph_json(overlay, path)
        loaded = load_graph_json(path)
        assert loaded == overlay.materialize()
        assert loaded.version == overlay.version

    def test_atomic_save_survives_mid_write_failure(self, tmp_path, monkeypatch):
        # regression: a crash halfway through a save used to leave a
        # truncated document at the destination; the temp-file + replace
        # discipline must preserve the previous complete file instead.
        graph = random_labeled_graph(12, 24, num_labels=3, seed=11, name="keep")
        path = str(tmp_path / "graph.json")
        save_graph_json(graph, path)

        def torn_dump(payload, handle, **kwargs):
            handle.write('{"format": "repro-graph", "trunc')
            raise OSError("disk full mid-write")

        monkeypatch.setattr("repro.graph.io.json.dump", torn_dump)
        newer = random_labeled_graph(5, 6, num_labels=2, seed=12, name="lost")
        with pytest.raises(OSError):
            save_graph_json(newer, path)
        monkeypatch.undo()

        assert load_graph_json(path) == graph  # old document intact
        assert list(tmp_path.glob("*.tmp")) == []  # temp file cleaned up

    def test_atomic_save_failure_on_fresh_path_leaves_nothing(
        self, tmp_path, monkeypatch
    ):
        def boom(payload, handle, **kwargs):
            raise OSError("disk full")

        monkeypatch.setattr("repro.graph.io.json.dump", boom)
        path = tmp_path / "fresh.json"
        with pytest.raises(OSError):
            save_graph_json(
                random_labeled_graph(4, 4, num_labels=2, seed=1), str(path)
            )
        monkeypatch.undo()
        assert not path.exists()
        assert list(tmp_path.glob("*.tmp")) == []

    def test_stale_delta_skipped_on_load(self, tmp_path):
        # regression: a delta already folded into the saved graph came
        # back from load_graph_delta_json and invited a double-apply.
        base = random_labeled_graph(8, 12, num_labels=3, seed=6, name="vc")
        delta = GraphDelta.for_graph(base)
        node = delta.add_node("Z")
        delta.add_edge(0, node)
        assert delta.base_version == base.version == 0
        folded = base.with_delta(delta)[0]
        assert folded.version == 1

        # save the folded graph alongside the (now stale) delta
        stale_path = str(tmp_path / "stale.json")
        save_graph_json(folded, stale_path, delta=delta)
        loaded, restored = load_graph_delta_json(stale_path)
        assert loaded == folded
        assert restored is None  # stale: base_version 0 < graph version 1

        # the same delta saved against its own base version round-trips
        # and applies to the same state
        fresh_path = str(tmp_path / "fresh.json")
        save_graph_json(base, fresh_path, delta=delta)
        loaded, restored = load_graph_delta_json(fresh_path)
        assert restored is not None and restored.base_version == 0
        assert MutableDataGraph(loaded, restored).materialize() == folded

    def test_delta_without_base_version_still_returned(self, tmp_path):
        # hand-built deltas (no recorded base version) predate the
        # version check and must keep round-tripping unchanged
        graph = random_labeled_graph(6, 8, num_labels=2, seed=3)
        delta = GraphDelta(graph.num_nodes)
        delta.add_node("Q")
        assert delta.base_version is None
        path = str(tmp_path / "legacy.json")
        save_graph_json(graph, path, delta=delta)
        _, restored = load_graph_delta_json(path)
        assert restored is not None and restored.ops == delta.ops

    def test_rejects_non_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("not json at all")
        with pytest.raises(GraphError):
            load_graph_json(str(path))

    def test_rejects_foreign_document(self, tmp_path):
        path = tmp_path / "foreign.json"
        path.write_text('{"format": "something-else"}')
        with pytest.raises(GraphError):
            load_graph_json(str(path))
