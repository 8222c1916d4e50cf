"""Unit tests for the wire protocol's codec layer.

Framing (length-prefixed JSON), the exception <-> error-payload mapping,
and the wire forms of the domain objects (patterns, budgets, match
reports, apply reports, batch reports, pages) — everything the server and
client share, tested without a socket where possible and over a local
``socketpair`` where framing semantics (truncation, EOF) need real bytes.
"""

from __future__ import annotations

import json
import socket
import struct

import pytest

from repro.api import (
    decode_apply_report,
    decode_batch_report,
    encode_apply_report,
    encode_batch_report,
)
from repro.dynamic.maintenance import ApplyReport
from repro.exceptions import (
    CatalogError,
    GraphError,
    ProtocolError,
    QueryCancelled,
    QueryError,
    QueryParseError,
    ReproError,
    ServiceOverloadedError,
    StaleIndexError,
    StoreError,
    UnknownGraphError,
)
from repro.matching.result import Budget, MatchReport, MatchStatus, jsonable
from repro.matching.stream import decode_page, encode_page
from repro.query.pattern import EdgeType, PatternQuery
from repro.server.protocol import (
    MAX_FRAME_BYTES,
    connect,
    decode_error,
    encode_error,
    encode_frame,
    read_frame_sync,
)
from repro.service.service import ServiceBatchReport
from repro.session.batch import QueryOutcome


def roundtrip_frames(*payloads):
    """Write frames into one end of a socketpair, read them from the other."""
    left, right = socket.socketpair()
    try:
        for payload in payloads:
            left.sendall(encode_frame(payload))
        left.close()
        frames = []
        while True:
            frame = read_frame_sync(right)
            if frame is None:
                return frames
            frames.append(frame)
    finally:
        right.close()


class TestFraming:
    def test_roundtrip(self):
        payloads = [
            {"id": 1, "op": "ping"},
            {"id": 2, "ok": True, "result": {"nested": [1, 2, {"x": None}]}},
            {"stream": 7, "seq": 0, "page": [[1, 2], [3, 4]]},
        ]
        assert roundtrip_frames(*payloads) == payloads

    def test_empty_object(self):
        assert roundtrip_frames({}) == [{}]

    def test_unicode_payload(self):
        payload = {"id": 1, "op": "create_graph", "name": "社交-𝔤𝔯𝔞𝔭𝔥"}
        assert roundtrip_frames(payload) == [payload]

    def test_connect_disables_nagle(self):
        # The one way GraphClient and ReplicaTail open their sockets.
        with socket.create_server(("127.0.0.1", 0)) as listener:
            sock = connect(*listener.getsockname(), timeout=5.0)
            try:
                assert sock.getsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY) == 1
            finally:
                sock.close()

    def test_clean_eof_returns_none(self):
        left, right = socket.socketpair()
        left.close()
        try:
            assert read_frame_sync(right) is None
        finally:
            right.close()

    def test_truncated_header_raises(self):
        left, right = socket.socketpair()
        try:
            left.sendall(b"\x00\x00")  # half a length prefix
            left.close()
            with pytest.raises(ProtocolError, match="mid-"):
                read_frame_sync(right)
        finally:
            right.close()

    def test_truncated_body_raises(self):
        left, right = socket.socketpair()
        try:
            left.sendall(struct.pack(">I", 100) + b'{"id": 1')  # promises 100 bytes
            left.close()
            with pytest.raises(ProtocolError, match="mid-frame"):
                read_frame_sync(right)
        finally:
            right.close()

    def test_oversized_length_prefix_raises(self):
        left, right = socket.socketpair()
        try:
            left.sendall(struct.pack(">I", MAX_FRAME_BYTES + 1))
            with pytest.raises(ProtocolError, match="exceeds"):
                read_frame_sync(right)
        finally:
            left.close()
            right.close()

    def test_non_json_body_raises(self):
        left, right = socket.socketpair()
        try:
            body = b"\xff\xfe not json"
            left.sendall(struct.pack(">I", len(body)) + body)
            with pytest.raises(ProtocolError, match="not valid JSON"):
                read_frame_sync(right)
        finally:
            left.close()
            right.close()

    def test_non_object_body_raises(self):
        left, right = socket.socketpair()
        try:
            body = b"[1, 2, 3]"
            left.sendall(struct.pack(">I", len(body)) + body)
            with pytest.raises(ProtocolError, match="JSON object"):
                read_frame_sync(right)
        finally:
            left.close()
            right.close()


class TestErrorMapping:
    @pytest.mark.parametrize(
        "exc",
        [
            ServiceOverloadedError("queue_full", "10 queued >= limit 10"),
            ServiceOverloadedError("deadline", "expired before execution"),
            StaleIndexError("EH", "expanded_graph", 3, 1),
            UnknownGraphError("missing", ["a", "b"]),
            CatalogError("graph 'x' already exists"),
            QueryParseError("line 3: unknown directive"),
            QueryError("bad edge"),
            GraphError("node 7 outside 0..6"),
            StoreError("snapshot was already released"),
            ProtocolError("frame body is not valid JSON"),
            QueryCancelled("mid-setup"),
            TimeoutError("ticket 4 still running"),
        ],
    )
    def test_roundtrip_preserves_class(self, exc):
        decoded = decode_error(encode_error(exc))
        assert type(decoded) is type(exc)

    def test_overloaded_keeps_reason(self):
        for reason in ("queue_full", "deadline"):
            decoded = decode_error(encode_error(ServiceOverloadedError(reason, "d")))
            assert isinstance(decoded, ServiceOverloadedError)
            assert decoded.reason == reason

    def test_stale_index_keeps_versions(self):
        decoded = decode_error(encode_error(StaleIndexError("GF", "catalog", 5, 2)))
        assert isinstance(decoded, StaleIndexError)
        assert decoded.engine == "GF"
        assert decoded.artifact == "catalog"
        assert decoded.expected_version == 5
        assert decoded.found_version == 2

    def test_unknown_exception_becomes_repro_error(self):
        decoded = decode_error(encode_error(ValueError("boom")))
        assert type(decoded) is ReproError
        assert "boom" in str(decoded)
        assert "ValueError" in str(decoded)

    def test_unknown_code_is_tolerated(self):
        decoded = decode_error({"code": "from_the_future", "message": "hi"})
        assert isinstance(decoded, ReproError)

    def test_malformed_payload_is_tolerated(self):
        assert isinstance(decode_error(None), ProtocolError)
        assert isinstance(decode_error("nope"), ProtocolError)


class TestDomainWireForms:
    def test_pattern_query_roundtrip(self):
        query = PatternQuery(
            labels=["A", "B", "C"],
            edges=[(0, 1, EdgeType.CHILD), (1, 2, EdgeType.DESCENDANT)],
            name="hybrid",
        )
        restored = PatternQuery.from_dict(query.to_dict())
        assert restored == query
        assert restored.name == "hybrid"
        assert restored.edge(1, 2).is_descendant

    def test_pattern_query_survives_json(self):
        import json

        query = PatternQuery(["X", "Y"], [(0, 1, EdgeType.DESCENDANT)], name="xy")
        assert PatternQuery.from_dict(json.loads(json.dumps(query.to_dict()))) == query

    @pytest.mark.parametrize(
        "payload",
        [
            "not a dict",
            {},
            {"labels": "AB"},
            {"labels": ["A", "B"], "edges": "nope"},
            {"labels": ["A", "B"], "edges": [[0, 5, "child"]]},
            {"labels": ["A", "B"], "edges": [[0, 1, "sideways"]]},
        ],
    )
    def test_pattern_query_malformed(self, payload):
        with pytest.raises(QueryError):
            PatternQuery.from_dict(payload)

    def test_budget_roundtrip(self):
        budget = Budget(max_matches=7, time_limit_seconds=1.5, max_intermediate_results=None)
        restored = Budget.from_wire(budget.to_wire())
        assert restored == budget
        assert restored.cancel_event is None

    def test_budget_absent_keys_keep_defaults(self):
        assert Budget.from_wire({}) == Budget()

    def test_match_report_roundtrip(self):
        report = MatchReport(
            query_name="q",
            algorithm="GM",
            status=MatchStatus.MATCH_LIMIT,
            occurrences=[(1, 2), (3, 4)],
            num_matches=2,
            matching_seconds=0.25,
            enumeration_seconds=0.5,
            extra={"plans_considered": 3, "unserialisable": object()},
        )
        restored = MatchReport.from_wire(report.to_wire())
        assert restored.status is MatchStatus.MATCH_LIMIT
        assert restored.occurrences == [(1, 2), (3, 4)]
        assert restored.occurrence_set() == report.occurrence_set()
        assert restored.extra["plans_considered"] == 3
        assert isinstance(restored.extra["unserialisable"], str)

    def test_match_report_without_occurrences(self):
        report = MatchReport(
            query_name="q", algorithm="GM", status=MatchStatus.OK,
            occurrences=[(1,)], num_matches=1,
        )
        wire = report.to_wire(include_occurrences=False)
        assert wire["occurrences"] == []
        assert MatchReport.from_wire(wire).num_matches == 1

    def test_match_report_roundtrip_through_json(self):
        report = MatchReport(
            query_name="q",
            algorithm="GM",
            status=MatchStatus.OK,
            occurrences=[(1, 2), (3, 4)],
            num_matches=2,
            matching_seconds=0.25,
            enumeration_seconds=0.5,
            extra={
                "rig_size": 14,
                "search_order": [1, 0, 2],
                "mjoin": {"candidates": 9, "intersections": 4},
                "rig_cached": True,
                "first_match_seconds": None,
            },
        )
        assert report.to_wire()["occurrences"] is report.occurrences  # not copied
        restored = MatchReport.from_wire(json.loads(json.dumps(report.to_wire())))
        assert restored == report

    def test_jsonable_keeps_json_values_and_reprs_the_rest(self):
        keep = [None, True, 3, 2.5, "s", [1, "a", None], (1, 2), {"k": 1.5}, [[1], {"k": [2]}]]
        for value in keep:
            assert jsonable(value) is value
        marker = object()
        for value in (marker, [marker], {"k": marker}, {1: "non-string key is fine"}):
            assert jsonable(value) is value or jsonable(value) == repr(value)
        assert jsonable(marker) == repr(marker)
        assert jsonable([marker]) == repr([marker])
        assert jsonable({"k": marker}) == repr({"k": marker})

    def test_page_roundtrip(self):
        page = ((1, 2, 3), (4, 5, 6))
        assert encode_page(page) is page  # tuples go to the frame encoder as-is
        assert decode_page(json.loads(json.dumps(encode_page(page)))) == page
        assert decode_page(encode_page(page)) == page
        assert decode_page([]) == ()

    @pytest.mark.parametrize("payload", [None, 7, "rows", {"0": [1]}, [1, 2], [[1], None]])
    def test_malformed_page_rejected(self, payload):
        with pytest.raises(ProtocolError, match="list of rows"):
            decode_page(payload)

    def test_apply_report_roundtrip(self):
        report = ApplyReport(
            old_version=1, new_version=2, num_ops=5, seconds=0.01,
            patched=["reachability"], invalidated=["catalog"],
        )
        restored = decode_apply_report(encode_apply_report(report))
        assert restored == report

    def test_batch_report_roundtrip(self):
        report = ServiceBatchReport(
            engine="GM",
            outcomes=[
                QueryOutcome(
                    name="q0", seconds=0.5, num_matches=2, status="ok",
                    occurrences=((1, 2), (3, 4)), extra={"rig": object()},
                ),
                QueryOutcome(name="q1", seconds=0.1, num_matches=0, status="timeout"),
            ],
            wall_seconds=0.6,
            workers=2,
            cache_hits={"rig": 1},
            cache_misses={"closure": 1},
            version=3,
        )
        restored = decode_batch_report(encode_batch_report(report))
        assert restored.version == 3
        assert restored.engine == "GM"
        assert len(restored.outcomes) == 2
        assert restored.outcomes[0].occurrence_set() == {(1, 2), (3, 4)}
        assert restored.outcomes[0].solved
        assert not restored.outcomes[1].solved
        assert restored.cache_hits == {"rig": 1}
        assert isinstance(restored.outcomes[0].extra["rig"], str)
