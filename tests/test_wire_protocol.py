"""Unit tests for the wire protocol's codec layer.

Framing (length-prefixed frames of two kinds: JSON, and a JSON header
followed by packed row blocks), the exception <-> error-payload mapping,
and the wire forms of the domain objects (patterns, budgets, match
reports, apply reports, batch reports, pages) — everything the server and
client share, tested without a socket where possible and over a local
``socketpair`` where framing semantics (truncation, EOF) need real bytes.
"""

from __future__ import annotations

import json
import socket
import struct
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
from repro.framing import ROWS_KIND, Rows, decode_body, rows_from_wire
from repro.matching.result import Budget, MatchReport, MatchStatus, jsonable
from repro.matching.stream import decode_page, encode_page
from repro.query.pattern import EdgeType, PatternQuery
from repro.server.protocol import (
    APPLY_REPORT,
    MAX_FRAME_BYTES,
    connect,
    decode_error,
    encode_error,
    encode_frame,
    read_frame_sync,
)

# The apply-report codec the folding ops share.
encode_apply_report, decode_apply_report = APPLY_REPORT


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


def through_a_frame(payload):
    """``payload`` as the peer decodes it: one real frame, length prefix checked."""
    frame = encode_frame(payload)
    assert struct.unpack(">I", frame[:4]) == (len(frame) - 4,)
    return decode_body(frame[4:])


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
        restored = MatchReport.from_wire(through_a_frame(report.to_wire()))
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

    def test_match_report_roundtrip_through_a_frame(self):
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
        wire = report.to_wire()
        assert isinstance(wire["occurrences"], Rows)  # packed here, not by the encoder
        restored = MatchReport.from_wire(through_a_frame(wire))
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
        assert isinstance(encode_page(page), Rows)
        assert decode_page(through_a_frame({"page": encode_page(page)})["page"]) == page
        assert decode_page(through_a_frame({"page": encode_page(())})["page"]) == ()
        assert decode_page([]) == ()

    @pytest.mark.parametrize(
        "payload",
        [None, 7, "rows", {"0": [1]}, [1, 2], [[1], None], [[1, 2]], {"$rows": [1, 1, 2]}],
    )
    def test_malformed_page_rejected(self, payload):
        # JSON arrays included: only a validated block is a page.
        with pytest.raises(ProtocolError, match="list of rows"):
            decode_page(payload)
        with pytest.raises(ProtocolError, match="list of rows"):
            MatchReport.from_wire({"occurrences": payload})

    def test_apply_report_roundtrip(self):
        report = ApplyReport(
            old_version=1, new_version=2, num_ops=5, seconds=0.01,
            patched=["reachability"], invalidated=["catalog"],
        )
        restored = decode_apply_report(encode_apply_report(report))
        assert restored == report


# ---------------------------------------------------------------------- #
# the rows frame kind
# ---------------------------------------------------------------------- #

#: Ints around every block-width boundary, weighted against small node ids.
BOUNDARY_INTS = [
    0, -1, 65_535, 65_536, 2**31 - 1, 2**31, -(2**31), -(2**31) - 1, 2**63 - 1, -(2**63)
]
values = st.one_of(st.integers(0, 600), st.sampled_from(BOUNDARY_INTS))


@st.composite
def row_blocks(draw):
    """A tuple of equal-arity int tuples: empty, arity 0 and arity 1-12 included."""
    arity = draw(st.integers(0, 12))
    row = st.tuples(*[values] * arity)
    return tuple(draw(st.lists(row, max_size=6)))


keys = st.text(max_size=6).filter(lambda key: key != "$rows")
scalars = st.one_of(
    st.none(), st.booleans(), st.integers(), st.floats(allow_nan=False), st.text(max_size=8)
)


def json_trees(leaves):
    return st.recursive(
        leaves,
        lambda children: st.one_of(
            st.lists(children, max_size=4), st.dictionaries(keys, children, max_size=4)
        ),
        max_leaves=12,
    )


#: Payloads with 0 / 1 / several row blocks (tuple leaves) at any depth.
payloads = st.dictionaries(keys, json_trees(st.one_of(scalars, row_blocks())), max_size=4)


def packed(tree):
    """``tree`` with every tuple leaf (a row block) wrapped for the encoder."""
    if isinstance(tree, tuple):
        return Rows(tree)
    if isinstance(tree, list):
        return [packed(item) for item in tree]
    if isinstance(tree, dict):
        return {key: packed(item) for key, item in tree.items()}
    return tree


def rows_body(header, tail=b"", header_bytes=None, kind=ROWS_KIND):
    """A hand-built rows-kind body (``header``: JSON text or an object)."""
    if not isinstance(header, (str, bytes)):
        header = json.dumps(header, separators=(",", ":"))
    if isinstance(header, str):
        header = header.encode("utf-8")
    if header_bytes is None:
        header_bytes = len(header)
    return kind + struct.pack(">I", header_bytes) + header + tail


class TestRowFrames:
    @settings(max_examples=200, deadline=None)
    @given(payloads)
    def test_any_payload_round_trips(self, payload):
        assert through_a_frame(packed(payload)) == payload

    @settings(max_examples=100, deadline=None)
    @given(st.dictionaries(keys, json_trees(scalars), max_size=4))
    def test_a_payload_without_rows_is_the_json_frame_it_always_was(self, payload):
        body = json.dumps(payload, separators=(",", ":")).encode("utf-8")
        assert encode_frame(payload) == struct.pack(">I", len(body)) + body

    @settings(max_examples=100, deadline=None)
    @given(row_blocks())
    def test_block_layout(self, rows):
        block = Rows(rows)
        assert block.count == len(rows)
        assert block.arity == (len(rows[0]) if rows else 0)
        assert len(block.data) == block.count * block.arity * block.width
        assert through_a_frame({"page": block})["page"] == rows
        flat = [value for row in rows for value in row]
        fits = {2: (0, 65_535), 4: (-(2**31), 2**31 - 1), 8: (-(2**63), 2**63 - 1)}
        narrowest = min(
            width
            for width, (low, high) in fits.items()
            if all(low <= value <= high for value in flat)
        )
        assert block.width == narrowest
        # ... and in the frame: the descriptor where the rows were, the
        # block behind the header, little-endian.
        body = encode_frame({"page": block})[4:]
        header = json.dumps({"page": {"$rows": [block.count, block.arity, block.width]}})
        assert body == rows_body(header.replace(" ", ""), block.data)
        assert block.data == b"".join(
            value.to_bytes(block.width, "little", signed=block.width > 2) for value in flat
        )

    @pytest.mark.parametrize(
        "value, width",
        [
            (0, 2), (65_535, 2), (65_536, 4), (-1, 4), (2**31 - 1, 4), (2**31, 8),
            (-(2**31), 4), (-(2**31) - 1, 8), (2**63 - 1, 8), (-(2**63), 8),
        ],
    )
    def test_narrowest_width_that_holds_the_value(self, value, width):
        assert Rows(((1, value), (2, 3))).width == width
        assert through_a_frame({"r": Rows(((1, value),))})["r"] == ((1, value),)

    @pytest.mark.parametrize(
        "rows",
        [
            ((1, 2), (3,)),
            ((1,), (2, 3)),
            ((1, 2), (3,), (4, 5, 6)),  # ragged, yet count * arity values in total
            ((), (1,)),
            ((1, "2"),),
            ((1, 2.0),),
            ((1, None),),
            ((2**63,),),
            ((-(2**63) - 1,),),
            (1, 2),
            ((1, 2), None),
            7,
            None,
        ],
    )
    def test_bad_rows_fail_when_packed_not_when_sent(self, rows):
        with pytest.raises(ProtocolError, match="rows must be"):
            Rows(rows)
        with pytest.raises(ProtocolError, match="rows must be"):
            encode_page(rows)

    def test_rows_key_is_reserved_only_where_rows_travel(self):
        assert through_a_frame({"$rows": [1, 1, 2]}) == {"$rows": [1, 1, 2]}
        with pytest.raises(ProtocolError, match="reserved"):
            encode_frame({"x": {"$rows": 1}, "page": Rows(((1,),))})
        # As a string value it is data, not a key.
        payload = {"name": '{"$rows":[1,1,2]}', "page": ((1,),)}
        assert through_a_frame(packed(payload)) == payload

    def test_unserialisable_values_still_raise_type_error(self):
        with pytest.raises(TypeError, match="not JSON serializable"):
            encode_frame({"x": object()})

    def test_reports_round_trip_over_a_socket(self):
        report = MatchReport(
            query_name="q", algorithm="GM", status=MatchStatus.OK,
            occurrences=[(1, 70_000), (3, 4)], num_matches=2,
            extra={"mjoin": {"candidates": 9}},
        )
        wide = MatchReport(
            query_name="w", algorithm="GM", status=MatchStatus.OK,
            occurrences=[(2**40, 5, 6)], num_matches=1,
        )
        reply, wide_reply, page = roundtrip_frames(
            {"id": 1, "ok": True, "result": report.to_wire()},
            {"id": 2, "ok": True, "result": wide.to_wire()},
            {"stream": 1, "seq": 0, "page": encode_page(((7, 8, 9),))},
        )
        assert MatchReport.from_wire(reply["result"]) == report
        assert MatchReport.from_wire(wide_reply["result"]) == wide
        assert decode_page(page["page"]) == ((7, 8, 9),)


class TestHostileRowFrames:
    """Every malformed rows-kind body is a ProtocolError, cheaply."""

    GOOD = encode_frame({"stream": 1, "seq": 0, "page": Rows(((1, 2), (3, 4)))})[4:]

    def test_the_good_frame_is_good(self):
        assert decode_body(self.GOOD)["page"] == ((1, 2), (3, 4))
        assert self.GOOD == rows_body({"stream": 1, "seq": 0, "page": {"$rows": [2, 2, 2]}},
                                      struct.pack("<4H", 1, 2, 3, 4))

    @pytest.mark.parametrize("cut", range(1, len(GOOD)))
    def test_every_truncation(self, cut):
        with pytest.raises(ProtocolError):
            decode_body(self.GOOD[:cut])

    @pytest.mark.parametrize(
        "body, complaint",
        [
            (GOOD + b"\x00", "trailing"),
            (rows_body({"page": {"$rows": [1, 1, 2]}}, b"\x01\x00\x02\x00"), "trailing"),
            (rows_body({"page": 1}, b"\x01\x00"), "trailing"),
            (rows_body({"page": {"$rows": [2, 2, 2]}}, b"\x01\x00" * 3), "overruns"),
            (rows_body({"page": {"$rows": [2, 2, 8]}}, b"\x01\x00" * 4), "overruns"),
            (rows_body({"page": 1}, header_bytes=2**31), "overruns"),
            (rows_body({"page": 1}, header_bytes=11), "overruns"),
            (rows_body({"page": 1}, header_bytes=3), "not valid JSON"),
            (ROWS_KIND, "shorter"),
            (ROWS_KIND + b"\x00\x00", "shorter"),
            (rows_body("[1]"), "JSON object"),
            (rows_body(b"\xff\xfe"), "not valid JSON"),
            (rows_body(b'{"x":' + b"[" * 100_000 + b"]" * 100_000 + b"}"), "not valid JSON"),
            (b'{"x":' + b"[" * 100_000 + b"]" * 100_000 + b"}", "not valid JSON"),
            (rows_body({"page": 1}, kind=b"\x02"), "not valid JSON"),  # unknown kind
            (rows_body({"page": 1}, kind=b"R"), "not valid JSON"),
            (rows_body({"page": {"$rows": [1, 1, 2], "x": 1}}, b"\x01\x00"), "malformed"),
            (rows_body({"page": {"x": 1, "$rows": [1, 1, 2]}}, b"\x01\x00"), "malformed"),
            (rows_body({"page": {"$rows": [1, 1]}}, b"\x01\x00"), "malformed"),
            (rows_body({"page": {"$rows": [1, 1, 2, 0]}}, b"\x01\x00"), "malformed"),
            (rows_body({"page": {"$rows": {"count": 1}}}, b"\x01\x00"), "malformed"),
            (rows_body({"page": {"$rows": None}}), "malformed"),
            (rows_body({"page": {"$rows": {"$rows": [1, 1, 2]}}}, b"\x01\x00"), "malformed"),
            (rows_body({"page": {"$rows": [1.0, 1, 2]}}, b"\x01\x00"), "malformed"),
            (rows_body({"page": {"$rows": ["1", 1, 2]}}, b"\x01\x00"), "malformed"),
            (rows_body({"page": {"$rows": [True, 1, 2]}}, b"\x01\x00"), "malformed"),
            (rows_body({"page": {"$rows": [1, True, 2]}}, b"\x01\x00"), "malformed"),
            (rows_body({"page": {"$rows": [1, None, 2]}}, b"\x01\x00"), "malformed"),
            (rows_body({"page": {"$rows": [-1, 1, 2]}}), "out of range"),
            (rows_body({"page": {"$rows": [1, -1, 2]}}), "out of range"),
            (rows_body({"page": {"$rows": [-1, -1, 2]}}, b"\x01\x00"), "out of range"),
            (rows_body({"page": {"$rows": [2**40, 0, 2]}}), "out of range"),
            (rows_body({"page": {"$rows": [0, 2**40, 2]}}), "out of range"),
            (rows_body({"page": {"$rows": [2**70, 2**70, 8]}}), "out of range"),
            (rows_body({"page": {"$rows": [1, 1, 3]}}, b"\x01\x00\x00"), "out of range"),
            (rows_body({"page": {"$rows": [1, 1, 1]}}, b"\x01"), "out of range"),
            (rows_body({"page": {"$rows": [1, 1, 0]}}), "out of range"),
            (rows_body({"page": {"$rows": [1, 1, 16]}}, b"\x01" * 16), "out of range"),
            (rows_body({"page": {"$rows": [1, 1, -2]}}), "out of range"),
        ],
    )
    def test_refused(self, body, complaint):
        tracemalloc.start()
        try:
            with pytest.raises(ProtocolError, match=complaint):
                decode_body(body)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 64 * 1024 + 16 * len(body)

    def test_arity_zero_rows_are_bounded_by_the_frame_not_by_the_count(self):
        honest = rows_body({"page": {"$rows": [3, 0, 2]}})
        assert decode_body(honest)["page"] == ((), (), ())
        with pytest.raises(ProtocolError, match="out of range"):
            decode_body(rows_body({"page": {"$rows": [len(honest) + 10, 0, 2]}}))

    def test_arity_zero_blocks_share_one_row_budget(self):
        # Rows without columns claim no tail bytes, so each of these
        # descriptors is plausible alone; together they must not be.
        claimed = 20_000
        bomb = rows_body({"x": [{"$rows": [claimed, 0, 2]}] * 2000})
        assert claimed < len(bomb) < 2000 * claimed
        tracemalloc.start()
        try:
            with pytest.raises(ProtocolError, match="out of range"):
                decode_body(bomb)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 64 * 1024 + 16 * len(bomb)
        # The budget is the frame's length, whatever the blocks' shapes.
        two = rows_body({"a": {"$rows": [20, 0, 2]}, "b": {"$rows": [3, 1, 2]}}, b"\x01\x00" * 3)
        assert decode_body(two) == {"a": ((),) * 20, "b": ((1,),) * 3}
        short = rows_body({"a": {"$rows": [len(two) - 2, 0, 2]}, "b": {"$rows": [3, 1, 2]}},
                          b"\x01\x00" * 3)
        with pytest.raises(ProtocolError, match="out of range"):
            decode_body(short)

    def test_the_encoder_refuses_what_the_row_budget_would(self):
        assert through_a_frame({"page": Rows(((),) * 20)})["page"] == ((),) * 20
        with pytest.raises(ProtocolError, match="100 rows in a frame body of"):
            encode_frame({"page": Rows(((),) * 100)})

    def test_a_json_frame_cannot_smuggle_a_descriptor(self):
        (frame,) = roundtrip_frames({"stream": 1, "seq": 0, "page": {"$rows": [1, 1, 2]}})
        assert frame["page"] == {"$rows": [1, 1, 2]}  # a dict, as in any JSON frame
        with pytest.raises(ProtocolError, match="list of rows"):
            decode_page(frame["page"])

    def test_json_rows_never_reach_the_caller(self):
        left, right = socket.socketpair()
        try:
            body = b'{"stream":1,"seq":0,"page":[[1,"x"],[null]]}'
            left.sendall(struct.pack(">I", len(body)) + body)
            frame = read_frame_sync(right)
            with pytest.raises(ProtocolError, match="list of rows"):
                decode_page(frame["page"])
        finally:
            left.close()
            right.close()

    def test_hostile_frame_off_a_socket(self):
        left, right = socket.socketpair()
        try:
            body = self.GOOD[:-1]
            left.sendall(struct.pack(">I", len(body)) + body)
            with pytest.raises(ProtocolError, match="overruns"):
                read_frame_sync(right)
        finally:
            left.close()
            right.close()

    def test_rows_from_wire_accepts_only_validated_rows(self):
        assert rows_from_wire(((1, 2),), "x") == ((1, 2),)
        assert rows_from_wire([], "x") == ()
        unframed = Rows(((1, 2),))  # only decode_body's output counts as validated
        for junk in ([[1, 2]], [()], None, 0, False, "", {}, {"$rows": [0, 0, 2]}, unframed):
            with pytest.raises(ProtocolError, match="x must be a packed list of rows"):
                rows_from_wire(junk, "x")
