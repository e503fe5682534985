"""Wire-protocol tests: framing, incremental reads, request validation."""

import json

import pytest

from repro.service import (
    MAX_FRAME_BYTES,
    FrameReader,
    PlanRequest,
    ProtocolError,
    decode_frame,
    encode_frame,
    parse_plan_request,
)


class TestFraming:
    def test_encode_round_trips_through_decode(self):
        frame = {"type": "plan", "domain": "hanoi", "size": 4, "stream": True}
        assert decode_frame(encode_frame(frame)) == frame

    def test_encode_is_one_sorted_compact_line(self):
        data = encode_frame({"type": "ping", "a": 1})
        assert data.endswith(b"\n") and data.count(b"\n") == 1
        assert data == b'{"a":1,"type":"ping"}\n'

    def test_encode_rejects_non_json_values(self):
        with pytest.raises(ProtocolError, match="not JSON-serialisable"):
            encode_frame({"type": "plan", "x": object()})

    def test_encode_rejects_oversized_frames(self):
        with pytest.raises(ProtocolError, match="exceeds"):
            encode_frame({"type": "x", "pad": "a" * MAX_FRAME_BYTES})

    @pytest.mark.parametrize(
        "payload,match",
        [
            (b"not json\n", "malformed"),
            (b"[1,2]", "JSON object"),
            (b'{"no":"type"}', "missing a string 'type'"),
            (b'{"type":7}', "missing a string 'type'"),
        ],
    )
    def test_decode_rejects_bad_frames(self, payload, match):
        with pytest.raises(ProtocolError, match=match):
            decode_frame(payload)


class TestFrameReader:
    def test_reassembles_frames_across_arbitrary_chunks(self):
        wire = encode_frame({"type": "ping"}) + encode_frame({"type": "stats"})
        reader = FrameReader()
        frames = []
        for i in range(0, len(wire), 3):  # drip-feed 3 bytes at a time
            frames.extend(reader.feed(wire[i : i + 3]))
        assert [f["type"] for f in frames] == ["ping", "stats"]

    def test_partial_line_stays_buffered(self):
        reader = FrameReader()
        assert reader.feed(b'{"type":"pi') == []
        assert reader.feed(b'ng"}\n') == [{"type": "ping"}]

    def test_blank_lines_are_ignored(self):
        assert FrameReader().feed(b'\n  \n{"type":"ping"}\n') == [{"type": "ping"}]

    def test_unterminated_oversized_buffer_raises(self):
        reader = FrameReader()
        with pytest.raises(ProtocolError, match="unterminated"):
            reader.feed(b"x" * (MAX_FRAME_BYTES + 1))


def plan_frame(**overrides):
    frame = {"type": "plan", "domain": "hanoi", "size": 4}
    frame.update(overrides)
    return frame


class TestParsePlanRequest:
    def test_minimal_frame_gets_defaults(self):
        request = parse_plan_request(plan_frame())
        assert request == PlanRequest(domain="hanoi", size=4)
        assert request.tenant == "default" and request.evaluator == "serial"

    def test_full_frame_round_trips_every_field(self):
        request = parse_plan_request(
            plan_frame(
                tenant="t1",
                seed=9,
                population=50,
                budget=7,
                max_len=31,
                deadline_s=2,
                mode="portfolio",
                portfolio="ga,search:gbfs",
                stream=True,
                evaluator="resilient",
            )
        )
        assert request.tenant == "t1" and request.seed == 9
        assert request.deadline_s == 2.0 and isinstance(request.deadline_s, float)
        assert request.portfolio == "ga,search:gbfs" and request.evaluator == "resilient"

    @pytest.mark.parametrize(
        "overrides,match",
        [
            ({"type": "stats"}, "'plan' frame"),
            ({"domain": ""}, "'domain'"),
            ({"domain": 3}, "'domain'"),
            ({"size": 0}, "'size'"),
            ({"size": True}, "'size'"),
            ({"tenant": ""}, "'tenant'"),
            ({"seed": -1}, "'seed'"),
            ({"population": 1}, "'population'"),
            ({"budget": 0}, "'budget'"),
            ({"max_len": 0}, "'max_len'"),
            ({"deadline_s": 0}, "'deadline_s'"),
            ({"mode": "magic"}, "'mode'"),
            ({"portfolio": "ga"}, "portfolio"),  # portfolio without mode=portfolio
            ({"stream": 1}, "'stream'"),
            ({"evaluator": "gpu"}, "'evaluator'"),
            ({"vector": True}, "unknown plan fields: vector"),
            ({"bogus": 1}, "unknown plan fields: bogus"),
        ],
    )
    def test_bad_fields_raise_naming_the_field(self, overrides, match):
        with pytest.raises(ProtocolError, match=match):
            parse_plan_request(plan_frame(**overrides))

    def test_backend_field_is_unknown(self):
        # The decode path is the service's choice, not the client's.
        with pytest.raises(ProtocolError, match="unknown plan fields: backend"):
            parse_plan_request(plan_frame(backend="numpy"))

    def test_parse_accepts_decoded_wire_frame(self):
        wire = encode_frame(plan_frame(seed=3, budget=12))
        request = parse_plan_request(decode_frame(wire))
        assert request.seed == 3 and request.budget == 12
        assert json.loads(wire)["type"] == "plan"
