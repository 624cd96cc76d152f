import json
import socket
import time

import pytest

from fixtures import Reply
from soundscene.dsl import serialize
from soundscene.planner import (
    PlannerClient,
    PlannerEndpoint,
    PlannerError,
    PlannerRequest,
    extract_prompt,
)

GOOD_PROMPT = (
    'Rain falls on a tin roof @{dog barking & <1.00,2.50>}'
    ' @{Man speaking & <3.00,5.00> "Nice day for a walk"}'
)

GOOD_REPLY = (
    "Step 1: the caption implies rain, a dog bark at 1.00-2.50, and a man\n"
    "talking from 3.00 to 5.00.\n"
    "Step 2: the man says: Nice day for a walk\n"
    "Step 3: final prompt below.\n"
    f"{GOOD_PROMPT}\n"
)


def chat_reply(text):
    return {"choices": [{"message": {"content": text}}]}


@pytest.fixture
def server(planner_server):
    return planner_server()


@pytest.fixture
def endpoint(server):
    return PlannerEndpoint(url=server.url, model="plan-1", timeout=7.0)


@pytest.fixture
def api_key(monkeypatch):
    monkeypatch.setenv("PLANNER_API_KEY", "tok-123")


class TestEndpoint:
    @pytest.mark.parametrize("timeout", [float("nan"), float("inf"), 0.0, -1.0])
    def test_timeout_must_be_positive_and_finite(self, timeout):
        with pytest.raises(ValueError, match="timeout must be positive and finite"):
            PlannerEndpoint(url="https://planner.example/v1", model="m", timeout=timeout)


class TestTemplate:
    def test_render_contains_caption_and_steps(self):
        text = PlannerRequest(caption="A storm rolls in").render()
        assert "Caption: A storm rolls in" in text
        assert "Step 1." in text and "Step 2." in text and "Step 3." in text
        assert "10 seconds" in text
        assert "0.00 <= start < end <= 10.00" in text
        assert "Required speech text" not in text

    def test_render_includes_required_speech(self):
        text = PlannerRequest(caption="c", speech_text="Hold the door").render()
        assert "Required speech text: Hold the door" in text
        assert "verbatim" in text

    def test_template_shows_block_syntax(self):
        text = PlannerRequest(caption="c").render()
        assert '@{description & <start,end>}' in text
        assert '@{description & <start,end> "sentence"}' in text


class TestExtractPrompt:
    def test_final_parseable_line_wins(self):
        p = extract_prompt(GOOD_REPLY)
        assert serialize(p) == GOOD_PROMPT
        assert p.caption == "Rain falls on a tin roof"
        assert len(p.events) == 2

    def test_reasoning_mentions_of_syntax_are_skipped(self):
        text = (
            "I will write blocks like @{thing & <bad>} as required.\n"
            "city park ambience @{child laughing & <0.50,2.00>}\n"
        )
        p = extract_prompt(text)
        assert p.caption == "city park ambience"

    def test_whitespace_around_answer_tolerated(self):
        p = extract_prompt("  \n  " + GOOD_PROMPT + "   \n\n")
        assert len(p.events) == 2

    def test_no_event_block_anywhere(self):
        with pytest.raises(PlannerError, match="no event block"):
            extract_prompt("just a plain caption with no structure")

    def test_all_candidates_fail_reports_parse_error(self):
        with pytest.raises(PlannerError, match="no line of the reply parses"):
            extract_prompt("@{missing span bracket & 1.0,2.0}")


class TestClientRequest:
    def test_success_posts_chat_completion_shape(self, server, endpoint, api_key):
        server.replies.append(chat_reply(GOOD_REPLY))
        p = PlannerClient(endpoint).plan("Rain falls on a tin roof")
        assert serialize(p) == GOOD_PROMPT
        assert len(server.received) == 1
        call = server.received[0]
        assert call["method"] == "POST"
        assert call["path"] == "/v1/chat"
        assert call["headers"]["Authorization"] == "Bearer tok-123"
        assert call["headers"]["Content-Type"] == "application/json"
        body = call["json"]
        assert body["model"] == "plan-1"
        assert len(body["messages"]) == 1
        assert body["messages"][0]["role"] == "user"
        assert "Caption: Rain falls on a tin roof" in body["messages"][0]["content"]

    def test_missing_api_key_fails_before_any_request(self, server, endpoint, monkeypatch):
        monkeypatch.delenv("PLANNER_API_KEY", raising=False)
        with pytest.raises(PlannerError, match="PLANNER_API_KEY"):
            PlannerClient(endpoint).plan("c")
        assert server.received == []

    def test_custom_api_key_env_honored(self, server, monkeypatch):
        ep = PlannerEndpoint(url=server.url, model="m", api_key_env="OTHER_TOKEN")
        monkeypatch.delenv("PLANNER_API_KEY", raising=False)
        monkeypatch.setenv("OTHER_TOKEN", "tok-other")
        server.replies.append(chat_reply(GOOD_REPLY))
        PlannerClient(ep).plan("c")
        assert server.received[0]["headers"]["Authorization"] == "Bearer tok-other"

    def test_network_error_wrapped(self, api_key, planner_server):
        # planner_server clears proxy variables; a bound socket that never
        # listens refuses every connection
        with socket.socket() as closed:
            closed.bind(("127.0.0.1", 0))
            port = closed.getsockname()[1]
            ep = PlannerEndpoint(url=f"http://127.0.0.1:{port}/v1/chat", model="m")
            with pytest.raises(PlannerError, match="request failed"):
                PlannerClient(ep).plan("c")

    def test_http_error_wrapped(self, server, endpoint, api_key):
        for status in (401, 500):
            server.replies.append(Reply(status, b'{"error": "no"}'))
            with pytest.raises(PlannerError, match=f"request failed: HTTP Error {status}"):
                PlannerClient(endpoint).plan("c")

    def test_timeout_wrapped(self, server, api_key):
        ep = PlannerEndpoint(url=server.url, model="m", timeout=0.3)
        server.replies.append(Reply(body=json.dumps(chat_reply(GOOD_REPLY)).encode(), stall=60.0))
        start = time.monotonic()
        with pytest.raises(PlannerError, match="request failed"):
            PlannerClient(ep).plan("c")
        elapsed = time.monotonic() - start
        assert 0.25 <= elapsed < 0.3 + 3.0

    def test_malformed_status_line_wrapped(self, server, endpoint, api_key):
        server.replies.append(Reply(raw=b"garbage\r\n\r\n"))
        with pytest.raises(PlannerError, match="request failed"):
            PlannerClient(endpoint).plan("c")

    def test_non_json_body_wrapped(self, server, endpoint, api_key):
        server.replies.append(Reply(body=b"<html>not json</html>"))
        with pytest.raises(PlannerError, match="not JSON"):
            PlannerClient(endpoint).plan("c")

    def test_missing_choices_wrapped(self, server, endpoint, api_key):
        server.replies.append({"status": "ok"})
        with pytest.raises(PlannerError, match="choices"):
            PlannerClient(endpoint).plan("c")

    def test_non_text_content_wrapped(self, server, endpoint, api_key):
        server.replies.append({"choices": [{"message": {"content": 5}}]})
        with pytest.raises(PlannerError, match="not text"):
            PlannerClient(endpoint).plan("c")

    def test_redirect_refused_and_token_not_forwarded(self, server, endpoint, api_key,
                                                      planner_server):
        target = planner_server(chat_reply(GOOD_REPLY))
        server.replies.append(Reply(302, headers=(("Location", target.url),)))
        with pytest.raises(PlannerError, match="request failed: HTTP Error 302"):
            PlannerClient(endpoint).plan("c")
        assert len(server.received) == 1
        assert target.received == []


class TestRepairRetry:
    def test_repair_round_trip_succeeds(self, server, endpoint, api_key):
        server.replies += [
            chat_reply("sorry, here is prose with no prompt"),
            chat_reply(GOOD_PROMPT),
        ]
        p = PlannerClient(endpoint).plan("c")
        assert serialize(p) == GOOD_PROMPT
        assert len(server.received) == 2
        repair = server.received[1]["json"]["messages"][0]["content"]
        assert "could not be parsed" in repair
        assert "sorry, here is prose with no prompt" in repair

    def test_double_failure_saves_raw_and_raises(self, server, endpoint, api_key, tmp_path):
        server.replies += [chat_reply("first bad reply"), chat_reply("second bad reply")]
        dump = tmp_path / "raw" / "planner_raw.txt"
        with pytest.raises(PlannerError, match="after repair retry") as exc:
            PlannerClient(endpoint).plan("c", raw_dump_path=dump)
        assert str(exc.value).endswith(f"(raw replies saved to {dump})")
        assert len(server.received) == 2
        raw = dump.read_text(encoding="utf-8")
        assert "first bad reply" in raw
        assert "second bad reply" in raw

    def test_double_failure_without_dump_path(self, server, endpoint, api_key):
        server.replies += [chat_reply("bad"), chat_reply("still bad")]
        with pytest.raises(PlannerError, match="after repair retry") as exc:
            PlannerClient(endpoint).plan("c")
        assert "saved" not in str(exc.value)

    def test_no_retry_when_first_reply_parses(self, server, endpoint, api_key):
        server.replies.append(chat_reply(GOOD_REPLY))
        PlannerClient(endpoint).plan("c")
        assert len(server.received) == 1
