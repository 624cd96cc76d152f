import pytest
import requests

from soundscene.config import PlannerEndpoint
from soundscene.dsl import serialize
from soundscene import planner as planner_mod
from soundscene.planner import (
    PlannerClient,
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


class FakeResponse:
    def __init__(self, payload=None, status=200, body_is_json=True):
        self.payload = payload
        self.status = status
        self.body_is_json = body_is_json

    def raise_for_status(self):
        if self.status >= 400:
            raise requests.HTTPError(f"{self.status} error")

    def json(self):
        if not self.body_is_json:
            raise ValueError("not json")
        return self.payload


def chat_reply(text):
    return {"choices": [{"message": {"content": text}}]}


@pytest.fixture
def endpoint():
    return PlannerEndpoint(url="https://planner.test/v1/chat", model="plan-1", timeout=7.0)


@pytest.fixture
def api_key(monkeypatch):
    monkeypatch.setenv("PLANNER_API_KEY", "tok-123")


class RecordingPost:
    """Stand-in for requests.post that replays scripted responses."""

    def __init__(self, responses):
        self.responses = list(responses)
        self.calls = []

    def __call__(self, url, json=None, headers=None, timeout=None):
        self.calls.append({"url": url, "json": json, "headers": headers, "timeout": timeout})
        if not self.responses:
            raise AssertionError("unexpected extra request")
        r = self.responses.pop(0)
        if isinstance(r, Exception):
            raise r
        return r


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
    def test_success_posts_chat_completion_shape(self, endpoint, api_key, monkeypatch):
        post = RecordingPost([FakeResponse(chat_reply(GOOD_REPLY))])
        monkeypatch.setattr(planner_mod.requests, "post", post)
        p = PlannerClient(endpoint).plan("Rain falls on a tin roof")
        assert serialize(p) == GOOD_PROMPT
        assert len(post.calls) == 1
        call = post.calls[0]
        assert call["url"] == "https://planner.test/v1/chat"
        assert call["timeout"] == 7.0
        assert call["headers"]["Authorization"] == "Bearer tok-123"
        body = call["json"]
        assert body["model"] == "plan-1"
        assert len(body["messages"]) == 1
        assert body["messages"][0]["role"] == "user"
        assert "Caption: Rain falls on a tin roof" in body["messages"][0]["content"]

    def test_missing_api_key_fails_before_any_request(self, endpoint, monkeypatch):
        monkeypatch.delenv("PLANNER_API_KEY", raising=False)
        post = RecordingPost([])
        monkeypatch.setattr(planner_mod.requests, "post", post)
        with pytest.raises(PlannerError, match="PLANNER_API_KEY"):
            PlannerClient(endpoint).plan("c")
        assert post.calls == []

    def test_custom_api_key_env_honored(self, monkeypatch):
        ep = PlannerEndpoint(url="https://x", model="m", api_key_env="OTHER_TOKEN")
        monkeypatch.delenv("PLANNER_API_KEY", raising=False)
        monkeypatch.setenv("OTHER_TOKEN", "tok-other")
        post = RecordingPost([FakeResponse(chat_reply(GOOD_REPLY))])
        monkeypatch.setattr(planner_mod.requests, "post", post)
        PlannerClient(ep).plan("c")
        assert post.calls[0]["headers"]["Authorization"] == "Bearer tok-other"

    def test_network_error_wrapped(self, endpoint, api_key, monkeypatch):
        post = RecordingPost([requests.ConnectionError("refused")])
        monkeypatch.setattr(planner_mod.requests, "post", post)
        with pytest.raises(PlannerError, match="request failed"):
            PlannerClient(endpoint).plan("c")

    def test_http_error_wrapped(self, endpoint, api_key, monkeypatch):
        post = RecordingPost([FakeResponse(status=401)])
        monkeypatch.setattr(planner_mod.requests, "post", post)
        with pytest.raises(PlannerError, match="request failed"):
            PlannerClient(endpoint).plan("c")

    def test_non_json_body_wrapped(self, endpoint, api_key, monkeypatch):
        post = RecordingPost([FakeResponse(body_is_json=False)])
        monkeypatch.setattr(planner_mod.requests, "post", post)
        with pytest.raises(PlannerError, match="not JSON"):
            PlannerClient(endpoint).plan("c")

    def test_missing_choices_wrapped(self, endpoint, api_key, monkeypatch):
        post = RecordingPost([FakeResponse({"status": "ok"})])
        monkeypatch.setattr(planner_mod.requests, "post", post)
        with pytest.raises(PlannerError, match="choices"):
            PlannerClient(endpoint).plan("c")


class TestRepairRetry:
    def test_repair_round_trip_succeeds(self, endpoint, api_key, monkeypatch):
        post = RecordingPost(
            [
                FakeResponse(chat_reply("sorry, here is prose with no prompt")),
                FakeResponse(chat_reply(GOOD_PROMPT)),
            ]
        )
        monkeypatch.setattr(planner_mod.requests, "post", post)
        p = PlannerClient(endpoint).plan("c")
        assert serialize(p) == GOOD_PROMPT
        assert len(post.calls) == 2
        repair = post.calls[1]["json"]["messages"][0]["content"]
        assert "could not be parsed" in repair
        assert "sorry, here is prose with no prompt" in repair

    def test_double_failure_saves_raw_and_raises(self, endpoint, api_key, monkeypatch, tmp_path):
        post = RecordingPost(
            [
                FakeResponse(chat_reply("first bad reply")),
                FakeResponse(chat_reply("second bad reply")),
            ]
        )
        monkeypatch.setattr(planner_mod.requests, "post", post)
        dump = tmp_path / "raw" / "planner_raw.txt"
        with pytest.raises(PlannerError, match="after repair retry"):
            PlannerClient(endpoint).plan("c", raw_dump_path=dump)
        assert len(post.calls) == 2
        raw = dump.read_text(encoding="utf-8")
        assert "first bad reply" in raw
        assert "second bad reply" in raw

    def test_double_failure_without_dump_path(self, endpoint, api_key, monkeypatch):
        post = RecordingPost(
            [
                FakeResponse(chat_reply("bad")),
                FakeResponse(chat_reply("still bad")),
            ]
        )
        monkeypatch.setattr(planner_mod.requests, "post", post)
        with pytest.raises(PlannerError, match="after repair retry"):
            PlannerClient(endpoint).plan("c")

    def test_no_retry_when_first_reply_parses(self, endpoint, api_key, monkeypatch):
        post = RecordingPost([FakeResponse(chat_reply(GOOD_REPLY))])
        monkeypatch.setattr(planner_mod.requests, "post", post)
        PlannerClient(endpoint).plan("c")
        assert len(post.calls) == 1
