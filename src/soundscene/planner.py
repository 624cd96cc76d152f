"""LLM-backed prompt planner.

Turns a free-text caption (plus optional required speech text) into a
structured prompt by asking a chat-completion endpoint to reason in
three steps: lay out events on the clip timeline, fix the spoken
sentences, then serialize everything into one prompt line. The reply's
final parseable line is the answer; one repair round-trip is attempted
when parsing fails.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass
from pathlib import Path
from urllib.parse import urlsplit

from soundscene.dsl import DEFAULT_CLIP_SECONDS, PromptSyntaxError, StructuredPrompt, parse
from soundscene.manifest import _staged

__all__ = ["PlannerEndpoint", "PlannerError", "PlannerRequest", "PlannerClient"]

INSTRUCTION_TEMPLATE = """\
You are planning the audio content of a clip that is exactly {clip_seconds:g} seconds long.

Caption: {caption}
{speech_section}\
Work through three steps:

Step 1. List the distinct sound events the caption implies. Give each event a start and an end time in seconds, written with two decimals, with 0.00 <= start < end <= {clip_seconds:.2f}. An event may occur more than once; give every occurrence its own time range.

Step 2. For every event that is spoken language, write out the exact sentence that is said. If required speech text was provided above, use it verbatim and do not invent extra speech.

Step 3. Combine the caption and your plan into one structured prompt on a single line. The format is the caption text followed by one block per event. A block is @{{description & <start,end>}} for a non-speech event and @{{description & <start,end> "sentence"}} for speech; an event with several occurrences lists every <start,end> range in the same block separated by spaces.

Show your reasoning for steps 1 and 2, then answer with the structured prompt as the final line, with nothing after it.
"""

SPEECH_SECTION_TEMPLATE = "Required speech text: {speech_text}\n\n"

REPAIR_TEMPLATE = """\
Your previous reply could not be parsed as a structured prompt.

Parse error: {error}

Previous reply:
{previous}

Answer again with only the corrected structured prompt on a single line: the caption text followed by one @{{description & <start,end> ...}} block per event, nothing else.
"""


@dataclass(frozen=True)
class PlannerEndpoint:
    """Chat-completion endpoint for the prompt planner.

    url is an http or https URL that names a host (any other scheme,
    file:// included, is refused); api_key_env names the environment
    variable holding the bearer token; the token itself is never written
    to disk.
    """

    url: str = ""
    model: str = ""
    api_key_env: str = "PLANNER_API_KEY"
    timeout: float = 30.0

    def __post_init__(self) -> None:
        parts = urlsplit(self.url)
        if parts.scheme not in ("http", "https") or not parts.hostname:
            raise ValueError(f"url must be an http or https URL with a host, got {self.url!r}")
        if not self.model:
            raise ValueError("model must be a non-empty model name")
        if not self.api_key_env.strip():
            raise ValueError(f"api_key_env must name a variable, got {self.api_key_env!r}")
        if isinstance(self.timeout, bool) or not 0 < self.timeout < math.inf:
            raise ValueError(f"timeout must be positive and finite seconds, got {self.timeout!r}")


class PlannerError(RuntimeError):
    """Planner request, response, or parsing failure."""


@dataclass(frozen=True)
class PlannerRequest:
    """One planning task: a caption and optional speech to include."""

    caption: str
    speech_text: str | None = None

    def render(self) -> str:
        speech_section = ""
        if self.speech_text:
            speech_section = SPEECH_SECTION_TEMPLATE.format(speech_text=self.speech_text)
        return INSTRUCTION_TEMPLATE.format(
            caption=self.caption,
            speech_section=speech_section,
            clip_seconds=DEFAULT_CLIP_SECONDS,
        )


def extract_prompt(text: str) -> StructuredPrompt:
    """Pull the structured prompt out of a model reply.

    Scans candidate lines from the bottom up (the instructions ask for
    the prompt as the final line) and returns the first one that parses
    and carries at least one event block.
    """
    candidates = [ln.strip() for ln in text.splitlines() if "@{" in ln]
    last_error: Exception | None = None
    for line in reversed(candidates):
        try:
            p = parse(line)
        except PromptSyntaxError as exc:
            last_error = exc
            continue
        if p.events:
            return p
    if last_error is not None:
        raise PlannerError(f"no line of the reply parses: {last_error}")
    raise PlannerError("reply contains no event block '@{...}'")


class PlannerClient:
    """Synchronous chat-completion client for prompt planning.

    The bearer token comes from the environment variable named by the
    endpoint config (default PLANNER_API_KEY) and is read per request.
    A redirect is refused, so the token goes only to the configured URL;
    proxies come from HTTP(S)_PROXY as for any urllib request.
    """

    def __init__(self, endpoint: PlannerEndpoint):
        self.endpoint = endpoint

    def _post(self, content: str) -> str:
        # imported here: urllib.request pulls in http.client, email and ssl,
        # which only planning needs
        import http.client
        import urllib.request

        class RefuseRedirect(urllib.request.HTTPRedirectHandler):
            def redirect_request(self, *args, **kwargs):
                return None  # a 3xx reply raises HTTPError; the token never follows it

        env_name = self.endpoint.api_key_env
        token = os.environ.get(env_name)
        if not token:
            raise PlannerError(
                f"planner auth token missing: set the {env_name} environment variable"
            )
        body = {"model": self.endpoint.model, "messages": [{"role": "user", "content": content}]}
        request = urllib.request.Request(  # a POST, since it carries data
            self.endpoint.url,
            data=json.dumps(body).encode("utf-8"),
            headers={"Authorization": f"Bearer {token}", "Content-Type": "application/json"},
        )
        opener = urllib.request.build_opener(RefuseRedirect)
        try:
            with opener.open(request, timeout=self.endpoint.timeout) as resp:
                raw = resp.read()
        # a malformed status line raises http.client.BadStatusLine, not an OSError
        except (OSError, http.client.HTTPException) as exc:
            raise PlannerError(f"planner request failed: {exc}") from exc
        try:
            data = json.loads(raw)
        except ValueError as exc:
            raise PlannerError(f"planner response is not JSON: {exc}") from exc
        try:
            reply = data["choices"][0]["message"]["content"]
        except (KeyError, IndexError, TypeError) as exc:
            raise PlannerError(
                f"planner response missing choices[0].message.content: {data!r}"
            ) from exc
        if not isinstance(reply, str):
            raise PlannerError(f"planner reply content is not text: {reply!r}")
        return reply

    def plan(
        self,
        caption: str,
        speech_text: str | None = None,
        raw_dump_path: str | Path | None = None,
    ) -> StructuredPrompt:
        """Plan one prompt; retry once with a repair instruction on parse failure.

        When both attempts fail to parse, the raw replies are written to
        raw_dump_path (if given) and a PlannerError is raised.
        """
        request = PlannerRequest(caption=caption, speech_text=speech_text)
        first_reply = self._post(request.render())
        try:
            return extract_prompt(first_reply)
        except PlannerError as first_err:
            repair = REPAIR_TEMPLATE.format(error=first_err, previous=first_reply)
            second_reply = self._post(repair)
            try:
                return extract_prompt(second_reply)
            except PlannerError as second_err:
                saved = ""
                if raw_dump_path is not None:
                    dump = Path(raw_dump_path)
                    with _staged(dump) as new:
                        new.write_text(
                            "== attempt 1 ==\n" + first_reply
                            + "\n== attempt 2 ==\n" + second_reply + "\n",
                            encoding="utf-8",
                        )
                    saved = f" (raw replies saved to {dump})"
                raise PlannerError(
                    f"planner reply unparseable after repair retry: {second_err}{saved}"
                ) from second_err
