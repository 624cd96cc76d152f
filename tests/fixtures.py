"""Shared test data, generators for valid prompts, a reference sampler, a
denoiser wrapper that records how a sampler binds it, a stub denoiser of
two given branches, the per-latent diffusion loss, a reference
collar-feasibility graph, a reference annotation reader that builds one
object per event, a loopback HTTP server that stands in for the planner's
chat-completion endpoint, a toy-denoiser checkpoint writer and a write that
fails partway."""

from __future__ import annotations

import errno
import hashlib
import json
import os
import struct
import threading
from dataclasses import dataclass
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path

import numpy as np

from soundscene.diffusion import forward_noise
from soundscene.dsl import EventAnnotation, EventSpec, StructuredPrompt, TimeSpan
from soundscene.manifest import iter_jsonl, read_tsv, require_str
from soundscene.sed import _TOL, ClipAnnotations

# Sample planner outputs: caption plus timed event blocks, some with quoted
# speech. Used for parser fixtures and as recorded planner responses.
PLANNED_PROMPT_SAMPLES = [
    'She is talking in the park. @{park ambient sounds. & <0.00, 10.00>}@{Female speech, '
    'woman speaking. & <1.50, 6.00> "Good morning! How are you feeling today?"}',
    'A child yelling as a young boy talks during several slaps on a hard surface. '
    '@{Young boy speaking & <1.50,8.00> "Say yeah, baby. Say yeah, baby. Are you over '
    'tired?"} @{Child yelling & <2.00,6.00>} @{slaps on a hard surface & <2.50,3.00> '
    '<5.00,5.50>}',
    'A female speaking with some rustling followed by another female speaking. '
    '@{Female speech, woman speaking & <0.50,6.00> "The IT services at the King\'s '
    'University College are proud to announce that"} @{rustling & <1.00,5.00>} '
    '@{Female speech, woman speaking & <6.50,8.00> "we have launched"}',
    'A duck quacks followed by a man talking while birds chirp in the distance. '
    '@{duck quack & <0.50,1.50>} @{Man speaking & <2.00,7.50> "Mama Mama snow mama come '
    'over here, baby"} @{birds chirping in the distance & <2.50,4.00> <5.50,7.00>}',
    'Two men speaking with loud insects buzzing. @{Man speaking & <1.00,4.50> "I\'ve got '
    'gloves covered in mid repellent."} @{Man speaking & <5.00,6.50> "Still fishing."} '
    '@{loud insects buzzing & <0.00,10.00>}',
    'A man speaking as a stream of water splashes and flows while music faintly plays in '
    'the distance. @{Man speaking & <0.50,9.50> "in the amateur show tonight then tomorrow '
    'on Saturday the broadcasters and the other amateur cast will be going out hope to do '
    'well there get some good footage hope you enjoy"} @{water splashing and flowing & '
    '<0.00,10.00>} @{faint music in the distance & <0.00,10.00>}',
    'People are giggling, and a man speaks. @{people giggling & <1.00,5.00>} '
    '@{Man speaking & <2.50,4.50> "What\'s so funny?"}',
    'A person is giving instructions or explaining a procedure. @{Man speaking & '
    '<1.00,9.00> "Some people talk about fucking the heads, but the way I do it, I just '
    'put my finger down there and pull it out."}',
]

_DESC_CHARS = "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789 ',.!?-:;()<"
_SPEECH_CHARS = _DESC_CHARS + '"\\&}{\n'


def _random_field(rng: np.random.Generator, chars: str, min_size: int, max_size: int) -> str:
    n = int(rng.integers(min_size, max_size + 1))
    return "".join(chars[int(i)] for i in rng.integers(0, len(chars), size=n))


def random_time_span(rng: np.random.Generator, clip_cs: int = 1000) -> TimeSpan:
    a, b = sorted(rng.choice(clip_cs + 1, size=2, replace=False).tolist())
    return TimeSpan(a / 100.0, b / 100.0)


def random_prompt(rng: np.random.Generator, max_events: int = 4) -> StructuredPrompt:
    """A canonical-form prompt: stripped fields, sorted spans.

    parse(serialize(p)) == p holds for everything this returns.
    """
    caption = ""
    if rng.random() < 0.8:
        caption = _random_field(rng, _DESC_CHARS, 1, 40).strip()
    events = []
    for _ in range(int(rng.integers(0, max_events + 1))):
        desc = ""
        while not desc:
            desc = _random_field(rng, _DESC_CHARS, 1, 30).strip()
        spans = sorted(
            (random_time_span(rng) for _ in range(int(rng.integers(1, 4)))),
            key=lambda s: (s.start, s.end),
        )
        speech = None
        if rng.random() < 0.5:
            speech = _random_field(rng, _SPEECH_CHARS, 0, 30)
        events.append(EventSpec(description=desc, spans=tuple(spans), speech=speech))
    return StructuredPrompt(caption=caption, events=tuple(events))


def reference_cfg_loop(denoiser, gs, sched, z_T, rng=None, mode="ancestral"):
    """Two-phase classifier-free guidance written out from the formulas:
    steps t > gs.t1 run under (c1, w_low) and the rest under (c2, w_high),
    two predict calls give the branches, and each step is the DDPM
    ancestral update (Ho et al. 2020) or the DDIM deterministic one (Song
    et al. 2021), with no code of the sampler's.  The reference that
    sample_progressive must match bit for bit."""
    ab = sched.alpha_bar
    z = np.asarray(z_T, dtype=np.float64)
    for t in range(sched.T, 0, -1):
        c, w = (gs.c1, gs.w_low) if t > gs.t1 else (gs.c2, gs.w_high)
        eps_c = np.asarray(denoiser.predict(z, t, c), dtype=np.float64)
        eps_u = np.asarray(denoiser.predict(z, t, None), dtype=np.float64)
        # guidance: exactly one branch at w = 0 or 1, so the other never counts
        eps = eps_u if w == 0.0 else eps_c if w == 1.0 else eps_u + w * (eps_c - eps_u)
        if mode == "deterministic":
            # re-noise the implied clean latent with the predicted noise
            z0_hat = (z - np.sqrt(1.0 - ab[t]) * eps) / np.sqrt(ab[t])
            z = np.sqrt(ab[t - 1]) * z0_hat + np.sqrt(1.0 - ab[t - 1]) * eps
            continue
        # the posterior mean, plus sigma times fresh noise except at t = 1
        alpha = ab[t] / ab[t - 1]
        beta = 1.0 - alpha
        z = (z - beta / np.sqrt(1.0 - ab[t]) * eps) / np.sqrt(alpha)
        if t > 1:
            sigma = np.sqrt(beta * (1.0 - ab[t - 1]) / (1.0 - ab[t]))
            z = z + sigma * rng.standard_normal(z.shape)
    return z


class RecordingDenoiser:
    """Wraps a denoiser and logs, in ``log``, each bind_pair(c, shape, t_max)
    as ("bind", c, shape, t_max) and each step its bound function sees as
    ("step", t); predict passes through unlogged."""

    def __init__(self, inner):
        self.inner, self.log = inner, []

    def predict(self, z_t, t, c=None):
        return self.inner.predict(z_t, t, c)

    def bind_pair(self, c, shape, t_max):
        self.log.append(("bind", c, tuple(shape), t_max))
        pair = self.inner.bind_pair(c, shape, t_max)

        def recorded(z_t, t):
            self.log.append(("step", t))
            return pair(z_t, t)

        return recorded


class BranchDenoiser:
    """A stub whose conditional branch is cond(z_t, t) under every condition
    but None and whose unconditional branch is uncond(z_t, t).  Its bound
    function keeps, in ``seen``, each step and a copy of the z_t it is
    given."""

    def __init__(self, cond, uncond):
        self.cond, self.uncond, self.seen = cond, uncond, []

    def predict(self, z_t, t, c=None):
        return (self.uncond if c is None else self.cond)(z_t, t)

    def bind_pair(self, c, shape, t_max):
        def pair(z_t, t):
            self.seen.append((t, z_t.copy()))
            return self.predict(z_t, t, c), self.uncond(z_t, t)

        return pair


def expected_bind_log(gs, shape):
    """The log RecordingDenoiser holds after one sampler run under ``gs``
    from latents of ``shape``: one binding per non-empty phase, steps
    T..t1+1 under c1, then t1..1 under c2."""
    log = []
    for c, steps in ((gs.c1, range(gs.T, gs.t1, -1)), (gs.c2, range(gs.t1, 0, -1))):
        if steps:
            log.append(("bind", c, tuple(shape), steps[0]))
            log.extend(("step", t) for t in steps)
    return log


def diffusion_loss(denoiser, z0, c, t, eps, sched):
    """Squared L2 between the injected and the predicted noise at step t (the
    epsilon-prediction objective for one latent, scored through predict)."""
    z_t = forward_noise(z0, t, eps, sched)
    eps_hat = np.asarray(denoiser.predict(z_t, t, c), dtype=np.float64)
    eps = np.asarray(eps, dtype=np.float64)
    if eps_hat.shape != eps.shape:
        raise ValueError(f"denoiser output shape {eps_hat.shape} != noise shape {eps.shape}")
    return float(np.sum(np.square(eps - eps_hat)))


def reference_feasibility_graph(t_group, t_start, t_end, p_group, p_start, p_end, cfg):
    """The rank-table window search over centisecond columns: predictions
    sorted by lexsort on (group, onset), every onset and window bound
    replaced by its rank in np.unique of all of them, and (group, rank)
    folded into one integer key, then both collar tests applied to each
    pair.  The reference that sed's feasibility graph must match edge for
    edge and in column order."""
    from scipy.sparse import csr_matrix

    order = np.lexsort((p_start, p_group))
    reach = int(cfg.onset_collar * 100 + _TOL)
    bounds = np.concatenate([p_start[order], t_start - reach, t_start + reach])
    values, rank = np.unique(bounds, return_inverse=True)
    key = np.concatenate([p_group[order], t_group, t_group]) * len(values) + rank
    p_key, lo_key, hi_key = np.split(key, [len(order), len(order) + len(t_group)])
    first = np.searchsorted(p_key, lo_key, side="left")
    count = np.searchsorted(p_key, hi_key, side="right") - first
    rows = np.repeat(np.arange(len(t_group)), count)
    offsets = np.arange(len(rows)) - np.repeat(np.cumsum(count) - count, count)
    cols = order[np.repeat(first, count) + offsets]
    allowance = np.maximum(cfg.offset_collar_abs * 100, cfg.offset_collar_rel * (t_end - t_start))
    ok = (np.abs(p_start[cols] - t_start[rows]) <= reach) & (
        np.abs(p_end[cols] - t_end[rows]) <= allowance[rows] + _TOL
    )
    rows, cols = rows[ok], cols[ok]
    indptr = np.concatenate([[0], np.cumsum(np.bincount(rows, minlength=len(t_group)))])
    return csr_matrix(
        (np.ones(len(cols), dtype=np.int8), cols, indptr), shape=(len(t_group), len(p_group))
    )


def _reference_event_time(row, key):
    value = row[key]
    if type(value) is not float and (isinstance(value, bool) or not isinstance(value, (int, float))):
        raise ValueError(f"{key} {value!r} is not a number")
    return value


def _reference_decode_events(rows, where):
    if not isinstance(rows, list):
        raise ValueError(f"{where}: malformed event record: events must be a list")
    events = []
    for row in rows:
        if not isinstance(row, dict):
            raise ValueError(f"{where}: malformed event record: {row!r} is not an object")
        try:
            label, transcript = row["label"], row.get("transcript")
            start, end = _reference_event_time(row, "start"), _reference_event_time(row, "end")
            span = TimeSpan(start, end)
        except KeyError as exc:
            raise ValueError(f"{where}: malformed event record: missing field {exc}") from exc
        except ValueError as exc:
            raise ValueError(f"{where}: malformed event record: {exc}") from exc
        if not isinstance(label, str):
            raise ValueError(f"{where}: malformed event record: label {label!r} is not a string")
        if not (transcript is None or isinstance(transcript, str)):
            raise ValueError(
                f"{where}: malformed event record: transcript {transcript!r} is not a string or null"
            )
        if not label.strip():
            raise ValueError(f"{where}: empty label")
        if not 0 <= span.start < span.end:
            raise ValueError(f"{where}: invalid span [{float(start)}, {float(end)}]")
        events.append(EventAnnotation(label, span, transcript))
    return tuple(events)


def reference_annotations(path):
    """The object-per-event annotation reader: one EventAnnotation and one
    TimeSpan per row, JSONL sniffed from the first 4,096 characters, TSV
    times read by ``float()``.  The reference that sed's column readers
    must match clip for clip and message for message."""
    with open(path, "r", encoding="utf-8") as fh:
        head = fh.read(4096)
    if head.lstrip().startswith("{"):
        clips, seen = [], set()
        for where, rec in iter_jsonl(path):
            clip_id = require_str(rec, "clip_id", where)
            if clip_id in seen:
                raise ValueError(f"{where}: duplicate clip_id {clip_id!r}")
            seen.add(clip_id)
            clips.append(ClipAnnotations(clip_id, _reference_decode_events(rec.get("events", []), where)))
        return clips
    events = {}
    for where, row in read_tsv(path, ("clip_id", "label", "start", "end")):
        try:
            times = {key: float(row[key]) for key in ("start", "end")}
        except ValueError as exc:
            raise ValueError(f"{where}: malformed event record: {exc}") from exc
        events.setdefault(row["clip_id"], []).extend(_reference_decode_events([row | times], where))
    return [ClipAnnotations(cid, tuple(evs)) for cid, evs in events.items()]


def reference_columns(clips, group_of, label_of):
    """(clip, label) group id, label id, and onset and offset in
    centiseconds of every event of one side, built from its objects; new
    groups and labels are numbered in order of appearance."""
    groups, labels, starts, ends = [], [], [], []
    for clip in clips:
        for e in clip.events:
            groups.append(group_of.setdefault((clip.clip_id, e.label), len(group_of)))
            labels.append(label_of.setdefault(e.label, len(label_of)))
            starts.append(e.span.start_cs)
            ends.append(e.span.end_cs)
    return np.array(groups), np.array(labels), np.array(starts), np.array(ends)


@dataclass(frozen=True)
class Reply:
    """One scripted answer of a LoopbackPlanner."""

    status: int = 200
    body: bytes = b""
    headers: tuple[tuple[str, str], ...] = ()
    raw: bytes | None = None  # written to the socket as is, in place of a well-formed reply
    stall: float = 0.0  # seconds to wait before answering


class LoopbackPlanner:
    """An HTTP server on 127.0.0.1 playing a chat-completion endpoint.

    Each request, POST or GET, gets the next item of ``replies``: a ``Reply``,
    or a JSON payload sent with status 200 (a 500 once the script is used
    up).  Each is recorded in ``received`` as {"method", "path", "headers",
    "json"}, with "json" None for an empty body.
    """

    def __init__(self, replies=()):
        self.replies = list(replies)
        self.received: list[dict] = []
        self._closing = threading.Event()  # cuts a stalled reply short
        owner = self

        class Handler(BaseHTTPRequestHandler):
            def do_POST(self):
                owner._answer(self)

            do_GET = do_POST

            def log_message(self, *args):
                pass

        self._httpd = ThreadingHTTPServer(("127.0.0.1", 0), Handler)
        self._thread = threading.Thread(
            target=self._httpd.serve_forever, kwargs={"poll_interval": 0.02}, daemon=True
        )
        self._thread.start()
        self.url = f"http://127.0.0.1:{self._httpd.server_port}/v1/chat"

    def _answer(self, handler: BaseHTTPRequestHandler) -> None:
        body = handler.rfile.read(int(handler.headers.get("Content-Length", 0)))
        self.received.append({"method": handler.command, "path": handler.path,
                              "headers": handler.headers, "json": json.loads(body or "null")})
        reply = self.replies.pop(0) if self.replies else Reply(500, b"no scripted reply")
        if not isinstance(reply, Reply):
            reply = Reply(body=json.dumps(reply).encode("utf-8"))
        if self._closing.wait(reply.stall):
            return
        if reply.raw is not None:
            handler.wfile.write(reply.raw)
            return
        handler.send_response(reply.status)
        for name, value in reply.headers:
            handler.send_header(name, value)
        handler.send_header("Content-Length", str(len(reply.body)))
        handler.end_headers()
        handler.wfile.write(reply.body)

    def close(self) -> None:
        self._closing.set()
        self._httpd.shutdown()
        self._httpd.server_close()
        self._thread.join(timeout=10)
        assert not self._thread.is_alive(), "loopback planner did not stop"


def write_checkpoint(path: Path, dim: int, T: int, flat) -> Path:
    """A version-3 toy-denoiser checkpoint written from its layout: the
    magic; version 3, dim and T as little-endian uint32; the sha256 of those
    12 bytes and the body; then the body, ``flat`` as little-endian float64."""
    sizes = struct.pack("<III", 3, dim, T)
    body = np.ascontiguousarray(flat, dtype="<f8").tobytes()
    path.write_bytes(b"TOYDNZR\x00" + sizes + hashlib.sha256(sizes + body).digest() + body)
    return path


def fail_writes_partway(monkeypatch) -> None:
    """Make Path.write_bytes and Path.write_text write the first half of
    their data, then raise OSError as a full disk would."""

    def write_half(self, data, *args, **kwargs):
        with open(self, "wb" if isinstance(data, bytes) else "w", encoding=kwargs.get("encoding")) as fh:
            fh.write(data[: len(data) // 2])
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC), str(self))

    monkeypatch.setattr(Path, "write_bytes", write_half)
    monkeypatch.setattr(Path, "write_text", write_half)
