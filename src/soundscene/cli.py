"""Command-line pipeline.

Subcommands cover the full workflow: prompt handling (parse, fmt,
tokenize), dataset synthesis (simulate), annotation ingestion (ingest),
LLM prompt planning (plan), latent sampling (sample), and scoring
(evaluate).  All outputs are deterministic for a fixed config and seed.
Every output but ``sample/`` is staged and replaces the old one whole once
complete, so a failed run leaves the previous output as it was.
"""

from __future__ import annotations

import argparse
import codecs
import dataclasses
import functools
import sys
from pathlib import Path
from typing import Any

import numpy as np

from soundscene.audio import write_wav
from soundscene.config import (
    ConfigError,
    PipelineConfig,
    field_types,
    load_config,
)
from soundscene.diffusion import (
    GaussianCondition,
    GaussianOracleDenoiser,
    GuidanceSchedule,
    SamplerConfig,
    cosine_schedule,
    sample_progressive,
)
from soundscene.dsl import (
    EventAnnotation,
    PromptSyntaxError,
    StructuredPrompt,
    _format_time,
    check_caption,
    from_annotations,
    parse,
    serialize,
    validate,
)
from soundscene.manifest import _staged, encode_events, iter_lines, read_tsv, write_jsonl_atomic
from soundscene.phonemes import (
    OOV_POLICIES,
    build_vocab,
    load_default_lexicon,
    load_lexicon,
    render_tokens,
    tokenize_prompt,
)
from soundscene.planner import PlannerClient
from soundscene.scene import (
    compose_scene,
    derive_scene_seed,
    load_background_pool,
    load_speech_pool,
)
from soundscene.sed import (
    EbConfig,
    annotations_from_manifest,
    clip_level_macro_f1,
    event_based_f1,
    render_report,
)
from soundscene.toytrain import load_checkpoint


def _load_config_resolved(args: argparse.Namespace) -> PipelineConfig:
    """Load ``--config`` with its paths resolved against the config's directory
    and ``--output-dir``, on commands that have it, in place of output_dir."""
    cfg = load_config(args.config)
    base = Path(args.config).resolve().parent
    keys = ("output_dir", "speech_manifest", "background_manifest")
    paths = {k: str(base / v) for k in keys if (v := getattr(cfg, k)) is not None}
    if getattr(args, "output_dir", None):
        paths["output_dir"] = args.output_dir
    return dataclasses.replace(cfg, **paths)


def _parse_prompt_arg(args: argparse.Namespace) -> StructuredPrompt:
    """Parse the inline prompt, or the whole text of ``--file`` (quoted
    speech may span lines): its lines by iter_lines' rule, joined by "\\n",
    stripped.  A syntax error in a file names ``path:line`` and the byte
    offset within that line as stored, a byte-order mark included."""
    if args.file is None:
        if args.prompt is None:
            raise ValueError("no prompt given; pass it inline or via --file")
        return parse(args.prompt)
    if args.prompt is not None:
        raise ValueError("give the prompt inline or via --file, not both")
    rows = list(iter_lines(args.file))
    text = "\n".join(line for _, line in rows)
    try:
        return parse(text.strip())
    except PromptSyntaxError as exc:
        # back from the stripped text to the line holding the offset
        pos = exc.offset + len(text[: len(text) - len(text.lstrip())].encode("utf-8"))
        for lineno, (where, line) in enumerate(rows, start=1):
            size = len(line.encode("utf-8"))
            if pos <= size:
                break
            pos -= size + 1  # the line and its "\\n"
        if lineno == 1:
            with open(args.file, "rb") as fh:
                pos += len(codecs.BOM_UTF8) if fh.read(3) == codecs.BOM_UTF8 else 0
        raise ValueError(f"{where}: {exc.message} at byte {pos}") from exc


# ---------------------------------------------------------------- prompts


def cmd_parse(args: argparse.Namespace) -> int:
    p = _parse_prompt_arg(args)
    print(f"caption: {p.caption}")
    for i, ev in enumerate(p.events):
        spans = ", ".join(f"{_format_time(s.start)}-{_format_time(s.end)}" for s in ev.spans)
        print(f"event {i}: {ev.description}")
        print(f"  spans: {spans}")
        print(f"  speech: {ev.speech!r}" if ev.speech is not None else "  speech: -")
    for finding in validate(p):
        print(f"finding: {finding}")
    return 0


def cmd_fmt(args: argparse.Namespace) -> int:
    print(serialize(_parse_prompt_arg(args)))
    return 0


def cmd_tokenize(args: argparse.Namespace) -> int:
    p = _parse_prompt_arg(args)
    lex = load_lexicon(Path(args.lexicon)) if args.lexicon else load_default_lexicon()
    canonical = serialize(p)
    # the prompt's own text always seeds the vocabulary, so every base
    # token that tokenization will look up has an id
    corpus_lines = [canonical]
    if args.vocab_corpus:
        corpus_lines = [line for _, line in iter_lines(args.vocab_corpus)] + corpus_lines
    vocab = build_vocab(corpus_lines, lex)
    tp = tokenize_prompt(p, vocab, lex, oov_policy=args.oov_policy)
    if args.ids:
        print(" ".join(str(i) for i in tp.ids))
    else:
        print(render_tokens(tp, vocab))
    return 0


# --------------------------------------------------------------- simulate

_WORKER_STATE: dict[str, Any] = {}


def _scene_record(clip_id: str, scene: Any) -> dict[str, Any]:
    return {
        "clip_id": clip_id,
        "audio": f"audio/{clip_id}.wav",
        "caption": scene.prompt.caption,
        "prompt": serialize(scene.prompt),
        "events": encode_events(scene.annotations),
        "scenario": scene.spec.scenario,
        "snr_db": scene.spec.snr_db,
        "seed": scene.spec.seed,
    }


def _init_sim_worker(speech: Any, background: Any, priors: Any) -> None:
    _WORKER_STATE.update(speech=speech, background=background, priors=priors)


def _compose(index: int, seed: int) -> tuple[str, Any]:
    """Scene ``index``'s clip id and scene, composed from the worker's pools;
    a scene that cannot be composed raises naming its clip id and seed."""
    clip_id = f"scene{index:05d}"
    try:
        scene = compose_scene(
            _WORKER_STATE["speech"],
            _WORKER_STATE["background"],
            _WORKER_STATE["priors"],
            seed=seed,
        )
    except (ValueError, RuntimeError) as exc:  # e.g. a draw that cannot be arranged
        raise type(exc)(f"{clip_id} (seed {seed}): {exc}") from exc
    return clip_id, scene


def _sim_task(task: tuple[int, int, Path]) -> dict[str, Any]:
    index, seed, audio_dir = task
    clip_id, scene = _compose(index, seed)
    write_wav(audio_dir / f"{clip_id}.wav", scene.waveform)
    return _scene_record(clip_id, scene)


def _simulate_here(tasks: list[tuple[int, int, Path]]) -> list[dict[str, Any]]:
    """Run ``tasks`` in this process: one helper thread writes scene i's WAV
    while this thread composes scene i+1, with one write in flight.  The
    first failure in scene order is raised, so a write error of scene i wins
    over a compose error of scene i+1, and the helper is joined on return."""
    from concurrent.futures import Future, ThreadPoolExecutor  # loads logging: only here

    records = []
    pending: Future[None] | None = None  # the previous scene's write
    with ThreadPoolExecutor(1, thread_name_prefix="simulate-writer") as writer:
        for index, seed, audio_dir in tasks:
            try:
                clip_id, scene = _compose(index, seed)
                records.append(_scene_record(clip_id, scene))
            finally:
                if pending is not None:
                    pending.result()
            # compose_scene returns a fresh waveform that nothing here touches again
            pending = writer.submit(write_wav, audio_dir / f"{clip_id}.wav", scene.waveform)
        if pending is not None:
            pending.result()
    return records


def cmd_simulate(args: argparse.Namespace) -> int:
    cfg = _load_config_resolved(args)
    if args.count < 0:
        raise ValueError(f"--count must be >= 0, got {args.count}")
    if args.workers < 1:
        raise ValueError(f"--workers must be >= 1, got {args.workers}")
    if cfg.speech_manifest is None or cfg.background_manifest is None:
        raise ConfigError("simulate needs speech_manifest and background_manifest in the config")
    # a pool error surfaces here, naming path:line, before anything is written
    state = (load_speech_pool(cfg.speech_manifest), load_background_pool(cfg.background_manifest),
             cfg.priors)
    if cfg.priors.p_single_speaker < 1.0 and len(state[0].speakers) < 2:
        raise ValueError(f"{cfg.speech_manifest}: one speaker cannot hold a dialogue, and "
                         f"priors.p_single_speaker is {cfg.priors.p_single_speaker}")
    out_dir = Path(cfg.output_dir)
    manifest_path = out_dir / "scenes.jsonl"
    # WAVs go into a staged audio/: a failed run leaves the previous run as it was
    with _staged(out_dir / "audio") as audio_dir:
        audio_dir.mkdir()
        tasks = [(i, derive_scene_seed(cfg.dataset_seed, i), audio_dir) for i in range(args.count)]
        # fork starts every worker at the first submit: no more than there are scenes
        workers = min(args.workers, len(tasks))
        if workers <= 1:
            _init_sim_worker(*state)
            try:
                records = _simulate_here(tasks)
            finally:
                _WORKER_STATE.clear()  # the pools die with this call, not at the next load
        else:
            from concurrent.futures import ProcessPoolExecutor  # loads multiprocessing

            with ProcessPoolExecutor(
                max_workers=workers, initializer=_init_sim_worker, initargs=state
            ) as pool:
                # about four chunks per worker: one IPC round trip per chunk, not per scene
                chunksize = max(1, len(tasks) // (4 * workers))
                records = list(pool.map(_sim_task, tasks, chunksize=chunksize))
        write_jsonl_atomic(manifest_path, records)
    print(f"wrote {len(records)} scenes to {manifest_path}")
    return 0


# ----------------------------------------------------------------- ingest


def _read_transcript_table(path: Path) -> dict[tuple[str, int], str]:
    table: dict[tuple[str, int], str] = {}
    for where, row in read_tsv(path, ("clip_id", "event_index", "transcript")):
        raw = row["event_index"]
        if not (raw.isascii() and raw.isdigit()):
            raise ValueError(f"{where}: event index {raw!r} is not a non-negative integer")
        key = (row["clip_id"], int(raw))
        if key in table:
            raise ValueError(f"{where}: duplicate transcript key {key}")
        table[key] = row["transcript"]
    return table


def _read_caption_table(path: Path) -> dict[str, str]:
    table: dict[str, str] = {}
    for where, row in read_tsv(path, ("clip_id", "caption")):
        if row["clip_id"] in table:
            raise ValueError(f"{where}: duplicate caption for clip {row['clip_id']!r}")
        check_caption(row["caption"], f"{where}: caption")
        table[row["clip_id"]] = row["caption"]
    return table


def cmd_ingest(args: argparse.Namespace) -> int:
    events_path = Path(args.events)
    transcripts_path = Path(args.transcripts)
    for p in (events_path, transcripts_path):
        if not p.exists():
            raise OSError(f"input file not found: {p}")
    clips = annotations_from_manifest(events_path)
    transcripts = _read_transcript_table(transcripts_path)
    captions = _read_caption_table(Path(args.captions)) if args.captions else {}

    used: set[tuple[str, int]] = set()
    records: list[dict[str, Any]] = []
    for clip in clips:
        joined: list[EventAnnotation] = []
        for idx, ev in enumerate(clip.events):
            key = (clip.clip_id, idx)
            if key not in transcripts:
                print(
                    f"warning: no transcript row for clip {clip.clip_id!r}"
                    f" event {idx}; event skipped",
                    file=sys.stderr,
                )
                continue
            used.add(key)
            text = transcripts[key]
            joined.append(
                EventAnnotation(
                    label=ev.label,
                    span=ev.span,
                    transcript=text if text else None,
                )
            )
        caption = captions.get(clip.clip_id, "")
        try:
            prompt = from_annotations(caption, joined)
        except ValueError as exc:
            raise ValueError(f"clip {clip.clip_id!r}: {exc}") from exc
        records.append(
            {
                "clip_id": clip.clip_id,
                "caption": caption,
                "prompt": serialize(prompt),
                "events": encode_events(joined),
            }
        )
    for key in sorted(set(transcripts) - used):
        print(
            f"warning: transcript row for unknown event"
            f" (clip {key[0]!r}, index {key[1]}); row skipped",
            file=sys.stderr,
        )

    out_path = Path(args.output)
    write_jsonl_atomic(out_path, records)
    print(f"wrote {len(records)} annotated clips to {out_path}")
    return 0


# ------------------------------------------------------------------- plan


def cmd_plan(args: argparse.Namespace) -> int:
    cfg = _load_config_resolved(args)
    if cfg.planner is None:
        raise ConfigError("config has no planner section; set planner.url and planner.model")
    raw_dump = Path(args.raw_dump) if args.raw_dump else Path(cfg.output_dir) / "planner_raw.txt"
    client = PlannerClient(cfg.planner)
    prompt = client.plan(args.caption, speech_text=args.speech, raw_dump_path=raw_dump)
    print(serialize(prompt))
    return 0


# ----------------------------------------------------------------- sample


# the sample flags only one denoiser reads, with their defaults: argparse
# leaves them None, so cmd_sample can refuse any the chosen denoiser ignores
_DENOISER_FLAGS: dict[str, dict[str, Any]] = {
    "toy_checkpoint": {"checkpoint": None, "condition_id": 0},
    "gaussian_oracle": {"mu": 2.0, "sigma2": 0.25, "dim": 2},
}


def cmd_sample(args: argparse.Namespace) -> int:
    cfg = _load_config_resolved(args)
    sc = dataclasses.replace(cfg.sampler, **_given_fields(args, SamplerConfig))
    sched = cosine_schedule(sc.T)

    for owner, flags in _DENOISER_FLAGS.items():
        for name, default in flags.items():
            given = getattr(args, name)
            if owner != args.denoiser and given is not None:
                raise ValueError(f"--{name.replace('_', '-')} needs --denoiser {owner}")
            if given is None:
                setattr(args, name, default)

    if args.denoiser == "gaussian_oracle":
        dim = args.dim
        if dim < 1:
            raise ValueError(f"--dim must be >= 1, got {dim}")
        # the coarse phase is steered by the broad prior, the full phase by the target
        c1: Any = GaussianCondition(np.zeros(dim), 1.0)
        c2: Any = GaussianCondition(np.full(dim, args.mu), args.sigma2)
        denoiser: Any = GaussianOracleDenoiser(prior=c1, sched=sched)
        phase_label = {1: "gauss:mu=0,sigma2=1", 2: f"gauss:mu={args.mu:g},sigma2={args.sigma2:g}"}
    else:
        if not args.checkpoint:
            raise ValueError("--denoiser toy_checkpoint needs --checkpoint PATH")
        denoiser = load_checkpoint(args.checkpoint)
        if denoiser.T != sc.T:
            raise ConfigError(
                f"checkpoint was trained with T={denoiser.T}, sampler.T is {sc.T}"
            )
        dim = denoiser.dim
        full_id = args.condition_id
        c2 = ("full", full_id)
        c1 = ("text", denoiser.view_of(full_id, "text"))
        phase_label = {1: f"text:{c1[1]}", 2: f"full:{c2[1]}"}

    gs = GuidanceSchedule(c1=c1, c2=c2, w_low=sc.w_low, w_high=sc.w_high, t1=sc.t1, T=sc.T)
    rng = np.random.default_rng(sc.seed)
    z_T = rng.standard_normal(dim)

    z0 = sample_progressive(denoiser, gs, sched, z_T, rng=rng, mode=sc.mode)
    # the log walks the phases the sampler ran: steps t = T..1, so row
    # T + 1 - t is the step's 1-based number
    log_lines = ["step\tt\tphase\tcondition\tw"]
    for phase, _, w, steps in gs.phases():
        suffix = f"\t{phase}\t{phase_label[phase]}\t{w:g}"
        log_lines += [f"{sc.T + 1 - t}\t{t}{suffix}" for t in steps]

    sample_dir = Path(cfg.output_dir) / "sample"
    sample_dir.mkdir(parents=True, exist_ok=True)
    # each output is unlinked and written anew: closing a truncated file
    # costs the kernel a writeback a new file does not need, and a symlink
    # in the way is replaced rather than written through
    latents_path = sample_dir / "latents.npy"
    latents_path.unlink(missing_ok=True)
    np.save(latents_path, z0)
    log_path = sample_dir / "steps.log"
    log_path.unlink(missing_ok=True)
    log_path.write_text("\n".join(log_lines) + "\n", encoding="utf-8")
    print(f"latents: {latents_path}")
    print(f"step log: {log_path}")
    return 0


# --------------------------------------------------------------- evaluate


def cmd_evaluate(args: argparse.Namespace) -> int:
    truth_path = Path(args.truth)
    pred_path = Path(args.pred)
    if not truth_path.exists():
        raise OSError(f"truth manifest not found: {truth_path}")
    if not pred_path.exists():
        raise OSError(f"prediction manifest not found: {pred_path}")
    cfg = EbConfig(**_given_fields(args, EbConfig))
    truth = annotations_from_manifest(truth_path)
    pred = annotations_from_manifest(pred_path)
    eb = event_based_f1(truth, pred, cfg)
    at = clip_level_macro_f1(truth, pred)
    text = render_report(eb, at, cfg)
    print(text)
    if args.report:
        with _staged(Path(args.report)) as new:
            new.write_text(text + "\n", encoding="utf-8")
    return 0


# ------------------------------------------------------------------ parser


def _add_prompt_source(sp: argparse.ArgumentParser) -> None:
    sp.add_argument("prompt", nargs="?", help="prompt text (omit when using --file)")
    sp.add_argument("--file", help="read the prompt from this file instead")


def _add_field_flags(sp: argparse.ArgumentParser, cls: type, help_text: str) -> None:
    """One ``--field-name`` flag per field of the settings dataclass ``cls``,
    typed like the field; ``help_text`` may use the field's name and default."""
    for f in dataclasses.fields(cls):
        sp.add_argument("--" + f.name.replace("_", "-"), type=field_types(cls)[f.name],
                        help=help_text.format(name=f.name, default=f.default))


def _given_fields(args: argparse.Namespace, cls: type) -> dict[str, Any]:
    """The fields of ``cls`` whose flags were given; the rest keep their value."""
    return {f.name: v for f in dataclasses.fields(cls) if (v := getattr(args, f.name)) is not None}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="soundscene",
        description="Structured-prompt audio scene pipeline.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("parse", help="parse a prompt and show its structure")
    _add_prompt_source(sp)
    sp.set_defaults(func=cmd_parse)

    sp = sub.add_parser("fmt", help="print the canonical form of a prompt")
    _add_prompt_source(sp)
    sp.set_defaults(func=cmd_fmt)

    sp = sub.add_parser("tokenize", help="tokenize a prompt (speech becomes phonemes)")
    _add_prompt_source(sp)
    sp.add_argument("--lexicon", help="pronunciation dictionary path (default: bundled)")
    sp.add_argument(
        "--oov-policy",
        default="letter_fallback",
        choices=OOV_POLICIES,
        help="handling for out-of-vocabulary words (default: %(default)s)",
    )
    sp.add_argument(
        "--vocab-corpus",
        help="text file whose lines seed base-token ids (the prompt itself is always included)",
    )
    sp.add_argument("--ids", action="store_true", help="print token ids instead of tokens")
    sp.set_defaults(func=cmd_tokenize)

    sp = sub.add_parser("simulate", help="synthesize a scene dataset from pools")
    sp.add_argument("--config", required=True, help="pipeline config YAML")
    sp.add_argument("--count", required=True, type=int, help="number of scenes to compose")
    sp.add_argument("--output-dir", help="override the config's output_dir")
    sp.add_argument(
        "--workers", type=int, default=1,
        help="worker processes (default: 1; output is identical for any value)",
    )
    sp.set_defaults(func=cmd_simulate)

    sp = sub.add_parser("ingest", help="join event and transcript tables into a prompt manifest")
    sp.add_argument("--events", required=True, help="TSV: clip_id, label, start, end")
    sp.add_argument(
        "--transcripts", required=True,
        help="TSV: clip_id, event index, transcript (empty transcript = non-speech event)",
    )
    sp.add_argument("--captions", help="optional TSV: clip_id, caption")
    sp.add_argument("--output", required=True, help="output manifest JSONL path")
    sp.set_defaults(func=cmd_ingest)

    sp = sub.add_parser("plan", help="ask the configured LLM planner for a structured prompt")
    sp.add_argument("--config", required=True, help="pipeline config YAML with a planner section")
    sp.add_argument("--caption", required=True, help="free-text caption to plan from")
    sp.add_argument("--speech", help="speech text the plan must include verbatim")
    sp.add_argument(
        "--raw-dump",
        help="where to save raw replies if parsing fails (default: output_dir/planner_raw.txt)",
    )
    sp.set_defaults(func=cmd_plan)

    sp = sub.add_parser("sample", help="run the two-phase guided reverse process")
    sp.add_argument("--config", required=True, help="pipeline config YAML")
    sp.add_argument(
        "--denoiser", default="gaussian_oracle",
        choices=("gaussian_oracle", "toy_checkpoint"),
        help="noise predictor to drive (default: gaussian_oracle)",
    )
    sp.add_argument("--checkpoint", help="trained denoiser checkpoint (toy_checkpoint only)")
    toy, oracle = _DENOISER_FLAGS["toy_checkpoint"], _DENOISER_FLAGS["gaussian_oracle"]
    sp.add_argument(
        "--condition-id", type=int,
        help=f"full-granularity condition id for toy_checkpoint (default: {toy['condition_id']})",
    )
    sp.add_argument("--mu", type=float,
                    help=f"gaussian_oracle target mean (default: {oracle['mu']})")
    sp.add_argument("--sigma2", type=float,
                    help=f"gaussian_oracle target variance (default: {oracle['sigma2']})")
    sp.add_argument("--dim", type=int,
                    help=f"latent dimension for gaussian_oracle (default: {oracle['dim']})")
    _add_field_flags(sp, SamplerConfig, "override sampler.{name}")
    sp.add_argument("--output-dir", help="override the config's output_dir")
    sp.set_defaults(func=cmd_sample)

    sp = sub.add_parser("evaluate", help="score predictions against reference annotations",
                        description=EbConfig.__doc__)
    sp.add_argument("--truth", required=True, help="reference manifest (JSONL or TSV)")
    sp.add_argument("--pred", required=True, help="prediction manifest (JSONL or TSV)")
    _add_field_flags(sp, EbConfig, "{name} (default: {default:g})")
    sp.add_argument("--report", help="also write the report to this file")
    sp.set_defaults(func=cmd_evaluate)

    return parser


# parse_args leaves the parser unchanged, so one per process serves every call
_parser = functools.cache(build_parser)


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, RuntimeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
