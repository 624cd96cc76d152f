"""Structured audio-scene tooling: a timing-aware prompt DSL, phoneme
tokenization, scene simulation, progressively guided diffusion sampling,
and event-based evaluation.

Import each public name from its own module (``from soundscene.dsl import
parse``); the package itself re-exports nothing, so the text layer
(``dsl``, ``manifest``, ``phonemes``) imports with the standard library
alone."""

__version__ = "0.1.0"
