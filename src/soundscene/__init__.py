"""Structured audio-scene tooling: a timing-aware prompt DSL, phoneme
tokenization, scene simulation, progressively guided diffusion sampling,
and event-based evaluation.

The package exports each library module's ``__all__``; the command line
(``soundscene.cli``) is not part of it."""

from soundscene import (
    audio, config, demo, diffusion, dsl, manifest, phonemes, planner, scene, sed, toytrain,
)
from soundscene.audio import *  # noqa: F403
from soundscene.config import *  # noqa: F403
from soundscene.demo import *  # noqa: F403
from soundscene.diffusion import *  # noqa: F403
from soundscene.dsl import *  # noqa: F403
from soundscene.manifest import *  # noqa: F403
from soundscene.phonemes import *  # noqa: F403
from soundscene.planner import *  # noqa: F403
from soundscene.scene import *  # noqa: F403
from soundscene.sed import *  # noqa: F403
from soundscene.toytrain import *  # noqa: F403

__version__ = "0.1.0"

__all__ = [
    *audio.__all__,
    *config.__all__,
    *demo.__all__,
    *diffusion.__all__,
    *dsl.__all__,
    *manifest.__all__,
    *phonemes.__all__,
    *planner.__all__,
    *scene.__all__,
    *sed.__all__,
    *toytrain.__all__,
    "__version__",
]
