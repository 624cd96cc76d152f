"""YAML-backed run configuration.

One config file drives the whole pipeline: dataset seeding and pool
manifests (PipelineConfig, defined here), scene priors (scene.ScenePriors),
sampler settings (diffusion.SamplerConfig) and the planner endpoint
(planner.PlannerEndpoint).  Each section's keys, types, defaults and
checks are those of its frozen dataclass.  No secret lives in the
file: the planner names the environment variable that holds its token.
"""

from __future__ import annotations

import dataclasses
import functools
import sys
import typing
from collections.abc import Mapping
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from soundscene.diffusion import SamplerConfig, _is_int
from soundscene.planner import PlannerEndpoint
from soundscene.scene import ScenePriors

__all__ = ["ConfigError", "PipelineConfig", "load_config"]


@functools.cache
def _yaml_loader() -> type:
    """libyaml's safe loader when PyYAML was built with it, else the
    pure-Python one."""
    import yaml

    return getattr(yaml, "CSafeLoader", yaml.SafeLoader)


class ConfigError(ValueError):
    """Raised when a config file is malformed or inconsistent."""


@dataclass(frozen=True)
class PipelineConfig:
    dataset_seed: int = 0
    output_dir: str = "out"
    speech_manifest: str | None = None
    background_manifest: str | None = None
    priors: ScenePriors = field(default_factory=ScenePriors)
    sampler: SamplerConfig = field(default_factory=SamplerConfig)
    planner: PlannerEndpoint | None = None

    def __post_init__(self) -> None:
        if not _is_int(self.dataset_seed) or self.dataset_seed < 0:
            raise ConfigError(f"dataset_seed must be an integer >= 0, got {self.dataset_seed!r}")


@functools.cache
def field_types(cls: type) -> dict[str, Any]:
    """The resolved type of each field of the settings dataclass ``cls``."""
    return typing.get_type_hints(cls)


_SCALARS = {int: ((int,), "an integer"), float: ((int, float), "a finite number"),
            str: ((str,), "a string")}


def _value(where: str, tp: Any, value: Any) -> Any:
    """Check ``value`` against the field type ``tp`` and build it: an int fits a
    float field, a bool fits nothing and null fits only ``X | None``; a tuple
    field takes a YAML list, and a mapping's int keys may be ASCII-digit strings."""
    if dataclasses.is_dataclass(tp):
        return _section(tp, where, value)
    args = typing.get_args(tp)
    if type(None) in args:  # X | None
        return None if value is None else _value(where, args[0], value)
    origin = typing.get_origin(tp)
    if origin is tuple:
        if not isinstance(value, list) or len(value) != len(args):
            raise ConfigError(f"{where} must be a list of {len(args)} values, got {value!r}")
        return tuple(_value(f"{where}[{i}]", a, v) for i, (a, v) in enumerate(zip(args, value)))
    if origin is Mapping:
        if not isinstance(value, dict):
            raise ConfigError(f"{where} must be a mapping, got {value!r}")
        keys = [int(k) if isinstance(k, str) and k.isascii() and k.isdigit() else k for k in value]
        if len(set(keys)) < len(keys):
            raise ConfigError(f"{where} gives a key twice: {list(value)!r}")
        return {_value(f"{where} key", args[0], key): _value(f"{where}[{k!r}]", args[1], v)
                for key, (k, v) in zip(keys, value.items())}
    kinds, kind_name = _SCALARS[tp]
    fits = isinstance(value, kinds) and not isinstance(value, bool)
    # not math.isfinite, which overflows on a huge YAML integer
    if not fits or (tp is float and not abs(value) <= sys.float_info.max):
        raise ConfigError(f"{where} must be {kind_name}, got {value!r}")
    return value


def _section(cls: type, name: str, raw: Any) -> Any:
    """Build the dataclass ``cls`` from the mapping at ``name`` ("" for the root),
    checking keys and types against its fields and naming its own check failures."""
    if not isinstance(raw, dict):
        raise ConfigError(f"{name or 'config root'} must be a mapping, got {type(raw).__name__}")
    prefix = f"{name}." if name else ""
    hints = field_types(cls)
    unknown = sorted(str(k) for k in set(raw) - hints.keys())
    if unknown:
        raise ConfigError(f"unknown keys {[prefix + k for k in unknown]}")
    kwargs = {key: _value(prefix + key, hints[key], value) for key, value in raw.items()}
    try:
        return cls(**kwargs)
    except ValueError as exc:
        raise ConfigError(f"{prefix}{exc}") from exc


def config_from_dict(raw: dict[str, Any]) -> PipelineConfig:
    planner = raw.get("planner") if isinstance(raw, dict) else None
    if isinstance(planner, dict) and {"api_key", "token"} & set(planner):
        raise ConfigError("planner: store no token in the config; set api_key_env")
    return _section(PipelineConfig, "", raw)


def load_config(path: str | Path) -> PipelineConfig:
    """Parse a YAML config file into a PipelineConfig."""
    p = Path(path)
    try:
        text = p.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config {p}: {exc}") from exc
    import yaml  # on first use: only commands that read a config pay its import

    try:
        raw = yaml.load(text, Loader=_yaml_loader())
    except (yaml.YAMLError, ValueError) as exc:  # ValueError: a bad date, !!int or !!float
        raise ConfigError(f"{p}: invalid YAML: {exc}") from exc
    try:
        return config_from_dict({} if raw is None else raw)
    except ConfigError as exc:
        raise ConfigError(f"{p}: {exc}") from exc
