"""Experiment configuration: one JSON tree with dotted-key overrides.

The schema mirrors the dataclasses it builds: a ``game`` section
(GameParams), ``grid`` (n_steps; the step is T / n_steps) and ``learner``
(LearnerConfig), each a flat object of numbers, then the temperature
sweep and the seed. Every field is required, and validation errors name the
offending dotted key. The output directory is not a setting: the CLI's
``--out-dir`` passes it to ``harness.reproduce``.
"""

from __future__ import annotations

import functools
import json
from dataclasses import asdict, dataclass, fields, replace
from typing import get_type_hints

from .learner import LearnerConfig
from .params import REFERENCE_MODEL, GameParams, ParameterError, TimeGrid


class ConfigError(ValueError):
    """Configuration file or override rejected; the message names the key."""


@dataclass(frozen=True)
class ExperimentConfig:
    game: GameParams
    grid: TimeGrid
    learner: LearnerConfig
    lambda_se_values: tuple
    seed: int

    def __post_init__(self):
        if not self.lambda_se_values:
            raise ConfigError("field lambda_se_values must be a nonempty list")
        for i, v in enumerate(self.lambda_se_values):
            # each value must make a valid game, as the harness builds one per arm
            try:
                replace(self.game, lambda_se=v)
            except ParameterError as exc:
                raise ConfigError(
                    "field " + str(exc).replace("lambda_se", f"lambda_se_values[{i}]")
                ) from None
            # each arm's report lookup is keyed by its value
            if v in self.lambda_se_values[:i]:
                raise ConfigError(f"field lambda_se_values[{i}] repeats an earlier value")
        # numpy's SeedSequence, which every substream starts from, takes no sign
        if self.seed < 0:
            raise ConfigError("field seed must be nonnegative")


def default_config() -> ExperimentConfig:
    """Built-in reference configuration (the reported experiment)."""
    game = GameParams(**REFERENCE_MODEL)
    return ExperimentConfig(
        game=game,
        grid=TimeGrid.from_horizon(game.T, 5),
        learner=LearnerConfig(),
        lambda_se_values=(0.0, 1.0, 3.0),
        seed=0,
    )


@functools.cache
def _schema(cls) -> dict:
    """Field name -> type of a dataclass, in declaration order."""
    hints = get_type_hints(cls)
    return {f.name: hints[f.name] for f in fields(cls)}


def config_to_dict(cfg: ExperimentConfig) -> dict:
    return {
        "game": asdict(cfg.game),
        "grid": {"n_steps": cfg.grid.n_steps},
        "learner": asdict(cfg.learner),
        "lambda_se_values": list(cfg.lambda_se_values),
        "seed": cfg.seed,
    }


def _need(section: dict, key: str, where: str):
    if key not in section:
        raise ConfigError(f"missing required field {where}{key}")
    return section[key]


def _number(value, where: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"field {where} must be a number, got {value!r}")
    return float(value)


def _numbers(value, where: str) -> tuple:
    if not isinstance(value, list):
        raise ConfigError(f"field {where} must be a list of numbers, got {value!r}")
    return tuple(_number(v, f"{where}[{i}]") for i, v in enumerate(value))


def _integer(value, where: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"field {where} must be an integer, got {value!r}")
    return value


_PARSERS = {float: _number, int: _integer}


def _check_section(section, allowed, where: str) -> None:
    """The section is a JSON object of allowed keys; ``where`` ends in a dot."""
    if not isinstance(section, dict):
        raise ConfigError(f"section {where[:-1]} must be an object, got {section!r}")
    for key in section:
        if key not in allowed:
            raise ConfigError(f"unknown field {where}{key}")


def _build(cls, section, where: str):
    """The dataclass ``cls`` from its section, every field type-checked and
    required."""
    schema = _schema(cls)
    _check_section(section, schema, where)
    kwargs = {
        name: _PARSERS[kind](_need(section, name, where), f"{where}{name}")
        for name, kind in schema.items()
    }
    try:
        return cls(**kwargs)
    except ParameterError as exc:
        raise ConfigError(f"{where[:-1]}: {exc}") from exc


def config_from_dict(data: dict) -> ExperimentConfig:
    if not isinstance(data, dict):
        raise ConfigError("configuration root must be an object")
    _check_section(data, _schema(ExperimentConfig), "")
    game = _build(GameParams, _need(data, "game", ""), "game.")

    grid_sec = _need(data, "grid", "")
    _check_section(grid_sec, ("n_steps",), "grid.")
    n_steps = _integer(_need(grid_sec, "n_steps", "grid."), "grid.n_steps")
    try:
        grid = TimeGrid.from_horizon(game.T, n_steps)
    except ParameterError as exc:
        raise ConfigError(f"grid: {exc}") from exc

    learner = _build(LearnerConfig, _need(data, "learner", ""), "learner.")
    return ExperimentConfig(
        game=game,
        grid=grid,
        learner=learner,
        lambda_se_values=_numbers(_need(data, "lambda_se_values", ""), "lambda_se_values"),
        seed=_integer(_need(data, "seed", ""), "seed"),
    )


def load_config(path: str) -> ExperimentConfig:
    try:
        with open(path) as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"invalid JSON in {path}: {exc}") from exc
    return config_from_dict(data)


def save_config(cfg: ExperimentConfig, path: str) -> None:
    from .harness import staged

    with staged(path) as fh:
        json.dump(config_to_dict(cfg), fh, indent=2)
        fh.write("\n")


def apply_overrides(data: dict, overrides) -> dict:
    """Apply dotted-key overrides (``game.A=2.5``) to a config tree.

    Values parse as JSON when possible and as raw strings otherwise; the
    resulting tree still goes through full schema validation.
    """
    for item in overrides:
        if "=" not in item:
            raise ConfigError(f"override {item!r} is not of the form key=value")
        key, raw = item.split("=", 1)
        try:
            value = json.loads(raw)
        except json.JSONDecodeError:
            value = raw
        node = data
        parts = key.split(".")
        for part in parts[:-1]:
            if not isinstance(node.get(part), dict):
                raise ConfigError(f"unknown config section {part!r} in override {key!r}")
            node = node[part]
        if parts[-1] not in node:
            raise ConfigError(f"unknown config field {key!r}")
        node[parts[-1]] = value
    return data
