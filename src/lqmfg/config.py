"""Experiment configuration: one JSON tree with dotted-key overrides.

The schema is the dataclasses the tree builds, read from their fields and
type hints in one walk: a ``game`` section (GameParams), ``grid``
(``n_steps`` alone; the step is game.T / n_steps) and ``learner``
(LearnerConfig), each a flat object of numbers, then the temperature sweep
and the seed. Every field is required, and an error names the dotted key: a
key the schema lacks is an "unknown field", whether it comes from a file or
from an override. Overrides only write values into the tree, in order, so
a later one wins; the tree is validated once, after the last. The output
directory is not a setting: the CLI's ``--out-dir`` passes it to
``harness.reproduce``.
"""

from __future__ import annotations

import functools
import json
from dataclasses import asdict, dataclass, fields, is_dataclass, replace
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
    """Field name -> type of a dataclass, in declaration order. A TimeGrid
    is set by its n_steps alone; _build takes its horizon from game.T."""
    if cls is TimeGrid:
        return {"n_steps": int}
    hints = get_type_hints(cls)
    return {f.name: hints[f.name] for f in fields(cls)}


def config_to_dict(cfg: ExperimentConfig) -> dict:
    return {**asdict(cfg), "grid": {"n_steps": cfg.grid.n_steps}}


def _number(value, where: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"field {where} must be a number, got {value!r}")
    return float(value)


def _numbers(value, where: str) -> tuple:
    if not isinstance(value, (list, tuple)):
        raise ConfigError(f"field {where} must be a list of numbers, got {value!r}")
    return tuple(_number(v, f"{where}[{i}]") for i, v in enumerate(value))


def _integer(value, where: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"field {where} must be an integer, got {value!r}")
    return value


_PARSERS = {float: _number, int: _integer, tuple: _numbers}


def _object(node, where: str) -> dict:
    """``node``, a JSON object; ``where`` is its dotted key, empty at the root."""
    if not isinstance(node, dict):
        name = f"section {where}" if where else "configuration root"
        raise ConfigError(f"{name} must be an object, got {node!r}")
    return node


def _build(cls, section, where: str = "", outer=None):
    """The dataclass ``cls`` from its section, every field type-checked and
    required. ``where`` is the section's dotted prefix, ending in a dot
    below the root; ``outer`` holds the enclosing section's fields built so
    far, of which a TimeGrid reads game."""
    _object(section, where[:-1])
    schema = _schema(cls)
    for key in section:
        if key not in schema:
            raise ConfigError(f"unknown field {where}{key}")
    kwargs = {}
    for name, kind in schema.items():
        if name not in section:
            raise ConfigError(f"missing required field {where}{name}")
        value, key = section[name], where + name
        if is_dataclass(kind):
            kwargs[name] = _build(kind, value, key + ".", kwargs)
        else:
            kwargs[name] = _PARSERS[kind](value, key)
    try:
        if cls is TimeGrid:
            return TimeGrid.from_horizon(outer["game"].T, **kwargs)
        return cls(**kwargs)
    except ParameterError as exc:
        raise ConfigError(f"{where[:-1]}: {exc}") from exc


def config_from_dict(data: dict) -> ExperimentConfig:
    return _build(ExperimentConfig, data)


def read_json(path: str, what: str):
    """The JSON value in the file at ``path``, a ``what`` named in the
    ConfigError raised when it cannot be read or parsed."""
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read {what} {path}: {exc}") from exc
    except ValueError as exc:  # malformed JSON, or bytes that are not UTF-8
        raise ConfigError(f"invalid JSON in {what} {path}: {exc}") from exc


def load_config(path: str) -> ExperimentConfig:
    return config_from_dict(read_json(path, "config"))


def save_config(cfg: ExperimentConfig, path: str) -> None:
    from .harness import staged

    with staged(path) as fh:
        json.dump(config_to_dict(cfg), fh, indent=2)
        fh.write("\n")


def apply_overrides(data: dict, overrides) -> dict:
    """Write dotted-key overrides (``game.A=2.5``) into a config tree, in
    order, so that a later one wins.

    Values parse as JSON when possible and as raw strings otherwise. Keys
    are not checked here: config_from_dict names one the schema lacks.
    """
    for item in overrides:
        if "=" not in item:
            raise ConfigError(f"override {item!r} is not of the form key=value")
        key, raw = item.split("=", 1)
        try:
            value = json.loads(raw)
        except json.JSONDecodeError:
            value = raw
        *path, name = key.split(".")
        node = _object(data, "")
        for depth, part in enumerate(path, 1):
            node = _object(node.setdefault(part, {}), ".".join(path[:depth]))
        node[name] = value
    return data
