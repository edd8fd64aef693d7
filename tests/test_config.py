import dataclasses
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lqmfg import ConfigError, LearnerConfig, TimeGrid, load_config, save_config
from lqmfg.cli import EXIT_CONFIG, main
from lqmfg.config import (
    ExperimentConfig,
    apply_overrides,
    config_from_dict,
    config_to_dict,
    default_config,
)

from conftest import random_params


def test_round_trip(tmp_path):
    cfg = default_config()
    path = tmp_path / "config.json"
    save_config(cfg, str(path))
    assert load_config(str(path)) == cfg


# temperatures of 0 or at least 0.01: a positive one far smaller is a game
# the closed forms reject
@settings(max_examples=200, deadline=None, derandomize=True)
@given(
    st.integers(0, 2**32 - 1), st.integers(1, 500),
    st.builds(
        LearnerConfig, n_outer=st.integers(1, 50), n_inner=st.integers(0, 10**4),
        n_perturbations=st.integers(2, 500), radius=st.floats(1e-9, 1.0),
        step_size=st.floats(1e-9, 10.0), sigma_floor=st.floats(1e-12, 1.0),
    ),
    st.lists(st.just(0.0) | st.floats(0.01, 100.0), min_size=1, max_size=5, unique=True),
    st.integers(0, 2**70),
)
def test_every_config_round_trips_through_json(game_seed, n_steps, learner, sweep, seed):
    game = random_params(np.random.default_rng(game_seed))
    cfg = ExperimentConfig(
        game=game, grid=TimeGrid.from_horizon(game.T, n_steps), learner=learner,
        lambda_se_values=tuple(sweep), seed=seed,
    )
    assert config_from_dict(json.loads(json.dumps(config_to_dict(cfg)))) == cfg


def test_missing_required_field_names_it():
    data = config_to_dict(default_config())
    del data["game"]["A"]
    with pytest.raises(ConfigError, match="game.A"):
        config_from_dict(data)


def test_unknown_field_rejected():
    data = config_to_dict(default_config())
    data["game"]["Z"] = 1.0
    with pytest.raises(ConfigError, match="game.Z"):
        config_from_dict(data)
    data = config_to_dict(default_config())
    data["typo"] = 1
    with pytest.raises(ConfigError, match="typo"):
        config_from_dict(data)


def test_type_errors_name_the_field():
    data = config_to_dict(default_config())
    data["game"]["A"] = "fast"
    with pytest.raises(ConfigError, match="game.A"):
        config_from_dict(data)
    data = config_to_dict(default_config())
    data["grid"]["n_steps"] = 2.5
    with pytest.raises(ConfigError, match="grid.n_steps"):
        config_from_dict(data)
    data = config_to_dict(default_config())
    data["learner"]["n_perturbations"] = 8.0
    with pytest.raises(ConfigError, match="learner.n_perturbations"):
        config_from_dict(data)
    data = config_to_dict(default_config())
    data["learner"]["radius"] = "wide"
    with pytest.raises(ConfigError, match="learner.radius"):
        config_from_dict(data)
    # a section that is not an object is named, not iterated
    for section in ("game", "grid", "learner"):
        data = config_to_dict(default_config())
        apply_overrides(data, [f"{section}=5"])
        with pytest.raises(ConfigError, match=f"section {section} must be an object"):
            config_from_dict(data)


def test_model_invariants_surface_as_config_errors():
    data = config_to_dict(default_config())
    data["game"]["Q"] = -1.0
    with pytest.raises(ConfigError, match="Q"):
        config_from_dict(data)
    # every coefficient must be finite, whatever its sign constraint
    for name in ("A", "lambda_ce", "T", "xi_mean", "xi_second_moment"):
        for bad in (float("nan"), float("inf")):
            data = config_to_dict(default_config())
            data["game"][name] = bad
            with pytest.raises(ConfigError, match=f"game: {name} must be finite"):
                config_from_dict(data)
    data = config_to_dict(default_config())
    data["learner"]["sigma_floor"] = -1.0
    with pytest.raises(ConfigError, match="learner: radius, step_size and sigma_floor must be"):
        config_from_dict(data)


def test_lambda_sweep_validation():
    data = config_to_dict(default_config())
    data["lambda_se_values"] = []
    with pytest.raises(ConfigError, match="lambda_se_values"):
        config_from_dict(data)
    for bad in ([1.0, -2.0], [1.0, 1.0], [1.0, float("nan")], [1.0, float("inf")]):
        data["lambda_se_values"] = bad
        with pytest.raises(ConfigError, match=r"lambda_se_values\[1\]"):
            config_from_dict(data)
    # a config built in code gets the same checks
    for field, bad, message in (
        ("lambda_se_values", (1.0, 3.0, 1.0), r"lambda_se_values\[2\] repeats"),
        ("lambda_se_values", (), "lambda_se_values must be a nonempty list"),
        ("lambda_se_values", (1.0, -2.0), r"lambda_se_values\[1\] must be nonnegative"),
        ("lambda_se_values", (float("nan"),), r"lambda_se_values\[0\] must be finite"),
    ):
        with pytest.raises(ConfigError, match=message):
            dataclasses.replace(default_config(), **{field: bad})


def test_overrides_apply_and_validate():
    data = config_to_dict(default_config())
    apply_overrides(data, ["game.A=2.5", "learner.radius=0.02", "seed=9",
                           "lambda_se_values=[1.0]"])
    cfg = config_from_dict(data)
    assert cfg.game.A == 2.5
    assert cfg.learner.radius == 0.02
    assert cfg.seed == 9
    assert cfg.lambda_se_values == (1.0,)


def test_override_errors():
    data = config_to_dict(default_config())
    with pytest.raises(ConfigError, match="nonsense"):
        apply_overrides(data, ["nonsense"])
    # an unknown key is named by the schema walk, in the words it uses for a file's
    apply_overrides(data, ["game.zz=1"])
    with pytest.raises(ConfigError, match="unknown field game.zz"):
        config_from_dict(data)
    data = config_to_dict(default_config())
    with pytest.raises(ConfigError, match="section game.A must be an object, got 2.0"):
        apply_overrides(data, ["game.A.x=1"])
    apply_overrides(data, ["game.A=oops"])
    with pytest.raises(ConfigError, match="game.A"):
        config_from_dict(data)


def test_invalid_json_reports_path(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    with pytest.raises(ConfigError, match="broken.json"):
        load_config(str(path))
    # bytes that are not UTF-8 died with a UnicodeDecodeError traceback
    path.write_bytes(b"\xff\xfe")
    with pytest.raises(ConfigError, match="invalid JSON in config .*broken.json"):
        load_config(str(path))
    with pytest.raises(ConfigError, match="missing.json"):
        load_config(str(tmp_path / "missing.json"))


def test_saved_file_is_plain_json(tmp_path):
    path = tmp_path / "config.json"
    save_config(default_config(), str(path))
    data = json.loads(path.read_text())
    assert data["game"]["B"] == 3.0
    assert data["learner"] == {
        "n_outer": 10, "n_inner": 400, "n_perturbations": 50, "radius": 0.01,
        "step_size": 0.05, "sigma_floor": 1e-6,
    }


@pytest.mark.parametrize("key, value", [
    ("initial_mean_field", 0.3), ("init", {"m_hat_mean": 1.0}),
])
def test_a_removed_learner_key_is_rejected(tmp_path, capsys, key, value):
    # the first-round draw and the first mean path are fixed, not settable;
    # a config file that still sets them, or an override, exits 2 naming the key
    data = config_to_dict(default_config())
    data["learner"][key] = value
    path = tmp_path / "old.json"
    path.write_text(json.dumps(data))
    with pytest.raises(ConfigError, match=f"unknown field learner.{key}"):
        load_config(str(path))
    override = "learner.init.m_hat_mean=1" if key == "init" else f"learner.{key}={value}"
    for argv in (("--config", str(path)), ("--set", override)):
        assert main(["solve", *argv]) == EXIT_CONFIG, argv
        captured = capsys.readouterr()
        assert f"learner.{key}" in captured.err and captured.out == "", argv
