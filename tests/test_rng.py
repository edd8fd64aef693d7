import subprocess
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lqmfg import rng

from conftest import cli_env


def test_same_address_same_stream():
    a = rng.substream(42, rng.TRAJECTORY, 3).standard_normal(8)
    b = rng.substream(42, rng.TRAJECTORY, 3).standard_normal(8)
    np.testing.assert_array_equal(a, b)


def test_distinct_addresses_distinct_streams():
    a = rng.substream(42, rng.TRAJECTORY, 3).standard_normal(8)
    b = rng.substream(42, rng.TRAJECTORY, 4).standard_normal(8)
    c = rng.substream(43, rng.TRAJECTORY, 3).standard_normal(8)
    d = rng.substream(42, rng.PERTURBATION, 3).standard_normal(8)
    assert not np.array_equal(a, b)
    assert not np.array_equal(a, c)
    assert not np.array_equal(a, d)



def seed_sequence_key(seed, path):
    """The Philox key ``rng.substream`` builds for the address, by numpy."""
    return np.random.SeedSequence(seed, spawn_key=tuple(path)).generate_state(2, np.uint64)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(
    seed=st.integers(0, 2**70),
    prefix=st.lists(st.integers(0, 2**33), max_size=3),
    last=st.lists(st.integers(0, 2**33), min_size=1, max_size=6),
)
@example(seed=2**64 + 3, prefix=[rng.PERTURBATION, 9], last=[399, 2**32, 0, 2**33, 2**32 - 1])
def test_vectorised_keys_are_the_seed_sequence_keys(seed, prefix, last):
    # seeds of up to three words and components of one or two, mixed in one
    # call: fails loudly if numpy ever changes SeedSequence's hashing
    keys = rng.substream_keys(seed, *prefix, last)
    assert keys.shape == (len(last), 2) and keys.dtype == np.uint64
    for i, key in zip(last, keys):
        np.testing.assert_array_equal(key, seed_sequence_key(seed, (*prefix, i)))


@pytest.mark.parametrize("seed", [0, 1, 43, 109, 2**32 + 5, 2**64 + 3])
def test_keys_of_every_learner_step(seed):
    for k in (0, 1, 9):
        keys = rng.substream_keys(seed, rng.PERTURBATION, k, range(400))
        expected = [seed_sequence_key(seed, (rng.PERTURBATION, k, i)) for i in range(400)]
        np.testing.assert_array_equal(keys, expected)


def test_a_keyed_philox_draws_the_substream():
    keys = rng.substream_keys(2**64 + 3, rng.PERTURBATION, 9, [0, 398, 2**32 + 1])
    for i, key in zip([0, 398, 2**32 + 1], keys):
        keyed = np.random.Generator(np.random.Philox(key=key))
        stream = rng.substream(2**64 + 3, rng.PERTURBATION, 9, i)
        np.testing.assert_array_equal(keyed.standard_normal(7), stream.standard_normal(7))


def test_a_learner_run_does_not_import_numpy_ma():
    # np.unique would import numpy.ma on a process's first keyed block,
    # inside the learner's timed run; the keys loop over the word counts
    code = (
        "import sys\n"
        "from lqmfg.config import default_config\n"
        "from lqmfg.learner import LearnerConfig, run\n"
        "c = default_config()\n"
        "run(c.game, c.grid, LearnerConfig(n_outer=1, n_inner=2, n_perturbations=2), [1.0], [3])\n"
        "print('numpy.ma' in sys.modules)\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], env=cli_env(), capture_output=True,
                          text=True, check=True)
    assert proc.stdout == "False\n"
