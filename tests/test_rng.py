import numpy as np

from lqmfg import rng


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

