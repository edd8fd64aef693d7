"""Counter-based random substreams.

Every stochastic routine takes its randomness from a substream addressed by
(master_seed, *path) where path is a tuple of small integers identifying the
consumer (e.g. trajectory index, outer/inner iteration). Substreams are
mutually independent and depend only on their address, so pre-assigning them
makes results independent of evaluation order and parallelism.
"""

from __future__ import annotations

import numpy as np

# Purpose codes used as the first path component by the library's consumers.
TRAJECTORY = 1
INITIAL_POLICY = 2
PERTURBATION = 3


def substream(master_seed: int, *path: int) -> np.random.Generator:
    """Independent generator for the given address.

    Built on Philox (counter-based) keyed through a SeedSequence spawn key,
    so any two distinct (master_seed, path) addresses give independent
    streams and the same address always gives the same stream.
    """
    seq = np.random.SeedSequence(entropy=int(master_seed), spawn_key=tuple(int(p) for p in path))
    return np.random.Generator(np.random.Philox(seed=seq))

