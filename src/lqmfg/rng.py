"""Counter-based random substreams.

Every stochastic routine takes its randomness from a substream addressed by
(master_seed, *path) where path is a tuple of small integers identifying the
consumer (e.g. trajectory index, outer/inner iteration). Substreams are
mutually independent and depend only on their address, so pre-assigning them
makes results independent of evaluation order and parallelism.

``substream`` is the one definition of an address. ``substream_keys`` gives
its Philox keys for many addresses at once by SeedSequence's published
mixing (NEP 19 keeps it stable), so a hot loop can re-key one Philox.
"""

from __future__ import annotations

import numpy as np

# Purpose codes used as the first path component by the library's consumers.
TRAJECTORY = 1
INITIAL_POLICY = 2
PERTURBATION = 3

# numpy.random.SeedSequence's hash constants
_MASK, _INIT_A, _MULT_A = 0xFFFFFFFF, 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED


def substream(master_seed: int, *path: int) -> np.random.Generator:
    """Independent generator for the given address.

    Built on Philox (counter-based) keyed through a SeedSequence spawn key,
    so any two distinct (master_seed, path) addresses give independent
    streams and the same address always gives the same stream.
    """
    seq = np.random.SeedSequence(entropy=int(master_seed), spawn_key=tuple(int(p) for p in path))
    return np.random.Generator(np.random.Philox(seed=seq))


def _hash(value, const: int, mult: int):
    """SeedSequence's hashmix of a uint32 word or array, and the next constant."""
    following = const * mult & _MASK
    value = (value ^ const) * following & _MASK
    return value ^ value >> 16, following


def substream_keys(master_seed: int, *path) -> np.ndarray:
    """Philox keys, (len(last), 2) uint64, of ``substream(master_seed, *prefix,
    i)`` for each i of the array ``last = path[-1]``: a Philox so keyed, at
    counter 0, draws what that substream draws. The prefix is hashed once, by
    SeedSequence; the last words are mixed in elementwise, one pass per count."""
    *prefix, last = path
    seq = np.random.SeedSequence(int(master_seed), spawn_key=tuple(int(p) for p in prefix))
    words = [max(1, -(-int(v).bit_length() // 32)) for v in (master_seed, *prefix)]
    # hashmix calls so far: 4 to fill the pool, 12 to mix it, 4 per further word
    start = _INIT_A * pow(_MULT_A, 4 * (max(4, words[0]) + sum(words[1:])), 1 << 32) & _MASK
    last = np.asarray(last, dtype=np.uint64).reshape(-1)
    n_words, state = 1 + (last > _MASK), np.empty((len(last), 4), dtype=np.uint64)
    for count in (1, 2):
        group, pool, const = n_words == count, [int(w) for w in seq.pool], start
        if not group.any():
            continue
        for j in range(count):
            word = (last[group] >> np.uint64(32 * j) & np.uint64(_MASK)).astype(np.uint32)
            for dst in range(4):
                hashed, const = _hash(word, const, _MULT_A)
                mixed = ((0xCA01F9DD * pool[dst] & _MASK) - (0x4973F715 * hashed & _MASK)) & _MASK
                pool[dst] = mixed ^ mixed >> 16
        const = _INIT_B
        for j in range(4):
            state[group, j], const = _hash(pool[j], const, _MULT_B)
    return state[:, 0::2] | state[:, 1::2] << np.uint64(32)
