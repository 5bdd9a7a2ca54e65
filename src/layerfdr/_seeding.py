"""Many seeds' PCG64 generators at once, each equal to ``np.random.default_rng(seed)``.

``default_rng(seed)`` hashes the seed with numpy's ``SeedSequence`` into the
four 64-bit words ``generate_state(4, np.uint64)`` that seed its ``PCG64``.
``seed_words`` replays that hash for all seeds in one pass of uint32 array
arithmetic, and ``generators`` builds each generator straight from its words.

This module imports ``numpy.random`` at the top, so ``simgen`` imports it on
first use and ``import layerfdr`` does not load ``numpy.random``.
"""

from __future__ import annotations

import numpy as np
from numpy.random import PCG64, Generator, SeedSequence
from numpy.random.bit_generator import ISeedSequence

# numpy's SeedSequence hash constants (numpy/random/bit_generator.pyx)
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_MASK32 = 0xFFFFFFFF
_MASK64 = 2**64 - 1
#: the pool holds four 32-bit words, so seeds below this fill it without mixing more in
_POOL_SEEDS = 2**128


class _Words(ISeedSequence):
    """The seed words of one generator, handed to ``PCG64`` as its seed sequence."""

    __slots__ = ("words",)

    def __init__(self, words: np.ndarray):
        self.words = words

    def generate_state(self, n_words, dtype=np.uint32) -> np.ndarray:
        if n_words != 4 or dtype is not np.uint64:
            raise ValueError("the seed words answer PCG64's generate_state(4, np.uint64) only")
        return self.words


def _hash_consts(init: int, mult: int, count: int) -> np.ndarray:
    """The first ``count`` values of a hash constant, as a read-only uint32 column."""
    consts = [init]
    for _ in range(count - 1):
        consts.append(consts[-1] * mult & _MASK32)
    column = np.array(consts, dtype=np.uint32)[:, None]
    column.flags.writeable = False
    return column


# the j-th hashmix xors with _HASH_A[j] and multiplies by _HASH_A[j + 1];
# generate_state's hashes use _HASH_B alike
_HASH_A = _hash_consts(_INIT_A, _MULT_A, 17)
_HASH_B = _hash_consts(_INIT_B, _MULT_B, 9)


def _hash(entropy: np.ndarray) -> np.ndarray:
    """``SeedSequence`` words of each row of (R, 4) uint32 entropy, a seed's 32-bit
    digits low first: ``mix_entropy`` into a four-word pool, then
    ``generate_state(4, np.uint64)``, both as in numpy, with each step's
    independent hashes taken together as rows of one (k, R) array."""

    def hashmix(values: np.ndarray, j: int, k: int) -> np.ndarray:
        values = (values ^ _HASH_A[j : j + k]) * _HASH_A[j + 1 : j + k + 1]
        return values ^ values >> 16

    # a digit the seed lacks is 0, which numpy's padding hashes alike
    pool = hashmix(entropy.T, 0, 4)
    for src in range(4):
        # pool[src] is mixed into the other three words in turn, each with its own hash
        dst = [d for d in range(4) if d != src]
        mixed = _MIX_MULT_L * pool[dst] - _MIX_MULT_R * hashmix(pool[src], 4 + 3 * src, 3)
        pool[dst] = mixed ^ mixed >> 16
    # generate_state hashes eight 32-bit words cycling the pool and pairs them low first
    state = (np.tile(pool, (2, 1)) ^ _HASH_B[:-1]) * _HASH_B[1:]
    state = (state ^ state >> 16).astype(np.uint64)
    return (state[0::2] | state[1::2] << np.uint64(32)).T


def seed_words(seeds) -> np.ndarray:
    """``SeedSequence(seed).generate_state(4, np.uint64)`` of each seed, stacked (R, 4).

    Integer seeds in [0, 2**128) are hashed together; any other seed goes
    through numpy's own ``SeedSequence``, which accepts or refuses it.
    """
    seeds = list(seeds)
    words = np.empty((len(seeds), 4), dtype=np.uint64)
    rows, ints = [], []
    for r, seed in enumerate(seeds):
        if isinstance(seed, np.integer):
            seed = int(seed)
        if type(seed) is int and 0 <= seed < _POOL_SEEDS:
            rows.append(r)
            ints.append(seed)
        else:
            words[r] = SeedSequence(seed).generate_state(4, np.uint64)
    if rows:
        digits = np.array([(seed & _MASK64, seed >> 64) for seed in ints], dtype="<u8")
        words[rows] = _hash(digits.view("<u4"))
    return words


def generators(seeds) -> list:
    """One generator per seed, each in the state ``np.random.default_rng(seed)`` starts in."""
    return [Generator(PCG64(_Words(words))) for words in seed_words(seeds)]
