"""Deterministic seeding for replicated runs.

Every replication owns an independent PCG64 stream whose seed is derived
from (master seed, replication index) by a splitmix64-style integer hash.
This keeps runs reproducible for a fixed master seed while letting
replications execute in any order or degree of parallelism.

`substream_seed`, `splitmix64` and `make_rng` are the scalar reference:
the substream of index i is `PCG64(substream_seed(master, i))`.
`substream_bits` builds exactly those bit generators for a range of
indices without a `np.random.SeedSequence` per index, and without a
`np.random.Generator`: callers that only read raw words never need one,
and the others wrap a bit generator in a Generator where they call a
numpy distribution method (`substream_rng` does so for one index).  The
generator stays numpy's PCG64.  PCG64 takes its four state words from
`SeedSequence(seed).generate_state(4, np.uint64)`, and that hash is fixed
uint32 arithmetic on the seed's two 32-bit halves.  So `_block_states`
hashes the seeds of a block of `BLOCK` consecutive indices in one numpy
pass (splitmix64 in wrapping uint64, then SeedSequence's entropy mixing
and output hash in wrapping uint32), and `_State`, a minimal
`ISeedSequence`, hands one row of words to `PCG64`.  Every substream's
state is bit-identical to `PCG64(substream_seed(master, i))`.
"""

import functools

import numpy as np
from numpy.random.bit_generator import ISeedSequence

_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15  # golden-ratio increment, the usual splitmix64 stride

BLOCK = 4096  # substream indices hashed per `_block_states` call

# numpy's SeedSequence constants (pool of four uint32 words)
_INIT_A = 0x43B0D7E5
_MULT_A = 0x931E8875
_INIT_B = 0x8B51F9DD
_MULT_B = 0x58F38DED
_MIX_MULT_L = 0xCA01F9DD
_MIX_MULT_R = 0x4973F715
_POOL = 4


def splitmix64(z: int) -> int:
    """One splitmix64 finalization round of a 64-bit value."""
    z &= _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (z ^ (z >> 31)) & _MASK64


def substream_seed(master_seed: int, index: int) -> int:
    """Seed of the `index`-th substream of a master seed.

    Two hash rounds over master + (index+1) * gamma; indices as far apart
    as 2**32 stay decorrelated and distinct in practice.
    """
    if index < 0:
        raise ValueError("substream index must be >= 0")
    z = (master_seed + (index + 1) * _GAMMA) & _MASK64
    return splitmix64(splitmix64(z))


def make_rng(seed: int) -> np.random.Generator:
    """PCG64 generator for a 64-bit seed."""
    return np.random.Generator(np.random.PCG64(seed & _MASK64))


def _splitmix64_array(z: np.ndarray) -> np.ndarray:
    """`splitmix64` of each element of a uint64 array (wrapping arithmetic)."""
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return z ^ (z >> np.uint64(31))


def _seed_sequence_states(seeds: np.ndarray) -> np.ndarray:
    """`SeedSequence(s).generate_state(4, np.uint64)` for each uint64 seed s.

    Rows of a (len(seeds), 4) uint64 array.  A seed's entropy is its low
    and high 32-bit words (a seed below 2**32 has one word, which equals a
    zero high word here), padded with zeros to the pool of four.
    """
    entropy = [(seeds & np.uint64(0xFFFFFFFF)).astype(np.uint32),
               (seeds >> np.uint64(32)).astype(np.uint32)]
    entropy += [np.zeros_like(entropy[0])] * (_POOL - len(entropy))
    hash_const = _INIT_A

    def hashmix(value):
        nonlocal hash_const
        value = value ^ np.uint32(hash_const)
        hash_const = (hash_const * _MULT_A) & 0xFFFFFFFF
        value = value * np.uint32(hash_const)
        return value ^ (value >> np.uint32(16))

    def mix(x, y):
        result = np.uint32(_MIX_MULT_L) * x - np.uint32(_MIX_MULT_R) * y
        return result ^ (result >> np.uint32(16))

    pool = [hashmix(word) for word in entropy]
    for src in range(_POOL):
        for dst in range(_POOL):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    out = np.empty((len(seeds), 2 * _POOL), dtype=np.uint32)
    hash_const = _INIT_B
    for i in range(2 * _POOL):
        value = pool[i % _POOL] ^ np.uint32(hash_const)
        hash_const = (hash_const * _MULT_B) & 0xFFFFFFFF
        value = value * np.uint32(hash_const)
        out[:, i] = value ^ (value >> np.uint32(16))
    # consecutive uint32 words pair into one uint64, low word first, as in SeedSequence
    return out.astype("<u4", copy=False).view("<u8").astype(np.uint64, copy=False)


@functools.lru_cache(maxsize=8)
def _block_states(master_seed: int, block: int) -> np.ndarray:
    """PCG64 seed words of substreams block*BLOCK .. block*BLOCK + BLOCK - 1.

    A read-only (BLOCK, 4) uint64 array; row j equals
    `SeedSequence(substream_seed(master_seed, block*BLOCK + j)).generate_state(4, np.uint64)`.
    """
    base = (master_seed + (block * BLOCK + 1) * _GAMMA) & _MASK64
    with np.errstate(over="ignore"):
        z = np.uint64(base) + np.arange(BLOCK, dtype=np.uint64) * np.uint64(_GAMMA)
        states = _seed_sequence_states(_splitmix64_array(_splitmix64_array(z)))
    states.flags.writeable = False
    return states


class _State(ISeedSequence):
    """Seed sequence that hands PCG64 one precomputed row of state words."""

    def __init__(self, words: np.ndarray):
        self.words = words

    def generate_state(self, n_words, dtype=np.uint32):
        if n_words != 4 or np.dtype(dtype) != np.uint64:
            raise ValueError("a substream state holds exactly 4 uint64 words")
        return self.words


def substream_bits(master_seed: int, indices: range) -> list:
    """PCG64 bit generators of the substreams indices.start .. indices.stop - 1,
    in order: item j equals `PCG64(substream_seed(master_seed, indices.start + j))`.

    Each is seeded from its `_block_states` row; no Generator is built.
    """
    start, stop = indices.start, max(indices.start, indices.stop)
    if start < 0:
        raise ValueError("substream index must be >= 0")
    if indices.step != 1:
        raise ValueError("substreams are taken from a range of step 1")
    bits = []
    for block in range(start // BLOCK, (stop + BLOCK - 1) // BLOCK):
        base = block * BLOCK
        rows = _block_states(master_seed, block)[max(start - base, 0):stop - base]
        bits += [np.random.PCG64(_State(words)) for words in rows]
    return bits


def substream_rng(master_seed: int, index: int) -> np.random.Generator:
    """Generator of the `index`-th substream: `make_rng(substream_seed(master_seed, index))`."""
    return np.random.Generator(substream_bits(master_seed, range(index, index + 1))[0])
