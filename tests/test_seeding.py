import numpy as np
import pytest

from addcoal import seeding
from addcoal.seeding import make_rng, splitmix64, substream_bits, substream_rng, substream_seed


def test_splitmix64_is_64_bit():
    for z in (0, 1, 2**63, 2**64 - 1, 123456789):
        out = splitmix64(z)
        assert 0 <= out < 2**64


def test_substream_seeds_distinct():
    seeds = {substream_seed(42, i) for i in range(10_000)}
    assert len(seeds) == 10_000


def test_substream_seeds_differ_across_masters():
    a = [substream_seed(1, i) for i in range(100)]
    b = [substream_seed(2, i) for i in range(100)]
    assert not set(a) & set(b)


def test_substream_rejects_negative_index():
    with pytest.raises(ValueError):
        substream_seed(0, -1)
    with pytest.raises(ValueError):
        substream_rng(0, -1)
    with pytest.raises(ValueError):
        substream_bits(0, range(-1, 3))
    with pytest.raises(ValueError):
        substream_bits(0, range(0, 6, 2))


def test_substream_bits_of_an_empty_range():
    assert substream_bits(0, range(0)) == []
    assert substream_bits(7, range(4096, 4096)) == []


def test_rng_reproducible():
    x = make_rng(7).random(16)
    y = make_rng(7).random(16)
    assert np.array_equal(x, y)
    z = substream_rng(7, 3).random(16)
    w = substream_rng(7, 3).random(16)
    assert np.array_equal(z, w)
    assert not np.array_equal(x, z)


@pytest.mark.parametrize("master", [0, 1, 7, -1, 2**63 + 5, 2**64 - 1, 2**64 + 3])
def test_substream_rng_matches_scalar_reference(master):
    # both sides of the first block boundary, a later block and a far one
    for index in (0, 1, 4095, 4096, 4097, 3 * 4096 + 7, 2**40):
        state = substream_rng(master, index).bit_generator.state
        assert state == np.random.PCG64(substream_seed(master, index)).state, index


@pytest.mark.parametrize("master", [0, 7, 2**63 + 5, 2**64 - 1])
def test_substream_bits_match_scalar_reference(master):
    # indices 4090..4101 cross the first `_block_states` block
    indices = range(4090, 4102)
    bits = substream_bits(master, indices)
    assert len(bits) == len(indices)
    for bit, index in zip(bits, indices):
        assert isinstance(bit, np.random.PCG64)
        assert bit.state == np.random.PCG64(substream_seed(master, index)).state, index


def test_block_hash_matches_seed_sequence():
    seeds = np.concatenate([
        np.array([0, 1, 2**32 - 1, 2**32, 2**64 - 1], dtype=np.uint64),
        np.random.default_rng(2024).integers(0, 2**64, size=10_000, dtype=np.uint64)])
    want = np.array([np.random.SeedSequence(int(s)).generate_state(4, np.uint64)
                     for s in seeds])
    assert np.array_equal(seeding._seed_sequence_states(seeds), want)


def test_block_states_are_read_only():
    with pytest.raises(ValueError):
        seeding._block_states(5, 0)[0, 0] = 1


@pytest.mark.parametrize("n_words, dtype", [(4, np.uint32), (2, np.uint64), (8, np.uint32),
                                            (3, np.uint64), (4, np.int64)])
def test_state_hand_off_only_serves_pcg64_words(n_words, dtype):
    words = seeding._block_states(0, 0)[0]
    assert seeding._State(words).generate_state(4, np.uint64) is words
    with pytest.raises(ValueError):
        seeding._State(words).generate_state(n_words, dtype)
