import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from collisim import walks as W
from collisim.rngs import substream
import oracles
from oracles import rw_transition


def test_empty_walk():
    path = W.sample_walk(0, substream(1, 0))
    assert path.horizon == 0
    assert list(path.positions) == [0]


def test_same_seed_same_path():
    a = W.sample_walk(100, substream(42, 7))
    b = W.sample_walk(100, substream(42, 7))
    assert np.array_equal(a.positions, b.positions)


def test_replica_stream_is_pure_function():
    # a block of walks is a pure function of its (seed, purpose, chunk) key
    a = oracles.first_return_times(200, 64, substream(9, 1, 3))
    b = oracles.first_return_times(200, 64, substream(9, 1, 3))
    c = oracles.first_return_times(200, 64, substream(9, 1, 4))
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


@given(st.integers(min_value=1, max_value=200), st.integers(min_value=0, max_value=2**32))
@settings(max_examples=25, deadline=None)
def test_walk_invariants(horizon, seed):
    path = W.sample_walk(horizon, substream(seed, 0))
    steps = np.diff(path.positions)
    assert path.positions[0] == 0
    assert set(np.unique(steps)) <= {-1, 1}
    # n and S_n share parity
    idx = np.arange(horizon + 1)
    assert np.all((idx + path.positions) % 2 == 0)


@pytest.mark.parametrize("lead", [(7,), (13, 3), (1,)])
@pytest.mark.parametrize("horizon", [1, 5, 8, 17, 1024, 63, 64, 65, 127, 129, 513])
def test_walk_positions_match_integer_steps(lead, horizon):
    # the kernel reads the top bit of each raw byte; integers(0, 2, int8)
    # draws the same bit, so the positions agree bit for bit (also where the
    # step count is not a multiple of the 8 steps in a word). The stream is
    # summed in groups of 64 steps: one walk's stream ends one short of, at
    # and one past a group boundary, and several walks end inside groups
    got = W.walk_positions(substream(5, 1, horizon), lead, horizon)
    steps = substream(5, 1, horizon).integers(0, 2, size=lead + (horizon,), dtype=np.int8)
    want = W.positions_from_steps(steps * 2 - 1)
    assert got.shape == want.shape
    assert got.dtype == np.int16
    assert np.array_equal(got, want)


@given(st.integers(min_value=1, max_value=200),
       st.lists(st.integers(min_value=1, max_value=9), max_size=4),
       st.integers(min_value=1, max_value=20),
       st.sampled_from([(), (2,), (3,)]),
       st.integers(min_value=0, max_value=2**32))
@settings(max_examples=60, deadline=None)
def test_walk_positions_blocks_concatenate(horizon, eights, last, shape, seed):
    # blocks of a multiple of 8 walks (times the shape) cover a multiple of 8
    # steps, so drawing them one after another from one stream reproduces a
    # single call; the last block is any size, and a block may end inside
    # one of the kernel's 64-step groups
    sizes = [8 * e for e in eights] + [last]
    rng = substream(seed, 1)
    blocks = [W.walk_positions(rng, (size,) + shape, horizon) for size in sizes]
    whole = W.walk_positions(substream(seed, 1), (sum(sizes),) + shape, horizon)
    assert np.concatenate(blocks).tobytes() == whole.tobytes()


@pytest.mark.parametrize("lead, horizon", [((3,), 0), ((0,), 5), ((2, 0), 4), ((), 0)])
def test_walk_positions_with_no_steps_draw_nothing(lead, horizon):
    # zero walks or a zero horizon: an empty array, and the stream is
    # untouched, so its next words are those of a fresh one
    rng = substream(11, 1)
    got = W.walk_positions(rng, lead, horizon)
    assert got.shape == lead + (horizon,) and got.dtype == np.int16
    fresh = substream(11, 1).bit_generator.random_raw(4)
    assert np.array_equal(rng.bit_generator.random_raw(4), fresh)


class _ConstantBits:
    """A bit generator whose every raw word is the given one."""

    def __init__(self, word):
        self.word = word

    def random_raw(self, size):
        return np.full(size, self.word, dtype=np.uint64)


class _ConstantRng:
    def __init__(self, word):
        self.bit_generator = _ConstantBits(word)


@pytest.mark.parametrize("horizon, dtype", [(32767, np.int16), (32768, np.int32)])
def test_walk_positions_reach_the_horizon_without_wrapping(horizon, dtype):
    # every raw bit set: every step is +1, so S_n = n up to the int16 limit
    got = W.walk_positions(_ConstantRng(2**64 - 1), (3,), horizon)
    assert got.dtype == dtype
    assert np.array_equal(got, np.broadcast_to(np.arange(1, horizon + 1), (3, horizon)))


@pytest.mark.parametrize("horizon, dtype", [(32767, np.int16), (32768, np.int32)])
def test_walk_positions_fall_to_minus_the_horizon_without_wrapping(horizon, dtype):
    # every raw bit clear: every step is -1, so S_n = -n; each word moves the
    # stream by -8 and each group by -64, the lowest byte values
    got = W.walk_positions(_ConstantRng(0), (3,), horizon)
    assert got.dtype == dtype
    assert np.array_equal(got, np.broadcast_to(-np.arange(1, horizon + 1), (3, horizon)))


def test_enumerate_paths_small():
    pos, prob = oracles.enumerate_paths(1)
    assert prob == 0.5
    assert sorted(p[1] for p in pos) == [-1, 1]
    pos, prob = oracles.enumerate_paths(2)
    assert len(pos) == 4
    assert prob * len(pos) == 1.0
    # marginal P(S_2 = 0) from enumeration
    assert sum(prob for p in pos if p[2] == 0) == 0.5


def test_enumeration_cap():
    with pytest.raises(oracles.HorizonTooLarge):
        oracles.enumerate_paths(21)


@pytest.mark.parametrize("i", [1, 2, 3, 5, 8])
def test_enumeration_marginals_match_transition(i):
    pos, prob = oracles.enumerate_paths(i)
    for x in range(-i, i + 1):
        marginal = sum(prob for p in pos if p[i] == x)
        assert marginal == rw_transition(i, x)


def test_return_time_pmf_values():
    pmf = oracles.return_time_pmf(3)
    assert pmf[0] == pytest.approx(0.5, abs=1e-15)
    assert pmf[1] == pytest.approx(1.0 / 8.0, abs=1e-15)
    # partial sums increase and stay below one
    partial = np.cumsum(oracles.return_time_pmf(50))
    assert np.all(np.diff(partial) > 0)
    assert partial[-1] < 1.0


def test_return_time_pmf_against_simulation():
    # 1e6 walks, 99% binomial bands per k <= 10
    pmf = oracles.return_time_pmf(10)
    n_walks = 1_000_000
    times = oracles.first_return_times(n_walks, 20, substream(2024, 1))
    for k in range(1, 11):
        freq = np.count_nonzero(times == 2 * k) / n_walks
        band = 2.576 * math.sqrt(pmf[k - 1] * (1 - pmf[k - 1]) / n_walks)
        assert abs(freq - pmf[k - 1]) < band, (k, freq, pmf[k - 1], band)


def test_local_time_two_scale_consistency():
    # E[L^0_N] = sum of return probabilities, exactly; the Monte Carlo mean
    # must sit within 4 stderr of it at both scales, and the exact scaled
    # means themselves differ only by the O(1/sqrt N) drift
    exact = {}
    for tag, horizon in ((0, 400), (1, 1600)):
        even = np.arange(2, horizon + 1, 2)
        exact[horizon] = sum(rw_transition(int(n), 0) for n in even) / math.sqrt(horizon)
        rng = substream(77, tag)
        steps = oracles.sample_steps_block(100_000, horizon, rng)
        pos = W.positions_from_steps(steps)
        counts = (pos == 0).sum(axis=1) / math.sqrt(horizon)
        se = counts.std(ddof=1) / math.sqrt(len(counts))
        assert abs(counts.mean() - exact[horizon]) < 4.0 * se
    # scaled exact means differ only by the O(1/sqrt N) discretization drift
    assert abs(exact[400] - exact[1600]) < 0.03
