import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from collisim import collisions as C
from collisim import walks as W
from collisim.environment import ContinuumAmplitude
from collisim.rngs import substream
import oracles


def _ensemble(*position_lists):
    return np.array(position_lists, dtype=np.int64)


def test_hand_example_two_walks():
    ens = _ensemble([0, 1, 0, 1], [0, -1, 0, 1])
    with_mult, distinct = C.detect_collisions(ens)
    atoms = list(zip(with_mult.times, with_mult.sites, with_mult.weights))
    assert atoms == [(2, 0, 1), (3, 1, 1)]
    assert list(zip(distinct.times, distinct.sites, distinct.weights)) == atoms


def test_triple_collision_multiplicity():
    ens = _ensemble([0, 1, 0], [0, 1, 0], [0, 1, 0])
    with_mult, distinct = C.detect_collisions(ens)
    # all three walks coincide everywhere: 3 pairs at each of n = 1, 2
    assert list(with_mult.weights) == [3, 3]
    assert list(distinct.weights) == [1, 1]


def test_never_meeting_walks():
    ens = _ensemble([0, 1, 2, 3], [0, -1, -2, -3])
    with_mult, distinct = C.detect_collisions(ens)
    assert with_mult.n_atoms == 0 and distinct.n_atoms == 0
    assert C.integrate(with_mult, C.constant_fn(1.0)) == 0.0


def test_integrate_counts_atoms():
    ens = _ensemble([0, 1, 0, 1], [0, -1, 0, 1])
    with_mult, _ = C.detect_collisions(ens)
    assert C.integrate(with_mult, C.constant_fn(1.0)) == 2.0


def test_integrate_against_brute_force():
    rng = substream(13, 0)
    pos = W.sample_ensemble(3, 48, rng)
    with_mult, _ = C.detect_collisions(pos)
    f = ContinuumAmplitude(lambda t, x: np.exp(-np.asarray(x) ** 2), 1.0)
    got = C.integrate(with_mult, f)
    # independent recomputation straight from the raw paths
    expected = 0.0
    for n in range(1, 49):
        for i in range(3):
            for j in range(i + 1, 3):
                if pos[i, n] == pos[j, n]:
                    expected += math.exp(-((pos[i, n] / math.sqrt(48)) ** 2))
    assert got == pytest.approx(expected, rel=1e-12)


def test_total_mass_identity_hand_and_random():
    ens = _ensemble([0, 1, 0, 1], [0, -1, 0, 1])
    assert oracles.total_mass_identity_check(ens) == (2.0, 2)
    apart = _ensemble([0, 1, 2, 3], [0, -1, -2, -3])
    assert oracles.total_mass_identity_check(apart) == (0.0, 0)
    with pytest.raises(oracles.WrongEnsembleSize):
        oracles.total_mass_identity_check(_ensemble([0, 1], [0, 1], [0, 1]))


def test_total_mass_identity_many_replicates():
    # pathwise identity in every one of 1e4 random ensembles at N=256
    rng = substream(31, 0)
    steps = (rng.integers(0, 2, size=(10_000, 2, 256), dtype=np.int8) * 2 - 1)
    pos = np.cumsum(steps, axis=2, dtype=np.int32)
    eq = pos[:, 0, :] == pos[:, 1, :]
    # the pair-count route equals the difference-walk zero count columnwise
    assert np.array_equal(eq.sum(axis=1), ((pos[:, 0, :] - pos[:, 1, :]) == 0).sum(axis=1))


def test_parity_invariant_on_samples():
    for seed in range(5):
        ens = W.sample_ensemble(3, 64, substream(101, seed))
        with_mult, _ = C.detect_collisions(ens)
        assert np.all((with_mult.times + with_mult.sites) % 2 == 0)


@given(st.integers(min_value=2, max_value=4), st.integers(min_value=4, max_value=40),
       st.integers(min_value=0, max_value=10**6))
@settings(max_examples=30, deadline=None)
def test_measure_sandwich_property(k, horizon, seed):
    ens = W.sample_ensemble(k, horizon, substream(seed, 0))
    with_mult, distinct = C.detect_collisions(ens)
    f = C.gaussian_bump(1.0, 1.0)
    pi = C.integrate(with_mult, f)
    pip = C.integrate(distinct, f)
    assert pip <= pi + 1e-12
    assert pi <= k * (k - 1) / 2 * pip + 1e-12
    assert np.all(with_mult.weights >= 1)
    assert np.all(with_mult.weights <= k * (k - 1) // 2)


def test_mass_gap_decays_along_ladder():
    # mean ||Pi - Pi'|| / sqrt(N) drops by at least 3x from N=256 to N=65536
    means = {}
    for tag, horizon in ((0, 256), (1, 65536)):
        rng = substream(53, tag)
        reps = 800
        total = 0.0
        chunk = max(8, (1 << 21) // horizon)
        done = 0
        while done < reps:
            size = min(chunk, reps - done)
            steps = rng.integers(0, 2, size=(size, 3, horizon), dtype=np.int8) * 2 - 1
            pos = np.cumsum(steps, axis=2, dtype=np.int32)
            tri = (pos[:, 0, :] == pos[:, 1, :]) & (pos[:, 0, :] == pos[:, 2, :])
            total += 2.0 * tri.sum()
            done += size
        means[horizon] = total / reps / math.sqrt(horizon)
    assert means[65536] < means[256] / 3.0, means


def test_measures_sorted_and_deduplicated():
    ens = _ensemble([0, 1, 0, -1, 0], [0, 1, 0, 1, 0], [0, -1, 0, 1, 0])
    with_mult, _ = C.detect_collisions(ens)
    keys = list(zip(with_mult.times, with_mult.sites))
    assert keys == sorted(keys)
    assert len(set(keys)) == len(keys)
