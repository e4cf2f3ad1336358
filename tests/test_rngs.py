import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from collisim.rngs import HASH_VERSION, cell_signs, splitmix64, step_keys, window_bits
from oracles import cell_sign_v2

_INT64 = st.one_of(st.sampled_from([0, -1, 63, 64, -64, -65, 2**62, -(2**62), 2**63 - 1,
                                    -(2**63)]),
                   st.integers(-(2**63), 2**63 - 1))
_SEEDS = st.lists(st.integers(-(2**63), 2**63 - 1), min_size=1, max_size=5)
_CELLS = st.lists(_INT64, min_size=1, max_size=6)


def _staged(seeds):
    return splitmix64(np.asarray(seeds, dtype=np.int64).astype(np.uint64))


def _check(seeds, s0, n, z, shape):
    got = cell_signs(s0, n, z)
    assert got.shape == shape
    assert got.dtype == np.float64
    seeds, n, z = np.broadcast_arrays(np.asarray(seeds), n, z)
    want = [cell_sign_v2(int(s), int(a), int(b)) for s, a, b in zip(seeds.flat, n.flat, z.flat)]
    assert got.ravel().tolist() == want


def test_hash_version_is_v2():
    assert HASH_VERSION == "splitmix64/v2"


@given(_SEEDS, _CELLS, _CELLS)
@settings(max_examples=300, deadline=None)
def test_cell_signs_match_full_hash(seeds, ns, zs):
    # every v2 sign against the full formula in Python integers, for the
    # broadcast shapes the callers use, at extreme and off-parity cells
    cells = min(len(ns), len(zs))
    n = np.array(ns[:cells], dtype=np.int64)
    z = np.array(zs[:cells], dtype=np.int64)
    seeds = np.array(seeds, dtype=np.int64)
    s0 = _staged(seeds)
    # one seed x a cell vector (EnvironmentField.omega_at)
    _check(seeds[0], s0[0], n, z, (cells,))
    # (fields, 1) seeds x cells
    _check(seeds[:, None], s0[:, None], n, z, (len(seeds), cells))
    # one seed, one cell
    _check(seeds[0], s0[0], int(n[0]), int(z[0]), ())


@given(_SEEDS, st.integers(1, 2**40), st.integers(-300, 300), st.integers(1, 200))
@settings(max_examples=200, deadline=None)
def test_window_bits_match_cell_signs(seeds, n, lo, count):
    # a window of consecutive sites, starting anywhere in a word and possibly
    # below zero, reads the bits of cell_signs at z = 2 j - n
    s0 = _staged(seeds)
    bits = window_bits(step_keys(s0, n), lo, count)
    assert bits.shape == (count, len(seeds))
    assert bits.dtype == np.uint8
    z = 2 * np.arange(lo, lo + count, dtype=np.int64) - n
    want = cell_signs(s0[None, :], n, z[:, None])
    assert np.array_equal(1.0 - 2.0 * bits, want)


def test_window_bits_layout_is_c_order():
    # one layout whether the window sits inside one 64-site word or spans
    # several, so a product over it sums in one order; values against the
    # v2 formula in Python integers
    seeds = [3, -7, 2**62 + 5]
    s0 = _staged(seeds)
    n = 41
    for lo, count in [(5, 40), (-64, 64), (60, 9), (-70, 200)]:
        bits = window_bits(step_keys(s0, n), lo, count)
        assert bits.flags.c_contiguous
        assert bits.shape == (count, len(seeds))
        want = [[cell_sign_v2(s, n, 2 * j - n) for s in seeds] for j in range(lo, lo + count)]
        assert (1 - 2 * bits.astype(np.int64)).tolist() == want
