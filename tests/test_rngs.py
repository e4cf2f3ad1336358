import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from collisim.rngs import HASH_VERSION, CellSigns, cell_signs, splitmix64
from oracles import cell_signs_full_hash

_INT64 = st.one_of(st.sampled_from([0, -1, 2**62, -(2**62), 2**63 - 1, -(2**63)]),
                   st.integers(-(2**63), 2**63 - 1))
_SEEDS = st.lists(st.integers(-(2**63), 2**63 - 1), min_size=1, max_size=5)
_CELLS = st.lists(_INT64, min_size=1, max_size=6)

# one kernel reused across examples, as the transfer reuses one across steps
_REUSED = CellSigns(64)


def _staged(seeds):
    return splitmix64(np.asarray(seeds, dtype=np.int64).astype(np.uint64))


def _check(s0, n, z, shape):
    want = cell_signs_full_hash(s0, n, z)
    assert want.shape == shape
    for got in (cell_signs(s0, n, z), _REUSED(s0, n, z)):
        assert got.shape == shape
        assert got.dtype == np.float64
        assert got.tobytes() == want.tobytes()


@given(_SEEDS, _CELLS, _CELLS)
@settings(max_examples=300, deadline=None)
def test_cell_signs_match_full_hash(seeds, ns, zs):
    assert HASH_VERSION == "splitmix64/v1"
    cells = min(len(ns), len(zs))
    n = np.array(ns[:cells], dtype=np.int64)
    z = np.array(zs[:cells], dtype=np.int64)
    s0 = _staged(seeds)
    # one seed x a cell vector (EnvironmentField.omega_at)
    _check(s0[0], n, z, (cells,))
    # one seed for every row x a window of cells at one step (chaos orders)
    _check(s0[:1], n[0], z[:, None], (cells, 1))
    # (fields, 1) seeds x cells (ustat.evaluate_table)
    _check(s0[:, None], n, z, (len(seeds), cells))
    # (cells, 1) window x (rows,) seeds at one step (partition rows)
    _check(s0, n[0], z[:, None], (cells, len(seeds)))
    # one seed, one cell
    _check(s0[0], int(n[0]), int(z[0]), ())
