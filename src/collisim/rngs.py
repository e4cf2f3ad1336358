"""Reproducible random streams and the counter-based cell hash.

Two primitives shared by every stochastic module:

* ``substream(master_seed, *key)`` derives an independent ``numpy`` generator
  from a master seed and an integer key path, so replica r always sees the
  same stream regardless of execution order or worker count.
* ``cell_signs(s0, n, z)`` hashes lattice cells to the +-1 Rademacher
  environment for staged seeds ``s0 = splitmix64(seed)`` (O(1) memory
  instead of materialized arrays). It is the only place a field is hashed.

The hash identity recorded in output manifests is ``HASH_VERSION``.
"""

from __future__ import annotations

import numpy as np

HASH_VERSION = "splitmix64/v1"

_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)


def splitmix64(x):
    """SplitMix64 finalizer on uint64 scalars or arrays (wrapping arithmetic)."""
    x = np.asarray(x, dtype=np.uint64)
    with np.errstate(over="ignore"):
        x = x + _GOLDEN
        x = (x ^ (x >> np.uint64(30))) * _MIX1
        x = (x ^ (x >> np.uint64(27))) * _MIX2
        x = x ^ (x >> np.uint64(31))
    return x


def cell_signs(s0, n, z) -> np.ndarray:
    """omega(n, z) = +-1.0 from the lowest bit of the cell hash
    splitmix64(splitmix64(s0 ^ n) ^ z), for staged seed(s) s0 = splitmix64(seed).

    s0, n and z broadcast. Signed n and z are folded through their
    two's-complement uint64 image, so negative lattice sites are valid counters.
    """
    un = np.asarray(n, dtype=np.int64).astype(np.uint64)
    uz = np.asarray(z, dtype=np.int64).astype(np.uint64)
    h = splitmix64(splitmix64(s0 ^ un) ^ uz)
    return 1.0 - 2.0 * (h & np.uint64(1)).astype(np.float64)


def substream(master_seed: int, *key: int) -> np.random.Generator:
    """Independent generator for the replica identified by ``key``.

    Pure function of (master_seed, key): parallel and serial sweeps agree
    bit-for-bit. Philox is counter-based, so spawned streams are cheap.
    """
    ss = np.random.SeedSequence(entropy=int(master_seed), spawn_key=tuple(int(k) for k in key))
    return np.random.Generator(np.random.Philox(ss))


def child_seeds(master_seed: int, n: int, *prefix: int) -> np.ndarray:
    """n distinct 63-bit integer seeds derived from (master_seed, prefix).

    Used where a replica needs a plain integer seed (environment fields)
    rather than a Generator.
    """
    ss = np.random.SeedSequence(entropy=int(master_seed), spawn_key=tuple(int(k) for k in prefix))
    return ss.generate_state(n, dtype=np.uint64).astype(np.int64) & np.int64(0x7FFFFFFFFFFFFFFF)
