"""Reproducible random streams and the counter-based cell hash.

Two primitives shared by every stochastic module:

* ``substream(master_seed, *key)`` derives an independent ``numpy`` generator
  from a master seed and an integer key path, so replica r always sees the
  same stream regardless of execution order or worker count. Every sampled
  stream is keyed (master_seed, purpose, size, index): a purpose below, the
  sweep's horizon N (time_cells for CHAOS) and the chunk or replica. So no
  two samples share a stream, and a rung's samples do not depend on its
  ladder. Manifests record this schema as ``STREAM_SCHEMA``.
* The Rademacher environment omega(n, z) = +-1 of a staged seed
  ``s0 = splitmix64(seed)`` is a pure function of the cell, hashed on
  demand (O(1) memory instead of materialized arrays). This module is the
  only place it is defined.

The hash identity recorded in output manifests is ``HASH_VERSION``. Under
``splitmix64/v2`` the cells of step n are numbered by their site
j = (z + n) / 2, and one 64-bit word holds the signs of 64 neighbouring
sites: site j reads bit ``j mod 64`` of

    word(n, floor(j / 64)) = splitmix64(splitmix64(s0 ^ n) ^ floor(j / 64)),

and omega = +1 where that bit is 0, -1 where it is 1. The inner hash
``step_keys(s0, n)`` is shared by every word of a step, so a window of w
consecutive sites costs about w / 64 outer hashes (``window_bits``).
``cell_signs`` reads single cells from the same words. A cell off the
walk's parity (z + n odd) is visited by no walk; it reads site
floor((z + n) / 2), the sign of cell (n, z - 1). n and z are read as int64,
their sum wraps to 64 bits, and word indices enter the hash through their
two's-complement uint64 image, so every integer cell has a sign. SplitMix64
is the finalizer of Steele, Lea and Flood, "Fast splittable pseudorandom
number generators" (OOPSLA 2014).
"""

from __future__ import annotations

import numpy as np

HASH_VERSION = "splitmix64/v2"
STREAM_SCHEMA = "philox(seed, purpose, size, index)/v1"

# stream purposes (keep stable across versions)
WALKS = 1
ENVIRONMENT = 2
CHAOS = 3
USTAT = 4

_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)


def splitmix64(x):
    """SplitMix64 finalizer on uint64 scalars or arrays (wrapping arithmetic).

    It mixes a fresh copy in place: in-place ufuncs on arrays, 0-d ones
    included, wrap without overflow warnings."""
    x = np.array(x, dtype=np.uint64)
    x += _GOLDEN
    x ^= x >> np.uint64(30)
    x *= _MIX1
    x ^= x >> np.uint64(27)
    x *= _MIX2
    x ^= x >> np.uint64(31)
    return x


def _as_u64(x) -> np.ndarray:
    return np.asarray(x, dtype=np.int64).astype(np.uint64)


def step_keys(s0, n) -> np.ndarray:
    """splitmix64(s0 ^ n): the key that every sign word of step n hashes."""
    return splitmix64(s0 ^ _as_u64(n))


def sign_words(keys, w) -> np.ndarray:
    """splitmix64(key ^ w): the word holding the signs of sites 64 w .. 64 w + 63."""
    return splitmix64(keys ^ _as_u64(w))


def window_bits(keys, lo: int, count: int) -> np.ndarray:
    """Sign bits (1 where omega = -1) of the sites lo .. lo + count - 1 of one
    step, as uint8 of shape (count, fields) for the step's ``keys``, one per
    field (a 1-D array): one word hash per 64 sites and field.

    The words covering the window are hashed and unpacked in one call each.
    Their bytes are read little-endian and their bits in little order, so
    bit b of word w lands at site 64 w + b. The window is always C-ordered,
    so a reduction over it sums in the same order whether or not it crosses
    a word boundary (a single word's bits would otherwise come back as a
    transposed view).
    """
    first = lo >> 6
    words = sign_words(keys, np.arange(first, ((lo + count - 1) >> 6) + 1)[:, None])
    octets = words.astype("<u8", copy=False).view(np.uint8).reshape(words.shape + (8,))
    bits = np.unpackbits(octets.transpose(0, 2, 1), axis=1, bitorder="little")
    offset = lo - 64 * first
    return np.ascontiguousarray(bits.reshape(64 * len(words), len(keys))[offset:offset + count])


def cell_signs(s0, n, z) -> np.ndarray:
    """omega(n, z) = +-1.0 for staged seed(s) s0 = splitmix64(seed); s0, n and
    z broadcast. Each cell hashes its own word; windows of consecutive sites
    are cheaper through ``window_bits``."""
    un, uz = _as_u64(n), _as_u64(z)
    with np.errstate(over="ignore"):
        site = (un + uz).view(np.int64) >> 1
    words = sign_words(step_keys(s0, n), site >> 6)
    bits = (words >> (site & 63).astype(np.uint64)) & np.uint64(1)
    return 1.0 - 2.0 * bits.astype(np.float64)


def substream(master_seed: int, *key: int) -> np.random.Generator:
    """Independent generator for the stream identified by ``key`` (see above).

    Pure function of (master_seed, key): parallel and serial sweeps agree
    bit-for-bit. Philox is counter-based, so spawned streams are cheap.
    """
    ss = np.random.SeedSequence(entropy=int(master_seed), spawn_key=tuple(int(k) for k in key))
    return np.random.Generator(np.random.Philox(ss))
