"""Reproducible random streams and the counter-based cell hash.

Two primitives shared by every stochastic module:

* ``substream(master_seed, *key)`` derives an independent ``numpy`` generator
  from a master seed and an integer key path, so replica r always sees the
  same stream regardless of execution order or worker count.
* ``cell_signs(s0, n, z)`` hashes lattice cells to the +-1 Rademacher
  environment for staged seeds ``s0 = splitmix64(seed)`` (O(1) memory
  instead of materialized arrays). ``CellSigns`` is the same kernel with its
  arrays allocated once, for callers that hash window after window. It is
  the only place a field is hashed.

A sign needs one bit of the outer ``splitmix64``, and the kernel computes
only that bit. The finalizer ends with ``v ^ (v >> 31)`` for
``v = u * MIX2``, where ``u`` is the value after its second xor-shift, so
bit 0 of the hash is ``bit0(v) ^ bit31(v)``. The low 32 bits of a wrapping
product depend on the low 32 bits of its factors alone, so these are bits 0
and 31 of the 32-bit product ``w = low32(u) * low32(MIX2)``. The outer hash
therefore stops at ``u``, and its last multiply and xor-shift run on 32-bit
words; the inner hash runs in full. Every sign equals the full 64-bit
formula's bit for bit (``tests/oracles.py`` keeps that formula as the
reference).

The hash identity recorded in output manifests is ``HASH_VERSION``.
"""

from __future__ import annotations

import numpy as np

HASH_VERSION = "splitmix64/v1"

_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)
_MIX2_LOW = np.uint32(0x133111EB)  # low32(_MIX2)


def splitmix64(x):
    """SplitMix64 finalizer on uint64 scalars or arrays (wrapping arithmetic)."""
    x = np.asarray(x, dtype=np.uint64)
    with np.errstate(over="ignore"):
        x = x + _GOLDEN
        x = (x ^ (x >> np.uint64(30))) * _MIX1
        x = (x ^ (x >> np.uint64(27))) * _MIX2
        x = x ^ (x >> np.uint64(31))
    return x


class CellSigns:
    """cell_signs on at most ``size`` broadcast cells, into arrays allocated once.

    Each call returns a float64 view of the kernel's own buffer; the next
    call overwrites it. A caller that hashes one window per step (the polymer
    transfer) allocates the kernel once and gets no fresh arrays per step.
    """

    def __init__(self, size: int):
        self._hash = np.empty(size, dtype=np.uint64)
        self._shifted = np.empty(size, dtype=np.uint64)
        self._signs = np.empty(size)

    def __call__(self, s0, n, z) -> np.ndarray:
        un = np.asarray(n, dtype=np.int64).astype(np.uint64)
        uz = np.asarray(z, dtype=np.int64).astype(np.uint64)
        inner = splitmix64(s0 ^ un)
        window = np.broadcast(inner, uz)
        shape, size = window.shape, window.size
        # every step after the broadcast runs on flat, contiguous words
        u = self._hash[:size]
        t = self._shifted[:size]
        # the outer splitmix64 up to u, its second xor-shift
        np.bitwise_xor(inner, uz, out=u.reshape(shape))
        np.add(u, _GOLDEN, out=u)
        np.right_shift(u, np.uint64(30), out=t)
        np.bitwise_xor(u, t, out=u)
        np.multiply(u, _MIX1, out=u)
        np.right_shift(u, np.uint64(27), out=t)
        np.bitwise_xor(u, t, out=u)
        # w = low32(u) * low32(MIX2) wraps mod 2^32, and the sign bit of
        # w ^ (w << 31) is bit31(w) ^ bit0(w), the hash's lowest bit
        w = self._shifted.view(np.uint32)[:size]
        v = self._hash.view(np.uint32)[:size]
        np.copyto(w, u, casting="unsafe")
        np.multiply(w, _MIX2_LOW, out=w)
        np.left_shift(w, np.uint32(31), out=v)
        np.bitwise_xor(v, w, out=v)
        # as int32, an arithmetic shift gives 0 or -1, and or-ing 1 gives +1 or -1
        v = v.view(np.int32)
        np.right_shift(v, np.int32(31), out=v)
        np.bitwise_or(v, np.int32(1), out=v)
        out = self._signs[:size]
        np.copyto(out, v)
        return out.reshape(shape)


def cell_signs(s0, n, z) -> np.ndarray:
    """omega(n, z) = +-1.0 from the lowest bit of the cell hash
    splitmix64(splitmix64(s0 ^ n) ^ z), for staged seed(s) s0 = splitmix64(seed).

    s0, n and z broadcast. Signed n and z are folded through their
    two's-complement uint64 image, so negative lattice sites are valid counters.
    Only the hash's lowest bit is computed (see the module docstring).
    """
    return CellSigns(np.broadcast(s0, n, z).size)(s0, n, z)


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
