"""Simple symmetric random walks on Z: sampling and positions.

Paths are stored as contiguous position arrays S_0..S_N (S_0 = 0), because
collision detection and local times index positions directly. The batched
sweeps read positions straight from the raw Philox words (walk_positions):
step t is +1 where the top bit of byte t is set, the step
Generator.integers(0, 2, int8) would draw, so no step array is built. The
prefix sum runs at three levels: bytes within a word and words within a
group of 8 by SWAR multiplies (biased so that no byte carries), and a cumsum
across the 64-step groups, in an integer type whose wrap-around is exact.
"""

from __future__ import annotations

import math

import numpy as np

# substream is not called here; perfbench/tracer.py wraps the name (see harness.py)
from .rngs import substream  # noqa: F401


def sample_ensemble(k: int, horizon: int, rng: np.random.Generator) -> np.ndarray:
    """(k, N+1) int64 positions of k independent walks from one stream, with
    S_0 = 0; walk i's steps are draws i N..(i+1) N - 1 of ``rng``."""
    if horizon < 0:
        raise ValueError("horizon must be >= 0")
    positions = np.zeros((k, horizon + 1), dtype=np.int64)
    steps = rng.integers(0, 2, size=(k, horizon), dtype=np.int64) * 2 - 1
    np.cumsum(steps, axis=1, out=positions[:, 1:])
    return positions


def positions_from_steps(steps: np.ndarray) -> np.ndarray:
    """Cumulative positions S_1..S_N (drops the S_0 = 0 column), int32."""
    return np.cumsum(steps, axis=-1, dtype=np.int32)


_LOW = np.uint64(0x0101010101010101)  # bit 0 of every byte
_RAMP = np.uint64(0x0001020304050607)  # byte j holds 7 - j
_BIAS = np.uint64(0x0008101820283038)  # byte i holds 56 - 8 i


def walk_positions(rng: np.random.Generator, lead: tuple, horizon: int) -> np.ndarray:
    """Positions S_1..S_N, shape lead + (N,), of prod(lead) walks drawn from
    ``rng``; bit for bit positions_from_steps(rng.integers(0, 2, lead + (N,),
    int8) * 2 - 1). With range 2, Lemire's method in integers maps byte b of
    the raw stream to (2 b) >> 8, its top bit, and rejects nothing; it takes
    the bytes of each 64-bit word from the lowest up.

    The flat step stream is summed at three levels, so the one cumsum runs
    over groups of 8 words (64 steps):
    - within a word (8 steps), a SWAR multiply gives each byte its up-step
      prefix p_j, so byte j becomes 2 p_j + 7 - j in [0, 16], 8 plus the
      position after step j relative to the word's start;
    - within a group, the 8 top bytes (8 plus each word's displacement) are
      packed into one uint64 and multiplied by 0x0101...01, which leaves
      their inclusive prefix sums (at most 128) in its bytes. Shifted up one
      byte and plus the bias bytes 56 - 8 i, byte i is 56 plus word i's
      offset from the group's start; broadcast over word i's bytes and
      added, every byte becomes 64 plus the position relative to the
      group's start, in [0, 128], and no byte carries;
    - across groups, byte 7 of the inclusive product is 64 plus the group's
      displacement; its cumsum gives each group's base, which is added to
      the group's 64 bytes as they widen.
    Each walk's start in the flat stream is then subtracted. Positions are
    int16 for N < 2^15, else int32; the cumsum and the adds wrap modulo the
    dtype width, which is exact because every returned |S_n| <= N fits.

    A call draws ceil(prod(lead) N / 8) words, none when there is no step,
    pads them with zero words to whole groups when they are ragged, and
    drops the unused bytes. So successive calls on one generator reproduce
    the positions of a single call whenever every call but the last covers
    a multiple of 8 steps; the harness draws its chunks in such blocks. Its
    outputs are per replica, each summed in the same order within a block
    as within the whole chunk, so the blocks change no bit.
    """
    lead = tuple(lead)
    rows = math.prod(lead)
    size = rows * horizon
    dtype = np.int16 if horizon < 2**15 else np.int32
    if size == 0:
        return np.zeros(lead + (horizon,), dtype=dtype)
    n_words = -(-size // 8)
    words = rng.bit_generator.random_raw(n_words).astype("<u8", copy=False)
    if n_words % 8:
        words = np.concatenate([words, np.zeros(-n_words % 8, dtype="<u8")])
    words >>= np.uint64(7)
    words &= _LOW
    words *= _LOW + _LOW  # byte j: 2 p_j, at most 16, so no carry
    words += _RAMP
    local = words.view(np.uint8)
    groups = np.ascontiguousarray(local[7::8]).view("<u8")
    groups *= _LOW  # byte i: 8 i plus the displacement of words 0..i
    offsets = ((groups << np.uint64(8)) + _BIAS).view(np.uint8)
    # the positions' buffer holds each word's broadcast offset until the
    # last add overwrites it, so no word-sized temporary is made
    flat = np.empty((len(groups), 64), dtype=dtype)
    spread = flat.reshape(-1).view("<u8")[:len(words)]
    np.multiply(offsets, _LOW, out=spread)
    words += spread
    # byte 7 of a group's product, minus 64, is its displacement; base[g] +
    # 64 is the stream's position before group g
    delta = groups.view(np.uint8)[7::8].astype(dtype) - 64
    base = np.cumsum(delta, dtype=dtype) - delta - 64
    np.add(local.reshape(-1, 64), base[:, None], out=flat)
    pos = flat.reshape(-1)[:size].reshape(rows, horizon)
    # each walk starts where the previous one ends in the flat stream
    start = np.zeros(rows, dtype=dtype)
    start[1:] = pos[:-1, -1]
    pos -= start[:, None]
    return pos.reshape(lead + (horizon,))
