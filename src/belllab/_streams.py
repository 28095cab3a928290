"""numpy's default_rng(seed) draw of one random model, for many consecutive seeds at once.

lhv._draw(seed, n, bound) is the seed contract: default_rng(seed) draws
random(n), then uniform(-bound, bound, (4, n)).  draw() computes the same 5n
doubles for each seed first_seed + k, k < count, one numpy lane per seed, by
doing numpy's own construction in array arithmetic:

* SeedSequence(seed).generate_state(4, uint64) is uint32 hash mixing.  The
  hash constants depend on no data.  A seed below 2**64 is two 32-bit entropy
  words padded with zeros, which is exact: numpy mixes in hashmix(0) for each
  pool word the entropy does not fill.
* PCG64 seeds a 128-bit LCG from those words and steps it once per output,
  which here is jump-ahead from one table of multiplier powers; 128-bit
  numbers are uint64 (high, low) halves.  Each state gives one 64-bit output
  by XSL-RR.
* random() makes an output u into (u >> 11) * 2**-53 and uniform(low, high)
  into low + (high - low) * random().

numpy promises no stream for Generator methods, so the caller compares one
lane with _draw before it uses the rest.
"""

from __future__ import annotations

import functools

import numpy as np

_U32, _U64 = np.uint32, np.uint64
_MASK32 = 0xFFFFFFFF
_MASK64 = (1 << 64) - 1
_MASK128 = (1 << 128) - 1
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def _hash_constants(init: int, mult: int, calls: int) -> np.ndarray:
    """The (xor, multiply) constants of successive hash calls, shape (2, calls, 1).

    A call xors its value with the running constant, advances the constant
    by *= mult and multiplies the value by the advanced one.
    """
    steps = []
    for _ in range(calls):
        steps.append((init, init * mult & _MASK32))
        init = init * mult & _MASK32
    return np.array(steps, dtype=_U32).T[:, :, None]


# SeedSequence runs one constant through its 4 pool-word hashes and then its
# 4 x 3 cross-mix hashes, another through its 8 output-word hashes
_ENTROPY_HASH = _hash_constants(0x43B0D7E5, 0x931E8875, 16)
_OUTPUT_HASH = _hash_constants(0x8B51F9DD, 0x58F38DED, 8)
_MIX_L, _MIX_R = _U32(0xCA01F9DD), _U32(0x4973F715)


def _hash(value: np.ndarray, constants: np.ndarray) -> np.ndarray:
    value = (value ^ constants[0]) * constants[1]
    return value ^ (value >> _U32(16))


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    value = _MIX_L * x - _MIX_R * y
    return value ^ (value >> _U32(16))


def _seed_state(seeds: np.ndarray) -> np.ndarray:
    """SeedSequence(seed).generate_state(4, uint64) of uint64 seeds, shape (4, seeds)."""
    pool = np.zeros((4, seeds.size), dtype=_U32)
    pool[0], pool[1] = seeds & _U64(_MASK32), seeds >> _U64(32)
    pool = _hash(pool, _ENTROPY_HASH[:, :4])
    # numpy mixes each source word into the 3 others in turn; the source
    # itself does not change meanwhile, so its 3 mixes are one step
    for src in range(4):
        calls = slice(4 + 3 * src, 7 + 3 * src)
        dst = [i for i in range(4) if i != src]
        pool[dst] = _mix(pool[dst], _hash(pool[src], _ENTROPY_HASH[:, calls]))
    words = _hash(np.concatenate([pool, pool]), _OUTPUT_HASH).astype(_U64)
    return words[0::2] | (words[1::2] << _U64(32))


@functools.cache
def _jumps(outputs: int) -> tuple[np.ndarray, ...]:
    """(high, low) halves of MULT**k and of sum(MULT**i for i < k), for k = 2 .. outputs + 1.

    Seeding steps the LCG twice from s + inc, and each output steps it once
    more before it reads the state, so output j reads state j + 2 from s + inc:
    MULT**k * (s + inc) + sum(MULT**i for i < k) * inc.  One entry is cached
    per point count, and lhv stacks at most STACKED_DRAW_MAX_POINTS of them.
    """
    powers, prefixes = [], []
    power, prefix = _PCG_MULT * _PCG_MULT & _MASK128, 1 + _PCG_MULT
    for _ in range(outputs):
        powers.append(power)
        prefixes.append(prefix)
        power, prefix = power * _PCG_MULT & _MASK128, prefix + power & _MASK128
    return _halves(powers) + _halves(prefixes)


def _halves(numbers: list[int]) -> tuple[np.ndarray, np.ndarray]:
    halves = np.array([[number >> 64 for number in numbers], [number & _MASK64 for number in numbers]],
                      dtype=_U64)
    halves.setflags(write=False)  # cached, so shared by every call
    return halves[0], halves[1]


def _mulhi(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """High 64 bits of the 128-bit products of uint64 arrays, from 32-bit limbs."""
    a0, a1 = a & _U64(_MASK32), a >> _U64(32)
    b0, b1 = b & _U64(_MASK32), b >> _U64(32)
    # no partial sum overflows: (2**32 - 1)**2 + 2 * (2**32 - 1) < 2**64
    middle = a1 * b0 + ((a0 * b0) >> _U64(32))
    other = a0 * b1 + (middle & _U64(_MASK32))
    return a1 * b1 + (middle >> _U64(32)) + (other >> _U64(32))


def _times(high, low, lane_high, lane_low):
    """(high, low) of the 128-bit products (high, low) * (lane_high, lane_low) mod 2**128."""
    return _mulhi(low, lane_low) + high * lane_low + low * lane_high, low * lane_low


def draw(first_seed: int, count: int, n_points: int, bound: float) -> tuple[np.ndarray, np.ndarray]:
    """(count, n) weights and (count, 4, n) tables of _draw(first_seed + k, ...), k < count.

    Needs 0 <= first_seed and first_seed + count <= 2**64.  Each uint64
    array it makes holds count * 5 * n_points words, 5/4 of the tables.
    """
    seeds = np.arange(count, dtype=_U64) + _U64(first_seed)
    s_high, s_low, seq_high, seq_low = _seed_state(seeds)[..., None]
    inc_high, inc_low = (seq_high << _U64(1)) | (seq_low >> _U64(63)), (seq_low << _U64(1)) | _U64(1)
    start_low = s_low + inc_low
    start_high = s_high + inc_high + (start_low < s_low)
    power_high, power_low, prefix_high, prefix_low = _jumps(5 * n_points)
    a_high, a_low = _times(power_high, power_low, start_high, start_low)
    b_high, b_low = _times(prefix_high, prefix_low, inc_high, inc_low)
    low = a_low + b_low
    high = a_high + b_high + (low < a_low)
    rotate = high >> _U64(58)
    mixed = high ^ low
    outputs = (mixed >> rotate) | (mixed << ((_U64(64) - rotate) & _U64(63)))
    doubles = (outputs >> _U64(11)).astype(float) * (1.0 / 9007199254740992.0)
    weights = doubles[:, :n_points]
    low_end, high_end = float(-bound), float(bound)
    tables = low_end + (high_end - low_end) * doubles[:, n_points:].reshape(count, 4, n_points)
    # numpy sums each row in the order it sums one model's weights
    return weights / weights.sum(axis=-1, keepdims=True), tables
