"""Deterministic random-number streams.

Every stochastic component (trace generators, service-time models, jittered
timers) draws from a named substream derived from one root seed, so whole
experiments replay bit-identically while components stay statistically
independent.

A substream is a :class:`Stream`: numpy's ``default_rng(seed)`` -- a PCG64
generator seeded through ``SeedSequence`` -- rewritten in the standard
library for the five scalar draws a pod makes (``random``, ``uniform``,
``exponential``, ``integers``, ``lognormal``).  Every draw is bit-equal to
numpy's, so the streams, and with them every replayed output, are the ones
numpy gave; ``tests/test_rng_oracle.py`` holds it draw by draw against numpy.
Nothing here imports numpy (or ``hashlib``, which loads OpenSSL).
"""

from __future__ import annotations

from math import copysign, exp, inf, log1p

from .ziggurat import FE, FI, KE, KI, WE, WI

__all__ = ["RngFactory", "Stream", "derive_seed"]

_M32 = 0xFFFFFFFF
_M64 = 0xFFFFFFFFFFFFFFFF
_M128 = (1 << 128) - 1

# -- SHA-256 (FIPS 180-4), for derive_seed -----------------------------------

_SHA_K = (
    0x428A2F98, 0x71374491, 0xB5C0FBCF, 0xE9B5DBA5, 0x3956C25B, 0x59F111F1, 0x923F82A4, 0xAB1C5ED5,
    0xD807AA98, 0x12835B01, 0x243185BE, 0x550C7DC3, 0x72BE5D74, 0x80DEB1FE, 0x9BDC06A7, 0xC19BF174,
    0xE49B69C1, 0xEFBE4786, 0x0FC19DC6, 0x240CA1CC, 0x2DE92C6F, 0x4A7484AA, 0x5CB0A9DC, 0x76F988DA,
    0x983E5152, 0xA831C66D, 0xB00327C8, 0xBF597FC7, 0xC6E00BF3, 0xD5A79147, 0x06CA6351, 0x14292967,
    0x27B70A85, 0x2E1B2138, 0x4D2C6DFC, 0x53380D13, 0x650A7354, 0x766A0ABB, 0x81C2C92E, 0x92722C85,
    0xA2BFE8A1, 0xA81A664B, 0xC24B8B70, 0xC76C51A3, 0xD192E819, 0xD6990624, 0xF40E3585, 0x106AA070,
    0x19A4C116, 0x1E376C08, 0x2748774C, 0x34B0BCB5, 0x391C0CB3, 0x4ED8AA4A, 0x5B9CCA4F, 0x682E6FF3,
    0x748F82EE, 0x78A5636F, 0x84C87814, 0x8CC70208, 0x90BEFFFA, 0xA4506CEB, 0xBEF9A3F7, 0xC67178F2,
)
_SHA_H0 = (0x6A09E667, 0xBB67AE85, 0x3C6EF372, 0xA54FF53A,
           0x510E527F, 0x9B05688C, 0x1F83D9AB, 0x5BE0CD19)


def _rotr32(x: int, n: int) -> int:
    return (x >> n | x << (32 - n)) & _M32


def _sha256(message: bytes) -> bytes:
    """The SHA-256 digest of ``message`` (equal to ``hashlib.sha256``)."""
    length = len(message)
    message += b"\x80" + bytes((55 - length) % 64) + (8 * length).to_bytes(8, "big")
    h = list(_SHA_H0)
    for start in range(0, len(message), 64):
        w = [int.from_bytes(message[i:i + 4], "big") for i in range(start, start + 64, 4)]
        for t in range(16, 64):
            x, y = w[t - 15], w[t - 2]
            s0 = _rotr32(x, 7) ^ _rotr32(x, 18) ^ x >> 3
            s1 = _rotr32(y, 17) ^ _rotr32(y, 19) ^ y >> 10
            w.append((w[t - 16] + s0 + w[t - 7] + s1) & _M32)
        a, b, c, d, e, f, g, hh = h
        for t in range(64):
            t1 = (hh + (_rotr32(e, 6) ^ _rotr32(e, 11) ^ _rotr32(e, 25))
                  + (e & f ^ ~e & g) + _SHA_K[t] + w[t])
            t2 = ((_rotr32(a, 2) ^ _rotr32(a, 13) ^ _rotr32(a, 22))
                  + (a & b ^ a & c ^ b & c))
            a, b, c, d, e, f, g, hh = (t1 + t2) & _M32, a, b, c, (d + t1) & _M32, e, f, g
        h = [(x + y) & _M32 for x, y in zip(h, (a, b, c, d, e, f, g, hh))]
    return b"".join(x.to_bytes(4, "big") for x in h)


def derive_seed(root_seed: int, name: str) -> int:
    """Derive a 64-bit seed for substream ``name`` from ``root_seed``."""
    digest = _sha256(f"{root_seed}:{name}".encode())
    return int.from_bytes(digest[:8], "little")


# -- numpy's SeedSequence and PCG64 -------------------------------------------

_POOL = 4           # SeedSequence's default pool size, in 32-bit words
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715

#: PCG64's 128-bit LCG multiplier (PCG_DEFAULT_MULTIPLIER_128).
_MULT = 0x2360ED051FC65DA44385DF649FCCF645

#: 2**-53: a 53-bit integer times this is a double in [0, 1), exactly.
_DOUBLE_UNIT = 1.0 / 9007199254740992.0

# The tails of the two ziggurats (numpy's ziggurat_constants.h).
_EXP_R = 7.69711747013104972
_NOR_R = 3.6541528853610087963519472518
_NOR_INV_R = 0.27366123732975827203338247596


def _seed_words(seed: int) -> tuple:
    """PCG64's (initstate, initseq) for ``default_rng(seed)``.

    ``SeedSequence(seed)`` hashes the seed's 32-bit words into a 4-word pool;
    ``generate_state(4, uint64)`` stretches the pool into four 64-bit words
    ``val``; PCG64 seeds with ``val[0] << 64 | val[1]`` and ``val[2] << 64 |
    val[3]``.
    """
    if seed < 0:
        raise ValueError(f"seed must be non-negative, got {seed}")
    entropy = [seed & _M32]
    while seed > _M32:
        seed >>= 32
        entropy.append(seed & _M32)
    hash_const = _INIT_A

    def hashmix(value: int) -> int:
        nonlocal hash_const
        value ^= hash_const
        hash_const = hash_const * _MULT_A & _M32
        value = value * hash_const & _M32
        return value ^ value >> 16

    def mix(x: int, y: int) -> int:
        result = (_MIX_L * x - _MIX_R * y) & _M32
        return result ^ result >> 16

    pool = [hashmix(entropy[i] if i < len(entropy) else 0) for i in range(_POOL)]
    for src in range(_POOL):
        for dst in range(_POOL):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in entropy[_POOL:]:
        for dst in range(_POOL):
            pool[dst] = mix(pool[dst], hashmix(word))

    hash_const = _INIT_B
    state = []
    for i in range(2 * _POOL):
        value = pool[i % _POOL] ^ hash_const
        hash_const = hash_const * _MULT_B & _M32
        value = value * hash_const & _M32
        state.append(value ^ value >> 16)
    val = [state[i] | state[i + 1] << 32 for i in range(0, 2 * _POOL, 2)]
    return val[0] << 64 | val[1], val[2] << 64 | val[3]


class Stream:
    """numpy's ``default_rng(seed)``, for the scalar draws a pod makes.

    The state is numpy's ``PCG64.state``: the 128-bit LCG ``state`` and odd
    increment ``inc``, and ``uinteger``, the upper half of a 64-bit output
    that a 32-bit draw split and has not used yet (``None`` where numpy's
    ``has_uint32`` is 0).  The buffered half outlives the call that split the
    word: only the next bounded ``integers`` draw below 2**32 consumes it.

    A draw refuses, with ``ValueError`` and before it consumes a word, every
    argument numpy refuses (a negative scale or sigma, ``-0.0`` included; an
    empty or reversed range; an ``integers`` bound past int64), and two that
    numpy accepts: a NaN ``scale`` or ``sigma``, where numpy returns NaN.
    Where numpy raises ``OverflowError`` (a non-finite ``uniform`` span) this
    raises ``ValueError``.
    """

    __slots__ = ("state", "inc", "uinteger")

    def __init__(self, seed: int):
        initstate, initseq = _seed_words(seed)
        self.inc = (initseq << 1 | 1) & _M128
        self.state = ((self.inc + initstate) * _MULT + self.inc) & _M128
        self.uinteger = None

    def _next64(self) -> int:
        """Step the LCG; the new state's XSL-RR output word."""
        self.state = s = (self.state * _MULT + self.inc) & _M128
        fold = (s >> 64 ^ s) & _M64
        # fold * (2**64 + 1) is fold twice, side by side: shifting it right
        # by the top six bits of the state rotates fold.
        return fold * 0x10000000000000001 >> (s >> 122) & _M64

    def _next32(self) -> int:
        """The low half of a fresh 64-bit word, else the buffered high half."""
        half = self.uinteger
        if half is None:
            word = self._next64()
            self.uinteger = word >> 32
            return word & _M32
        self.uinteger = None
        return half

    def random(self) -> float:
        """A double in [0, 1)."""
        return (self._next64() >> 11) * _DOUBLE_UNIT

    def uniform(self, low: float = 0.0, high: float = 1.0) -> float:
        """A double in [low, high)."""
        span = high - low
        if not 0.0 <= span < inf:
            raise ValueError(f"uniform needs a finite range with low <= high, "
                             f"got [{low}, {high})")
        return low + span * self.random()

    def integers(self, low: int, high: int | None = None) -> int:
        """An integer in [low, high), or [0, low) with one argument.

        Lemire's multiply-shift with rejection: 32-bit draws while the range
        fits in 32 bits, 64-bit draws beyond.
        """
        if high is None:
            low, high = 0, low
        span = high - low
        if 1 < span <= 0x100000000:
            m = self._next32() * span
            if m & _M32 < span:
                threshold = (0x100000000 - span) % span
                while m & _M32 < threshold:
                    m = self._next32() * span
            return low + (m >> 32)
        if span == 1:
            return low
        if span < 1:
            raise ValueError(f"integers needs low < high, got [{low}, {high})")
        if low < -(1 << 63) or high > 1 << 63:
            raise ValueError(f"integers range [{low}, {high}) exceeds int64")
        m = self._next64() * span
        if m & _M64 < span:
            threshold = ((1 << 64) - span) % span
            while m & _M64 < threshold:
                m = self._next64() * span
        return low + (m >> 64)

    def exponential(self, scale: float = 1.0) -> float:
        """An exponential variate of mean ``scale`` (ziggurat)."""
        if not scale > 0.0 and (scale != 0.0 or copysign(1.0, scale) < 0.0):
            raise ValueError(f"exponential scale must be >= 0, got {scale}")
        while True:
            word = self._next64() >> 3
            i = word & 0xFF
            word >>= 8
            x = word * WE[i]
            if word < KE[i]:
                return x * scale
            if i == 0:
                return (_EXP_R - log1p(-self.random())) * scale
            if (FE[i - 1] - FE[i]) * self.random() + FE[i] < exp(-x):
                return x * scale

    def standard_normal(self) -> float:
        """A standard normal variate (ziggurat)."""
        while True:
            word = self._next64()     # bits: 0-7 step, 8 sign, 9-60 magnitude
            i = word & 0xFF
            magnitude = word >> 9 & 0xFFFFFFFFFFFFF
            x = magnitude * WI[i]
            if word & 0x100:
                x = -x
            if magnitude < KI[i]:
                return x
            if i == 0:
                while True:
                    xx = -_NOR_INV_R * log1p(-self.random())
                    yy = -log1p(-self.random())
                    if yy + yy > xx * xx:
                        return -(_NOR_R + xx) if magnitude >> 8 & 1 else _NOR_R + xx
            elif (FI[i - 1] - FI[i]) * self.random() + FI[i] < exp(-0.5 * x * x):
                return x

    def lognormal(self, mean: float = 0.0, sigma: float = 1.0) -> float:
        """``exp`` of a normal variate with ``mean`` and ``sigma``."""
        if not sigma > 0.0 and (sigma != 0.0 or copysign(1.0, sigma) < 0.0):
            raise ValueError(f"lognormal sigma must be >= 0, got {sigma}")
        return exp(mean + sigma * self.standard_normal())


class RngFactory:
    """Hands out independent, reproducible :class:`Stream` s by name."""

    def __init__(self, root_seed: int = 0):
        self.root_seed = root_seed
        self._streams: dict[str, Stream] = {}

    def get(self, name: str) -> Stream:
        """Return the stream for ``name``, creating it on first use."""
        if name not in self._streams:
            self._streams[name] = Stream(derive_seed(self.root_seed, name))
        return self._streams[name]

    def fresh(self, name: str) -> Stream:
        """Return a brand-new stream for ``name`` (ignores the cache)."""
        return Stream(derive_seed(self.root_seed, name))
