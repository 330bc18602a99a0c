"""The numpy-backed random streams, kept as a test oracle.

Before ``repro.sim.rng`` drew from its own standard-library ``Stream``, an
``RngFactory`` handed out ``numpy.random.default_rng`` generators and
``derive_seed`` hashed names with ``hashlib``.  This file is that factory,
verbatim apart from the docstrings, plus what ``tests/test_rng_oracle.py``
needs to line a ``Stream`` up with a numpy generator: both states read as
one tuple, and a crafted state whose next two output words are chosen.  It is the
only place a numpy ``Generator`` backs a named stream.
"""

from __future__ import annotations

import hashlib

import numpy as np

__all__ = ["RngFactory", "derive_seed", "state_of", "generator_at",
           "stream_at", "emitting", "state_before"]


def derive_seed(root_seed: int, name: str) -> int:
    """Derive a 64-bit seed for substream ``name`` from ``root_seed``."""
    digest = hashlib.sha256(f"{root_seed}:{name}".encode()).digest()
    return int.from_bytes(digest[:8], "little")


class RngFactory:
    """Hands out independent, reproducible ``numpy`` generators by name."""

    def __init__(self, root_seed: int = 0):
        self.root_seed = root_seed
        self._streams: dict[str, np.random.Generator] = {}

    def get(self, name: str) -> np.random.Generator:
        """Return the generator for ``name``, creating it on first use."""
        if name not in self._streams:
            self._streams[name] = np.random.default_rng(derive_seed(self.root_seed, name))
        return self._streams[name]

    def fresh(self, name: str) -> np.random.Generator:
        """Return a brand-new generator for ``name`` (ignores the cache)."""
        return np.random.default_rng(derive_seed(self.root_seed, name))


# -- lining a Stream up with a numpy generator --------------------------------

_M64 = (1 << 64) - 1
_M128 = (1 << 128) - 1
MULT = 0x2360ED051FC65DA44385DF649FCCF645
MULT_INV = pow(MULT, -1, 1 << 128)


def state_of(rng) -> tuple:
    """``(state, inc, buffered upper half or None)`` of a numpy generator or
    a ``Stream``."""
    if isinstance(rng, np.random.Generator):
        doc = rng.bit_generator.state
        return (doc["state"]["state"], doc["state"]["inc"],
                doc["uinteger"] if doc["has_uint32"] else None)
    return rng.state, rng.inc, rng.uinteger


def generator_at(state: int, inc: int) -> np.random.Generator:
    """A numpy PCG64 generator at LCG ``state`` / ``inc``, nothing buffered."""
    bit_generator = np.random.PCG64()
    bit_generator.state = {"bit_generator": "PCG64",
                           "state": {"state": state, "inc": inc},
                           "has_uint32": 0, "uinteger": 0}
    return np.random.Generator(bit_generator)


def stream_at(state: int, inc: int):
    """A ``Stream`` at LCG ``state`` / ``inc``, nothing buffered."""
    from repro.sim.rng import Stream

    stream = Stream(0)
    stream.state, stream.inc, stream.uinteger = state, inc, None
    return stream


def emitting(word: int, hi_bits: int) -> int:
    """A 128-bit LCG state whose XSL-RR output is ``word``.

    A state ``s`` outputs ``rotr64(hi ^ lo, hi >> 58)``; any ``hi`` works
    (``hi_bits`` picks it), and then ``lo = rotl64(word, rot) ^ hi``.
    """
    hi = hi_bits & _M64
    rot = hi >> 58
    return hi << 64 | ((word << rot | word >> (64 - rot)) & _M64) ^ hi


def state_before(first: int, second: int, hi_bits: int) -> tuple:
    """``(state, inc)`` whose next two output words are ``first``, ``second``.

    Pick states ``s1`` and ``s2`` emitting the two words; the increment is
    then ``s2 - s1 * MULT`` (odd: bit 0 of ``s1``'s ``hi`` fixes the parity
    without moving its rotation) and the state before ``s1`` is
    ``(s1 - inc) * MULT^-1`` mod 2**128.
    """
    s2 = emitting(second, hi_bits >> 64)
    s1 = emitting(first, hi_bits)
    if not (s2 - s1) & 1:
        s1 = emitting(first, hi_bits ^ 1)
    inc = (s2 - s1 * MULT) & _M128
    return (s1 - inc) * MULT_INV & _M128, inc
