"""Deterministic named random streams.

Every stochastic operation in the library takes an explicit `Stream`.
Streams are backed by the Philox counter-based generator; independent
substreams are derived by name (SHA-256 of the seed and path), so a
result never depends on call order elsewhere in the program and is
byte-identical across runs and platforms.

A stream is fully determined by its seed and path, so it builds its
Philox only on its first draw: a stream that is only ever a parent costs
a tuple, not a generator.
"""

from __future__ import annotations

import hashlib
from fractions import Fraction

import numpy as np

from .errors import ParameterError


class Stream:
    """A reproducible random stream with named, independent children."""

    __slots__ = ("seed", "path", "_gen")

    def __init__(self, seed: int, path: tuple[str, ...] = ()):
        seed = int(seed)
        if not 0 <= seed < 2**64:
            raise ParameterError("seed must be a 64-bit unsigned integer")
        self.seed = seed
        self.path = tuple(str(p) for p in path)
        self._gen = None

    def _generator(self) -> np.random.Generator:
        if self._gen is None:
            material = f"{self.seed}|" + "/".join(self.path)
            digest = hashlib.sha256(material.encode("utf-8")).digest()
            key = np.frombuffer(digest[:16], dtype=np.uint64)
            self._gen = np.random.Generator(np.random.Philox(key=key))
        return self._gen

    def child(self, label: str) -> "Stream":
        """An independent stream addressed by `label` under this one."""
        return Stream(self.seed, self.path + (str(label),))

    def bits(self, count: int) -> str:
        """A uniform bitstring of the given length, as a str of 0/1."""
        if count == 0:
            return ""
        draw = self._generator().integers(0, 2, size=int(count))
        return "".join("1" if b else "0" for b in draw)

    def integer(self, bound: int) -> int:
        """Uniform integer in [0, bound)."""
        if bound <= 0:
            raise ValueError("bound must be positive")
        return int(self._generator().integers(0, bound))

    def choice(self, seq):
        return seq[self.integer(len(seq))]

    def uniform(self) -> float:
        return float(self._generator().random())

    def bernoulli(self, p) -> bool:
        """One biased coin flip; exact when `p` is a Fraction.

        A certain outcome (`p <= 0` or `p >= 1`) draws nothing.
        """
        if p <= 0:
            return False
        if p >= 1:
            return True
        if isinstance(p, Fraction):
            return self.integer(p.denominator) < p.numerator
        return self.uniform() < float(p)

    def numpy(self) -> np.random.Generator:
        """The underlying generator, for float-valued sampling (never exact)."""
        return self._generator()

    def __repr__(self):
        return f"Stream(seed={self.seed}, path={'/'.join(self.path)!r})"
