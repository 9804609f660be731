"""Deterministic named random streams.

Every stochastic operation in the library takes an explicit `Stream`: a
seed and a path of labels.  `child(label)` extends the path, so a result
never depends on call order elsewhere in the program and is
byte-identical across runs and platforms.

Derivation version 2 (`STREAM_VERSION`).  A stream's draws are the bits of
the SHA-256 blocks

    SHA-256(f"{seed}|{'/'.join(path)}|" + counter),  counter = 0, 1, 2, ...

with each counter written as 8 big-endian bytes, read most significant bit
first.  This is SHA-256 in counter mode, as in NIST SP 800-90A's
Hash_DRBG, and a counter-based generator in the sense of Salmon et al.,
"Parallel random numbers: as easy as 1, 2, 3" (SC 2011).  Labels are
non-empty and free of "/", and the counter has a fixed width, so two
different (seed, path, counter) triples never give the same hash input.
A stream hashes nothing until it first draws, and keeps the unread bits
of its last block for its next draw.

- `bits(k)` is the next k bits.
- `integer(bound)` reads `(bound - 1).bit_length()` bits and rejects a
  value at or above `bound`, so it is uniform at every bound, with no
  modulo bias.
- `uniform()` is the next 53 bits over 2^53.
- `bernoulli(Fraction)` is exact, through `integer(denominator)`.
- `numpy()` is a Philox generator for float sampling, keyed by the
  stream's next 128 bits.

Draw each stream from one thread; per-trial streams keep concurrent trials
safe.
"""

from __future__ import annotations

import hashlib
import operator
from fractions import Fraction

import numpy as np

from .errors import ParameterError

STREAM_VERSION = 2
_BLOCK_BITS = 256  # one SHA-256 digest


def is_bitstring(bits) -> bool:
    """Whether every element of `bits` is "0" or "1"; an empty `bits` is one.

    Any iterable is checked element by element, and one that is not
    iterable raises `TypeError`; a str is checked in one C call.
    """
    if isinstance(bits, str):
        return not bits.strip("01")
    return all(b in "01" for b in bits)


def _integer(value, what: str) -> int:
    """`value` as an int: Python and numpy integers pass; bool, float and str are refused."""
    if not isinstance(value, bool):
        try:
            return operator.index(value)
        except TypeError:
            pass
    raise ParameterError(f"{what} must be an integer, got {value!r}")


class Stream:
    """A reproducible random stream with named, independent children."""

    __slots__ = ("seed", "path", "_pool", "_left", "_counter", "_gen")

    def __init__(self, seed: int, path: tuple[str, ...] = ()):
        if type(seed) is not int:
            seed = _integer(seed, "seed")
        if not 0 <= seed < 2**64:
            raise ParameterError("seed must be a 64-bit unsigned integer")
        self.seed = seed
        self.path = path = tuple(map(str, path))
        if "" in path or "/" in "".join(path):
            bad = next(label for label in path if not label or "/" in label)
            raise ParameterError(f"stream labels must be non-empty and free of '/', got {bad!r}")
        self._pool = 0  # the unread bits of the blocks hashed so far
        self._left = 0  # how many bits `_pool` holds
        self._counter = 0  # the next block's counter
        self._gen = None  # the Philox generator, once `numpy()` built it

    def _take(self, count: int) -> int:
        """The next `count` bits as an int, the first bit most significant."""
        left = self._left - count
        pool = self._pool
        if left < 0:
            prefix = f"{self.seed}|{'/'.join(self.path)}|".encode()
            counter = self._counter
            while left < 0:
                digest = hashlib.sha256(prefix + counter.to_bytes(8, "big")).digest()
                pool = pool << _BLOCK_BITS | int.from_bytes(digest, "big")
                counter += 1
                left += _BLOCK_BITS
            self._counter = counter
        self._left = left
        self._pool = pool & ((1 << left) - 1)
        return pool >> left

    def child(self, label: str) -> "Stream":
        """An independent stream addressed by `label` (non-empty, no "/") under this one."""
        return Stream(self.seed, self.path + (str(label),))

    def bits(self, count: int) -> str:
        """The next `count` bits of the stream, as a str of 0/1."""
        if type(count) is not int:
            count = _integer(count, "bit count")
        if count <= 0:
            if count < 0:
                raise ParameterError(f"bit count must be non-negative, got {count}")
            return ""
        return bin(self._take(count))[2:].zfill(count)

    def integer(self, bound: int) -> int:
        """Uniform integer in [0, bound), by rejection over `(bound - 1).bit_length()` bits."""
        if type(bound) is not int:
            bound = _integer(bound, "bound")
        if bound <= 0:
            raise ParameterError("bound must be positive")
        width = (bound - 1).bit_length()
        while True:
            value = self._take(width)
            if value < bound:
                return value

    def choice(self, seq):
        return seq[self.integer(len(seq))]

    def uniform(self) -> float:
        """The next 53 bits over 2^53: a multiple of 2^-53 in [0, 1)."""
        return self._take(53) * 2.0**-53

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
        """This stream's own generator, for float-valued sampling (never exact).

        The first call builds `Generator(Philox(key=k))`, where k is the
        stream's next 128 bits read as one unsigned integer; later calls
        return the same generator, so callers may keep it.  The stream's
        own draws go on after those 128 bits and never touch the generator.
        """
        if self._gen is None:
            self._gen = np.random.Generator(np.random.Philox(key=self._take(128)))
        return self._gen

    def __repr__(self):
        return f"Stream(seed={self.seed}, path={'/'.join(self.path)!r})"
