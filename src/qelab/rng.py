"""Deterministic named random streams.

Every stochastic operation in the library takes an explicit `Stream`.
Streams are backed by the Philox counter-based generator; independent
substreams are derived by name (SHA-256 of the seed and path), so a
result never depends on call order elsewhere in the program and is
byte-identical across runs and platforms.

A Philox stream is nothing but its key and counter, so streams do not
build generators of their own.  Each thread keeps one scratch Philox,
and a stream draws by loading its state into it: a fresh stream's state
is its SHA-256 key with a zero counter, exactly what `Philox(key=...)`
would start from.  The scratch remembers its current owner and saves the
owner's state back only when another stream takes over while the owner
is still alive, so a short-lived child pays one state load and no save.
A stream that is only ever a parent of other streams costs a tuple.
`numpy()` hands out a private generator, which that stream then keeps.

`bits` on a fresh stream with an even count reads raw 64-bit outputs
instead of calling `integers(0, 2)`.  For a range of two, numpy's
bounded draw (Lemire's method) returns the top bit of each 32-bit word,
low half first, so bit i is the top bit of half i and the stream ends in
the same Philox state.  An odd count, a stream drawn from before (it may
hold a buffered half word) and a stream with a private generator take
numpy's path.

Draw each stream from one thread: per-trial streams keep concurrent
trials safe, and a stream still loaded in another thread's scratch
refuses to draw rather than repeat that thread's values.
"""

from __future__ import annotations

import hashlib
import struct
import threading
import weakref
from fractions import Fraction

import numpy as np

from .errors import ParameterError

_ZEROS = (0, 0, 0, 0)
_INT64_BOUND = 2**63  # the largest bound numpy's int64 `integers` accepts
# Bit 2i and bit 2i+1 of a raw `bits` draw, by the top bits of word i's
# low and high 32-bit halves (low | high << 1).
_BIT_PAIRS = ("00", "10", "01", "11")


def _no_owner():
    return None


class _Scratch:
    """One thread's reusable Philox, its Generator and the stream loaded in it."""

    __slots__ = ("philox", "gen", "owner")

    def __init__(self):
        self.philox = np.random.Philox(key=0)
        self.gen = np.random.Generator(self.philox)
        self.owner = _no_owner  # a weak reference to the loaded stream

    def take(self, stream: "Stream") -> None:
        """Load `stream`, first saving the current owner's state if it lives."""
        _check_holder(stream, self)
        owner = self.owner()
        if owner is not None:
            owner._state = self.philox.state
        self.philox.state = stream._state or stream._fresh_state()
        self.owner = weakref.ref(stream)
        stream._holder = self

    def release(self, stream: "Stream") -> None:
        """Save `stream`'s state back if it is the one loaded here."""
        if self.owner() is stream:
            stream._state = self.philox.state
            self.owner = _no_owner


def _check_holder(stream: "Stream", scratch: _Scratch) -> None:
    holder = stream._holder
    if holder is not None and holder is not scratch and holder.owner() is stream:
        raise RuntimeError(
            f"{stream!r} is loaded in another thread's generator; "
            "draw each stream from one thread"
        )


_local = threading.local()


def _scratch() -> _Scratch:
    """This thread's scratch generator, built on its first use."""
    scratch = getattr(_local, "scratch", None)
    if scratch is None:
        scratch = _local.scratch = _Scratch()
    return scratch


class Stream:
    """A reproducible random stream with named, independent children."""

    __slots__ = ("seed", "path", "_state", "_holder", "_gen", "__weakref__")

    def __init__(self, seed: int, path: tuple[str, ...] = ()):
        seed = int(seed)
        if not 0 <= seed < 2**64:
            raise ParameterError("seed must be a 64-bit unsigned integer")
        self.seed = seed
        self.path = tuple(map(str, path))
        self._state = None  # the saved Philox state; None while fresh
        self._holder = None  # the scratch this stream was last loaded in
        self._gen = None  # the private generator, once `numpy()` built it

    def _fresh_state(self) -> dict:
        """The state `Philox(key=...)` starts from for this stream's key."""
        material = f"{self.seed}|" + "/".join(self.path)
        digest = hashlib.sha256(material.encode("utf-8")).digest()
        return {
            "bit_generator": "Philox",
            "state": {"counter": _ZEROS, "key": struct.unpack("=2Q", digest[:16])},
            "buffer": _ZEROS,
            "buffer_pos": 4,
            "has_uint32": 0,
            "uinteger": 0,
        }

    def _generator(self) -> np.random.Generator:
        if self._gen is not None:
            return self._gen
        scratch = _scratch()
        if scratch.owner() is not self:
            scratch.take(self)
        return scratch.gen

    def child(self, label: str) -> "Stream":
        """An independent stream addressed by `label` under this one."""
        return Stream(self.seed, self.path + (str(label),))

    def bits(self, count: int) -> str:
        """A uniform bitstring of the given length, as a str of 0/1.

        The bits are those of `integers(0, 2, size=count)`.  A fresh stream
        drawing an even count reads `count // 2` raw outputs instead, which
        yield the same bits and leave the same Philox state.
        """
        count = int(count)
        if count < 0:
            raise ValueError(f"bit count must be non-negative, got {count}")
        if count == 0:
            return ""
        if count % 2 == 0 and self._holder is None and self._gen is None:
            scratch = _scratch()
            scratch.take(self)
            words = scratch.philox.random_raw(count // 2).tolist()
            return "".join([_BIT_PAIRS[(w >> 31 & 1) | (w >> 62 & 2)] for w in words])
        return "".join(map(str, self._generator().integers(0, 2, size=count).tolist()))

    def integer(self, bound: int) -> int:
        """Uniform integer in [0, bound).

        A bound above 2^63, which numpy's int64 draw cannot take, is drawn
        by rejection over whole 64-bit words.
        """
        if bound <= 0:
            raise ValueError("bound must be positive")
        if bound <= _INT64_BOUND:
            return int(self._generator().integers(0, bound))
        width = (bound - 1).bit_length()
        words = -(-width // 64)
        raw = self._generator().bit_generator.random_raw
        while True:
            value = 0
            for word in raw(words).tolist():
                value = value << 64 | word
            value >>= 64 * words - width
            if value < bound:
                return value

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
        """This stream's own generator, for float-valued sampling (never exact).

        It starts where the stream's draws so far left off, and every later
        draw of the stream goes through it, so callers may keep it.
        """
        if self._gen is None:
            scratch = _scratch()
            _check_holder(self, scratch)
            scratch.release(self)
            philox = np.random.Philox(key=0)
            philox.state = self._state or self._fresh_state()
            self._gen = np.random.Generator(philox)
            self._state = self._holder = None
        return self._gen

    def __repr__(self):
        return f"Stream(seed={self.seed}, path={'/'.join(self.path)!r})"
