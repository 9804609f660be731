"""Classical building blocks at desk-scale parameters.

A trapdoor permutation family (textbook RSA over Z_N^* with small safe
primes), its inner-product hard-core bit (`hardcore_bit`), the
iterated-permutation pseudorandom generator that emits hard-core bits, a
GGM tree PRF on top of it, and a lazily sampled truly-random function
oracle.

None of this is cryptographically strong: moduli fit in ~8-20 bits so
that permutation and inversion properties can be checked exhaustively.
What is exercised here is functionality and the reductions between the
pieces, never asymptotic hardness.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import (DimensionMismatchError, EnumerationCapError, MalformedKeyError,
                     ParameterError, QelabError)
from .rng import Stream, is_bitstring

EXHAUSTIVE_DOMAIN_CAP = 1 << 20
MAX_SECURITY = 12


class DomainError(QelabError, ValueError):
    """An element lies outside the permutation's domain."""


# ---------------------------------------------------------------------------
# Toy trapdoor permutation family
# ---------------------------------------------------------------------------


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31):
        if n == p:
            return True
        if n % p == 0:
            return False
    i = 37
    while i * i <= n:
        if n % i == 0:
            return False
        i += 2
    return True


@lru_cache(maxsize=None)
def _safe_primes_between(lo: int, hi: int) -> tuple[int, ...]:
    """Primes p in (lo, hi) with (p-1)/2 also prime.

    Cached: keygen asks for the same range every time, and the ranges are
    bounded by MAX_SECURITY.
    """
    return tuple(
        p for p in range(max(lo, 5) | 1, hi, 2)
        if _is_prime(p) and _is_prime((p - 1) // 2)
    )


@dataclass(frozen=True)
class TowpIndex:
    """Public description of one permutation: modulus, exponent, hard-core mask."""

    modulus: int
    exponent: int
    mask: int

    @property
    def element_width(self) -> int:
        return self.modulus.bit_length()


@dataclass(frozen=True)
class TowpTrapdoor:
    """Private inversion data: modulus plus the inverse exponent."""

    modulus: int
    inverse_exponent: int


class ToyRsaPermutationFamily:
    """x -> x^e mod N over Z_N^*, with N a product of two small safe primes.

    The security parameter only sizes the modulus (roughly 2n bits, floor 8);
    exhaustive checks over the whole domain are what make this family useful
    on a desk, and they are guarded by `EXHAUSTIVE_DOMAIN_CAP`.
    """

    def __init__(self, security: int):
        if not 1 <= security <= MAX_SECURITY:
            raise DomainError(f"security parameter {security} outside 1..{MAX_SECURITY}")
        self.security = security
        self.modulus_bits = max(8, 2 * security)

    def generate(self, rng: Stream) -> tuple[TowpIndex, TowpTrapdoor]:
        half = (self.modulus_bits + 1) // 2
        lo, hi = 1 << (half - 1), 1 << (half + 2)
        candidates = _safe_primes_between(lo, hi)
        if len(candidates) < 2:
            raise DomainError(f"no safe prime pair in ({lo}, {hi})")
        p = rng.choice(candidates)
        q = p
        while q == p:
            q = rng.choice(candidates)
        modulus = p * q
        phi = (p - 1) * (q - 1)
        while True:
            e = 3 + 2 * rng.integer((phi - 3) // 2)
            if math.gcd(e, phi) == 1:
                break
        d = pow(e, -1, phi)
        width = modulus.bit_length()
        mask = 1 + rng.integer((1 << width) - 1)
        return TowpIndex(modulus, e, mask), TowpTrapdoor(modulus, d)

    def contains(self, index: TowpIndex, x: int) -> bool:
        return 1 <= x < index.modulus and math.gcd(x, index.modulus) == 1

    def sample(self, index: TowpIndex, rng: Stream) -> int:
        while True:
            x = 1 + rng.integer(index.modulus - 1)
            if math.gcd(x, index.modulus) == 1:
                return x

    def evaluate(self, index: TowpIndex, x: int) -> int:
        if not self.contains(index, x):
            raise DomainError(f"{x} is not a unit mod {index.modulus}")
        return pow(x, index.exponent, index.modulus)

    def iterate(self, index: TowpIndex, x: int, times: int) -> int:
        for _ in range(times):
            x = self.evaluate(index, x)
        return x

    def invert(self, y: int, trapdoor: TowpTrapdoor) -> int:
        if not (1 <= y < trapdoor.modulus and math.gcd(y, trapdoor.modulus) == 1):
            raise DomainError(f"{y} is not a unit mod {trapdoor.modulus}")
        return pow(y, trapdoor.inverse_exponent, trapdoor.modulus)

    def domain(self, index: TowpIndex, cap: int = EXHAUSTIVE_DOMAIN_CAP) -> list[int]:
        if index.modulus > cap:
            raise EnumerationCapError(
                f"domain of modulus {index.modulus} exceeds the cap {cap}"
            )
        residues = np.arange(1, index.modulus, dtype=np.int64)
        return residues[np.gcd(residues, index.modulus) == 1].tolist()

    def encode_element(self, index: TowpIndex, x: int) -> str:
        if not (0 <= x < (1 << index.element_width)):
            raise DomainError(f"{x} does not fit in {index.element_width} bits")
        return format(x, f"0{index.element_width}b")

    def decode_element(self, index: TowpIndex, bits: str) -> int:
        if len(bits) != index.element_width or not is_bitstring(bits):
            raise MalformedKeyError(
                f"tag must be {index.element_width} bits of 0/1, got {bits!r}"
            )
        return int(bits, 2)


# ---------------------------------------------------------------------------
# Hard-core predicate
# ---------------------------------------------------------------------------


def hardcore_bit(index: TowpIndex, x: int) -> int:
    """The inner-product hard-core bit: parity of the bits of x under the index's mask.

    The formula is total (the all-zero input has empty parity 0); domain
    membership is the caller's concern, which `prg_iterated` checks for its
    seed.
    """
    if x < 0:
        raise DomainError("predicate inputs are nonnegative integers")
    return (x & index.mask).bit_count() & 1


# ---------------------------------------------------------------------------
# Pseudorandom generator from iterated permutation + hard-core bits
# ---------------------------------------------------------------------------


def prg_iterated(
    family: ToyRsaPermutationFamily,
    index: TowpIndex,
    seed: int,
    out_len: int,
) -> str:
    """Emit out_len hard-core bits of the reversed iterate chain.

    Output bit j (1-indexed) is `hardcore_bit` at the (out_len - j)-th
    iterate of the seed, so the string reads: last iterate's bit first,
    the seed's own bit last.
    """
    if out_len < 1:
        raise DimensionMismatchError("output length must be at least 1")
    if not family.contains(index, seed):
        raise DomainError(f"seed {seed} is not in the domain of {index.modulus}")
    bits = []
    x = seed
    for _ in range(out_len):
        bits.append(str(hardcore_bit(index, x)))
        x = family.evaluate(index, x)
    return "".join(reversed(bits))


def embed_seed(index: TowpIndex, bits: str) -> int:
    """Deterministically map an arbitrary bitstring into the domain."""
    if bits == "" or not is_bitstring(bits):
        raise MalformedKeyError(f"seed must be a nonempty 0/1 string, got {bits!r}")
    n = index.modulus
    x = int(bits, 2) % (n - 1) + 1
    while math.gcd(x, n) != 1:
        x = x % (n - 1) + 1
    return x


class IteratedPermutationPrg:
    """seed_len -> out_len expansion via `prg_iterated`, with seed embedding.

    Tree constructions hand around arbitrary bitstrings, so the seed is
    first embedded into the permutation domain deterministically.
    Expansions are cached per instance, keyed by the seed: the output is
    a fixed function of the seed once the family, index and lengths are
    set, and a tree walk expands the same few seeds over and over.  Only
    validated seeds are cached, so the cache holds at most 2^seed_len
    entries.
    """

    def __init__(
        self,
        family: ToyRsaPermutationFamily,
        index: TowpIndex,
        seed_len: int,
        out_len: int,
    ):
        if seed_len < 1 or out_len < 1:
            raise DimensionMismatchError("seed_len and out_len must be positive")
        self.family = family
        self.index = index
        self.seed_len = seed_len
        self.out_len = out_len
        self._memo: dict[str, str] = {}

    def expand(self, seed: str) -> str:
        hit = self._memo.get(seed)
        if hit is None:
            if len(seed) != self.seed_len or not is_bitstring(seed):
                raise MalformedKeyError(
                    f"seed must be {self.seed_len} bits of 0/1, got {seed!r}"
                )
            d = embed_seed(self.index, seed)
            hit = prg_iterated(self.family, self.index, d, self.out_len)
            self._memo[seed] = hit
        return hit


class ConstantPrg:
    """Degenerate generator returning a fixed string; a broken stand-in."""

    def __init__(self, seed_len: int, output: str):
        self.seed_len = seed_len
        self.out_len = len(output)
        self.output = output

    def expand(self, seed: str) -> str:
        if len(seed) != self.seed_len:
            raise MalformedKeyError(f"seed must be {self.seed_len} bits")
        return self.output


# ---------------------------------------------------------------------------
# GGM tree PRF
# ---------------------------------------------------------------------------


class GgmPrf:
    """Tree PRF: walk input bits through halves of a length-doubling generator.

    State starts at the key; input bit 0 keeps the left half of the
    expansion, bit 1 the right half.  The final state is truncated when
    the output is shorter than a seed, and stretched by iterated
    expansion when it is longer.  `evaluate` walks one root-to-leaf path;
    `evaluate_all` builds the whole tree of one key level by level, so
    each node is expanded once rather than once per leaf below it.
    """

    def __init__(self, prg, in_len: int, out_len: int):
        if prg.out_len != 2 * prg.seed_len:
            raise DimensionMismatchError(
                f"tree construction needs a length-doubling generator, "
                f"got {prg.seed_len} -> {prg.out_len}"
            )
        self.prg = prg
        self.key_len = prg.seed_len
        self.in_len = in_len
        self.out_len = out_len

    def evaluate(self, key: str, x: str) -> str:
        self._check_key(key)
        if len(x) != self.in_len or not is_bitstring(x):
            raise MalformedKeyError(f"input must be {self.in_len} bits, got {x!r}")
        state = key
        s = self.key_len
        for bit in x:
            expansion = self.prg.expand(state)
            state = expansion[:s] if bit == "0" else expansion[s:]
        return self._leaf_output(state)

    def evaluate_all(self, key: str) -> list[str]:
        """`evaluate(key, x)` for every input x, in lexicographic order of x.

        A level holds at most 2^key_len distinct states however deep the
        tree is, so each level expands its distinct states once.
        """
        self._check_key(key)
        s = self.key_len
        level = [key]
        for _ in range(self.in_len):
            halves = {}
            for state in dict.fromkeys(level):
                expansion = self.prg.expand(state)
                halves[state] = (expansion[:s], expansion[s:])
            level = [child for state in level for child in halves[state]]
        outputs = {state: self._leaf_output(state) for state in dict.fromkeys(level)}
        return [outputs[state] for state in level]

    def _check_key(self, key: str) -> None:
        if not isinstance(key, str) or len(key) != self.key_len or not is_bitstring(key):
            raise MalformedKeyError(f"key must be {self.key_len} bits, got {key!r}")

    def _leaf_output(self, state: str) -> str:
        """A leaf's state truncated, or stretched by iterated expansion, to out_len."""
        s = self.key_len
        if self.out_len <= s:
            return state[: self.out_len]
        acc = ""
        while len(acc) < self.out_len:
            expansion = self.prg.expand(state)
            acc += expansion
            state = expansion[:s]
        return acc[: self.out_len]


class ConstantPrf:
    """All-outputs-equal function; the canonical broken PRF."""

    def __init__(self, key_len: int, in_len: int, out_len: int, output: str | None = None):
        self.key_len = key_len
        self.in_len = in_len
        self.out_len = out_len
        self.output = output if output is not None else "0" * out_len
        if len(self.output) != out_len:
            raise MalformedKeyError("constant output has the wrong length")

    def evaluate(self, key: str, x: str) -> str:
        self._check_key(key)
        if len(x) != self.in_len:
            raise MalformedKeyError("key or input has the wrong length")
        return self.output

    def evaluate_all(self, key: str) -> list[str]:
        """`evaluate(key, x)` for every input x, in lexicographic order of x."""
        self._check_key(key)
        return [self.output] * (1 << self.in_len)

    def _check_key(self, key: str) -> None:
        if not isinstance(key, str) or len(key) != self.key_len:
            raise MalformedKeyError(f"key must be {self.key_len} bits, got {key!r}")


# ---------------------------------------------------------------------------
# Truly random function oracle
# ---------------------------------------------------------------------------


class RandomFunctionOracle:
    """A lazily sampled uniform function {0,1}^m -> {0,1}^l, called as one.

    Outputs are derived from a named child stream per input, so the
    function is consistent across queries, independent of query order,
    and identical for two oracles built from the same stream.  Instances
    memoize and are meant to live inside a single game run.
    """

    def __init__(self, in_len: int, out_len: int, rng: Stream):
        self.in_len = in_len
        self.out_len = out_len
        self._rng = rng
        self._memo: dict[str, str] = {}

    def __call__(self, x: str) -> str:
        if len(x) != self.in_len or not is_bitstring(x):
            raise MalformedKeyError(f"query must be {self.in_len} bits, got {x!r}")
        hit = self._memo.get(x)
        if hit is None:
            hit = self._rng.child(f"x{x}").bits(self.out_len)
            self._memo[x] = hit
        return hit


# ---------------------------------------------------------------------------
# PRF distinguishing experiment
# ---------------------------------------------------------------------------


def prf_distinguisher_advantage(distinguisher, prf, trials: int, rng: Stream):
    """Estimate |Pr[D^(f_k) = 1] - Pr[D^g = 1]| by sampling both arms.

    `distinguisher(oracle, rng) -> bit` receives classical oracle access
    only.  Each trial draws a fresh key (resp. fresh random function).
    """
    from .estimate import AdvantageEstimate, wilson_halfwidth

    if trials < 1:
        raise ParameterError("trials must be at least 1")
    real_hits = 0
    ideal_hits = 0
    for t in range(trials):
        r = rng.child(f"real{t}")
        key = r.child("key").bits(prf.key_len)
        oracle = lambda x, _k=key: prf.evaluate(_k, x)
        real_hits += 1 if distinguisher(oracle, r.child("run")) == 1 else 0

        i = rng.child(f"ideal{t}")
        g = RandomFunctionOracle(prf.in_len, prf.out_len, i.child("fn"))
        ideal_hits += 1 if distinguisher(g, i.child("run")) == 1 else 0

    p_real = real_hits / trials
    p_ideal = ideal_hits / trials
    ci = wilson_halfwidth(real_hits, trials) + wilson_halfwidth(ideal_hits, trials)
    return AdvantageEstimate(
        p_real=p_real,
        p_ideal=p_ideal,
        advantage=abs(p_real - p_ideal),
        ci_halfwidth=ci,
        trials=trials,
        exact=False,
    )
