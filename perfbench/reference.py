"""Classical references and the correctness gate for benchmark reports.

Every game in the benchmark uses the readout roles: the plaintext (or the
classical target) is the all-ones basis string, and the test succeeds iff
the measured payload reads all ones.  A pad X^a Z^b flips exactly the
measured bits selected by its X mask `a` (pad bits 0, 2, 4, ...), so

* the real arm succeeds iff the pad's X mask is all zeros, and
* the zeroed (ideal) arm succeeds iff the pad's X mask is all ones.

The references below count such pads over each game's coin space with
integers and Fractions.  They never call `qelab.quantum`; pads come from
the classical primitives or, for `pke-towp`, from modular arithmetic
written out here.
"""

from __future__ import annotations

import math
from fractions import Fraction

# Sampled estimates must contain the exact value inside a Wilson score
# interval at this z, well beyond the reports' own 95% (z = 1.96): one
# honest check fails with probability below 1e-6.
GATE_Z = 5.0
ALGEBRA_TOL = 1e-10


class GateError(Exception):
    """A report disagrees with its reference."""


def readout_shares(pads: list[str]) -> tuple[Fraction, Fraction]:
    """(Pr[X mask all 0], Pr[X mask all 1]) over equally weighted pads."""
    zeros = sum(1 for pad in pads if "1" not in pad[0::2])
    ones = sum(1 for pad in pads if "0" not in pad[0::2])
    return Fraction(zeros, len(pads)), Fraction(ones, len(pads))


def ske_prf_pads(seed: int, n: int, qubits: int) -> list[str]:
    """PRF pads over every key x every tag, as `qelab ... --seed` builds the scheme."""
    from qelab import Stream, build_scheme

    scheme = build_scheme("ske-prf", n, qubits, Stream(seed))
    keys = [format(k, f"0{n}b") for k in range(1 << n)]
    tags = [format(t, f"0{2 * qubits}b") for t in range(1 << (2 * qubits))]
    return [scheme.prf.evaluate(k, t) for k in keys for t in tags]


def pke_fixed_key_pads(seed: int, n: int, qubits: int) -> list[str]:
    """Pads over the whole domain of the key that exact mode draws.

    Exact mode cannot enumerate `pke-towp` keys, so it plays one key drawn
    from the game's "fixed-key" stream; the pad of a domain element d is
    the hard-core bits of d's iterates, last iterate first.
    """
    from qelab import Stream, ToyRsaPermutationFamily

    index, _ = ToyRsaPermutationFamily(n).generate(Stream(seed).child("fixed-key"))
    modulus, exponent, mask = index.modulus, index.exponent, index.mask
    pads = []
    for d in range(1, modulus):
        if math.gcd(d, modulus) != 1:
            continue
        bits = []
        x = d
        for _ in range(2 * qubits):
            bits.append("1" if (x & mask).bit_count() & 1 else "0")
            x = pow(x, exponent, modulus)
        pads.append("".join(reversed(bits)))
    return pads


def _is_prime(p: int) -> bool:
    return p >= 2 and all(p % f for f in range(2, math.isqrt(p) + 1))


def key_prime_pairs(n: int) -> list[tuple[int, int]]:
    """Ordered pairs of distinct safe primes that keygen picks from, uniformly."""
    half = (max(8, 2 * n) + 1) // 2
    lo, hi = 1 << (half - 1), 1 << (half + 2)
    primes = [p for p in range(lo + 1, hi) if _is_prime(p) and _is_prime((p - 1) // 2)]
    return [(p, q) for p in primes for q in primes if p != q]


def pke_sampled_readout(n: int) -> tuple[Fraction, Fraction]:
    """Readout shares of one-qubit `pke-towp` when every trial draws a fresh key.

    With one qubit the X bit is the hard-core bit of f(d); f permutes the
    domain D, so the real arm wins with the share of y in D whose masked
    parity is even.  Averaged over the uniform nonzero mask below 2^w
    (w = bit length of N), the character sum over masks gives exactly
    (2^(w-1) - 1) / (2^w - 1), whatever D is.
    """
    real = Fraction(0)
    pairs = key_prime_pairs(n)
    for p, q in pairs:
        w = (p * q).bit_length()
        real += Fraction((1 << (w - 1)) - 1, (1 << w) - 1)
    real /= len(pairs)
    return real, 1 - real


def hidden_bit_success(real: Fraction, ideal: Fraction) -> Fraction:
    """Pr[guess = b] when b picks the genuine (1) or the zeroed (0) message."""
    return (real + 1 - ideal) / 2


# ---------------------------------------------------------------------------
# Report checks
# ---------------------------------------------------------------------------


def require(condition: bool, message: str) -> None:
    if not condition:
        raise GateError(message)


def wilson_bounds(successes: int, trials: int, z: float = GATE_Z) -> tuple[float, float]:
    p = successes / trials
    denom = 1.0 + z * z / trials
    center = (p + z * z / (2 * trials)) / denom
    half = (z / denom) * math.sqrt(p * (1 - p) / trials + z * z / (4 * trials * trials))
    return center - half, center + half


def require_within(estimate: float, trials: int, exact: Fraction, label: str) -> None:
    successes = round(estimate * trials)
    require(abs(successes - estimate * trials) < 1e-6, f"{label}: {estimate} is not k/{trials}")
    lo, hi = wilson_bounds(successes, trials)
    require(
        lo - 1e-12 <= exact <= hi + 1e-12,
        f"{label}: exact {float(exact):.6f} outside [{lo:.6f}, {hi:.6f}] "
        f"around {estimate} over {trials} trials",
    )


def check_header(report: dict, command: str, seed: int) -> None:
    require(report["command"] == command, f"report is for {report['command']!r}")
    require(report["config"]["seed"] == seed, "report echoes another seed")
    require(report["pass"] is True, "report says pass: false")


def check_exact_game(report: dict, seed: int, real: Fraction, ideal: Fraction) -> None:
    check_header(report, "game", seed)
    (row,) = report["results"]
    require(row["exact"] is True and row["trials"] == 0, "not an exact result")
    require(row["p_real"] == float(real), f"p_real {row['p_real']} != {real}")
    require(row["p_ideal"] == float(ideal), f"p_ideal {row['p_ideal']} != {ideal}")
    require(row["advantage"] == float(abs(real - ideal)), "advantage != |p_real - p_ideal|")


def check_sampled_game(report: dict, seed: int, trials: int,
                       real: Fraction, ideal: Fraction) -> None:
    check_header(report, "game", seed)
    (row,) = report["results"]
    require(row["exact"] is False and row["trials"] == trials, "not a sampled result")
    require_within(row["p_real"], trials, real, "p_real")
    require_within(row["p_ideal"], trials, ideal, "p_ideal")


def check_cca1_to_prf(report: dict, seed: int, trials: int,
                      real: Fraction, ideal: Fraction) -> None:
    """The hidden-bit attack and the PRF distinguisher built from it."""
    check_header(report, "reduce", seed)
    attack, prf = report["results"]
    success = hidden_bit_success(real, ideal)
    require(attack["stage"] == "scheme-attack" and prf["stage"] == "prf-distinguisher",
            "unexpected reduction stages")
    require_within(attack["p_real"], trials, success, "scheme-attack p_real")
    require(attack["p_ideal"] == 0.5, "hidden-bit baseline is not 1/2")
    require_within(prf["p_real"], trials, success, "keyed-oracle acceptance")
    # A truly random function pads uniformly: the attack guesses at 1/2.
    require_within(prf["p_ideal"], trials, Fraction(1, 2), "random-oracle acceptance")


def check_correctness(report: dict, seed: int, keys: int) -> None:
    check_header(report, "correctness", seed)
    rows = report["results"]
    require(len(rows) == keys + 1, f"{len(rows)} rows for {keys} keys plus the fixture")
    for row in rows[:-1]:
        require(row["max_roundtrip_distance"] <= ALGEBRA_TOL, "round trip is not the identity")
        require(row["choi_distance"] <= ALGEBRA_TOL, "round-trip channel is not the identity")
    require(rows[-1]["roundtrip_distance"] <= ALGEBRA_TOL, "wire-format fixture does not decrypt")


def check_qotp_mix(report: dict, seed: int, states: int) -> None:
    check_header(report, "qotp-mix", seed)
    rows = report["results"]
    require(len(rows) == states, f"{len(rows)} rows for {states} battery states")
    for row in rows:
        require(row["distance_from_mixed"] <= ALGEBRA_TOL,
                f"pad average of {row['state']} is not maximally mixed")
