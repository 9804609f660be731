"""Advantage estimation: exact enumeration or Monte-Carlo with Wilson CIs.

A *game arm* is a weighted mixture of Bernoulli branches.  Exact mode sums
weight x success-probability over every branch with Fraction arithmetic
(so an advantage of zero is literally zero); sampling mode draws a branch,
then a Bernoulli outcome, per trial.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import islice
from typing import Callable, Iterable, Optional

from .errors import EnumerationCapError
from .rng import Stream

ENUM_CAP_DEFAULT = 1 << 20
_Z95 = 1.959963984540054


def wilson_halfwidth(successes: int, trials: int, z: float = _Z95) -> float:
    """Half-width of the 95% Wilson score interval around the point estimate."""
    if trials <= 0:
        raise ValueError("trials must be positive")
    p = successes / trials
    denom = 1.0 + z * z / trials
    return (z / denom) * math.sqrt(p * (1.0 - p) / trials + z * z / (4.0 * trials * trials))


@dataclass(frozen=True)
class AdvantageEstimate:
    """Real-vs-ideal success probabilities from one security-game run.

    `ci_halfwidth`, reported as `ci`, is the sum of the two arms' 95%
    Wilson half-widths; a single-arm game, whose ideal probability is the
    fixed 1/2, carries its one arm's half-width.  If both arms' intervals
    cover, the true advantage lies within +/- `ci` of the reported one, so
    by the union bound that holds with probability at least about 90%.
    Exact estimates carry 0.
    """

    p_real: float
    p_ideal: float
    advantage: float
    ci_halfwidth: float
    trials: int
    exact: bool
    p_real_exact: Optional[Fraction] = field(default=None, repr=False)
    p_ideal_exact: Optional[Fraction] = field(default=None, repr=False)

    def __post_init__(self):
        for p in (self.p_real, self.p_ideal):
            if not -1e-12 <= p <= 1 + 1e-12:
                raise ValueError(f"probability {p} outside [0, 1]")
        if self.exact and self.ci_halfwidth != 0.0:
            raise ValueError("exact estimates carry no confidence interval")

    @property
    def advantage_exact(self) -> Optional[Fraction]:
        if self.p_real_exact is None or self.p_ideal_exact is None:
            return None
        return abs(self.p_real_exact - self.p_ideal_exact)

    def to_dict(self) -> dict:
        return {
            "p_real": float(self.p_real),
            "p_ideal": float(self.p_ideal),
            "advantage": float(self.advantage),
            "ci": float(self.ci_halfwidth),
            "trials": int(self.trials),
            "exact": bool(self.exact),
        }


class GameArm:
    """One arm of a game: one arm, two interpreters.

    `branches()` is the arm's coin tree played by the exact interpreter:
    it yields (weight, success_probability) pairs as Fractions.
    `sample_probability(rng)` is the same tree played by the sampling
    interpreter: the success probability of one randomly realized branch
    (a float), from which a Bernoulli outcome is drawn.  The games build
    both from one definition (`games.game_arm`); either half may be
    missing when a role only supports one mode.
    """

    def __init__(
        self,
        branches: Optional[Callable[[], Iterable[tuple[Fraction, Fraction]]]] = None,
        sample_probability: Optional[Callable[[Stream], float]] = None,
    ):
        self._branches = branches
        self._sampler = sample_probability

    def exact_probability(self, cap: int = ENUM_CAP_DEFAULT) -> Fraction:
        """Sum weight x probability over every branch, as a Fraction.

        Weights and probabilities are ints or Fractions, and the weights must
        sum to exactly 1.  Branches share their weight and probability
        objects (one weight per scope, one probability per pad), so a branch
        whose two objects are those of the branch before it only lengthens
        the current run.  Each run is tallied once, by its (weight,
        probability) pair as four ints, because hashing a Fraction is slow,
        and the Fraction arithmetic then runs once per distinct pair.  At
        most `cap + 1` branches are pulled; pulling the last one refuses the
        enumeration.
        """
        if self._branches is None:
            raise EnumerationCapError("this arm does not support exact enumeration")
        tally = Counter()
        leaves = run = 0
        key = None
        last_weight = last_p = object()
        for weight, p in islice(self._branches(), cap + 1):
            if p is last_p and weight is last_weight:
                run += 1
                continue
            if run:
                tally[key] += run
                leaves += run
            if weight is not last_weight:
                last_weight, wn, wd = weight, weight.numerator, weight.denominator
            if p is not last_p:
                last_p, pn, pd = p, p.numerator, p.denominator
            key = wn, wd, pn, pd
            run = 1
        if run:
            tally[key] += run
            leaves += run
        if leaves > cap:
            raise EnumerationCapError(f"enumeration exceeded the cap of {cap} branches")
        total = Fraction(0)
        weight_seen = Fraction(0)
        for (wn, wd, pn, pd), k in tally.items():
            weight = Fraction(k * wn, wd)
            total += weight * Fraction(pn, pd)
            weight_seen += weight
        if weight_seen != 1:
            raise EnumerationCapError(f"branch weights sum to {weight_seen}, expected 1")
        return total

    def sample(self, rng: Stream) -> int:
        """One trial: the realized branch's success probability, then one coin.

        The coin's `bernoulli` stream is built only when 0 < p < 1, the only
        case in which `Stream.bernoulli` draws.
        """
        if self._sampler is None:
            raise EnumerationCapError("this arm does not support sampling")
        p = self._sampler(rng)
        if p <= 0:
            return 0
        if p >= 1:
            return 1
        return 1 if rng.child("bernoulli").bernoulli(p) else 0


def estimate_probability(
    arm: GameArm,
    *,
    exact: bool,
    trials: int,
    rng: Stream,
    cap: int = ENUM_CAP_DEFAULT,
) -> tuple[float, float, Optional[Fraction], int]:
    """(point estimate, ci halfwidth, exact fraction or None, trials used)."""
    if exact:
        p = arm.exact_probability(cap)
        return float(p), 0.0, p, 0
    hits = sum(arm.sample(rng.child(f"t{t}")) for t in range(trials))
    return hits / trials, wilson_halfwidth(hits, trials), None, trials


def estimate(
    real: GameArm,
    ideal: Optional[GameArm] = None,
    *,
    exact: bool,
    trials: int = 1000,
    rng: Stream,
    cap: int = ENUM_CAP_DEFAULT,
) -> AdvantageEstimate:
    """Run a one- or two-arm game and package the result.

    With a single arm the ideal probability is fixed at 1/2 (guessing
    baseline), which is the convention for hidden-bit games.
    """
    p_r, ci_r, fr_r, used = estimate_probability(
        real, exact=exact, trials=trials, rng=rng.child("real"), cap=cap
    )
    if ideal is None:
        p_i, ci_i, fr_i = 0.5, 0.0, Fraction(1, 2)
    else:
        p_i, ci_i, fr_i, _ = estimate_probability(
            ideal, exact=exact, trials=trials, rng=rng.child("ideal"), cap=cap
        )
    if exact:
        adv = abs(fr_r - fr_i)
        return AdvantageEstimate(
            p_real=float(fr_r),
            p_ideal=float(fr_i),
            advantage=float(adv),
            ci_halfwidth=0.0,
            trials=0,
            exact=True,
            p_real_exact=fr_r,
            p_ideal_exact=fr_i,
        )
    return AdvantageEstimate(
        p_real=p_r,
        p_ideal=p_i,
        advantage=abs(p_r - p_i),
        ci_halfwidth=ci_r + ci_i,
        trials=used,
        exact=False,
    )
