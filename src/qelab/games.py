"""Executable security games.

Seven games are implemented: two-arm distinguishing (plain, with an
encryption oracle, and with a pre-challenge decryption oracle), the
hidden-bit variant, and three flavors of semantic security (distinguisher
with a target register, classical-target comparison, transcript-function
comparison).

One arm, two interpreters: each arm is written once, as a generator
`branches(play)` that loops over `play.coin(label, cases, draw)` at every
coin (key, message case, hidden bit, encryption coins, a role's private
coins) and yields (weight, probability) pairs.  The exact interpreter
`EXACT` returns each coin's declared cases, so the arm multiplies out key
space x encryption coins x role cases and sums Fraction-exact
probabilities; it refuses oracle calls.  The sampling interpreter
`SamplingPlay` returns one case per coin, drawn from the trial stream's
child named by the coin's label, and the game reports Wilson intervals.
Both live in `roles`, next to the `RoleContext` through which a role
draws its own coins from the same tree.  In exact mode an ind game
builds its key and encryption cases once for all its arms, and a
distinguisher that declares `reads_tag = False` is measured once per
distinct pad (`_challenge_probs`); every branch is still enumerated.

Individual trials are independent: each owns its stream, oracle handles
and role state, and aggregation is a pure fold over outcomes, so callers
may fan trials out concurrently.  Enumeration is single-threaded per
game, but separate games can run side by side.  A game's trials share
only one-entry memos (`_LastValueMemo`) of work that does not change
between trials: the zeroed message state and the sem2 classical target.
They hold only immutable values, keyed by the identity of the message
state, so sharing them cannot couple two trials.  Oracle handles derive
their stream on the first call.

Scope note: semantic security quantifies over all adversaries and
simulators; a finite harness can only check named tuples of roles plus
the simulators the reductions construct.  Results here are statements
about those tuples, never about the quantifier.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from itertools import repeat
from typing import Optional

from .errors import EnumerationCapError, OraclePolicyError, ParameterError, RoleError
from .estimate import AdvantageEstimate, GameArm, estimate
from .quantum import (
    MAX_EXHAUSTIVE_QUBITS,
    DensityMatrix,
    Register,
    _split_targets,
    apply_pauli,
    measurement_distribution,
    partial_trace,
    replace_with_zero_state,
    tensor,
    trace_distance,
)
from .rng import Stream
from .roles import (
    EXACT,
    Channel,
    Distinguisher,
    MessageCase,
    MessageGenerator,
    RoleContext,
    SamplingPlay,
    sample_case,
)
from .schemes import Ciphertext, KeyPair, PauliTagScheme

PRE_CHALLENGE = "pre"
POST_CHALLENGE = "post"


# ---------------------------------------------------------------------------
# Oracle policy and handles
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class OraclePolicy:
    """Phase-scoped oracle grants.

    `pre` applies to the message generator (before the challenge), `post`
    to the adversary, simulator and distinguisher.  A decryption grant
    after the challenge is rejected outright: pre-challenge decryption
    access is the ceiling implemented here.
    """

    name: str
    pre: frozenset
    post: frozenset

    def __post_init__(self):
        allowed = {"enc", "dec"}
        if not set(self.pre) <= allowed or not set(self.post) <= allowed:
            raise OraclePolicyError(f"grants must be within {allowed}")
        if "dec" in self.post:
            raise OraclePolicyError("decryption oracles are never granted post-challenge")

    @classmethod
    def plain(cls) -> "OraclePolicy":
        return cls("plain", frozenset(), frozenset())

    @classmethod
    def cpa(cls) -> "OraclePolicy":
        return cls("cpa", frozenset({"enc"}), frozenset({"enc"}))

    @classmethod
    def cca1(cls) -> "OraclePolicy":
        return cls("cca1", frozenset({"enc", "dec"}), frozenset({"enc"}))


POLICIES = {
    "plain": OraclePolicy.plain,
    "cpa": OraclePolicy.cpa,
    "cca1": OraclePolicy.cca1,
}


class Oracles:
    """Budgeted encryption/decryption handles for one role in one phase.

    Encryption call k draws its coins from `rng.child(label).child(f"enc{k}")`.
    The `label` stream is derived on the first call, so a role that never
    calls the oracle derives no stream.
    """

    def __init__(self, scheme: PauliTagScheme, keypair: KeyPair, grants: frozenset,
                 rng: Stream, label: str, budget: int):
        self._scheme = scheme
        self._keypair = keypair
        self.grants = frozenset(grants)
        self._parent, self._label = rng, label
        self._rng = None
        self._budget = budget
        self._calls = 0

    def _tick(self, kind: str):
        if kind not in self.grants:
            raise OraclePolicyError(f"{kind!r} oracle not granted under this policy")
        self._calls += 1
        if self._calls > self._budget:
            raise OraclePolicyError(f"oracle budget of {self._budget} calls exhausted")

    def encrypt(self, rho: DensityMatrix) -> Ciphertext:
        self._tick("enc")
        if self._rng is None:
            self._rng = self._parent.child(self._label)
        return self._scheme.encrypt(
            self._keypair.ek, rho, self._rng.child(f"enc{self._calls}")
        )

    def decrypt(self, ct: Ciphertext) -> DensityMatrix:
        self._tick("dec")
        return self._scheme.decrypt(self._keypair.dk, ct)


# ---------------------------------------------------------------------------
# Game configuration
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GameConfig:
    qubits: int = 1
    trials: int = 1000
    seed: int = 0
    exact: bool = False
    oracle_budget: int = 64

    def __post_init__(self):
        if self.trials < 1:
            raise ParameterError("trials must be at least 1")
        if self.exact:
            _check_exact_qubits(self.qubits)

    def stream(self, label: str) -> Stream:
        return Stream(self.seed).child(label)


# ---------------------------------------------------------------------------
# Shared engine pieces
# ---------------------------------------------------------------------------


def _pk_for(scheme: PauliTagScheme, keypair: KeyPair):
    return keypair.ek if scheme.flavor == "public" else None


def _check_exact_qubits(qubits: int) -> None:
    if qubits > MAX_EXHAUSTIVE_QUBITS:
        raise ParameterError(
            f"exact mode supports at most {MAX_EXHAUSTIVE_QUBITS} plaintext qubits, got {qubits}"
        )


def uniform_cases(values: list) -> list:
    """(weight, value) pairs of a uniform draw from `values`, all sharing one
    `Fraction(1, len(values))`, so `_challenge_probs` multiplies it once per scope."""
    return list(zip(repeat(Fraction(1, len(values))), values))


def _exact_keypairs(scheme: PauliTagScheme, config: GameConfig):
    """Key branches for enumeration mode; falls back to one drawn keypair.

    Every exact game starts here, so the size guard reads the scheme's own
    qubit count before any branch is built.
    """
    _check_exact_qubits(scheme.qubits)
    return uniform_cases(scheme.key_cases() or [scheme.keygen(config.stream("fixed-key"))])


def _pad_message(state: DensityMatrix, case_pad: Optional[str]) -> DensityMatrix:
    return apply_pauli(case_pad, state, "M") if case_pad is not None else state


_EMPTY = (object(), None)


class _LastValueMemo:
    """`fn(value)`, remembered for the last `value` seen, by identity.

    Meant for immutable values such as a message generator's states, which
    a generator with fixed states hands out as one object in every trial.
    The entry is one `(value, result)` tuple, read once per call, so trials
    running side by side never pair one value with another's result; the
    entry also keeps its value alive, so its id cannot be reused.
    """

    __slots__ = ("_fn", "_entry")

    def __init__(self, fn):
        self._fn = fn
        self._entry = _EMPTY

    def __call__(self, value):
        key, result = self._entry
        if key is value:
            return result
        result = self._fn(value)
        self._entry = (value, result)
        return result


def _zeroed_message_memo() -> _LastValueMemo:
    """The message state with M swapped for |0...0>, per last state seen."""
    return _LastValueMemo(lambda state: replace_with_zero_state(state, "M"))


# ---------------------------------------------------------------------------
# One arm, two interpreters
# ---------------------------------------------------------------------------


def game_arm(branches) -> GameArm:
    """Build an arm from its one definition: `branches(play)` yields
    (weight, probability) pairs, looping over `play.coin(...)` at every coin.

    Exact mode plays it with `EXACT`; sampling mode plays it with a
    `SamplingPlay` of the trial's stream and unpacks the single branch.
    """

    def sample_probability(rng: Stream) -> float:
        ((_, p),) = branches(SamplingPlay(rng))
        return p

    return GameArm(lambda: branches(EXACT), sample_probability)


def fair_bit(play, label: str):
    """A uniform bit: 1 and 0 with weight 1/2 each, or one `bernoulli(0.5)` draw."""
    return play.coin(label, lambda: uniform_cases([1, 0]), lambda r: 1 if r.bernoulli(0.5) else 0)


def biased_bit(play, label: str, p):
    """A bit that is 1 with probability `p`."""
    return play.coin(label, lambda: ((p, 1), (1 - p, 0)), lambda r: 1 if r.bernoulli(p) else 0)


def _shared(shared: Optional[dict], key, build):
    """`build()`, run once per `key` when `shared` (a dict scoped to one game) is given.

    A game's arms play the same key and encryption coins, so exact mode
    enumerates them once per game.  The dict lives as long as the game,
    never as long as the scheme.  Sampling never asks for the cases.
    """
    if shared is None:
        return build()
    if key not in shared:
        shared[key] = build()
    return shared[key]


def _keys(play, scheme: PauliTagScheme, config: GameConfig, shared: Optional[dict] = None):
    return play.coin(
        "key",
        lambda: _shared(shared, "key", lambda: _exact_keypairs(scheme, config)),
        scheme.keygen,
    )


def _context(play, scheme, keypair, grants, config: GameConfig, label: str) -> RoleContext:
    return play.context(
        f"{label}-coins",
        lambda rng: Oracles(scheme, keypair, grants, rng, f"{label}-oracle",
                            config.oracle_budget),
        pk=_pk_for(scheme, keypair),
        scheme=scheme,
    )


def message_coin(play, cases: list[MessageCase]):
    """The `mpick` coin over a message generator's weighted cases."""
    return play.coin(
        "mpick", lambda: [(c.weight, c) for c in cases], lambda r: sample_case(cases, r)
    )


def _messages(play, scheme, mgen: MessageGenerator, ctx: RoleContext):
    for w, case in message_coin(play, mgen.cases(ctx.pk, ctx)):
        qubits = case.state.register("M").qubits
        if qubits != scheme.qubits:
            raise RoleError(
                f"message register holds {qubits} qubits, scheme expects {scheme.qubits}"
            )
        yield w, case


def _encryptions(play, scheme: PauliTagScheme, ek, label: str,
                 shared: Optional[dict] = None):
    def cases():
        enumerated = scheme.encrypt_cases(ek)
        if enumerated is None:
            raise EnumerationCapError(
                f"scheme {scheme.name!r} does not enumerate its encryption coins"
            )
        return uniform_cases(enumerated)

    return play.coin(
        label, lambda: _shared(shared, (label, ek), cases),
        lambda r: scheme.sample_encryption(ek, r),
    )


def _challenge_probs(play, dist: Distinguisher, state: DensityMatrix, encryptions,
                     ctx: RoleContext, scope_weight):
    """(branch weight, Pr[dist outputs 1]) for each encryption case of one challenge state.

    The branch weight is `scope_weight` times the case's weight.  The
    product is taken only when the case's weight object differs from the
    previous case's, and `uniform_cases` gives a key's cases one weight
    object, so it is taken once per scope (one key and challenge state).
    A distinguisher that declares `reads_tag = False` sees only the padded
    state, so within the scope each distinct pad is applied and measured
    once and its value serves every tag with that pad.  Every case is
    still yielded.  Sampling yields one case per scope, so nothing is
    reused there.
    """
    by_pad = {}
    last_we = weight = None
    for we, ecase in encryptions:
        if we is not last_we:
            last_we, weight = we, scope_weight * we
        p1 = by_pad.get(ecase.pad)
        if p1 is None:
            p1 = play.prob(dist.prob_one(ecase.tag, _pad_message(state, ecase.pad), ctx))
            if not dist.reads_tag:
                by_pad[ecase.pad] = p1
        yield weight, p1


# ---------------------------------------------------------------------------
# Indistinguishability games
# ---------------------------------------------------------------------------


def _ind_arm(scheme, mgen, dist, policy, config, zero_arm: bool, shared: dict) -> GameArm:
    zeroed = _zeroed_message_memo()

    def branches(play):
        for wk, keypair in _keys(play, scheme, config, shared):
            ctx_pre = _context(play, scheme, keypair, policy.pre, config, "mgen")
            ctx_post = _context(play, scheme, keypair, policy.post, config, "dist")
            for wm, mcase in _messages(play, scheme, mgen, ctx_pre):
                state = zeroed(mcase.state) if zero_arm else mcase.state
                encryptions = _encryptions(play, scheme, keypair.ek, "enc", shared)
                yield from _challenge_probs(play, dist, state, encryptions, ctx_post, wk * wm)

    return game_arm(branches)


def run_ind(scheme, mgen, dist, policy: Optional[OraclePolicy] = None,
            config: Optional[GameConfig] = None) -> AdvantageEstimate:
    """Two-arm distinguishing: genuine message versus zeroed message."""
    policy = policy or OraclePolicy.plain()
    config = config or GameConfig()
    shared = {}
    real = _ind_arm(scheme, mgen, dist, policy, config, zero_arm=False, shared=shared)
    ideal = _ind_arm(scheme, mgen, dist, policy, config, zero_arm=True, shared=shared)
    return estimate(
        real, ideal,
        exact=config.exact, trials=config.trials,
        rng=config.stream("ind"),
    )


def run_ind_prime(scheme, mgen, dist, policy: Optional[OraclePolicy] = None,
                  config: Optional[GameConfig] = None) -> AdvantageEstimate:
    """Hidden-bit variant: report the probability of guessing the bit.

    The returned estimate carries Pr[guess = b] in `p_real`, the guessing
    baseline 1/2 in `p_ideal`, and their distance as the advantage.
    """
    policy = policy or OraclePolicy.plain()
    config = config or GameConfig()

    shared = {}
    zeroed = _zeroed_message_memo()

    def branches(play):
        for wk, keypair in _keys(play, scheme, config, shared):
            ctx_pre = _context(play, scheme, keypair, policy.pre, config, "mgen")
            ctx_post = _context(play, scheme, keypair, policy.post, config, "dist")
            for wm, mcase in _messages(play, scheme, mgen, ctx_pre):
                for wb, hidden_bit in fair_bit(play, "bit"):
                    state = mcase.state if hidden_bit == 1 else zeroed(mcase.state)
                    encryptions = _encryptions(play, scheme, keypair.ek, "enc", shared)
                    for w, p1 in _challenge_probs(play, dist, state, encryptions, ctx_post,
                                                  wk * wm * wb):
                        yield (w, p1 if hidden_bit == 1 else 1 - p1)

    return estimate(
        game_arm(branches), None,
        exact=config.exact, trials=config.trials,
        rng=config.stream("ind-prime"),
    )


def ind_prime_ind_identity_check(scheme, mgen, dist, config: Optional[GameConfig] = None,
                                 policy: Optional[OraclePolicy] = None) -> dict:
    """Check the exact algebra tying the hidden-bit game to the two-arm game.

    For a {0,1}-valued distinguisher D and its negation, enumeration mode
    must satisfy, identically:

        Pr[guess = b] - 1/2       = (Pr[D(real) = 1] - Pr[D(zero) = 1]) / 2
        Pr[flipped guess = b] - 1/2 = -(the same quantity)

    Both sides are computed by their own game, not rearranged from one
    another.  Returns the four quantities and exact-equality flags.
    """
    from .roles import NegatedDistinguisher

    config = replace(config or GameConfig(), exact=True)
    policy = policy or OraclePolicy.plain()

    ind = run_ind(scheme, mgen, dist, policy, config)
    guess = run_ind_prime(scheme, mgen, dist, policy, config)
    guess_flipped = run_ind_prime(scheme, mgen, NegatedDistinguisher(dist), policy, config)

    signed_half = (ind.p_real_exact - ind.p_ideal_exact) / 2
    lhs = guess.p_real_exact - Fraction(1, 2)
    lhs_flipped = guess_flipped.p_real_exact - Fraction(1, 2)
    return {
        "guess_minus_half": float(lhs),
        "half_signed_ind": float(signed_half),
        "flipped_guess_minus_half": float(lhs_flipped),
        "identity_holds": lhs == signed_half,
        "flipped_identity_holds": lhs_flipped == -signed_half,
        "max_residual": float(max(abs(lhs - signed_half), abs(lhs_flipped + signed_half))),
    }


# ---------------------------------------------------------------------------
# Semantic-security games
# ---------------------------------------------------------------------------


def _sem_real_arm(scheme, mgen, adversary, success_fn, policy, config) -> GameArm:
    """success_fn(out_state, mcase, ctx) -> probability of the real arm's event."""

    def branches(play):
        for wk, keypair in _keys(play, scheme, config):
            ctx_pre = _context(play, scheme, keypair, policy.pre, config, "mgen")
            ctx_post = _context(play, scheme, keypair, policy.post, config, "adv")
            for wm, mcase in _messages(play, scheme, mgen, ctx_pre):
                for we, ecase in _encryptions(play, scheme, keypair.ek, "enc"):
                    padded = _pad_message(mcase.state, ecase.pad)
                    for wa, out in adversary.outputs(ecase.tag, padded, ctx_post):
                        yield (wk * wm * we * wa, play.prob(success_fn(out, mcase, ctx_post)))

    return game_arm(branches)


def _sem_ideal_arm(scheme, mgen, simulator, success_fn, drop, policy, config) -> GameArm:
    """Ideal arm: the simulator sees the message case with `drop` traced out."""

    def branches(play):
        for wk, keypair in _keys(play, scheme, config):
            ctx_pre = _context(play, scheme, keypair, policy.pre, config, "mgen")
            ctx_post = _context(play, scheme, keypair, policy.post, config, "sim")
            for wm, mcase in _messages(play, scheme, mgen, ctx_pre):
                visible = partial_trace(
                    mcase.state, [r for r in drop if mcase.state.has_register(r)]
                )
                for ws, out in simulator.outputs(None, visible, ctx_post):
                    yield (wk * wm * ws, play.prob(success_fn(out, mcase, ctx_post)))

    return game_arm(branches)


def run_sem(scheme, mgen, adversary, simulator, dist,
            policy: Optional[OraclePolicy] = None,
            config: Optional[GameConfig] = None) -> AdvantageEstimate:
    """Distinguisher-based semantic security with a target register F.

    Real arm: encrypt M, run the adversary on (ciphertext, E) with F held
    out, then let the distinguisher see (adversary output, F).  Ideal arm:
    the simulator sees only (E, F untouched).
    """
    policy = policy or OraclePolicy.plain()
    config = config or GameConfig()

    def success(out_state, mcase, ctx):
        return dist.prob_one(None, out_state, ctx)

    real = _sem_real_arm(scheme, mgen, adversary, success, policy, config)
    ideal = _sem_ideal_arm(scheme, mgen, simulator, success, ("M",), policy, config)
    return estimate(
        real, ideal,
        exact=config.exact, trials=config.trials,
        rng=config.stream("sem"),
    )


def _classical_target(state: DensityMatrix) -> str:
    """Read the F register's basis value; reject non-classical targets."""
    dist = measurement_distribution(state, "F")
    for outcome, p in dist.items():
        if (isinstance(p, Fraction) and p == 1) or (not isinstance(p, Fraction) and p > 1 - 1e-9):
            point = outcome
            break
    else:
        raise RoleError("target register F is not a computational-basis state")
    # The target must also be unentangled from the rest of the state.
    rest = partial_trace(state, "F")
    from .quantum import basis_state

    rebuilt = tensor(rest, basis_state(point, "F", state.exact))
    if trace_distance(rebuilt, _move_f_last(state)) > 1e-9:
        raise RoleError("target register F is correlated with the message state")
    return point


def _move_f_last(state: DensityMatrix) -> DensityMatrix:
    """Reorder registers so F is last (layout-normal form for comparisons)."""
    if state.names[-1] == "F":
        return state
    split = _split_targets(state, ("F",))
    # Each part is indexed (F, rest, F', rest'); reorder it to (rest, F, rest', F').
    return state._map(
        lambda part: split(part).transpose(1, 0, 3, 2).reshape(state.dim, state.dim),
        split.rest_layout + (Register("F", split.t_qubits),),
    )


def _compare_out(out_state: DensityMatrix, target: str, exact: bool):
    """Probability that the measured OUT register equals the target string.

    A missing or wrongly sized output register counts as failure, matching
    the defined comparison for classical targets.
    """
    zero = Fraction(0) if exact else 0.0
    if not out_state.has_register("OUT"):
        return zero
    if out_state.register("OUT").qubits != len(target):
        return zero
    dist = measurement_distribution(out_state, "OUT")
    return dist.get(target, zero)


def run_sem2(scheme, mgen, adversary, simulator,
             policy: Optional[OraclePolicy] = None,
             config: Optional[GameConfig] = None) -> AdvantageEstimate:
    """Classical-target semantic security.

    The generator's F register must hold a basis string y, unentangled
    with (M, E).  Outputs are measured in the computational basis and
    compared to y; a length mismatch counts as failure.
    """
    policy = policy or OraclePolicy.plain()
    config = config or GameConfig()
    classical_target = _LastValueMemo(_classical_target)

    def success(out_state, mcase, ctx):
        target = classical_target(mcase.state)
        return _compare_out(out_state, target, out_state.exact)

    class _FBlindChannel(Channel):
        def __init__(self, inner):
            self.inner = inner

        def outputs(self, tag, state, ctx):
            me = partial_trace(state, "F") if state.has_register("F") else state
            return self.inner.outputs(tag, me, ctx)

    real = _sem_real_arm(scheme, mgen, _FBlindChannel(adversary), success, policy, config)
    ideal = _sem_ideal_arm(
        scheme, mgen, _FBlindChannel(simulator), success, ("M", "F"), policy, config
    )
    return estimate(
        real, ideal,
        exact=config.exact, trials=config.trials,
        rng=config.stream("sem2"),
    )


@dataclass(frozen=True)
class GeneratorFunctionPair:
    """A message generator together with the public circuit applied to its transcript."""

    mgen: MessageGenerator
    fn: object  # ClassicalFunction


def run_sem3(scheme, pair: GeneratorFunctionPair, adversary, simulator,
             policy: Optional[OraclePolicy] = None,
             config: Optional[GameConfig] = None) -> AdvantageEstimate:
    """Transcript-function semantic security.

    The generator declares the transcript x of its measurements; both the
    adversary's and the simulator's measured outputs are compared against
    fn(pk, x).  The function's declared arity must match the transcript.
    """
    policy = policy or OraclePolicy.plain()
    config = config or GameConfig()
    mgen, fn = pair.mgen, pair.fn

    def success(out_state, mcase, ctx):
        if mcase.transcript is None:
            raise RoleError("this game needs a generator that declares its transcript")
        target = fn.evaluate(ctx.pk, mcase.transcript)
        return _compare_out(out_state, target, out_state.exact)

    real = _sem_real_arm(scheme, mgen, adversary, success, policy, config)
    ideal = _sem_ideal_arm(scheme, mgen, simulator, success, ("M", "F"), policy, config)
    return estimate(
        real, ideal,
        exact=config.exact, trials=config.trials,
        rng=config.stream("sem3"),
    )


GAME_NAMES = ("ind", "ind-prime", "ind-cpa", "ind-cca1", "sem", "sem2", "sem3")
