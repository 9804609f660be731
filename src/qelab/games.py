"""Executable security games.

Seven games are implemented: two-arm distinguishing (plain, with an
encryption oracle, and with a pre-challenge decryption oracle), the
hidden-bit variant, and three flavors of semantic security (distinguisher
with a target register, classical-target comparison, transcript-function
comparison).

One arm, two interpreters, one skeleton.  Every arm of every game is
built by `_arm`: the key coin, the message generator's `mgen` context,
the answering role's context (`dist`, `adv` or `sim`) and the `mpick`
message coin, then the game's view of the challenge, which loops over
its own coins (hidden bit, encryption coins, a role's private coins) and
yields (weight, probability) pairs.  The games differ only in that view,
and every game ends through `_play`.  Each coin is `play.coin(label,
cases, draw)`.  The exact interpreter `ExactPlay` returns each coin's
declared cases, so the arm multiplies out key space x encryption coins x
role cases and sums Fraction-exact probabilities; it refuses oracle
calls.  The sampling interpreter `SamplingPlay` returns one case per
coin, drawn from the trial stream's child named by the coin's label, and
the game reports Wilson intervals.  Both live in `roles`.  A role's
context is `play.context(...)`, an interpreter of the same kind rooted
at the role's own coins, so the role draws them from the same tree; it
carries the game's public key, scheme and oracle handles (`Oracles`,
which refuse every call in exact mode).  Each game plays both its arms
with one `ExactPlay`, whose memo (`keep`) its role contexts share, so the
game lists its key and encryption cases once, a simulator's own key and
encryption cases included.  For a distinguisher that declares `reads_tag
= False` it also counts each key's cases by pad once, and measures each
distinct pad once per game and challenge state (`_challenge_probs`).
Every branch is still yielded: a pad's cases come as a run of one shared
branch tuple, which `GameArm.exact_probability` tallies once.

Individual trials are independent: each owns its stream, oracle handles
and role state, and aggregation is a pure fold over outcomes, so callers
may fan trials out concurrently.  Enumeration is single-threaded per
game, but separate games can run side by side.  A game's trials share
only results of work that does not change between trials: the kernel
results a shared message state keeps in its own memo (its zeroed form,
its padded forms, their measurement distributions), the sem2 classical
target in a one-entry `_LastValueMemo`, and each sampled arm's branch
memo.  The memos hold only immutable results of immutable inputs, so
sharing them cannot couple two trials.

The branch memo (`_BranchMemo`) is a trie of the coins an arm's trials
drew, keyed by drawn value, with each complete branch's success
probability at its leaf.  An arm has one when its message generator and
every role its view calls declare `pure` (see `roles`).  A trial walks
the trie: it draws each recorded coin from the stream path it would draw
it from in a full play, in the same order and with the same `draw`, and
at a leaf it has its branch's probability without evaluating a role.  On
a miss it plays the arm in full, taking back the values it already drew
(`roles.Trial`), and records its coins.  Each trial still builds and
draws exactly the streams of a full play, and `GameArm.sample` still
draws its `bernoulli` coin, so every report byte is that of a full play.
A trial that calls an encryption oracle or draws from a space without a
`size` is not recorded.  Every trial with the coins it had drawn by then
does the same, so the trie marks that point (`_UNRECORDED`), and a trial
reaching the mark is played in full, without recording.  A trial that
draws an unhashable value is played in full and leaves no mark.  The memo
holds at most one leaf per distinct recorded branch, so it is bounded by
the trials and by the product of the recorded spaces' sizes, and it
lives only as long as its game.  Trials running side by side each build
new nodes before linking them in, so a race between them can only lose
an entry.

A sampled trial builds a stream only for a coin that draws: a role's
`<role>-coins` stream on the role's first coin, `mpick` only when the
message generator has more than one case (a coin without a `draw` is
certain), `bernoulli` only when the branch's success probability lies
strictly between 0 and 1, and an oracle handle's stream on its first call.

Scope note: semantic security quantifies over all adversaries and
simulators; a finite harness can only check named tuples of roles plus
the simulators the reductions construct.  Results here are statements
about those tuples, never about the quantifier.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from functools import partial
from itertools import chain, repeat
from typing import Optional

from .errors import OraclePolicyError, ParameterError, RoleError
from .estimate import AdvantageEstimate, GameArm, estimate
from .quantum import (
    MAX_EXHAUSTIVE_QUBITS,
    DensityMatrix,
    Register,
    _split_targets,
    apply_pauli,
    basis_state,
    measurement_distribution,
    partial_trace,
    replace_with_zero_state,
    tensor,
    trace_distance,
)
from .rng import Stream
from .roles import (
    ClassicalFunction,
    Distinguisher,
    ExactPlay,
    MessageCase,
    MessageGenerator,
    NegatedDistinguisher,
    Oracles,
    SamplingPlay,
    Trial,
    sample_case,
)
from .schemes import CoinSpace, PauliTagScheme


# ---------------------------------------------------------------------------
# Oracle policy
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class OraclePolicy:
    """Phase-scoped oracle grants.

    `pre` applies to the message generator (before the challenge), `post`
    to the adversary, simulator and distinguisher.  A decryption grant
    after the challenge is rejected outright: pre-challenge decryption
    access is the ceiling implemented here.  A policy is frozen, so one
    instance can serve every run of a game (`GAMES`).
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


# ---------------------------------------------------------------------------
# Game configuration
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GameConfig:
    trials: int = 1000
    seed: int = 0
    exact: bool = False

    def __post_init__(self):
        if self.trials < 1:
            raise ParameterError("trials must be at least 1")

    def stream(self, label: str) -> Stream:
        return Stream(self.seed).child(label)


# ---------------------------------------------------------------------------
# Shared engine pieces
# ---------------------------------------------------------------------------


def _check_exact_qubits(qubits: int) -> None:
    if qubits > MAX_EXHAUSTIVE_QUBITS:
        raise ParameterError(
            f"exact mode supports at most {MAX_EXHAUSTIVE_QUBITS} plaintext qubits, got {qubits}"
        )


def uniform_cases(values: list) -> list:
    """(weight, value) pairs of a uniform draw from `values`, all sharing one
    `Fraction(1, len(values))`, so `_challenge_probs` can group a key's cases by
    pad and multiply the weight once per scope."""
    return list(zip(repeat(Fraction(1, len(values))), values))


def _exact_keypairs(scheme: PauliTagScheme, config: GameConfig):
    """Key branches for enumeration mode; falls back to one drawn keypair.

    Every exact game starts here, so the size guard reads the scheme's own
    qubit count before any branch is built.
    """
    _check_exact_qubits(scheme.qubits)
    return uniform_cases(scheme.key_space().cases() or [scheme.keygen(config.stream("fixed-key"))])


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


# ---------------------------------------------------------------------------
# One arm, two interpreters
# ---------------------------------------------------------------------------


class _Coin:
    """A branch memo node: the coin every trial reaching it draws, by its stream
    path and `draw`, and what follows each value drawn (`_Coin`, a leaf's
    probability or `_UNRECORDED`)."""

    __slots__ = ("path", "draw", "after")

    def __init__(self, path: tuple, draw, after: dict):
        self.path, self.draw, self.after = path, draw, after


_UNRECORDED = object()  # trials reaching this point are played in full, not recorded


class _BranchMemo:
    """An arm's `sample_probability`: one branch per trial, each distinct branch
    played once when `replays` (see the module docstring), every trial played
    in full otherwise."""

    __slots__ = ("_branches", "_root")

    def __init__(self, branches, replays: bool):
        self._branches = branches
        self._root = None if replays else _UNRECORDED

    def __call__(self, rng: Stream) -> float:
        node = self._root
        if node is _UNRECORDED:
            ((_, p),) = self._branches(SamplingPlay(rng))
            return p
        trial = Trial(rng)
        while type(node) is _Coin:
            value = trial.draw(node.path, node.draw)
            try:
                node = node.after.get(value)
            except TypeError:  # an unhashable value
                node = _UNRECORDED
        if node is not None and node is not _UNRECORDED:
            return node  # a leaf: the branch's probability
        trial.recording = node is None  # past a mark, the trial is played without recording
        ((_, p),) = self._branches(SamplingPlay(trial))
        if trial.recording:
            self._keep(trial.coins, p)
        elif trial.stop is not None:
            self._keep(trial.coins[:trial.stop], _UNRECORDED)
        return p

    def _keep(self, coins: list, end) -> None:
        """Link `end` in after the branch of `coins`, unless a trial alongside did
        or a value drawn cannot be hashed."""
        parent, node, depth = None, self._root, 0
        try:
            while type(node) is _Coin and depth < len(coins):
                parent, node = node, node.after.get(coins[depth][2])
                depth += 1
            if node is not None:
                return
            for path, draw, value in reversed(coins[depth:]):
                end = _Coin(path, draw, {value: end})
        except TypeError:  # an unhashable value
            return
        if parent is None:
            self._root = end
        else:
            parent.after[coins[depth - 1][2]] = end


def game_arm(branches, roles: tuple, exact: ExactPlay) -> GameArm:
    """Build an arm from its one definition: `branches(play)` yields
    (weight, probability) pairs, looping over `play.coin(...)` at every coin.

    Exact mode plays it with `exact`, the game's interpreter; sampling mode
    plays it with a `SamplingPlay` of the trial's stream and unpacks the
    single branch.  `roles` are the roles `branches` calls; when all of them
    declare `pure`, sampled trials replay through a branch memo
    (`_BranchMemo`).
    """
    replays = all(getattr(role, "pure", False) for role in roles)
    return GameArm(lambda: branches(exact), _BranchMemo(branches, replays))


def fair_bit(play, label: str):
    """A uniform bit: 1 and 0 with weight 1/2 each, or one `bernoulli(0.5)` draw."""
    return play.coin(label, lambda: uniform_cases([1, 0]), lambda r: 1 if r.bernoulli(0.5) else 0)


def biased_bit(play, label: str, p):
    """A bit that is 1 with probability `p`."""
    return play.coin(label, lambda: ((p, 1), (1 - p, 0)), lambda r: 1 if r.bernoulli(p) else 0)


def space_coin(play, label: str, space: CoinSpace, key=None):
    """`space` played as the coin `label`: its cases sharing one weight, listed
    once per game under `key` (the space itself unless given), or one
    `space.draw`.  A draw from a space without a `size` is not recorded in a
    branch memo."""
    if space.size is None:
        play.unrecorded()
    listed = lambda: play.keep(space if key is None else key,
                               lambda: uniform_cases(space.cases()))
    return play.coin(label, listed, space.draw)


def _keys(play, scheme: PauliTagScheme, config: GameConfig):
    if scheme.key_space().size is None:
        play.unrecorded()
    return play.coin(
        "key",
        lambda: play.keep("key", lambda: _exact_keypairs(scheme, config)),
        scheme.keygen,
    )


def _context(play, scheme, keypair, grants, label: str):
    """The `label` role's context: its coins under `<label>-coins`, and oracle
    call k's encryption coins under `<label>-oracle/enc<k>`.  Without grants
    the context gets the shared handles that refuse every call."""
    oracles = None
    if grants:
        oracles = lambda parent: Oracles(partial(scheme.encrypt, keypair.ek),
                                         partial(scheme.decrypt, keypair.dk), grants, parent,
                                         f"{label}-oracle")
    return play.context(
        f"{label}-coins",
        oracles,
        pk=keypair.ek if scheme.flavor == "public" else None,
        scheme=scheme,
    )


def message_coin(play, cases: list[MessageCase]):
    """The `mpick` coin over a message generator's weighted cases; one case is certain."""
    draw = (lambda r: sample_case(cases, r)) if len(cases) > 1 else None
    return play.coin("mpick", lambda: [(c.weight, c) for c in cases], draw)


def _messages(play, scheme, mgen: MessageGenerator, ctx):
    for w, case in message_coin(play, mgen.cases(ctx.pk, ctx)):
        qubits = case.state.register("M").qubits
        if qubits != scheme.qubits:
            raise RoleError(
                f"message register holds {qubits} qubits, scheme expects {scheme.qubits}"
            )
        yield w, case


def _encryptions(play, scheme: PauliTagScheme, ek, label: str):
    return space_coin(play, label, scheme.encryption_space(ek), (label, ek))


def _pad_groups(encryptions):
    """One key's encryption cases grouped by pad: `(weight, {pad: [first tag, count]})`.

    `weight` is the one weight object every case carries, as `uniform_cases`
    gives; cases with more than one weight object are not grouped (None).
    """
    weight = encryptions[0][0]
    groups = {}
    for we, (tag, pad) in encryptions:
        if we is not weight:
            return None
        group = groups.get(pad)
        if group is None:
            groups[pad] = [tag, 1]
        else:
            group[1] += 1
    return weight, groups


def _challenge_probs(play, dist: Distinguisher, state: DensityMatrix, scheme: PauliTagScheme,
                     ek, ctx, scope_weight, complement: bool = False):
    """(branch weight, probability) for each encryption case of one challenge state.

    The probability is Pr[dist outputs 1], or its complement with
    `complement`.  The branch weight is `scope_weight` times the case's
    weight, and every case is yielded, so the branches and the cap count
    leaves.

    A distinguisher that declares `reads_tag = False` sees only the padded
    state.  In exact mode its cases are grouped by pad, once per key and
    game (`_pad_groups`, kept by `play` next to the cases), and each
    distinct pad is measured once per game: the value is kept by `play`
    under the challenge-state object, the pad and `ctx.pk`, and the role
    is given the first tag with that pad.  Each pad's cases are then
    yielded as a run of one `(weight, probability)` tuple, which
    `GameArm.exact_probability` folds into one tally update.  A role that
    reads the tag, cases with more than one weight object and sampling
    mode (one case per scope) are evaluated case by case.
    """
    encryptions = _encryptions(play, scheme, ek, "enc")
    grouped = None
    if play.exact and not dist.reads_tag:
        grouped = play.keep(("pads", "enc", ek), lambda: _pad_groups(encryptions))
    if grouped is None:
        return _case_probs(play, dist, state, encryptions, ctx, scope_weight, complement)
    we, groups = grouped
    weight = scope_weight * we
    runs = []
    for pad, (tag, count) in groups.items():
        p1 = play.keep(("prob", state, pad, ctx.pk),
                       lambda: play.prob(dist.prob_one(tag, _pad_message(state, pad), ctx)))
        runs.append(repeat((weight, 1 - p1 if complement else p1), count))
    return chain.from_iterable(runs)


def _case_probs(play, dist, state, encryptions, ctx, scope_weight, complement):
    """`_challenge_probs` with one evaluation of `dist` per case."""
    last_we = weight = None
    for we, ecase in encryptions:
        if we is not last_we:
            last_we, weight = we, scope_weight * we
        p1 = play.prob(dist.prob_one(ecase.tag, _pad_message(state, ecase.pad), ctx))
        yield weight, 1 - p1 if complement else p1


# ---------------------------------------------------------------------------
# Every game's skeleton and ending
# ---------------------------------------------------------------------------


def _arm(scheme, mgen, policy, config, role: str, view, exact: ExactPlay,
         roles: tuple) -> GameArm:
    """One arm of any game: the key coin, the `mgen` and `<role>` contexts and the
    message coin, then `view(play, keypair, mcase, ctx, weight)` yields the
    branches of the challenge, with `ctx` the role's context and `weight` the
    key times the message weight; `roles` are the roles `view` calls.  Both
    arms of a game share its exact interpreter `exact`."""

    def branches(play):
        for wk, keypair in _keys(play, scheme, config):
            ctx_pre = _context(play, scheme, keypair, policy.pre, "mgen")
            ctx = _context(play, scheme, keypair, policy.post, role)
            for wm, mcase in _messages(play, scheme, mgen, ctx_pre):
                yield from view(play, keypair, mcase, ctx, wk * wm)

    return game_arm(branches, (mgen, *roles), exact)


def _play(real: GameArm, ideal: Optional[GameArm], config: GameConfig,
          label: str) -> AdvantageEstimate:
    """Play a game's arms exactly or over the trials of the `label` stream."""
    return estimate(real, ideal, exact=config.exact, trials=config.trials,
                    rng=config.stream(label))


# ---------------------------------------------------------------------------
# Indistinguishability games
# ---------------------------------------------------------------------------


def run_ind(scheme, mgen, dist, policy: Optional[OraclePolicy] = None,
            config: Optional[GameConfig] = None) -> AdvantageEstimate:
    """Two-arm distinguishing: genuine message versus zeroed message."""
    policy = policy or OraclePolicy.plain()
    config = config or GameConfig()
    exact = ExactPlay()

    def arm(zeroed: bool) -> GameArm:
        def challenge(play, keypair, mcase, ctx, weight):
            state = replace_with_zero_state(mcase.state, "M") if zeroed else mcase.state
            return _challenge_probs(play, dist, state, scheme, keypair.ek, ctx, weight)

        return _arm(scheme, mgen, policy, config, "dist", challenge, exact, (dist,))

    return _play(arm(False), arm(True), config, "ind")


def run_ind_prime(scheme, mgen, dist, policy: Optional[OraclePolicy] = None,
                  config: Optional[GameConfig] = None) -> AdvantageEstimate:
    """Hidden-bit variant: report the probability of guessing the bit.

    The returned estimate carries Pr[guess = b] in `p_real`, the guessing
    baseline 1/2 in `p_ideal`, and their distance as the advantage.
    """
    policy = policy or OraclePolicy.plain()
    config = config or GameConfig()

    def guess(play, keypair, mcase, ctx, weight):
        for wb, hidden_bit in fair_bit(play, "bit"):
            state = mcase.state if hidden_bit == 1 else replace_with_zero_state(mcase.state, "M")
            # Bit 0 is guessed right when the distinguisher outputs 0.
            yield from _challenge_probs(play, dist, state, scheme, keypair.ek, ctx,
                                        weight * wb, complement=hidden_bit == 0)

    return _play(_arm(scheme, mgen, policy, config, "dist", guess, ExactPlay(), (dist,)), None,
                 config, "ind-prime")


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


def _without(state: DensityMatrix, registers) -> DensityMatrix:
    """`state` with those of `registers` that it holds traced out."""
    held = [r for r in registers if state.has_register(r)]
    return partial_trace(state, held) if held else state


def _sem_arms(scheme, mgen, adversary, simulator, success_fn, judges, hide, drop, policy,
              config) -> tuple[GameArm, GameArm]:
    """The real and the ideal arm of a semantic-security game.

    Real: the adversary sees the encrypted message case with `hide` traced
    out, before padding, which acts on M alone and so commutes with the
    trace.  Ideal: the simulator sees the message case with `drop` traced
    out.  success_fn(out_state, mcase, ctx) -> probability of the event;
    `judges` are the roles it calls.
    """
    exact = ExactPlay()

    def real(play, keypair, mcase, ctx, weight):
        seen = _without(mcase.state, hide)
        for we, ecase in _encryptions(play, scheme, keypair.ek, "enc"):
            padded = _pad_message(seen, ecase.pad)
            for wa, out in adversary.outputs(ecase.tag, padded, ctx):
                yield weight * we * wa, play.prob(success_fn(out, mcase, ctx))

    def ideal(play, keypair, mcase, ctx, weight):
        for ws, out in simulator.outputs(None, _without(mcase.state, drop), ctx):
            yield weight * ws, play.prob(success_fn(out, mcase, ctx))

    return (_arm(scheme, mgen, policy, config, "adv", real, exact, (adversary, *judges)),
            _arm(scheme, mgen, policy, config, "sim", ideal, exact, (simulator, *judges)))


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

    arms = _sem_arms(scheme, mgen, adversary, simulator, success, (dist,), (), ("M",), policy,
                     config)
    return _play(*arms, config, "sem")


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


def _compare_out(out_state: DensityMatrix, target: str):
    """Probability that the measured OUT register equals the target string.

    A missing or wrongly sized output register counts as failure, matching
    the defined comparison for classical targets.
    """
    if not out_state.has_register("OUT") or out_state.register("OUT").qubits != len(target):
        return 0
    return measurement_distribution(out_state, "OUT").get(target, 0)


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
        return _compare_out(out_state, classical_target(mcase.state))

    arms = _sem_arms(scheme, mgen, adversary, simulator, success, (), ("F",), ("M", "F"),
                     policy, config)
    return _play(*arms, config, "sem2")


def run_sem3(scheme, mgen, adversary, simulator, fn: ClassicalFunction,
             policy: Optional[OraclePolicy] = None,
             config: Optional[GameConfig] = None) -> AdvantageEstimate:
    """Transcript-function semantic security.

    The generator `mgen` declares the transcript x of its measurements;
    both the adversary's and the simulator's measured outputs are compared
    against the public classical function `fn(pk, x)`, passed last as the
    game's judging role, as `run_sem`'s distinguisher is.  The function's
    declared arity must match the transcript.  A `ClassicalFunction` is
    deterministic, so it declares no `pure` and does not stop a sampled
    arm from replaying its branches.
    """
    policy = policy or OraclePolicy.plain()
    config = config or GameConfig()

    def success(out_state, mcase, ctx):
        if mcase.transcript is None:
            raise RoleError("this game needs a generator that declares its transcript")
        return _compare_out(out_state, fn.evaluate(ctx.pk, mcase.transcript))

    arms = _sem_arms(scheme, mgen, adversary, simulator, success, (), (), ("M", "F"),
                     policy, config)
    return _play(*arms, config, "sem3")


# Each game's runner and oracle policy.
GAMES = {
    "ind": (run_ind, OraclePolicy.plain()),
    "ind-prime": (run_ind_prime, OraclePolicy.plain()),
    "ind-cpa": (run_ind, OraclePolicy.cpa()),
    "ind-cca1": (run_ind, OraclePolicy.cca1()),
    "sem": (run_sem, OraclePolicy.plain()),
    "sem2": (run_sem2, OraclePolicy.plain()),
    "sem3": (run_sem3, OraclePolicy.plain()),
}
GAME_NAMES = tuple(GAMES)
