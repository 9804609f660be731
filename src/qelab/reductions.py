"""Security reductions as executable constructions.

Each reduction takes attacking roles for one game and mechanically builds
roles for another, the way the corresponding proof does:

* ``reduction_ind_to_sem``: a semantic-security simulator that encrypts
  the all-zeros plaintext itself (with the public key, its own generated
  key, or one oracle call, depending on mode) and runs the adversary on it;
* ``reduction_sem_to_ind``: from a two-arm distinguishing adversary, a
  coin-flipping generator whose target register records the coin, the
  distinguisher-as-channel (and its negation), and an output/target
  comparison test;
* ``reduction_cca1_to_prf``: from an attack on the PRF-padded symmetric
  scheme, a PRF distinguisher that simulates the whole game through its
  function oracle and accepts iff the attack succeeds;
* ``reduction_qotp_to_prg``: from a distinguisher of two pad-encrypted
  states, a generator distinguisher that pads one of the pair with its
  input string and accepts iff the case is identified.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from functools import partial
from typing import Callable, NamedTuple, Optional

from .errors import RoleError
from .estimate import AdvantageEstimate
from .games import (
    GameConfig,
    OraclePolicy,
    _check_exact_qubits,
    _encryptions,
    _keys,
    _pad_message,
    _play,
    biased_bit,
    fair_bit,
    game_arm,
    message_coin,
    run_ind,
    run_ind_prime,
    run_sem,
    space_coin,
)
from .quantum import (
    DensityMatrix,
    apply_pauli,
    basis_state,
    partial_trace,
    replace_with_zero_state,
    tensor,
)
from .rng import Stream
from .roles import (
    BitChannelAdversary,
    Channel,
    CompareRegistersDistinguisher,
    CoinMessageGenerator,
    ConstantOutputChannel,
    Distinguisher,
    ExactPlay,
    MessageGenerator,
    NegatedDistinguisher,
    Oracles,
    SamplingPlay,
)
from .schemes import PauliTagScheme, PrfSymmetricScheme, SkeCiphertext, bitstring_space


# ---------------------------------------------------------------------------
# Zero-encryption simulator (indistinguishability -> semantic security)
# ---------------------------------------------------------------------------


class ZeroEncryptionSimulator(Channel):
    """Run the adversary on a self-made encryption of the zero plaintext.

    The route is the one the proof prescribes: one oracle call when an
    encryption oracle is granted (sampling mode only), otherwise
    public-key encryption, otherwise a key of its own from the `sim-key`
    coin; the encryption coins are the `sim-enc` coin.  Both are coins of
    the arm's tree, so exact mode enumerates key cases x encryption cases
    and sampling mode draws one of each.  It passes the adversary the tag of
    its own encryption, never the one it is given.
    """

    reads_tag = False

    def __init__(self, adversary: Channel):
        self.adversary = adversary
        self._zeros = {}

    @property
    def pure(self):
        return self.adversary.pure

    def _zero(self, qubits: int, exact: bool) -> DensityMatrix:
        """The zero plaintext, built once per (qubits, mode), so its padded forms
        stay in its kernel memo across trials."""
        zero = self._zeros.get((qubits, exact))
        if zero is None:
            zero = self._zeros[qubits, exact] = basis_state("0" * qubits, "M", exact)
        return zero

    def outputs(self, tag, state, ctx):
        scheme: PauliTagScheme = ctx.scheme
        if scheme is None:
            raise RoleError("simulator needs the scheme in its context")
        zero = self._zero(scheme.qubits, state.exact)
        if "enc" in ctx.oracles.grants:
            ct = ctx.oracles.encrypt(zero)
            yield from self.adversary.outputs(ct.tag, tensor(ct.payload, state), ctx)
            return
        if scheme.flavor == "public":
            keys = ((1, ctx.pk),)
        else:
            keys = ((wk, kp.ek) for wk, kp in space_coin(ctx, "sim-key", scheme.key_space()))
        for wk, ek in keys:
            for we, ecase in _encryptions(ctx, scheme, ek, "sim-enc"):
                joined = tensor(_pad_message(zero, ecase.pad), state)
                for wa, out in self.adversary.outputs(ecase.tag, joined, ctx):
                    yield wk * we * wa, out


def reduction_ind_to_sem(adversary: Channel) -> ZeroEncryptionSimulator:
    return ZeroEncryptionSimulator(adversary)


def ind_to_sem_pipeline(scheme, mgen, adversary, dist,
                        policy: Optional[OraclePolicy] = None,
                        config: Optional[GameConfig] = None) -> dict:
    """Run semantic security with the constructed simulator, next to the
    two-arm game played by the combined adversary-then-distinguisher.

    The combined distinguisher treats the generator's extra registers as
    side information, which is exactly how the constructed simulator's
    guarantee is argued; the semantic advantage should not exceed the
    distinguishing advantage beyond sampling error.
    """
    from .roles import ChannelThenDistinguisher

    policy = policy or OraclePolicy.plain()
    config = config or GameConfig()
    simulator = reduction_ind_to_sem(adversary)
    sem_est = run_sem(scheme, mgen, adversary, simulator, dist, policy, config)
    combined = ChannelThenDistinguisher(adversary, dist)
    ind_est = run_ind(scheme, mgen, combined, policy, config)
    return {"sem": sem_est, "ind": ind_est}


# ---------------------------------------------------------------------------
# Distinguishing adversary -> semantic-security roles
# ---------------------------------------------------------------------------


class SemRolesFromInd(NamedTuple):
    mgen: MessageGenerator
    adversary: Channel
    adversary_flipped: Channel
    dist: Distinguisher


def reduction_sem_to_ind(ind_mgen: MessageGenerator, ind_dist: Distinguisher) -> SemRolesFromInd:
    """Build semantic-security roles out of a two-arm distinguishing pair.

    The generator emits the genuine message with target bit 0 or the
    zeroed message with target bit 1, a fair coin each; the adversary runs
    the distinguisher and records its bit; the test compares that bit to a
    measurement of the target register.  Any simulator, having no access
    to the encrypted message register, matches the coin with probability
    exactly one half.
    """
    mgen = CoinMessageGenerator(ind_mgen, include_f=True)
    adversary = BitChannelAdversary(ind_dist)
    adversary_flipped = BitChannelAdversary(NegatedDistinguisher(ind_dist))
    dist = CompareRegistersDistinguisher("OUT", "F")
    return SemRolesFromInd(mgen, adversary, adversary_flipped, dist)


def sem_to_ind_identity_check(scheme, ind_mgen, ind_dist,
                              config: Optional[GameConfig] = None,
                              policy: Optional[OraclePolicy] = None,
                              simulator: Optional[Channel] = None) -> dict:
    """Exact check: distinguishing advantage = 2 x max constructed-role edge.

    Enumerates both games and verifies, with Fraction arithmetic, that the
    two-arm advantage equals twice the larger of the two constructed
    adversaries' success probabilities over the 1/2 baseline, and that the
    simulator baseline is exactly 1/2.
    """
    config = replace(config or GameConfig(), exact=True)
    policy = policy or OraclePolicy.plain()
    simulator = simulator or ConstantOutputChannel("0")

    ind_est = run_ind(scheme, ind_mgen, ind_dist, policy, config)
    roles = reduction_sem_to_ind(ind_mgen, ind_dist)
    est_a = run_sem(scheme, roles.mgen, roles.adversary, simulator, roles.dist, policy, config)
    est_b = run_sem(
        scheme, roles.mgen, roles.adversary_flipped, simulator, roles.dist, policy, config
    )

    epsilon = abs(ind_est.p_real_exact - ind_est.p_ideal_exact)
    edge_a = est_a.p_real_exact - Fraction(1, 2)
    edge_b = est_b.p_real_exact - Fraction(1, 2)
    doubled = 2 * max(edge_a, edge_b)
    return {
        "ind_advantage": float(epsilon),
        "edge_plain": float(edge_a),
        "edge_flipped": float(edge_b),
        "twice_max_edge": float(doubled),
        "identity_holds": epsilon == doubled,
        "baseline_plain": float(est_a.p_ideal_exact),
        "baseline_flipped": float(est_b.p_ideal_exact),
        "baselines_are_half": est_a.p_ideal_exact == Fraction(1, 2)
        and est_b.p_ideal_exact == Fraction(1, 2),
        "max_residual": float(abs(epsilon - doubled)),
    }


# ---------------------------------------------------------------------------
# Scheme attack -> PRF distinguisher
# ---------------------------------------------------------------------------


class Construction:
    """A reduction's constructed distinguisher, written once as a coin tree.

    `branches(x, play)` yields (weight, accept) pairs for input `x`;
    calling the construction as `(x, rng) -> bit` plays that tree with the
    sampling interpreter, and an exact check plays the same tree with an
    `ExactPlay`.
    """

    def __init__(self, branches):
        self.branches = branches

    def __call__(self, x, rng: Stream) -> int:
        ((_, bit),) = self.branches(x, SamplingPlay(rng))
        return bit


def reduction_cca1_to_prf(mgen: MessageGenerator, dist: Distinguisher,
                          qubits: int) -> Construction:
    """Turn a pre-challenge-decryption attack into a PRF distinguisher.

    The construction plays `(oracle, rng) -> bit`: it simulates the
    symmetric scheme's encryption and decryption through the function
    oracle, granted as in IND-CCA1 (both before the challenge, encryption
    only after), flips a fair coin between the genuine and the zeroed
    challenge, runs the attack, and outputs 1 iff the attack's guess
    matches the coin.
    """
    tags = bitstring_space(2 * qubits)
    grants = OraclePolicy.cca1()

    def branches(oracle: Callable[[str], str], play):
        # The simulated scheme: encryption call k draws its tag from
        # `<label>/tag<k>`, and both algorithms pad through `oracle`.
        def encrypt(rho: DensityMatrix, rng: Stream) -> SkeCiphertext:
            tag = rng.bits(2 * qubits)
            return SkeCiphertext(tag, apply_pauli(oracle(tag), rho))

        def decrypt(ct: SkeCiphertext) -> DensityMatrix:
            return apply_pauli(oracle(ct.tag), ct.payload)

        ctx_pre = play.context("mgen", lambda parent: Oracles(
            encrypt, decrypt, grants.pre, parent, "handles", "tag"))
        ctx_post = play.context("dist", lambda parent: Oracles(
            encrypt, decrypt, grants.post, parent, "post", "tag"))
        for wm, mcase in message_coin(play, mgen.cases(None, ctx_pre)):
            if mcase.state.register("M").qubits != qubits:
                raise RoleError("attack emits a message of the wrong size")
            for wc, coin in fair_bit(play, "coin"):
                state = mcase.state if coin == 1 else replace_with_zero_state(mcase.state, "M")
                for wt, tag in space_coin(play, "challenge", tags):
                    padded = apply_pauli(oracle(tag), state, "M")
                    p1 = play.prob(dist.prob_one(tag, padded, ctx_post))
                    for wg, guess in biased_bit(play, "guess", p1):
                        yield (wm * wc * wt * wg, 1 if guess == coin else 0)

    return Construction(branches)


def cca1_to_prf_exact_check(mgen: MessageGenerator, dist: Distinguisher,
                            scheme: PrfSymmetricScheme,
                            config: Optional[GameConfig] = None) -> dict:
    """Exact identity: with the genuine keyed function behind the oracle,
    the constructed distinguisher accepts exactly as often as the attack
    wins the hidden-bit game against the scheme.

    The construction's own coin tree is played exactly against
    `prf.evaluate(k, .)` for every key case.  Needs an oracle-free attack
    (the pair may still be wired under a decryption-granting policy; the
    grants simply go unused).
    """
    config = replace(config or GameConfig(), exact=True)
    construction = reduction_cca1_to_prf(mgen, dist, scheme.qubits)

    def keyed(play):
        for wk, kp in _keys(play, scheme, config):
            for w, accept in construction.branches(partial(scheme.prf.evaluate, kp.ek), play):
                yield (wk * w, accept)

    accept = game_arm(keyed, (mgen, dist), ExactPlay()).exact_probability()
    game = run_ind_prime(scheme, mgen, dist, OraclePolicy.cca1(), config)
    return {
        "acceptance_with_keyed_oracle": float(accept),
        "hidden_bit_success": float(game.p_real_exact),
        "identity_holds": accept == game.p_real_exact,
        "max_residual": float(abs(accept - game.p_real_exact)),
    }


# ---------------------------------------------------------------------------
# Padded-state distinguisher -> generator distinguisher
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PaddedStatePair:
    """The two inputs of the padded-state experiment on register A.

    `joint` is a state over registers (A[, B]); the second case replaces
    its A part with `product_a`, keeping the joint's B marginal.
    """

    joint: DensityMatrix
    product_a: DensityMatrix

    def second_case(self) -> DensityMatrix:
        if not self.joint.has_register("A"):
            raise RoleError("the pair's joint state must contain a register named A")
        rest_names = [n for n in self.joint.names if n != "A"]
        if not rest_names:
            return self.product_a
        rest = partial_trace(self.joint, "A")
        return tensor(self.product_a, rest)


def reduction_qotp_to_prg(dist: Distinguisher, pair: PaddedStatePair) -> Construction:
    """Turn a padded-pair distinguisher into a generator-output distinguisher.

    On input y the construction flips a fair coin, pads the corresponding
    case's A register with y, asks the distinguisher which case it is
    seeing (output 1 means the joint case), and accepts iff it is right.
    """

    def branches(y: str, play):
        for wc, case in fair_bit(play, "case"):
            base = pair.joint if case == 1 else pair.second_case()
            padded = apply_pauli(y, base, "A")
            p1 = play.prob(dist.prob_one(None, padded, play.context("dist")))
            for wg, guess in biased_bit(play, "guess", p1):
                yield (wc * wg, 1 if guess == case else 0)

    return Construction(branches)


def run_prg_pad_reduction(prg, dist: Distinguisher, pair: PaddedStatePair,
                          config: Optional[GameConfig] = None) -> AdvantageEstimate:
    """Advantage of the constructed distinguisher: generator outputs vs uniform.

    Both arms run the construction on a drawn string: the pseudorandom arm
    on the expansion of a uniform seed, the uniform arm on a uniform
    string.  In exact mode the uniform arm's success probability is
    exactly 1/2, because averaging the pad over all strings sends the A
    register to the maximally mixed state in both cases.  The generator is
    a deterministic function of its seed, as a `ClassicalFunction` is, not
    a role: only `dist` decides whether sampled trials replay.
    """
    config = config or GameConfig()
    if config.exact:
        _check_exact_qubits(pair.joint.register("A").qubits)
        if not pair.joint.exact:
            pair = PaddedStatePair(pair.joint.to_exact(), pair.product_a.to_exact())
    construction = reduction_qotp_to_prg(dist, pair)
    exact = ExactPlay()

    def arm(label: str, length: int, expand):
        def branches(play):
            for wy, y in space_coin(play, label, bitstring_space(length)):
                for w, accept in construction.branches(expand(y), play.context("run")):
                    yield (wy * w, accept)

        return game_arm(branches, (dist,), exact)

    return _play(arm("seed", prg.seed_len, prg.expand), arm("y", prg.out_len, lambda y: y),
                 config, "prg-pad")
