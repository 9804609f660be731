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

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, NamedTuple, Optional

from .errors import EnumerationCapError, RoleError
from .estimate import AdvantageEstimate, GameArm, estimate
from .games import (
    GameConfig,
    OraclePolicy,
    _check_exact_qubits,
    _exact_keypairs,
    run_ind,
    run_ind_prime,
    run_sem,
)
from .quantum import DensityMatrix, apply_pauli, basis_state, partial_trace, tensor
from .rng import Stream
from .roles import (
    BitChannelAdversary,
    Channel,
    CompareRegistersDistinguisher,
    CoinMessageGenerator,
    ConstantOutputChannel,
    Distinguisher,
    MessageGenerator,
    NegatedDistinguisher,
    RoleContext,
    sample_case,
)
from .schemes import PauliTagScheme, PrfSymmetricScheme, SkeCiphertext


# ---------------------------------------------------------------------------
# Zero-encryption simulator (indistinguishability -> semantic security)
# ---------------------------------------------------------------------------


class _PreparedZeroEncryption(Channel):
    """One enumerated branch of the simulator: a fixed fake ciphertext."""

    def __init__(self, adversary: Channel, tag: str, pad: Optional[str], qubits: int):
        self.adversary = adversary
        self.tag = tag
        self.pad = pad
        self.qubits = qubits

    def transform(self, tag, state, ctx):
        zero = basis_state("0" * self.qubits, "M", state.exact)
        payload = apply_pauli(self.pad, zero) if self.pad is not None else zero
        joined = tensor(payload, state)
        return self.adversary.transform(self.tag, joined, ctx)


class ZeroEncryptionSimulator(Channel):
    """Run the adversary on a self-made encryption of the zero plaintext.

    Sampling mode picks the route the proof prescribes: an oracle call
    when an encryption oracle is granted, otherwise public-key encryption,
    otherwise a freshly generated key of its own.  Enumeration mode
    declares the same coin space explicitly (key cases x encryption cases).
    """

    def __init__(self, adversary: Channel):
        self.adversary = adversary

    def cases(self, ctx: RoleContext):
        scheme: PauliTagScheme = ctx.scheme
        if scheme is None:
            raise RoleError("simulator needs the scheme in its context")
        out = []
        if scheme.flavor == "public":
            key_branches = [(Fraction(1), None)]
            enc_of = lambda _kp: scheme.encrypt_cases(ctx.pk)
        else:
            branches = scheme.key_cases()
            if branches is None:
                raise EnumerationCapError(
                    f"scheme {scheme.name!r} does not enumerate its key space"
                )
            key_branches = branches
            enc_of = lambda kp: scheme.encrypt_cases(kp.ek)
        for wk, kp in key_branches:
            cases = enc_of(kp)
            if cases is None:
                raise EnumerationCapError(
                    f"scheme {scheme.name!r} does not enumerate its encryption coins"
                )
            for ecase in cases:
                for wa, adv in self.adversary.cases(ctx):
                    out.append(
                        (
                            wk * ecase.weight * wa,
                            _PreparedZeroEncryption(adv, ecase.tag, ecase.pad, scheme.qubits),
                        )
                    )
        return out

    def transform(self, tag, state, ctx: RoleContext):
        scheme: PauliTagScheme = ctx.scheme
        if scheme is None:
            raise RoleError("simulator needs the scheme in its context")
        zero = basis_state("0" * scheme.qubits, "M", state.exact)
        if "enc" in getattr(ctx.oracles, "grants", frozenset()):
            ct = ctx.oracles.encrypt(zero)
        elif scheme.flavor == "public":
            ct = scheme.encrypt(ctx.pk, zero, ctx.coin().child("sim-enc"))
        else:
            own = scheme.keygen(ctx.coin().child("sim-key"))
            ct = scheme.encrypt(own.ek, zero, ctx.coin().child("sim-enc"))
        joined = tensor(ct.payload, state)
        return self.adversary.transform(ct.tag, joined, ctx)


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
    from dataclasses import replace

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


class _OracleBackedHandles:
    """Encrypt/decrypt built from a raw function oracle, with a call budget."""

    def __init__(self, oracle: Callable[[str], str], qubits: int, rng: Stream, budget: int):
        self._oracle = oracle
        self._qubits = qubits
        self._rng = rng
        self._budget = budget
        self._calls = 0

    def _tick(self):
        self._calls += 1
        if self._calls > self._budget:
            raise RoleError(f"simulated oracle budget of {self._budget} calls exhausted")

    def encrypt(self, rho: DensityMatrix) -> SkeCiphertext:
        self._tick()
        tag = self._rng.child(f"tag{self._calls}").bits(2 * self._qubits)
        return SkeCiphertext(tag, apply_pauli(self._oracle(tag), rho))

    def decrypt(self, ct: SkeCiphertext) -> DensityMatrix:
        self._tick()
        return apply_pauli(self._oracle(ct.tag), ct.payload)


def reduction_cca1_to_prf(mgen: MessageGenerator, dist: Distinguisher, qubits: int,
                          budget: int = 64) -> Callable[[Callable[[str], str], Stream], int]:
    """Turn a pre-challenge-decryption attack into a PRF distinguisher.

    The returned callable plays `(oracle, rng) -> bit`: it simulates the
    symmetric scheme's encryption and decryption through the function
    oracle, flips a fair coin between the genuine and the zeroed
    challenge, runs the attack, and outputs 1 iff the attack's guess
    matches the coin.
    """

    def distinguisher(oracle: Callable[[str], str], rng: Stream) -> int:
        handles = _OracleBackedHandles(oracle, qubits, rng.child("handles"), budget)
        ctx_pre = RoleContext(pk=None, oracles=handles, rng=rng.child("mgen"), exact=False)
        mcase = sample_case(mgen.cases(None, ctx_pre), rng.child("mpick"))
        if mcase.state.register("M").qubits != qubits:
            raise RoleError("attack emits a message of the wrong size")
        coin = 1 if rng.child("coin").bernoulli(0.5) else 0
        if coin == 1:
            state = mcase.state
        else:
            from .quantum import replace_with_zero_state

            state = replace_with_zero_state(mcase.state, "M")
        tag = rng.child("challenge").bits(2 * qubits)
        padded = apply_pauli(oracle(tag), state, "M")
        enc_only = _OracleBackedHandles(oracle, qubits, rng.child("post"), budget)

        def _no_post_challenge_decryption(ct):
            raise RoleError("decryption oracle not available after the challenge")

        enc_only.decrypt = _no_post_challenge_decryption
        ctx_post = RoleContext(pk=None, oracles=enc_only, rng=rng.child("dist"), exact=False)
        p1 = float(dist.prob_one(tag, padded, ctx_post))
        guess = 1 if rng.child("guess").bernoulli(p1) else 0
        return 1 if guess == coin else 0

    return distinguisher


def cca1_to_prf_exact_check(mgen: MessageGenerator, dist: Distinguisher,
                            scheme: PrfSymmetricScheme,
                            config: Optional[GameConfig] = None) -> dict:
    """Exact identity: with the genuine keyed function behind the oracle,
    the constructed distinguisher accepts exactly as often as the attack
    wins the hidden-bit game against the scheme.

    Needs an oracle-free attack (the pair may still be wired under a
    decryption-granting policy; the grants simply go unused).
    """
    from dataclasses import replace

    config = replace(config or GameConfig(), exact=True)

    accept = Fraction(0)
    ctx = RoleContext(pk=None, exact=True, scheme=scheme)
    for wk, kp in _exact_keypairs(scheme, config):
        for mcase in mgen.cases(None, ctx):
            for coin in (1, 0):
                if coin == 1:
                    state = mcase.state
                else:
                    from .quantum import replace_with_zero_state

                    state = replace_with_zero_state(mcase.state, "M")
                for ecase in scheme.encrypt_cases(kp.ek):
                    padded = apply_pauli(ecase.pad, state, "M")
                    p1 = dist.prob_one(ecase.tag, padded, ctx)
                    success = p1 if coin == 1 else 1 - p1
                    accept += wk * mcase.weight * Fraction(1, 2) * ecase.weight * success

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


def reduction_qotp_to_prg(dist: Distinguisher, pair: PaddedStatePair,
                          ) -> Callable[[str, Stream], int]:
    """Turn a padded-pair distinguisher into a generator-output distinguisher.

    On input y the construction flips a fair coin, pads the corresponding
    case's A register with y, asks the distinguisher which case it is
    seeing (output 1 means the joint case), and accepts iff it is right.
    """

    def d_prime(y: str, rng: Stream) -> int:
        case = 1 if rng.child("case").bernoulli(0.5) else 0
        base = pair.joint if case == 1 else pair.second_case()
        padded = apply_pauli(y, base, "A")
        ctx = RoleContext(rng=rng.child("dist"), exact=False)
        p1 = float(dist.prob_one(None, padded, ctx))
        guess = 1 if rng.child("guess").bernoulli(p1) else 0
        return 1 if guess == case else 0

    return d_prime


def run_prg_pad_reduction(prg, dist: Distinguisher, pair: PaddedStatePair,
                          config: Optional[GameConfig] = None) -> AdvantageEstimate:
    """Advantage of the constructed distinguisher: generator outputs vs uniform.

    Exact mode enumerates the seed space on the pseudorandom arm and the
    full string space (times the case coin) on the uniform arm; the
    uniform arm's success probability is exactly 1/2, because averaging
    the pad over all strings sends the A register to the maximally mixed
    state in both cases.
    """
    config = config or GameConfig()
    if config.exact:
        _check_exact_qubits(pair.joint.register("A").qubits)
    pad_len = prg.out_len
    exact_pair = (
        PaddedStatePair(pair.joint.to_exact(), pair.product_a.to_exact())
        if config.exact and not pair.joint.exact
        else pair
    )

    def case_probability(y: str, use: PaddedStatePair, exact: bool):
        ctx = RoleContext(exact=exact)
        total = Fraction(0) if exact else 0.0
        for case, base in ((1, use.joint), (0, use.second_case())):
            padded = apply_pauli(y, base, "A")
            p1 = dist.prob_one(None, padded, ctx)
            success = p1 if case == 1 else (1 - p1 if exact else 1.0 - p1)
            total += Fraction(1, 2) * success if exact else 0.5 * float(success)
        return total

    def branches_pseudo():
        seeds = [format(v, f"0{prg.seed_len}b") for v in range(1 << prg.seed_len)]
        w = Fraction(1, len(seeds))
        for s in seeds:
            yield (w, case_probability(prg.expand(s), exact_pair, True))

    def branches_uniform():
        strings = [format(v, f"0{pad_len}b") for v in range(1 << pad_len)]
        w = Fraction(1, len(strings))
        for y in strings:
            yield (w, case_probability(y, exact_pair, True))

    d_prime = reduction_qotp_to_prg(dist, pair)

    def sample_pseudo(rng: Stream) -> float:
        seed = rng.child("seed").bits(prg.seed_len)
        return float(d_prime(prg.expand(seed), rng.child("run")))

    def sample_uniform(rng: Stream) -> float:
        y = rng.child("y").bits(pad_len)
        return float(d_prime(y, rng.child("run")))

    real = GameArm(branches=branches_pseudo, sample_probability=sample_pseudo)
    ideal = GameArm(branches=branches_uniform, sample_probability=sample_uniform)
    return estimate(
        real, ideal,
        exact=config.exact, trials=config.trials,
        rng=config.stream("prg-pad"), cap=config.enum_cap,
    )
