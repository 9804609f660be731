from fractions import Fraction

import pytest

from qelab import reductions
from qelab.errors import OraclePolicyError, ParameterError
from qelab.games import GameConfig, OraclePolicy, run_ind, run_sem
from qelab.primitives import ConstantPrf, ConstantPrg, prf_distinguisher_advantage
from qelab.quantum import (
    basis_state,
    bell_state,
    maximally_mixed,
    measurement_distribution,
    partial_trace,
    trace_distance,
)
from qelab.reductions import (
    PaddedStatePair,
    cca1_to_prf_exact_check,
    ind_to_sem_pipeline,
    reduction_cca1_to_prf,
    reduction_ind_to_sem,
    reduction_qotp_to_prg,
    reduction_sem_to_ind,
    run_prg_pad_reduction,
    sem_to_ind_identity_check,
)
from qelab.rng import Stream
from qelab.roles import (
    ORACLE_BUDGET,
    BasisMessage,
    BasisMessageWithTarget,
    CoinDistinguisher,
    CompareRegistersDistinguisher,
    ConstantDistinguisher,
    ConstantOutputChannel,
    CopyPayloadAdversary,
    Distinguisher,
    ExactPlay,
    MeasureEqualsDistinguisher,
    MessageCase,
    MessageGenerator,
    UnpadThenMeasureDistinguisher,
)
from qelab.schemes import IdentityScheme, PrfSymmetricScheme, QotpScheme, SkeCiphertext

EXACT = GameConfig(exact=True, seed=6)


# ---------------------------------------------------------------------------
# Zero-encryption simulator
# ---------------------------------------------------------------------------


def test_simulator_matches_adversary_on_zero_encryption():
    # With a ciphertext-ignoring adversary the simulator is the adversary.
    adversary = ConstantOutputChannel("1")
    simulator = reduction_ind_to_sem(adversary)
    est = run_sem(
        QotpScheme(1, 1),
        BasisMessageWithTarget("1"),
        adversary,
        simulator,
        CompareRegistersDistinguisher("OUT", "F"),
        None,
        EXACT,
    )
    assert est.p_real_exact == est.p_ideal_exact


def test_simulator_output_equals_zero_arm_exactly():
    # The simulator's arm must reproduce, branch for branch, the adversary
    # run on an encryption of the zero plaintext.
    scheme = QotpScheme(1, 1)
    adversary = CopyPayloadAdversary("M", "OUT")
    simulator = reduction_ind_to_sem(adversary)
    ctx = ExactPlay().context("sim-coins", scheme=scheme)

    state_ef = basis_state("1", "F", exact=True)
    total = None
    for weight, out in simulator.outputs(None, state_ef, ctx):
        term = out.mat * weight
        total = term if total is None else total + term

    manual = None
    from qelab.quantum import apply_pauli, tensor

    keys = scheme.key_space().cases()
    for kp in keys:
        zero = basis_state("0", "M", exact=True)
        fake = apply_pauli(kp.ek, zero)
        out = adversary.transform("", tensor(fake, state_ef), ctx)
        term = out.mat * Fraction(1, len(keys))
        manual = term if manual is None else manual + term
    assert (total == manual).all()


def test_simulator_uses_encryption_oracle_when_granted():
    scheme = PrfSymmetricScheme(2, 1, setup_rng=Stream(1).child("s"))
    adversary = CopyPayloadAdversary("M", "OUT")
    simulator = reduction_ind_to_sem(adversary)
    config = GameConfig(trials=50, seed=2)
    est = run_sem(
        scheme,
        BasisMessageWithTarget("1"),
        adversary,
        simulator,
        CompareRegistersDistinguisher("OUT", "F"),
        OraclePolicy.cpa(),
        config,
    )
    assert 0.0 <= est.p_ideal <= 1.0  # runs through the oracle path


@pytest.mark.parametrize("policy", [OraclePolicy.cpa(), OraclePolicy.cca1()], ids=["cpa", "cca1"])
def test_simulator_oracle_route_is_pinned(policy):
    # One oracle call per trial; these values pin the route's draws.
    scheme = PrfSymmetricScheme(2, 1, setup_rng=Stream(1).child("s"))
    adversary = CopyPayloadAdversary("M", "OUT")
    est = run_sem(
        scheme,
        BasisMessageWithTarget("1"),
        adversary,
        reduction_ind_to_sem(adversary),
        CompareRegistersDistinguisher("OUT", "F"),
        policy,
        GameConfig(trials=200, seed=2),
    )
    assert (est.p_real, est.p_ideal) == (0.76, 0.24)


def test_pipeline_bound_on_prf_scheme():
    scheme = PrfSymmetricScheme(2, 1, setup_rng=Stream(3).child("s"))
    config = GameConfig(trials=400, seed=4)
    out = ind_to_sem_pipeline(
        scheme,
        BasisMessageWithTarget("1"),
        CopyPayloadAdversary("M", "OUT"),
        CompareRegistersDistinguisher("OUT", "F"),
        None,
        config,
    )
    slack = out["sem"].ci_halfwidth + out["ind"].ci_halfwidth + 1e-12
    assert out["sem"].advantage <= out["ind"].advantage + slack


# ---------------------------------------------------------------------------
# Distinguishing adversary -> semantic-security roles
# ---------------------------------------------------------------------------


def test_epsilon_identity_broken_and_secure():
    report = sem_to_ind_identity_check(
        IdentityScheme(1, 1), BasisMessage("1"), MeasureEqualsDistinguisher("1", "M"), EXACT
    )
    assert report["identity_holds"] and report["baselines_are_half"]
    assert report["ind_advantage"] == 1.0
    assert report["max_residual"] <= 1e-12

    report = sem_to_ind_identity_check(
        QotpScheme(1, 1), BasisMessage("1"), MeasureEqualsDistinguisher("1", "M"), EXACT
    )
    assert report["identity_holds"] and report["baselines_are_half"]
    assert report["ind_advantage"] == 0.0


def test_epsilon_identity_constant_distinguisher():
    report = sem_to_ind_identity_check(
        IdentityScheme(1, 1), BasisMessage("1"), ConstantDistinguisher(1), EXACT
    )
    assert report["identity_holds"]
    assert report["edge_plain"] == 0.0 and report["edge_flipped"] == 0.0


def test_constructed_roles_detect_broken_scheme():
    roles = reduction_sem_to_ind(BasisMessage("1"), MeasureEqualsDistinguisher("1", "M"))
    sim = ConstantOutputChannel("0")
    est = run_sem(
        IdentityScheme(1, 1), roles.mgen, roles.adversary_flipped, sim, roles.dist, None, EXACT
    )
    assert est.p_real_exact - Fraction(1, 2) >= Fraction(45, 100)


# ---------------------------------------------------------------------------
# Scheme attack -> PRF distinguisher
# ---------------------------------------------------------------------------


def test_prf_reduction_exact_identity_on_keyed_oracle():
    scheme = PrfSymmetricScheme(1, 1, setup_rng=Stream(5).child("s"))
    report = cca1_to_prf_exact_check(
        BasisMessage("1"), MeasureEqualsDistinguisher("1", "M"), scheme, EXACT
    )
    assert report["identity_holds"]
    assert report["max_residual"] <= 1e-12


def test_prf_exact_identity_plays_the_construction(monkeypatch):
    """The exact check plays the construction itself: dropping the pad it
    applies makes the identity fail."""
    build = reductions.reduction_cca1_to_prf

    def padless(mgen, dist, qubits):
        construction = build(mgen, dist, qubits)
        keyed = construction.branches
        construction.branches = lambda oracle, play: keyed(lambda tag: "0" * 2 * qubits, play)
        return construction

    scheme = PrfSymmetricScheme(1, 1, prf=ConstantPrf(1, 2, 2, "11"))
    roles = (BasisMessage("1"), MeasureEqualsDistinguisher("1", "M"))
    assert cca1_to_prf_exact_check(*roles, scheme, EXACT)["identity_holds"]
    monkeypatch.setattr(reductions, "reduction_cca1_to_prf", padless)
    report = cca1_to_prf_exact_check(*roles, scheme, EXACT)
    assert report["acceptance_with_keyed_oracle"] == 1.0
    assert report["hidden_bit_success"] == 0.0
    assert not report["identity_holds"]


def test_prf_reduction_coin_adversary_no_advantage():
    prf = ConstantPrf(1, 2, 2)
    a0 = reduction_cca1_to_prf(BasisMessage("1"), CoinDistinguisher(), qubits=1)
    est = prf_distinguisher_advantage(a0, prf, 400, Stream(6))
    assert est.advantage <= est.ci_halfwidth + 1e-9


def test_prf_reduction_breaks_constant_prf():
    prf = ConstantPrf(1, 2, 2)
    a0 = reduction_cca1_to_prf(BasisMessage("1"), MeasureEqualsDistinguisher("1", "M"), qubits=1)
    est = prf_distinguisher_advantage(a0, prf, 1000, Stream(7))
    assert est.p_real == 1.0  # readout always wins when the pad is trivial
    assert est.advantage >= 0.4


class _EncryptingMessage(MessageGenerator):
    """Before the challenge: encrypts |0> twice and sends the parity of the two tags."""

    def cases(self, pk, ctx):
        tags = ctx.oracles.encrypt(basis_state("0")).tag + ctx.oracles.encrypt(basis_state("0")).tag
        return [MessageCase(Fraction(1), basis_state(str(tags.count("1") % 2), "M"))]


class _EncryptingReadout(Distinguisher):
    """After the challenge: encrypts |1> and reads M for 1 unless the tags collide."""

    def prob_one(self, tag, state, ctx):
        collided = ctx.oracles.encrypt(basis_state("1")).tag == tag
        return 0.5 if collided else measurement_distribution(state, "M")["1"]


def test_prf_construction_with_oracle_calls_is_pinned():
    # Pins the simulated handles' streams across commits: `handles/tag<k>` and
    # `post/tag<k>`, built directly under the trial's stream (the `mgen` and
    # `dist` contexts hold only the roles' private coins).
    construction = reduction_cca1_to_prf(_EncryptingMessage(), _EncryptingReadout(), qubits=1)
    oracle = lambda tag: tag[::-1]
    bits = "".join(str(construction(oracle, Stream(9).child(f"t{t}"))) for t in range(64))
    assert bits == "1101100101101100010011010001011110111010100111010010001011010000"


class _EncryptingPastBudget(MessageGenerator):
    """Before the challenge: encrypts |0> once more than the budget allows."""

    def __init__(self, budget: int):
        self.budget = budget

    def cases(self, pk, ctx):
        for _ in range(self.budget + 1):
            ctx.oracles.encrypt(basis_state("0"))
        return [MessageCase(Fraction(1), basis_state("1", "M"))]


class _DecryptingAfterChallenge(Distinguisher):
    """After the challenge: asks the simulated scheme to decrypt its challenge."""

    def prob_one(self, tag, state, ctx):
        ctx.oracles.decrypt(SkeCiphertext(tag, state))
        return 0.5


def test_prf_construction_refuses_calls_past_its_budget():
    construction = reduction_cca1_to_prf(_EncryptingPastBudget(ORACLE_BUDGET),
                                         MeasureEqualsDistinguisher("1"), qubits=1)
    with pytest.raises(OraclePolicyError, match=f"budget of {ORACLE_BUDGET} calls exhausted"):
        construction(lambda tag: tag, Stream(9))


class _DecryptingMessage(MessageGenerator):
    """Before the challenge: encrypts |1> and sends the simulated scheme's decryption."""

    def __init__(self):
        self.plaintexts = []

    def cases(self, pk, ctx):
        plaintext = ctx.oracles.decrypt(ctx.oracles.encrypt(basis_state("1", "M")))
        self.plaintexts.append(plaintext)
        return [MessageCase(Fraction(1), plaintext)]


def test_prf_construction_decrypts_through_the_function_oracle():
    # The oracle's pad flips the qubit, so a decryption that skipped it would read 0.
    mgen = _DecryptingMessage()
    construction = reduction_cca1_to_prf(mgen, MeasureEqualsDistinguisher("1"), qubits=1)
    for t in range(8):
        construction(lambda tag: "11", Stream(9).child(f"t{t}"))
    assert len(mgen.plaintexts) == 8
    assert all(measurement_distribution(p, "M").get("1") == 1 for p in mgen.plaintexts)


def test_prf_construction_refuses_decryption_after_the_challenge():
    construction = reduction_cca1_to_prf(BasisMessage("1"), _DecryptingAfterChallenge(), qubits=1)
    with pytest.raises(OraclePolicyError, match="'dec' oracle not granted"):
        construction(lambda tag: tag, Stream(9))


# ---------------------------------------------------------------------------
# Padded-pair distinguisher -> generator distinguisher
# ---------------------------------------------------------------------------


def _pair():
    return PaddedStatePair(joint=basis_state("1", "A"), product_a=basis_state("0", "A"))


def test_uniform_arm_exactly_half():
    dist = UnpadThenMeasureDistinguisher("11", "1", "A")
    est = run_prg_pad_reduction(ConstantPrg(1, "11"), dist, _pair(), EXACT)
    assert est.p_ideal_exact == Fraction(1, 2)
    assert est.p_real_exact == 1
    assert est.advantage >= 0.4


def test_uniform_arm_half_with_entangled_side_register():
    joint = bell_state("A", "B", exact=False)
    pair = PaddedStatePair(joint=joint, product_a=maximally_mixed(1, "A"))
    dist = UnpadThenMeasureDistinguisher("00", "1", "A")
    est = run_prg_pad_reduction(ConstantPrg(1, "00"), dist, pair, EXACT)
    assert est.p_ideal_exact == Fraction(1, 2)


def test_exact_pad_reduction_refuses_oversized_register():
    pair = PaddedStatePair(joint=basis_state("1111", "A"), product_a=basis_state("0000", "A"))
    with pytest.raises(ParameterError, match="at most 3 plaintext qubits, got 4"):
        run_prg_pad_reduction(ConstantPrg(1, "1" * 8), CoinDistinguisher(), pair, EXACT)


def test_coin_distinguisher_gives_zero_advantage():
    est = run_prg_pad_reduction(ConstantPrg(1, "10"), CoinDistinguisher(), _pair(), EXACT)
    assert est.p_real_exact == est.p_ideal_exact == Fraction(1, 2)
    assert est.advantage_exact == 0


def test_second_case_keeps_b_marginal():
    pair = PaddedStatePair(joint=bell_state("A", "B"), product_a=basis_state("0", "A"))
    second = pair.second_case()
    assert second.names == ("A", "B")
    assert trace_distance(partial_trace(second, "A"), maximally_mixed(1, "B")) < 1e-12


class _CountingUnpad(UnpadThenMeasureDistinguisher):
    def __init__(self):
        super().__init__("11", "1", "A")
        self.calls = 0

    def prob_one(self, tag, state, ctx):
        self.calls += 1
        return super().prob_one(tag, state, ctx)


class _ImpureCountingUnpad(_CountingUnpad):
    pure = False


def test_sampled_pad_reduction_replays_branches_of_a_pure_distinguisher():
    # The generator is a function of its seed, not a role: the library
    # distinguisher alone lets each arm replay its branches, and a subclass
    # declaring `pure = False` is evaluated in every trial, to the same estimate.
    replayed, full = _CountingUnpad(), _ImpureCountingUnpad()
    config = GameConfig(trials=300, seed=11)
    assert (run_prg_pad_reduction(ConstantPrg(1, "11"), replayed, _pair(), config)
            == run_prg_pad_reduction(ConstantPrg(1, "11"), full, _pair(), config))
    assert full.calls == 600  # 300 trials per arm
    assert 0 < replayed.calls < full.calls


def test_sampled_reduction_matches_exact():
    dist = UnpadThenMeasureDistinguisher("11", "1", "A")
    sampled = run_prg_pad_reduction(
        ConstantPrg(1, "11"), dist, _pair(), GameConfig(trials=400, seed=8)
    )
    assert sampled.p_real == 1.0
    assert abs(sampled.p_ideal - 0.5) <= sampled.ci_halfwidth + 0.05


# ---------------------------------------------------------------------------
# Detection chain across definitions
# ---------------------------------------------------------------------------


def _sem3_roles_from_hidden_bit(ind_mgen, ind_dist):
    """Transcript-game roles built from a hidden-bit adversary: the coin
    generator appends the hidden bit to its transcript, the target function
    reads that bit back, and the adversary is the distinguisher's bit."""
    from qelab.roles import BitChannelAdversary, CoinMessageGenerator, last_bit_function

    mgen = CoinMessageGenerator(ind_mgen, include_f=False, include_transcript=True)
    adversary = BitChannelAdversary(ind_dist)
    return mgen, adversary, last_bit_function()


def test_transcript_game_detection_matches_hidden_bit_game():
    # A witness that breaks the scheme in the transcript game must also
    # break it in the hidden-bit game (and a hiding scheme passes both):
    # the constructed roles make the two success probabilities literally equal.
    from qelab.games import run_ind_prime, run_sem3

    mgen = BasisMessage("1")
    dist = MeasureEqualsDistinguisher("1", "M")
    for scheme, broken in ((IdentityScheme(1, 1), True), (QotpScheme(1, 1), False)):
        sem3_mgen, adversary, fn = _sem3_roles_from_hidden_bit(mgen, dist)
        sem3 = run_sem3(scheme, sem3_mgen, adversary, ConstantOutputChannel("0"), fn, None, EXACT)
        guess = run_ind_prime(scheme, mgen, dist, None, EXACT)
        assert sem3.p_real_exact == guess.p_real_exact
        assert sem3.p_ideal_exact == Fraction(1, 2)
        sem3_detects = sem3.p_real_exact > sem3.p_ideal_exact
        hidden_bit_detects = guess.p_real_exact > Fraction(1, 2)
        assert sem3_detects == hidden_bit_detects == broken
