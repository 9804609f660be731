from fractions import Fraction

import pytest

from qelab.errors import EnumerationCapError, OraclePolicyError, ParameterError, RoleError
from qelab.estimate import GameArm, estimate
from qelab.games import (
    GameConfig,
    GeneratorFunctionPair,
    OraclePolicy,
    ind_prime_ind_identity_check,
    run_ind,
    run_ind_prime,
    run_sem,
    run_sem2,
    run_sem3,
)
from qelab.quantum import basis_state, maximally_mixed, tensor
from qelab.rationals import QRat
from qelab.reductions import reduction_ind_to_sem
from qelab.rng import Stream
from qelab.roles import (
    BasisMessage,
    BasisMessageWithTarget,
    CoinDistinguisher,
    CompareRegistersDistinguisher,
    ConstantDistinguisher,
    ConstantOutputChannel,
    CopyPayloadAdversary,
    Distinguisher,
    EntangledMessage,
    MessageCase,
    MessageGenerator,
    MeasureEqualsDistinguisher,
    UniformOutputChannel,
    constant_function,
    identity_function,
    last_bit_function,
)
from qelab.schemes import (
    IdentityScheme,
    PrfSymmetricScheme,
    QotpScheme,
    RandomPadSymmetricScheme,
    UniformPadPublicScheme,
)

EXACT = GameConfig(qubits=1, exact=True, seed=5)


# ---------------------------------------------------------------------------
# Estimation driver
# ---------------------------------------------------------------------------


def test_estimate_fair_coin_exact():
    arm = GameArm(branches=lambda: [(Fraction(1, 2), Fraction(1)), (Fraction(1, 2), Fraction(0))])
    est = estimate(arm, None, exact=True, rng=Stream(1))
    assert est.p_real_exact == Fraction(1, 2)
    assert est.ci_halfwidth == 0.0


def test_estimate_degenerate_branch():
    arm = GameArm(branches=lambda: [(Fraction(1), Fraction(1))])
    est = estimate(arm, None, exact=True, rng=Stream(2))
    assert est.p_real_exact in (Fraction(0), Fraction(1))


def test_estimate_weight_guard_and_cap():
    bad = GameArm(branches=lambda: [(Fraction(1, 2), Fraction(1))])
    with pytest.raises(EnumerationCapError):
        estimate(bad, None, exact=True, rng=Stream(3))
    wide = GameArm(branches=lambda: ((Fraction(1, 100), Fraction(1)) for _ in range(100)))
    with pytest.raises(EnumerationCapError):
        estimate(wide, None, exact=True, rng=Stream(4), cap=10)


def test_estimate_sampling_agrees_with_exact():
    # a weighted Bernoulli game sampled 100 times x 100 repetitions: the
    # exact value must fall inside the reported interval ~95% of the time
    branches = [(Fraction(1, 4), Fraction(1)), (Fraction(3, 4), Fraction(1, 3))]
    exact_p = sum(w * p for w, p in branches)

    def sampler(rng):
        r = rng.child("w").uniform()
        return 1.0 if r < 0.25 else 1.0 / 3.0

    arm = GameArm(branches=lambda: branches, sample_probability=sampler)
    est = estimate(arm, None, exact=True, rng=Stream(5))
    assert est.p_real_exact == exact_p

    covered = 0
    for rep in range(100):
        sampled = estimate(arm, None, exact=False, trials=100, rng=Stream(600 + rep))
        if abs(sampled.p_real - float(exact_p)) <= sampled.ci_halfwidth:
            covered += 1
    assert covered >= 95


# ---------------------------------------------------------------------------
# Oracle policy
# ---------------------------------------------------------------------------


def test_policy_presets_and_ceiling():
    assert OraclePolicy.plain().pre == frozenset()
    assert OraclePolicy.cpa().post == {"enc"}
    assert OraclePolicy.cca1().pre == {"enc", "dec"}
    with pytest.raises(OraclePolicyError):
        OraclePolicy("bad", frozenset(), frozenset({"dec"}))
    with pytest.raises(OraclePolicyError):
        OraclePolicy("bad", frozenset({"sign"}), frozenset())


class _DecryptingDistinguisher(Distinguisher):
    """Abusive role: tries the decryption oracle after the challenge."""

    def prob_one(self, tag, state, ctx):
        from qelab.schemes import SkeCiphertext

        ctx.oracles.decrypt(SkeCiphertext("00", maximally_mixed(1)))
        return 0.5


def test_post_challenge_decryption_aborts():
    scheme = PrfSymmetricScheme(1, 1, setup_rng=Stream(7).child("s"))
    config = GameConfig(qubits=1, trials=2, seed=8)
    with pytest.raises(OraclePolicyError):
        run_ind(scheme, BasisMessage("1"), _DecryptingDistinguisher(),
                OraclePolicy.cca1(), config)


class _GreedyEncrypting(MessageGenerator):
    def cases(self, pk, ctx):
        for i in range(100):
            ctx.oracles.encrypt(basis_state("0"))
        return [MessageCase(Fraction(1), basis_state("1", "M"))]


def test_oracle_budget_enforced():
    scheme = PrfSymmetricScheme(1, 1, setup_rng=Stream(9).child("s"))
    config = GameConfig(qubits=1, trials=1, seed=10, oracle_budget=16)
    with pytest.raises(OraclePolicyError):
        run_ind(scheme, _GreedyEncrypting(), ConstantDistinguisher(1),
                OraclePolicy.cpa(), config)


def test_exact_mode_denies_oracles():
    scheme = PrfSymmetricScheme(1, 1, setup_rng=Stream(11).child("s"))
    with pytest.raises(OraclePolicyError):
        run_ind(scheme, _GreedyEncrypting(), ConstantDistinguisher(1),
                OraclePolicy.cpa(), EXACT)


class _CountingMessage(BasisMessage):
    def __init__(self, bits: str):
        super().__init__(bits)
        self.calls = 0

    def cases(self, pk, ctx):
        self.calls += 1
        return super().cases(pk, ctx)


@pytest.mark.parametrize("game", [run_ind, run_ind_prime])
def test_exact_size_guard_reads_the_scheme_qubits(game):
    # The config claims one qubit; the scheme has four.
    mgen = _CountingMessage("1111")
    with pytest.raises(ParameterError, match="at most 3 plaintext qubits, got 4"):
        game(IdentityScheme(1, 4), mgen, ConstantDistinguisher(1),
             config=GameConfig(qubits=1, exact=True))
    assert mgen.calls == 0


def test_exact_ind_builds_no_qrat(monkeypatch):
    built = []
    init = QRat.__init__

    def counting_init(self, re=0, im=0):
        built.append(1)
        init(self, re, im)

    monkeypatch.setattr(QRat, "__init__", counting_init)
    scheme = PrfSymmetricScheme(2, 3, setup_rng=Stream(7))
    est = run_ind(scheme, BasisMessage("111"), MeasureEqualsDistinguisher("111", "M"),
                  None, GameConfig(qubits=3, exact=True, seed=7))
    assert isinstance(est.p_real_exact, Fraction) and isinstance(est.p_ideal_exact, Fraction)
    assert built == []
    QRat(1)
    assert len(built) == 1  # the counter sees a QRat when one is built


# ---------------------------------------------------------------------------
# Two-arm and hidden-bit games
# ---------------------------------------------------------------------------


def test_broken_identity_scheme_fully_distinguished():
    scheme = IdentityScheme(1, 1)
    est = run_ind(scheme, BasisMessage("1"), MeasureEqualsDistinguisher("1", "M"),
                  None, EXACT)
    assert est.advantage_exact == 1
    guess = run_ind_prime(scheme, BasisMessage("1"), MeasureEqualsDistinguisher("1", "M"),
                          None, EXACT)
    assert guess.p_real_exact == 1


def test_constant_distinguisher_no_advantage():
    est = run_ind(IdentityScheme(1, 1), BasisMessage("1"), ConstantDistinguisher(1),
                  None, EXACT)
    assert est.advantage_exact == 0
    guess = run_ind_prime(IdentityScheme(1, 1), BasisMessage("1"), CoinDistinguisher(),
                          None, EXACT)
    assert guess.p_real_exact == Fraction(1, 2)


def test_fresh_pad_is_perfectly_hiding_exact():
    scheme = QotpScheme(1, 1)
    for mgen in (BasisMessage("1"), EntangledMessage()):
        est = run_ind(scheme, mgen, MeasureEqualsDistinguisher("1", "M"), None, EXACT)
        assert est.advantage_exact == 0
        guess = run_ind_prime(scheme, mgen, MeasureEqualsDistinguisher("1", "M"), None, EXACT)
        assert guess.p_real_exact == Fraction(1, 2)


def test_register_mismatch_rejected():
    scheme = IdentityScheme(1, 2)
    with pytest.raises(RoleError):
        run_ind(scheme, BasisMessage("1"), ConstantDistinguisher(1), None,
                GameConfig(qubits=2, exact=True, seed=1))


def test_sampled_matches_exact_on_identity_scheme():
    scheme = IdentityScheme(1, 1)
    config = GameConfig(qubits=1, trials=200, seed=12)
    est = run_ind(scheme, BasisMessage("1"), MeasureEqualsDistinguisher("1", "M"),
                  None, config)
    assert est.p_real == 1.0 and est.p_ideal == 0.0


def test_identity_check_exact_algebra():
    report = ind_prime_ind_identity_check(
        IdentityScheme(1, 1), BasisMessage("1"), MeasureEqualsDistinguisher("1", "M"), EXACT
    )
    assert report["identity_holds"] and report["flipped_identity_holds"]
    assert report["max_residual"] <= 1e-12
    report = ind_prime_ind_identity_check(
        QotpScheme(1, 1), BasisMessage("1"), MeasureEqualsDistinguisher("1", "M"), EXACT
    )
    assert report["identity_holds"] and report["flipped_identity_holds"]


# ---------------------------------------------------------------------------
# Semantic-security games
# ---------------------------------------------------------------------------


def test_sem_broken_scheme_detected():
    est = run_sem(
        IdentityScheme(1, 1),
        BasisMessageWithTarget("1"),
        CopyPayloadAdversary("M", "OUT"),
        ConstantOutputChannel("0"),
        CompareRegistersDistinguisher("OUT", "F"),
        None,
        EXACT,
    )
    assert est.p_real_exact == 1 and est.p_ideal_exact == 0
    assert est.advantage >= 0.9


def test_sem_matching_channels_no_advantage():
    # adversary and simulator are the same ciphertext-independent map
    est = run_sem(
        IdentityScheme(1, 1),
        BasisMessageWithTarget("1"),
        ConstantOutputChannel("1"),
        ConstantOutputChannel("1"),
        CompareRegistersDistinguisher("OUT", "F"),
        None,
        EXACT,
    )
    assert est.advantage_exact == 0


def test_sem_secure_scheme_with_built_simulator():
    adversary = CopyPayloadAdversary("M", "OUT")
    est = run_sem(
        QotpScheme(1, 1),
        BasisMessageWithTarget("1"),
        adversary,
        reduction_ind_to_sem(adversary),
        CompareRegistersDistinguisher("OUT", "F"),
        None,
        EXACT,
    )
    assert est.advantage_exact == 0


def test_sem2_uniform_simulator_baseline():
    est = run_sem2(
        IdentityScheme(1, 1),
        BasisMessageWithTarget("1"),
        CopyPayloadAdversary("M", "OUT"),
        UniformOutputChannel(1),
        None,
        EXACT,
    )
    assert est.p_ideal_exact == Fraction(1, 2)
    assert est.p_real_exact == 1


def test_sem2_length_mismatch_counts_as_failure():
    est = run_sem2(
        IdentityScheme(1, 1),
        BasisMessageWithTarget("1"),
        ConstantOutputChannel("01"),  # two bits against a one-bit target
        ConstantOutputChannel("01"),
        None,
        EXACT,
    )
    assert est.p_real_exact == 0 and est.p_ideal_exact == 0


def test_sem2_rejects_non_classical_target():
    class _EntangledTarget(MessageGenerator):
        def cases(self, pk, ctx):
            from qelab.quantum import bell_state

            state = tensor(bell_state("M", "F", ctx.exact), basis_state("0", "E", ctx.exact))
            return [MessageCase(Fraction(1), state)]

    with pytest.raises(RoleError):
        run_sem2(
            IdentityScheme(1, 1),
            _EntangledTarget(),
            CopyPayloadAdversary("M", "OUT"),
            ConstantOutputChannel("0"),
            None,
            EXACT,
        )


def test_sem3_constant_function_trivially_simulated():
    pair = GeneratorFunctionPair(BasisMessageWithTarget("1"), constant_function("0", in_len=1))
    est = run_sem3(
        IdentityScheme(1, 1),
        pair,
        ConstantOutputChannel("0"),
        ConstantOutputChannel("0"),
        None,
        EXACT,
    )
    assert est.p_real_exact == 1 and est.p_ideal_exact == 1


def test_sem3_broken_scheme_detected():
    pair = GeneratorFunctionPair(BasisMessageWithTarget("1"), identity_function(1))
    est = run_sem3(
        IdentityScheme(1, 1),
        pair,
        CopyPayloadAdversary("M", "OUT"),
        ConstantOutputChannel("0"),
        None,
        EXACT,
    )
    assert est.p_real_exact == 1
    assert est.p_real_exact - est.p_ideal_exact >= Fraction(9, 10)


def test_sem3_coin_construction_simulator_capped_at_half():
    from qelab.roles import CoinMessageGenerator

    mgen = CoinMessageGenerator(BasisMessage("1"), include_f=False, include_transcript=True)
    pair = GeneratorFunctionPair(mgen, last_bit_function())
    for sim_bits in ("0", "1"):
        est = run_sem3(
            IdentityScheme(1, 1),
            pair,
            ConstantOutputChannel("0"),
            ConstantOutputChannel(sim_bits),
            None,
            EXACT,
        )
        assert est.p_ideal_exact == Fraction(1, 2)


def test_sem3_arity_mismatch_rejected():
    pair = GeneratorFunctionPair(BasisMessageWithTarget("1"), constant_function("0", in_len=3))
    with pytest.raises(RoleError):
        run_sem3(
            IdentityScheme(1, 1),
            pair,
            CopyPayloadAdversary("M", "OUT"),
            ConstantOutputChannel("0"),
            None,
            EXACT,
        )


def test_sem3_requires_transcript():
    pair = GeneratorFunctionPair(BasisMessage("1"), constant_function("0"))
    with pytest.raises(RoleError):
        run_sem3(
            IdentityScheme(1, 1),
            pair,
            CopyPayloadAdversary("M", "OUT"),
            ConstantOutputChannel("0"),
            None,
            EXACT,
        )


# ---------------------------------------------------------------------------
# Oracle-granting games against weak schemes (sampling mode)
# ---------------------------------------------------------------------------


def test_cpa_readout_breaks_constant_prf_scheme():
    from qelab.primitives import ConstantPrf

    scheme = PrfSymmetricScheme(2, 1, prf=ConstantPrf(2, 2, 2))
    config = GameConfig(qubits=1, trials=1000, seed=13)
    est = run_ind(scheme, BasisMessage("1"), MeasureEqualsDistinguisher("1", "M"),
                  OraclePolicy.cpa(), config)
    assert est.advantage >= 0.9
    assert est.ci_halfwidth <= 0.05


def test_all_games_null_on_random_pad_scheme():
    scheme = RandomPadSymmetricScheme(1, 1)
    adversary = CopyPayloadAdversary("M", "OUT")
    simulator = reduction_ind_to_sem(adversary)
    est = run_ind(scheme, BasisMessage("1"), MeasureEqualsDistinguisher("1", "M"), None, EXACT)
    assert est.advantage_exact == 0
    est = run_sem(scheme, BasisMessageWithTarget("1"), adversary, simulator,
                  CompareRegistersDistinguisher("OUT", "F"), None, EXACT)
    assert est.advantage_exact == 0


def test_public_scheme_hands_pk_to_roles():
    seen = {}

    class _Probe(MessageGenerator):
        def cases(self, pk, ctx):
            seen["pk"] = pk
            return [MessageCase(Fraction(1), basis_state("1", "M", ctx.exact))]

    scheme = UniformPadPublicScheme(1, 1)
    run_ind(scheme, _Probe(), ConstantDistinguisher(0), None, EXACT)
    assert seen["pk"] is not None and hasattr(seen["pk"], "modulus")

    sym = RandomPadSymmetricScheme(1, 1)
    run_ind(sym, _Probe(), ConstantDistinguisher(0), None, EXACT)
    assert seen["pk"] is None  # blank input in the symmetric setting


def test_exact_mode_qubit_cap():
    with pytest.raises(ValueError):
        GameConfig(qubits=4, exact=True)
    with pytest.raises(ValueError):
        GameConfig(trials=0)


def test_advantage_estimate_invariants():
    from qelab.estimate import AdvantageEstimate

    with pytest.raises(ValueError):
        AdvantageEstimate(1.5, 0.0, 1.5, 0.0, 10, False)
    with pytest.raises(ValueError):
        AdvantageEstimate(0.5, 0.5, 0.0, 0.1, 0, True)
    est = AdvantageEstimate(0.5, 0.25, 0.25, 0.0, 0, True,
                            Fraction(1, 2), Fraction(1, 4))
    assert est.advantage_exact == Fraction(1, 4)
    assert est.to_dict()["p_real"] == 0.5


def test_identity_check_across_deterministic_distinguishers():
    from qelab.roles import NegatedDistinguisher

    dists = [
        MeasureEqualsDistinguisher("1", "M"),
        MeasureEqualsDistinguisher("0", "M"),
        NegatedDistinguisher(MeasureEqualsDistinguisher("1", "M")),
        ConstantDistinguisher(0),
        ConstantDistinguisher(1),
    ]
    for scheme in (IdentityScheme(1, 1), QotpScheme(1, 1)):
        for dist in dists:
            report = ind_prime_ind_identity_check(scheme, BasisMessage("1"), dist, EXACT)
            assert report["identity_holds"] and report["flipped_identity_holds"]
            assert report["max_residual"] <= 1e-12


def test_sem2_accepts_target_register_in_any_position():
    class _TargetFirst(MessageGenerator):
        def cases(self, pk, ctx):
            state = tensor(
                basis_state("1", "F", ctx.exact), basis_state("1", "M", ctx.exact)
            )
            return [MessageCase(Fraction(1), state)]

    est = run_sem2(
        IdentityScheme(1, 1),
        _TargetFirst(),
        CopyPayloadAdversary("M", "OUT"),
        ConstantOutputChannel("0"),
        None,
        EXACT,
    )
    assert est.p_real_exact == 1 and est.p_ideal_exact == 0
