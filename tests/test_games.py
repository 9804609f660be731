from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

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
from qelab.quantum import (
    apply_pauli,
    basis_state,
    maximally_mixed,
    measurement_distribution,
    replace_with_zero_state,
    tensor,
)
from qelab.rationals import QRat
from qelab.reductions import reduction_cca1_to_prf, reduction_ind_to_sem
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
    RoleContext,
    SamplingPlay,
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
    build_scheme,
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


_PROBS = st.sampled_from([Fraction(0), Fraction(1), Fraction(1, 2), Fraction(1, 3),
                          Fraction(2, 7), Fraction(5, 8)])


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(st.integers(1, 4), _PROBS), min_size=1, max_size=40))
def test_exact_probability_tally_equals_per_branch_sum(raw):
    # Small value sets, so equal (weight, probability) pairs repeat often.
    total = sum(w for w, _ in raw)
    pairs = [(Fraction(w, total), p) for w, p in raw]
    naive = sum((w * p for w, p in pairs), Fraction(0))
    assert GameArm(branches=lambda: pairs).exact_probability() == naive


def test_exact_probability_rejects_weights_not_summing_to_one():
    # Repeated pairs that fall 1/64 short, and an overshoot built from ints.
    short = [(Fraction(1, 64), Fraction(1, 2))] * 63
    with pytest.raises(EnumerationCapError, match="sum to 63/64"):
        GameArm(branches=lambda: short).exact_probability()
    over = [(1, 1), (Fraction(1, 2), 0)]
    with pytest.raises(EnumerationCapError, match="sum to 3/2"):
        GameArm(branches=lambda: over).exact_probability()


def test_exact_probability_cap_fires_at_branch_cap_plus_one():
    pulled = []

    def branches():
        for i in range(100):
            pulled.append(i)
            yield Fraction(1, 100), Fraction(1)

    with pytest.raises(EnumerationCapError, match="cap of 10 branches"):
        GameArm(branches=branches).exact_probability(cap=10)
    assert len(pulled) == 11


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


class _TagParityDistinguisher(Distinguisher):
    """Reads the tag: outputs 1 iff the readout equals the tag's parity bit.

    It keeps the default `reads_tag`, so no game may share its values
    between tags.
    """

    def __init__(self):
        self.calls = 0

    def decide(self, tag, outcome, ctx):
        return 1 if outcome == str(tag.count("1") % 2) else 0

    def prob_one(self, tag, state, ctx):
        self.calls += 1
        return super().prob_one(tag, state, ctx)


def _brute_force_ind(scheme, message, p_one, first_tag_per_pad=False):
    """Pr[1] in each ind arm, as one Fraction sum over every (key, tag) branch.

    With `first_tag_per_pad`, each branch is scored with the tag of the
    first branch under the same key that has its pad, which is what
    sharing one value per pad would compute.
    """
    arms = []
    for state in (message, replace_with_zero_state(message, "M")):
        total = Fraction(0)
        keys = scheme.key_cases()
        wk = Fraction(1, len(keys))
        for kp in keys:
            first = {}
            cases = scheme.encrypt_cases(kp.ek)
            for case in cases:
                tag = first.setdefault(case.pad, case.tag) if first_tag_per_pad else case.tag
                total += (wk * Fraction(1, len(cases))
                          * p_one(tag, apply_pauli(case.pad, state, "M")))
        arms.append(total)
    return arms


def test_tag_reading_role_is_evaluated_on_every_branch():
    scheme = PrfSymmetricScheme(2, 1, setup_rng=Stream(7).child("s"))
    dist = _TagParityDistinguisher()
    assert dist.reads_tag is True  # the default contract: never grouped

    def p_one(tag, padded):
        return sum((p for o, p in measurement_distribution(padded, "M").items()
                    if dist.decide(tag, o, None) == 1), Fraction(0))

    message = basis_state("1", "M", True)
    real, ideal = _brute_force_ind(scheme, message, p_one)
    est = run_ind(scheme, BasisMessage("1"), dist, None, EXACT)
    assert (est.p_real_exact, est.p_ideal_exact) == (real, ideal)
    assert dist.calls == 2 * 4 * 4  # arms x keys x tags
    # The check has teeth: sharing one value per pad would change the result.
    assert _brute_force_ind(scheme, message, p_one, first_tag_per_pad=True) != [real, ideal]


class _CountingReadout(MeasureEqualsDistinguisher):
    def __init__(self, value):
        super().__init__(value, "M")
        self.calls = 0

    def prob_one(self, tag, state, ctx):
        self.calls += 1
        return super().prob_one(tag, state, ctx)


def test_readout_role_is_measured_once_per_distinct_pad():
    # The exact-ske-q3 benchmark command: 4 keys x 64 tags per arm.
    scheme = build_scheme("ske-prf", 2, 3, Stream(7))
    dist = _CountingReadout("111")
    assert dist.reads_tag is False
    est = run_ind(scheme, BasisMessage("111"), dist, None,
                  GameConfig(qubits=3, exact=True, seed=7))
    pads_per_key = [
        len({case.pad for case in scheme.encrypt_cases(kp.ek)})
        for kp in scheme.key_cases()
    ]
    assert dist.calls == 2 * sum(pads_per_key) == 24
    assert (est.p_real_exact, est.p_ideal_exact) == (Fraction(0), Fraction(183, 256))


def test_exact_ind_enumerates_encryption_coins_once_per_key(monkeypatch):
    calls = []
    original = PrfSymmetricScheme.encrypt_cases

    def counting(self, ek):
        calls.append(ek)
        return original(self, ek)

    monkeypatch.setattr(PrfSymmetricScheme, "encrypt_cases", counting)
    scheme = PrfSymmetricScheme(2, 1, setup_rng=Stream(7).child("s"))
    run_ind(scheme, BasisMessage("1"), MeasureEqualsDistinguisher("1", "M"), None, EXACT)
    assert sorted(calls) == ["00", "01", "10", "11"]


def test_exact_ind_draws_the_fixed_keypair_once(monkeypatch):
    from qelab.schemes import PermutationPublicScheme

    calls = []
    original = PermutationPublicScheme.keygen

    def counting(self, rng):
        calls.append(1)
        return original(self, rng)

    monkeypatch.setattr(PermutationPublicScheme, "keygen", counting)
    scheme = PermutationPublicScheme(4, 1)
    run_ind(scheme, BasisMessage("1"), MeasureEqualsDistinguisher("1", "M"), None, EXACT)
    assert len(calls) == 1


def _played_branches(monkeypatch, run, *args):
    """The (weight, p) branches of every arm that `run(*args)` hands to `estimate`."""
    import qelab.games as games

    played = []
    original = games.estimate

    def capture(real, ideal=None, **kwargs):
        played.extend(list(arm._branches()) for arm in (real, ideal) if arm is not None)
        return original(real, ideal, **kwargs)

    monkeypatch.setattr(games, "estimate", capture)
    run(*args)
    return played


def _brute_force_branches(scheme, message, keys, hidden_bit: bool):
    """Every (key, encryption case) branch of the readout of `message`'s own bits.

    Two arms (genuine, zeroed message) for ind; one arm with the hidden
    bit as a further fair coin for ind-prime.
    """

    state = basis_state(message, "M", True)

    def p_one(state, pad):
        return measurement_distribution(apply_pauli(pad, state, "M"), "M")[message]

    zero = replace_with_zero_state(state, "M")
    arms = [[], []]
    wk = Fraction(1, len(keys))
    for kp in keys:
        cases = scheme.encrypt_cases(kp.ek)
        for case in cases:
            real, ideal = p_one(state, case.pad), p_one(zero, case.pad)
            if hidden_bit:
                half = wk * Fraction(1, len(cases)) / 2
                arms[0] += [(half, real), (half, 1 - ideal)]
            else:
                arms[0].append((wk * Fraction(1, len(cases)), real))
                arms[1].append((wk * Fraction(1, len(cases)), ideal))
    return arms[:1] if hidden_bit else arms


@pytest.mark.parametrize("name, n", [("ske-prf", 2), ("pke-towp", 4)])
@pytest.mark.parametrize("run", [run_ind, run_ind_prime])
def test_exact_ind_branches_equal_brute_force_enumeration(monkeypatch, name, n, run):
    qubits = 2 if name == "ske-prf" else 1
    config = GameConfig(qubits=qubits, exact=True, seed=7)
    scheme = build_scheme(name, n, qubits, Stream(7))
    message = "1" * qubits
    played = _played_branches(
        monkeypatch, run, scheme, BasisMessage(message),
        MeasureEqualsDistinguisher(message, "M"), None, config,
    )
    keys = scheme.key_cases() or [scheme.keygen(config.stream("fixed-key"))]
    expected = _brute_force_branches(scheme, message, keys, hidden_bit=run is run_ind_prime)
    assert [Counter(arm) for arm in played] == [Counter(arm) for arm in expected]


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


class _OracleProbingMessage(MessageGenerator):
    """Before the challenge: encrypts |0> twice and sends the parity of the two tags."""

    def cases(self, pk, ctx):
        first = ctx.oracles.encrypt(basis_state("0"))
        second = ctx.oracles.encrypt(basis_state("0"))
        bit = str((first.tag + second.tag).count("1") % 2)
        return [MessageCase(Fraction(1), basis_state(bit, "M"))]


class _OracleProbingReadout(Distinguisher):
    """After the challenge: encrypts |1>; on a tag collision it compares the
    challenge's readout with the oracle ciphertext's, otherwise it reads M for 1."""

    def prob_one(self, tag, state, ctx):
        ct = ctx.oracles.encrypt(basis_state("1"))
        p = measurement_distribution(state, "M")["1"]
        if ct.tag != tag:
            return p
        q = measurement_distribution(ct.payload, "M")["1"]
        return p * q + (1 - p) * (1 - q)


def test_sampled_cpa_estimate_with_oracle_calls_on_both_sides_is_pinned():
    # The values pin the oracle streams' paths (`<role>-oracle/enc<k>`) and
    # every draw the roles' oracle calls make, across commits.
    scheme = PrfSymmetricScheme(2, 1, setup_rng=Stream(7))
    est = run_ind(scheme, _OracleProbingMessage(), _OracleProbingReadout(),
                  OraclePolicy.cpa(), GameConfig(qubits=1, trials=500, seed=7))
    assert (est.p_real, est.p_ideal) == (0.466, 0.266)


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


# ---------------------------------------------------------------------------
# Trial-invariant work: shared message cases and one-entry memos
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("mgen", [BasisMessage("10"), BasisMessageWithTarget("1"),
                                  EntangledMessage()])
def test_fixed_generators_hand_out_one_case_per_mode(mgen):
    float_ctx, exact_ctx = RoleContext(play=SamplingPlay(Stream(1))), RoleContext()
    (first,) = mgen.cases(None, float_ctx)
    assert mgen.cases(None, float_ctx)[0] is first
    (exact,) = mgen.cases(None, exact_ctx)
    assert mgen.cases(None, exact_ctx)[0] is exact
    assert exact.state.exact and not first.state.exact


class _AlternatingMessage(MessageGenerator):
    """A fresh state object on every call: |1>_M |b>_side, b alternating 0, 1, 0, ..."""

    def __init__(self, side: str = "E"):
        self.side = side
        self.calls = 0
        self.last = None

    def cases(self, pk, ctx):
        bit = str(self.calls % 2)
        self.calls += 1
        self.last = tensor(basis_state("1", "M", ctx.exact), basis_state(bit, self.side, ctx.exact))
        return [MessageCase(Fraction(1), self.last, transcript=bit)]


class _ChecksLatestMessage(Distinguisher):
    """1 on the generator's latest state, 0 on its zeroed form; anything else fails."""

    reads_tag = False

    def __init__(self, mgen: _AlternatingMessage):
        self.mgen = mgen

    def prob_one(self, tag, state, ctx):
        last = self.mgen.last
        for candidate, p in ((last, 1), (replace_with_zero_state(last, "M"), 0)):
            if state.layout == candidate.layout and np.array_equal(
                state.to_float().mat, candidate.to_float().mat
            ):
                return Fraction(p) if state.exact else float(p)
        raise AssertionError("the challenge is not built from this trial's message state")


@pytest.mark.parametrize("exact", [False, True])
def test_zeroed_state_memo_follows_each_trials_message(exact):
    config = GameConfig(qubits=1, trials=40, seed=3, exact=exact)
    mgen = _AlternatingMessage()
    est = run_ind(IdentityScheme(1, 1), mgen, _ChecksLatestMessage(mgen), None, config)
    assert (est.p_real, est.p_ideal) == (1.0, 0.0)
    mgen = _AlternatingMessage()
    est = run_ind_prime(IdentityScheme(1, 1), mgen, _ChecksLatestMessage(mgen), None, config)
    assert est.p_real == 1.0


def test_zeroed_state_memo_follows_each_prf_experiment_trial():
    mgen = _AlternatingMessage()
    construction = reduction_cca1_to_prf(mgen, _ChecksLatestMessage(mgen), qubits=1)
    identity_pad = lambda tag: "00"
    assert all(construction(identity_pad, Stream(5).child(f"t{t}")) == 1 for t in range(40))


def test_sem2_target_memo_follows_each_trials_message():
    # Targets alternate 0, 1, ...: the copied message 1 matches the ones and
    # the constant simulator 0 the zeros, each exactly half the trials.
    est = run_sem2(IdentityScheme(1, 1), _AlternatingMessage("F"), CopyPayloadAdversary("M", "OUT"),
                   ConstantOutputChannel("0"), None, GameConfig(qubits=1, trials=40, seed=3))
    assert (est.p_real, est.p_ideal) == (0.5, 0.5)
