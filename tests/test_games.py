from collections import Counter
from fractions import Fraction
from itertools import accumulate
from math import comb, exp, log, log1p, sqrt

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qelab.cli import main
from qelab.errors import EnumerationCapError, OraclePolicyError, ParameterError, RoleError
from qelab.estimate import GameArm, estimate, wilson_halfwidth
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
    CoinMessageGenerator,
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
    KeyPair,
    PrfSymmetricScheme,
    QotpScheme,
    RandomPadSymmetricScheme,
    UniformPadPublicScheme,
    build_scheme,
)

EXACT = GameConfig(exact=True, seed=5)


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
    # a weighted Bernoulli game sampled 100 times x 1000 repetitions: the
    # exact value must fall inside the reported interval as often as the
    # interval's own coverage says, and the pooled draws must average it
    branches = [(Fraction(1, 4), Fraction(1)), (Fraction(3, 4), Fraction(1, 3))]
    exact_p = sum(w * p for w, p in branches)
    assert exact_p == Fraction(1, 2)

    def sampler(rng):
        r = rng.child("w").uniform()
        return 1.0 if r < 0.25 else 1.0 / 3.0

    arm = GameArm(branches=lambda: branches, sample_probability=sampler)
    est = estimate(arm, None, exact=True, rng=Stream(5))
    assert est.p_real_exact == exact_p

    reps, trials = 1000, 100
    covered = successes = 0
    for rep in range(reps):
        sampled = estimate(arm, None, exact=False, trials=trials, rng=Stream(600 + rep))
        covered += abs(sampled.p_real - 0.5) <= sampled.ci_halfwidth
        successes += round(sampled.p_real * trials)

    # At p = 1/2 and 100 trials the interval covers with probability 0.943,
    # summed over the 101 outcomes, not 0.95: 100 repetitions held to 95
    # covers would fail an exact sampler about half the time.  The covers
    # are Binomial(1000, 0.943); fail below that count's 1e-3 quantile.
    coverage = sum(
        comb(trials, k) for k in range(trials + 1)
        if abs(k / trials - 0.5) <= wilson_halfwidth(k, trials)
    ) / 2**trials
    assert 0.94 < coverage < 0.95
    pmf = [
        exp(log(comb(reps, j)) + j * log(coverage) + (reps - j) * log1p(-coverage))
        for j in range(reps + 1)
    ]
    below = list(accumulate(pmf, initial=0.0))  # below[m] = P(covers < m)
    assert covered >= max(m for m in range(reps + 1) if below[m] < 1e-3)
    # Hoeffding: 100,000 fair draws stray further from 1/2 with probability
    # below 1e-3, so a sampler biased by 0.01 fails here almost surely.
    n = reps * trials
    assert abs(successes / n - 0.5) <= sqrt(log(2e3) / (2 * n))


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
    config = GameConfig(trials=2, seed=8)
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
    config = GameConfig(trials=1, seed=10, oracle_budget=16)
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
    # The scheme has four qubits: refused before any message case is built.
    mgen = _CountingMessage("1111")
    with pytest.raises(ParameterError, match="at most 3 plaintext qubits, got 4"):
        game(IdentityScheme(1, 4), mgen, ConstantDistinguisher(1),
             config=GameConfig(exact=True))
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
                  None, GameConfig(exact=True, seed=7))
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
    # The exact-ske-q3 benchmark command: 4 keys x 64 tags per arm.  Each
    # arm's challenge state is measured once per pad that any key gives.
    scheme = build_scheme("ske-prf", 2, 3, Stream(7))
    dist = _CountingReadout("111")
    assert dist.reads_tag is False
    est = run_ind(scheme, BasisMessage("111"), dist, None,
                  GameConfig(exact=True, seed=7))
    pads = {case.pad for kp in scheme.key_cases() for case in scheme.encrypt_cases(kp.ek)}
    assert dist.calls == 2 * len(pads) == 6
    assert (est.p_real_exact, est.p_ideal_exact) == (Fraction(0), Fraction(77, 128))


def test_cap_fires_inside_a_grouped_run(monkeypatch):
    # A pad's cases arrive as a run of one shared branch tuple; the cap still
    # counts every leaf, so it refuses on pull cap + 1 in the middle of a run.
    scheme = build_scheme("ske-prf", 2, 3, Stream(7))
    real, _ = _played_arms(monkeypatch, run_ind, scheme, BasisMessage("111"),
                           MeasureEqualsDistinguisher("111", "M"), None,
                           GameConfig(exact=True, seed=7))
    leaves = list(real._branches())
    assert len(leaves) == 256
    cap = next(i for i in range(100, len(leaves)) if leaves[i] is leaves[i - 1])
    pulled = []

    def counted():
        for branch in real._branches():
            pulled.append(branch)
            yield branch

    with pytest.raises(EnumerationCapError, match=f"cap of {cap} branches"):
        GameArm(branches=counted).exact_probability(cap=cap)
    assert len(pulled) == cap + 1
    assert pulled[cap] is pulled[cap - 1]
    assert GameArm(branches=counted).exact_probability(cap=256) == 0


class _PublicIdentityScheme(IdentityScheme):
    """Public-key and unpadded: two keys whose encryptions share the pad None."""

    flavor = "public"

    def key_cases(self):
        return [KeyPair("0", "0"), KeyPair("1", "1")]


class _PublicKeyReadout(CoinDistinguisher):
    """Tag-blind, but its value depends on the public key."""

    def __init__(self):
        self.calls = 0

    def prob_one(self, tag, state, ctx):
        self.calls += 1
        return Fraction(int(ctx.pk) + 1, 4)


def test_tag_blind_role_is_not_shared_between_public_keys():
    dist = _PublicKeyReadout()
    assert dist.reads_tag is False
    est = run_ind(_PublicIdentityScheme(1, 1), BasisMessage("1"), dist, None, EXACT)
    assert (est.p_real_exact, est.p_ideal_exact) == (Fraction(3, 8), Fraction(3, 8))
    assert dist.calls == 2 * 2  # arms x public keys


def test_mixed_weight_scopes_are_evaluated_case_by_case(monkeypatch):
    import qelab.games as games

    scheme = PrfSymmetricScheme(2, 1, setup_rng=Stream(7).child("s"))
    grouped = _CountingReadout("1")
    expected = run_ind(scheme, BasisMessage("1"), grouped, None, EXACT)
    assert grouped.calls < 2 * 4 * 4

    def one_weight_object_per_case(values):
        return [(Fraction(1, len(values)), v) for v in values]

    monkeypatch.setattr(games, "uniform_cases", one_weight_object_per_case)
    per_case = _CountingReadout("1")
    est = run_ind(scheme, BasisMessage("1"), per_case, None, EXACT)
    assert per_case.calls == 2 * 4 * 4  # arms x keys x tags
    assert (est.p_real_exact, est.p_ideal_exact) == (expected.p_real_exact,
                                                     expected.p_ideal_exact)


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


def _played_arms(monkeypatch, run, *args):
    """Every arm that `run(*args)` hands to `estimate`."""
    import qelab.games as games

    played = []
    original = games.estimate

    def capture(real, ideal=None, **kwargs):
        played.extend(arm for arm in (real, ideal) if arm is not None)
        return original(real, ideal, **kwargs)

    monkeypatch.setattr(games, "estimate", capture)
    run(*args)
    return played


def _played_branches(monkeypatch, run, *args):
    """The (weight, p) branches of every arm that `run(*args)` hands to `estimate`."""
    return [list(arm._branches()) for arm in _played_arms(monkeypatch, run, *args)]


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
    config = GameConfig(exact=True, seed=7)
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
                GameConfig(exact=True, seed=1))


def test_sampled_matches_exact_on_identity_scheme():
    scheme = IdentityScheme(1, 1)
    config = GameConfig(trials=200, seed=12)
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
    config = GameConfig(trials=1000, seed=13)
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
                  OraclePolicy.cpa(), GameConfig(trials=500, seed=7))
    assert (est.p_real, est.p_ideal) == (0.532, 0.176)


class _CoinGatedReadout(Distinguisher):
    """Reads M for 1 on a private coin that comes up 2 times in 3, else for 0."""

    def prob_one(self, tag, state, ctx):
        p = measurement_distribution(state, "M")["1"]
        return sum(
            w * (p if read else 1 - p)
            for w, read in ctx.coin(
                "read",
                lambda: ((Fraction(2, 3), True), (Fraction(1, 3), False)),
                lambda r: r.integer(3) > 0,
            )
        )


# Sampled estimates under stream derivation v2; each pins the paths of one
# kind of drawing coin.
def test_sampled_sem3_with_a_two_case_message_generator_is_pinned():
    scheme = PrfSymmetricScheme(2, 1, setup_rng=Stream(7))
    adversary = CopyPayloadAdversary("M", "OUT")
    mgen = CoinMessageGenerator(BasisMessageWithTarget("1"), include_f=False,
                                include_transcript=True)  # `mpick` draws
    est = run_sem3(scheme, GeneratorFunctionPair(mgen, last_bit_function(2)), adversary,
                   reduction_ind_to_sem(adversary), None,
                   GameConfig(trials=500, seed=7))
    assert (est.p_real, est.p_ideal) == (0.784, 0.488)


def test_sampled_ind_with_a_private_distinguisher_coin_is_pinned():
    scheme = PrfSymmetricScheme(2, 1, setup_rng=Stream(7))
    est = run_ind(scheme, BasisMessage("1"), _CoinGatedReadout(), None,
                  GameConfig(trials=500, seed=7))
    assert (est.p_real, est.p_ideal) == (0.564, 0.382)


def test_sampled_cpa_sem_with_the_simulator_encrypting_through_the_oracle_is_pinned():
    scheme = PrfSymmetricScheme(2, 1, setup_rng=Stream(7))
    adversary = CopyPayloadAdversary("M", "OUT")
    est = run_sem(scheme, BasisMessageWithTarget("1"), adversary,
                  reduction_ind_to_sem(adversary), CompareRegistersDistinguisher("OUT", "F"),
                  OraclePolicy.cpa(), GameConfig(trials=500, seed=7))
    assert (est.p_real, est.p_ideal) == (0.766, 0.29)


def test_a_sampled_readout_trial_builds_only_streams_that_draw(built_streams):
    scheme = PrfSymmetricScheme(2, 1, setup_rng=Stream(7))
    est = run_ind(scheme, BasisMessage("1"), MeasureEqualsDistinguisher("1", "M"), None,
                  GameConfig(trials=50, seed=7))
    labels = {path[-1] for path in built_streams if path}
    assert {"key", "enc"} <= labels
    assert labels.isdisjoint({"mpick", "mgen-coins", "dist-coins", "bernoulli"})
    assert est.trials == 50


def test_two_case_generators_and_private_coins_still_build_their_streams(built_streams):
    scheme = PrfSymmetricScheme(2, 1, setup_rng=Stream(7))
    mgen = CoinMessageGenerator(BasisMessage("1"), include_f=False)
    run_ind(scheme, mgen, _CoinGatedReadout(), None, GameConfig(trials=5, seed=7))
    assert ("dist-coins", "read") in {path[-2:] for path in built_streams}
    assert "mpick" in {path[-1] for path in built_streams if path}


# Every stream a `--trials 2 --seed 7` game run builds, "/"-joined and sorted, with
# repeats.  The goldens miss a stream that is built but never changes a result;
# these lists do not.
SAMPLED_STREAM_PATHS = {
    ('ind', 'ske-prf', 'readout'): [
        '', '', 'ind', 'ind/ideal', 'ind/ideal/t0', 'ind/ideal/t0/enc',
        'ind/ideal/t0/key', 'ind/ideal/t1', 'ind/ideal/t1/enc', 'ind/ideal/t1/key',
        'ind/real', 'ind/real/t0', 'ind/real/t0/enc', 'ind/real/t0/key', 'ind/real/t1',
        'ind/real/t1/enc', 'ind/real/t1/key', 'scheme-setup', 'scheme-setup/prf-family'
    ],
    ('ind-prime', 'ske-prf', 'readout'): [
        '', '', 'ind-prime', 'ind-prime/real', 'ind-prime/real/t0',
        'ind-prime/real/t0/bit', 'ind-prime/real/t0/enc', 'ind-prime/real/t0/key',
        'ind-prime/real/t1', 'ind-prime/real/t1/bit', 'ind-prime/real/t1/enc',
        'ind-prime/real/t1/key', 'scheme-setup', 'scheme-setup/prf-family'
    ],
    ('ind-cpa', 'ske-prf', 'readout'): [
        '', '', 'ind', 'ind/ideal', 'ind/ideal/t0', 'ind/ideal/t0/enc',
        'ind/ideal/t0/key', 'ind/ideal/t1', 'ind/ideal/t1/enc', 'ind/ideal/t1/key',
        'ind/real', 'ind/real/t0', 'ind/real/t0/enc', 'ind/real/t0/key', 'ind/real/t1',
        'ind/real/t1/enc', 'ind/real/t1/key', 'scheme-setup', 'scheme-setup/prf-family'
    ],
    ('ind-cca1', 'ske-prf', 'readout'): [
        '', '', 'ind', 'ind/ideal', 'ind/ideal/t0', 'ind/ideal/t0/enc',
        'ind/ideal/t0/key', 'ind/ideal/t1', 'ind/ideal/t1/enc', 'ind/ideal/t1/key',
        'ind/real', 'ind/real/t0', 'ind/real/t0/enc', 'ind/real/t0/key', 'ind/real/t1',
        'ind/real/t1/enc', 'ind/real/t1/key', 'scheme-setup', 'scheme-setup/prf-family'
    ],
    ('sem', 'ske-prf', 'copy-vs-sim'): [
        '', '', 'scheme-setup', 'scheme-setup/prf-family', 'sem', 'sem/ideal',
        'sem/ideal/t0', 'sem/ideal/t0/key', 'sem/ideal/t0/sim-coins',
        'sem/ideal/t0/sim-coins/sim-enc', 'sem/ideal/t0/sim-coins/sim-key',
        'sem/ideal/t1', 'sem/ideal/t1/key', 'sem/ideal/t1/sim-coins',
        'sem/ideal/t1/sim-coins/sim-enc', 'sem/ideal/t1/sim-coins/sim-key', 'sem/real',
        'sem/real/t0', 'sem/real/t0/enc', 'sem/real/t0/key', 'sem/real/t1',
        'sem/real/t1/enc', 'sem/real/t1/key'
    ],
    ('sem2', 'ske-prf', 'copy-vs-sim'): [
        '', '', 'scheme-setup', 'scheme-setup/prf-family', 'sem2', 'sem2/ideal',
        'sem2/ideal/t0', 'sem2/ideal/t0/key', 'sem2/ideal/t0/sim-coins',
        'sem2/ideal/t0/sim-coins/sim-enc', 'sem2/ideal/t0/sim-coins/sim-key',
        'sem2/ideal/t1', 'sem2/ideal/t1/key', 'sem2/ideal/t1/sim-coins',
        'sem2/ideal/t1/sim-coins/sim-enc', 'sem2/ideal/t1/sim-coins/sim-key',
        'sem2/real', 'sem2/real/t0', 'sem2/real/t0/enc', 'sem2/real/t0/key',
        'sem2/real/t1', 'sem2/real/t1/enc', 'sem2/real/t1/key'
    ],
    ('sem3', 'ske-prf', 'transcript-sim'): [
        '', '', 'scheme-setup', 'scheme-setup/prf-family', 'sem3', 'sem3/ideal',
        'sem3/ideal/t0', 'sem3/ideal/t0/key', 'sem3/ideal/t0/sim-coins',
        'sem3/ideal/t0/sim-coins/sim-enc', 'sem3/ideal/t0/sim-coins/sim-key',
        'sem3/ideal/t1', 'sem3/ideal/t1/key', 'sem3/ideal/t1/sim-coins',
        'sem3/ideal/t1/sim-coins/sim-enc', 'sem3/ideal/t1/sim-coins/sim-key',
        'sem3/real', 'sem3/real/t0', 'sem3/real/t0/enc', 'sem3/real/t0/key',
        'sem3/real/t1', 'sem3/real/t1/enc', 'sem3/real/t1/key'
    ],
    ('sem', 'pke-towp', 'copy-vs-sim'): [
        '', '', 'scheme-setup', 'sem', 'sem/ideal', 'sem/ideal/t0', 'sem/ideal/t0/key',
        'sem/ideal/t0/sim-coins', 'sem/ideal/t0/sim-coins/sim-enc', 'sem/ideal/t1',
        'sem/ideal/t1/key', 'sem/ideal/t1/sim-coins', 'sem/ideal/t1/sim-coins/sim-enc',
        'sem/real', 'sem/real/t0', 'sem/real/t0/enc', 'sem/real/t0/key', 'sem/real/t1',
        'sem/real/t1/enc', 'sem/real/t1/key'
    ],

}


@pytest.mark.parametrize("game, scheme, bundle", sorted(SAMPLED_STREAM_PATHS))
def test_each_sampled_game_builds_its_pinned_streams(game, scheme, bundle, built_streams,
                                                     capsys):
    size = ["--n", "2", "--qubits", "1"] if scheme == "ske-prf" else ["--n", "4"]
    assert main(["game", "--game", game, "--scheme", scheme, *size, "--adversary", bundle,
                 "--trials", "2", "--seed", "7"]) == 0
    paths = sorted("/".join(path) for path in built_streams)
    assert paths == SAMPLED_STREAM_PATHS[game, scheme, bundle]


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
    with pytest.raises(ParameterError):
        run_ind(IdentityScheme(1, 4), BasisMessage("1111"), ConstantDistinguisher(1),
                config=GameConfig(exact=True))
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
    config = GameConfig(trials=40, seed=3, exact=exact)
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
                   ConstantOutputChannel("0"), None, GameConfig(trials=40, seed=3))
    assert (est.p_real, est.p_ideal) == (0.5, 0.5)
