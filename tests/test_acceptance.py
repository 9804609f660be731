"""Acceptance suite: one test per criterion, one printed verdict line each.

Run with `pytest -s tests/test_acceptance.py` to see the verdict lines.
Every tolerance is pinned here; nothing is deferred to calibration.
"""

import time
from fractions import Fraction

from qelab.cli import _state_battery, main
from qelab.games import (
    GameConfig,
    OraclePolicy,
    ind_prime_ind_identity_check,
    run_ind,
    run_ind_prime,
    run_sem,
    run_sem2,
    run_sem3,
)
from qelab.primitives import (
    ConstantPrf,
    ConstantPrg,
    GgmPrf,
    IteratedPermutationPrg,
    ToyRsaPermutationFamily,
    hardcore_bit,
    prf_distinguisher_advantage,
    prg_iterated,
)
from qelab.quantum import (
    basis_state,
    channel_choi_distance,
    maximally_mixed,
    qotp_average,
    trace_distance,
)
from qelab.reductions import (
    PaddedStatePair,
    ind_to_sem_pipeline,
    reduction_cca1_to_prf,
    reduction_ind_to_sem,
    run_prg_pad_reduction,
    sem_to_ind_identity_check,
)
from qelab.rng import Stream
from qelab.roles import (
    BasisMessage,
    BasisMessageWithTarget,
    CompareRegistersDistinguisher,
    CopyPayloadAdversary,
    MeasureEqualsDistinguisher,
    UnpadThenMeasureDistinguisher,
    identity_function,
)
from qelab.schemes import (
    IdentityScheme,
    PermutationPublicScheme,
    PrfSymmetricScheme,
    RandomPadSymmetricScheme,
    UniformPadPublicScheme,
)

TOL = 1e-10


def _verdict(number: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {number} {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, detail


def test_criterion_1_pad_average_mixes_everything():
    start = time.monotonic()
    worst = 0.0
    count = 0
    for qubits in (1, 2, 3):
        mixed = maximally_mixed(qubits)
        for label, state in _state_battery(qubits, Stream(50).child(f"b{qubits}"), "default"):
            count += 1
            worst = max(worst, trace_distance(qotp_average(state), mixed))
    elapsed = time.monotonic() - start
    ok = worst <= TOL and count >= 20 and elapsed < 5.0
    _verdict(
        1,
        ok,
        f"pad average vs maximally mixed: {count} states, max distance "
        f"{worst:.2e} (tol 1e-10), {elapsed:.2f}s (< 5s)",
    )


def test_criterion_2_scheme_round_trip_channels():
    start = time.monotonic()
    identity_map = lambda m: m
    worst = 0.0
    rng = Stream(60)
    for n in (1, 2):
        ske = PrfSymmetricScheme(n, n, setup_rng=rng.child(f"ske{n}"))
        pke = PermutationPublicScheme(n, n)
        for label, scheme in (("ske", ske), ("pke", pke)):
            for k in range(20):
                keypair = scheme.keygen(rng.child(f"{label}{n}k{k}"))
                channel = scheme.roundtrip_map(keypair)
                worst = max(worst, channel_choi_distance(channel, identity_map, n))
    elapsed = time.monotonic() - start
    ok = worst <= TOL and elapsed < 30.0
    _verdict(
        2,
        ok,
        f"decrypt-after-encrypt Choi distance, both schemes, 20 keys, "
        f"n in {{1,2}}: max {worst:.2e} (tol 1e-10), {elapsed:.2f}s (< 30s)",
    )


def test_criterion_3_public_scheme_pad_identity_exhaustive():
    start = time.monotonic()
    scheme = PermutationPublicScheme(5, 3)
    keypair = scheme.keygen(Stream(77).child("kg"))
    assert keypair.ek.modulus.bit_length() >= 10
    domain = scheme.family.domain(keypair.ek)
    mismatches = sum(
        scheme.decrypt_pad(keypair.dk, scheme._tag_from_seed(keypair.ek, d))
        != scheme._pad_from_seed(keypair.ek, d)
        for d in domain
    )
    elapsed = time.monotonic() - start
    ok = mismatches == 0 and elapsed < 10.0
    _verdict(
        3,
        ok,
        f"decryption pad equals generator output bit-for-bit over all "
        f"{len(domain)} domain elements of a {keypair.ek.modulus.bit_length()}-bit "
        f"modulus, {elapsed:.2f}s (< 10s)",
    )


def test_criterion_4_primitive_oracle_equivalence():
    start = time.monotonic()
    fam = ToyRsaPermutationFamily(6)
    index, _ = fam.generate(Stream(9).child("gen"))  # seed 9: modest modulus

    prg_mismatches = 0
    for d in fam.domain(index):
        iterates = [d]
        for _ in range(11):
            iterates.append(fam.evaluate(index, iterates[-1]))
        expected = "".join(str(hardcore_bit(index, v)) for v in reversed(iterates))
        if prg_iterated(fam, index, d, 12) != expected:
            prg_mismatches += 1

    prg = IteratedPermutationPrg(fam, index, seed_len=6, out_len=12)
    prf = GgmPrf(prg, in_len=6, out_len=6)
    memo = {}

    def reference(state, xs):
        if not xs:
            return state
        key = (state, xs)
        if key not in memo:
            expansion = prg.expand(state)
            branch = expansion[:6] if xs[0] == "0" else expansion[6:]
            memo[key] = reference(branch, xs[1:])
        return memo[key]

    ggm_mismatches = 0
    for key in ("000000", "101101"):
        for v in range(64):
            x = format(v, "06b")
            if prf.evaluate(key, x) != reference(key, x):
                ggm_mismatches += 1

    elapsed = time.monotonic() - start
    ok = prg_mismatches == 0 and ggm_mismatches == 0 and elapsed < 10.0
    _verdict(
        4,
        ok,
        f"generator matches the iterate-then-map oracle on all seeds "
        f"(n=6, t=12) and the tree PRF matches the recursive reference on "
        f"all 6-bit inputs; {elapsed:.2f}s (< 10s)",
    )


def test_criterion_5_permutation_inversion_exhaustive():
    fam = ToyRsaPermutationFamily(4)
    failures = 0
    total = 0
    for s in range(5):
        index, trapdoor = fam.generate(Stream(80 + s).child("g"))
        for x in fam.domain(index):
            total += 1
            if fam.invert(fam.evaluate(index, x), trapdoor) != x:
                failures += 1
    _verdict(
        5,
        failures == 0,
        f"invert(evaluate(x)) = x over {total} domain elements of 5 keypairs",
    )


def test_criterion_6_broken_scheme_detection():
    exact = GameConfig(exact=True, seed=1)
    identity = IdentityScheme(1, 1)
    mgen = BasisMessage("1")
    dist = MeasureEqualsDistinguisher("1", "M")
    ind = run_ind(identity, mgen, dist, None, exact)
    guess = run_ind_prime(identity, mgen, dist, None, exact)

    constant = PrfSymmetricScheme(2, 1, prf=ConstantPrf(2, 2, 2))
    cpa = run_ind(
        constant, mgen, dist, OraclePolicy.cpa(),
        GameConfig(trials=1000, seed=2),
    )
    ok = (
        ind.advantage_exact == 1
        and guess.p_real_exact == 1
        and cpa.advantage >= 0.9
        and cpa.ci_halfwidth <= 0.05
    )
    _verdict(
        6,
        ok,
        f"identity scheme: exact advantage {float(ind.advantage_exact)}, exact "
        f"guess probability {float(guess.p_real_exact)}; constant-PRF scheme "
        f"under an encryption oracle: advantage {cpa.advantage:.3f} "
        f"(>= 0.9) with ci {cpa.ci_halfwidth:.3f} (<= 0.05)",
    )


def test_criterion_7_true_randomness_gives_exactly_zero():
    exact = GameConfig(exact=True, seed=0)
    mgen = BasisMessage("1")
    mgen_target = BasisMessageWithTarget("1")
    dist = MeasureEqualsDistinguisher("1", "M")
    adversary = CopyPayloadAdversary()
    compare = CompareRegistersDistinguisher()
    results = []
    for scheme in (RandomPadSymmetricScheme(1, 1), UniformPadPublicScheme(1, 1)):
        simulator = reduction_ind_to_sem(adversary)
        advantages = {
            "ind": run_ind(scheme, mgen, dist, OraclePolicy.plain(), exact),
            "ind-prime": run_ind_prime(scheme, mgen, dist, OraclePolicy.plain(), exact),
            "ind-cpa": run_ind(scheme, mgen, dist, OraclePolicy.cpa(), exact),
            "ind-cca1": run_ind(scheme, mgen, dist, OraclePolicy.cca1(), exact),
            "sem": run_sem(scheme, mgen_target, adversary, simulator, compare, None, exact),
            "sem2": run_sem2(scheme, mgen_target, adversary, simulator, None, exact),
            "sem3": run_sem3(scheme, mgen_target, adversary, simulator, identity_function(1),
                             None, exact),
        }
        for game, est in advantages.items():
            results.append((scheme.name, game, est.advantage_exact))
    bad = [(s, g, a) for s, g, a in results if a != 0]
    _verdict(
        7,
        not bad,
        f"all 7 games on both true-randomness idealizations: "
        f"{len(results)} advantages, every one exactly 0"
        + (f"; offenders {bad}" if bad else ""),
    )


def test_criterion_8_reduction_pipelines():
    # (a) constant-PRF attack -> PRF distinguisher with advantage >= 0.4
    mgen = BasisMessage("1")
    dist = MeasureEqualsDistinguisher("1", "M")
    a0 = reduction_cca1_to_prf(mgen, dist, qubits=1)
    est_a = prf_distinguisher_advantage(a0, ConstantPrf(2, 2, 2), 1000, Stream(90))
    ok_a = est_a.advantage >= 0.4

    # (b) built simulator keeps semantic advantage within the sampled
    #     distinguishing advantage plus both intervals, on the PRF scheme
    scheme = PrfSymmetricScheme(2, 1, setup_rng=Stream(91).child("s"))
    config = GameConfig(trials=600, seed=92)
    pipe = ind_to_sem_pipeline(
        scheme,
        BasisMessageWithTarget("1"),
        CopyPayloadAdversary(),
        CompareRegistersDistinguisher(),
        None,
        config,
    )
    slack = pipe["sem"].ci_halfwidth + pipe["ind"].ci_halfwidth
    ok_b = pipe["sem"].advantage <= pipe["ind"].advantage + slack

    # (c) both exact identities at n=1 with deterministic roles
    exact = GameConfig(exact=True, seed=93)
    eps = sem_to_ind_identity_check(IdentityScheme(1, 1), mgen, dist, exact)
    algebra = ind_prime_ind_identity_check(IdentityScheme(1, 1), mgen, dist, exact)
    ok_c = (
        eps["identity_holds"]
        and eps["baselines_are_half"]
        and eps["max_residual"] <= 1e-12
        and algebra["identity_holds"]
        and algebra["flipped_identity_holds"]
        and algebra["max_residual"] <= 1e-12
    )

    # (d) uniform-string arm of the generator reduction sits at exactly 1/2
    pair = PaddedStatePair(joint=basis_state("1", "A"), product_a=basis_state("0", "A"))
    pad_dist = UnpadThenMeasureDistinguisher("11", "1", "A")
    est_d = run_prg_pad_reduction(ConstantPrg(1, "11"), pad_dist, pair, exact)
    ok_d = est_d.p_ideal_exact == Fraction(1, 2)

    ok = ok_a and ok_b and ok_c and ok_d
    _verdict(
        8,
        ok,
        f"(a) PRF-distinguisher advantage {est_a.advantage:.3f} >= 0.4; "
        f"(b) sem {pipe['sem'].advantage:.3f} <= ind {pipe['ind'].advantage:.3f} "
        f"+ ci {slack:.3f}; (c) both exact identities hold to 1e-12; "
        f"(d) uniform arm exactly 1/2",
    )


def test_criterion_9_cli_determinism(tmp_path):
    commands = [
        ["game", "--game", "ind", "--scheme", "identity", "--n", "1", "--qubits", "1",
         "--exact", "--seed", "11"],
        ["game", "--game", "sem", "--scheme", "ske-prf", "--adversary", "copy-vs-sim",
         "--n", "2", "--qubits", "1", "--trials", "60", "--seed", "12"],
        ["correctness", "--scheme", "pke-towp", "--n", "2", "--qubits", "1",
         "--keys", "2", "--seed", "13"],
        ["qotp-mix", "--qubits", "2", "--seed", "14"],
        ["reduce", "--reduction", "qotp-to-prg", "--n", "2", "--qubits", "1",
         "--exact", "--seed", "15"],
    ]
    ok = True
    for i, command in enumerate(commands):
        first = tmp_path / f"{i}a.json"
        second = tmp_path / f"{i}b.json"
        main(command + ["--out", str(first)])
        main(command + ["--out", str(second)])
        ok = ok and first.read_bytes() == second.read_bytes()
    _verdict(9, ok, f"{len(commands)} CLI commands re-run with equal seeds are byte-identical")
