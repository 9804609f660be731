import json
import math
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from qelab import primitives
from qelab.errors import EnumerationCapError, MalformedKeyError, ParameterError
from qelab.primitives import (
    ConstantPrf,
    ConstantPrg,
    DomainError,
    GgmPrf,
    IteratedPermutationPrg,
    RandomFunctionOracle,
    ToyRsaPermutationFamily,
    TowpIndex,
    TowpTrapdoor,
    embed_seed,
    hardcore_bit,
    prf_distinguisher_advantage,
    prg_iterated,
)
from qelab.rng import Stream
from qelab.schemes import build_scheme

VECTORS = json.loads(
    (Path(__file__).parent / "data" / "primitive_vectors.json").read_text()
)


# ---------------------------------------------------------------------------
# Trapdoor permutation family
# ---------------------------------------------------------------------------


def test_generate_and_exhaustive_inversion_small():
    fam = ToyRsaPermutationFamily(4)
    for seed in range(3):
        index, trapdoor = fam.generate(Stream(seed).child("g"))
        domain = fam.domain(index)
        image = set()
        for x in domain:
            y = fam.evaluate(index, x)
            image.add(y)
            assert fam.invert(y, trapdoor) == x
        assert image == set(domain)  # a permutation of the domain


def test_sample_stays_in_domain():
    fam = ToyRsaPermutationFamily(5)
    index, _ = fam.generate(Stream(1).child("g"))
    rng = Stream(2)
    for i in range(200):
        x = fam.sample(index, rng.child(f"s{i}"))
        assert fam.contains(index, x)


def test_distinct_seeds_reach_distinct_moduli():
    fam = ToyRsaPermutationFamily(4)
    moduli = {fam.generate(Stream(s).child("g"))[0].modulus for s in range(10)}
    assert len(moduli) >= 3


def test_security_parameter_range():
    with pytest.raises(DomainError):
        ToyRsaPermutationFamily(0)
    with pytest.raises(DomainError):
        ToyRsaPermutationFamily(40)


def test_evaluate_rejects_non_units():
    fam = ToyRsaPermutationFamily(4)
    index, _ = fam.generate(Stream(3).child("g"))
    with pytest.raises(DomainError):
        fam.evaluate(index, 0)
    with pytest.raises(DomainError):
        fam.evaluate(index, index.modulus)
    # a divisor of the modulus is not a unit
    p = next(d for d in range(2, index.modulus) if index.modulus % d == 0)
    with pytest.raises(DomainError):
        fam.evaluate(index, p)


def test_domain_cap():
    fam = ToyRsaPermutationFamily(4)
    index, _ = fam.generate(Stream(4).child("g"))
    with pytest.raises(EnumerationCapError):
        fam.domain(index, cap=10)


@pytest.mark.parametrize("n", range(1, 9))
def test_domain_is_every_unit_residue(n):
    fam = ToyRsaPermutationFamily(n)
    for seed in range(4):
        index, _ = fam.generate(Stream(seed).child("g"))
        units = [x for x in range(1, index.modulus) if math.gcd(x, index.modulus) == 1]
        domain = fam.domain(index)
        assert domain == units
        assert all(type(x) is int for x in domain)


def test_element_and_key_codecs():
    fam = ToyRsaPermutationFamily(4)
    index, trapdoor = fam.generate(Stream(5).child("g"))
    x = fam.sample(index, Stream(6))
    bits = fam.encode_element(index, x)
    assert len(bits) == index.element_width
    assert fam.decode_element(index, bits) == x
    with pytest.raises(MalformedKeyError):
        fam.decode_element(index, "01")


def test_regression_vectors_towp():
    fam = ToyRsaPermutationFamily(6)
    for entry in VECTORS["towp"]:
        index = TowpIndex(entry["modulus"], entry["exponent"], entry["mask"])
        trapdoor = TowpTrapdoor(entry["modulus"], entry["inverse_exponent"])
        for x, y in entry["triples"]:
            assert fam.evaluate(index, x) == y
            assert fam.invert(y, trapdoor) == x


# ---------------------------------------------------------------------------
# Hard-core predicate
# ---------------------------------------------------------------------------


def test_predicate_empty_parity_is_zero():
    index = TowpIndex(253, 3, 0b10100)
    assert hardcore_bit(index, 0) == 0  # no selected bits
    assert hardcore_bit(index, 0b01011) == 0  # no overlap with the mask


def test_predicate_all_ones_mask_is_parity():
    index = TowpIndex(253, 3, 0b11111111)
    for x in (1, 3, 7, 100, 252):
        assert hardcore_bit(index, x) == bin(x).count("1") % 2


def test_predicate_regression_at_n6():
    fam = ToyRsaPermutationFamily(6)
    index, _ = fam.generate(Stream(9).child("g"))
    rng = Stream(10)
    for i in range(20):
        x = fam.sample(index, rng.child(f"x{i}"))
        # independent parity computation
        expected = sum((x >> b) & (index.mask >> b) & 1 for b in range(x.bit_length())) % 2
        assert hardcore_bit(index, x) == expected


# ---------------------------------------------------------------------------
# Iterated-permutation generator
# ---------------------------------------------------------------------------


def test_prg_length_one_is_seed_bit():
    fam = ToyRsaPermutationFamily(4)
    index, _ = fam.generate(Stream(11).child("g"))
    d = fam.sample(index, Stream(12))
    assert prg_iterated(fam, index, d, 1) == str(hardcore_bit(index, d))


def test_prg_length_two_ordering():
    # first output bit belongs to the image, second to the seed itself
    fam = ToyRsaPermutationFamily(4)
    index, _ = fam.generate(Stream(13).child("g"))
    d = fam.sample(index, Stream(14))
    expected = str(hardcore_bit(index, fam.evaluate(index, d))) + str(hardcore_bit(index, d))
    assert prg_iterated(fam, index, d, 2) == expected


def test_prg_matches_iterate_then_map_oracle_exhaustively():
    fam = ToyRsaPermutationFamily(4)
    index, _ = fam.generate(Stream(15).child("g"))
    for d in fam.domain(index):
        length = 9
        iterates = [d]
        for _ in range(length - 1):
            iterates.append(fam.evaluate(index, iterates[-1]))
        expected = "".join(str(hardcore_bit(index, v)) for v in reversed(iterates))
        assert prg_iterated(fam, index, d, length) == expected


def test_prg_rejects_bad_inputs():
    fam = ToyRsaPermutationFamily(4)
    index, _ = fam.generate(Stream(16).child("g"))
    with pytest.raises(DomainError):
        prg_iterated(fam, index, 0, 4)
    d = fam.sample(index, Stream(17))
    with pytest.raises(Exception):
        prg_iterated(fam, index, d, 0)


def test_prg_regression_vectors():
    fam = ToyRsaPermutationFamily(6)
    for entry in VECTORS["prg"]:
        index = TowpIndex(entry["modulus"], entry["exponent"], entry["mask"])
        for d, length, expected in entry["outputs"]:
            assert prg_iterated(fam, index, d, length) == expected


def test_embed_seed_deterministic_and_in_domain():
    fam = ToyRsaPermutationFamily(4)
    index, _ = fam.generate(Stream(18).child("g"))
    for v in range(32):
        bits = format(v, "05b")
        d = embed_seed(index, bits)
        assert fam.contains(index, d)
        assert embed_seed(index, bits) == d
    with pytest.raises(MalformedKeyError):
        embed_seed(index, "")


def test_wrapped_prg_shape():
    fam = ToyRsaPermutationFamily(5)
    index, _ = fam.generate(Stream(19).child("g"))
    prg = IteratedPermutationPrg(fam, index, seed_len=5, out_len=10)
    out = prg.expand("10110")
    assert len(out) == 10 and set(out) <= {"0", "1"}
    assert prg.expand("10110") == out
    with pytest.raises(MalformedKeyError):
        prg.expand("101")


def test_expand_validates_seeds_after_caching():
    fam = ToyRsaPermutationFamily(5)
    index, _ = fam.generate(Stream(19).child("g"))
    prg = IteratedPermutationPrg(fam, index, seed_len=5, out_len=10)
    prg.expand("10110")
    for bad in ("1011", "101100", "10112", "1011a"):
        with pytest.raises(MalformedKeyError, match="seed must be 5 bits of 0/1"):
            prg.expand(bad)
    assert set(prg._memo) == {"10110"}


def test_expand_matches_direct_generator_per_instance():
    fam = ToyRsaPermutationFamily(6)
    seeds = [format(v, "04b") for v in range(16)]
    outputs = []
    for label in ("a", "b"):  # two indices: caches must not be shared
        index, _ = fam.generate(Stream(24).child(label))
        prg = IteratedPermutationPrg(fam, index, seed_len=4, out_len=8)
        direct = [prg_iterated(fam, index, embed_seed(index, s), 8) for s in seeds]
        assert [prg.expand(s) for s in seeds] == direct  # first calls: computed
        assert [prg.expand(s) for s in seeds] == direct  # repeated calls: cached
        outputs.append(direct)
    assert outputs[0] != outputs[1]


def test_ske_prf_expands_each_seed_once(monkeypatch):
    calls = []

    def counting(*args):
        calls.append(args[2])
        return prg_iterated(*args)

    prf = build_scheme("ske-prf", 2, 3, Stream(7)).prf
    monkeypatch.setattr(primitives, "prg_iterated", counting)
    tags = [format(v, "06b") for v in range(64)]
    for key in ("00", "01", "10", "11"):
        for tag in tags:
            prf.evaluate(key, tag)
    assert 1 <= len(calls) <= 4
    assert len(set(calls)) == len(calls)


# ---------------------------------------------------------------------------
# Tree PRF
# ---------------------------------------------------------------------------


def _tree_prf(seed_len=4, in_len=4, out_len=4):
    fam = ToyRsaPermutationFamily(6)
    index, _ = fam.generate(Stream(20).child("g"))
    prg = IteratedPermutationPrg(fam, index, seed_len=seed_len, out_len=2 * seed_len)
    return GgmPrf(prg, in_len=in_len, out_len=out_len), prg


def test_tree_empty_walk_returns_key():
    prf, _ = _tree_prf(in_len=0)
    assert prf.evaluate("1010", "") == "1010"


def test_tree_single_step_left_half():
    prf, prg = _tree_prf(in_len=1)
    assert prf.evaluate("1010", "0") == prg.expand("1010")[:4]
    assert prf.evaluate("1010", "1") == prg.expand("1010")[4:]


def test_tree_matches_recursive_reference():
    prf, prg = _tree_prf(in_len=4)
    memo = {}

    def reference(state, xs):
        if not xs:
            return state
        key = (state, xs)
        if key not in memo:
            expansion = prg.expand(state)
            half = len(state)
            branch = expansion[:half] if xs[0] == "0" else expansion[half:]
            memo[key] = reference(branch, xs[1:])
        return memo[key]

    for k in ("0000", "0110", "1111"):
        for v in range(16):
            x = format(v, "04b")
            assert prf.evaluate(k, x) == reference(k, x)


def test_tree_output_stretching():
    prf, prg = _tree_prf(in_len=2, out_len=8)
    k, x = "0110", "10"
    state = prg.expand(k)[4:]
    state = prg.expand(state)[:4]
    assert prf.evaluate(k, x) == prg.expand(state)
    short, _ = _tree_prf(in_len=2, out_len=2)
    assert short.evaluate(k, x) == state[:2]


def test_tree_regression_vectors():
    for entry in VECTORS["ggm"]:
        fam = ToyRsaPermutationFamily(6)
        index = TowpIndex(entry["modulus"], entry["exponent"], entry["mask"])
        prg = IteratedPermutationPrg(
            fam, index, seed_len=entry["seed_len"], out_len=2 * entry["seed_len"]
        )
        prf = GgmPrf(prg, in_len=entry["in_len"], out_len=entry["out_len"])
        for key, x, expected in entry["cases"]:
            assert prf.evaluate(key, x) == expected


def test_tree_requires_doubling_generator():
    with pytest.raises(Exception):
        GgmPrf(ConstantPrg(4, "101"), in_len=2, out_len=4)


def test_tree_input_validation():
    prf, _ = _tree_prf()
    with pytest.raises(MalformedKeyError):
        prf.evaluate("10", "0000")
    with pytest.raises(MalformedKeyError):
        prf.evaluate("1010", "00")


@settings(max_examples=60, deadline=None)
@given(
    key_len=st.integers(1, 3),
    in_len=st.integers(1, 6),
    out_len=st.integers(1, 8),
    key_value=st.integers(0, 7),
)
def test_evaluate_all_matches_evaluate_on_every_input(key_len, in_len, out_len, key_value):
    # out_len ranges over both the truncating (<= key_len) and stretching paths.
    fam = ToyRsaPermutationFamily(6)
    index, _ = fam.generate(Stream(26).child("g"))
    prg = IteratedPermutationPrg(fam, index, seed_len=key_len, out_len=2 * key_len)
    prf = GgmPrf(prg, in_len=in_len, out_len=out_len)
    key = format(key_value % (1 << key_len), f"0{key_len}b")
    every = prf.evaluate_all(key)
    assert every == [prf.evaluate(key, format(v, f"0{in_len}b")) for v in range(1 << in_len)]
    fresh = GgmPrf(
        IteratedPermutationPrg(fam, index, seed_len=key_len, out_len=2 * key_len),
        in_len=in_len, out_len=out_len,
    )
    assert fresh.evaluate_all(key) == every  # an empty expansion cache gives the same


def _tree_states(prf, key):
    """Every node state of `key`'s tree, root first, level by level."""
    states, level = [key], [key]
    for _ in range(prf.in_len):
        level = [half for state in level
                 for half in (prf.prg.expand(state)[:prf.key_len],
                              prf.prg.expand(state)[prf.key_len:])]
        states += level
    return states


@pytest.mark.parametrize("shape", ["scheme-n2", "wide-seed"])
def test_evaluate_all_equals_evaluate_for_every_key(shape):
    # At n=2 the 64-leaf tree has at most 4 distinct states per level; with
    # 6-bit seeds and 2-bit inputs some keys' trees repeat no state at all.
    if shape == "scheme-n2":
        prf = build_scheme("ske-prf", 2, 3, Stream(7)).prf
    else:
        prf, _ = _tree_prf(seed_len=6, in_len=2, out_len=6)
    repeats = set()
    for v in range(1 << prf.key_len):
        key = format(v, f"0{prf.key_len}b")
        inputs = [format(x, f"0{prf.in_len}b") for x in range(1 << prf.in_len)]
        assert prf.evaluate_all(key) == [prf.evaluate(key, x) for x in inputs]
        states = _tree_states(prf, key)
        repeats.add(len(set(states)) < len(states))
    assert repeats == ({True} if shape == "scheme-n2" else {True, False})


@pytest.mark.parametrize("bad", ["", "101", "10101", "1a10", "10 1"])
def test_evaluate_all_rejects_bad_keys_like_evaluate(bad):
    prf, _ = _tree_prf()
    with pytest.raises(MalformedKeyError) as one:
        prf.evaluate(bad, "0000")
    with pytest.raises(MalformedKeyError) as every:
        prf.evaluate_all(bad)
    assert str(every.value) == str(one.value)


def test_constant_prf_evaluate_all_matches_evaluate():
    prf = ConstantPrf(2, 3, 4, "1011")
    for key in ("00", "01", "10", "11"):
        assert prf.evaluate_all(key) == [prf.evaluate(key, format(v, "03b")) for v in range(8)]
    with pytest.raises(MalformedKeyError) as one:
        prf.evaluate("101", "000")
    with pytest.raises(MalformedKeyError) as every:
        prf.evaluate_all("101")
    assert str(every.value) == str(one.value)


# ---------------------------------------------------------------------------
# Random function oracle
# ---------------------------------------------------------------------------


def test_oracle_consistency_and_seed_determinism():
    a = RandomFunctionOracle(4, 4, Stream(21).child("fn"))
    b = RandomFunctionOracle(4, 4, Stream(21).child("fn"))
    for v in range(16):
        x = format(v, "04b")
        y = a(x)
        assert a(x) == y  # repeat queries agree
        assert b(x) == y  # same stream, same function
    with pytest.raises(MalformedKeyError):
        a("10")


def test_oracle_outputs_balanced():
    oracle = RandomFunctionOracle(16, 1, Stream(22).child("fn"))
    samples = 10_000
    ones = sum(oracle(format(v, "016b")) == "1" for v in range(samples))
    assert 0.48 <= ones / samples <= 0.52


# ---------------------------------------------------------------------------
# PRF distinguishing experiment
# ---------------------------------------------------------------------------


def test_constant_distinguisher_has_zero_advantage():
    prf = ConstantPrf(4, 4, 4)
    est = prf_distinguisher_advantage(lambda oracle, rng: 1, prf, 200, Stream(23))
    assert est.advantage == 0.0
    assert est.p_real == est.p_ideal == 1.0


@pytest.mark.parametrize("trials", [0, -1])
def test_prf_experiment_refuses_a_trial_count_below_one(trials):
    # A trial count is a run parameter, refused as `GameConfig` refuses one.
    with pytest.raises(ParameterError, match="trials must be at least 1"):
        prf_distinguisher_advantage(lambda oracle, rng: 1, ConstantPrf(4, 4, 4), trials,
                                    Stream(23))


def test_collision_distinguisher_breaks_constant_prf():
    # Query two distinct points; report a collision.  Against a truly
    # random 4-bit function the collision probability is exactly 1/16, so
    # the advantage is 1 - 1/16 = 0.9375 (computed before the build).
    prf = ConstantPrf(4, 4, 4)

    def collide(oracle, rng):
        return 1 if oracle("0000") == oracle("0001") else 0

    est = prf_distinguisher_advantage(collide, prf, 1000, Stream(24))
    assert est.p_real == 1.0
    assert est.advantage >= 0.9
    assert est.ci_halfwidth <= 0.05


def test_keyed_tree_prf_is_deterministic_per_key():
    prf, _ = _tree_prf()
    est = prf_distinguisher_advantage(
        lambda oracle, rng: 1 if oracle("0000")[0] == "1" else 0, prf, 50, Stream(25)
    )
    assert 0.0 <= est.p_real <= 1.0 and 0.0 <= est.p_ideal <= 1.0
