import hashlib
from fractions import Fraction

import numpy as np
import pytest

from qelab import schemes
from qelab.errors import (
    DimensionMismatchError,
    EnumerationCapError,
    InvalidCiphertextError,
    MalformedKeyError,
    QelabError,
)
from qelab.games import uniform_cases
from qelab.primitives import EXHAUSTIVE_DOMAIN_CAP, MAX_SECURITY, ConstantPrf, hardcore_bit
from qelab.quantum import (
    TOL_ALGEBRA,
    basis_state,
    channel_choi_distance,
    conjugate_by_masks,
    maximally_mixed,
    pad_masks,
    pauli_from_key,
    random_mixed_state,
    random_pure_state,
    trace_distance,
)
from qelab.rationals import as_fraction
from qelab.rng import Stream
from qelab.schemes import (
    SCHEME_BUILDERS,
    IdentityScheme,
    PadSkippingDecryptScheme,
    PermutationPublicScheme,
    PkeCiphertext,
    PrfSymmetricScheme,
    QotpScheme,
    RandomPadSymmetricScheme,
    SkeCiphertext,
    UniformPadPublicScheme,
    build_scheme,
)


def _ske(n=2, qubits=2, seed=100):
    return PrfSymmetricScheme(n, qubits, setup_rng=Stream(seed).child("setup"))


# ---------------------------------------------------------------------------
# Symmetric scheme
# ---------------------------------------------------------------------------


def _ske_keygen(n):
    """The symmetric key generator at key length n; a constant PRF builds no GGM tree."""
    scheme = PrfSymmetricScheme(n, 1, prf=ConstantPrf(n, 2, 2))
    return lambda rng: scheme.keygen(rng).ek


def test_ske_keygen_reproducible_and_fresh():
    keygen8, keygen16 = _ske_keygen(8), _ske_keygen(16)
    assert keygen8(Stream(1).child("k")) == keygen8(Stream(1).child("k"))
    assert keygen16(Stream(1).child("a")) != keygen16(Stream(1).child("b"))


def test_ske_keygen_bias_bound():
    draws = 10_000
    keygen = _ske_keygen(1)
    ones = sum(keygen(Stream(2).child(f"k{i}")) == "1" for i in range(draws))
    sigma = (0.25 / draws) ** 0.5
    assert abs(ones / draws - 0.5) < 4 * sigma


def test_ske_round_trip_basis_and_random():
    scheme = _ske()
    kp = scheme.keygen(Stream(3).child("kg"))
    for bits in ("00", "01", "10", "11"):
        ct = scheme.encrypt(kp.ek, basis_state(bits), Stream(4).child(bits))
        assert trace_distance(scheme.decrypt(kp.dk, ct), basis_state(bits)) < TOL_ALGEBRA
    rng = Stream(5)
    for i in range(25):
        rho = random_pure_state(2, rng.child(f"st{i}"))
        ct = scheme.encrypt(kp.ek, rho, rng.child(f"enc{i}"))
        assert trace_distance(scheme.decrypt(kp.dk, ct), rho) < TOL_ALGEBRA


def test_ske_tag_shape_and_freshness():
    scheme = _ske()
    kp = scheme.keygen(Stream(6).child("kg"))
    rho = maximally_mixed(2)
    c1 = scheme.encrypt(kp.ek, rho, Stream(7).child("a"))
    c2 = scheme.encrypt(kp.ek, rho, Stream(7).child("b"))
    assert isinstance(c1, SkeCiphertext) and len(c1.tag) == 4
    assert c1.tag != c2.tag  # fresh randomness per call (whp at 4 bits)


def test_ske_maximally_mixed_payload_invariant():
    scheme = _ske()
    rho = maximally_mixed(2)
    for kp in scheme.key_space().cases()[:4]:
        for case in scheme.encryption_space(kp.ek).cases()[:4]:
            ct = SkeCiphertext(case.tag, rho)
            payload = scheme.encrypt(kp.ek, rho, Stream(8).child(case.tag)).payload
            assert trace_distance(payload, rho) < TOL_ALGEBRA


def test_ske_constant_prf_leaves_payload_alone():
    scheme = PrfSymmetricScheme(2, 1, prf=ConstantPrf(2, 2, 2))
    kp = scheme.keygen(Stream(9).child("kg"))
    rho = basis_state("1")
    ct = scheme.encrypt(kp.ek, rho, Stream(10).child("enc"))
    assert trace_distance(ct.payload, rho) < TOL_ALGEBRA


def test_ske_wrong_key_disturbs_when_pads_differ():
    scheme = _ske(n=3, qubits=1, seed=101)
    keys = scheme.key_space().cases()
    rho = basis_state("0")
    rng = Stream(11)
    found = False
    for k1 in keys:
        for k2 in keys:
            if k1 == k2:
                continue
            ct = scheme.encrypt(k1.ek, rho, rng.child(f"{k1.ek}-{k2.ek}"))
            pad1 = scheme.prf.evaluate(k1.ek, ct.tag)
            pad2 = scheme.prf.evaluate(k2.ek, ct.tag)
            wrong = scheme.decrypt(k2.dk, ct)
            if pad1[0] != pad2[0]:  # differing bit-flip components
                assert trace_distance(wrong, rho) > 0.99
                found = True
    assert found


def test_ske_plaintext_dimension_check():
    scheme = _ske()
    kp = scheme.keygen(Stream(12).child("kg"))
    with pytest.raises(DimensionMismatchError):
        scheme.encrypt(kp.ek, basis_state("0"), Stream(13))


def test_ske_malformed_tag_rejected():
    scheme = _ske()
    kp = scheme.keygen(Stream(14).child("kg"))
    with pytest.raises(InvalidCiphertextError):
        scheme.decrypt_pad(kp.dk, "01")
    with pytest.raises(InvalidCiphertextError):
        SkeCiphertext("01", maximally_mixed(2))


@pytest.mark.parametrize("key", [["0", "1"], 5, "011"])
@pytest.mark.parametrize("prf", ["ggm", "constant"])
def test_ske_malformed_key_rejected(key, prf):
    scheme = _ske(n=2, qubits=1) if prf == "ggm" else PrfSymmetricScheme(
        2, 1, prf=ConstantPrf(2, 2, 2))
    ct = scheme.encrypt("01", basis_state("1"), Stream(15))
    with pytest.raises(MalformedKeyError):
        scheme.encrypt(key, basis_state("1"), Stream(16))
    with pytest.raises(MalformedKeyError):
        scheme.decrypt(key, ct)


@pytest.mark.parametrize("prf", ["ggm", "constant"])
def test_refused_ske_keys_leave_no_encryption_space(prf):
    scheme = _ske(n=2, qubits=1) if prf == "ggm" else PrfSymmetricScheme(
        2, 1, prf=ConstantPrf(2, 2, 2))
    scheme.encrypt("01", basis_state("1"), Stream(15))
    for key in ("011", "0", "111", "0a", ["0", "1"]):
        with pytest.raises(MalformedKeyError):
            scheme.encrypt(key, basis_state("1"), Stream(16))
    assert sorted(scheme._spaces) == ["01"]


def test_ske_choi_round_trip_channel():
    scheme = _ske(n=2, qubits=1, seed=102)
    identity = lambda m: m
    for s in range(3):
        kp = scheme.keygen(Stream(20 + s).child("kg"))
        assert channel_choi_distance(scheme.roundtrip_map(kp), identity, 1) < TOL_ALGEBRA


def test_pad_skipping_decrypt_detected():
    scheme = PadSkippingDecryptScheme(2, 1, setup_rng=Stream(103).child("setup"))
    identity = lambda m: m
    worst = max(
        channel_choi_distance(scheme.roundtrip_map(kp), identity, 1)
        for kp in scheme.key_space().cases()
    )
    assert worst >= 0.5


# ---------------------------------------------------------------------------
# Public-key scheme
# ---------------------------------------------------------------------------


def test_pke_keypair_properties():
    scheme = PermutationPublicScheme(3, 2)
    kp = scheme.keygen(Stream(30).child("kg"))
    fam = scheme.family
    rng = Stream(31)
    for i in range(50):
        x = fam.sample(kp.ek, rng.child(f"x{i}"))
        assert fam.invert(fam.evaluate(kp.ek, x), kp.dk.trapdoor) == x
    again = scheme.keygen(Stream(30).child("kg"))
    assert again.ek == kp.ek


def test_pke_tag_is_iterated_image():
    scheme = PermutationPublicScheme(2, 1)
    kp = scheme.keygen(Stream(32).child("kg"))
    fam = scheme.family
    d = fam.sample(kp.ek, Stream(33))
    case_tag = scheme._tag_from_seed(kp.ek, d)
    x = d
    for _ in range(2):  # 2n iterations with n = 1 payload qubit
        x = fam.evaluate(kp.ek, x)
    assert case_tag == fam.encode_element(kp.ek, x)


def test_pke_round_trip_random_states():
    scheme = PermutationPublicScheme(2, 2)
    kp = scheme.keygen(Stream(34).child("kg"))
    rng = Stream(35)
    for i in range(10):
        rho = random_mixed_state(2, rng.child(f"st{i}"))
        ct = scheme.encrypt(kp.ek, rho, rng.child(f"enc{i}"))
        assert isinstance(ct, PkeCiphertext)
        assert trace_distance(scheme.decrypt(kp.dk, ct), rho) < TOL_ALGEBRA


def test_pke_pad_identity_exhaustive_small():
    scheme = PermutationPublicScheme(3, 3)
    kp = scheme.keygen(Stream(36).child("kg"))
    fam = scheme.family
    domain = fam.domain(kp.ek)
    assert len(domain) <= 4000
    for d in domain:
        encryption_pad = scheme._pad_from_seed(kp.ek, d)
        tag = scheme._tag_from_seed(kp.ek, d)
        assert scheme.decrypt_pad(kp.dk, tag) == encryption_pad


def test_pke_tampered_tag_shifts_pad():
    scheme = PermutationPublicScheme(2, 1)
    kp = scheme.keygen(Stream(37).child("kg"))
    fam = scheme.family
    d = fam.sample(kp.ek, Stream(38))
    tag = scheme._tag_from_seed(kp.ek, d)
    shifted = fam.encode_element(kp.ek, fam.evaluate(kp.ek, fam.decode_element(kp.ek, tag)))
    pad = scheme.decrypt_pad(kp.dk, tag)
    pad_shifted = scheme.decrypt_pad(kp.dk, shifted)
    # one extra inversion per bit: the shifted pad is the original advanced
    # by one iterate: its bits are the hard-core bits of one step later
    index = kp.ek
    x = fam.decode_element(kp.ek, shifted)
    expected = []
    for _ in range(2):
        x = fam.invert(x, kp.dk.trapdoor)
        expected.append(str(hardcore_bit(index, x)))
    assert pad_shifted == "".join(expected)
    if pad_shifted != pad:
        rho = basis_state("1")
        ct = PkeCiphertext(shifted, scheme.encrypt(kp.ek, rho, Stream(39)).payload)
        recovered = scheme.decrypt(kp.dk, ct)
        assert trace_distance(recovered, rho) > 1e-6


def test_pke_invalid_tag_rejected():
    scheme = PermutationPublicScheme(2, 1)
    kp = scheme.keygen(Stream(40).child("kg"))
    with pytest.raises(InvalidCiphertextError):
        scheme.decrypt_pad(kp.dk, "0" * kp.ek.element_width)  # zero is no unit
    with pytest.raises(InvalidCiphertextError):
        scheme.decrypt_pad(kp.dk, "01")  # wrong width


def _pads_one_by_one(scheme, dk, tags):
    """Decryption pads from `family.invert` and `hardcore_bit`, one tag at a time."""
    index, trapdoor = dk
    pads = []
    for tag in tags:
        x, bits = int(tag, 2), []
        for _ in range(2 * scheme.qubits):
            x = scheme.family.invert(x, trapdoor)
            bits.append(str(hardcore_bit(index, x)))
        pads.append("".join(bits))
    return pads


@pytest.mark.parametrize("qubits", [1, 2])
@pytest.mark.parametrize("n", range(1, MAX_SECURITY + 1))
def test_pke_batched_pads_match_a_per_element_walk(n, qubits):
    # n <= 9 fits the domain cap; beyond it the tags come from sampled elements.
    scheme = PermutationPublicScheme(n, qubits)
    for seed in range(4):
        kp = scheme.keygen(Stream(seed).child(f"kg{n}"))
        if kp.ek.modulus <= 1 << 13:
            seeds = scheme.family.domain(kp.ek)
        else:
            seeds = [scheme.family.sample(kp.ek, Stream(seed).child(f"d{i}")) for i in range(300)]
        tags = [scheme._tag_from_seed(kp.ek, d) for d in seeds]
        pads = scheme.decrypt_pads(kp.dk, tags)
        assert pads == _pads_one_by_one(scheme, kp.dk, tags)
        assert pads == [scheme._pad_from_seed(kp.ek, d) for d in seeds]
        assert [scheme.decrypt_pad(kp.dk, tag) for tag in tags] == pads


def test_pke_malformed_tag_in_a_batch_raises_the_one_tag_error():
    scheme = PermutationPublicScheme(4, 1)
    kp = scheme.keygen(Stream(40).child("kg"))
    width, modulus = kp.ek.element_width, kp.ek.modulus
    factor = next(p for p in range(2, modulus) if modulus % p == 0)
    good = [case.tag for case in scheme.encryption_space(kp.ek).cases()[:4]]
    accented = "\u00e9" * width  # as long as a tag, but not ASCII
    bad_tags = {
        good[0][:-1]: f"tag must be {width} bits of 0/1, got {good[0][:-1]!r}",
        good[0] + "1": f"tag must be {width} bits of 0/1, got {good[0] + '1'!r}",
        good[0][:-1] + "2": f"tag must be {width} bits of 0/1, got {good[0][:-1] + '2'!r}",
        accented: f"tag must be {width} bits of 0/1, got {accented!r}",
        "0" * width: f"tag decodes to 0, outside the domain of {modulus}",
        format(modulus, f"0{width}b"): f"tag decodes to {modulus}, outside the domain of {modulus}",
        format(factor, f"0{width}b"): f"tag decodes to {factor}, outside the domain of {modulus}",
    }
    for tag, message in bad_tags.items():
        with pytest.raises(InvalidCiphertextError) as one:
            scheme.decrypt_pad(kp.dk, tag)
        assert str(one.value) == message
        # A later bad tag does not mask the first one.
        batch = good[:2] + [tag] + good[2:] + ["0" * width]
        with pytest.raises(InvalidCiphertextError) as many:
            scheme.decrypt_pads(kp.dk, batch)
        assert str(many.value) == message


def test_uniform_pad_pke_roundtrip_map_still_refuses():
    scheme = UniformPadPublicScheme(2, 1)
    kp = scheme.keygen(Stream(54).child("kg"))
    with pytest.raises(QelabError, match="discards the pad"):
        scheme.roundtrip_map(kp)


def test_pke_choi_round_trip_channel():
    scheme = PermutationPublicScheme(2, 1)
    identity = lambda m: m
    for s in range(3):
        kp = scheme.keygen(Stream(41 + s).child("kg"))
        assert channel_choi_distance(scheme.roundtrip_map(kp), identity, 1) < TOL_ALGEBRA


def _scalar_pke_pairs(scheme, ek):
    """(tag, pad) per encryption case, from the per-element definitions."""
    domain = scheme.family.domain(ek)
    if isinstance(scheme, UniformPadPublicScheme):
        pads = [format(v, f"0{2 * scheme.qubits}b") for v in range(1 << 2 * scheme.qubits)]
        tags = [scheme._tag_from_seed(ek, d) for d in domain]
        return [(tag, pad) for tag in tags for pad in pads]
    return [(scheme._tag_from_seed(ek, d), scheme._pad_from_seed(ek, d)) for d in domain]


# Every q <= 3 fits the 8-bit modulus floor.  `pke-uniformpad` pairs each
# domain element with 4^q pads, up to 2.6 million cases per key at n = 6,
# so at n = 5, 6 it runs at q = 1 only: its tags come from the same domain
# walk that `pke-towp` checks at every size here.
_PKE_SIZES = [
    (cls, n, qubits)
    for cls in (PermutationPublicScheme, UniformPadPublicScheme)
    for n in range(1, 7)
    for qubits in (1, 2, 3)
    if cls is PermutationPublicScheme or n <= 4 or qubits == 1
]


@pytest.mark.parametrize("cls, n, qubits", _PKE_SIZES)
def test_pke_encrypt_cases_match_per_element_definitions(cls, n, qubits):
    scheme = cls(n, qubits)
    for seed in range(3):
        ek = scheme.keygen(Stream(seed).child(f"kg{n}-{qubits}")).ek
        cases = scheme.encryption_space(ek).cases()
        assert [(c.tag, c.pad) for c in cases] == _scalar_pke_pairs(scheme, ek)
        (weight,) = {id(w): w for w, _ in uniform_cases(cases)}.values()  # one shared object
        assert weight == Fraction(1, len(cases))


def test_pke_encrypt_cases_refuse_a_capped_domain_before_any_array(monkeypatch):
    for cls in (PermutationPublicScheme, UniformPadPublicScheme):
        scheme = cls(12, 1)
        ek = scheme.keygen(Stream(50).child("kg")).ek
        assert ek.modulus > EXHAUSTIVE_DOMAIN_CAP
        with monkeypatch.context() as patch:
            patch.setattr(schemes, "np", None)  # any numpy use would raise AttributeError
            with pytest.raises(EnumerationCapError):
                scheme.encryption_space(ek).cases()


def test_pke_modulus_large_enough_for_payload():
    scheme = PermutationPublicScheme(3, 3)
    assert scheme.family.modulus_bits >= 2 * 3 + 2


# ---------------------------------------------------------------------------
# Idealized and broken variants
# ---------------------------------------------------------------------------


def test_random_pad_scheme_round_trip_and_mixing():
    scheme = RandomPadSymmetricScheme(1, 1)
    kp = scheme.keygen(Stream(50).child("kg"))
    rho = random_pure_state(1, Stream(51))
    ct = scheme.encrypt(kp.ek, rho, Stream(52).child("enc"))
    assert trace_distance(scheme.decrypt(kp.dk, ct), rho) < TOL_ALGEBRA

    # pad-averaged payload is exactly maximally mixed (rational arithmetic)
    state = basis_state("1", "M", exact=True)
    total = None
    cases = scheme.encryption_space(None).cases()
    for case in cases:
        from qelab.quantum import apply_pauli

        padded = apply_pauli(case.pad, state)
        term = padded.mat * Fraction(1, len(cases))
        total = term if total is None else total + term
    diag = [as_fraction(total[i, i]) for i in range(2)]
    assert diag == [Fraction(1, 2), Fraction(1, 2)]
    assert as_fraction(total[0, 1]) == 0


def test_uniform_pad_pke_mixing_and_no_decrypt():
    scheme = UniformPadPublicScheme(1, 1)
    kp = scheme.keygen(Stream(53).child("kg"))
    cases = scheme.encryption_space(kp.ek).cases()
    assert sum(w for w, _ in uniform_cases(cases)) == 1
    with pytest.raises(QelabError):
        scheme.decrypt_pad(kp.dk, cases[0].tag)

    state = basis_state("1", "M", exact=True)
    total = None
    from qelab.quantum import apply_pauli

    for case in cases:
        padded = apply_pauli(case.pad, state)
        term = padded.mat * Fraction(1, len(cases))
        total = term if total is None else total + term
    assert [as_fraction(total[i, i]) for i in range(2)] == [Fraction(1, 2)] * 2


def test_qotp_and_identity_schemes():
    qotp = QotpScheme(1, 1)
    kp = qotp.keygen(Stream(54).child("kg"))
    rho = random_pure_state(1, Stream(55))
    ct = qotp.encrypt(kp.ek, rho, Stream(56))
    assert trace_distance(qotp.decrypt(kp.dk, ct), rho) < TOL_ALGEBRA
    assert len(qotp.key_space().cases()) == 4

    ident = IdentityScheme(1, 1)
    kp2 = ident.keygen(Stream(57))
    ct2 = ident.encrypt(kp2.ek, rho, Stream(58))
    assert trace_distance(ct2.payload, rho) == 0.0
    assert trace_distance(ident.decrypt(kp2.dk, ct2), rho) == 0.0


def test_registry_builds_all_schemes():
    from qelab.schemes import SCHEME_BUILDERS

    for name in SCHEME_BUILDERS:
        scheme = build_scheme(name, 2, 1, Stream(70))
        assert scheme.qubits == 1
        assert scheme.flavor in ("symmetric", "public")
    with pytest.raises(QelabError):
        build_scheme("nope", 2, 1, Stream(71))


@pytest.mark.parametrize("name", sorted(SCHEME_BUILDERS))
@pytest.mark.parametrize("n, qubits", [(2, 1), (3, 2)])
def test_every_draw_lies_in_the_enumerated_list(name, n, qubits):
    # The games weigh each listed key and encryption case 1/len
    # (`games.uniform_cases`), which is only right if every draw is listed.
    for seed in range(3):
        scheme = build_scheme(name, n, qubits, Stream(seed).child("setup"))
        drawn = [scheme.keygen(Stream(seed).child(f"kg{i}")) for i in range(8)]
        keys = scheme.key_space().cases()
        # `ske-randomfn` lists one stand-in key for the functions it draws;
        # a drawn function's encryption space lists its own cases below.
        if keys is not None and name != "ske-randomfn":
            assert all(kp in keys for kp in drawn)
        for k, kp in enumerate(drawn + (keys or [])):
            space = scheme.encryption_space(kp.ek)
            cases = set(space.cases())
            for i in range(16):
                assert space.draw(Stream(seed).child(f"enc{k}-{i}")) in cases


def _encryption_spaces(name, n, qubits):
    """The encryption space of every listed key of a registered scheme."""
    scheme = build_scheme(name, n, qubits, Stream(7))
    return [scheme.encryption_space(kp.ek) for kp in scheme.key_space().cases()]


def _randomfn_spaces(qubits):
    """The encryption spaces of drawn function keys."""
    scheme = RandomPadSymmetricScheme(1, qubits)
    keys = [scheme.keygen(Stream(7).child(f"kg{i}")) for i in range(3)]
    return [scheme.encryption_space(kp.ek) for kp in keys]


# Every indexed space, at small sizes; 13 bits lie above the table that
# `at` indexes, where it formats the string instead.
_INDEXED_SPACES = {
    "bitstrings": lambda: [schemes.bitstring_space(k) for k in (1, 2, 3, 13)],
    "ske-keys": lambda: [
        PrfSymmetricScheme(n, 1, prf=ConstantPrf(n, 2, 2)).key_space() for n in (1, 3, 13)
    ],
    "qotp-keys": lambda: [QotpScheme(1, q).key_space() for q in (1, 2)],
    "identity": lambda: [IdentityScheme(1, 1).key_space(), IdentityScheme(1, 1).encryption_space("")],
    "ske-prf-encryptions": lambda: (
        _encryption_spaces("ske-prf", 2, 1) + _encryption_spaces("ske-prf", 3, 2)
    ),
    "ske-constprf-encryptions": lambda: _encryption_spaces("ske-constprf", 2, 2),
    "ske-randomfn-encryptions": lambda: _randomfn_spaces(1) + _randomfn_spaces(2),
    "qotp-encryptions": lambda: _encryption_spaces("qotp", 1, 2),
}


@pytest.mark.parametrize("name", sorted(_INDEXED_SPACES))
def test_an_indexed_space_lists_the_value_at_each_index(name):
    # A batched list (`evaluate_all` for `ske-prf`) equals the per-index values
    # (`evaluate`), and each call hands out a list of its own.
    for space in _INDEXED_SPACES[name]():
        each = [space.at(i) for i in range(space.size)]
        listed = space.cases()
        assert listed == each
        listed.append("mutated")
        assert space.cases() == each


@pytest.mark.parametrize("length", [0, 1, 2, 5, 12, 13, 20])
def test_a_bitstring_draw_reads_what_bits_reads(length):
    # `at(integer(2^k))` is `bits(k)` under stream derivation v2, so keys and
    # tags drawn from their spaces are the strings `bits` drew.
    strings, keys = schemes.bitstring_space(length), schemes.bitstring_space(length, keys=True)
    for seed in range(30):
        drawn, twin, paired = (Stream(seed).child("s") for _ in range(3))
        for _ in range(5):
            expected = twin.bits(length)
            assert strings.draw(drawn) == expected
            assert keys.draw(paired) == (expected, expected)


def _pke_space(cls, seed):
    scheme = cls(2, 1)
    return scheme.encryption_space(scheme.keygen(Stream(seed).child("kg")).ek)


# Chi-square quantiles at 1 - 1e-6 for (cases - 1) degrees of freedom, fixed
# before any draw was counted: the keys drawn at seeds 0 and 1 have N = 253
# and 517, so phi(N) = 220 and 460 domain elements; `pke-uniformpad` pairs
# each with 4 pads at one qubit, and the `ske-randomfn` stand-in pairs 4 tags
# with 4 pads.  A uniform draw fails one bound with probability 1e-6.
_OWN_DRAW_CHI2 = {
    "pke-towp-253": (lambda: _pke_space(PermutationPublicScheme, 0), 219, 333.24),
    "pke-towp-517": (lambda: _pke_space(PermutationPublicScheme, 1), 459, 617.67),
    "pke-uniformpad-253": (lambda: _pke_space(UniformPadPublicScheme, 0), 879, 1092.89),
    "ske-randomfn-stand-in": (
        lambda: RandomPadSymmetricScheme(1, 1).encryption_space(None), 15, 56.49
    ),
}


@pytest.mark.parametrize("name", sorted(_OWN_DRAW_CHI2))
def test_a_space_with_its_own_draw_is_uniform_over_its_cases(name):
    # `pke-towp` draws d by rejection over Z_N^*; `pke-uniformpad` draws d
    # from its `d` child and the pad from its `pad` child; the stand-in draws
    # a tag, then a pad.
    build, dof, limit = _OWN_DRAW_CHI2[name]
    space = build()
    counts = dict.fromkeys(space.cases(), 0)
    assert len(counts) - 1 == dof
    draws = 30 * len(counts)
    rng = Stream(dof).child("chi2")
    for i in range(draws):
        counts[space.draw(rng.child(str(i)))] += 1  # a KeyError is a draw outside the list
    expected = draws / len(counts)
    assert sum((c - expected) ** 2 / expected for c in counts.values()) < limit


def test_choi_round_trip_at_three_qubits():
    identity = lambda m: m
    ske = PrfSymmetricScheme(3, 3, setup_rng=Stream(105).child("setup"))
    kp = ske.keygen(Stream(106).child("kg"))
    assert channel_choi_distance(ske.roundtrip_map(kp), identity, 3) < TOL_ALGEBRA
    pke = PermutationPublicScheme(3, 3)
    kp = pke.keygen(Stream(107).child("kg"))
    assert channel_choi_distance(pke.roundtrip_map(kp), identity, 3) < TOL_ALGEBRA


def test_ske_round_trip_every_key_in_support():
    scheme = _ske(n=2, qubits=1, seed=106)
    rho = random_pure_state(1, Stream(62))
    for kp in scheme.key_space().cases():  # all 4 keys at n=2
        ct = scheme.encrypt(kp.ek, rho, Stream(63).child(kp.ek))
        assert trace_distance(scheme.decrypt(kp.dk, ct), rho) < TOL_ALGEBRA


def test_random_pad_scheme_roundtrip_channel_reads_oracle():
    # the stand-in key's (tag, pad) pairs are game-only; a drawn key's
    # encryption space reads every pad out of its function oracle
    scheme = RandomPadSymmetricScheme(1, 1)
    kp = scheme.keygen(Stream(64).child("kg"))
    cases = scheme.encryption_space(kp.ek).cases()
    assert [(c.tag, c.pad) for c in cases] == [
        (tag, kp.ek(tag)) for tag in ("00", "01", "10", "11")
    ]
    assert channel_choi_distance(scheme.roundtrip_map(kp), lambda m: m, 1) < TOL_ALGEBRA


# ---------------------------------------------------------------------------
# Round-trip channel against the dense operator product
# ---------------------------------------------------------------------------


def _dense_roundtrip(scheme, kp, cases):
    eye = np.eye(2**scheme.qubits)
    ops = []
    for case in cases:
        enc = pauli_from_key(case.pad) if case.pad is not None else eye
        dec_pad = scheme.decrypt_pad(kp.dk, case.tag)
        dec = pauli_from_key(dec_pad) if dec_pad is not None else eye
        ops.append((float(Fraction(1, len(cases))), dec @ enc))

    def channel(mat):
        out = np.zeros_like(mat, dtype=complex)
        for weight, op in ops:
            out += weight * (op @ mat @ op.conj().T)
        return out

    return channel


def _matrix_units(dim):
    for x in range(dim):
        for y in range(dim):
            unit = np.zeros((dim, dim), dtype=complex)
            unit[x, y] = 1.0
            yield unit


# Every registered scheme that can decrypt; `pke-uniformpad` discards its pad.
_DECRYPTABLE = sorted(set(SCHEME_BUILDERS) - {"pke-uniformpad"})


@pytest.mark.parametrize("name", _DECRYPTABLE)
@pytest.mark.parametrize("qubits", [1, 2])
def test_roundtrip_map_matches_dense_on_matrix_units(name, qubits):
    scheme = build_scheme(name, 2, qubits, Stream(110).child("setup"))
    kp = scheme.keygen(Stream(111).child("kg"))
    channel = scheme.roundtrip_map(kp)
    dense = _dense_roundtrip(scheme, kp, scheme.encryption_space(kp.ek).cases())
    for unit in _matrix_units(2**qubits):
        assert np.array_equal(channel(unit), dense(unit))


def _per_case_roundtrip(scheme, kp, cases):
    """Decrypt-after-encrypt with one conjugation per encryption case."""
    frames = []
    for case in cases:
        x = z = 0
        for pad in (case.pad, scheme.decrypt_pad(kp.dk, case.tag)):
            if pad is not None:
                px, pz = pad_masks(pad)
                x, z = x ^ px, z ^ pz
        frames.append((float(Fraction(1, len(cases))), x, z))

    def channel(mat):
        out = np.zeros_like(mat)
        for weight, x, z in frames:
            out += weight * conjugate_by_masks(mat, x, z)
        return out

    return channel, {(x, z) for _, x, z in frames}


@pytest.mark.parametrize("name, n, qubits", [("ske-prf-skipdec", 2, 2), ("pke-towp", 4, 1)])
def test_roundtrip_map_merges_equal_masks(monkeypatch, name, n, qubits):
    scheme = build_scheme(name, n, qubits, Stream(7))
    keys = scheme.key_space().cases() or [scheme.keygen(Stream(116).child("kg"))]
    conjugations = []
    original = schemes.conjugate_by_masks
    monkeypatch.setattr(
        schemes, "conjugate_by_masks",
        lambda mat, x, z: conjugations.append((x, z)) or original(mat, x, z),
    )
    mask_sets = []
    for kp in keys:
        cases = scheme.encryption_space(kp.ek).cases()
        reference, masks = _per_case_roundtrip(scheme, kp, cases)
        assert len(masks) < len(cases)
        mask_sets.append(masks)
        channel = scheme.roundtrip_map(kp)
        for unit in _matrix_units(2**qubits):  # the inputs `channel_choi_distance` feeds
            conjugations.clear()
            merged = channel(unit)
            assert sorted(conjugations) == sorted(masks)  # one conjugation per mask pair
            assert np.array_equal(merged, reference(unit))
    if name == "ske-prf-skipdec":
        assert max(map(len, mask_sets)) > 1  # skipdec keeps each pad's masks: several on key 01
    else:
        assert mask_sets == [{(0, 0)}]  # a correct pke-towp key leaves only (0, 0)


def _fixed_input(dim):
    idx = np.arange(dim * dim, dtype=float).reshape(dim, dim)
    return idx / 7 + 1j * (idx.T - idx) / 11


# SHA-256 of the channel's output bytes on `_fixed_input`, every key in turn,
# from the per-case decryption walk.  The bytes pin each frame's summed float
# weight and the order in which frames are added.
@pytest.mark.parametrize("name, n, qubits, digest", [
    ("ske-prf-skipdec", 2, 2, "20f5826c99a6143e38584b06cb44e8ee090759d7fa91c461f92ff0434d7dc494"),
    ("pke-towp", 4, 1, "c5e6576952ae3001a39369ffdbd15bdd570094fc7f618e9e0d39626c03ab1681"),
    ("pke-towp", 4, 2, "51f3cf24938feea0900621f0e5c2b47ef638802f230abb16fc3087f2c809ece1"),
], ids=["ske-prf-skipdec-2-2", "pke-towp-4-1", "pke-towp-4-2"])
def test_roundtrip_map_output_bytes_are_pinned(name, n, qubits, digest):
    scheme = build_scheme(name, n, qubits, Stream(7))
    keys = scheme.key_space().cases() or [scheme.keygen(Stream(116).child("kg"))]
    h = hashlib.sha256()
    for kp in keys:
        h.update(scheme.roundtrip_map(kp)(_fixed_input(2**qubits)).tobytes())
    assert h.hexdigest() == digest


def test_roundtrip_map_checks_pads_and_input_shape():
    class LongPadScheme(QotpScheme):
        def decrypt_pad(self, dk, tag):
            return dk + "00"

    scheme = LongPadScheme(1, 1)
    kp = scheme.keygen(Stream(114).child("kg"))
    with pytest.raises(MalformedKeyError):
        scheme.roundtrip_map(kp)
    channel = QotpScheme(1, 1).roundtrip_map(kp)
    with pytest.raises(DimensionMismatchError):
        channel(np.eye(4))

