"""Encryption schemes for quantum payloads behind one common interface.

Every scheme here has the same shape: encryption draws classical coins,
derives a (tag, pad) pair from them, conjugates the payload by the pad
operator and attaches the tag in the clear; decryption recomputes the pad
from the tag and undoes the conjugation.  Because tags are classical
bitstrings by construction, the "measure the tag register" step of
decryption is a plain read and the question of superposed tags never
arises.

The catalogue:

* ``PrfSymmetricScheme``   - tag is fresh randomness, pad = PRF_k(tag);
* ``PermutationPublicScheme`` - tag is the 2n-fold image of a sampled
  domain element, pad = the iterated-permutation generator's output;
* idealized variants (truly random pad) and deliberately broken variants
  (identity encryption, constant PRF, pad-skipping decryption) used as
  positive/negative controls in the security games.

Scheme objects are immutable after construction and key material is
immutable after keygen; encrypt/decrypt are pure given an explicit
stream, so concurrent trials with per-trial streams are safe.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Callable, NamedTuple, Optional

import numpy as np

from .errors import (
    DimensionMismatchError,
    EnumerationCapError,
    InvalidCiphertextError,
    MalformedKeyError,
    QelabError,
)
from .primitives import (
    GgmPrf,
    InnerProductPredicate,
    IteratedPermutationPrg,
    RandomFunctionOracle,
    ToyRsaPermutationFamily,
    TowpIndex,
    TowpTrapdoor,
    prg_iterated,
)
from .quantum import (
    DensityMatrix,
    apply_pauli,
    basis_state,
    conjugate_by_masks,
    pad_masks,
    tensor,
)
from .rng import Stream


class KeyPair(NamedTuple):
    ek: object  # encryption key (symmetric key or public index)
    dk: object  # decryption key (same key or trapdoor material)


@dataclass(frozen=True, eq=False)
class Ciphertext:
    """Classical tag plus quantum payload."""

    tag: str
    payload: DensityMatrix


@dataclass(frozen=True, eq=False)
class SkeCiphertext(Ciphertext):
    def __post_init__(self):
        if len(self.tag) != 2 * self.payload.qubits:
            raise InvalidCiphertextError(
                f"tag of {len(self.tag)} bits does not fit a "
                f"{self.payload.qubits}-qubit payload"
            )


@dataclass(frozen=True, eq=False)
class PkeCiphertext(Ciphertext):
    def __post_init__(self):
        if not self.tag or any(b not in "01" for b in self.tag):
            raise InvalidCiphertextError("tag must be a nonempty 0/1 string")


class EncryptionCase(NamedTuple):
    """One realization of the encryption coins: the clear tag and the pad."""

    tag: str
    pad: Optional[str]  # None means the payload is passed through untouched


class PauliTagScheme:
    """Shared machinery for tag-plus-pad schemes; see module docstring."""

    name = "scheme"
    flavor = "symmetric"

    def __init__(self, n: int, qubits: int):
        if n < 1 or qubits < 1:
            raise DimensionMismatchError("security parameter and qubits must be positive")
        self.n = n
        self.qubits = qubits

    # -- key material ------------------------------------------------------
    def keygen(self, rng: Stream) -> KeyPair:
        raise NotImplementedError

    def key_cases(self) -> Optional[list[KeyPair]]:
        """Every key `keygen` draws, each equally likely, or None if impractical."""
        return None

    # -- encryption coins ---------------------------------------------------
    def sample_encryption(self, ek, rng: Stream) -> EncryptionCase:
        raise NotImplementedError

    def encrypt_cases(self, ek) -> Optional[list[EncryptionCase]]:
        """Every case `sample_encryption` draws, each equally likely, or None if impractical."""
        return None

    def decrypt_pad(self, dk, tag: str) -> Optional[str]:
        raise NotImplementedError

    def decrypt_pads(self, dk, tags: list[str]) -> list[Optional[str]]:
        """`decrypt_pad` of every tag, in order; a scheme that decrypts a batch
        in one walk overrides this."""
        return [self.decrypt_pad(dk, tag) for tag in tags]

    def make_ciphertext(self, tag: str, payload: DensityMatrix) -> Ciphertext:
        return Ciphertext(tag, payload)

    # -- public API ----------------------------------------------------------
    def _check_plaintext(self, rho: DensityMatrix) -> None:
        if rho.qubits != self.qubits:
            raise DimensionMismatchError(
                f"plaintext has {rho.qubits} qubits, scheme expects {self.qubits}"
            )

    def encrypt(self, ek, rho: DensityMatrix, rng: Stream) -> Ciphertext:
        self._check_plaintext(rho)
        case = self.sample_encryption(ek, rng)
        payload = apply_pauli(case.pad, rho) if case.pad is not None else rho
        return self.make_ciphertext(case.tag, payload)

    def decrypt(self, dk, ct: Ciphertext) -> DensityMatrix:
        pad = self.decrypt_pad(dk, ct.tag)
        return apply_pauli(pad, ct.payload) if pad is not None else ct.payload

    # -- linear round-trip channel (for Choi-state comparisons) --------------
    def roundtrip_map(
        self,
        keypair: KeyPair,
        rng: Optional[Stream] = None,
        coin_samples: int = 16,
        enumerate_coins: bool = True,
    ) -> Callable[[np.ndarray], np.ndarray]:
        """Decrypt-after-encrypt as a linear map on raw payload matrices.

        Averages over the scheme's encryption coins: the full case list
        when it is enumerable (and `enumerate_coins` is left on),
        otherwise `coin_samples` draws from `rng`; each case weighs 1/len.
        Every tag is decrypted in one `decrypt_pads` call, and the masks are
        computed once per distinct (pad, decryption pad) pair.  Cases whose
        round trip leaves the same masks are merged into one frame, whose
        float weight is 1/len added once per case, so the channel conjugates
        once per distinct mask pair (a correct scheme has the single pair
        (0, 0)).  Frames keep the order of their first case.
        """
        cases = self.encrypt_cases(keypair.ek) if enumerate_coins else None
        if cases is None:
            if rng is None:
                raise EnumerationCapError(
                    "coin space is not enumerable; supply an rng for sampling"
                )
            cases = [
                self.sample_encryption(keypair.ek, rng.child(f"coin{i}"))
                for i in range(coin_samples)
            ]
        case_weight = 1 / len(cases)
        dec_pads = self.decrypt_pads(keypair.dk, [case.tag for case in cases])
        frames: dict[tuple[int, int], float] = {}
        for (enc_pad, dec_pad), count in Counter(zip((c.pad for c in cases), dec_pads)).items():
            # Pads compose up to a global phase, which conjugation drops, so
            # decrypt-after-encrypt is the pad with the XOR of both masks.
            x, z = 0, 0
            for pad in (enc_pad, dec_pad):
                if pad is not None:
                    px, pz = pad_masks(pad)
                    if len(pad) != 2 * self.qubits:
                        raise MalformedKeyError(
                            f"pad of length {len(pad)} cannot drive {self.qubits} qubits"
                        )
                    x, z = x ^ px, z ^ pz
            weight = frames.get((x, z), 0.0)
            for _ in range(count):  # the float that one addition per case gives
                weight += case_weight
            frames[x, z] = weight

        dim = 2**self.qubits

        def channel(mat: np.ndarray) -> np.ndarray:
            mat = np.asarray(mat, dtype=np.complex128)
            if mat.shape != (dim, dim):
                raise DimensionMismatchError(
                    f"channel input shape {mat.shape}, expected {(dim, dim)}"
                )
            out = np.zeros_like(mat)
            for (x, z), weight in frames.items():
                out += weight * conjugate_by_masks(mat, x, z)
            return out

        return channel

    def describe(self) -> str:
        return f"{self.name} (flavor={self.flavor}, n={self.n}, qubits={self.qubits})"


def _all_bitstrings(length: int) -> list[str]:
    return [format(v, f"0{length}b") for v in range(1 << length)] if length else [""]


# ---------------------------------------------------------------------------
# Symmetric scheme from a PRF
# ---------------------------------------------------------------------------


def build_ggm_prf(n: int, qubits: int, rng: Stream) -> GgmPrf:
    """The default PRF: a GGM tree over the iterated-permutation generator."""
    family = ToyRsaPermutationFamily(max(n, 3))
    index, _ = family.generate(rng.child("prf-family"))
    prg = IteratedPermutationPrg(family, index, seed_len=n, out_len=2 * n)
    return GgmPrf(prg, in_len=2 * qubits, out_len=2 * qubits)


class PrfSymmetricScheme(PauliTagScheme):
    """Symmetric encryption: fresh random tag, pad derived by a keyed PRF.

    The PRF offers `evaluate(key, x)` and `evaluate_all(key)`, the latter
    giving every input's output in lexicographic order of the input.
    """

    name = "ske-prf"

    def __init__(self, n: int, qubits: int, prf=None, setup_rng: Optional[Stream] = None):
        super().__init__(n, qubits)
        if prf is None:
            prf = build_ggm_prf(n, qubits, setup_rng or Stream(0x5E7).child("prf"))
        if prf.key_len != n or prf.in_len != 2 * qubits or prf.out_len != 2 * qubits:
            raise DimensionMismatchError(
                f"scheme at n={n}, qubits={qubits} needs a "
                f"{n} x {2*qubits} -> {2*qubits} PRF, got "
                f"{prf.key_len} x {prf.in_len} -> {prf.out_len}"
            )
        self.prf = prf

    def keygen(self, rng: Stream) -> KeyPair:
        k = rng.bits(self.n)
        return KeyPair(k, k)

    def key_cases(self):
        return [KeyPair(k, k) for k in _all_bitstrings(self.n)]

    def sample_encryption(self, ek, rng: Stream) -> EncryptionCase:
        tag = rng.bits(2 * self.qubits)
        return EncryptionCase(tag, self.prf.evaluate(ek, tag))

    def encrypt_cases(self, ek):
        """Every tag with its pad, from one `evaluate_all` walk of the key's tree."""
        tags = _all_bitstrings(2 * self.qubits)
        return list(map(EncryptionCase, tags, self.prf.evaluate_all(ek)))

    def decrypt_pad(self, dk, tag: str) -> str:
        if len(tag) != 2 * self.qubits or any(b not in "01" for b in tag):
            raise InvalidCiphertextError(
                f"tag must be {2 * self.qubits} bits of 0/1, got {tag!r}"
            )
        return self.prf.evaluate(dk, tag)

    def make_ciphertext(self, tag, payload):
        return SkeCiphertext(tag, payload)


class PadSkippingDecryptScheme(PrfSymmetricScheme):
    """Deliberately corrupted variant: decryption forgets to undo the pad."""

    name = "ske-prf-skipdec"

    def decrypt_pad(self, dk, tag):
        super().decrypt_pad(dk, tag)  # keep the tag validation
        return None


class RandomPadSymmetricScheme(PauliTagScheme):
    """Idealized variant: pads come from a truly random function of the tag.

    Key material is a lazily sampled random-function oracle, so encrypt
    and decrypt stay consistent.  In an oracle-free game the challenge tag
    is the only query ever made, so the enumeration-mode coin space is
    simply a uniform independent (tag, pad) pair.
    """

    name = "ske-randomfn"

    def keygen(self, rng: Stream) -> KeyPair:
        fn = RandomFunctionOracle(2 * self.qubits, 2 * self.qubits, rng.child("fn"))
        return KeyPair(fn, fn)

    def key_cases(self):
        # One stand-in key: the function's randomness is in `encrypt_cases`.
        return [KeyPair(None, None)]

    def sample_encryption(self, ek, rng: Stream) -> EncryptionCase:
        tag = rng.bits(2 * self.qubits)
        if ek is None:  # enumeration-mode stand-in key: pad is free randomness
            return EncryptionCase(tag, rng.bits(2 * self.qubits))
        return EncryptionCase(tag, ek.query(tag))

    def encrypt_cases(self, ek):
        strings = _all_bitstrings(2 * self.qubits)
        return [EncryptionCase(tag, pad) for tag in strings for pad in strings]

    def decrypt_pad(self, dk, tag: str) -> str:
        if dk is None:
            raise QelabError("the enumeration-mode stand-in key cannot decrypt")
        return dk.query(tag)

    def make_ciphertext(self, tag, payload):
        return SkeCiphertext(tag, payload)

    def roundtrip_map(self, keypair, rng=None, coin_samples=16, enumerate_coins=True):
        # The enumerated coin space is the challenge's marginal (tag, pad)
        # distribution, valid for oracle-free games only; a round trip must
        # read the pad back out of the key's function oracle, so sample.
        return super().roundtrip_map(keypair, rng, coin_samples, enumerate_coins=False)


class QotpScheme(PauliTagScheme):
    """The information-theoretic pad: the key is the pad, used once."""

    name = "qotp"

    def keygen(self, rng: Stream) -> KeyPair:
        pad = rng.bits(2 * self.qubits)
        return KeyPair(pad, pad)

    def key_cases(self):
        return [KeyPair(p, p) for p in _all_bitstrings(2 * self.qubits)]

    def sample_encryption(self, ek, rng: Stream) -> EncryptionCase:
        return EncryptionCase("", ek)

    def encrypt_cases(self, ek):
        return [EncryptionCase("", ek)]

    def decrypt_pad(self, dk, tag: str) -> str:
        return dk


class IdentityScheme(PauliTagScheme):
    """No encryption at all; the canonical broken scheme."""

    name = "identity"

    def keygen(self, rng: Stream) -> KeyPair:
        return KeyPair("", "")

    def key_cases(self):
        return [KeyPair("", "")]

    def sample_encryption(self, ek, rng: Stream) -> EncryptionCase:
        return EncryptionCase("", None)

    def encrypt_cases(self, ek):
        return [EncryptionCase("", None)]

    def decrypt_pad(self, dk, tag: str):
        return None


# ---------------------------------------------------------------------------
# Public-key scheme from a trapdoor permutation
# ---------------------------------------------------------------------------


class PkeSecret(NamedTuple):
    index: TowpIndex
    trapdoor: TowpTrapdoor


class PermutationPublicScheme(PauliTagScheme):
    """Public-key encryption: pad bits are hard-core bits of iterates.

    Encryption samples a domain element d, iterates the public permutation
    2n times to make the tag, and pads the payload with the generator
    output of seed d.  Decryption walks the tag backwards with the
    trapdoor, reading one hard-core bit per step; the bits come out in
    exactly the generator's order, so the decryption pad equals the
    encryption pad bit for bit.
    """

    name = "pke-towp"
    flavor = "public"

    def __init__(self, n: int, qubits: int):
        super().__init__(n, qubits)
        self.family = ToyRsaPermutationFamily(n)
        if self.family.modulus_bits < 2 * qubits + 2:
            raise DimensionMismatchError(
                f"{self.family.modulus_bits}-bit modulus too small for {qubits} qubits"
            )
        self.hc = InnerProductPredicate()

    def keygen(self, rng: Stream) -> KeyPair:
        index, trapdoor = self.family.generate(rng)
        return KeyPair(index, PkeSecret(index, trapdoor))

    def _pad_from_seed(self, index: TowpIndex, d: int) -> str:
        return prg_iterated(self.family, self.hc, index, d, 2 * self.qubits)

    def _tag_from_seed(self, index: TowpIndex, d: int) -> str:
        image = self.family.iterate(index, d, 2 * self.qubits)
        return self.family.encode_element(index, image)

    def sample_encryption(self, ek: TowpIndex, rng: Stream) -> EncryptionCase:
        d = self.family.sample(ek, rng)
        return EncryptionCase(self._tag_from_seed(ek, d), self._pad_from_seed(ek, d))

    def encrypt_cases(self, ek: TowpIndex):
        """One case per domain element.

        `family.domain` checks the domain cap before any array is built;
        the cap keeps N <= 2^20, which the uint64 walk over the whole
        domain (`_domain_tags_and_pads`) relies on.
        """
        domain = self.family.domain(ek)
        tags, pads = _domain_tags_and_pads(ek, domain, 2 * self.qubits)
        return list(map(EncryptionCase, tags, pads))

    def decrypt_pad(self, dk: PkeSecret, tag: str) -> str:
        """Walk one tag backwards with the trapdoor, in Python ints.

        The same walk, bits and errors as `decrypt_pads`, whose array walk
        makes about 80 numpy calls whatever the batch size: for one tag,
        over 20x the cost of this loop.
        """
        index, trapdoor = dk
        x = self._decode_unit(index, tag)
        bits = []
        for _ in range(2 * self.qubits):
            x = self.family.invert(x, trapdoor)
            bits.append(str(self.hc.evaluate(index, x)))
        return "".join(bits)

    def decrypt_pads(self, dk: PkeSecret, tags: list[str]) -> list[str]:
        """Walk every tag backwards with the trapdoor, as one uint64 array.

        Step i inverts the permutation and reads pad bit i off the hard-core
        predicate, as `_domain_tags_and_pads` walks forwards.  The first tag
        that is not the encoding of a unit raises `InvalidCiphertextError`.
        """
        index, trapdoor = dk
        x = self._decode_units(index, tags)
        steps = 2 * self.qubits
        modulus, mask = np.uint64(index.modulus), np.uint64(index.mask)
        pad = np.zeros_like(x)
        for i in range(steps):
            x = _powmod(x, trapdoor.inverse_exponent, modulus)
            pad |= _parity(x & mask) << np.uint64(steps - 1 - i)
        table = _all_bitstrings(steps)
        return [table[v] for v in pad.tolist()]

    def _decode_units(self, index: TowpIndex, tags: list[str]) -> np.ndarray:
        """The domain element each tag encodes, as uint64.

        A batch of well-formed unit encodings is checked as one byte string
        and one array.  Otherwise the tags are decoded one by one, so the
        error names the first bad tag exactly as a one-tag decryption does.
        """
        width = index.element_width
        raw = "".join(tags).encode()
        if (len(raw) == width * len(tags) and not raw.translate(None, b"01")
                and all(len(tag) == width for tag in tags)):
            x = np.array([int(tag, 2) for tag in tags], dtype=np.uint64)
            modulus = np.uint64(index.modulus)
            if ((x >= 1) & (x < modulus) & (np.gcd(x, modulus) == 1)).all():
                return x
        return np.array([self._decode_unit(index, tag) for tag in tags], dtype=np.uint64)

    def _decode_unit(self, index: TowpIndex, tag: str) -> int:
        """The domain element one tag encodes; `InvalidCiphertextError` if none."""
        try:
            s = self.family.decode_element(index, tag)
        except MalformedKeyError as exc:
            raise InvalidCiphertextError(str(exc)) from exc
        if not self.family.contains(index, s):
            raise InvalidCiphertextError(
                f"tag decodes to {s}, outside the domain of {index.modulus}"
            )
        return s

    def make_ciphertext(self, tag, payload):
        return PkeCiphertext(tag, payload)


def _powmod(x: np.ndarray, exponent: int, modulus: np.uint64) -> np.ndarray:
    """x^exponent mod N of a uint64 array, by square-and-multiply.

    `MAX_SECURITY` keeps N < 2^28, so a product of two residues stays
    below 2^56.  Every operand is uint64, because numpy 1.x turns an
    np.uint64 scalar combined with a Python int into a float64.
    """
    power, base, e = np.ones_like(x), x, exponent
    while e:
        if e & 1:
            power = power * base % modulus
        e >>= 1
        if e:
            base = base * base % modulus
    return power


def _parity(v: np.ndarray) -> np.ndarray:
    """The parity of each entry of a uint64 array as 0 or 1, folding `v` in place."""
    for shift in (32, 16, 8, 4, 2, 1):
        v ^= v >> np.uint64(shift)
    return v & np.uint64(1)


def _domain_tags_and_pads(index: TowpIndex, domain: list[int], steps: int):
    """`_tag_from_seed` and `_pad_from_seed` of every domain element, as two lists.

    Walks the whole domain `steps` times as uint64 arrays: x^e mod N
    (`_powmod`), and the inner-product hard-core bit of each iterate as
    the parity of x & mask (`_parity`).
    """
    modulus = np.uint64(index.modulus)
    mask = np.uint64(index.mask)
    x = np.array(domain, dtype=np.uint64)
    pad = np.zeros_like(x)
    for i in range(steps):
        pad |= _parity(x & mask) << np.uint64(i)
        x = _powmod(x, index.exponent, modulus)
    fmt = f"0{index.element_width}b"
    table = _all_bitstrings(steps)
    return [format(v, fmt) for v in x.tolist()], [table[v] for v in pad.tolist()]


class UniformPadPublicScheme(PermutationPublicScheme):
    """Idealized variant: the tag is genuine but the pad is fresh randomness.

    Not decryptable (the pad is discarded); exists as the positive control
    for which every game's advantage vanishes identically.
    """

    name = "pke-uniformpad"

    def sample_encryption(self, ek: TowpIndex, rng: Stream) -> EncryptionCase:
        d = self.family.sample(ek, rng.child("d"))
        return EncryptionCase(self._tag_from_seed(ek, d), rng.child("pad").bits(2 * self.qubits))

    def encrypt_cases(self, ek: TowpIndex):
        """Every (domain element, pad) pair.

        Tags come from the same uint64 domain walk as `pke-towp`, which
        relies on the domain cap's N <= 2^20, checked first by `family.domain`.
        """
        domain = self.family.domain(ek)
        pads = _all_bitstrings(2 * self.qubits)
        tags, _ = _domain_tags_and_pads(ek, domain, 2 * self.qubits)
        return [EncryptionCase(tag, pad) for tag in tags for pad in pads]

    def decrypt_pad(self, dk, tag):
        raise QelabError("the uniform-pad variant discards the pad; decryption is undefined")

    def decrypt_pads(self, dk, tags):
        raise QelabError("the uniform-pad variant discards the pad; decryption is undefined")


def ciphertext_as_state(ct: Ciphertext, tag_register: str = "T") -> DensityMatrix:
    """Embed the classical tag as a basis-state register next to the payload."""
    if not ct.tag:
        return ct.payload
    return tensor(basis_state(ct.tag, tag_register, ct.payload.exact), ct.payload)


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------


def _build_ske_constprf(n, qubits, rng):
    from .primitives import ConstantPrf

    return PrfSymmetricScheme(n, qubits, prf=ConstantPrf(n, 2 * qubits, 2 * qubits))


SCHEME_BUILDERS: dict[str, Callable[[int, int, Stream], PauliTagScheme]] = {
    "ske-prf": lambda n, q, rng: PrfSymmetricScheme(n, q, setup_rng=rng),
    "ske-constprf": _build_ske_constprf,
    "ske-prf-skipdec": lambda n, q, rng: PadSkippingDecryptScheme(n, q, setup_rng=rng),
    "ske-randomfn": lambda n, q, rng: RandomPadSymmetricScheme(n, q),
    "qotp": lambda n, q, rng: QotpScheme(n, q),
    "identity": lambda n, q, rng: IdentityScheme(n, q),
    "pke-towp": lambda n, q, rng: PermutationPublicScheme(n, q),
    "pke-uniformpad": lambda n, q, rng: UniformPadPublicScheme(n, q),
}


def build_scheme(name: str, n: int, qubits: int, rng: Stream) -> PauliTagScheme:
    try:
        builder = SCHEME_BUILDERS[name]
    except KeyError:
        raise QelabError(
            f"unknown scheme {name!r}; registered: {sorted(SCHEME_BUILDERS)}"
        ) from None
    return builder(n, qubits, rng.child("scheme-setup"))
