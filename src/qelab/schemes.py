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

Each classical coin is defined once, as a `CoinSpace` (`key_space()`,
`encryption_space(ek)`): exact games list its `cases()`, and `keygen`,
`encrypt` and sampled games call its `draw(rng)`.

Scheme objects are immutable after construction (apart from memos) and key
material is immutable after keygen; encrypt/decrypt are pure given an
explicit stream, so concurrent trials with per-trial streams are safe.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import lru_cache, partial
from itertools import product, repeat
from typing import Callable, NamedTuple, Optional

import numpy as np

from .errors import (
    DimensionMismatchError,
    InvalidCiphertextError,
    MalformedKeyError,
    QelabError,
)
from .primitives import (
    GgmPrf,
    IteratedPermutationPrg,
    RandomFunctionOracle,
    ToyRsaPermutationFamily,
    TowpIndex,
    TowpTrapdoor,
    hardcore_bit,
    prg_iterated,
)
from .quantum import (
    DensityMatrix,
    apply_pauli,
    conjugate_by_masks,
    pad_masks,
)
from .rng import Stream, is_bitstring


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
        if not self.tag or not is_bitstring(self.tag):
            raise InvalidCiphertextError("tag must be a nonempty 0/1 string")


class EncryptionCase(NamedTuple):
    """One realization of the encryption coins: the clear tag and the pad."""

    tag: str
    pad: Optional[str]  # None means the payload is passed through untouched


def _encryption_cases(pairs) -> list[EncryptionCase]:
    """An `EncryptionCase` of each (tag, pad) pair, built by `tuple.__new__`.

    A NamedTuple's own constructor is a Python function; this path stays in
    C, which counts when a scheme lists every case of a domain.
    """
    return list(map(tuple.__new__, repeat(EncryptionCase), pairs))


class CoinSpace:
    """A uniform coin: `cases()` lists every value, each equally likely; `draw(rng)` samples one.

    An indexed space is "the i-th of `size` values" `at(i)`: it draws `at(rng.integer(size))`,
    uniform over its cases by construction, and may list them in one batch.  Any other space
    brings its own `draw`, and `cases` unless it has no list (`cases()` is then None).
    """

    __slots__ = ("size", "at", "_cases", "draw")

    def __init__(self, size: Optional[int] = None, at=None, cases=None, draw=None):
        self.size, self.at, self._cases = size, at, cases
        self.draw = draw or (lambda rng: at(rng.integer(size)))

    def cases(self) -> Optional[list]:
        if self._cases is None and self.at is not None:
            return list(map(self.at, range(self.size)))
        return self._cases and self._cases()


@lru_cache(maxsize=16)
def _bitstring_table(length: int) -> tuple[str, ...]:
    """Every `length`-bit string in lexicographic order, built once per length."""
    return tuple(format(v, f"0{length}b") for v in range(1 << length)) if length else ("",)


@lru_cache(maxsize=32)
def bitstring_space(length: int, keys: bool = False) -> CoinSpace:
    """Every `length`-bit string, string i being i in binary (a draw reads what
    `bits(length)` reads), or with `keys` each one's symmetric key pair.  Up to
    12 bits the values are built once, and `at` looks one up."""
    value = (lambda s: tuple.__new__(KeyPair, (s, s))) if keys else str
    if length <= 12:
        table = tuple(map(value, _bitstring_table(length)))
        return CoinSpace(len(table), table.__getitem__, lambda: list(table))
    fmt = f"0{length}b"
    return CoinSpace(1 << length, lambda i: value(format(i, fmt)))


def _tagged_pads(length: int, pad, pads=None) -> CoinSpace:
    """Tag i is the `length`-bit string i, padded by `pad(tag)`; `pads()` lists
    every tag's pad in one batch.  Each index's case is kept once drawn, so
    `pad` runs at most once per tag for the life of the space."""
    tags = bitstring_space(length)
    tag_at, pads = tags.at, pads or (lambda: map(pad, tags.cases()))
    drawn = {}

    def at(i):
        case = drawn.get(i)
        if case is None:
            tag = tag_at(i)
            case = drawn[i] = tuple.__new__(EncryptionCase, (tag, pad(tag)))
        return case

    return CoinSpace(tags.size, at, lambda: _encryption_cases(zip(tags.cases(), pads())))


class PauliTagScheme:
    """Shared machinery for tag-plus-pad schemes; see module docstring."""

    name = "scheme"
    flavor = "symmetric"

    def __init__(self, n: int, qubits: int):
        if n < 1 or qubits < 1:
            raise DimensionMismatchError("security parameter and qubits must be positive")
        self.n = n
        self.qubits = qubits

    # -- the coins -----------------------------------------------------------
    def key_space(self) -> CoinSpace:
        """KeyGen's coin: every key pair."""
        raise NotImplementedError

    def encryption_space(self, ek) -> CoinSpace:
        """Enc's coin under `ek`: every (tag, pad) case."""
        raise NotImplementedError

    def decrypt_pad(self, dk, tag: str) -> Optional[str]:
        raise NotImplementedError

    def decrypt_pads(self, dk, tags: list[str]) -> list[Optional[str]]:
        """`decrypt_pad` of every tag, in order; a scheme that decrypts a batch
        in one walk overrides this."""
        return [self.decrypt_pad(dk, tag) for tag in tags]

    def make_ciphertext(self, tag: str, payload: DensityMatrix) -> Ciphertext:
        return Ciphertext(tag, payload)

    # -- public API ----------------------------------------------------------
    def keygen(self, rng: Stream) -> KeyPair:
        """KeyGen: one draw from `key_space()`."""
        return self.key_space().draw(rng)

    def _check_plaintext(self, rho: DensityMatrix) -> None:
        if rho.qubits != self.qubits:
            raise DimensionMismatchError(
                f"plaintext has {rho.qubits} qubits, scheme expects {self.qubits}"
            )

    def encrypt(self, ek, rho: DensityMatrix, rng: Stream) -> Ciphertext:
        self._check_plaintext(rho)
        case = self.encryption_space(ek).draw(rng)
        payload = apply_pauli(case.pad, rho) if case.pad is not None else rho
        return self.make_ciphertext(case.tag, payload)

    def decrypt(self, dk, ct: Ciphertext) -> DensityMatrix:
        pad = self.decrypt_pad(dk, ct.tag)
        return apply_pauli(pad, ct.payload) if pad is not None else ct.payload

    # -- linear round-trip channel (for Choi-state comparisons) --------------
    def roundtrip_map(self, keypair: KeyPair) -> Callable[[np.ndarray], np.ndarray]:
        """Decrypt-after-encrypt as a linear map on raw payload matrices.

        Averages over every case of the key's encryption space, each weighing
        1/len; a space above the domain cap refuses (`EnumerationCapError`).
        Every tag is decrypted in one `decrypt_pads` call, and the masks are
        computed once per distinct (pad, decryption pad) pair.  Cases whose
        round trip leaves the same masks are merged into one frame, whose
        float weight is 1/len added once per case, so the channel conjugates
        once per distinct mask pair (a correct scheme has the single pair
        (0, 0)).  Frames keep the order of their first case.
        """
        cases = self.encryption_space(keypair.ek).cases()
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
        self._keys = bitstring_space(n, True)
        self._spaces: dict[str, CoinSpace] = {}

    def key_space(self):
        return self._keys

    def encryption_space(self, ek):
        """Every tag with its pad, listed by one `evaluate_all` walk; built once per
        key, and kept only for a key of `n` bits."""
        try:
            space = self._spaces.get(ek)
        except TypeError:  # an unhashable key, such as a list
            space = None
        if space is None:
            if not isinstance(ek, str) or len(ek) != self.n or not is_bitstring(ek):
                raise MalformedKeyError(f"key must be {self.n} bits, got {ek!r}")
            prf = self.prf
            space = self._spaces[ek] = _tagged_pads(2 * self.qubits, partial(prf.evaluate, ek),
                                                    partial(prf.evaluate_all, ek))
        return space

    def decrypt_pad(self, dk, tag: str) -> str:
        if len(tag) != 2 * self.qubits or not is_bitstring(tag):
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

    A key is the function itself, a lazily sampled `RandomFunctionOracle`,
    so encrypt and decrypt stay consistent: encryption pads by `ek(tag)` and
    decryption unpads by `dk(tag)`.  Any function from `2 * qubits` to
    `2 * qubits` bits keys it, which is how a reduction runs the scheme
    through a function oracle.  In an oracle-free game the challenge tag is
    the only query ever made, so exact games enumerate one stand-in key,
    `KeyPair(None, None)`, whose cases are uniform independent (tag, pad) pairs.
    """

    name = "ske-randomfn"

    def key_space(self):
        """A draw is a random function, lazy on its `fn` child; the list is the stand-in."""
        return CoinSpace(None, None, lambda: [KeyPair(None, None)], self._function_key)

    def _function_key(self, rng: Stream) -> KeyPair:
        fn = RandomFunctionOracle(2 * self.qubits, 2 * self.qubits, rng.child("fn"))
        return KeyPair(fn, fn)

    def encryption_space(self, ek):
        if ek is not None:
            return _tagged_pads(2 * self.qubits, ek)
        strings = bitstring_space(2 * self.qubits)  # the stand-in: tag, then pad
        return CoinSpace(
            None, None, lambda: _encryption_cases(product(strings.cases(), repeat=2)),
            lambda rng: EncryptionCase(strings.draw(rng), strings.draw(rng)),
        )

    def decrypt_pad(self, dk, tag: str) -> str:
        if dk is None:
            raise QelabError("the enumeration-mode stand-in key cannot decrypt")
        return dk(tag)

    def make_ciphertext(self, tag, payload):
        return SkeCiphertext(tag, payload)


class QotpScheme(PauliTagScheme):
    """The information-theoretic pad: the key is the pad, used once."""

    name = "qotp"

    def key_space(self):
        return bitstring_space(2 * self.qubits, True)

    def encryption_space(self, ek):
        return CoinSpace(1, lambda i: EncryptionCase("", ek))

    def decrypt_pad(self, dk, tag: str) -> str:
        return dk


class IdentityScheme(PauliTagScheme):
    """No encryption at all; the canonical broken scheme."""

    name = "identity"

    def key_space(self):
        return CoinSpace(1, lambda i: KeyPair("", ""))

    def encryption_space(self, ek):
        return CoinSpace(1, lambda i: EncryptionCase("", None))

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
        self._keys = CoinSpace(None, None, None, self._generate)

    def key_space(self):
        """A (public index, secret) pair from `family.generate`; there is no list."""
        return self._keys

    def _generate(self, rng: Stream) -> KeyPair:
        index, trapdoor = self.family.generate(rng)
        return KeyPair(index, PkeSecret(index, trapdoor))

    def _pad_from_seed(self, index: TowpIndex, d: int) -> str:
        return prg_iterated(self.family, index, d, 2 * self.qubits)

    def _tag_from_seed(self, index: TowpIndex, d: int) -> str:
        image = self.family.iterate(index, d, 2 * self.qubits)
        return self.family.encode_element(index, image)

    def encryption_space(self, ek: TowpIndex):
        """One case per domain element d, drawn by rejection over Z_N^*.

        `family.domain` checks the domain cap before any array is built;
        the cap keeps N <= 2^20, which the uint64 walk over the whole
        domain (`_domain_tags_and_pads`) relies on.
        """

        def draw(rng):
            d = self.family.sample(ek, rng)
            pair = (self._tag_from_seed(ek, d), self._pad_from_seed(ek, d))
            return tuple.__new__(EncryptionCase, pair)

        return CoinSpace(None, None, lambda: _encryption_cases(zip(*self._domain_walk(ek))), draw)

    def _domain_walk(self, ek: TowpIndex):
        return _domain_tags_and_pads(ek, self.family.domain(ek), 2 * self.qubits)

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
            bits.append(str(hardcore_bit(index, x)))
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
        table = _bitstring_table(steps)
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
    table = _bitstring_table(steps)
    return [format(v, fmt) for v in x.tolist()], [table[v] for v in pad.tolist()]


class UniformPadPublicScheme(PermutationPublicScheme):
    """Idealized variant: the tag is genuine but the pad is fresh randomness.

    Not decryptable (the pad is discarded); exists as the positive control
    for which every game's advantage vanishes identically.
    """

    name = "pke-uniformpad"

    def encryption_space(self, ek: TowpIndex):
        """Every (domain element, pad) pair, drawn from the `d` and `pad` children.

        Tags come from the same uint64 domain walk as `pke-towp`, which
        relies on the domain cap's N <= 2^20, checked first by `family.domain`.
        """
        pads = bitstring_space(2 * self.qubits)

        def draw(rng):
            d = self.family.sample(ek, rng.child("d"))
            pair = (self._tag_from_seed(ek, d), pads.draw(rng.child("pad")))
            return tuple.__new__(EncryptionCase, pair)

        cases = lambda: _encryption_cases(product(self._domain_walk(ek)[0], pads.cases()))
        return CoinSpace(None, None, cases, draw)

    def decrypt_pad(self, dk, tag):
        raise QelabError("the uniform-pad variant discards the pad; decryption is undefined")

    def decrypt_pads(self, dk, tags):
        raise QelabError("the uniform-pad variant discards the pad; decryption is undefined")


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
