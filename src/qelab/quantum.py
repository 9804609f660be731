"""Dense small-dimension quantum state arithmetic.

States are density matrices over an ordered list of *named registers*;
every multi-register operation addresses registers by name, so callers
never juggle qubit indices.  Two scalar backends share one code path:

* float mode: complex128 matrices, invariants checked to `TOL_PSD`;
* exact mode: Gaussian-integer numerators over one common positive
  denominator, entry (i, k) = (re[i, k] + 1j * im[i, k]) / den, with `re`
  and `im` numpy object arrays of Python ints (which never overflow).
  The enumeration-mode security games use it, so probabilities come out as
  Fractions.

A state keeps its stored arrays in `parts`: `(mat,)` in float mode and
`(re, im)` in exact mode.  Pad conjugation, partial traces and register
moves act on each part alike; only `tensor`, the measurements and the
conversions look at the denominator.  An exact state's `mat` is a
read-only `QRat` matrix built on first read, for code that builds or
inspects exact matrices by hand; no kernel reads it.

Conventions: registers appear in layout order, the first qubit of a
register is the most significant bit of its basis index, and a pad
bitstring drives qubit j with bits (2j-1, 2j) -> (X exponent, Z exponent).

Pad conjugation never builds the pad operator.  A pad is an X mask x and
a Z mask z over the basis-index bits, and conjugation by X^x Z^z is the
signed permutation rho'[i, k] = (-1)^{z.i + z.k} rho[i^x, k^x] (the
Pauli-frame view of stabilizer simulation: Aaronson and Gottesman,
quant-ph/0406196).  Both backends share that kernel; in exact mode it
moves integer numerators and negates some, so it does no rational
arithmetic.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from typing import Callable, NamedTuple

import numpy as np

from .errors import (
    DimensionMismatchError,
    ExactModeError,
    LayoutError,
    MalformedKeyError,
    MeasurementError,
    ParameterError,
)
from .rationals import QRat
from .rng import Stream, is_bitstring

TOL_PSD = 1e-9        # invariant checks (hermiticity, trace, positivity)
TOL_ALGEBRA = 1e-10   # algebraic identities (involutions, mixing, round trips)
MAX_EXHAUSTIVE_QUBITS = 3
# A q-qubit channel's Choi matrix is 4^q x 4^q complex128: 16 MiB at 5
# qubits, 256 MiB at 6 and 1 TiB at 9.
MAX_CHOI_QUBITS = 5
# A dense q-qubit state holds 16 * 4^q bytes: complex128 entries, or in exact
# mode two object arrays of 8-byte pointers (plus any large ints).  At the cap
# that is 16 MiB, the size of the largest Choi matrix; 12 qubits would take
# 256 MiB and 30 qubits 16 EiB.  `_normalize_layout` refuses a larger layout,
# and every constructor, `tensor` and `measure_registers_into` normalize it
# before building the matrix.
MAX_STATE_QUBITS = 2 * MAX_CHOI_QUBITS
# A state keeps the results of its unary kernels (`_memoized`) only up to 4
# qubits, and at most 64 of them: every pad of a 3-qubit register.  At 8
# qubits, 64 padded states would take 64 MB.
_MEMO_MAX_DIM = 2**4
_MEMO_MAX_ENTRIES = 64


class Register(NamedTuple):
    name: str
    qubits: int


def _normalize_layout(layout) -> tuple[Register, ...]:
    regs = []
    seen = set()
    qubits = 0
    for item in layout:
        reg = Register(str(item[0]), int(item[1]))
        if reg.qubits < 1:
            raise LayoutError(f"register {reg.name!r} must hold at least one qubit")
        if reg.name in seen:
            raise LayoutError(f"duplicate register name {reg.name!r}")
        seen.add(reg.name)
        regs.append(reg)
        qubits += reg.qubits
    if qubits > MAX_STATE_QUBITS:
        raise ParameterError(
            f"a dense state holds at most {MAX_STATE_QUBITS} qubits, got {qubits}"
        )
    return tuple(regs)


def _gaussian(value) -> tuple[Fraction, Fraction]:
    if isinstance(value, QRat):
        return value.re, value.im
    if isinstance(value, complex):
        return Fraction(value.real), Fraction(value.imag)
    return Fraction(value), Fraction(0)


def _numerators(mat: np.ndarray) -> tuple[np.ndarray, np.ndarray, int]:
    """(re, im, den) of an object matrix of QRat, Fraction, int or complex entries."""
    pairs = [_gaussian(v) for v in mat.flat]
    den = math.lcm(*(f.denominator for pair in pairs for f in pair))

    def scaled(k: int) -> np.ndarray:
        nums = [pair[k].numerator * (den // pair[k].denominator) for pair in pairs]
        return np.array(nums, dtype=object).reshape(mat.shape)

    return scaled(0), scaled(1), den


def _to_qrat(re: int, im: int, den: int) -> QRat:
    return QRat(Fraction(re, den), Fraction(im, den))


_qrat_matrix = np.frompyfunc(_to_qrat, 3, 1)


def _validate(state: "DensityMatrix") -> None:
    qubits = state.qubits
    dim = 2**qubits
    shape = state.parts[0].shape
    if shape != (dim, dim):
        raise LayoutError(
            f"matrix shape {shape} does not match layout of {qubits} qubits"
        )
    if state.exact:
        re, im = state.parts
        trace = re.trace()
        if trace != state.den:
            raise LayoutError(
                f"exact state has trace {Fraction(trace, state.den)}, expected 1"
            )
        if not (np.array_equal(re, re.T) and np.array_equal(im, -im.T)):
            raise LayoutError("exact state is not Hermitian")
        return
    mat = state.mat
    if abs(np.trace(mat) - 1.0) > TOL_PSD:
        raise LayoutError(f"state has trace {np.trace(mat)}, expected 1")
    if np.max(np.abs(mat - mat.conj().T)) > TOL_PSD:
        raise LayoutError("state is not Hermitian within tolerance")
    eigmin = float(np.linalg.eigvalsh(mat).min())
    if eigmin < -TOL_PSD:
        raise LayoutError(f"state has negative eigenvalue {eigmin}")


class DensityMatrix:
    """A positive unit-trace operator over named registers.

    `DensityMatrix(mat, layout)` takes a complex matrix (float mode) or an
    object matrix of `QRat`, `Fraction` or `int` entries (exact mode, stored
    as integer numerators over their least common denominator `den`).

    Treat instances as immutable: operations return new states and never
    mutate a part in place, which keeps them safe to share across threads.
    A state of at most 4 qubits also keeps its unary kernels' results in a
    private memo (`_memoized`), so a state shared by many trials is padded,
    traced or measured once per distinct argument.  The memo holds only
    immutable results of immutable inputs, and it lives and dies with the
    state, so sharing it couples no two callers.
    """

    __slots__ = ("parts", "den", "layout", "_view", "_memo")

    def __init__(self, mat, layout, validate: bool = True):
        layout = _normalize_layout(layout)
        mat = np.asarray(mat)
        if mat.dtype == object:
            re, im, den = _numerators(mat)
            self._init((re, im), den, layout)
        else:
            self._init((mat.astype(np.complex128),), None, layout)
        if validate:
            _validate(self)

    def _init(self, parts, den, layout) -> None:
        self.parts = tuple(parts)
        self.den = den
        self.layout = layout
        self._view = None
        self._memo = None  # kernel results by (kernel, arguments), once first stored

    @classmethod
    def _of(cls, parts, den, layout: tuple[Register, ...]) -> "DensityMatrix":
        """Wrap kernel output as is: no copy, no validation, layout already normal."""
        state = object.__new__(cls)
        state._init(parts, den, layout)
        return state

    def _map(self, fn, layout: tuple[Register, ...] | None = None) -> "DensityMatrix":
        """Apply a linear map with real coefficients to every part."""
        parts = [fn(part) for part in self.parts]
        return DensityMatrix._of(parts, self.den, self.layout if layout is None else layout)

    @property
    def mat(self) -> np.ndarray:
        """The complex matrix, or a read-only `QRat` matrix of an exact state."""
        if self.den is None:
            return self.parts[0]
        if self._view is None:
            view = _qrat_matrix(*self.parts, self.den)
            view.flags.writeable = False
            self._view = view
        return self._view

    @property
    def exact(self) -> bool:
        return self.den is not None

    @property
    def dim(self) -> int:
        return self.parts[0].shape[0]

    @property
    def qubits(self) -> int:
        return sum(r.qubits for r in self.layout)

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(r.name for r in self.layout)

    def register(self, name: str) -> Register:
        for reg in self.layout:
            if reg.name == name:
                return reg
        raise LayoutError(f"unknown register {name!r}; have {self.names}")

    def has_register(self, name: str) -> bool:
        return any(r.name == name for r in self.layout)

    def to_float(self) -> "DensityMatrix":
        if not self.exact:
            return self
        # Int true division is correctly rounded, exactly as float(Fraction) is.
        re, im = self.parts
        out = np.empty(re.shape, dtype=np.complex128)
        out.real = re / self.den
        out.imag = im / self.den
        return DensityMatrix._of((out,), None, self.layout)

    def to_exact(self) -> "DensityMatrix":
        """Reinterpret float entries as exact rationals (entries must be exact)."""
        if self.exact:
            return self
        return DensityMatrix(self.mat.astype(object), self.layout)

    def __repr__(self):
        regs = ", ".join(f"{r.name}:{r.qubits}" for r in self.layout)
        mode = "exact" if self.exact else "float"
        return f"DensityMatrix([{regs}], dim={self.dim}, {mode})"


def _memoized(state: DensityMatrix, key: tuple, compute, *args):
    """`compute(*args)`, a unary kernel's result on `state`, kept on `state` by `key`.

    Only states of at most `_MEMO_MAX_DIM` dimensions keep results, at most
    `_MEMO_MAX_ENTRIES` each.  A call that raises stores nothing.  Callers
    must treat a kept result as immutable, as they treat every state.
    """
    memo = state._memo
    if memo is None:
        if state.parts[0].shape[0] > _MEMO_MAX_DIM:
            return compute(*args)
        memo = state._memo = {}
    else:
        hit = memo.get(key)
        if hit is not None:
            return hit
    result = compute(*args)
    if len(memo) < _MEMO_MAX_ENTRIES:
        memo[key] = result
    return result


# ---------------------------------------------------------------------------
# Constructors
# ---------------------------------------------------------------------------


def _zeros(layout, exact: bool) -> tuple[tuple[Register, ...], np.ndarray]:
    """The normalized `layout` and its zero matrix: numerators (Python ints) when
    exact, complex zeros otherwise.  The layout is checked before the matrix is built."""
    layout = _normalize_layout(layout)
    dim = 2 ** sum(r.qubits for r in layout)
    return layout, np.zeros((dim, dim), dtype=object if exact else np.complex128)


def _state(mat: np.ndarray, den: int, layout: tuple[Register, ...]) -> DensityMatrix:
    """Wrap a constructor's matrix; an exact one holds integer numerators over `den`."""
    if mat.dtype == object:
        return DensityMatrix._of((mat, np.zeros_like(mat)), den, layout)
    return DensityMatrix._of((mat,), None, layout)


def basis_state(bits: str, name: str = "M", exact: bool = False) -> DensityMatrix:
    """|bits><bits| on a register named `name`."""
    if not bits or not is_bitstring(bits):
        raise MalformedKeyError(f"basis label must be a nonempty 0/1 string, got {bits!r}")
    layout, mat = _zeros([(name, len(bits))], exact)
    idx = int(bits, 2)
    mat[idx, idx] = 1
    return _state(mat, 1, layout)


def maximally_mixed(qubits: int, name: str = "M", exact: bool = False) -> DensityMatrix:
    layout, mat = _zeros([(name, qubits)], exact)
    dim = mat.shape[0]
    np.fill_diagonal(mat, 1 if exact else 1.0 / dim)
    return _state(mat, dim, layout)


def bell_state(first: str = "M", second: str = "E", exact: bool = False) -> DensityMatrix:
    """The two-qubit state (|00> + |11>)/sqrt(2) as a density matrix."""
    layout, mat = _zeros([(first, 1), (second, 1)], exact)
    mat[np.ix_((0, 3), (0, 3))] = 1 if exact else 0.5
    return _state(mat, 2, layout)


def plus_state(name: str = "M", exact: bool = False) -> DensityMatrix:
    layout, mat = _zeros([(name, 1)], exact)
    mat[:, :] = 1 if exact else 0.5
    return _state(mat, 2, layout)


def minus_state(name: str = "M", exact: bool = False) -> DensityMatrix:
    layout, mat = _zeros([(name, 1)], exact)
    half = 1 if exact else 0.5
    mat[:, :] = [[half, -half], [-half, half]]
    return _state(mat, 2, layout)


def random_pure_state(qubits: int, rng: Stream, name: str = "M") -> DensityMatrix:
    layout = _normalize_layout([(name, qubits)])
    gen = rng.numpy()
    dim = 2**qubits
    vec = gen.normal(size=dim) + 1j * gen.normal(size=dim)
    vec /= np.linalg.norm(vec)
    return DensityMatrix(np.outer(vec, vec.conj()), layout, validate=False)


def random_mixed_state(qubits: int, rng: Stream, name: str = "M") -> DensityMatrix:
    """A mixture of three random pure states with random weights."""
    layout = _normalize_layout([(name, qubits)])
    gen = rng.numpy()
    dim = 2**qubits
    weights = gen.random(3)
    weights /= weights.sum()
    mat = np.zeros((dim, dim), dtype=np.complex128)
    for w in weights:
        vec = gen.normal(size=dim) + 1j * gen.normal(size=dim)
        vec /= np.linalg.norm(vec)
        mat += w * np.outer(vec, vec.conj())
    return DensityMatrix(mat, layout, validate=False)


# ---------------------------------------------------------------------------
# Pad operators
# ---------------------------------------------------------------------------


def _check_pad(key: str) -> None:
    if not isinstance(key, str) or not is_bitstring(key):
        raise MalformedKeyError(f"pad key must be a 0/1 string, got {key!r}")
    if len(key) == 0 or len(key) % 2 != 0:
        raise MalformedKeyError(f"pad key length must be a positive even number, got {len(key)}")


_SINGLE = {
    (0, 0): ((1, 0), (0, 1)),    # identity
    (1, 0): ((0, 1), (1, 0)),    # bit flip
    (0, 1): ((1, 0), (0, -1)),   # phase flip
    (1, 1): ((0, -1), (1, 0)),   # bit then phase flip, kept as the literal product
}


def pauli_from_key(key: str, exact: bool = False) -> np.ndarray:
    """The pad operator selected by a 2n-bit key.

    Qubit j is conjugated by X^a Z^b where (a, b) are the key bits at
    positions (2j-1, 2j).  The (1,1) case is the literal matrix product
    X @ Z, not its phase-normalized form; conjugation does not see the
    difference and the literal product keeps all entries in {0, +-1}.
    """
    _check_pad(key)
    factors = []
    for j in range(0, len(key), 2):
        entries = _SINGLE[(int(key[j]), int(key[j + 1]))]
        if exact:
            f = np.empty((2, 2), dtype=object)
            for r in range(2):
                for c in range(2):
                    f[r, c] = QRat(entries[r][c])
        else:
            f = np.array(entries, dtype=np.complex128)
        factors.append(f)
    out = factors[0]
    for f in factors[1:]:
        out = np.kron(out, f)
    return out


def pad_masks(key: str) -> tuple[int, int]:
    """The (X, Z) bit masks of a pad key, qubit 0 as the most significant bit."""
    if not isinstance(key, str):
        _check_pad(key)  # raises: the cache below takes str keys only
    return _str_pad_masks(key)


@lru_cache(maxsize=4096)
def _str_pad_masks(key: str) -> tuple[int, int]:
    _check_pad(key)  # a malformed key raises, and nothing is cached for it
    return int(key[0::2], 2), int(key[1::2], 2)


def _pad_frame(dim: int, x: int, z: int, exact: bool) -> tuple[np.ndarray, np.ndarray]:
    """Flat gather index and the signs of conjugation by X^x Z^z: +-1 ints
    (object dtype) for exact numerators, +-1.0 otherwise."""
    perm = np.arange(dim) ^ x
    parity = np.array([bin(i & z).count("1") % 2 for i in range(dim)], dtype=bool)
    index = perm[:, None] * dim + perm[None, :]
    flip = parity[:, None] ^ parity[None, :]
    sign = np.where(flip, -1, 1).astype(object) if exact else np.where(flip, -1.0, 1.0)
    index.flags.writeable = sign.flags.writeable = False
    return index, sign


# Frames of at most 4 qubits, by (dim, x, z, exact), with masks below dim:
# at most 2 * 16^2 per dimension, so the dict stays small.  A larger frame
# holds O(dim^2) arrays, about 1 MB at 8 qubits, and large states rarely
# meet the same pad twice, so it is built for its one call.
_pad_frames: dict = {}


def conjugate_by_masks(mat: np.ndarray, x: int, z: int) -> np.ndarray:
    """The matrix op @ mat @ op^dagger for op = X^x Z^z, as a signed permutation.

    Entry (i, k) of the result is (-1)^{z.i + z.k} mat[i^x, k^x], so the
    result holds the input's entries, some negated, and never a product.
    """
    dim, exact = mat.shape[0], mat.dtype == object
    frame = _pad_frames.get((dim, x, z, exact))
    if frame is None:
        frame = _pad_frame(dim, x, z, exact)
        if dim <= _MEMO_MAX_DIM and 0 <= x < dim and 0 <= z < dim:
            _pad_frames[dim, x, z, exact] = frame
    index, sign = frame
    out = mat.take(index)
    if exact:
        return out * sign  # int numerators times +-1: no rational arithmetic
    out *= sign
    return out


def apply_pauli(key: str, state: DensityMatrix, target: str | None = None) -> DensityMatrix:
    """Conjugate the target register (default: the whole state) by the pad.

    Applying the same key twice returns the input, since every pad
    operator squares to the identity up to a global phase.  Results for
    `str` keys are memoized on the state.
    """
    if not isinstance(key, str):
        _check_pad(key)  # raises: only str keys are memo keys
    return _memoized(state, ("pauli", key, target), _apply_pauli, key, state, target)


def _apply_pauli(key: str, state: DensityMatrix, target: str | None) -> DensityMatrix:
    x, z = pad_masks(key)
    if target is None:
        if len(key) != 2 * state.qubits:
            raise MalformedKeyError(
                f"pad of length {len(key)} cannot drive {state.qubits} qubits"
            )
        shift = 0
    else:
        reg = state.register(target)
        if len(key) != 2 * reg.qubits:
            raise MalformedKeyError(
                f"pad of length {len(key)} cannot drive register "
                f"{target!r} of {reg.qubits} qubits"
            )
        # Registers after the target hold the less significant bits.
        shift = sum(r.qubits for r in state.layout[state.names.index(target) + 1 :])
    x, z = x << shift, z << shift
    return state._map(lambda part: conjugate_by_masks(part, x, z))


def qotp_average(state: DensityMatrix) -> DensityMatrix:
    """Average the state over every pad key; equals the maximally mixed state."""
    n = state.qubits
    if n > MAX_EXHAUSTIVE_QUBITS:
        raise DimensionMismatchError(
            f"exhaustive pad average covers at most {MAX_EXHAUSTIVE_QUBITS} qubits, got {n}"
        )
    count = 2 ** (2 * n)
    masks = [pad_masks(format(k, f"0{2 * n}b")) for k in range(count)]
    totals = []
    for part in state.parts:
        total = np.zeros_like(part)
        for x, z in masks:
            total = total + conjugate_by_masks(part, x, z)
        totals.append(total)
    if state.exact:
        return DensityMatrix._of(totals, state.den * count, state.layout)
    return DensityMatrix._of([totals[0] * (1.0 / count)], None, state.layout)


# ---------------------------------------------------------------------------
# Composition and reduction
# ---------------------------------------------------------------------------


def _kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """`np.kron` of two matrices as one broadcast multiply and a reshape.

    Every entry is the same single product a[i, j] * b[k, l], so the
    result equals `np.kron` exactly, without its generic-rank set-up.
    """
    (m1, m2), (n1, n2) = a.shape, b.shape
    return (a[:, None, :, None] * b[None, :, None, :]).reshape(m1 * n1, m2 * n2)


def tensor(a: DensityMatrix, b: DensityMatrix) -> DensityMatrix:
    """Kronecker product with concatenated register layout."""
    if a.exact != b.exact:
        raise ExactModeError("cannot tensor an exact state with a float state")
    layout = _normalize_layout(a.layout + b.layout)  # rejects name collisions and size
    if a.exact:
        (a_re, a_im), (b_re, b_im) = a.parts, b.parts
        re = _kron(a_re, b_re) - _kron(a_im, b_im)
        im = _kron(a_re, b_im) + _kron(a_im, b_re)
        return DensityMatrix._of((re, im), a.den * b.den, layout)
    return DensityMatrix._of((_kron(a.mat, b.mat),), None, layout)


def _index_bits(index: int, qubits: int) -> str:
    return format(index, f"0{qubits}b") if qubits else ""


class _Split(NamedTuple):
    """How to view a part as (T, R, T, R), the target registers in front."""

    shape: tuple[int, ...]  # register dimensions, twice (row and column)
    axes: tuple[int, ...]  # targets first, then the rest; rows, then columns
    t_dim: int
    r_dim: int
    rest_layout: tuple[Register, ...]
    t_qubits: int
    labels: tuple[str, ...]  # outcome bits of each target index

    def __call__(self, part: np.ndarray) -> np.ndarray:
        arr = part.reshape(self.shape).transpose(self.axes)
        return arr.reshape(self.t_dim, self.r_dim, self.t_dim, self.r_dim)

    def diagonal(self, part: np.ndarray) -> np.ndarray:
        """The diagonal of a part as (T, R)."""
        k = len(self.shape) // 2
        arr = part.diagonal().reshape(self.shape[:k]).transpose(self.axes[:k])
        return arr.reshape(self.t_dim, self.r_dim)


def _split_targets(state: DensityMatrix, targets: tuple[str, ...]) -> _Split:
    return _split_layout(state.layout, tuple(targets))


@lru_cache(maxsize=1024)
def _split_layout(layout: tuple[Register, ...], targets: tuple[str, ...]) -> _Split:
    names = [r.name for r in layout]
    for t in targets:
        if t not in names:
            raise LayoutError(f"unknown register {t!r}; have {tuple(names)}")
    if len(set(targets)) != len(targets):
        raise LayoutError(f"repeated register in {targets}")
    t_pos = [names.index(t) for t in targets]
    r_pos = [i for i in range(len(names)) if i not in t_pos]
    dims = [2**r.qubits for r in layout]
    perm = t_pos + r_pos
    t_dim = math.prod(dims[i] for i in t_pos)
    t_qubits = sum(layout[i].qubits for i in t_pos)
    return _Split(
        shape=tuple(dims + dims),
        axes=(*perm, *[len(dims) + i for i in perm]),
        t_dim=t_dim,
        r_dim=math.prod(dims) // t_dim,
        rest_layout=tuple(layout[i] for i in r_pos),
        t_qubits=t_qubits,
        labels=tuple(_index_bits(t, t_qubits) for t in range(t_dim)),
    )


def _as_names(targets) -> tuple[str, ...]:
    if isinstance(targets, str):
        return (targets,)
    return tuple(targets)


def partial_trace(state: DensityMatrix, drop) -> DensityMatrix:
    """Trace out the named register(s), keeping the rest in layout order."""
    targets = _as_names(drop)
    if not targets:
        return state
    return _memoized(state, ("trace", targets), _partial_trace, state, targets)


def _partial_trace(state: DensityMatrix, targets: tuple[str, ...]) -> DensityMatrix:
    split = _split_targets(state, targets)

    def trace_out(part: np.ndarray) -> np.ndarray:
        arr = split(part)
        out = np.zeros((split.r_dim, split.r_dim), dtype=part.dtype)
        for t in range(split.t_dim):
            out = out + arr[t, :, t, :]
        return out

    return state._map(trace_out, split.rest_layout)


def measurement_distribution(state: DensityMatrix, targets) -> dict:
    """Exact computational-basis outcome probabilities for the target registers.

    Keys are the concatenated outcome bits in the order the targets were
    given; values are Fractions for exact states, floats otherwise.  The
    distribution is memoized on the state, and each call returns a fresh
    dict.
    """
    names = _as_names(targets)
    return dict(_memoized(state, ("distribution", names), _distribution, state, names))


def _distribution(state: DensityMatrix, names: tuple[str, ...]) -> dict:
    split = _split_targets(state, names)
    if state.exact:
        # Outcome t weighs the sum of the diagonal numerators in block (t, t).
        sums = split.diagonal(state.parts[0]).sum(axis=1)
        if sum(sums) != state.den:
            raise MeasurementError(
                f"outcome probabilities sum to {Fraction(sum(sums), state.den)}"
            )
        return {label: Fraction(s, state.den) for label, s in zip(split.labels, sums)}
    dist = {}
    # Left to right from 0.0, as Python floats: `sum` compensates on 3.12+.
    for label, row in zip(split.labels, split.diagonal(state.mat).real.tolist()):
        p = 0.0
        for v in row:
            p += v
        dist[label] = max(p, 0.0)
    total = sum(dist.values())
    if abs(total - 1.0) > TOL_PSD:
        raise MeasurementError(f"outcome probabilities sum to {total}")
    return dist


def measure_computational(
    state: DensityMatrix, target, rng: Stream
) -> tuple[str, DensityMatrix]:
    """Sample an outcome for the target register(s) and project the state."""
    names = _as_names(target)
    dist = measurement_distribution(state, names)
    outcomes = sorted(dist)
    r = rng.uniform()
    acc = 0.0
    outcome = outcomes[-1]
    for o in outcomes:
        acc += float(dist[o])
        if r < acc:
            outcome = o
            break
    p = dist[outcome]
    if float(p) <= 0.0:
        raise MeasurementError(f"sampled outcome {outcome} has probability zero")

    split = _split_targets(state, names)
    t = int(outcome, 2) if outcome else 0
    blocks = [split(part)[t, :, t, :] for part in state.parts]
    if state.exact:
        den = blocks[0].trace()  # the block over its own trace, p * state.den
    else:
        den = None
        blocks = [blocks[0] * (1.0 / p)]
    # Rebuild the projected matrix in the permuted basis, then wrap it with
    # the permuted layout: target registers first, the rest in order.
    size = split.t_dim * split.r_dim
    lo, hi = t * split.r_dim, (t + 1) * split.r_dim
    parts = []
    for block in blocks:
        proj = np.zeros((size, size), dtype=block.dtype)
        proj[lo:hi, lo:hi] = block
        parts.append(proj)
    new_layout = tuple(state.register(n) for n in names) + split.rest_layout
    return outcome, DensityMatrix._of(parts, den, new_layout)


def measure_registers_into(
    state: DensityMatrix,
    targets,
    fn: Callable[[str], str],
    out_name: str = "OUT",
    out_qubits: int = 1,
) -> DensityMatrix:
    """Measure registers and record a classical function of the outcome.

    Realizes the channel that measures `targets` in the computational
    basis, discards them, and writes |fn(outcome)> into a fresh register,
    while leaving every other register untouched.  Correlations between
    the outcome and the untouched registers survive, which is what lets a
    downstream test compare the recorded value against a held-out register.
    """
    names = _as_names(targets)
    split = _split_targets(state, names)
    if any(r.name == out_name for r in split.rest_layout):
        raise LayoutError(f"output register {out_name!r} collides with an existing one")
    layout = _normalize_layout((Register(out_name, out_qubits),) + split.rest_layout)
    labels = []
    for t in range(split.t_dim):
        label = fn(split.labels[t])
        if len(label) != out_qubits or not is_bitstring(label):
            raise MalformedKeyError(
                f"outcome function returned {label!r}, expected {out_qubits} bits"
            )
        labels.append(int(label, 2))
    r_dim = split.r_dim

    def record(part: np.ndarray) -> np.ndarray:
        arr = split(part)
        total = np.zeros((2**out_qubits * r_dim,) * 2, dtype=part.dtype)
        for t, e in enumerate(labels):
            lo, hi = e * r_dim, (e + 1) * r_dim
            total[lo:hi, lo:hi] = total[lo:hi, lo:hi] + arr[t, :, t, :]
        return total

    return state._map(record, layout)


def rename_register(state: DensityMatrix, old: str, new: str) -> DensityMatrix:
    return _memoized(state, ("rename", old, new), _rename_register, state, old, new)


def _rename_register(state: DensityMatrix, old: str, new: str) -> DensityMatrix:
    state.register(old)
    if old != new and state.has_register(new):
        raise LayoutError(f"register {new!r} already exists")
    layout = tuple(
        Register(new, r.qubits) if r.name == old else r for r in state.layout
    )
    return DensityMatrix._of(state.parts, state.den, layout)


def replace_with_zero_state(state: DensityMatrix, name: str) -> DensityMatrix:
    """Swap the named register for a fresh all-zeros basis state (placed first)."""
    return _memoized(state, ("zero", name), _replace_with_zero_state, state, name)


def _replace_with_zero_state(state: DensityMatrix, name: str) -> DensityMatrix:
    reg = state.register(name)
    rest = partial_trace(state, name)
    zero = basis_state("0" * reg.qubits, name, exact=state.exact)
    return tensor(zero, rest)


# ---------------------------------------------------------------------------
# Distances
# ---------------------------------------------------------------------------


def _trace_distance_raw(a: np.ndarray, b: np.ndarray) -> float:
    eig = np.linalg.eigvalsh(a - b)
    return float(min(max(0.5 * np.sum(np.abs(eig)), 0.0), 1.0))


def trace_distance(a: DensityMatrix, b: DensityMatrix) -> float:
    """Half the trace norm of the difference; 0 iff equal, 1 iff orthogonal."""
    if a.dim != b.dim:
        raise DimensionMismatchError(f"dimension mismatch: {a.dim} vs {b.dim}")
    return _trace_distance_raw(a.to_float().mat, b.to_float().mat)


def channel_choi_distance(
    channel: Callable[[np.ndarray], np.ndarray],
    reference: Callable[[np.ndarray], np.ndarray],
    qubits: int,
) -> float:
    """Trace distance between the Choi states of two channels on n qubits.

    Channels are given as linear maps on raw (2^n, 2^n) complex matrices;
    each is applied to one half of a maximally entangled 2n-qubit state
    (assembled matrix-unit by matrix-unit, which is the same thing by
    linearity).  The result is zero iff the channels are equal.
    """
    dim = 2**qubits

    def choi(mapper) -> np.ndarray:
        out = np.zeros((dim * dim, dim * dim), dtype=np.complex128)
        for x in range(dim):
            for y in range(dim):
                unit = np.zeros((dim, dim), dtype=np.complex128)
                unit[x, y] = 1.0
                image = np.asarray(mapper(unit), dtype=np.complex128)
                if image.shape != (dim, dim):
                    raise DimensionMismatchError(
                        f"channel output shape {image.shape}, expected {(dim, dim)}"
                    )
                out[x::dim, y::dim] += image
        return out / dim

    return _trace_distance_raw(choi(channel), choi(reference))
