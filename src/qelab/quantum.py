"""Dense small-dimension quantum state arithmetic.

States are density matrices over an ordered list of *named registers*;
every multi-register operation addresses registers by name, so callers
never juggle qubit indices.  Two scalar backends share one code path:

* float mode: complex128 matrices, invariants checked to `TOL_PSD`;
* exact mode: object matrices of `QRat` (Gaussian rationals), used by the
  enumeration-mode security games so probabilities come out as Fractions.

Conventions: registers appear in layout order, the first qubit of a
register is the most significant bit of its basis index, and a pad
bitstring drives qubit j with bits (2j-1, 2j) -> (X exponent, Z exponent).

Pad conjugation never builds the pad operator.  A pad is an X mask x and
a Z mask z over the basis-index bits, and conjugation by X^x Z^z is the
signed permutation rho'[i, k] = (-1)^{z.i + z.k} rho[i^x, k^x] (the
Pauli-frame view of stabilizer simulation: Aaronson and Gottesman,
quant-ph/0406196).  Both backends share that kernel; in exact mode it
moves `QRat` entries and negates some, so it does no rational arithmetic.
"""

from __future__ import annotations

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
)
from .rationals import QRat, as_fraction
from .rng import Stream

TOL_PSD = 1e-9        # invariant checks (hermiticity, trace, positivity)
TOL_ALGEBRA = 1e-10   # algebraic identities (involutions, mixing, round trips)
MAX_EXHAUSTIVE_QUBITS = 3


class Register(NamedTuple):
    name: str
    qubits: int


def _normalize_layout(layout) -> tuple[Register, ...]:
    regs = []
    seen = set()
    for item in layout:
        reg = Register(str(item[0]), int(item[1]))
        if reg.qubits < 1:
            raise LayoutError(f"register {reg.name!r} must hold at least one qubit")
        if reg.name in seen:
            raise LayoutError(f"duplicate register name {reg.name!r}")
        seen.add(reg.name)
        regs.append(reg)
    return tuple(regs)


def _validate(mat: np.ndarray, layout: tuple[Register, ...], exact: bool) -> None:
    qubits = sum(r.qubits for r in layout)
    dim = 2**qubits
    if mat.shape != (dim, dim):
        raise LayoutError(
            f"matrix shape {mat.shape} does not match layout of {qubits} qubits"
        )
    if exact:
        trace = sum((as_fraction(mat[i, i]) for i in range(dim)), Fraction(0))
        if trace != 1:
            raise LayoutError(f"exact state has trace {trace}, expected 1")
        for i in range(dim):
            for j in range(i, dim):
                a = mat[i, j] if isinstance(mat[i, j], QRat) else QRat(mat[i, j])
                b = mat[j, i] if isinstance(mat[j, i], QRat) else QRat(mat[j, i])
                if a.conjugate() != b:
                    raise LayoutError("exact state is not Hermitian")
        return
    if abs(np.trace(mat) - 1.0) > TOL_PSD:
        raise LayoutError(f"state has trace {np.trace(mat)}, expected 1")
    if np.max(np.abs(mat - mat.conj().T)) > TOL_PSD:
        raise LayoutError("state is not Hermitian within tolerance")
    eigmin = float(np.linalg.eigvalsh(mat).min())
    if eigmin < -TOL_PSD:
        raise LayoutError(f"state has negative eigenvalue {eigmin}")


class DensityMatrix:
    """A positive unit-trace operator over named registers.

    Treat instances as immutable: operations return new states and never
    mutate `mat` in place, which keeps them safe to share across threads.
    """

    __slots__ = ("mat", "layout")

    def __init__(self, mat, layout, validate: bool = True):
        layout = _normalize_layout(layout)
        mat = np.asarray(mat)
        if mat.dtype != object:
            mat = mat.astype(np.complex128)
        if validate:
            _validate(mat, layout, mat.dtype == object)
        self.mat = mat
        self.layout = layout

    @property
    def exact(self) -> bool:
        return self.mat.dtype == object

    @property
    def dim(self) -> int:
        return self.mat.shape[0]

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
        out = np.array(
            [[complex(v) for v in row] for row in self.mat], dtype=np.complex128
        )
        return DensityMatrix(out, self.layout, validate=False)

    def to_exact(self) -> "DensityMatrix":
        """Reinterpret float entries as exact rationals (entries must be exact)."""
        if self.exact:
            return self
        out = np.empty(self.mat.shape, dtype=object)
        for i in range(self.dim):
            for j in range(self.dim):
                v = self.mat[i, j]
                out[i, j] = QRat(Fraction(v.real), Fraction(v.imag))
        return DensityMatrix(out, self.layout)

    def __repr__(self):
        regs = ", ".join(f"{r.name}:{r.qubits}" for r in self.layout)
        mode = "exact" if self.exact else "float"
        return f"DensityMatrix([{regs}], dim={self.dim}, {mode})"


def density_matrix(mat, layout) -> DensityMatrix:
    """Validate and wrap a raw matrix as a state."""
    return DensityMatrix(mat, layout)


# ---------------------------------------------------------------------------
# Constructors
# ---------------------------------------------------------------------------


def _zeros(dim: int, exact: bool) -> np.ndarray:
    if exact:
        out = np.empty((dim, dim), dtype=object)
        out[:, :] = QRat(0)
        return out
    return np.zeros((dim, dim), dtype=np.complex128)


def _identity(dim: int, exact: bool) -> np.ndarray:
    out = _zeros(dim, exact)
    for i in range(dim):
        out[i, i] = QRat(1) if exact else 1.0
    return out


def basis_state(bits: str, name: str = "M", exact: bool = False) -> DensityMatrix:
    """|bits><bits| on a register named `name`."""
    if not bits or any(b not in "01" for b in bits):
        raise MalformedKeyError(f"basis label must be a nonempty 0/1 string, got {bits!r}")
    dim = 2 ** len(bits)
    idx = int(bits, 2)
    mat = _zeros(dim, exact)
    mat[idx, idx] = QRat(1) if exact else 1.0
    return DensityMatrix(mat, [(name, len(bits))], validate=False)


def maximally_mixed(qubits: int, name: str = "M", exact: bool = False) -> DensityMatrix:
    dim = 2**qubits
    mat = _zeros(dim, exact)
    for i in range(dim):
        mat[i, i] = QRat(Fraction(1, dim)) if exact else 1.0 / dim
    return DensityMatrix(mat, [(name, qubits)], validate=False)


def bell_state(first: str = "M", second: str = "E", exact: bool = False) -> DensityMatrix:
    """The two-qubit state (|00> + |11>)/sqrt(2) as a density matrix."""
    mat = _zeros(4, exact)
    half = QRat(Fraction(1, 2)) if exact else 0.5
    for i in (0, 3):
        for j in (0, 3):
            mat[i, j] = half
    return DensityMatrix(mat, [(first, 1), (second, 1)], validate=False)


def plus_state(name: str = "M", exact: bool = False) -> DensityMatrix:
    mat = _zeros(2, exact)
    half = QRat(Fraction(1, 2)) if exact else 0.5
    mat[:, :] = half
    return DensityMatrix(mat, [(name, 1)], validate=False)


def minus_state(name: str = "M", exact: bool = False) -> DensityMatrix:
    mat = _zeros(2, exact)
    half = QRat(Fraction(1, 2)) if exact else 0.5
    neg = -half
    mat[0, 0] = half
    mat[1, 1] = half
    mat[0, 1] = neg
    mat[1, 0] = neg
    return DensityMatrix(mat, [(name, 1)], validate=False)


def scalar_state(exact: bool = False) -> DensityMatrix:
    """The empty (zero-register) state; identity element for `tensor`."""
    mat = _identity(1, exact)
    return DensityMatrix(mat, [], validate=False)


def random_pure_state(qubits: int, rng: Stream, name: str = "M") -> DensityMatrix:
    gen = rng.numpy()
    dim = 2**qubits
    vec = gen.normal(size=dim) + 1j * gen.normal(size=dim)
    vec /= np.linalg.norm(vec)
    return DensityMatrix(np.outer(vec, vec.conj()), [(name, qubits)], validate=False)


def random_mixed_state(
    qubits: int, rng: Stream, name: str = "M", components: int = 3
) -> DensityMatrix:
    gen = rng.numpy()
    dim = 2**qubits
    weights = gen.random(components)
    weights /= weights.sum()
    mat = np.zeros((dim, dim), dtype=np.complex128)
    for w in weights:
        vec = gen.normal(size=dim) + 1j * gen.normal(size=dim)
        vec /= np.linalg.norm(vec)
        mat += w * np.outer(vec, vec.conj())
    return DensityMatrix(mat, [(name, qubits)], validate=False)


# ---------------------------------------------------------------------------
# Pad operators
# ---------------------------------------------------------------------------


def _check_pad(key: str) -> None:
    if not isinstance(key, str) or any(b not in "01" for b in key):
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
    _check_pad(key)
    return int(key[0::2], 2), int(key[1::2], 2)


@lru_cache(maxsize=256)
def _pad_frame(dim: int, x: int, z: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Flat gather index, sign-flip mask and +-1.0 signs of conjugation by X^x Z^z."""
    perm = np.arange(dim) ^ x
    parity = np.array([bin(i & z).count("1") % 2 for i in range(dim)], dtype=bool)
    index = perm[:, None] * dim + perm[None, :]
    flip = parity[:, None] ^ parity[None, :]
    sign = np.where(flip, -1.0, 1.0)
    for arr in (index, flip, sign):
        arr.flags.writeable = False
    return index, flip, sign


def conjugate_by_masks(mat: np.ndarray, x: int, z: int) -> np.ndarray:
    """The matrix op @ mat @ op^dagger for op = X^x Z^z, as a signed permutation.

    Entry (i, k) of the result is (-1)^{z.i + z.k} mat[i^x, k^x], so the
    result holds the input's entries, some negated, and never a product.
    """
    index, flip, sign = _pad_frame(mat.shape[0], x, z)
    out = mat.take(index)
    if out.dtype == object:
        out[flip] = -out[flip]  # negate only the flipped QRat entries
    else:
        out *= sign
    return out


def apply_pauli(key: str, state: DensityMatrix, target: str | None = None) -> DensityMatrix:
    """Conjugate the target register (default: the whole state) by the pad.

    Applying the same key twice returns the input, since every pad
    operator squares to the identity up to a global phase.
    """
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
    out = conjugate_by_masks(state.mat, x << shift, z << shift)
    return DensityMatrix(out, state.layout, validate=False)


def qotp_average(
    state: DensityMatrix, max_qubits: int = MAX_EXHAUSTIVE_QUBITS
) -> DensityMatrix:
    """Average the state over every pad key; equals the maximally mixed state."""
    n = state.qubits
    if n > max_qubits:
        raise DimensionMismatchError(
            f"exhaustive pad average covers at most {max_qubits} qubits, got {n}"
        )
    total = _zeros(state.dim, state.exact)
    count = 2 ** (2 * n)
    for k in range(count):
        x, z = pad_masks(format(k, f"0{2 * n}b"))
        total = total + conjugate_by_masks(state.mat, x, z)
    if state.exact:
        weight = QRat(Fraction(1, count))
    else:
        weight = 1.0 / count
    return DensityMatrix(total * weight, state.layout, validate=False)


# ---------------------------------------------------------------------------
# Composition and reduction
# ---------------------------------------------------------------------------


def tensor(a: DensityMatrix, b: DensityMatrix) -> DensityMatrix:
    """Kronecker product with concatenated register layout."""
    if a.exact != b.exact:
        raise ExactModeError("cannot tensor an exact state with a float state")
    if a.qubits == 0:
        return DensityMatrix(b.mat * a.mat[0, 0], b.layout, validate=False)
    if b.qubits == 0:
        return DensityMatrix(a.mat * b.mat[0, 0], a.layout, validate=False)
    layout = _normalize_layout(a.layout + b.layout)  # rejects name collisions
    return DensityMatrix(np.kron(a.mat, b.mat), layout, validate=False)


def _split_targets(state: DensityMatrix, targets: tuple[str, ...]):
    """Reshape to (T, R, T, R) with the target registers moved in front."""
    names = list(state.names)
    for t in targets:
        if t not in names:
            raise LayoutError(f"unknown register {t!r}; have {state.names}")
    if len(set(targets)) != len(targets):
        raise LayoutError(f"repeated register in {targets}")
    t_pos = [names.index(t) for t in targets]
    r_pos = [i for i in range(len(names)) if i not in t_pos]
    dims = [2**r.qubits for r in state.layout]
    k = len(dims)
    arr = state.mat.reshape(dims + dims)
    perm = t_pos + r_pos
    arr = arr.transpose([*perm, *[k + i for i in perm]])
    t_dim = 1
    for i in t_pos:
        t_dim *= dims[i]
    r_dim = state.dim // t_dim
    arr = arr.reshape(t_dim, r_dim, t_dim, r_dim)
    rest_layout = tuple(state.layout[i] for i in r_pos)
    t_qubits = sum(state.layout[i].qubits for i in t_pos)
    return arr, t_dim, r_dim, rest_layout, t_qubits


def _as_names(targets) -> tuple[str, ...]:
    if isinstance(targets, str):
        return (targets,)
    return tuple(targets)


def partial_trace(state: DensityMatrix, drop) -> DensityMatrix:
    """Trace out the named register(s), keeping the rest in layout order."""
    targets = _as_names(drop)
    if not targets:
        return state
    arr, t_dim, r_dim, rest_layout, _ = _split_targets(state, targets)
    out = _zeros(r_dim, state.exact)
    for t in range(t_dim):
        out = out + arr[t, :, t, :]
    return DensityMatrix(out, rest_layout, validate=False)


def _index_bits(index: int, qubits: int) -> str:
    return format(index, f"0{qubits}b") if qubits else ""


def measurement_distribution(state: DensityMatrix, targets) -> dict:
    """Exact computational-basis outcome probabilities for the target registers.

    Keys are the concatenated outcome bits in the order the targets were
    given; values are Fractions for exact states, floats otherwise.
    """
    names = _as_names(targets)
    arr, t_dim, r_dim, _, t_qubits = _split_targets(state, names)
    dist = {}
    for t in range(t_dim):
        if state.exact:
            p = Fraction(0)
            for j in range(r_dim):
                p += as_fraction(arr[t, j, t, j])
        else:
            p = 0.0
            for j in range(r_dim):
                p += arr[t, j, t, j].real
            p = float(max(p, 0.0))
        dist[_index_bits(t, t_qubits)] = p
    total = sum(dist.values())
    if state.exact:
        if total != 1:
            raise MeasurementError(f"outcome probabilities sum to {total}")
    elif abs(total - 1.0) > TOL_PSD:
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

    arr, t_dim, r_dim, rest_layout, _ = _split_targets(state, names)
    t = int(outcome, 2) if outcome else 0
    # Rebuild the projected matrix in the permuted basis, then wrap it with
    # the permuted layout: target registers first, the rest in order.
    proj = _zeros(t_dim * r_dim, state.exact)
    block = arr[t, :, t, :]
    if state.exact:
        scale = QRat(1 / p)
    else:
        scale = 1.0 / p
    lo = t * r_dim
    proj[lo : lo + r_dim, lo : lo + r_dim] = block * scale
    new_layout = tuple(state.register(n) for n in names) + rest_layout
    post = DensityMatrix(proj, new_layout, validate=False)
    return outcome, post


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
    arr, t_dim, r_dim, rest_layout, t_qubits = _split_targets(state, names)
    if any(r.name == out_name for r in rest_layout):
        raise LayoutError(f"output register {out_name!r} collides with an existing one")
    out_dim = 2**out_qubits
    total = _zeros(out_dim * r_dim, state.exact)
    for t in range(t_dim):
        label = fn(_index_bits(t, t_qubits))
        if len(label) != out_qubits or any(b not in "01" for b in label):
            raise MalformedKeyError(
                f"outcome function returned {label!r}, expected {out_qubits} bits"
            )
        e = int(label, 2)
        block = arr[t, :, t, :]
        lo = e * r_dim
        total[lo : lo + r_dim, lo : lo + r_dim] = (
            total[lo : lo + r_dim, lo : lo + r_dim] + block
        )
    layout = (Register(out_name, out_qubits),) + rest_layout
    return DensityMatrix(total, layout, validate=False)


def rename_register(state: DensityMatrix, old: str, new: str) -> DensityMatrix:
    state.register(old)
    if old != new and state.has_register(new):
        raise LayoutError(f"register {new!r} already exists")
    layout = tuple(
        Register(new, r.qubits) if r.name == old else r for r in state.layout
    )
    return DensityMatrix(state.mat, layout, validate=False)


def replace_with_zero_state(state: DensityMatrix, name: str) -> DensityMatrix:
    """Swap the named register for a fresh all-zeros basis state (placed first)."""
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
                out += np.kron(image, unit)
        return out / dim

    return _trace_distance_raw(choi(channel), choi(reference))


def states_close(a: DensityMatrix, b: DensityMatrix, tol: float = TOL_ALGEBRA) -> bool:
    return trace_distance(a, b) <= tol
