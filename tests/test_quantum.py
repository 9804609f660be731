import itertools
import sys
import threading
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qelab.errors import (
    DimensionMismatchError,
    ExactModeError,
    LayoutError,
    MalformedKeyError,
    MeasurementError,
    ParameterError,
)
from qelab import quantum
from qelab.quantum import (
    MAX_STATE_QUBITS,
    TOL_ALGEBRA,
    _kron,
    _trace_distance_raw,
    DensityMatrix,
    apply_pauli,
    basis_state,
    bell_state,
    channel_choi_distance,
    maximally_mixed,
    measure_computational,
    measure_registers_into,
    measurement_distribution,
    minus_state,
    partial_trace,
    pauli_from_key,
    plus_state,
    qotp_average,
    random_mixed_state,
    random_pure_state,
    rename_register,
    replace_with_zero_state,
    tensor,
    trace_distance,
)
from qelab.rationals import QRat
from qelab.rng import Stream


def key_strings(n_qubits):
    return st.integers(0, 4**n_qubits - 1).map(
        lambda v: format(v, f"0{2 * n_qubits}b")
    )


# ---------------------------------------------------------------------------
# Pad operators
# ---------------------------------------------------------------------------


def test_pauli_identity_key():
    assert np.allclose(pauli_from_key("00"), np.eye(2))


def test_pauli_bit_flip():
    # key bits (1, 0) select the X factor
    assert np.allclose(pauli_from_key("10"), np.array([[0, 1], [1, 0]]))


def test_pauli_combined_is_literal_product():
    # X @ Z multiplied by hand: [[0,-1],[1,0]]
    assert np.allclose(pauli_from_key("11"), np.array([[0, -1], [1, 0]]))
    assert np.allclose(pauli_from_key("01"), np.array([[1, 0], [0, -1]]))


def test_pauli_odd_key_rejected():
    with pytest.raises(MalformedKeyError):
        pauli_from_key("101")
    with pytest.raises(MalformedKeyError):
        pauli_from_key("")
    with pytest.raises(MalformedKeyError):
        pauli_from_key("1x")


@settings(max_examples=40, deadline=None)
@given(key_strings(2))
def test_pauli_squares_to_identity_up_to_phase(key):
    op = pauli_from_key(key)
    sq = op @ op
    eye = np.eye(sq.shape[0])
    assert min(np.max(np.abs(sq - eye)), np.max(np.abs(sq + eye))) < 1e-10


@settings(max_examples=40, deadline=None)
@given(key_strings(2))
def test_pauli_unitary(key):
    op = pauli_from_key(key)
    assert np.max(np.abs(op @ op.conj().T - np.eye(op.shape[0]))) < 1e-10


def test_apply_pauli_identity_and_flip():
    rho = random_mixed_state(1, Stream(1))
    assert trace_distance(apply_pauli("00", rho), rho) < TOL_ALGEBRA
    flipped = apply_pauli("10", basis_state("0"))
    assert trace_distance(flipped, basis_state("1")) < TOL_ALGEBRA


def test_apply_pauli_phase_flip_on_plus():
    assert trace_distance(apply_pauli("01", plus_state()), minus_state()) < TOL_ALGEBRA


@settings(max_examples=30, deadline=None)
@given(key_strings(2), st.integers(0, 2**31 - 1))
def test_apply_pauli_involution(key, seed):
    rho = random_mixed_state(2, Stream(seed))
    assert trace_distance(apply_pauli(key, apply_pauli(key, rho)), rho) < TOL_ALGEBRA


def test_apply_pauli_targets_only_named_register():
    joint = tensor(basis_state("0", "M"), basis_state("0", "E"))
    out = apply_pauli("10", joint, "M")
    assert measurement_distribution(out, "M") == {"0": 0.0, "1": 1.0}
    assert measurement_distribution(out, "E") == {"0": 1.0, "1": 0.0}


def test_apply_pauli_errors():
    joint = tensor(basis_state("0", "M"), basis_state("0", "E"))
    with pytest.raises(MalformedKeyError):
        apply_pauli("1011", joint, "M")  # size mismatch for a 1-qubit register
    with pytest.raises(LayoutError):
        apply_pauli("10", joint, "X")  # unknown register
    with pytest.raises(MalformedKeyError):
        apply_pauli("10", joint)  # whole-state pad must cover 2 qubits


# ---------------------------------------------------------------------------
# Pad averaging
# ---------------------------------------------------------------------------


def test_average_of_single_qubit_pads_mixes():
    out = qotp_average(basis_state("0"))
    assert trace_distance(out, maximally_mixed(1)) < TOL_ALGEBRA


def test_average_fixes_maximally_mixed():
    for n in (1, 2):
        out = qotp_average(maximally_mixed(n))
        assert trace_distance(out, maximally_mixed(n)) < TOL_ALGEBRA


def test_average_on_bell_matches_independent_enumeration():
    # Independent oracle: assemble all 16 two-qubit pads from single-qubit
    # factors by hand and average the conjugations.
    single = {
        (0, 0): np.eye(2),
        (1, 0): np.array([[0, 1], [1, 0]], dtype=complex),
        (0, 1): np.array([[1, 0], [0, -1]], dtype=complex),
        (1, 1): np.array([[0, -1], [1, 0]], dtype=complex),
    }
    rho = bell_state().mat
    total = np.zeros((4, 4), dtype=complex)
    for b1, b2, b3, b4 in itertools.product((0, 1), repeat=4):
        op = np.kron(single[(b1, b2)], single[(b3, b4)])
        total += op @ rho @ op.conj().T
    total /= 16
    assert np.max(np.abs(total - np.eye(4) / 4)) < 1e-12
    lib = qotp_average(bell_state())
    assert np.max(np.abs(lib.mat - total)) < 1e-12


def test_average_exhaustive_cap():
    with pytest.raises(DimensionMismatchError):
        qotp_average(maximally_mixed(4))


def test_a_state_above_the_size_cap_is_refused_before_its_matrix(monkeypatch):
    # The cap itself is admitted, by a constructor and by `tensor`.
    assert maximally_mixed(MAX_STATE_QUBITS).qubits == MAX_STATE_QUBITS
    fits = basis_state("0" * (MAX_STATE_QUBITS - 1), "A")
    assert tensor(fits, basis_state("1", "B")).qubits == MAX_STATE_QUBITS
    fits_exact = basis_state("0" * (MAX_STATE_QUBITS - 1), "A", exact=True)
    pair, pair_exact = basis_state("00", "B"), basis_state("00", "B", exact=True)
    one = basis_state("1", "C")

    def no_matrix(*args, **kwargs):
        raise AssertionError("a matrix was built above the cap")

    for module, name in ((np, "zeros"), (np, "outer"), (quantum, "_kron")):
        monkeypatch.setattr(module, name, no_matrix)
    big = MAX_STATE_QUBITS + 1
    refusals = [
        lambda: basis_state("0" * big),
        lambda: basis_state("1" * big, exact=True),
        lambda: maximally_mixed(big),
        lambda: random_pure_state(big, Stream(1)),
        lambda: random_mixed_state(big, Stream(1)),
        lambda: tensor(fits, pair),
        lambda: tensor(fits_exact, pair_exact),
        lambda: measure_registers_into(one, ["C"], lambda outcome: "0" * big, "OUT", big),
    ]
    for build in refusals:
        with pytest.raises(ParameterError, match=f"at most {MAX_STATE_QUBITS} qubits, got {big}"):
            build()


def test_average_exact_mode_is_rational():
    out = qotp_average(basis_state("0", exact=True))
    from qelab.rationals import as_fraction

    assert [as_fraction(v) for v in np.diag(out.mat)] == [Fraction(1, 2)] * 2


# ---------------------------------------------------------------------------
# Signed-permutation kernel against the dense operator product
# ---------------------------------------------------------------------------


def _eye(dim, exact):
    if exact:
        return np.array([[QRat(int(i == j)) for j in range(dim)] for i in range(dim)],
                        dtype=object)
    return np.eye(dim, dtype=complex)


def _dense_pad(key, layout, target, exact):
    """1 (x) P (x) 1 on the whole space, P built by `pauli_from_key`."""
    op = pauli_from_key(key, exact)
    if target is None:
        return op
    names = [r.name for r in layout]
    i = names.index(target)
    before = 2 ** sum(r.qubits for r in layout[:i])
    after = 2 ** sum(r.qubits for r in layout[i + 1 :])
    return np.kron(np.kron(_eye(before, exact), op), _eye(after, exact))


def _dense_apply(key, state, target=None):
    op = _dense_pad(key, state.layout, target, state.exact)
    return op @ state.mat @ op.conj().T


def _dense_average(state):
    n = state.qubits
    total = 0 * _eye(state.dim, state.exact)
    for k in range(4**n):
        total = total + _dense_apply(format(k, f"0{2 * n}b"), state)
    return total * (QRat(Fraction(1, 4**n)) if state.exact else 1.0 / 4**n)


def _same(a, b):
    """Entrywise equality; exact QRat equality for object matrices."""
    assert a.shape == b.shape and a.dtype == b.dtype
    if a.dtype == object:
        return all(x == y for x, y in zip(a.flat, b.flat))
    return np.array_equal(a, b)


def _dyadic_matrix(values, layout):
    """A Hermitian QRat matrix of eighths filled from `values`."""
    qubits = sum(q for _, q in layout)
    dim = 2**qubits
    values = iter(values)
    mat = np.empty((dim, dim), dtype=object)
    for i in range(dim):
        mat[i, i] = QRat(Fraction(next(values), 8))
        for j in range(i + 1, dim):
            mat[i, j] = QRat(Fraction(next(values), 8), Fraction(next(values), 8))
            mat[j, i] = mat[i, j].conjugate()
    return mat


def _dyadic_state(values, layout):
    """`_dyadic_matrix` as an unvalidated state; kernels do not need a unit trace."""
    return DensityMatrix(_dyadic_matrix(values, layout), layout, validate=False)


def _both_backends(values, layout):
    exact = _dyadic_state(values, layout)
    return exact, exact.to_float()


_LAYOUTS = {
    "1": [("A", 1)],
    "2": [("A", 2)],
    "3": [("A", 3)],
    "1,2": [("A", 1), ("B", 2)],
    "2,1": [("A", 2), ("B", 1)],
    "1,1,1": [("A", 1), ("B", 1), ("C", 1)],
}


def _fixed_values(count):
    # Every value in -4..4 appears, zeros and negatives included.
    return [(3 * i + 1) % 9 - 4 for i in range(count)]


@pytest.mark.parametrize("qubits", [1, 2, 3])
def test_apply_pauli_matches_dense_on_every_key(qubits):
    layout = _LAYOUTS[str(qubits)]
    for state in _both_backends(_fixed_values(4**qubits), layout):
        for k in range(4**qubits):
            key = format(k, f"0{2 * qubits}b")
            assert _same(apply_pauli(key, state).mat, _dense_apply(key, state)), key


@pytest.mark.parametrize("shape", ["1,2", "2,1", "1,1,1"])
def test_apply_pauli_matches_dense_on_embedded_registers(shape):
    layout = _LAYOUTS[shape]
    for state in _both_backends(_fixed_values(64), layout):
        for name, qubits in layout:
            for k in range(4**qubits):
                key = format(k, f"0{2 * qubits}b")
                got = apply_pauli(key, state, name).mat
                assert _same(got, _dense_apply(key, state, name)), (name, key)


@pytest.mark.parametrize("qubits", [1, 2, 3])
def test_qotp_average_matches_dense(qubits):
    for state in _both_backends(_fixed_values(4**qubits), _LAYOUTS[str(qubits)]):
        assert _same(qotp_average(state).mat, _dense_average(state))


@st.composite
def _dyadic_cases(draw):
    shape = draw(st.sampled_from(sorted(_LAYOUTS)))
    layout = _LAYOUTS[shape]
    qubits = sum(q for _, q in layout)
    values = draw(st.lists(st.integers(-4, 4), min_size=4**qubits, max_size=4**qubits))
    target = draw(st.sampled_from([None] + [name for name, _ in layout]))
    width = qubits if target is None else dict(layout)[target]
    key = draw(key_strings(width))
    return values, layout, target, key


@settings(max_examples=60, deadline=None)
@given(_dyadic_cases())
def test_apply_pauli_matches_dense_on_random_dyadic_states(case):
    values, layout, target, key = case
    exact, flt = _both_backends(values, layout)
    got_exact = apply_pauli(key, exact, target)
    got_float = apply_pauli(key, flt, target)
    assert _same(got_exact.mat, _dense_apply(key, exact, target))
    assert _same(got_float.mat, _dense_apply(key, flt, target))
    assert np.array_equal(got_exact.to_float().mat, got_float.mat)


# Exact vs float on the other kernels: the exact result, converted to float,
# equals the float result.

_ONE_OR_TWO_REGISTERS = ["1", "2", "3", "1,2", "2,1"]


def _close(exact: DensityMatrix, flt: DensityMatrix) -> bool:
    got = exact.to_float()
    return got.layout == flt.layout and np.max(np.abs(got.mat - flt.mat)) < TOL_ALGEBRA


def _dyadic_values(draw, qubits):
    return draw(st.lists(st.integers(-4, 4), min_size=4**qubits, max_size=4**qubits))


@st.composite
def _tensor_cases(draw):
    a_layout = draw(st.sampled_from([[("A", 1)], [("A", 2)], [("A", 1), ("B", 1)]]))
    a_qubits = sum(q for _, q in a_layout)
    b_qubits = draw(st.integers(1, 3 - a_qubits))
    return (
        (_dyadic_values(draw, a_qubits), a_layout),
        (_dyadic_values(draw, b_qubits), [("C", b_qubits)]),
    )


@settings(max_examples=40, deadline=None)
@given(_tensor_cases())
def test_tensor_exact_matches_float_on_random_dyadic_states(case):
    (a_values, a_layout), (b_values, b_layout) = case
    a_exact, a_float = _both_backends(a_values, a_layout)
    b_exact, b_float = _both_backends(b_values, b_layout)
    assert _close(tensor(a_exact, b_exact), tensor(a_float, b_float))


_FINITE = st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def _matrix_pairs(draw, entries):
    def matrix():
        rows, cols = draw(st.integers(1, 8)), draw(st.integers(1, 8))
        values = draw(st.lists(entries, min_size=rows * cols, max_size=rows * cols))
        out = np.empty((rows, cols), dtype=object)
        out.flat[:] = values
        return out

    return matrix(), matrix()


@settings(max_examples=60, deadline=None)
@given(_matrix_pairs(st.builds(complex, _FINITE, _FINITE)))
def test_kron_helper_matches_numpy_bytes_on_complex(pair):
    a, b = (m.astype(np.complex128) for m in pair)
    with np.errstate(all="ignore"):  # huge entries overflow alike in both
        got, want = _kron(a, b), np.kron(a, b)
    assert got.shape == want.shape and got.dtype == want.dtype
    assert got.tobytes() == want.tobytes()


@settings(max_examples=60, deadline=None)
@given(_matrix_pairs(st.integers()))
def test_kron_helper_matches_numpy_on_object_ints(pair):
    a, b = pair
    got, want = _kron(a, b), np.kron(a, b)
    assert got.shape == want.shape and got.dtype == want.dtype == object
    # An object array's bytes are its pointers, so compare the ints themselves.
    assert got.tolist() == want.tolist()
    assert all(type(v) is int for v in got.flat)


@st.composite
def _register_cases(draw):
    layout = _LAYOUTS[draw(st.sampled_from(_ONE_OR_TWO_REGISTERS))]
    qubits = sum(q for _, q in layout)
    names = [name for name, _ in layout]
    targets = draw(st.permutations(names).flatmap(
        lambda order: st.integers(1, len(order)).map(lambda k: tuple(order[:k]))
    ))
    return _dyadic_values(draw, qubits), layout, targets


@settings(max_examples=40, deadline=None)
@given(_register_cases())
def test_partial_trace_exact_matches_float_on_random_dyadic_states(case):
    values, layout, drop = case
    exact, flt = _both_backends(values, layout)
    assert _close(partial_trace(exact, drop), partial_trace(flt, drop))


def _measurable_state(values, layout, data):
    """An exact `_dyadic_matrix` state whose diagonal is dyadic and sums to one."""
    dim = 2 ** sum(q for _, q in layout)
    # 2^k outcomes of weight 2^-k each.
    k = data.draw(st.integers(0, 3))
    hits = data.draw(st.lists(st.integers(0, dim - 1), min_size=2**k, max_size=2**k))
    mat = _dyadic_matrix(values, layout)
    for i in range(dim):
        mat[i, i] = QRat(Fraction(hits.count(i), 2**k))
    return DensityMatrix(mat, layout, validate=False)


@settings(max_examples=40, deadline=None)
@given(_register_cases(), st.data())
def test_measurement_distribution_exact_matches_float_on_random_dyadic_states(case, data):
    values, layout, targets = case
    exact = _measurable_state(values, layout, data)
    flt = exact.to_float()
    got_exact = measurement_distribution(exact, targets)
    got_float = measurement_distribution(flt, targets)
    assert got_exact.keys() == got_float.keys()
    assert sum(got_exact.values()) == 1
    for outcome, p in got_exact.items():
        assert isinstance(p, Fraction)
        assert abs(float(p) - got_float[outcome]) < TOL_ALGEBRA


@settings(max_examples=40, deadline=None)
@given(_register_cases(), st.integers(0, 2**32 - 1), st.data())
def test_measure_computational_exact_matches_float_on_random_dyadic_states(case, seed, data):
    values, layout, targets = case
    exact = _measurable_state(values, layout, data)
    flt = exact.to_float()
    outcome_exact, post_exact = measure_computational(exact, targets, Stream(seed))
    outcome_float, post_float = measure_computational(flt, targets, Stream(seed))
    assert outcome_exact == outcome_float
    assert post_exact.exact
    assert _close(post_exact, post_float)


@settings(max_examples=40, deadline=None)
@given(_register_cases(), st.data())
def test_measure_registers_into_exact_matches_float_on_random_dyadic_states(case, data):
    values, layout, targets = case
    exact, flt = _both_backends(values, layout)
    width = sum(dict(layout)[t] for t in targets)
    table = data.draw(st.lists(st.sampled_from("01"), min_size=2**width, max_size=2**width))

    def fn(bits):
        return table[int(bits, 2)]

    got = measure_registers_into(exact, targets, fn)
    assert got.exact
    assert _close(got, measure_registers_into(flt, targets, fn))


@settings(max_examples=30, deadline=None)
@given(st.sampled_from(sorted(_LAYOUTS)), st.data())
def test_qotp_average_exact_matches_float_on_random_dyadic_states(shape, data):
    layout = _LAYOUTS[shape]
    values = _dyadic_values(data.draw, sum(q for _, q in layout))
    exact, flt = _both_backends(values, layout)
    got = qotp_average(exact)
    assert got.exact
    assert _close(got, qotp_average(flt))


# ---------------------------------------------------------------------------
# Distances
# ---------------------------------------------------------------------------


def test_trace_distance_examples():
    assert trace_distance(basis_state("0"), basis_state("0")) == 0.0
    assert abs(trace_distance(basis_state("0"), basis_state("1")) - 1.0) < 1e-12
    # difference diag(1/2, -1/2) has eigenvalues +-1/2, distance 1/2
    assert abs(trace_distance(basis_state("0"), maximally_mixed(1)) - 0.5) < 1e-12


def test_trace_distance_dimension_check():
    with pytest.raises(DimensionMismatchError):
        trace_distance(basis_state("0"), maximally_mixed(2))


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 2**31 - 1))
def test_trace_distance_metric_properties(seed):
    rng = Stream(seed)
    a = random_mixed_state(2, rng.child("a"))
    b = random_mixed_state(2, rng.child("b"))
    c = random_pure_state(2, rng.child("c"))
    dab = trace_distance(a, b)
    assert abs(dab - trace_distance(b, a)) < 1e-12
    assert trace_distance(a, a) < 1e-12
    assert dab <= trace_distance(a, c) + trace_distance(c, b) + 1e-12
    assert -1e-12 <= dab <= 1.0 + 1e-12


# ---------------------------------------------------------------------------
# Composition and reduction
# ---------------------------------------------------------------------------


def test_tensor_examples():
    out = tensor(maximally_mixed(1, "A"), maximally_mixed(1, "B"))
    assert trace_distance(out, DensityMatrix(np.eye(4) / 4, [("A", 1), ("B", 1)])) < 1e-12
    prod = tensor(basis_state("0", "A"), basis_state("1", "B"))
    assert measurement_distribution(prod, ("A", "B"))["01"] == 1.0
    assert abs(np.trace(prod.mat) - 1.0) < 1e-12


def test_tensor_rejects_name_collisions_and_mode_mixing():
    with pytest.raises(LayoutError):
        tensor(basis_state("0", "M"), basis_state("0", "M"))
    with pytest.raises(ExactModeError):
        tensor(basis_state("0", "M", exact=True), basis_state("0", "E"))


def test_partial_trace_product_and_bell():
    rho = random_mixed_state(1, Stream(5), "A")
    joint = tensor(rho, plus_state("B"))
    assert trace_distance(partial_trace(joint, "B"), rho) < 1e-12
    # direct 4x4 computation for the entangled pair
    bell = bell_state("M", "E")
    reduced = np.zeros((2, 2), dtype=complex)
    for e in range(2):
        for i in range(2):
            for j in range(2):
                reduced[i, j] += bell.mat[2 * i + e, 2 * j + e]
    assert np.max(np.abs(reduced - np.eye(2) / 2)) < 1e-12
    assert trace_distance(partial_trace(bell, "E"), maximally_mixed(1, "M")) < 1e-12


def test_partial_trace_associativity():
    rng = Stream(8)
    state = tensor(
        tensor(random_mixed_state(1, rng.child("m"), "M"), plus_state("E")),
        basis_state("1", "F"),
    )
    stepwise = partial_trace(partial_trace(state, "M"), "E")
    joint = partial_trace(state, ("M", "E"))
    assert trace_distance(stepwise, joint) < 1e-12


def test_partial_trace_unknown_register():
    with pytest.raises(LayoutError):
        partial_trace(bell_state(), "X")


# ---------------------------------------------------------------------------
# Measurement
# ---------------------------------------------------------------------------


def test_measurement_distribution_examples():
    assert measurement_distribution(basis_state("0"), "M") == {"0": 1.0, "1": 0.0}
    dist = measurement_distribution(maximally_mixed(1), "M")
    assert abs(dist["0"] - 0.5) < 1e-12 and abs(dist["1"] - 0.5) < 1e-12
    dist = measurement_distribution(plus_state(), "M")
    assert abs(dist["0"] - 0.5) < 1e-12 and abs(dist["1"] - 0.5) < 1e-12


def test_measurement_distribution_flags_bad_trace():
    bad = DensityMatrix(np.eye(2), [("M", 1)], validate=False)  # trace 2
    with pytest.raises(MeasurementError):
        measurement_distribution(bad, "M")


def test_measure_deterministic_state():
    outcome, post = measure_computational(basis_state("0"), "M", Stream(4))
    assert outcome == "0"
    assert trace_distance(post, basis_state("0")) < 1e-12


def test_measure_repeated_same_outcome():
    rng = Stream(10)
    outcome, post = measure_computational(plus_state(), "M", rng.child("first"))
    again, _ = measure_computational(post, "M", rng.child("second"))
    assert again == outcome


def test_measure_bell_collapses_to_matching_product():
    rng = Stream(21)
    outcome, post = measure_computational(bell_state("M", "E"), "M", rng)
    expected = tensor(basis_state(outcome, "M"), basis_state(outcome, "E"))
    assert trace_distance(post, expected) < 1e-12


def test_measured_frequencies_match_distribution():
    state = tensor(plus_state("M"), basis_state("0", "E"))
    dist = measurement_distribution(state, "M")
    rng = Stream(30)
    samples = 10_000
    ones = sum(
        measure_computational(state, "M", rng.child(f"s{i}"))[0] == "1"
        for i in range(samples)
    )
    # 4 sigma binomial bound around p = 1/2
    sigma = (0.5 * 0.5 / samples) ** 0.5
    assert abs(ones / samples - dist["1"]) < 4 * sigma


def test_measure_registers_into_preserves_correlations():
    corr = DensityMatrix(np.diag([0.5, 0, 0, 0.5]), [("M", 1), ("F", 1)])
    out = measure_registers_into(corr, "M", lambda o: o, "OUT", 1)
    joint = measurement_distribution(out, ("OUT", "F"))
    assert abs(joint["00"] - 0.5) < 1e-12 and abs(joint["11"] - 0.5) < 1e-12
    assert joint["01"] < 1e-12 and joint["10"] < 1e-12


def test_measure_registers_into_checks_label_width():
    with pytest.raises(MalformedKeyError):
        measure_registers_into(bell_state("M", "E"), "M", lambda o: o + o, "OUT", 1)


# ---------------------------------------------------------------------------
# Channel comparison
# ---------------------------------------------------------------------------


def test_choi_distance_identity():
    ident = lambda m: m
    assert channel_choi_distance(ident, ident, 1) < 1e-12


def test_choi_distance_flip_vs_identity():
    x = np.array([[0, 1], [1, 0]], dtype=complex)
    flip = lambda m: x @ m @ x
    # the two Choi states are orthogonal maximally entangled states
    assert abs(channel_choi_distance(flip, lambda m: m, 1) - 1.0) < 1e-12


def _choi_by_kron(mapper, dim):
    out = np.zeros((dim * dim, dim * dim), dtype=np.complex128)
    for x in range(dim):
        for y in range(dim):
            unit = np.zeros((dim, dim), dtype=np.complex128)
            unit[x, y] = 1.0
            out += np.kron(np.asarray(mapper(unit), dtype=np.complex128), unit)
    return out / dim


@pytest.mark.parametrize("qubits", [1, 2, 3])
def test_choi_distance_matches_kron_construction(qubits):
    """Strided accumulation builds the same Choi matrix as summing kron products."""
    dim = 2**qubits
    gen = Stream(41).child(f"q{qubits}").numpy()
    k = gen.normal(size=(dim, dim)) + 1j * gen.normal(size=(dim, dim))
    sigma = random_mixed_state(qubits, Stream(42)).mat
    conj = lambda m: k @ m @ k.conj().T
    replace = lambda m: np.trace(m) * sigma
    expected = _trace_distance_raw(_choi_by_kron(conj, dim), _choi_by_kron(replace, dim))
    got = channel_choi_distance(conj, replace, qubits)
    assert np.float64(got).tobytes() == np.float64(expected).tobytes()


def test_choi_distance_shape_check():
    bad = lambda m: np.eye(4)
    with pytest.raises(DimensionMismatchError):
        channel_choi_distance(bad, lambda m: m, 1)


# ---------------------------------------------------------------------------
# State plumbing and invariants
# ---------------------------------------------------------------------------


def test_constructor_validation():
    with pytest.raises(LayoutError):
        DensityMatrix(np.eye(2), [("M", 2)])  # wrong dimension
    with pytest.raises(LayoutError):
        DensityMatrix(np.eye(2), [("M", 1)])  # trace 2
    bad = np.array([[1.5, 0], [0, -0.5]], dtype=complex)
    with pytest.raises(LayoutError):
        DensityMatrix(bad, [("M", 1)])  # negative eigenvalue
    with pytest.raises(LayoutError):
        DensityMatrix(np.eye(2) / 2, [("M", 1), ("M", 1)])  # duplicate names


def test_operations_return_valid_states():
    rng = Stream(77)
    state = tensor(random_mixed_state(2, rng.child("a"), "M"), plus_state("E"))
    outputs = [
        apply_pauli("1011", state, "M"),
        partial_trace(state, "E"),
        qotp_average(random_mixed_state(2, rng.child("b"), "M")),
        replace_with_zero_state(state, "M"),
        measure_computational(state, "E", rng.child("m"))[1],
    ]
    for out in outputs:
        DensityMatrix(out.mat, out.layout)  # re-validates invariants


def test_rename_and_zero_replacement():
    state = tensor(basis_state("1", "M"), plus_state("E"))
    renamed = rename_register(state, "M", "OUT")
    assert renamed.names == ("OUT", "E")
    with pytest.raises(LayoutError):
        rename_register(state, "M", "E")
    zeroed = replace_with_zero_state(state, "M")
    assert measurement_distribution(zeroed, "M")["0"] == 1.0
    assert trace_distance(partial_trace(zeroed, "M"), plus_state("E")) < 1e-12


def test_exact_float_round_trips():
    b = bell_state(exact=True)
    f = b.to_float()
    assert not f.exact
    back = f.to_exact()
    assert back.exact
    assert trace_distance(back, b) < 1e-15


def test_exact_state_from_qrat_matrix_is_checked_and_reads_back():
    mat = np.array(
        [
            [QRat(Fraction(3, 4)), QRat(Fraction(1, 8), Fraction(-1, 3))],
            [QRat(Fraction(1, 8), Fraction(1, 3)), QRat(Fraction(1, 4))],
        ],
        dtype=object,
    )
    state = DensityMatrix(mat, [("M", 1)])
    assert state.exact and state.den == 24
    assert _same(state.mat, mat)
    assert not state.mat.flags.writeable
    assert _same(DensityMatrix(np.array([[1, 0], [0, 0]], dtype=object), [("M", 1)]).mat,
                 np.array([[QRat(1), QRat(0)], [QRat(0), QRat(0)]], dtype=object))

    bad_trace = mat.copy()
    bad_trace[1, 1] = QRat(Fraction(1, 2))
    with pytest.raises(LayoutError, match="trace 5/4"):
        DensityMatrix(bad_trace, [("M", 1)])
    not_hermitian = mat.copy()
    not_hermitian[1, 0] = mat[0, 1]
    with pytest.raises(LayoutError, match="not Hermitian"):
        DensityMatrix(not_hermitian, [("M", 1)])
    imaginary_diagonal = mat.copy()
    imaginary_diagonal[0, 0] = QRat(Fraction(3, 4), 1)
    with pytest.raises(LayoutError, match="not Hermitian"):
        DensityMatrix(imaginary_diagonal, [("M", 1)])


def test_exact_state_keeps_denominators_beyond_int64():
    # Each factor's denominator fits in 64 bits; their product does not.
    def weighted(name, weight):
        mat = np.array([[weight, 0], [0, 1 - weight]], dtype=object)
        return DensityMatrix(mat, [(name, 1)])

    a, b = weighted("A", Fraction(1, 3**20)), weighted("B", Fraction(1, 5**15))
    ab = tensor(a, b)
    assert a.den < 2**63 and b.den < 2**63 < ab.den
    DensityMatrix(ab.mat, ab.layout)  # trace exactly 1
    wa, wb = Fraction(1, 3**20), Fraction(1, 5**15)
    assert measurement_distribution(ab, ("A", "B")) == {
        "00": wa * wb, "01": wa * (1 - wb), "10": (1 - wa) * wb, "11": (1 - wa) * (1 - wb),
    }
    assert measurement_distribution(ab, "B") == {"0": wb, "1": 1 - wb}
    outcome, post = measure_computational(ab, "A", Stream(3))
    assert measurement_distribution(post, "B") == {"0": wb, "1": 1 - wb}
    assert partial_trace(ab, "B").mat[0, 0] == QRat(wa)
    assert _close(ab, tensor(a.to_float(), b.to_float()))


# ---------------------------------------------------------------------------
# Kernel results kept on the state
# ---------------------------------------------------------------------------


def _copy(state: DensityMatrix) -> DensityMatrix:
    """An equal state with copied parts and an empty memo."""
    return DensityMatrix._of([part.copy() for part in state.parts], state.den, state.layout)


def _same_state(a: DensityMatrix, b: DensityMatrix) -> bool:
    return (a.layout == b.layout and a.den == b.den
            and all(np.array_equal(x, y) for x, y in zip(a.parts, b.parts)))


@settings(max_examples=60, deadline=None)
@given(_register_cases(), st.data())
def test_memoized_kernels_return_the_kept_result_equal_to_a_fresh_one(case, data):
    values, layout, targets = case
    exact = _measurable_state(values, layout, data)
    name = targets[0]
    key = data.draw(key_strings(dict(layout)[name]))
    whole = data.draw(key_strings(sum(q for _, q in layout)))
    kernels = [
        lambda s: apply_pauli(key, s, name),
        lambda s: apply_pauli(whole, s),
        lambda s: partial_trace(s, targets),
        lambda s: rename_register(s, name, "R"),
        lambda s: replace_with_zero_state(s, name),
    ]
    for state in (exact, exact.to_float()):
        for kernel in kernels:
            kept = kernel(state)
            assert kernel(state) is kept
            fresh = kernel(_copy(state))
            assert fresh is not kept and _same_state(fresh, kept)
        dist = measurement_distribution(state, targets)
        again = measurement_distribution(state, targets)
        assert again == dist and again is not dist
        assert measurement_distribution(_copy(state), targets) == dist


def test_mutating_a_returned_distribution_leaves_the_next_one_alone():
    for state in (bell_state(), bell_state(exact=True)):
        first = measurement_distribution(state, "M")
        expected = dict(first)
        first["0"] = 7
        first["2"] = 0
        assert measurement_distribution(state, "M") == expected


def test_pad_keys_that_are_no_memo_keys_still_raise():
    state = basis_state("01")
    for key in (None, 5, b"0101", ["0", "1", "0", "1"]):
        with pytest.raises(MalformedKeyError):
            apply_pauli(key, state)
    for key in ("01x1", "010", "", "01"):  # bad bit, odd, empty, too short for 2 qubits
        for _ in range(2):  # every time: a failed call stores nothing
            with pytest.raises(MalformedKeyError):
                apply_pauli(key, state)
    assert not state._memo


def test_memo_keeps_at_most_64_results_and_none_above_four_qubits():
    from qelab.quantum import _pad_frames, conjugate_by_masks

    four = maximally_mixed(4)
    results = [apply_pauli(format(k, "08b"), four) for k in range(100)]
    assert len(four._memo) == 64
    assert apply_pauli(format(63, "08b"), four) is results[63]  # kept
    assert apply_pauli(format(64, "08b"), four) is not results[64]  # past the bound

    for exact in (False, True):
        five = tensor(maximally_mixed(4, exact=exact), basis_state("0", "E", exact))
        kept = dict(_pad_frames)
        for kernel in (
            lambda s: apply_pauli("01" * 4, s, "M"),
            lambda s: partial_trace(s, "E"),
            lambda s: rename_register(s, "M", "R"),
            lambda s: replace_with_zero_state(s, "M"),
        ):
            assert kernel(five) is not kernel(five)
        measurement_distribution(five, "M")
        assert five._memo is None
        assert _pad_frames.keys() == kept.keys()  # no 5-qubit frame kept
    with pytest.raises(IndexError):
        conjugate_by_masks(np.eye(2), 5, 0)  # masks outside the matrix
    assert (2, 5, 0, False) not in _pad_frames


def test_threads_sharing_a_state_get_the_results_one_thread_gets():
    shared = bell_state("M", "E", exact=True)
    keys = [format(k, "02b") for k in range(4)]

    def run(results):
        for _ in range(50):
            for key in keys:
                padded = apply_pauli(key, shared, "M")
                results.append((key, padded, measurement_distribution(padded, ("M", "E"))))

    fresh = {key: apply_pauli(key, _copy(shared), "M") for key in keys}
    expected = {key: measurement_distribution(fresh[key], ("M", "E")) for key in keys}
    outputs = [[] for _ in range(4)]  # more threads than cores
    threads = [threading.Thread(target=run, args=(out,)) for out in outputs]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert all(len(out) == 200 for out in outputs)
    for out in outputs:
        for key, padded, dist in out:
            # Two threads may both compute a missing result; either one is kept.
            assert _same_state(padded, fresh[key]) and dist == expected[key]
    assert len(shared._memo) == len(keys)
