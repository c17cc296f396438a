import dataclasses

import numpy as np
import pytest

from weylsep import (
    DimensionMismatchError,
    NotHermitianError,
    NotPositiveSemidefiniteError,
    ValidationError,
    WrongTraceError,
    kron,
    partial_trace,
    partial_transpose,
    ppt_criterion,
    purity,
    random_mixed,
    random_separable,
    singular_values,
    validate_density,
)
from weylsep.linalg import (
    EAGER_MAX_DIM,
    HERMITICITY_TOL,
    POSITIVITY_TOL,
    hermitian_part,
    hermiticity_defect,
    transpose_factor,
)
from weylsep.bipartite import ppt_statistic
from weylsep.states import example4, haar_unitary, isotropic, max_entangled, ppt_3x3
from weylsep.weyl import weyl_op


def test_kron_identities():
    np.testing.assert_array_equal(kron(np.eye(2), np.eye(2)), np.eye(4))


def test_kron_clock_diagonal():
    w = np.exp(2j * np.pi / 3)
    left = np.diag([1, w, w**2])
    out = kron(left, np.eye(3))
    expected = np.diag([1, 1, 1, w, w, w, w**2, w**2, w**2])
    np.testing.assert_allclose(out, expected, atol=1e-15)


def test_kron_shift_shift_swaps_paired_kets():
    # sigma_x (x) sigma_x permutes |00> <-> |11> and |01> <-> |10>
    out = kron(weyl_op(2, 0, 1), weyl_op(2, 0, 1))
    expected = np.fliplr(np.eye(4))
    np.testing.assert_allclose(out, expected, atol=1e-15)


def test_partial_trace_of_product_returns_factors():
    rho_a = random_mixed(2, 2, seed=11)
    rho_b = random_mixed(3, 3, seed=12)
    joint = validate_density(kron(rho_a.matrix, rho_b.matrix), [2, 3])
    np.testing.assert_allclose(partial_trace(joint, 0).matrix, rho_a.matrix, atol=1e-12)
    np.testing.assert_allclose(partial_trace(joint, 1).matrix, rho_b.matrix, atol=1e-12)


def test_partial_trace_max_entangled_is_maximally_mixed():
    red = partial_trace(max_entangled(3), 0)
    np.testing.assert_allclose(red.matrix, np.eye(3) / 3, atol=1e-14)


def test_partial_trace_singlet():
    red = partial_trace(example4(1.0), 0)
    np.testing.assert_allclose(red.matrix, np.diag([0.5, 0.5]), atol=1e-14)


def test_partial_trace_preserves_trace():
    for seed in range(20):
        rho = validate_density(random_mixed(6, 4, seed=seed).matrix, [2, 3])
        for keep in (0, 1):
            assert abs(np.trace(partial_trace(rho, keep).matrix) - 1) < 1e-12


def test_partial_trace_rejects_wrong_subsystem_count():
    rho = random_mixed(4, 2, seed=0)
    with pytest.raises(DimensionMismatchError):
        partial_trace(rho, 0)


def test_partial_transpose_involution():
    # a separable state keeps the intermediate PSD so it can be re-wrapped
    from weylsep import random_separable

    rho = random_separable(2, 3, 4, seed=3)
    for sys in (0, 1):
        once = partial_transpose(rho, sys)
        twice = partial_transpose(validate_density(once, [2, 3]), sys)
        assert np.max(np.abs(twice - rho.matrix)) <= 1e-15


def test_partial_transpose_product_states_stay_psd():
    for seed in range(50):
        rho_a = random_mixed(2, 2, seed=2 * seed)
        rho_b = random_mixed(2, 2, seed=2 * seed + 1)
        joint = validate_density(kron(rho_a.matrix, rho_b.matrix), [2, 2])
        assert np.linalg.eigvalsh(partial_transpose(joint, 1))[0] >= -1e-10


def test_partial_transpose_singlet_min_eigenvalue():
    pt = partial_transpose(example4(1.0), 1)
    assert abs(np.linalg.eigvalsh(pt)[0] - (-0.5)) < 1e-12


def test_partial_transpose_detects_isotropic_entanglement():
    # p = 0.5 > 1/(d+1) at d = 2, so the partial transpose goes negative
    assert np.linalg.eigvalsh(partial_transpose(isotropic(2, 0.5), 1))[0] < -1e-3


def test_singular_values_identity():
    np.testing.assert_allclose(singular_values(np.eye(5)), np.ones(5), atol=1e-14)


def test_singular_values_rank_one():
    rng = np.random.default_rng(7)
    a = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    b = rng.standard_normal(6) + 1j * rng.standard_normal(6)
    s = singular_values(np.outer(a, b))
    assert abs(s[0] - np.linalg.norm(a) * np.linalg.norm(b)) < 1e-12
    assert np.all(s[1:] < 1e-12)


def test_sum_of_squared_singular_values_is_frobenius():
    rng = np.random.default_rng(13)
    for _ in range(100):
        m = rng.standard_normal((5, 7)) + 1j * rng.standard_normal((5, 7))
        s = singular_values(m)
        fro2 = np.linalg.norm(m) ** 2
        assert abs(np.sum(s**2) - fro2) <= 1e-10 * fro2


def test_validate_density_accepts_maximally_mixed():
    rho = validate_density(np.eye(4) / 4, [2, 2])
    assert rho.dims == (2, 2)
    assert rho.dim == 4


def test_validate_density_rejects_wrong_trace():
    with pytest.raises(WrongTraceError, match="trace"):
        validate_density(np.diag([1.0, 1.0]), [2])


def test_validate_density_rejects_negative_eigenvalue():
    with pytest.raises(NotPositiveSemidefiniteError, match="eigenvalue"):
        validate_density(np.diag([1.5, -0.5]), [2])


def test_validate_density_rejects_non_hermitian():
    m = np.array([[0.5, 0.5], [0.0, 0.5]], dtype=complex)
    with pytest.raises(NotHermitianError):
        validate_density(m, [2])


def test_validate_density_rejects_dimension_mismatch():
    with pytest.raises(DimensionMismatchError):
        validate_density(np.eye(4) / 4, [2, 3])
    # 3 * 6148914691236517206 = 2**64 + 2, which wraps to 2 in int64
    with pytest.raises(DimensionMismatchError, match="18446744073709551618"):
        validate_density(np.eye(2) / 2, [3, 6148914691236517206])


def test_validate_density_rejects_non_finite():
    m = np.eye(2, dtype=complex) / 2
    m = m.copy()
    m[0, 0] = np.nan
    with pytest.raises(ValueError, match="finite"):
        validate_density(m, [2])


def test_density_matrix_is_read_only():
    rho = validate_density(np.eye(2) / 2, [2])
    with pytest.raises(ValueError):
        rho.matrix[0, 0] = 1.0


def test_spectrum_is_the_read_only_ascending_hermitian_part_spectrum():
    rng = np.random.default_rng(31)
    for d, rank in ((2, 1), (3, 2), (4, 4), (6, 36)):
        m = random_mixed(d * d, rank, seed=d).matrix.copy()
        # a defect well inside HERMITICITY_TOL, so validation keeps it
        m += 1e-12 * (rng.standard_normal(m.shape) + 1j * rng.standard_normal(m.shape))
        m /= np.trace(m).real
        assert 0 < hermiticity_defect(m) <= HERMITICITY_TOL
        rho = validate_density(m, [d, d])
        # the state is the Hermitian part it was checked as, Hermitian bit for bit
        np.testing.assert_array_equal(rho.matrix, (m + m.conj().T) / 2)
        np.testing.assert_array_equal(rho.matrix, rho.matrix.conj().T)
        assert not np.signbit(np.diag(rho.matrix).imag).any()
        assert np.max(np.abs(rho.matrix - m)) <= HERMITICITY_TOL / 2
        np.testing.assert_array_equal(rho.spectrum, np.linalg.eigvalsh(rho.matrix))
        assert np.all(np.diff(rho.spectrum) >= 0)
        with pytest.raises(ValueError):
            rho.spectrum[0] = 1.0
        # validating the validated matrix again changes no bit
        again = validate_density(rho.matrix, [d, d])
        np.testing.assert_array_equal(again.matrix, rho.matrix)
        np.testing.assert_array_equal(again.spectrum, rho.spectrum)
        # purity is Tr rho^2 as the squared Frobenius norm, which solves no spectrum
        assert abs(purity(rho) - np.trace(m @ m).real) <= 1e-14


def test_validation_error_order_is_hermiticity_trace_positivity():
    with pytest.raises(NotHermitianError):
        validate_density(np.array([[2.0, 1.0], [0.0, -3.0]]), [2])
    with pytest.raises(WrongTraceError):
        validate_density(np.diag([2.0, -3.0]), [2])


def test_validate_density_huge_entries_fail_their_invariant():
    # the symmetrized sum of these entries would overflow; the halves do not
    with pytest.raises(WrongTraceError):
        validate_density(np.diag([1.7e308, -1.7e308]), [2])
    with pytest.raises(NotPositiveSemidefiniteError):
        validate_density(np.array([[0.5, 1.7e308], [1.7e308, 0.5]]), [2])
    # an overflowed trace is an error, not a RuntimeWarning (pytest raises those)
    with pytest.raises(WrongTraceError, match="trace is inf"):
        validate_density(np.diag([1.7e308, 1.7e308]), [2])
    # above the gate, LAPACK factors h + tol*I into NaN here without an error;
    # the non-finite factor sends validation to the spectrum
    m = np.eye(20, dtype=complex) / 20
    m[0, 1] = m[1, 0] = 1.7e308
    with pytest.raises(NotPositiveSemidefiniteError, match=r"negative eigenvalue -1\.700e\+308"):
        validate_density(m, [4, 5])


def _state_stack(d: int, n: int) -> np.ndarray:
    """n random d-level states, each with a Hermiticity defect well inside tolerance."""
    rng = np.random.default_rng(d * 10 + n)
    stack = np.stack([random_mixed(d, 1 + k % d, seed=k).matrix for k in range(n)])
    noise = rng.standard_normal(stack.shape) + 1j * rng.standard_normal(stack.shape)
    return stack + 1e-13 * noise


@pytest.mark.parametrize("d", [2, 4, 9, 16])
def test_stacked_hermitian_kernels_match_per_matrix_calls(d):
    stack = _state_stack(d, 6)
    defects = hermiticity_defect(stack)
    parts = hermitian_part(stack)
    da = 2 if d % 2 == 0 else 3
    lowest = ppt_statistic(parts, da, d // da)
    assert defects.shape == lowest.shape == (6,)
    for k, m in enumerate(stack):
        assert defects[k] == hermiticity_defect(m) > 0
        np.testing.assert_array_equal(parts[k], hermitian_part(m))
        assert lowest[k] == ppt_criterion(validate_density(m, [da, d // da])).statistic
    nested = hermitian_part(stack.reshape(2, 3, d, d))
    np.testing.assert_array_equal(nested, parts.reshape(2, 3, d, d))
    nested_defects = hermiticity_defect(stack.reshape(2, 3, d, d))
    np.testing.assert_array_equal(nested_defects, defects.reshape(2, 3))


def test_transpose_factor_of_a_stack_matches_partial_transpose():
    stack = np.stack([random_mixed(6, 3, seed=k).matrix for k in range(4)])
    for sys in (0, 1):
        out = transpose_factor(stack, 2, 3, sys)
        for k, m in enumerate(stack):
            rho = validate_density(m, [2, 3])
            np.testing.assert_array_equal(out[k], partial_transpose(rho, sys))


@pytest.mark.parametrize("dim", [3, 25])
def test_each_invariant_names_its_measured_violation(dim):
    state = np.eye(dim, dtype=complex) / dim
    cases = [
        ((0, 1), 1e-6, NotHermitianError, "not Hermitian: max |m - m^dag| = 1.000e-06 exceeds 1e-10"),
        ((1, 1), 0.5, WrongTraceError, "trace is 1.5+0.000e+00j, expected 1"),
        ((0, 0), np.inf, ValidationError, "matrix contains non-finite entries"),
    ]
    for (i, j), value, error, message in cases:
        bad = state.copy()
        bad[i, j] += value
        with pytest.raises(error) as rejected:
            validate_density(bad, [dim])
        assert str(rejected.value) == message
    # above the gate a failed factorization hands the message to the spectrum
    bad = np.diag([1.5, -0.25, -0.25] + [0.0] * (dim - 3)).astype(complex)
    with pytest.raises(NotPositiveSemidefiniteError) as rejected:
        validate_density(bad, [dim])
    assert str(rejected.value) == "negative eigenvalue -2.500e-01 below -1e-10"


def _counted_eigvalsh(monkeypatch) -> list:
    calls = []
    eigvalsh = np.linalg.eigvalsh
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda *a, **k: calls.append(1) or eigvalsh(*a, **k))
    return calls


def _with_spectrum(eigenvalues, seed) -> np.ndarray:
    """``U diag(eigenvalues) U^dag`` for a Haar unitary U."""
    u = haar_unitary(len(eigenvalues), seed=seed)
    return (u * eigenvalues) @ u.conj().T


@pytest.mark.parametrize("dim", [EAGER_MAX_DIM + 1, 25, 64])
def test_cholesky_positivity_boundary_above_the_gate(monkeypatch, dim):
    rest = np.linspace(1.0, 2.0, dim - 1)

    def state(low):
        return _with_spectrum(np.concatenate(([low], rest * (1 - low) / rest.sum())), seed=dim)

    inside, outside = state(-POSITIVITY_TOL / 2), state(-2 * POSITIVITY_TOL)
    calls = _counted_eigvalsh(monkeypatch)
    rho = validate_density(inside, [dim])
    assert calls == []  # certified by the factorization, no spectrum solved
    assert abs(rho.spectrum[0] + POSITIVITY_TOL / 2) <= 1e-15
    with pytest.raises(NotPositiveSemidefiniteError) as rejected:
        validate_density(outside, [dim])
    # the spectral rule's message, as validation gave it before the factorization
    low = np.linalg.eigvalsh(hermitian_part(outside))[0]
    assert str(rejected.value) == f"negative eigenvalue {low:.3e} below -1e-10"
    assert str(rejected.value) == "negative eigenvalue -2.000e-10 below -1e-10"


def test_spectrum_is_solved_on_first_read_above_the_gate(monkeypatch):
    small, big = random_mixed(16, 3, seed=1).matrix, random_mixed(25, 3, seed=1).matrix
    calls = _counted_eigvalsh(monkeypatch)
    eager = validate_density(small, [4, 4])
    eager.spectrum
    assert len(calls) == 1
    lazy = validate_density(big, [5, 5])
    assert len(calls) == 1
    first = lazy.spectrum
    assert lazy.spectrum is first and len(calls) == 2
    np.testing.assert_array_equal(first, np.linalg.eigvalsh(lazy.matrix))
    with pytest.raises(ValueError):
        first[0] = 1.0
    with pytest.raises(AttributeError):
        lazy.spectrum = first
    # a dims relabel keeps the solved spectrum
    assert dataclasses.replace(lazy, dims=(25,)).spectrum is first


def test_partial_transpose_of_a_validated_state_is_hermitian_bit_for_bit():
    states = [isotropic(3, 0.4), example4(0.3), ppt_3x3(), random_separable(2, 3, 6, 1)]
    states += [validate_density(random_mixed(da * db, 3, seed=da).matrix, [da, db])
               for da, db in ((2, 3), (3, 4), (5, 5))]
    for rho in states:
        for sys in (0, 1):
            pt = partial_transpose(rho, sys)
            np.testing.assert_array_equal(pt, pt.conj().T)
            np.testing.assert_array_equal(hermitian_part(pt), pt)
        # so the PPT statistic, solved without forming a Hermitian part, keeps its bits
        pt = partial_transpose(rho, 1)
        assert ppt_criterion(rho).statistic == np.linalg.eigvalsh(hermitian_part(pt))[0]
