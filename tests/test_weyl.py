import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from weylsep import weyl_basis, weyl_dagger_index, weyl_op
from weylsep.weyl import (
    cyclic_index,
    fourier,
    hermitian_coefficients,
    hermitian_rows,
    weyl_assemble,
    weyl_coefficients,
)

DIMS = [2, 3, 4, 5]


def _displayed_d3_basis():
    w = np.exp(2j * np.pi / 3)
    return {
        (0, 0): np.eye(3),
        (0, 1): np.array([[0, 1, 0], [0, 0, 1], [1, 0, 0]]),
        (0, 2): np.array([[0, 0, 1], [1, 0, 0], [0, 1, 0]]),
        (1, 0): np.diag([1, w, w**2]),
        (1, 1): np.array([[0, 1, 0], [0, 0, w], [w**2, 0, 0]]),
        (1, 2): np.array([[0, 0, 1], [w, 0, 0], [0, w**2, 0]]),
        (2, 0): np.diag([1, w**2, w]),
        (2, 1): np.array([[0, 1, 0], [0, 0, w**2], [w, 0, 0]]),
        (2, 2): np.array([[0, 0, 1], [w**2, 0, 0], [0, w, 0]]),
    }


def test_d3_operators_match_handwritten_matrices():
    basis = weyl_basis(3)
    for (n, m), expected in _displayed_d3_basis().items():
        assert np.max(np.abs(basis.op(n, m) - expected)) <= 1e-15


def test_d2_operators_are_pauli_like():
    sx = np.array([[0, 1], [1, 0]])
    sy = np.array([[0, -1j], [1j, 0]])
    sz = np.array([[1, 0], [0, -1]])
    np.testing.assert_allclose(weyl_op(2, 0, 0), np.eye(2), atol=1e-15)
    np.testing.assert_allclose(weyl_op(2, 0, 1), sx, atol=1e-15)
    np.testing.assert_allclose(weyl_op(2, 1, 0), sz, atol=1e-15)
    # the (1, 1) operator equals i*sigma_y (the + sign holds for this
    # clock/shift convention)
    np.testing.assert_allclose(weyl_op(2, 1, 1), 1j * sy, atol=1e-15)


@pytest.mark.parametrize("d", DIMS)
def test_identity_element(d):
    np.testing.assert_array_equal(weyl_op(d, 0, 0), np.eye(d))


def test_rejects_dimension_below_two():
    with pytest.raises(ValueError):
        weyl_op(1, 0, 0)
    with pytest.raises(ValueError):
        weyl_basis(1)


@pytest.mark.parametrize("d", DIMS)
def test_composition_law(d):
    basis = weyl_basis(d)
    for i, j in basis.pairs:
        for k, l in basis.pairs:
            lhs = basis.op(i, j) @ basis.op(k, l)
            phase = np.exp(2j * np.pi * ((j * k) % d) / d)
            rhs = phase * basis.op((i + k) % d, (j + l) % d)
            assert np.max(np.abs(lhs - rhs)) <= 1e-12


@pytest.mark.parametrize("d", DIMS)
def test_dagger_law(d):
    basis = weyl_basis(d)
    for n, m in basis.pairs:
        phase, (n2, m2) = weyl_dagger_index(d, n, m)
        lhs = basis.op(n, m).conj().T
        assert np.max(np.abs(lhs - phase * basis.op(n2, m2))) <= 1e-12


def test_dagger_index_examples():
    phase, idx = weyl_dagger_index(2, 1, 1)
    assert idx == (1, 1)
    assert abs(phase - (-1.0)) <= 1e-15

    phase, idx = weyl_dagger_index(3, 1, 2)
    assert idx == (2, 1)
    assert abs(phase - np.exp(4j * np.pi / 3)) <= 1e-15

    for d in DIMS:
        phase, idx = weyl_dagger_index(d, 0, 0)
        assert idx == (0, 0) and phase == 1.0


@pytest.mark.parametrize("d", DIMS)
def test_trace_law(d):
    basis = weyl_basis(d)
    for n, m in basis.pairs:
        tr = np.trace(basis.op(n, m))
        expected = d if (n, m) == (0, 0) else 0.0
        assert abs(tr - expected) <= 1e-12


@pytest.mark.parametrize("d", DIMS)
def test_unitarity(d):
    for op in weyl_basis(d).ops:
        assert np.max(np.abs(op @ op.conj().T - np.eye(d))) <= 1e-12


@pytest.mark.parametrize("d", DIMS)
def test_trace_orthogonality(d):
    ops = weyl_basis(d).ops
    gram = np.einsum("kij,lij->kl", ops.conj(), ops)
    assert np.max(np.abs(gram - d * np.eye(d * d))) <= 1e-12


def test_gram_matrix_d4_is_four_identity():
    ops = weyl_basis(4).ops
    gram = np.einsum("kij,lij->kl", ops.conj(), ops)
    np.testing.assert_allclose(gram, 4 * np.eye(16), atol=1e-12)


@pytest.mark.parametrize("d", DIMS)
def test_linear_independence(d):
    vectors = weyl_basis(d).ops.reshape(d * d, d * d)
    smallest = np.linalg.svd(vectors, compute_uv=False)[-1]
    assert smallest >= np.sqrt(d) - 1e-9


def test_basis_is_cached_and_read_only():
    basis = weyl_basis(3)
    assert weyl_basis(3) is basis
    with pytest.raises(ValueError):
        basis.ops[0, 0, 0] = 0.0


def test_indices_reduce_modulo_d():
    np.testing.assert_allclose(weyl_op(3, 4, 5), weyl_op(3, 1, 2), atol=1e-15)


@pytest.mark.parametrize("da,db", [(2, 1), (5, 1), (2, 3), (3, 2), (4, 6)])
def test_cyclic_index_is_a_read_only_permutation(da, db):
    index = cyclic_index(da, db)
    assert index.shape == (da, db, da, db)
    np.testing.assert_array_equal(np.sort(index, axis=None), np.arange((da * db) ** 2))
    with pytest.raises(ValueError):
        index[0, 0, 0, 0] = 0


@pytest.mark.parametrize("d", DIMS)
def test_fourier_is_a_scaled_unitary_dft(d):
    f = fourier(d)
    np.testing.assert_allclose(f @ f.conj().T, d * np.eye(d), atol=1e-12)
    np.testing.assert_allclose(f[1], np.exp(-2j * np.pi * np.arange(d) / d), atol=1e-15)
    with pytest.raises(ValueError):
        f[0, 0] = 0


@settings(derandomize=True, deadline=None, max_examples=80)
@given(
    da=st.integers(1, 5),
    db=st.integers(1, 5),
    scale=st.floats(1e-3, 1e3),
    seed=st.integers(0, 2**31 - 1),
)
def test_weyl_roundtrip_on_random_matrices(da, db, scale, seed):
    # any square matrix, not only a state: the tables are a basis change
    rng = np.random.default_rng(seed)
    dim = da * db
    m = scale * (rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim)))
    back = weyl_assemble(weyl_coefficients(m, da, db), da, db)
    assert np.max(np.abs(back - m)) <= 1e-12 * max(1.0, np.max(np.abs(m)))


@pytest.mark.parametrize("da,db", [(2, 2), (3, 3), (2, 4), (5, 1), (8, 8)])
@pytest.mark.parametrize("lead", [(4,), (2, 3)])
def test_weyl_coefficients_of_a_stack_match_per_matrix_calls(da, db, lead):
    rng = np.random.default_rng(da * 100 + db * 10 + len(lead))
    dim = da * db
    stack = rng.standard_normal((*lead, dim, dim)) + 1j * rng.standard_normal((*lead, dim, dim))
    tables = weyl_coefficients(stack, da, db)
    assert tables.shape == (*lead, da * da, db * db)
    for i in np.ndindex(*lead):
        np.testing.assert_array_equal(tables[i], weyl_coefficients(stack[i], da, db))


def _hermitian_basis_matrix(d: int) -> np.ndarray:
    """The dense unitary P of :func:`hermitian_rows`."""
    neg, at_self, at_neg = hermitian_rows(d)
    k = np.arange(d * d)
    p = np.zeros((d * d, d * d), dtype=complex)
    p[k, k] += at_self
    p[k, neg] += at_neg
    return p


@pytest.mark.parametrize("d", [2, 3, 4, 5, 6])
def test_hermitian_rows_build_a_hermitian_unitary_basis(d):
    p = _hermitian_basis_matrix(d)
    np.testing.assert_allclose(p @ p.conj().T, np.eye(d * d), atol=1e-15)
    assert p[0, 0] == 1 and not p[0, 1:].any() and not p[1:, 0].any()
    # each H_k = sum_s P[k, s] W_s^dag, formed from the stored operators, is Hermitian
    daggers = weyl_basis(d).ops.conj().transpose(0, 2, 1)
    h = np.einsum("ks,sij->kij", p, daggers)
    assert np.max(np.abs(h - h.conj().transpose(0, 2, 1))) <= 1e-14
    with pytest.raises(ValueError):
        hermitian_rows(d)[1][0] = 2.0


@pytest.mark.parametrize("da,db", [(2, 3), (3, 3), (4, 2), (3, 8), (4, 6), (5, 5)])
def test_hermitian_coefficients_apply_the_dense_basis(da, db):
    rng = np.random.default_rng(da * 10 + db)
    m = rng.standard_normal((da * db,) * 2) + 1j * rng.standard_normal((da * db,) * 2)
    table = weyl_coefficients(m, da, db)
    expected = _hermitian_basis_matrix(da) @ table @ _hermitian_basis_matrix(db).T
    out = hermitian_coefficients(table, da, db)
    np.testing.assert_allclose(out, expected, atol=1e-13)
    # the imaginary part is the same transform of the anti-Hermitian part's table
    anti = weyl_coefficients((m - m.conj().T) / 2j, da, db)
    np.testing.assert_allclose(out.imag, hermitian_coefficients(anti, da, db).real, atol=1e-13)
    # a stack is transformed table by table, bit for bit
    stack = np.stack([table, 2 * table, table.conj()])
    for k, one in enumerate(hermitian_coefficients(stack, da, db)):
        np.testing.assert_array_equal(one, hermitian_coefficients(stack[k], da, db))
