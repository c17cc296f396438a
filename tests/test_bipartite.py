import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from weylsep import (
    ENTANGLED,
    INCONCLUSIVE,
    decompose,
    decompose_bipartite,
    kron,
    kyfan_norm,
    partial_trace,
    ppt_criterion,
    product_test,
    random_mixed,
    random_product_pure,
    random_separable,
    reconstruct,
    reconstruct_bipartite,
    reduced_from_decomposition,
    validate_density,
    weyl_separability_criterion,
)
from weylsep.bipartite import correlation_verdict
from weylsep.linalg import EAGER_MAX_DIM
from weylsep.states import bell_diagonal, haar_unitary, isotropic, max_entangled, ppt_3x3
from weylsep.weyl import hermitian_coefficients, weyl_basis

from oracles import random_entangled_pure_matrix, weyl_coefficient_table


def _random_bipartite(da, db, rank, seed):
    return validate_density(random_mixed(da * db, rank, seed=seed).matrix, [da, db])


def test_product_state_coefficients_factorize():
    rho_a = random_mixed(2, 2, seed=31)
    rho_b = random_mixed(3, 2, seed=32)
    joint = validate_density(kron(rho_a.matrix, rho_b.matrix), [2, 3])
    dec = decompose_bipartite(joint)
    np.testing.assert_allclose(dec.alpha, decompose(rho_a).coeffs, atol=1e-12)
    np.testing.assert_allclose(dec.beta, decompose(rho_b).coeffs, atol=1e-12)
    np.testing.assert_allclose(
        dec.correlation, np.outer(dec.alpha, dec.beta), atol=1e-12
    )


def test_max_entangled_correlation_pattern():
    # The joint coefficients of |psi+><psi+| put a single 1 in every row,
    # pairing index (i, j) with (-i mod d, j): the second factor is the
    # entrywise conjugate of the first, giving a permutation matrix.
    d = 3
    dec = decompose_bipartite(max_entangled(d))
    assert np.max(np.abs(dec.alpha)) <= 1e-12
    assert np.max(np.abs(dec.beta)) <= 1e-12
    expected = np.zeros((d * d - 1, d * d - 1))
    for i in range(d):
        for j in range(d):
            if (i, j) == (0, 0):
                continue
            row = i * d + j - 1
            col = ((-i) % d) * d + j - 1
            expected[row, col] = 1.0
    np.testing.assert_allclose(dec.correlation, expected, atol=1e-12)


def test_bell_diagonal_correlation_entries():
    t1, t2, t3 = 0.3, -0.2, 0.1
    dec = decompose_bipartite(bell_diagonal(t1, t2, t3))
    expected = np.diag([t1, t3, -t2])  # order (0,1), (1,0), (1,1)
    np.testing.assert_allclose(dec.correlation, expected, atol=1e-12)
    assert np.max(np.abs(dec.alpha)) <= 1e-12


def test_reduced_from_decomposition_matches_partial_trace():
    for da, db, seed in [(2, 2, 1), (2, 3, 2), (3, 3, 3)]:
        rho = _random_bipartite(da, db, 3, seed)
        dec = decompose_bipartite(rho)
        for sys in (0, 1):
            np.testing.assert_allclose(
                reduced_from_decomposition(dec, sys).matrix,
                partial_trace(rho, sys).matrix,
                atol=1e-12,
            )


def test_reduced_of_max_entangled_is_maximally_mixed():
    dec = decompose_bipartite(max_entangled(3))
    np.testing.assert_allclose(
        reduced_from_decomposition(dec, 0).matrix, np.eye(3) / 3, atol=1e-12
    )


def test_kyfan_norm_examples():
    assert kyfan_norm(np.eye(6)) == pytest.approx(6.0)
    for d in (2, 3, 4):
        dec = decompose_bipartite(max_entangled(d))
        assert kyfan_norm(dec.correlation) == pytest.approx(d * d - 1, abs=1e-10)
    dec = decompose_bipartite(bell_diagonal(0.3, -0.2, 0.1))
    assert kyfan_norm(dec.correlation) == pytest.approx(0.6, abs=1e-12)


def test_kyfan_norm_unitary_invariance():
    rng = np.random.default_rng(4)
    m = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
    u = haar_unitary(8, seed=41)
    v = haar_unitary(8, seed=42)
    assert abs(kyfan_norm(u @ m @ v) - kyfan_norm(m)) <= 1e-10


def test_separability_criterion_flags_isotropic():
    verdict = weyl_separability_criterion(isotropic(3, 0.3))
    assert verdict.outcome == ENTANGLED
    assert verdict.statistic == pytest.approx(2.4, abs=1e-10)
    assert verdict.threshold == pytest.approx(2.0)
    assert verdict.outcome == ENTANGLED


def test_separability_criterion_flags_ppt_entangled_state():
    verdict = weyl_separability_criterion(ppt_3x3())
    assert verdict.outcome == ENTANGLED
    assert verdict.statistic > 2.0


def test_separability_criterion_inconclusive_on_product():
    rho = random_product_pure(2, 3, seed=5)
    verdict = weyl_separability_criterion(rho)
    assert verdict.outcome == INCONCLUSIVE
    assert verdict.statistic <= verdict.threshold + 1e-9


def test_criterion_never_flags_random_separable_mixtures():
    for da, db in [(2, 2), (2, 3), (3, 3)]:
        for seed in range(100):
            rho = random_separable(da, db, 1 + seed % 5, seed=seed)
            assert weyl_separability_criterion(rho).outcome == INCONCLUSIVE


@settings(derandomize=True, deadline=None, max_examples=80)
@given(
    da=st.integers(2, 4),
    db=st.integers(2, 4),
    k=st.integers(1, 32),
    seed=st.integers(0, 2**31 - 1),
)
def test_kyfan_bound_on_separable_mixtures(da, db, k, seed):
    dec = decompose_bipartite(random_separable(da, db, k, seed=seed))
    assert kyfan_norm(dec.correlation) <= np.sqrt((da - 1) * (db - 1)) + 1e-12


def test_ppt_concordance_at_low_dimensions():
    # wherever the correlation-norm test fires at 2x2 or 2x3, the partial
    # transpose must also be negative (it is decisive there)
    families = [isotropic(2, p) for p in np.linspace(0, 1, 21)]
    families += [_random_bipartite(2, 2, r, s) for r in (1, 4) for s in range(25)]
    families += [_random_bipartite(2, 3, r, s) for r in (1, 6) for s in range(25)]
    for rho in families:
        if weyl_separability_criterion(rho).outcome == ENTANGLED:
            assert ppt_criterion(rho).outcome == ENTANGLED


def test_ppt_criterion_verdict_shape():
    verdict = ppt_criterion(ppt_3x3())
    assert verdict.outcome == INCONCLUSIVE
    assert verdict.statistic >= -1e-10
    npt = ppt_criterion(isotropic(2, 0.9))
    assert npt.outcome == ENTANGLED
    assert npt.statistic < npt.threshold


def test_product_test_accepts_basis_product_state():
    ket = np.zeros(4)
    ket[1] = 1.0  # |0>|1>
    rho = validate_density(np.outer(ket, ket), [2, 2])
    result = product_test(rho)
    assert result is not None
    alpha, beta = result
    np.testing.assert_allclose(
        alpha, decompose(validate_density(np.diag([1.0, 0.0]), [2])).coeffs, atol=1e-12
    )
    np.testing.assert_allclose(
        beta, decompose(validate_density(np.diag([0.0, 1.0]), [2])).coeffs, atol=1e-12
    )


def test_product_test_factors_rebuild_the_state():
    rho = random_product_pure(3, 4, seed=17)
    result = product_test(rho)
    assert result is not None
    alpha, beta = result
    from weylsep.bloch import BlochVector

    rho_a = reconstruct(BlochVector(3, alpha))
    rho_b = reconstruct(BlochVector(4, beta))
    assert np.max(np.abs(kron(rho_a, rho_b) - rho.matrix)) <= 1e-8
    dec = decompose_bipartite(rho)
    assert np.linalg.norm(dec.correlation - np.outer(alpha, beta)) <= 1e-10


def test_product_test_rejects_max_entangled():
    rho = max_entangled(2)
    s = np.linalg.svd(decompose_bipartite(rho).correlation, compute_uv=False)
    np.testing.assert_allclose(s, np.ones(3), atol=1e-12)
    assert product_test(rho) is None


def test_product_test_rejects_entangled_pure_states():
    for seed in range(20):
        rho = validate_density(random_entangled_pure_matrix(2, 3, seed), [2, 3])
        assert product_test(rho) is None


def test_product_test_rejects_mixed_input():
    with pytest.raises(ValueError, match="pure"):
        product_test(_random_bipartite(2, 2, 4, seed=8))


def test_reconstruct_bipartite_zero_coefficients():
    from weylsep.bipartite import BipartiteDecomposition

    table = np.zeros((4, 9), dtype=complex)
    table[0, 0] = 1.0
    dec = BipartiteDecomposition(2, 3, table)
    np.testing.assert_allclose(reconstruct_bipartite(dec), np.eye(6) / 6, atol=1e-15)


def test_decompositions_are_read_only():
    rho = isotropic(3, 0.3)
    dec = decompose_bipartite(rho)
    before = correlation_verdict(dec)
    coeffs = decompose(partial_trace(rho, 0)).coeffs
    for target in [dec.alpha, dec.beta, dec.correlation, dec.table, coeffs]:
        with pytest.raises(ValueError):
            target[...] = 0.0
    assert correlation_verdict(dec) == before
    assert kyfan_norm(dec.correlation) == pytest.approx(before.statistic, abs=1e-12)


# Asymmetric shapes catch a swap of the two factors in the gather index.
ORACLE_SHAPES = [(2, 2), (2, 3), (3, 2), (3, 8), (8, 3), (4, 6), (5, 7)]


@pytest.mark.parametrize("da,db", ORACLE_SHAPES)
def test_decompose_bipartite_matches_entrywise_oracle(da, db):
    rho = _random_bipartite(da, db, min(3, da * db), seed=da * 10 + db)
    table = weyl_coefficient_table(rho.matrix, da, db)
    dec = decompose_bipartite(rho)
    assert np.max(np.abs(dec.alpha - table[1:, 0])) <= 1e-12
    assert np.max(np.abs(dec.beta - table[0, 1:])) <= 1e-12
    assert np.max(np.abs(dec.correlation - table[1:, 1:])) <= 1e-12


@pytest.mark.parametrize("da,db", [(3, 3), (3, 4), *ORACLE_SHAPES, (16, 16)])
def test_bipartite_roundtrip(da, db):
    for seed in range(10):
        rho = _random_bipartite(da, db, 1 + seed % (da * db), seed=seed)
        back = reconstruct_bipartite(decompose_bipartite(rho))
        assert np.max(np.abs(back - rho.matrix)) <= 1e-12


def test_roundtrip_on_ppt_state():
    rho = ppt_3x3()
    back = reconstruct_bipartite(decompose_bipartite(rho))
    assert np.max(np.abs(back - rho.matrix)) <= 1e-12


def test_state_splits_into_product_plus_correlation_correction():
    # rho - rho_A (x) rho_B is exactly the Weyl double sum weighted by
    # (correlation - outer(alpha, beta)) / (dA dB)
    rho = ppt_3x3()
    dec = decompose_bipartite(rho)
    wa = weyl_basis(3).ops
    wb = weyl_basis(3).ops
    delta = dec.correlation - np.outer(dec.alpha, dec.beta)
    corr = np.einsum("st,sac,tbd->abcd", delta, wa[1:], wb[1:]).reshape(9, 9) / 9
    product = kron(
        reduced_from_decomposition(dec, 0).matrix,
        reduced_from_decomposition(dec, 1).matrix,
    )
    assert np.max(np.abs(rho.matrix - product - corr)) <= 1e-11


def test_coefficient_symmetries_on_random_states():
    for da, db, seed in [(2, 2, 0), (2, 3, 1), (3, 3, 2), (3, 4, 3)]:
        dec = decompose_bipartite(_random_bipartite(da, db, da * db, seed))
        assert np.max(np.abs(hermitian_coefficients(dec.table, da, db).imag)) < 1e-10


def test_local_vectors_match_reduced_state_decompositions():
    rho = _random_bipartite(3, 4, 5, seed=77)
    dec = decompose_bipartite(rho)
    np.testing.assert_allclose(
        dec.alpha, decompose(partial_trace(rho, 0)).coeffs, atol=1e-12
    )
    np.testing.assert_allclose(
        dec.beta, decompose(partial_trace(rho, 1)).coeffs, atol=1e-12
    )


def test_verdict_margin_keeps_boundary_inconclusive():
    # exactly on the separable bound the verdict must not fire
    verdict = weyl_separability_criterion(isotropic(3, 0.25))
    assert verdict.statistic == pytest.approx(2.0, abs=1e-10)
    assert verdict.outcome == INCONCLUSIVE


def test_single_subsystem_rejected():
    rho = random_mixed(4, 2, seed=0)
    with pytest.raises(Exception):
        decompose_bipartite(rho)


@pytest.mark.parametrize("da,db", [(3, 8), (4, 6), (5, 5), (5, 7), (6, 6), (7, 7), (8, 8)])
def test_real_svd_in_the_hermitian_basis_matches_the_complex_svd(da, db):
    assert da * db > EAGER_MAX_DIM
    for rank in (1, 3, da * db):
        dec = decompose_bipartite(_random_bipartite(da, db, rank, seed=da * db + rank))
        rotated = hermitian_coefficients(dec.table, da, db)
        assert np.max(np.abs(rotated.imag)) <= 1e-13
        real_sv = np.linalg.svd(rotated.real[1:, 1:], compute_uv=False)
        np.testing.assert_array_equal(dec.singular_values, real_sv)
        complex_sv = np.linalg.svd(dec.correlation, compute_uv=False)
        np.testing.assert_allclose(dec.singular_values, complex_sv, rtol=0, atol=1e-13)


@pytest.mark.parametrize("da,db", [(2, 2), (2, 3), (4, 4), (2, 8)])
def test_singular_values_up_to_the_gate_are_the_complex_svd(da, db):
    assert da * db <= EAGER_MAX_DIM
    dec = decompose_bipartite(_random_bipartite(da, db, 2, seed=da + db))
    np.testing.assert_array_equal(
        dec.singular_values, np.linalg.svd(dec.correlation, compute_uv=False)
    )
