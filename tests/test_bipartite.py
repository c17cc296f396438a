import dataclasses
import math
import re
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from weylsep import (
    ENTANGLED,
    INCONCLUSIVE,
    decompose,
    decompose_bipartite,
    kyfan_norm,
    partial_trace,
    ppt_criterion,
    product_test,
    random_mixed,
    random_product_pure,
    random_separable,
    reconstruct,
    reconstruct_bipartite,
    validate_density,
    weyl_separability_criterion,
)
from weylsep import bipartite, cli, linalg, weyl
from weylsep.linalg import EAGER_MAX_DIM, DimensionMismatchError
from weylsep.states import (
    bell_diagonal,
    example4,
    haar_unitary,
    isotropic,
    isotropic_ppt_min_eig,
    max_entangled,
    ppt_3x3,
)
from weylsep.weyl import hermitian_coefficients, weyl_basis

import cli_corpus
from oracles import (
    bell_diagonal_weights,
    bell_weights,
    isotropic_weights,
    octahedron_face_points,
    random_entangled_pure_matrix,
    realigned_kyfan,
    weyl_coefficient_table,
    weyl_diagonal_kyfan,
    weyl_diagonal_matrix,
)


def _random_bipartite(da, db, rank, seed):
    return validate_density(random_mixed(da * db, rank, seed=seed).matrix, [da, db])


def test_product_state_coefficients_factorize():
    rho_a = random_mixed(2, 2, seed=31)
    rho_b = random_mixed(3, 2, seed=32)
    joint = validate_density(np.kron(rho_a.matrix, rho_b.matrix), [2, 3])
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


def test_kyfan_norm_examples():
    assert kyfan_norm(np.eye(6)) == pytest.approx(6.0)
    for d in (2, 3, 4):
        dec = decompose_bipartite(max_entangled(d))
        assert kyfan_norm(dec.correlation) == pytest.approx(d * d - 1, abs=1e-10)
    dec = decompose_bipartite(bell_diagonal(0.3, -0.2, 0.1))
    assert kyfan_norm(dec.correlation) == pytest.approx(0.6, abs=1e-12)


def test_kyfan_norm_rejects_anything_but_a_matrix():
    # a stack would give the sum of its matrices' norms (9.0 here), and a
    # vector numpy's own LinAlgError message
    for m in (np.stack([np.eye(3), 2 * np.eye(3)]), np.ones(3)):
        with pytest.raises(DimensionMismatchError, match=re.escape(f"got shape {m.shape}")):
            kyfan_norm(m)


def test_correlation_singular_values_reject_anything_but_one_table():
    # [1:, 1:] once sliced the stack axis: a (4, 4, 4) stack gave a (3, 3)
    # array, and a (3, 16, 16) one at 4x4 a (2, 15) array
    rng = np.random.default_rng(9)
    for table, d in ((rng.standard_normal((4, 4, 4)), 2), (rng.standard_normal((3, 16, 16)), 4)):
        for bad in (table, table[0, :3], table[0, 0]):
            with pytest.raises(DimensionMismatchError, match=re.escape(f"got shape {bad.shape}")):
                bipartite.correlation_singular_values(bad, d, d)
        assert bipartite.correlation_singular_values(table[0], d, d).shape == (d * d - 1,)


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
    assert np.max(np.abs(np.kron(rho_a, rho_b) - rho.matrix)) <= 1e-8
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


@pytest.mark.parametrize("da, db", [(2, 2), (2, 3), (3, 4), (4, 4), (5, 3)])
def test_product_test_accepts_mixed_products(da, db):
    # rho = rho_A (x) rho_B exactly when L = alpha beta^T, for mixed states too
    from weylsep.bloch import BlochVector

    rho_a, rho_b = random_mixed(da, da, seed=da), random_mixed(db, 2, seed=10 + db)
    rho = validate_density(np.kron(rho_a.matrix, rho_b.matrix), [da, db])
    result = product_test(rho)
    assert result is not None
    alpha, beta = result
    assert np.max(np.abs(reconstruct(BlochVector(da, alpha)) - rho_a.matrix)) <= 1e-12
    assert np.max(np.abs(reconstruct(BlochVector(db, beta)) - rho_b.matrix)) <= 1e-12
    assert np.max(np.abs(reconstruct(BlochVector(da, alpha)) - partial_trace(rho, 0).matrix)) <= 1e-12


def test_product_test_rejects_a_mixed_correlated_state():
    assert product_test(_random_bipartite(2, 3, 6, seed=8)) is None


@pytest.mark.parametrize("da, db", [(1, 4), (3, 1)])
def test_product_test_with_a_one_level_factor(da, db):
    # the correlation matrix is empty, so the state is the product of its marginals
    from weylsep.bloch import BlochVector

    rho = random_product_pure(da, db, 1)
    result = product_test(rho)
    assert result is not None
    alpha, beta = result
    assert (alpha.shape, beta.shape) == ((da * da - 1,), (db * db - 1,))
    d, coeffs = (db, beta) if da == 1 else (da, alpha)
    assert np.max(np.abs(reconstruct(BlochVector(d, coeffs)) - rho.matrix)) <= 1e-12


def test_reconstruct_bipartite_zero_coefficients():
    from weylsep.bipartite import BipartiteDecomposition

    table = np.zeros((4, 9), dtype=complex)
    table[0, 0] = 1.0
    dec = BipartiteDecomposition(2, 3, table)
    np.testing.assert_allclose(reconstruct_bipartite(dec), np.eye(6) / 6, atol=1e-15)


def test_decompositions_are_read_only():
    rho = isotropic(3, 0.3)
    dec = decompose_bipartite(rho)
    before = weyl_separability_criterion(rho)
    coeffs = decompose(partial_trace(rho, 0)).coeffs
    for target in [dec.alpha, dec.beta, dec.correlation, dec.table, coeffs]:
        with pytest.raises(ValueError):
            target[...] = 0.0
    assert weyl_separability_criterion(rho) == before
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
    product = np.kron(partial_trace(rho, 0).matrix, partial_trace(rho, 1).matrix)
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


def _count_transforms(monkeypatch, before=None):
    """Count ``weyl_coefficients`` calls through ``weyl`` and ``bipartite``; ``before`` runs first."""
    calls = []
    transform = weyl.weyl_coefficients

    def counted(*args, **kwargs):
        calls.append(args[1:])
        if before is not None:
            before()
        return transform(*args, **kwargs)

    monkeypatch.setattr(weyl, "weyl_coefficients", counted)
    monkeypatch.setattr(bipartite, "weyl_coefficients", counted)
    return calls


@pytest.mark.parametrize("da, db", [(2, 2), (3, 3), (3, 8), (5, 7), (8, 8)])
def test_the_check_sep_sequence_transforms_each_state_once(monkeypatch, da, db):
    # validate, decompose, reconstruct, Ky Fan norm, criterion and PPT, on
    # both sides of the EAGER_MAX_DIM gate
    calls = _count_transforms(monkeypatch)
    rho = validate_density(random_mixed(da * db, 3, seed=da * db).matrix, [da, db])
    dec = decompose_bipartite(rho)
    reconstruct_bipartite(dec)
    kyfan_norm(dec.correlation)
    weyl_separability_criterion(rho)
    ppt_criterion(rho)
    assert calls == [(da, db)]
    assert decompose_bipartite(rho) is dec


def test_a_relabel_starts_without_the_old_decomposition():
    m = random_mixed(16, 5, seed=16).matrix
    rho = validate_density(m, (4, 4))
    assert decompose_bipartite(rho).table.shape == (16, 16)
    relabelled = dataclasses.replace(rho, dims=(2, 8))
    dec, fresh = decompose_bipartite(relabelled), decompose_bipartite(validate_density(m, (2, 8)))
    assert (dec.da, dec.db, dec.table.shape) == (fresh.da, fresh.db, (4, 64))
    assert dec.table.tobytes() == fresh.table.tobytes()
    assert dec.singular_values.tobytes() == fresh.singular_values.tobytes()


def test_two_threads_decomposing_one_state_get_the_same_bytes(monkeypatch):
    # the barrier holds each thread inside the transform until both are
    # there, so both have read the empty slot
    barrier = threading.Barrier(2, timeout=10)
    calls = _count_transforms(monkeypatch, before=barrier.wait)
    rho = _random_bipartite(3, 4, 6, seed=12)
    results = [None, None]

    def decompose_into(k):
        results[k] = decompose_bipartite(rho)

    threads = [threading.Thread(target=decompose_into, args=(k,)) for k in range(2)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=10)
        assert not thread.is_alive()
    assert len(calls) == 2
    assert results[0].table.tobytes() == results[1].table.tobytes()
    monkeypatch.undo()
    assert any(decompose_bipartite(rho) is dec for dec in results)


_TETRAHEDRON = np.array([(-1, -1, -1), (-1, 1, 1), (1, -1, 1), (1, 1, -1)], dtype=float)


def _tetrahedron_points():
    """Bell-diagonal parameters at the vertices, on the edges and inside the tetrahedron."""
    points = [tuple(v) for v in _TETRAHEDRON.tolist()]
    for i in range(4):
        for j in range(i + 1, 4):
            for w in (0.5, 0.3):
                points.append(tuple((w * _TETRAHEDRON[i] + (1 - w) * _TETRAHEDRON[j]).tolist()))
    rng = np.random.default_rng(29)
    points += [tuple((w @ _TETRAHEDRON).tolist()) for w in rng.dirichlet(np.ones(4), size=8)]
    return points + [(0.0, 0.0, 0.0), (0.2, 0.2, 0.2), (-0.0, 0.5, -0.0)]


_WEYL_DIAGONAL = [
    *(("isotropic", d, p) for d in range(2, 17) for p in (0.0, 1 / (d + 1), 0.5, 1.0)),
    *(("max-entangled", d, None) for d in range(2, 17)),
    *(("bell-diagonal", 2, t) for t in _tetrahedron_points()),
]


def _weyl_diagonal_state(family, d, param):
    """A state of a Weyl-diagonal family and its magic-simplex weights."""
    if family == "isotropic":
        return isotropic(d, param), isotropic_weights(d, param)
    if family == "max-entangled":
        return max_entangled(d), isotropic_weights(d, 1.0)
    return bell_diagonal(*param), bell_diagonal_weights(param)


@pytest.mark.parametrize("family, d, param", _WEYL_DIAGONAL)
def test_weyl_diagonal_families_decompose_as_the_transform_does(family, d, param):
    rho, weights = _weyl_diagonal_state(family, d, param)
    # the weights are the state's: the oracle builds it term by term
    np.testing.assert_allclose(weyl_diagonal_matrix(weights), rho.matrix, rtol=0, atol=1e-14)
    dec = decompose_bipartite(rho)
    table = weyl.weyl_coefficients(rho.matrix, d, d)
    table[0, 0] = 1.0
    assert np.abs(dec.table - table).max() <= 1e-14
    values = bipartite.correlation_singular_values(table, d, d)
    assert np.abs(dec.singular_values - values).max() <= 1e-14
    statistic = weyl_separability_criterion(rho).statistic
    assert abs(statistic - weyl_diagonal_kyfan(weights)) <= 1e-12
    assert abs(statistic - realigned_kyfan(rho.matrix, d, d)) <= 1e-12
    assert not dec.table.flags.writeable and not dec.singular_values.flags.writeable


def _count_svds(monkeypatch):
    calls = []
    svd = np.linalg.svd

    def counted(*args, **kwargs):
        calls.append(np.shape(args[0]))
        return svd(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counted)
    return calls


@pytest.mark.parametrize(
    "spec", ["isotropic:d=3,p=0.4", "isotropic:d=5,p=0", "max-entangled:d=4",
             "bell-diagonal:t=0.2,-0.3,0.1", "bell-diagonal:t=-1,-1,-1"],
)
def test_weyl_diagonal_families_run_no_transform_and_no_svd(monkeypatch, spec):
    transforms, svds = _count_transforms(monkeypatch), _count_svds(monkeypatch)
    tables, assembles = [], []
    table, assemble = bipartite._weyl_diagonal_table, bipartite.weyl_assemble
    monkeypatch.setattr(bipartite, "_weyl_diagonal_table", lambda c: tables.append(1) or table(c))
    monkeypatch.setattr(bipartite, "weyl_assemble", lambda *a: assembles.append(1) or assemble(*a))
    rho = cli.state_from_spec(spec)
    assert rho._decomposition is None
    verdict = weyl_separability_criterion(rho)
    ppt_criterion(rho)
    assert tables == []
    product_test(rho)  # reads alpha, beta and L: the table is built here, once
    assert tables == [1]
    # check-sep builds no table and assembles nothing; decompose prints the table
    for command, built in (("check-sep", 0), ("decompose", 1)):
        rc, out, err = cli_corpus.run([command, "--state", spec, "--no-timestamp"])
        assert (rc, err) == (0, "")
        assert len(tables) == 1 + built
    assert (transforms, svds, assembles) == ([], [], [])
    dec = decompose_bipartite(rho)
    assert verdict.statistic == float(dec.singular_values.sum())


@pytest.mark.parametrize(
    "make", [lambda: example4(0.3), lambda: validate_density(isotropic(3, 0.4).matrix, [3, 3]),
             lambda: dataclasses.replace(isotropic(3, 0.4), dims=(3, 3)),
             lambda: dataclasses.replace(max_entangled(2), dims=(1, 4))],
    ids=["example4", "validated-isotropic", "relabelled-isotropic", "relabelled-1x4"],
)
def test_other_states_keep_the_transform(monkeypatch, make):
    # example4 is not Weyl-diagonal, and a validated or relabelled state does
    # not inherit a family's closed form
    rho = make()
    transforms = _count_transforms(monkeypatch)
    dec = decompose_bipartite(rho)
    assert transforms == [rho.dims]
    assert dec.table.shape == (rho.dims[0] ** 2, rho.dims[1] ** 2)


def _scattered_table(coefficients):
    """The table holding c_s at (s, s-bar) = ((n, m), (-n mod d, m)) and 0 elsewhere, entry by entry."""
    d = math.isqrt(len(coefficients))
    table = np.zeros((d * d, d * d), dtype=complex)
    for n in range(d):
        for m in range(d):
            table[n * d + m, (-n % d) * d + m] = coefficients[n * d + m]
    return table


def test_a_family_state_holds_no_table_until_its_table_is_read():
    d = 32
    tracemalloc.start()
    try:
        rho = isotropic(d, 0.3)
        held, _ = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        weyl_separability_criterion(rho)
        ppt_criterion(rho)
        summary = cli._bipartite_summary(rho)
        summarized, peak = tracemalloc.get_traced_memory()
        dec = decompose_bipartite(rho)
        table = dec.table
        read, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert rho.matrix.nbytes == table.nbytes == 16 * d**4
    assert held < 1.1 * rho.matrix.nbytes
    # criterion, PPT and the check-sep summary keep under 1% of a table, and
    # never hold one
    assert summarized - held < 0.01 * table.nbytes
    assert peak - held < 0.25 * table.nbytes
    assert summary["alpha_length"] == summary["beta_length"] == 0.0
    assert summary["reconstruction_residual"] <= 1e-15
    assert read - summarized >= table.nbytes
    assert dec.table is table and not table.flags.writeable
    assert table.tobytes() == _scattered_table(rho._weyl_diagonal).tobytes()
    assert dec.singular_values.tolist() == [0.3] * (d * d - 1)


@pytest.mark.parametrize("family, d, param", _WEYL_DIAGONAL)
def test_the_residual_over_the_support_is_the_assembled_one(family, d, param):
    rho, _ = _weyl_diagonal_state(family, d, param)
    dec = decompose_bipartite(rho)
    index, values = bipartite._weyl_diagonal_support(dec._weyl_diagonal)
    positions = np.ravel_multi_index(np.broadcast_arrays(*index), (d, d, d, d))
    # the support is the d^3 entries ((a, b), (a', b')) with a - b = a' - b' (mod d)
    a, b, a2, b2 = np.indices((d, d, d, d))
    on = ((a - b - a2 + b2) % d == 0).reshape(-1)
    assert positions.shape == values.shape == (d, d, d)
    assert np.array_equal(np.sort(positions, axis=None), np.flatnonzero(on))
    rebuilt = weyl.weyl_assemble(dec.table, d, d).reshape(-1)
    assert np.abs(rebuilt[positions] - values).max() <= 1e-15
    # off the support both matrices are exactly 0
    assert not rebuilt[~on].any() and not rho.matrix.reshape(-1)[~on].any()
    assembled = float(np.abs(rebuilt - rho.matrix.reshape(-1)).max())
    assert abs(bipartite.reconstruction_residual(rho) - assembled) <= 1e-15


def test_a_kept_slot_is_read_without_calling_kept(monkeypatch):
    calls = []
    kept = linalg._kept

    def counted(owner, name, solve):
        calls.append(name)
        return kept(owner, name, solve)

    monkeypatch.setattr(linalg, "_kept", counted)
    monkeypatch.setattr(bipartite, "_kept", counted)
    # a closed-form isotropic state, and a validated one above the EAGER_MAX_DIM gate
    cases = [(isotropic(3, 0.3), ["_decomposition", "_spectrum", "_table"]),
             (_random_bipartite(3, 8, 4, seed=38),
              ["_decomposition", "_spectrum", "_singular_values", "_ppt_min_eig"])]
    for rho, misses in cases:
        for solved in (misses, []):
            calls.clear()
            dec = decompose_bipartite(rho)
            kept_values = rho.spectrum, dec.table, dec.singular_values, ppt_criterion(rho)
            assert calls == solved
        assert decompose_bipartite(rho) is dec and dec.table is kept_values[1]


@pytest.mark.parametrize("d", range(2, 33))
def test_isotropic_on_the_separable_boundary_stays_inconclusive(d):
    verdict = weyl_separability_criterion(isotropic(d, 1 / (d + 1)))
    assert verdict.outcome == INCONCLUSIVE
    assert abs(verdict.statistic - verdict.threshold) <= 1e-12


@pytest.mark.parametrize("d", range(2, 9))
def test_isotropic_just_past_the_boundary_is_entangled(d):
    verdict = weyl_separability_criterion(isotropic(d, 1 / (d + 1) + 1e-8))
    assert verdict.outcome == ENTANGLED
    assert verdict.statistic - verdict.threshold == pytest.approx((d * d - 1) * 1e-8, rel=1e-6)


@pytest.mark.parametrize("t", octahedron_face_points())
def test_bell_diagonal_on_the_separable_boundary_stays_inconclusive(t):
    verdict = weyl_separability_criterion(bell_diagonal(*t))
    assert verdict.outcome == INCONCLUSIVE
    assert abs(verdict.statistic - 1.0) <= 1e-15


def _solved_ppt(rho) -> float:
    """The PPT statistic by the full solve: eigvalsh of the partial transpose of the state's matrix."""
    return bipartite.ppt_statistic(rho.matrix, *rho.dims)


@pytest.mark.parametrize("d", range(2, 33))
def test_isotropic_ppt_closed_form_is_the_solved_value(d):
    for p in (0.0, 1 / (d + 1), 1.0):
        rho = isotropic(d, p)
        statistic = ppt_criterion(rho).statistic
        assert statistic == rho._ppt_min_eig == isotropic_ppt_min_eig(d, p)
        # the matrix is real, so the real symmetric solve is the same problem, at a quarter
        # of the cost at d = 32
        assert not rho.matrix.imag.any()
        assert abs(statistic - bipartite.ppt_statistic(rho.matrix.real, d, d)) <= 1e-15
        if d <= 16:
            assert abs(statistic - _solved_ppt(rho)) <= 1e-15
    assert max_entangled(d)._ppt_min_eig == isotropic(d, 1.0)._ppt_min_eig == -1 / d


def _bell_ppt_points():
    """Tetrahedron vertices, edges and inside, points on its faces, and points with |t|_1 = 1."""
    rng = np.random.default_rng(37)
    faces = []
    for _ in range(40):
        w = rng.dirichlet(np.ones(4))
        w[rng.integers(4)] = 0.0
        faces.append(tuple((w / w.sum() @ _TETRAHEDRON).tolist()))
    return _tetrahedron_points() + faces + octahedron_face_points()


def test_bell_diagonal_ppt_closed_form_is_the_solved_value():
    for t in _bell_ppt_points():
        rho = bell_diagonal(*t)
        statistic = ppt_criterion(rho).statistic
        assert statistic == rho._ppt_min_eig
        assert abs(statistic - _solved_ppt(rho)) <= 1e-15
        # one half less the largest Bell weight
        assert abs(statistic - (0.5 - bell_weights(t)[-1])) <= 1e-15
    for t in octahedron_face_points():
        # on the separable boundary the partial transpose is singular, not negative
        assert ppt_criterion(bell_diagonal(*t)).outcome == INCONCLUSIVE


def test_example4_ppt_closed_form_is_the_solved_value():
    for p in [0.0, 1e-300, 5e-324, 1.0, *np.linspace(0.0, 1.0, 101).tolist()]:
        rho = example4(p)
        statistic = ppt_criterion(rho).statistic
        assert statistic == rho._ppt_min_eig
        assert abs(statistic - _solved_ppt(rho)) <= 1e-15
    assert str(ppt_criterion(example4(0.0)).statistic) == "0.0"  # no -0.0 in a report
    assert ppt_criterion(example4(1.0)).statistic == -0.5


def _count_eigvalsh(monkeypatch):
    calls = []
    eigvalsh = np.linalg.eigvalsh

    def counted(*args, **kwargs):
        calls.append(np.shape(args[0]))
        return eigvalsh(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", counted)
    return calls


@pytest.mark.parametrize(
    "spec", ["isotropic:d=3,p=0.4", "isotropic:d=32,p=0.3", "max-entangled:d=4",
             "bell-diagonal:t=0.2,-0.3,0.1", "bell-diagonal:t=-1,-1,-1", "example4:p=0.6"],
)
def test_family_states_solve_no_partial_transpose(monkeypatch, spec):
    rho = cli.state_from_spec(spec)
    solves = _count_eigvalsh(monkeypatch)
    verdict = ppt_criterion(rho)
    assert solves == []
    assert verdict.statistic == rho._ppt_min_eig


@pytest.mark.parametrize(
    "make, dims",
    [(lambda: isotropic(4, 0.7), (2, 8)), (lambda: isotropic(3, 0.5), (3, 3)),
     (lambda: bell_diagonal(0.2, -0.3, 0.1), (2, 2)), (lambda: example4(0.6), (1, 4)),
     (lambda: validate_density(isotropic(3, 0.5).matrix, [3, 3]), (3, 3))],
    ids=["isotropic-2x8", "isotropic-3x3", "bell-diagonal-2x2", "example4-1x4", "validated"],
)
def test_a_relabel_or_a_validated_state_solves_the_partial_transpose(monkeypatch, make, dims):
    rho = dataclasses.replace(make(), dims=dims)
    assert rho._ppt_min_eig is None
    solves = _count_eigvalsh(monkeypatch)
    verdict = ppt_criterion(rho)
    assert solves == [(rho.dim, rho.dim)]
    assert verdict.statistic == _solved_ppt(rho)


def test_the_partial_transpose_is_solved_once_per_state(monkeypatch):
    rho, shared = _random_bipartite(2, 3, 3, seed=4), ppt_3x3()
    ppt_criterion(shared)  # solved here unless an earlier test solved it
    solves = _count_eigvalsh(monkeypatch)
    first = ppt_criterion(rho)
    assert solves == [(6, 6)]
    assert ppt_criterion(rho).statistic == first.statistic == rho._ppt_min_eig
    assert ppt_criterion(shared).statistic == shared._ppt_min_eig
    assert solves == [(6, 6)]
    # a relabel never reads the value solved under the old dims
    assert dataclasses.replace(rho, dims=(3, 2))._ppt_min_eig is None


@pytest.mark.parametrize("d", range(2, 33))
def test_isotropic_ppt_on_the_separable_boundary_stays_inconclusive(d):
    verdict = ppt_criterion(isotropic(d, 1 / (d + 1)))
    assert verdict.outcome == INCONCLUSIVE
    assert abs(verdict.statistic) <= 1e-15


@pytest.mark.parametrize("d", range(2, 9))
def test_isotropic_ppt_just_past_the_boundary_is_entangled(d):
    verdict = ppt_criterion(isotropic(d, 1 / (d + 1) + 1e-8))
    assert verdict.outcome == ENTANGLED
    # the least eigenvalue falls by (1/d^2 + 1/d) per unit of p
    assert verdict.statistic == pytest.approx(-(d + 1) / d**2 * 1e-8, rel=1e-6)
