import numpy as np
import pytest

from weylsep import (
    ENTANGLED,
    NotPositiveSemidefiniteError,
    bloch_length,
    decompose,
    decompose_bipartite,
    kyfan_norm,
    partial_trace,
    partial_transpose,
    product_test,
    purity,
    teleportation_verdict,
    weyl_separability_criterion,
)
from weylsep.linalg import hermitian_part
from weylsep.states import (
    bell_diagonal,
    bell_diagonal_matrix,
    example4,
    haar_unitary,
    isotropic,
    isotropic_matrix,
    max_entangled,
    max_entangled_ket,
    ppt_3x3,
    random_mixed,
    random_product_pure,
    random_separable,
)


def test_isotropic_limits():
    np.testing.assert_allclose(isotropic(3, 0.0).matrix, np.eye(9) / 9, atol=1e-15)
    np.testing.assert_allclose(
        isotropic(3, 1.0).matrix, max_entangled(3).matrix, atol=1e-15
    )


def test_isotropic_boundary_norm():
    dec = decompose_bipartite(isotropic(3, 0.25))
    assert kyfan_norm(dec.correlation) == pytest.approx(2.0, abs=1e-10)


def test_isotropic_rejects_bad_parameter():
    with pytest.raises(ValueError):
        isotropic(3, 1.2)
    with pytest.raises(ValueError):
        isotropic(3, -0.1)


@pytest.mark.parametrize("d", [2, 3, 4])
def test_isotropic_verdict_flips_at_one_over_d_plus_one(d):
    # bisection on the mixing parameter localizes the flip point
    lo, hi = 0.0, 1.0
    for _ in range(60):
        mid = (lo + hi) / 2
        if weyl_separability_criterion(isotropic(d, mid)).outcome == ENTANGLED:
            hi = mid
        else:
            lo = mid
    assert abs(hi - 1.0 / (d + 1)) <= 1e-6


@pytest.mark.parametrize("d", [2, 3, 5])
def test_isotropic_matrix_stack_is_the_constructors_matrices(d):
    ps = np.linspace(0.0, 1.0, 7)
    stack = isotropic_matrix(d, ps)
    assert stack.shape == (7, d * d, d * d)
    for p, m in zip(ps.tolist(), stack):
        np.testing.assert_array_equal(m, isotropic(d, p).matrix)


def test_bell_diagonal_matrix_stack_is_the_constructors_matrices():
    ss = np.linspace(-0.3, 0.9, 5)
    ray = (0.3, -0.2, 0.5)
    stack = bell_diagonal_matrix(*(ss * t for t in ray))
    assert stack.shape == (5, 4, 4)
    for s, m in zip(ss.tolist(), stack):
        np.testing.assert_array_equal(m, bell_diagonal(*(s * t for t in ray)).matrix)


def _assert_hermitian_bit_for_bit(stack):
    np.testing.assert_array_equal(stack, stack.conj().swapaxes(-1, -2))
    assert hermitian_part(stack).tobytes() == stack.tobytes()


@pytest.mark.parametrize("d", [2, 3, 4, 5, 6, 8])
def test_isotropic_matrix_stack_is_hermitian_bit_for_bit(d):
    # scan feeds these stacks unchecked to kernels that read one triangle
    for ps in (np.linspace(0.0, 1.0, 101), np.arange(0.0, 1.0, 0.013), np.array([1.0])):
        _assert_hermitian_bit_for_bit(isotropic_matrix(d, ps))


def test_bell_diagonal_matrix_stack_is_hermitian_bit_for_bit():
    rng = np.random.default_rng(19)
    for _ in range(200):
        ray = rng.standard_normal(3) * rng.choice([1e-3, 1.0, 1e3])
        ss = rng.uniform(-1.0, 1.0, size=rng.integers(1, 40))
        _assert_hermitian_bit_for_bit(bell_diagonal_matrix(*(ss * t for t in ray)))
    for ray in ((1.0, 1.0, -1.0), (-1.0, -1.0, -1.0), (1.0, 1.0, 1.0), (-0.0, -0.0, -0.0)):
        ss = np.linspace(-1.0, 1.0, 21)
        _assert_hermitian_bit_for_bit(bell_diagonal_matrix(*(ss * t for t in ray)))


def test_bell_diagonal_trivials():
    np.testing.assert_allclose(bell_diagonal(0, 0, 0).matrix, np.eye(4) / 4, atol=1e-15)
    singlet = bell_diagonal(-1, -1, -1)
    assert purity(singlet) == pytest.approx(1.0, abs=1e-12)
    np.testing.assert_allclose(singlet.matrix, example4(1.0).matrix, atol=1e-12)


def test_bell_diagonal_outside_tetrahedron_rejected():
    with pytest.raises(NotPositiveSemidefiniteError):
        bell_diagonal(1, 1, 1)
    with pytest.raises(NotPositiveSemidefiniteError):
        bell_diagonal(0.8, 0.8, 0.0)


def test_bell_diagonal_detection():
    # (+0.4, +0.4, +0.4) lies outside the PSD tetrahedron (the all-plus
    # ray exits at 1/3); the negated triple is a valid state with the
    # same norm |t1|+|t2|+|t3| = 1.2 > 1
    verdict = weyl_separability_criterion(bell_diagonal(-0.4, -0.4, -0.4))
    assert verdict.statistic == pytest.approx(1.2, abs=1e-10)
    assert verdict.outcome == ENTANGLED


def test_bell_diagonal_boundary_flip_along_random_rays():
    rng = np.random.default_rng(99)
    signs = np.array(
        [[-1, -1, -1], [1, 1, -1], [1, -1, 1], [-1, 1, 1]], dtype=float
    )
    tested = 0
    while tested < 20:
        u = rng.standard_normal(3)
        u /= np.linalg.norm(u)
        s_flip = 1.0 / np.sum(np.abs(u))
        slopes = signs @ u
        s_psd = min(-1.0 / s for s in slopes if s < 0)
        if s_psd < s_flip * 1.02:
            continue  # ray leaves the state set before the boundary
        tested += 1
        eps = min(1e-4, (s_psd - s_flip) / 2)
        below = weyl_separability_criterion(bell_diagonal(*(s_flip - eps) * u))
        above = weyl_separability_criterion(bell_diagonal(*(s_flip + eps) * u))
        assert below.outcome != ENTANGLED
        assert above.outcome == ENTANGLED


def test_max_entangled_properties():
    bell = np.zeros((4, 4))
    bell[np.ix_([0, 3], [0, 3])] = 0.5
    np.testing.assert_allclose(max_entangled(2).matrix, bell, atol=1e-15)
    rho = max_entangled(3)
    assert purity(rho) == pytest.approx(1.0, abs=1e-12)
    for sys in (0, 1):
        np.testing.assert_allclose(
            partial_trace(rho, sys).matrix, np.eye(3) / 3, atol=1e-12
        )
    ket = max_entangled_ket(3)
    assert np.linalg.norm(ket) == pytest.approx(1.0)


def test_ppt_3x3_properties():
    rho = ppt_3x3()
    assert abs(np.trace(rho.matrix) - 1) <= 1e-12
    assert np.linalg.eigvalsh(partial_transpose(rho, 1))[0] >= -1e-10
    verdict = weyl_separability_criterion(rho)
    assert verdict.outcome == ENTANGLED


def test_ppt_3x3_builds_from_orthonormal_vectors():
    # rebuild the five defining product vectors and check orthonormality
    e = np.eye(3)
    s2 = np.sqrt(2)
    chis = np.array(
        [
            np.kron(e[0], (e[0] - e[1]) / s2),
            np.kron((e[0] - e[1]) / s2, e[2]),
            np.kron(e[2], (e[1] - e[2]) / s2),
            np.kron((e[1] - e[2]) / s2, e[0]),
            np.kron(e[0] + e[1] + e[2], e[0] + e[1] + e[2]) / 3,
        ]
    )
    gram = chis @ chis.T
    np.testing.assert_allclose(gram, np.eye(5), atol=1e-12)
    rebuilt = (np.eye(9) - chis.T @ chis) / 4
    np.testing.assert_allclose(ppt_3x3().matrix, rebuilt, atol=1e-12)


def test_example4_limits():
    p0 = example4(0.0)
    expected = np.zeros((4, 4))
    expected[0, 0] = 1.0
    np.testing.assert_allclose(p0.matrix, expected, atol=1e-15)
    assert product_test(p0) is not None
    p1 = example4(1.0)
    assert purity(p1) == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(ValueError):
        example4(1.5)


def test_example4_teleportation_usefulness():
    verdict = teleportation_verdict(example4(0.7), budget=6, seed=0)
    assert verdict.outcome == "USEFUL"


def test_random_mixed_rank_one_is_pure():
    for d in (2, 3, 4):
        rho = random_mixed(d, 1, seed=d)
        assert purity(rho) == pytest.approx(1.0, abs=1e-12)
        assert abs(bloch_length(decompose(rho)) - np.sqrt(d - 1)) <= 1e-9


def test_random_mixed_full_rank():
    rho = random_mixed(4, 4, seed=123)
    eigs = np.linalg.eigvalsh(rho.matrix)
    assert np.all(eigs > 0)


def test_random_mixed_determinism():
    a = random_mixed(4, 2, seed=55)
    b = random_mixed(4, 2, seed=55)
    assert np.array_equal(a.matrix, b.matrix)
    c = random_mixed(4, 2, seed=56)
    assert not np.array_equal(a.matrix, c.matrix)


def test_random_mixed_rejects_bad_rank():
    with pytest.raises(ValueError):
        random_mixed(3, 0, seed=1)
    with pytest.raises(ValueError):
        random_mixed(3, 4, seed=1)


def test_random_separable_single_product_passes_product_test():
    rho = random_separable(2, 3, 1, seed=7)
    assert product_test(rho) is not None


def test_random_separable_obeys_the_norm_bound():
    for seed in range(50):
        rho = random_separable(3, 3, 1 + seed % 4, seed=seed)
        verdict = weyl_separability_criterion(rho)
        assert verdict.statistic <= verdict.threshold + 1e-9


def test_random_separable_two_qubit_states_are_ppt():
    for seed in range(50):
        rho = random_separable(2, 2, 1 + seed % 4, seed=seed)
        assert np.linalg.eigvalsh(partial_transpose(rho, 1))[0] >= -1e-10


def test_random_product_pure_is_pure_product():
    rho = random_product_pure(3, 2, seed=3)
    assert purity(rho) == pytest.approx(1.0, abs=1e-12)
    assert product_test(rho) is not None


def test_haar_unitary_properties():
    for d, seed in [(2, 0), (3, 1), (5, 2)]:
        u = haar_unitary(d, seed)
        assert np.max(np.abs(u @ u.conj().T - np.eye(d))) <= 1e-12
        assert abs(abs(np.linalg.det(u)) - 1) <= 1e-10


def test_haar_unitary_first_entry_moment():
    # |U_00|^2 averages to 1/d under the Haar measure; 3 sigma band for the
    # sample mean of a Beta(1, d-1) variable
    d, n = 3, 10_000
    samples = np.array([abs(haar_unitary(d, seed)[0, 0]) ** 2 for seed in range(n)])
    sigma = np.sqrt((d - 1) / (d * d * (d + 1)) / n)
    assert abs(samples.mean() - 1 / d) <= 3 * sigma


def test_haar_unitary_determinism():
    assert np.array_equal(haar_unitary(3, 9), haar_unitary(3, 9))


def test_haar_unitary_is_the_rephased_qr_of_one_ginibre_draw():
    # one Ginibre draw from the seed's stream, one QR, and the diagonal of R
    # rephased to positive reals
    for d in (2, 3, 5):
        for seed in [(4, idx) for idx in range(12)]:
            rng = np.random.default_rng(seed)
            z = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
            q, r = np.linalg.qr(z / np.sqrt(2.0))
            ph = np.diagonal(r)
            assert np.array_equal(haar_unitary(d, seed), q * (ph / np.abs(ph)))


def test_all_factories_validate():
    # constructors go through validation; spot-check dims metadata
    assert isotropic(2, 0.5).dims == (2, 2)
    assert bell_diagonal(0.2, 0.2, 0.2).dims == (2, 2)
    assert max_entangled(4).dims == (4, 4)
    assert ppt_3x3().dims == (3, 3)
    assert example4(0.3).dims == (2, 2)
    assert random_mixed(5, 3, seed=1).dims == (5,)
    assert random_separable(2, 3, 2, seed=1).dims == (2, 3)
    assert random_product_pure(2, 2, seed=1).dims == (2, 2)
