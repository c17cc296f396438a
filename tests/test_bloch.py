import numpy as np
import pytest

from weylsep import (
    DimensionMismatchError,
    bloch_length,
    decompose,
    partial_trace,
    purity,
    purity_from_length,
    random_mixed,
    reconstruct,
    validate_density,
)
from weylsep.bloch import BlochVector
from weylsep.states import isotropic
from weylsep.weyl import hermitian_coefficients

from oracles import weyl_coefficient_table

DIMS = [2, 3, 4, 5]


def test_maximally_mixed_has_zero_vector():
    for d in DIMS:
        vec = decompose(validate_density(np.eye(d) / d, [d]))
        assert np.max(np.abs(vec.coeffs)) <= 1e-15
        assert bloch_length(vec) <= 1e-15


def test_ground_state_projector_d2():
    vec = decompose(validate_density(np.diag([1.0, 0.0]), [2]))
    np.testing.assert_allclose(vec.coeffs, [0.0, 1.0, 0.0], atol=1e-15)
    assert vec.coefficient(1, 0) == pytest.approx(1.0)


@pytest.mark.parametrize("d", range(2, 17))
def test_decompose_matches_entrywise_oracle(d):
    rho = random_mixed(d, min(3, d), seed=d)
    table = weyl_coefficient_table(rho.matrix, d, 1)
    assert np.max(np.abs(decompose(rho).coeffs - table[1:, 0])) <= 1e-12


@pytest.mark.parametrize("d", range(2, 17))
def test_roundtrip_on_random_states(d):
    for seed in range(20):
        rho = random_mixed(d, 1 + seed % d, seed=seed)
        back = reconstruct(decompose(rho))
        assert np.max(np.abs(back - rho.matrix)) <= 1e-12


def test_reconstruct_zero_vector():
    vec = BlochVector(3, np.zeros(8, dtype=complex))
    np.testing.assert_allclose(reconstruct(vec), np.eye(3) / 3, atol=1e-15)


def test_reconstruct_single_shift_coefficient_d2():
    vec = BlochVector(2, np.array([1.0, 0.0, 0.0], dtype=complex))
    sx = np.array([[0, 1], [1, 0]])
    np.testing.assert_allclose(reconstruct(vec), (np.eye(2) + sx) / 2, atol=1e-15)


@pytest.mark.parametrize("d", DIMS)
def test_symmetry_condition_on_random_states(d):
    for seed in range(200):
        vec = decompose(random_mixed(d, 1 + seed % d, seed=seed))
        table = np.concatenate(([1.0], vec.coeffs))[:, None]
        assert np.max(np.abs(hermitian_coefficients(table, d, 1).imag)) < 1e-10


@pytest.mark.parametrize("d", [2, 3, 4])
def test_length_bound_and_purity_equality(d):
    bound = np.sqrt(d - 1)
    for seed in range(100):
        rho = random_mixed(d, 1 + seed % d, seed=seed)
        vec = decompose(rho)
        length = bloch_length(vec)
        assert length <= bound + 1e-9
        # purity relation ties length to Tr rho^2
        assert abs(purity_from_length(vec) - purity(rho)) <= 1e-10
        if seed % d == 0:  # rank-1 draw, pure state
            assert abs(length - bound) <= 1e-8


@pytest.mark.parametrize("d", [2, 3, 4])
def test_strictly_mixed_states_stay_inside_sphere(d):
    bound = np.sqrt(d - 1)
    for seed in range(50):
        rho = random_mixed(d, d, seed=1000 + seed)
        vec = decompose(rho)
        if purity(rho) < 1 - 1e-6:
            assert bloch_length(vec) < bound - 1e-8


def test_pure_state_length_d3_is_sqrt2():
    rho = random_mixed(3, 1, seed=5)
    assert abs(bloch_length(decompose(rho)) - np.sqrt(2)) <= 1e-9


def test_isotropic_reduction_has_zero_length():
    red = partial_trace(isotropic(3, 0.7), 0)
    assert bloch_length(decompose(red)) <= 1e-12


def test_purity_values():
    assert purity_from_length(decompose(validate_density(np.eye(4) / 4, [4]))) == pytest.approx(0.25)
    pure = random_mixed(3, 1, seed=9)
    assert purity_from_length(decompose(pure)) == pytest.approx(1.0, abs=1e-9)


def test_purity_of_isotropic_global_state():
    # the 2x2 isotropic state viewed as one four-level system
    rho = isotropic(2, 1 / 3)
    global_view = validate_density(rho.matrix, [4])
    assert purity_from_length(decompose(global_view)) == pytest.approx(1 / 3, abs=1e-10)


def test_linearity_of_decomposition():
    rho1 = random_mixed(3, 2, seed=21)
    rho2 = random_mixed(3, 3, seed=22)
    lam = 0.3
    mix = validate_density(lam * rho1.matrix + (1 - lam) * rho2.matrix, [3])
    lhs = decompose(mix).coeffs
    rhs = lam * decompose(rho1).coeffs + (1 - lam) * decompose(rho2).coeffs
    assert np.max(np.abs(lhs - rhs)) <= 1e-12


def test_dimension_mismatch_errors():
    bipartite = validate_density(np.eye(4) / 4, [2, 2])
    with pytest.raises(DimensionMismatchError):
        decompose(bipartite)


def test_identity_coefficient_not_stored():
    vec = decompose(random_mixed(2, 1, seed=2))
    with pytest.raises(ValueError):
        vec.coefficient(0, 0)
