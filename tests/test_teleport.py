import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from weylsep import (
    DimensionMismatchError,
    detection_operator,
    fef_search,
    max_entangled,
    max_entangled_ket,
    mean_value,
    optimal_fidelity,
    random_mixed,
    random_product_pure,
    random_separable,
    teleportation_verdict,
    validate_density,
)
from weylsep import teleport
from weylsep.states import example4, haar_unitary, isotropic
from weylsep.weyl import weyl_op

from oracles import fef_magic_2x2, weyl_sum_operator

SX = np.array([[0, 1], [1, 0]], dtype=complex)


def _closed_form(u, d):
    psi = np.kron(u, np.eye(d)) @ max_entangled_ket(d)
    return d * d * np.outer(psi, psi.conj())


def _random_bipartite_2x2(seed, rank=None):
    rank = rank if rank is not None else 1 + seed % 4
    return validate_density(random_mixed(4, rank, seed=seed).matrix, [2, 2])


def test_identity_operator_is_scaled_max_entangled_projector():
    op = detection_operator(np.eye(2), 2)
    np.testing.assert_allclose(op.matrix, 4 * max_entangled(2).matrix, atol=1e-12)


@pytest.mark.parametrize("d", [2, 3])
def test_spectrum_is_rank_one(d):
    u = haar_unitary(d, seed=d)
    eigs = np.linalg.eigvalsh(detection_operator(u, d).matrix)
    np.testing.assert_allclose(eigs[-1], d * d, atol=1e-10)
    np.testing.assert_allclose(eigs[:-1], 0.0, atol=1e-10)


@pytest.mark.parametrize("d", [2, 3, 4])
def test_weyl_sum_equals_closed_form(d):
    for seed in range(10):
        u = haar_unitary(d, seed=seed)
        op = detection_operator(u, d)
        assert np.max(np.abs(op.matrix - weyl_sum_operator(u))) <= 1e-10


def test_operator_is_hermitian_with_trace_d_squared():
    for d in (2, 3):
        u = haar_unitary(d, seed=10 + d)
        op = detection_operator(u, d)
        assert np.max(np.abs(op.matrix - op.matrix.conj().T)) <= 1e-10
        assert abs(np.trace(op.matrix) - d * d) <= 1e-8


def test_shift_conjugated_operator():
    op = detection_operator(SX, 2)
    np.testing.assert_allclose(op.matrix, _closed_form(SX, 2), atol=1e-12)


def test_detection_operator_rejects_non_unitary():
    with pytest.raises(ValueError, match="unitary"):
        detection_operator(np.array([[1, 1], [0, 1]], dtype=complex), 2)
    with pytest.raises(DimensionMismatchError):
        detection_operator(np.eye(2), 3)


def test_mean_value_on_max_entangled():
    for d in (2, 3):
        rho = max_entangled(d)
        op = detection_operator(np.eye(d), d)
        assert mean_value(rho, op) == pytest.approx(d * d, abs=1e-10)


def test_mean_value_on_maximally_mixed_is_one():
    for d in (2, 3):
        rho = validate_density(np.eye(d * d) / (d * d), [d, d])
        for seed in range(3):
            op = detection_operator(haar_unitary(d, seed=seed), d)
            assert mean_value(rho, op) == pytest.approx(1.0, abs=1e-10)


def test_mean_value_of_shift_detector_on_example_family_is_zero():
    # With U equal to the two-level shift, the operator reduces to
    # I(x)I + XX + YY - ZZ, whose mean on p|phi-><phi-| + (1-p)|00><00|
    # vanishes for every p: the singlet has correlations (-1,-1,-1) and
    # |00><00| has (0, 0, +1) plus locals that the operator never probes.
    op = detection_operator(SX, 2)
    for p in (0.0, 0.25, 0.5, 0.75, 1.0):
        assert mean_value(example4(p), op) == pytest.approx(0.0, abs=1e-12)


def test_mean_value_of_phased_shift_detector_on_example_family():
    # the (1,1) Weyl unitary maps |psi+> onto |phi->, so the mean is 4p
    op = detection_operator(weyl_op(2, 1, 1), 2)
    for p in (0.0, 0.5, 1.0):
        assert mean_value(example4(p), op) == pytest.approx(4 * p, abs=1e-12)


def test_mean_value_equals_rotated_overlap():
    psi = max_entangled_ket(2)
    for seed in range(10):
        rho = _random_bipartite_2x2(seed)
        u = haar_unitary(2, seed=seed)
        op = detection_operator(u, 2)
        rotated = np.kron(u, np.eye(2)) @ psi
        overlap = float(np.real(rotated.conj() @ rho.matrix @ rotated))
        assert abs(mean_value(rho, op) - 4 * overlap) <= 1e-10


def test_mean_value_dimension_check():
    rho = validate_density(np.eye(6) / 6, [2, 3])
    with pytest.raises(DimensionMismatchError):
        mean_value(rho, detection_operator(np.eye(2), 2))


def test_fef_search_on_max_entangled():
    est = fef_search(max_entangled(2), budget=6, seed=1)
    assert est.value == pytest.approx(1.0, abs=1e-8)
    assert est.converged
    est = fef_search(max_entangled(3), budget=10, seed=1)
    assert est.value == pytest.approx(1.0, abs=1e-8)


def test_fef_search_on_singlet_finds_the_right_rotation():
    est = fef_search(example4(1.0), budget=8, seed=2)
    assert est.value == pytest.approx(1.0, abs=1e-6)
    rotated = np.kron(est.best_unitary, np.eye(2)) @ max_entangled_ket(2)
    phi = np.zeros(4, dtype=complex)
    phi[1], phi[2] = 1 / np.sqrt(2), -1 / np.sqrt(2)
    assert abs(np.vdot(phi, rotated)) == pytest.approx(1.0, abs=1e-6)


def test_fef_search_on_isotropic_states():
    for d in (2, 3):
        for p in (0.3, 0.9):
            est = fef_search(isotropic(d, p), budget=8, seed=4)
            assert est.value == pytest.approx(p + (1 - p) / d**2, abs=1e-6)


def test_fef_search_monotone_in_budget():
    rho = _random_bipartite_2x2(31, rank=4)
    values = [fef_search(rho, budget=b, seed=9).value for b in (1, 2, 4, 8, 16)]
    for lo, hi in zip(values, values[1:]):
        assert hi >= lo - 1e-15


def test_fef_search_budget_prefix(monkeypatch):
    # each Haar start is drawn from (seed, start index) alone, so a larger
    # budget first runs every start of a smaller one, in the same order
    polar = teleport._polar_ascent

    def starts(budget):
        seen = []

        def recording(rho, u):
            seen.append(u.copy())
            return polar(rho, u)

        monkeypatch.setattr(teleport, "_polar_ascent", recording)
        fef_search(rho, budget=budget, seed=4)
        return seen

    rho = validate_density(random_mixed(9, 3, seed=5).matrix, [3, 3])
    k, n = 12, 20  # both past the d^2 = 9 Weyl starts, so Haar starts are compared
    short, long = starts(k), starts(n)
    assert len(short) == k and len(long) == n
    for a, b in zip(short, long):
        np.testing.assert_array_equal(a, b)
    assert not np.allclose(long[k - 1], long[k])


def test_fef_search_bounds_and_identity_start():
    psi = max_entangled_ket(2)
    for seed in range(10):
        rho = _random_bipartite_2x2(seed + 50)
        est = fef_search(rho, budget=4, seed=seed)
        baseline = float(np.real(psi.conj() @ rho.matrix @ psi))
        assert est.value >= baseline - 1e-12
        assert est.value <= 1.0 + 1e-9
        assert est.evaluations > 0


def test_fef_search_matches_two_qubit_closed_form():
    for seed in range(300):
        rho = _random_bipartite_2x2(seed + 2000, rank=1 + seed % 4)
        est = fef_search(rho, budget=8, seed=seed)
        assert abs(est.value - fef_magic_2x2(rho.matrix)) <= 1e-10


@settings(derandomize=True, deadline=None, max_examples=60)
@given(d=st.integers(2, 4), rank=st.integers(1, 16), seed=st.integers(0, 2**31 - 1))
def test_fef_search_properties(d, rank, seed):
    rho = validate_density(random_mixed(d * d, min(rank, d * d), seed=seed).matrix, [d, d])
    psi = max_entangled_ket(d)
    identity_overlap = float(np.real(psi.conj() @ rho.matrix @ psi))
    lam_max = float(np.linalg.eigvalsh(rho.matrix)[-1])
    values = []
    for budget in (1, 2, 4, 8):
        est = fef_search(rho, budget=budget, seed=seed)
        assert identity_overlap - 1e-12 <= est.value <= lam_max + 1e-12
        u = est.best_unitary
        assert np.max(np.abs(u @ u.conj().T - np.eye(d))) <= 1e-12
        mean = mean_value(rho, detection_operator(u, d))
        assert abs(mean - d * d * est.value) <= 1e-9
        values.append(est.value)
    for lo, hi in zip(values, values[1:]):
        assert hi >= lo


def test_fef_search_settles_on_product_pure_states():
    # rho vec U has rank one here, so the polar factor is not unique
    for d in (2, 3, 4):
        for seed in range(5):
            est = fef_search(random_product_pure(d, d, seed=seed), budget=4, seed=seed)
            assert est.converged
            assert est.value == pytest.approx(1.0 / d, abs=1e-12)


def test_fef_search_separable_ceiling():
    for seed in range(500):
        rho = random_separable(2, 2, 1 + seed % 3, seed=seed)
        est = fef_search(rho, budget=2, seed=seed)
        assert est.value <= 0.5 + 1e-6


def test_fef_search_requires_square_bipartition():
    rho = validate_density(np.eye(6) / 6, [2, 3])
    with pytest.raises(DimensionMismatchError):
        fef_search(rho, budget=2, seed=0)
    with pytest.raises(ValueError):
        fef_search(max_entangled(2), budget=0, seed=0)


def test_teleportation_verdicts():
    useful = teleportation_verdict(example4(0.8), budget=6, seed=7)
    assert useful.outcome == "USEFUL"
    assert useful.statistic > 2.0
    assert useful.threshold == 2.0

    mixed = validate_density(np.eye(4) / 4, [2, 2])
    assert teleportation_verdict(mixed, budget=4, seed=7).outcome == "INCONCLUSIVE"

    iso = teleportation_verdict(isotropic(2, 0.9), budget=6, seed=7)
    assert iso.outcome == "USEFUL"
    assert iso.statistic == pytest.approx(3.7, abs=1e-6)


def test_optimal_fidelity_map():
    assert optimal_fidelity(1.0, 2) == pytest.approx(1.0)
    for d in (2, 3, 4):
        assert optimal_fidelity(1.0 / d, d) == pytest.approx(2.0 / (d + 1))
    assert optimal_fidelity(0.925, 2) == pytest.approx(0.95)
    with pytest.raises(ValueError):
        optimal_fidelity(1.2, 2)
    with pytest.raises(ValueError):
        optimal_fidelity(-0.1, 2)
