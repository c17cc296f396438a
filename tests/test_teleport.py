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
from weylsep.bipartite import STATISTIC_MARGIN
from weylsep.states import bell_diagonal, example4, haar_unitary, isotropic
from weylsep.weyl import weyl_op

from oracles import (
    fef_grid_oracle_2x2,
    fef_magic_2x2,
    fef_one_start_at_a_time,
    haar_from_rng,
    weyl_diagonal_matrix,
    weyl_sum_operator,
)

SX = np.array([[0, 1], [1, 0]], dtype=complex)


def _closed_form(u, d):
    psi = np.kron(u, np.eye(d)) @ max_entangled_ket(d)
    return d * d * np.outer(psi, psi.conj())


def _margin(rho):
    """The round-off margin of the cap, ``ROUNDOFF_ULPS * D * eps * ||rho||_F``."""
    d2 = rho.matrix.shape[0]
    return teleport.ROUNDOFF_ULPS * d2 * teleport.EPS * float(np.linalg.norm(rho.matrix))


def _cap(rho):
    """The search's cap: ``lambda_max(rho)`` plus its round-off margin."""
    return float(rho.spectrum[-1]) + _margin(rho)


def _starts(rho, seed, budget):
    """The search's starts above d = 2: the identity, the polar factor of
    the reshaped top ``eigh`` vector, then Haar unitaries from ``(seed, j)``."""
    d = rho.dims[0]
    w, _, vh = np.linalg.svd(np.linalg.eigh(rho.matrix)[1][:, -1].reshape(d, d))
    haar = [haar_unitary(d, (seed, j)) for j in range(2, budget)]
    return np.array(([np.eye(d), w @ vh] + haar)[:budget], dtype=complex)


def _random_bipartite_2x2(seed, rank=None):
    rank = rank if rank is not None else 1 + seed % 4
    return validate_density(random_mixed(4, rank, seed=seed).matrix, [2, 2])


def _assert_two_qubit_closed_form(rho, est):
    """The d = 2 contract: F from one eigh in the magic basis, no polar step.

    ``fef_magic_2x2`` is the oracle's own closed form; the bound is at most
    ``lambda_max(rho)`` and at most the margin ``4 * D * eps * ||rho||_F``
    above F, and the value is the mean value at the returned unitary.
    """
    fef = fef_magic_2x2(rho.matrix)
    margin = _margin(rho)
    assert (est.evaluations, est.converged, est.starts_used) == (0, True, 1)
    assert teleport.unitarity_defect(est.best_unitary) <= 1e-12
    assert est.value == teleport._value(rho.matrix, est.best_unitary)
    assert abs(est.value - fef) <= 1e-14
    assert fef - 1e-15 <= est.upper_bound <= rho.spectrum[-1] + margin
    assert est.upper_bound <= fef + margin + 1e-15


def test_identity_operator_is_scaled_max_entangled_projector():
    op = detection_operator(np.eye(2))
    np.testing.assert_allclose(op.matrix, 4 * max_entangled(2).matrix, atol=1e-12)


@pytest.mark.parametrize("d", [2, 3])
def test_spectrum_is_rank_one(d):
    u = haar_unitary(d, seed=d)
    eigs = np.linalg.eigvalsh(detection_operator(u).matrix)
    np.testing.assert_allclose(eigs[-1], d * d, atol=1e-10)
    np.testing.assert_allclose(eigs[:-1], 0.0, atol=1e-10)


@pytest.mark.parametrize("d", [2, 3, 4])
def test_weyl_sum_equals_closed_form(d):
    for seed in range(10):
        u = haar_unitary(d, seed=seed)
        op = detection_operator(u)
        assert np.max(np.abs(op.matrix - weyl_sum_operator(u))) <= 1e-10


def test_operator_is_hermitian_with_trace_d_squared():
    for d in (2, 3):
        u = haar_unitary(d, seed=10 + d)
        op = detection_operator(u)
        assert np.max(np.abs(op.matrix - op.matrix.conj().T)) <= 1e-10
        assert abs(np.trace(op.matrix) - d * d) <= 1e-8


def test_shift_conjugated_operator():
    op = detection_operator(SX)
    np.testing.assert_allclose(op.matrix, _closed_form(SX, 2), atol=1e-12)


def test_detection_operator_rejects_non_unitary():
    with pytest.raises(ValueError, match="unitary"):
        detection_operator(np.array([[1, 1], [0, 1]], dtype=complex))


def test_mean_value_on_max_entangled():
    for d in (2, 3):
        rho = max_entangled(d)
        op = detection_operator(np.eye(d))
        assert mean_value(rho, op) == pytest.approx(d * d, abs=1e-10)


def test_mean_value_on_maximally_mixed_is_one():
    for d in (2, 3):
        rho = validate_density(np.eye(d * d) / (d * d), [d, d])
        for seed in range(3):
            op = detection_operator(haar_unitary(d, seed=seed))
            assert mean_value(rho, op) == pytest.approx(1.0, abs=1e-10)


def test_mean_value_of_shift_detector_on_example_family_is_zero():
    # With U equal to the two-level shift, the operator reduces to
    # I(x)I + XX + YY - ZZ, whose mean on p|phi-><phi-| + (1-p)|00><00|
    # vanishes for every p: the singlet has correlations (-1,-1,-1) and
    # |00><00| has (0, 0, +1) plus locals that the operator never probes.
    op = detection_operator(SX)
    for p in (0.0, 0.25, 0.5, 0.75, 1.0):
        assert mean_value(example4(p), op) == pytest.approx(0.0, abs=1e-12)


def test_mean_value_of_phased_shift_detector_on_example_family():
    # the (1,1) Weyl unitary maps |psi+> onto |phi->, so the mean is 4p
    op = detection_operator(weyl_op(2, 1, 1))
    for p in (0.0, 0.5, 1.0):
        assert mean_value(example4(p), op) == pytest.approx(4 * p, abs=1e-12)


def test_mean_value_equals_rotated_overlap():
    psi = max_entangled_ket(2)
    for seed in range(10):
        rho = _random_bipartite_2x2(seed)
        u = haar_unitary(2, seed=seed)
        op = detection_operator(u)
        rotated = np.kron(u, np.eye(2)) @ psi
        overlap = float(np.real(rotated.conj() @ rho.matrix @ rotated))
        assert abs(mean_value(rho, op) - 4 * overlap) <= 1e-10


def test_mean_value_is_real_on_a_state_accepted_with_a_defect():
    # i * 4.9e-11 * B, with B the zero-diagonal sign pattern of O_I, is a
    # Hermiticity defect of 9.8e-11, inside tolerance; read from the raw
    # matrix, it gave <O_I> an imaginary part of 2.2e-8
    d = 8
    b = np.zeros((d * d, d * d))
    b[np.ix_(np.arange(d) * (d + 1), np.arange(d) * (d + 1))] = 1.0
    np.fill_diagonal(b, 0.0)
    rho = validate_density(isotropic(d, 0.5).matrix + 4.9e-11j * b, [d, d])
    est = fef_search(rho, budget=8, seed=1)
    value = mean_value(rho, detection_operator(est.best_unitary))
    assert abs(value - d * d * est.value) <= 1e-12


def test_mean_value_dimension_check():
    rho = validate_density(np.eye(6) / 6, [2, 3])
    with pytest.raises(DimensionMismatchError):
        mean_value(rho, detection_operator(np.eye(2)))


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
    # budget first runs every start of a smaller one, in the same order; the
    # gap of this state stays open, so every start of either budget runs
    polar = teleport._polar_ascent

    def starts(budget):
        seen = []

        def recording(rho, u):
            seen.append(np.array(u))
            return polar(rho, u)

        monkeypatch.setattr(teleport, "_polar_ascent", recording)
        assert fef_search(rho, budget=budget, seed=4).starts_used == budget
        return np.array(seen)

    rho = validate_density(random_mixed(9, 4, seed=3).matrix, [3, 3])
    k, n = 12, 20  # both past the two deterministic starts, so Haar starts are compared
    short, long = starts(k), starts(n)
    assert short.shape == (k, 3, 3) and long.shape == (n, 3, 3)
    np.testing.assert_array_equal(short, long[:k])
    assert not np.allclose(long[k - 1], long[k])


def test_fef_search_draws_and_refines_only_the_starts_it_uses(monkeypatch):
    # starts are refined one at a time and a Haar start is drawn only when the
    # search reaches it: isotropic(3, 0.5) stops at the identity and draws
    # none of its 62 Haar starts, while the open gap of the random state runs
    # and draws them all
    calls = {}

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)

        return wrapper

    monkeypatch.setattr(teleport, "_polar_ascent", counted("polar", teleport._polar_ascent))
    monkeypatch.setattr(teleport, "haar_unitary", counted("haar", teleport.haar_unitary))
    open_gap = validate_density(random_mixed(9, 4, seed=3).matrix, [3, 3])
    for rho, budget, used in ((isotropic(3, 0.5), 64, 1), (open_gap, 20, 20)):
        calls.update(polar=0, haar=0)
        est = fef_search(rho, budget, seed=5)
        assert est.starts_used == used
        assert calls == {"polar": used, "haar": max(0, used - 2)}


def test_fef_search_rejects_a_bad_seed_at_every_budget():
    # the seed is checked before the first start, so a budget that ends
    # within the two deterministic starts, a search that stops before its first
    # Haar start, or the two-qubit closed form, which runs no start, rejects it too
    for rho in (isotropic(2, 0.5), isotropic(3, 0.5)):
        for seed in (None, -1, True, False, 1.5, "1", (1, 2), np.float64(2.0), np.bool_(True)):
            for budget in (1, 8, 16, 64):
                with pytest.raises(ValueError, match="seed"):
                    fef_search(rho, budget, seed=seed)
    with pytest.raises(ValueError, match="seed"):
        teleportation_verdict(rho, 8, seed=-1)
    open_gap = validate_density(random_mixed(9, 4, seed=3).matrix, [3, 3])
    est = fef_search(open_gap, 12, seed=7)
    for seed in (np.int64(7), np.uint8(7)):
        other = fef_search(open_gap, 12, seed=seed)
        assert (other.value, other.evaluations) == (est.value, est.evaluations)
    assert fef_search(rho, 16, seed=0).starts_used == 1


def _library_certificates(rho):
    """The search's certificate rule as an ``upper`` callable for the oracle.

    The oracle asks for a certificate at each start that sets a new best
    value below the bound; one is given while the shared budget of ``eigh``
    calls lasts, and every bound is appended to the returned list.
    """
    d = rho.dims[0]
    h = rho.matrix
    left = [teleport.DUAL_STEPS if d <= teleport.DUAL_MAX_D else 0]
    bounds = []

    def upper(u, value):
        if not left[0]:
            return None
        bound, spent = teleport._dual_bound(h, u, value, left[0])
        left[0] -= spent
        bounds.append(bound)
        return bound

    return upper, bounds


@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_fef_search_matches_one_start_at_a_time(d):
    # the library's search, certificates included, gives the starts, steps,
    # value and unitary of the independent one-start-at-a-time oracle
    for rank in (1, 2, d, d * d):
        seed = 100 * d + rank
        rho = validate_density(random_mixed(d * d, rank, seed=seed).matrix, [d, d])
        cap = _cap(rho)
        for budget in (1, 3, 8, 20):
            upper, bounds = _library_certificates(rho)
            value, best_u, evaluations, converged, used = fef_one_start_at_a_time(
                rho.matrix, _starts(rho, seed, budget), cap=cap, upper=upper
            )
            est = fef_search(rho, budget, seed=seed)
            if d == 2:
                # the closed form runs no start, and no start does better
                _assert_two_qubit_closed_form(rho, est)
                assert est.value >= value - 1e-15
                assert min([cap, *bounds]) >= est.value - 1e-15
                continue
            assert (est.evaluations, est.converged, est.starts_used) == (evaluations, converged, used)
            assert abs(est.value - value) <= 1e-15
            assert np.max(np.abs(est.best_unitary - best_u)) <= 1e-14
            assert abs(est.upper_bound - min([cap, *bounds])) <= 1e-14


def _states_at_the_cap(d):
    """States whose fully entangled fraction equals lambda_max, so that a
    search reaches the cap, at a start or after some steps."""
    # a rotation near the last Weyl operator: the identity start climbs to
    # the cap over several polar steps rather than one
    w, _, vh = np.linalg.svd(weyl_op(d, d - 1, d - 1) + 0.2 * haar_unitary(d, seed=80 + d))
    near_last_weyl = w @ vh
    iso = isotropic(d, 0.7).matrix
    states = [
        isotropic(d, 0.3),
        isotropic(d, 0.9),
        max_entangled(d),
        validate_density(np.eye(d * d) / d**2, [d, d]),
    ]
    for v in (haar_unitary(d, seed=70 + d), near_last_weyl):
        rotate = np.kron(v, np.eye(d))
        states.append(validate_density(rotate @ iso @ rotate.conj().T, [d, d]))
    if d == 2:
        states += [example4(p) for p in (0.5, 0.8, 1.0)]
        states.append(bell_diagonal(0.6, 0.6, -0.6))  # peaked on (X (x) I)|psi+>
    return states


@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_fef_search_stops_like_one_start_at_a_time(d):
    # a start at the cap ends the search for the later starts only: the
    # result is that of a one-start-at-a-time search stopped at that start
    for k, rho in enumerate(_states_at_the_cap(d)):
        seed = 10 * d + k
        cap = np.linalg.eigvalsh(rho.matrix)[-1] + _margin(rho)
        for budget in (1, 3, 8, 20):
            value, best_u, evaluations, converged, used = fef_one_start_at_a_time(
                rho.matrix, _starts(rho, seed, budget), cap=cap
            )
            est = fef_search(rho, budget, seed=seed)
            if d == 2:
                # the closed form reaches the cap, to its margin, without a start
                _assert_two_qubit_closed_form(rho, est)
                assert est.value >= value - 1e-15
                assert cap - _margin(rho) - 1e-15 <= est.upper_bound <= cap
                continue
            assert (est.evaluations, est.converged, est.starts_used) == (evaluations, converged, used)
            assert abs(est.value - value) <= 1e-15
            assert np.max(np.abs(est.best_unitary - best_u)) <= 1e-14
        assert est.value >= cap - 1e-12


@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_fef_search_isotropic_stops_at_the_identity(d):
    for p in (0.05, 0.5, 1.0):
        rho = isotropic(d, p)
        est = fef_search(rho, budget=64, seed=d)
        # at d = 2 no polar step runs: psi+ is the first magic vector, so the
        # closed form's top eigenvector gives the identity up to a phase
        assert (est.starts_used, est.evaluations) == (1, 0 if d == 2 else 1)
        assert est.value == pytest.approx(p + (1 - p) / d**2, abs=1e-12)
        cap = np.linalg.eigvalsh(rho.matrix)[-1] + _margin(rho)
        if d == 2:  # the closed form's bound is at most the cap
            assert cap - _margin(rho) - 1e-15 <= est.upper_bound <= cap
            u = est.best_unitary
            assert np.max(np.abs(u * np.conj(u[0, 0]) - np.eye(2))) <= 1e-15
        else:
            assert est.upper_bound == cap


def test_fef_search_uses_every_start_below_the_cap():
    # no start of this state reaches the cap, and no certificate closes the
    # gap: the certificates only lower the bound from lambda_max = 0.5508
    rho = validate_density(random_mixed(9, 4, seed=3).matrix, [3, 3])
    for budget, gap in ((1, 4.576453e-4), (5, 6.476789e-5), (12, 6.476789e-5)):
        est = fef_search(rho, budget, seed=3)
        assert est.starts_used == budget
        assert est.upper_bound - est.value == pytest.approx(gap, abs=1e-9)
        assert est.upper_bound < rho.spectrum[-1] - 0.2


def test_fef_search_bounds_and_identity_start():
    psi = max_entangled_ket(2)
    for seed in range(10):
        rho = _random_bipartite_2x2(seed + 50)
        est = fef_search(rho, budget=4, seed=seed)
        baseline = float(np.real(psi.conj() @ rho.matrix @ psi))
        assert est.value >= baseline - 1e-12
        assert est.value <= 1.0 + 1e-9
        _assert_two_qubit_closed_form(rho, est)


def test_fef_search_matches_two_qubit_closed_form():
    # at d = 2 the value is F and the bound meets F to its round-off margin
    for seed in range(300):
        rho = _random_bipartite_2x2(seed + 2000, rank=1 + seed % 4)
        est = fef_search(rho, budget=8, seed=seed)
        assert abs(est.value - fef_magic_2x2(rho.matrix)) <= 1e-10
        assert abs(est.upper_bound - fef_magic_2x2(rho.matrix)) <= 1e-10


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
        mean = mean_value(rho, detection_operator(u))
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


@pytest.mark.parametrize("d", [2, 3])
def test_verdict_from_estimate_reads_d_from_the_unitary(d):
    edge = d + STATISTIC_MARGIN
    value = edge / (d * d)
    above = np.nextafter(value, np.inf)
    assert d * d * value == edge < d * d * above
    for v, outcome in ((value, "INCONCLUSIVE"), (above, "USEFUL")):
        est = teleport.FefEstimate(float(v), np.eye(d, dtype=complex), 0, True, 1.0, 1)
        verdict = teleport.verdict_from_estimate(est)
        assert verdict.outcome == outcome
        assert verdict.statistic == d * d * float(v)
        assert verdict.threshold == float(d)


def test_teleportation_verdict_rejects_a_non_square_pair_like_the_search():
    rho = validate_density(np.eye(6) / 6, [2, 3])
    with pytest.raises(DimensionMismatchError) as searched:
        fef_search(rho, budget=2, seed=0)
    assert str(searched.value) == "expected a d x d bipartition with d >= 2, got dims (2, 3)"
    with pytest.raises(DimensionMismatchError) as verdict:
        teleportation_verdict(rho, budget=2, seed=0)
    assert str(verdict.value) == str(searched.value)


def test_optimal_fidelity_map():
    assert optimal_fidelity(1.0, 2) == pytest.approx(1.0)
    for d in (2, 3, 4):
        assert optimal_fidelity(1.0 / d, d) == pytest.approx(2.0 / (d + 1))
    assert optimal_fidelity(0.925, 2) == pytest.approx(0.95)
    with pytest.raises(ValueError):
        optimal_fidelity(1.2, 2)
    with pytest.raises(ValueError):
        optimal_fidelity(-0.1, 2)


def test_dual_bound_is_never_below_the_two_qubit_fef():
    # every certificate bounds F from above at any unitary, not only at fixed points
    for seed in range(300):
        rho = _random_bipartite_2x2(seed + 3000, rank=1 + seed % 4)
        h = rho.matrix
        u = haar_unitary(2, seed=seed)
        value = teleport._value(rho.matrix, u)
        fef = fef_magic_2x2(rho.matrix)
        for calls in (1, teleport.DUAL_STEPS):
            bound, spent = teleport._dual_bound(h, u, value, calls)
            assert 1 <= spent <= calls
            assert bound >= fef - 1e-12


@settings(derandomize=True, deadline=None, max_examples=60)
@given(
    d=st.integers(2, 4),
    rank=st.integers(1, 16),
    seed=st.integers(0, 2**31 - 1),
    budget=st.integers(1, 12),
)
def test_fef_search_value_is_below_its_upper_bound(d, rank, seed, budget):
    rho = validate_density(random_mixed(d * d, min(rank, d * d), seed=seed).matrix, [d, d])
    est = fef_search(rho, budget=budget, seed=seed)
    assert est.value <= est.upper_bound <= rho.spectrum[-1]


@pytest.mark.parametrize("d", [2, 3, 4])
def test_gauge_family_keeps_psi_u_an_eigenvector(d):
    # M(K) psi_U = f psi_U for every traceless Hermitian K, at a fixed point U
    rng = np.random.default_rng(40 + d)
    for rank in (1, 2, d * d):
        rho = validate_density(random_mixed(d * d, rank, seed=50 * d + rank).matrix, [d, d])
        est = fef_search(rho, budget=4, seed=rank)
        assert est.converged
        u, f = est.best_unitary, est.value
        h = rho.matrix
        psi = u.reshape(-1) / np.sqrt(d)
        for _ in range(3):
            k = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
            k = k + k.conj().T
            k -= np.trace(k).real / d * np.eye(d)
            ha, hb = teleport._gauge_pair(h, u, f, k)
            for op in (ha, hb):
                assert np.array_equal(op, op.conj().T)
                assert abs(np.trace(op)) <= 1e-12
            m = teleport._dual_matrix(h, ha, hb)
            np.testing.assert_array_equal(m, h - np.kron(ha, np.eye(d)) - np.kron(np.eye(d), hb))
            assert np.max(np.abs(m @ psi - f * psi)) <= 1e-7


def test_certificate_closes_the_gap_after_polyak_steps():
    # at K = 0 these bounds sit 6e-3 to 5e-2 above the value of start 0;
    # the Polyak steps on K bring them within GAP_TOL, so start 0 ends the search
    for d, rank in ((4, 3), (4, 4), (5, 5), (5, 25)):
        rho = validate_density(random_mixed(d * d, rank, seed=1000 * d + rank).matrix, [d, d])
        est = fef_search(rho, budget=8, seed=rank)
        assert est.starts_used == 1
        assert est.upper_bound - est.value <= teleport.GAP_TOL
        h = rho.matrix
        at_zero, _ = teleport._dual_bound(h, est.best_unitary, est.value, 1)
        assert at_zero - est.value > 5e-3


@pytest.mark.parametrize("p", [0.322, 0.342, 0.3362])
def test_fef_search_closes_the_gap_on_example4_near_one_third(p):
    # F = max(p, (1 - p) / 2) has two near branches here, where Haar starts
    # take thousands of polar steps; the two-qubit closed form runs none
    est = fef_search(example4(p), budget=8, seed=9901)
    assert est.starts_used <= 4 and est.evaluations <= 4
    assert est.value == pytest.approx(max(p, (1 - p) / 2), abs=1e-12)
    assert est.upper_bound - est.value <= teleport.GAP_TOL


@pytest.mark.parametrize("d", range(3, 13))
def test_fef_search_finds_the_top_weight_of_a_weyl_diagonal_state(d):
    # every Weyl unitary is a fixed point of the polar step here, with value
    # p_k; the spectral start is the one at argmax p_k, so start 1 reaches
    # the cap, F = max p_k, wherever that weight sits
    rng = np.random.default_rng(90 + d)
    for _ in range(4):
        weights = rng.dirichlet(np.ones(d * d))
        rho = validate_density(weyl_diagonal_matrix(weights), [d, d])
        est = fef_search(rho, budget=2, seed=d)
        assert est.starts_used <= 2
        assert abs(est.value - weights.max()) <= 1e-12
        assert est.upper_bound - est.value <= teleport.GAP_TOL


def test_fef_search_is_useful_on_a_locally_rotated_isotropic_state():
    # the identity start finds nothing here (F at the identity is 0.004);
    # the spectral start reaches F = 0.6 + 0.4 / 100 above the cutoff of
    # the certificates, so the cap decides
    d = 10
    rotate = np.kron(weyl_op(d, 9, 9), np.eye(d))
    rho = validate_density(rotate @ isotropic(d, 0.6).matrix @ rotate.conj().T, [d, d])
    est = fef_search(rho, 64, seed=1)
    assert est.starts_used == 2
    assert est.value == pytest.approx(0.604, abs=1e-12)
    assert teleportation_verdict(rho, 64, seed=1).outcome == "USEFUL"


@pytest.mark.parametrize("d", [3, 4, 5, 6])
def test_fef_search_is_invariant_under_local_unitaries(d):
    # F does not change under U_A (x) U_B; on these states the search closes
    # its gap in every frame, with the same value and verdict
    rng = np.random.default_rng(30 + d)
    fixtures = [weyl_diagonal_matrix(rng.dirichlet(np.ones(d * d))) for _ in range(3)]
    fixtures += [isotropic(d, 0.4).matrix, random_mixed(d * d, 1, seed=d).matrix]
    for k, m in enumerate(fixtures):
        rho = validate_density(m, [d, d])
        est = fef_search(rho, budget=4, seed=k)
        verdict = teleportation_verdict(rho, budget=4, seed=k).outcome
        assert est.upper_bound - est.value <= teleport.GAP_TOL
        for _ in range(2):
            local = np.kron(haar_from_rng(rng, d), haar_from_rng(rng, d))
            moved = validate_density(local @ m @ local.conj().T, [d, d])
            other = fef_search(moved, budget=4, seed=k)
            assert other.upper_bound - other.value <= teleport.GAP_TOL
            assert abs(other.value - est.value) <= 1e-12
            assert teleportation_verdict(moved, budget=4, seed=k).outcome == verdict


def test_fef_search_value_never_exceeds_its_upper_bound():
    # the cap carries a round-off margin, so a value that reaches the cap does
    # not sit an ulp above it: isotropic states on a 41-point p grid and 20
    # rank-1 and 20 rank-2 states per d, at every d = 2..8
    for d in range(2, 9):
        states = [isotropic(d, p) for p in np.linspace(0.0, 1.0, 41)]
        states += [
            validate_density(random_mixed(d * d, r, seed=500 * d + 10 * i + r).matrix, [d, d])
            for r in (1, 2)
            for i in range(20)
        ]
        for i, rho in enumerate(states):
            est = fef_search(rho, budget=8, seed=i)
            assert est.value <= est.upper_bound


@pytest.mark.parametrize("d", [7, 8])
def test_fef_search_certifies_up_to_the_dual_cutoff(d):
    # certificates run through d = DUAL_MAX_D: on this rank-2 state the
    # cap-only search leaves the gap open over all 64 starts, while the
    # certificate of start 0 closes it
    assert d <= teleport.DUAL_MAX_D
    rho = validate_density(random_mixed(d * d, 2, seed=1000 * d + 2).matrix, [d, d])
    est = fef_search(rho, 64, seed=1)
    assert est.starts_used == 1
    assert est.upper_bound - est.value <= teleport.GAP_TOL


def test_fef_search_above_the_dual_cutoff_runs_no_certificate(monkeypatch):
    # above DUAL_MAX_D the search is the cap-only search: no eigh of the
    # d^2 x d^2 dual runs, and the one-start-at-a-time form of the cap rule
    # gives the same starts, steps, value and unitary
    def refused(*args):
        raise AssertionError("a certificate ran above DUAL_MAX_D")

    monkeypatch.setattr(teleport, "_dual_bound", refused)
    d = teleport.DUAL_MAX_D + 1
    for rank in (1, 3):
        rho = validate_density(random_mixed(d * d, rank, seed=rank).matrix, [d, d])
        cap = _cap(rho)
        for budget in (1, 3):
            value, best_u, evaluations, converged, used = fef_one_start_at_a_time(
                rho.matrix, _starts(rho, rank, budget), cap=cap
            )
            est = fef_search(rho, budget, seed=rank)
            assert (est.evaluations, est.converged, est.starts_used) == (evaluations, converged, used)
            assert abs(est.value - value) <= 1e-15
            assert np.max(np.abs(est.best_unitary - best_u)) <= 1e-14
            assert est.upper_bound == cap


def _recording(dual_bound, bounds):
    """``dual_bound`` that appends every certified bound to ``bounds``."""

    def recorded(*args):
        bound, spent = dual_bound(*args)
        bounds.append(bound)
        return bound, spent

    return recorded


@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_fef_search_cap_is_lambda_max_of_the_hermitian_part(d, monkeypatch):
    # the objective Re(v^dag rho v) / d is the quadratic form of (rho + rho^dag) / 2,
    # so the cap is that matrix's lambda_max even when rho carries a Hermiticity defect
    rng = np.random.default_rng(600 + d)
    for rank in (1, 2, d, d * d):
        m = random_mixed(d * d, rank, seed=700 + 10 * d + rank).matrix.copy()
        m += 1e-12 * (rng.standard_normal(m.shape) + 1j * rng.standard_normal(m.shape))
        m /= np.trace(m).real
        rho = validate_density(m, [d, d])
        cap = np.linalg.eigvalsh((m + m.conj().T) / 2)[-1] + _margin(rho)
        with monkeypatch.context() as patch:
            patch.setattr(teleport, "DUAL_STEPS", 0)  # no certificate: the bound is the cap
            est = fef_search(rho, budget=8, seed=rank)
        if d == 2:
            # the closed form reads the same Hermitian part, and its bound is
            # capped by that part's lambda_max plus the margin
            _assert_two_qubit_closed_form(rho, est)
            assert est.upper_bound <= cap
        else:
            assert est.upper_bound == cap
        assert est.value <= est.upper_bound
        bounds = []
        with monkeypatch.context() as patch:
            patch.setattr(teleport, "_dual_bound", _recording(teleport._dual_bound, bounds))
            est = fef_search(rho, budget=8, seed=rank)
        if d == 2:
            assert bounds == []  # no certificate runs at d = 2
        else:
            assert est.upper_bound == min([cap, *bounds])
        assert est.value <= est.upper_bound


def test_two_qubit_closed_form_meets_the_euler_grid_oracle():
    # the grid maximum is a value some unitary attains, so it is at most F:
    # the closed-form bound must not fall below it, and the value must reach it
    rhos = [_random_bipartite_2x2(4000 + seed) for seed in range(40)]
    rhos += [example4(p) for p in (0.2, 1 / 3, 0.6)] + [bell_diagonal(0.6, -0.3, 0.2)]
    grid = fef_grid_oracle_2x2([rho.matrix for rho in rhos])
    for rho, best_on_grid in zip(rhos, grid):
        est = fef_search(rho, budget=8, seed=1)
        _assert_two_qubit_closed_form(rho, est)
        assert est.upper_bound >= best_on_grid - 1e-15
        assert best_on_grid - 1e-15 <= est.value <= best_on_grid + 1e-3


def test_two_qubit_closed_form_against_the_iterative_core():
    # the polar ascent from the identity and its gauge-family certificate,
    # the d = 2 path before the closed form, bound it on both sides
    identity = np.eye(2, dtype=complex)
    for seed in range(320):
        rho = _random_bipartite_2x2(5000 + seed, rank=1 + seed % 4)
        h = rho.matrix
        u, _, fixed = teleport._polar_ascent(h, identity)
        found = teleport._value(h, u)
        certified, _ = teleport._dual_bound(h, u, found, teleport.DUAL_STEPS)
        est = fef_search(rho, budget=8, seed=seed)
        _assert_two_qubit_closed_form(rho, est)
        assert est.value <= est.upper_bound <= rho.spectrum[-1]
        assert est.upper_bound >= found - 1e-15
        assert certified >= est.value - 1e-15
        assert fixed and abs(est.value - found) <= 1e-12
        mean = mean_value(rho, detection_operator(est.best_unitary))
        assert abs(mean - 4 * est.value) <= 1e-12


def test_two_qubit_closed_form_on_degenerate_maximizers():
    # the top eigenvalue of R is repeated here, so the maximizer is not
    # unique; any top eigenvector gives a unitary that attains F
    cases = [(validate_density(np.eye(4) / 4, [2, 2]), 0.25), (example4(1 / 3), 1 / 3)]
    cases += [(random_product_pure(2, 2, seed=seed), 0.5) for seed in range(10)]
    for rho, fef in cases:
        est = fef_search(rho, budget=8, seed=3)
        assert (est.evaluations, est.converged, est.starts_used) == (0, True, 1)
        assert teleport.unitarity_defect(est.best_unitary) <= 1e-12
        assert abs(est.value - fef) <= 1e-15
        assert fef - 1e-15 <= est.upper_bound <= rho.spectrum[-1] + _margin(rho)
        mean = mean_value(rho, detection_operator(est.best_unitary))
        assert abs(mean - 4 * fef) <= 1e-12


@pytest.mark.parametrize("d", [2, 3])
def test_fef_search_rejects_a_bad_budget_like_a_bad_seed(d):
    # True used to run one start and 2.0 to raise a bare TypeError; a bool
    # is no integer, and numpy integers are
    rho = isotropic(d, 0.5)
    for budget in (True, False, 2.0, np.float64(2.0), "2", None, 0, -1, np.bool_(True)):
        with pytest.raises(ValueError, match="budget"):
            fef_search(rho, budget, seed=0)
    est = fef_search(rho, 2, seed=0)
    for budget, seed in ((np.int64(2), np.int64(0)), (np.uint8(2), np.uint8(0))):
        other = fef_search(rho, budget, seed=seed)
        assert (other.value, other.upper_bound, other.starts_used) == (
            est.value, est.upper_bound, est.starts_used)
