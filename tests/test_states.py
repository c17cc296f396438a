import itertools

import numpy as np
import pytest

from oracles import (
    bell_diagonal_matrix_by_terms,
    bell_weights,
    example4_spectrum,
    isotropic_matrix_by_terms,
    isotropic_spectrum,
)
from weylsep import (
    ENTANGLED,
    NotPositiveSemidefiniteError,
    ValidationError,
    WrongTraceError,
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
from weylsep.bipartite import weyl_diagonal_singular_values
from weylsep.linalg import TRACE_TOL, hermitian_part
from weylsep.states import (
    bell_diagonal,
    bell_diagonal_coefficients,
    bell_diagonal_matrix,
    example4,
    haar_unitary,
    isotropic,
    isotropic_coefficients,
    isotropic_matrix,
    max_entangled,
    max_entangled_ket,
    ppt_3x3,
    random_mixed,
    random_product_pure,
    random_separable,
)
from weylsep.linalg import validate_density


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


def _same_bytes(a: np.ndarray, b: np.ndarray) -> bool:
    """Whether two complex arrays have the same shape and bytes, compared without a copy."""
    return a.shape == b.shape and np.array_equal(a.view(np.uint64), b.view(np.uint64))


@pytest.mark.parametrize("d", range(2, 33))
def test_isotropic_matrix_is_the_term_by_term_sum_byte_for_byte(d):
    edges = [0.0, -0.0, 1.0, 1 / (d + 1), 5e-324, 1 - 2**-53]
    ps = np.concatenate([edges, np.random.default_rng(d).uniform(0.0, 1.0, 6)])
    for p in ps.tolist():
        assert _same_bytes(isotropic_matrix(d, p), isotropic_matrix_by_terms(d, p))


@pytest.mark.parametrize("d", [2, 3, 4, 7])
def test_max_entangled_is_the_isotropic_state_at_one(d):
    rho, iso = max_entangled(d), isotropic(d, 1.0)
    assert rho.dims == iso.dims == (d, d)
    assert rho.matrix.tobytes() == iso.matrix.tobytes()
    assert rho.spectrum.tobytes() == iso.spectrum.tobytes()
    assert rho._weyl_diagonal.tobytes() == iso._weyl_diagonal.tobytes()
    assert not rho._weyl_diagonal.flags.writeable


#: Signed zeros, subnormals, the unit, thirds, neighbours of 1 and values whose sums overflow.
_EDGE_VALUES = [0.0, -0.0, 0.3, -0.3, 1.0, -1.0, 1 / 3, -1 / 3, 5e-324, -5e-324, 1.5e-323,
                2.2250738585072014e-308, 1e308, -1e308, 1.7976931348623157e308, 1e-17, -1e-17, 2.0,
                1.0000000000000002, 0.9999999999999999]


def test_bell_diagonal_matrix_is_the_term_by_term_sum_byte_for_byte():
    # warnings are errors in this suite, so neither route may warn
    points = itertools.product(_EDGE_VALUES, repeat=3)
    rng = np.random.default_rng(23)
    ts = rng.uniform(-1.0, 1.0, size=(35, 3))
    ts[:7] = np.round(ts[:7], 1)  # sums that cancel to zero
    for t in [*points, *ts.tolist()]:
        assert bell_diagonal_matrix(*t).tobytes() == bell_diagonal_matrix_by_terms(*t).tobytes()


def test_coefficient_stacks_are_the_single_states_coefficients():
    ps = np.array([0.0, -0.0, 0.25, 1 / 3, 1.0])
    for d in (2, 3, 5):
        stack = isotropic_coefficients(d, ps)
        assert stack.shape == (5, d * d)
        values = weyl_diagonal_singular_values(stack)
        for p, row, row_values in zip(ps.tolist(), stack, values):
            assert row.tobytes() == isotropic_coefficients(d, p).tobytes()
            assert row_values.tobytes() == weyl_diagonal_singular_values(row).tobytes()
            assert row_values.sum() == weyl_diagonal_singular_values(row).sum()
        assert not np.signbit(isotropic_coefficients(d, -0.0)).any()
        grid = ps[:4].reshape(2, 2)
        assert isotropic_coefficients(d, grid).tobytes() == isotropic_coefficients(d, ps[:4]).tobytes()
        assert isotropic_coefficients(d, grid).shape == (2, 2, d * d)
    ts = np.array(list(itertools.product([0.0, -0.0, 0.3, -0.7], repeat=3))).T
    stack = bell_diagonal_coefficients(*ts)
    values = weyl_diagonal_singular_values(stack)
    for t, row, row_values in zip(ts.T.tolist(), stack, values):
        assert row.tobytes() == bell_diagonal_coefficients(*t).tobytes()
        assert row.tolist() == [1.0, t[0], t[2], -t[1]]
        assert not np.signbit(row[row == 0]).any()  # no -0.0 coefficient
        assert row_values.tobytes() == weyl_diagonal_singular_values(row).tobytes()
        assert row_values.tolist() == sorted(map(abs, t), reverse=True)


def _assert_hermitian_bit_for_bit(m):
    np.testing.assert_array_equal(m, m.conj().T)
    assert hermitian_part(m).tobytes() == m.tobytes()


@pytest.mark.parametrize("d", [2, 3, 4, 5, 6, 8])
def test_isotropic_matrix_is_hermitian_bit_for_bit(d):
    # the certified states skip validation, which would store the Hermitian part
    for ps in (np.linspace(0.0, 1.0, 101), np.arange(0.0, 1.0, 0.013), np.array([1.0])):
        for p in ps.tolist():
            _assert_hermitian_bit_for_bit(isotropic_matrix(d, p))


def test_bell_diagonal_matrix_is_hermitian_bit_for_bit():
    rng = np.random.default_rng(19)
    for _ in range(200):
        ray = rng.standard_normal(3) * rng.choice([1e-3, 1.0, 1e3])
        for s in rng.uniform(-1.0, 1.0, size=rng.integers(1, 40)).tolist():
            _assert_hermitian_bit_for_bit(bell_diagonal_matrix(*(s * t for t in ray)))
    for ray in ((1.0, 1.0, -1.0), (-1.0, -1.0, -1.0), (1.0, 1.0, 1.0), (-0.0, -0.0, -0.0)):
        for s in np.linspace(-1.0, 1.0, 21).tolist():
            _assert_hermitian_bit_for_bit(bell_diagonal_matrix(*(s * t for t in ray)))


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


def test_ppt_3x3_is_built_once_and_stays_read_only():
    rho = ppt_3x3()
    assert ppt_3x3() is rho
    assert not rho.matrix.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        rho.matrix[0, 0] = 0


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
    # every constructor, validated or certified in closed form, sets the dims
    assert isotropic(2, 0.5).dims == (2, 2)
    assert bell_diagonal(0.2, 0.2, 0.2).dims == (2, 2)
    assert max_entangled(4).dims == (4, 4)
    assert ppt_3x3().dims == (3, 3)
    assert example4(0.3).dims == (2, 2)
    assert random_mixed(5, 3, seed=1).dims == (5,)
    assert random_separable(2, 3, 2, seed=1).dims == (2, 3)
    assert random_product_pure(2, 2, seed=1).dims == (2, 2)


_TETRAHEDRON = np.array([(-1, -1, -1), (-1, 1, 1), (1, -1, 1), (1, 1, -1)], dtype=float)


def _bell_points():
    """Points of the tetrahedron: its vertices, edges, faces and inside, as convex weights."""
    rng = np.random.default_rng(26)
    weights = list(np.eye(4)) + [np.full(4, 0.25)]
    for zeros in (2, 1, 0):  # edges, faces, inside
        for _ in range(60):
            w = rng.dirichlet(np.ones(4))
            w[rng.permutation(4)[:zeros]] = 0.0
            weights.append(w / w.sum())
    return [tuple((w @ _TETRAHEDRON).tolist()) for w in weights]


def _family_states():
    """``(state, matrix it is built from, closed-form spectrum)`` for each named family."""
    for d in range(2, 9):
        for p in (0.0, 1.0 / (d + 1), 1.0, 0.37):
            yield isotropic(d, p), isotropic_matrix(d, p), isotropic_spectrum(d, p)
        yield max_entangled(d), isotropic_matrix(d, 1.0), isotropic_spectrum(d, 1.0)
    for p in np.linspace(0.0, 1.0, 21).tolist():
        yield example4(p), None, example4_spectrum(p)
    for t in _bell_points():
        yield bell_diagonal(*t), bell_diagonal_matrix(*t), bell_weights(t)


def test_named_families_are_what_validation_returns():
    # the families skip validation: each state must be a fixed point of it,
    # the validation of the matrix it was built from, and read-only
    for rho, built, spectrum in _family_states():
        checked = validate_density(rho.matrix, rho.dims)
        assert checked.dims == rho.dims and not rho.matrix.flags.writeable
        assert checked.matrix.tobytes() == rho.matrix.tobytes()
        assert checked.matrix.strides == rho.matrix.strides
        if built is not None:
            assert validate_density(built, rho.dims).matrix.tobytes() == rho.matrix.tobytes()
        assert checked.spectrum.tobytes() == rho.spectrum.tobytes()
        np.testing.assert_allclose(rho.spectrum, spectrum, rtol=0, atol=1e-15)


def test_named_families_take_numpy_parameters_as_python_ones():
    for d in (np.int64(3), 3):
        assert isotropic(d, np.float64(0.3)).matrix.tobytes() == isotropic(3, 0.3).matrix.tobytes()
        assert max_entangled(d).dims == (3, 3) and type(max_entangled(d).dims[0]) is int
    # a 0-d array or a float32 is made a float on entry, to the same state
    assert isotropic(2, np.array(0.3)).matrix.tobytes() == isotropic(2, 0.3).matrix.tobytes()
    t = np.float32(0.25)
    assert bell_diagonal(t, t, t).matrix.tobytes() == bell_diagonal(0.25, 0.25, 0.25).matrix.tobytes()


@pytest.mark.parametrize("dtype", [np.float32, np.float16])
def test_named_families_take_narrow_floats_as_their_float64_values(dtype):
    # 1.0 - np.float32(p) stays float32 under NEP 50, which the closed forms'
    # proofs do not allow for: each family must build the state of float(p)
    for p in np.linspace(0.0, 1.0, 201):
        x = dtype(p)
        states = [(isotropic(d, x), isotropic(d, float(x))) for d in range(2, 9)]
        states.append((example4(x), example4(float(x))))
        t = dtype(p / 3)
        states.append((bell_diagonal(t, t, -t), bell_diagonal(float(t), float(t), -float(t))))
        for rho, expected in states:
            assert abs(np.trace(rho.matrix) - 1.0) <= TRACE_TOL
            assert rho.matrix.tobytes() == expected.matrix.tobytes()


@pytest.mark.parametrize("bad", [0.5j, "0.5", np.array([0.5, 0.5])], ids=["complex", "str", "array"])
@pytest.mark.parametrize("make, slot", [
    (lambda x: isotropic(3, x), "mixing"),
    (example4, "mixing"),
    (lambda x: bell_diagonal(x, 0.0, 0.0), "correlation"),
    (lambda x: bell_diagonal(0.0, 0.0, x), "correlation"),
], ids=["isotropic", "example4", "bell-diagonal-t1", "bell-diagonal-t3"])
def test_named_families_reject_a_parameter_that_is_not_a_real_scalar(make, slot, bad):
    with pytest.raises(ValidationError) as info:
        make(bad)
    assert str(info.value) == f"{slot} parameter must be a real scalar, got {bad!r}"


# messages of the parameter checks, and of validation from before the families skipped it
_REJECTIONS = [
    (bell_diagonal, (1, 1, 1), NotPositiveSemidefiniteError,
     "negative eigenvalue -5.000e-01 below -1e-10"),
    (bell_diagonal, (0.8, 0.8, 0), NotPositiveSemidefiniteError,
     "negative eigenvalue -1.500e-01 below -1e-10"),
    (bell_diagonal, (1e300, -1e300, 0), NotPositiveSemidefiniteError,
     "negative eigenvalue -5.000e+299 below -1e-10"),
    (bell_diagonal, (0, 0, 3e6), NotPositiveSemidefiniteError,
     "negative eigenvalue -7.500e+05 below -1e-10"),
    (bell_diagonal, (1e308, 1e308, 1e308), ValidationError, "matrix contains non-finite entries"),
    (bell_diagonal, (0, 0, 1e17), WrongTraceError, "trace is 0+0.000e+00j, expected 1"),
    (bell_diagonal, (float("nan"), 0, 0), ValidationError,
     "correlation parameters must be finite, got (nan, 0, 0)"),
    (bell_diagonal, (0, float("inf"), 0), ValidationError,
     "correlation parameters must be finite, got (0, inf, 0)"),
    (bell_diagonal, (0.1j, 0, 0), ValidationError,
     "correlation parameter must be a real scalar, got 0.1j"),
    (isotropic, (3, -0.1), ValidationError, "mixing parameter must lie in [0, 1], got -0.1"),
    (isotropic, (3, 1.2), ValidationError, "mixing parameter must lie in [0, 1], got 1.2"),
    (isotropic, (3, float("nan")), ValidationError, "mixing parameter must lie in [0, 1], got nan"),
    (isotropic, (1, 0.5), ValidationError, "dimension must be >= 2, got 1"),
    (isotropic, (True, 0.5), ValidationError, "dimension must be >= 2, got True"),
    (isotropic, (2, np.array([0.5])), ValidationError,
     "mixing parameter must be a real scalar, got array([0.5])"),
    (example4, (-0.1,), ValidationError, "mixing parameter must lie in [0, 1], got -0.1"),
    (example4, (1.2,), ValidationError, "mixing parameter must lie in [0, 1], got 1.2"),
    (example4, (float("nan"),), ValidationError, "mixing parameter must lie in [0, 1], got nan"),
    (max_entangled, (1,), ValidationError, "dimension must be >= 2, got 1"),
]


@pytest.mark.parametrize("make, args, error, message", _REJECTIONS)
def test_named_family_rejections_keep_their_messages(make, args, error, message):
    with pytest.raises(error) as info:
        make(*args)
    assert str(info.value) == message


def test_an_int_beyond_the_float_range_is_infinite():
    huge = 2**1024
    for make in (lambda: isotropic(3, huge), lambda: example4(huge)):
        with pytest.raises(ValidationError) as info:
            make()
        assert str(info.value) == f"mixing parameter must lie in [0, 1], got {huge}"
    with pytest.raises(ValidationError) as info:
        bell_diagonal(-huge, 0, 0)
    assert str(info.value) == f"correlation parameters must be finite, got ({-huge}, 0, 0)"


@pytest.mark.parametrize("make", [isotropic, max_entangled, max_entangled_ket])
def test_a_float_dimension_fails_after_its_integer_was_cached(make):
    # the dimension is checked before any per-d cache, which keys
    # np.int64(2) and 2.0 alike unless it is typed
    args = (0.5,) if make is isotropic else ()
    make(np.int64(2), *args)
    for d in (2.0, np.float64(3.0), "2", None):
        with pytest.raises(ValidationError) as info:
            make(d, *args)
        assert info.type is ValidationError
        assert str(info.value) == f"dimension must be an integer, got {d!r}"


@pytest.mark.parametrize("face", range(4))
def test_bell_weight_boundary_is_the_spectral_rule(face):
    # a point of one face, moved outward along its normal until its Bell
    # weight is w: rejected at -2e-10, accepted at -5e-11, as by the spectrum
    rng = np.random.default_rng(face)
    w = rng.dirichlet(np.ones(4))
    w[face] = 0.0
    point = w / w.sum() @ _TETRAHEDRON
    vertex = _TETRAHEDRON[face]  # its Bell weight is (1 + vertex . t) / 4, 0 on the face
    for weight, accepted in ((-2e-10, False), (-5e-11, True)):
        t = (point + 4 * weight / 3 * vertex).tolist()
        assert bell_weights(t)[0] == pytest.approx(weight, rel=1e-3)
        if accepted:
            assert bell_diagonal(*t).dims == (2, 2)
        else:
            with pytest.raises(NotPositiveSemidefiniteError, match="negative eigenvalue -2.0"):
                bell_diagonal(*t)
