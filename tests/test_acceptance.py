"""End-to-end acceptance checks at their stated tolerances.

One test per contract item; the conftest hook prints a PASS/FAIL line for
each. Two of the paper's printed numbers, the tiles-state norm 2.15 and the
mean value 3p on the example family, do not follow from the definitions
used here. The tests for those examples record the printed numbers in
comments and assert values derived independently: by oracles that share no
code with the library, or by hand from the state's definition.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import weylsep as ws
from weylsep.cli import main as cli_main
from weylsep.weyl import hermitian_coefficients, weyl_basis

from oracles import (
    fef_grid_oracle_2x2,
    gell_mann_kyfan,
    haar_from_rng,
    random_entangled_pure_matrix,
    realigned_kyfan,
    tiles_state_matrix,
    weyl_sum_operator,
)
from test_weyl import _displayed_d3_basis

SX = np.array([[0, 1], [1, 0]], dtype=complex)

# Independently computed trace norm of the correlation matrix of the
# 3x3 PPT entangled state; regression-pinned at 1e-6.
PPT_STATE_KYFAN = 2.106843264540335


def _bipartite(da, db, rank, seed):
    return ws.validate_density(
        ws.random_mixed(da * db, rank, seed=seed).matrix, [da, db]
    )


def test_weyl_algebra_laws_all_dimensions():
    for d in (2, 3, 4, 5):
        basis = weyl_basis(d)
        eye = np.eye(d)
        gram = np.einsum("kij,lij->kl", basis.ops.conj(), basis.ops)
        assert np.max(np.abs(gram - d * np.eye(d * d))) <= 1e-12
        for n, m in basis.pairs:
            op = basis.op(n, m)
            assert np.max(np.abs(op @ op.conj().T - eye)) <= 1e-12
            expected_trace = d if (n, m) == (0, 0) else 0.0
            assert abs(np.trace(op) - expected_trace) <= 1e-12
            phase = np.exp(2j * np.pi * n * m / d)
            assert np.max(np.abs(op.conj().T - phase * basis.op(-n, -m))) <= 1e-12
        for i, j in basis.pairs:
            for k, l in basis.pairs:
                phase = np.exp(2j * np.pi * ((j * k) % d) / d)
                lhs = basis.op(i, j) @ basis.op(k, l)
                rhs = phase * basis.op((i + k) % d, (j + l) % d)
                assert np.max(np.abs(lhs - rhs)) <= 1e-12
    for (n, m), expected in _displayed_d3_basis().items():
        assert np.max(np.abs(weyl_basis(3).op(n, m) - expected)) <= 1e-15


def test_bloch_length_bound_and_purity_relation():
    for d in (2, 3, 4):
        bound = np.sqrt(d - 1)
        for seed in range(1000):
            rho = ws.random_mixed(d, 1 + seed % d, seed=seed)
            vec = ws.decompose(rho)
            assert ws.bloch_length(vec) <= bound + 1e-9
            assert abs(ws.purity_from_length(vec) - ws.purity(rho)) <= 1e-10
            table = np.concatenate(([1.0], vec.coeffs))[:, None]
            assert np.max(np.abs(hermitian_coefficients(table, d, 1).imag)) < 1e-10
        for seed in range(200):
            pure = ws.random_mixed(d, 1, seed=10_000 + seed)
            assert abs(ws.bloch_length(ws.decompose(pure)) - bound) <= 1e-8


def test_decomposition_roundtrips():
    for d in (2, 3, 4, 5):
        for seed in range(10):
            rho = ws.random_mixed(d, 1 + seed % d, seed=seed)
            back = ws.reconstruct(ws.decompose(rho))
            assert np.max(np.abs(back - rho.matrix)) <= 1e-12
    for da, db in [(2, 2), (2, 3), (3, 3), (3, 4)]:
        for seed in range(10):
            rho = _bipartite(da, db, 1 + seed % (da * db), seed)
            back = ws.reconstruct_bipartite(ws.decompose_bipartite(rho))
            assert np.max(np.abs(back - rho.matrix)) <= 1e-12


def test_isotropic_norm_curve_and_scan_flip(tmp_path):
    for d in (2, 3, 4):
        for p in np.linspace(0.0, 1.0, 11):
            dec = ws.decompose_bipartite(ws.isotropic(d, float(p)))
            norm = ws.kyfan_norm(dec.correlation)
            assert abs(norm - (d * d - 1) * p) <= 1e-10
        out = tmp_path / f"iso{d}.csv"
        code = cli_main(
            ["scan", "--family", "isotropic", "--d", str(d),
             "--from", "0", "--to", "1", "--step", "0.005", "--out", str(out)]
        )
        assert code == 0
        rows = [line.split(",") for line in out.read_text().strip().splitlines()[1:]]
        first = next(float(r[0]) for r in rows if r[3] == "ENTANGLED")
        assert 0.0 < first - 1.0 / (d + 1) <= 0.005 + 1e-12


def test_tiles_state_is_ppt_yet_detected():
    rho = ws.ppt_3x3()
    assert np.linalg.eigvalsh(ws.partial_transpose(rho, 1))[0] >= -1e-10
    norm = ws.kyfan_norm(ws.decompose_bipartite(rho).correlation)
    assert abs(norm - PPT_STATE_KYFAN) <= 1e-6
    assert norm > 2.0
    assert ws.weyl_separability_criterion(rho).outcome == ws.ENTANGLED


def test_tiles_state_norm_matches_published_value():
    # The paper prints 2.15 for this norm. The definition gives
    # 2.106843..., whatever the operator basis: the realigned centred
    # operator and the Gell-Mann correlation matrix (1.404562... in trace
    # norm, 3.160265 against de Vicente's separable bound 3, the same
    # ratio 1.0534 as 2.1068 / 2) both reproduce it. No nearby variant of
    # the matrix reaches 2.15 +/- 0.01, so 2.15 stays a recorded
    # discrepancy and the test asserts the derived value.
    tiles = tiles_state_matrix()
    norm = ws.kyfan_norm(ws.decompose_bipartite(ws.ppt_3x3()).correlation)
    assert abs(norm - realigned_kyfan(tiles, 3, 3)) <= 1e-10
    assert abs(norm - gell_mann_kyfan(tiles, 3, 3)) <= 1e-10
    # the paper's claim: above the separable bound sqrt((dA-1)(dB-1)) = 2
    assert norm > 2.0


def test_bell_diagonal_norms_and_boundary(tmp_path):
    rng = np.random.default_rng(2024)
    accepted = 0
    while accepted < 200:
        t = rng.uniform(-1.0, 1.0, size=3)
        try:
            rho = ws.bell_diagonal(*t)
        except ws.NotPositiveSemidefiniteError:
            continue
        accepted += 1
        norm = ws.kyfan_norm(ws.decompose_bipartite(rho).correlation)
        assert abs(norm - np.sum(np.abs(t))) <= 1e-10

    # scan random rays from the origin; the verdict must flip within one
    # step of the |t1|+|t2|+|t3| = 1 crossing (rays that exit the state
    # set first are skipped)
    signs = np.array([[-1, -1, -1], [1, 1, -1], [1, -1, 1], [-1, 1, 1]], dtype=float)
    step = 0.005
    scanned = 0
    ray_index = 0
    while scanned < 10:
        ray_index += 1
        u = rng.standard_normal(3)
        u /= np.linalg.norm(u)
        s_flip = 1.0 / np.sum(np.abs(u))
        slopes = signs @ u
        s_psd = min(-1.0 / s for s in slopes if s < 0)
        if s_psd < s_flip + 5 * step:
            continue
        scanned += 1
        out = tmp_path / f"ray{ray_index}.csv"
        stop = min(s_psd * 0.999, s_flip + 10 * step)
        code = cli_main(
            ["scan", "--family", "bell-diagonal",
             f"--direction={u[0]},{u[1]},{u[2]}",
             "--from", "0", "--to", str(stop), "--step", str(step),
             "--out", str(out)]
        )
        assert code == 0
        rows = [line.split(",") for line in out.read_text().strip().splitlines()[1:]]
        first = next(float(r[0]) for r in rows if r[3] == "ENTANGLED")
        assert 0.0 < first - s_flip <= step + 1e-12


def test_product_detection_both_directions():
    dims = [(2, 2), (2, 3), (3, 3), (3, 4)]
    for i in range(500):
        da, db = dims[i % 4]
        rho = ws.random_product_pure(da, db, seed=i)
        result = ws.product_test(rho)
        assert result is not None
        alpha, beta = result
        dec = ws.decompose_bipartite(rho)
        assert np.linalg.norm(dec.correlation - np.outer(alpha, beta)) <= 1e-10
    for i in range(500):
        da, db = dims[i % 4]
        rho = ws.validate_density(random_entangled_pure_matrix(da, db, i), [da, db])
        assert ws.product_test(rho) is None


def test_separable_mixtures_never_flagged():
    for da, db in [(2, 2), (2, 3), (3, 3)]:
        for seed in range(1000):
            rho = ws.random_separable(da, db, 1 + seed % 6, seed=seed)
            verdict = ws.weyl_separability_criterion(rho)
            assert verdict.outcome != ws.ENTANGLED


def test_example_family_mean_value_published_formula():
    # The paper prints 3p for the mean of the shift-built operator on
    # p|phi-><phi-| + (1-p)|00><00|. By hand: (U (x) I)|psi+> has
    # components U[a, b] / sqrt(2), and phi- = (|01> - |10>) / sqrt(2), so
    # <O_U> = 4 <psi+|(U^dag (x) I) rho (U (x) I)|psi+> is
    #     p |U01 - U10|^2 + 2 (1 - p) |U00|^2.
    # That is 0 for the shift at every p. The four Weyl unitaries give
    # 2(1-p), 0, 2(1-p) and 4p, so none gives 3p under any phase
    # convention; 3p stays a recorded discrepancy. W(1,1) reaches 4p,
    # which is 4F for p >= 1/3 with F = max(p, (1-p)/2).
    def closed_form(u, p):
        return p * abs(u[0, 1] - u[1, 0]) ** 2 + 2 * (1 - p) * abs(u[0, 0]) ** 2

    w11 = np.array([[0, 1], [-1, 0]], dtype=complex)
    rng = np.random.default_rng(4)
    haar = [haar_from_rng(rng, 2) for _ in range(5)]
    shift_op = ws.detection_operator(SX)
    w11_op = ws.detection_operator(w11)
    haar_ops = [ws.detection_operator(u) for u in haar]
    for p in (0.0, 0.25, 0.5, 0.75, 1.0):
        rho = ws.example4(p)
        assert abs(ws.mean_value(rho, shift_op)) <= 1e-10
        assert abs(ws.mean_value(rho, w11_op) - 4 * p) <= 1e-10
        best = 4 * max(p, (1 - p) / 2)
        for u, op in zip(haar, haar_ops):
            mean = ws.mean_value(rho, op)
            assert abs(mean - closed_form(u, p)) <= 1e-10
            assert mean <= best + 1e-10


def test_teleportation_verdicts_and_search_quality():
    # F = max(p, (1-p)/2) exceeds 1/2 exactly when p > 1/2; p = 0.6 sits
    # between that threshold and the 2/3 of the printed mean value 3p
    for p in (0.0, 0.25, 0.5, 0.6, 0.75, 1.0):
        verdict = ws.teleportation_verdict(ws.example4(p), budget=8, seed=11)
        expected = "USEFUL" if p > 1 / 2 else "INCONCLUSIVE"
        assert verdict.outcome == expected, (p, verdict)

    est = ws.fef_search(ws.max_entangled(2), budget=8, seed=11)
    assert abs(est.value - 1.0) <= 1e-8

    rhos = [_bipartite(2, 2, 1 + i % 4, 1000 + i) for i in range(50)]
    grid = fef_grid_oracle_2x2([r.matrix for r in rhos])
    for i, rho in enumerate(rhos):
        found = ws.fef_search(rho, budget=16, seed=i).value
        assert found >= grid[i] - 1e-4


def test_detection_operator_two_route_identity():
    psi_cache = {d: ws.max_entangled_ket(d) for d in (2, 3, 4)}
    for d in (2, 3, 4):
        psi = psi_cache[d]
        for seed in range(100):
            u = ws.haar_unitary(d, seed=seed)
            op = ws.detection_operator(u)
            rotated = np.kron(u, np.eye(d)) @ psi
            closed = d * d * np.outer(rotated, rotated.conj())
            assert np.max(np.abs(op.matrix - closed)) <= 1e-10
            assert np.max(np.abs(op.matrix - weyl_sum_operator(u))) <= 1e-10
        rho = _bipartite(d, d, d, seed=d)
        op = ws.detection_operator(ws.haar_unitary(d, seed=7))
        raw = complex(np.trace(rho.matrix @ op.matrix))
        assert abs(raw.imag) <= 1e-10


def _run_cli(*args):
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-m", "weylsep", *args],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
    )


def test_cli_contract(tmp_path):
    proc = _run_cli("check-sep", "--state", "isotropic:d=3,p=0.3", "--no-timestamp")
    assert proc.returncode == 0
    weyl = json.loads(proc.stdout)["verdicts"][0]
    assert weyl["outcome"] == "ENTANGLED"
    assert weyl["statistic"] == pytest.approx(2.4, abs=1e-9)
    assert weyl["threshold"] == pytest.approx(2.0)

    proc = _run_cli("check-sep", "--state", "ppt-3x3", "--no-timestamp")
    assert proc.returncode == 0
    by_name = {v["criterion"]: v for v in json.loads(proc.stdout)["verdicts"]}
    assert by_name["weyl-correlation"]["outcome"] == "ENTANGLED"
    assert by_name["ppt"]["outcome"] == "INCONCLUSIVE"

    proc = _run_cli(
        "check-sep", "--state", "bell-diagonal:t=0.2,0.2,0.2", "--no-timestamp"
    )
    assert proc.returncode == 0
    weyl = json.loads(proc.stdout)["verdicts"][0]
    assert weyl["outcome"] == "INCONCLUSIVE"
    assert weyl["statistic"] == pytest.approx(0.6, abs=1e-9)

    proc = _run_cli(
        "check-tele", "--state", "example4:p=0.8", "--seed", "7", "--no-timestamp"
    )
    assert proc.returncode == 0
    verdict = json.loads(proc.stdout)["verdicts"][0]
    assert verdict["outcome"] == "USEFUL"
    # a certified lower bound on 4F = 4 * 0.8
    assert 3.2 - 1e-6 <= verdict["statistic"] <= 3.2 + 1e-9

    proc = _run_cli(
        "check-tele", "--state", "example4:p=0.5", "--seed", "7", "--no-timestamp"
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["verdicts"][0]["outcome"] == "INCONCLUSIVE"

    assert _run_cli("basis", "--d", "1").returncode == 2

    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    args = ("scan", "--family", "isotropic", "--d", "3",
            "--from", "0", "--to", "1", "--step", "0.005")
    assert _run_cli(*args, "--out", str(a)).returncode == 0
    assert _run_cli(*args, "--out", str(b)).returncode == 0
    assert a.read_bytes() == b.read_bytes()
