import json

import numpy as np
import pytest

from weylsep import NotPositiveSemidefiniteError, ValidationError, validate_density
from weylsep.fileio import MATRIX_FORMAT, load_state, matrix_entries, save_state
from weylsep.linalg import hermiticity_defect
from weylsep.states import isotropic, random_mixed


def test_save_load_roundtrip(tmp_path):
    # the second state is accepted with a Hermiticity defect inside tolerance
    rng = np.random.default_rng(5)
    m = random_mixed(6, 3, seed=2).matrix.copy()
    m += 1e-12 * (rng.standard_normal(m.shape) + 1j * rng.standard_normal(m.shape))
    m /= np.trace(m).real
    assert hermiticity_defect(m) > 0
    for rho in (isotropic(3, 0.4), validate_density(m, [2, 3])):
        path = tmp_path / "state.json"
        save_state(path, rho)
        back = load_state(path)
        assert back.dims == rho.dims
        np.testing.assert_array_equal(back.matrix, rho.matrix)
        np.testing.assert_array_equal(back.matrix, back.matrix.conj().T)
        np.testing.assert_array_equal(back.spectrum, rho.spectrum)


def test_matrix_entries_layout():
    m = np.array([[1, 2j], [3, 4]], dtype=complex)
    assert matrix_entries(m) == [[1.0, 0.0], [0.0, 2.0], [3.0, 0.0], [4.0, 0.0]]


def test_load_rejects_wrong_format_tag(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"format": "nope", "dims": [2], "entries": []}))
    with pytest.raises(ValidationError, match="format"):
        load_state(path)


def test_load_rejects_wrong_entry_count(tmp_path):
    path = tmp_path / "short.json"
    payload = {"format": MATRIX_FORMAT, "dims": [2], "entries": [[1.0, 0.0]]}
    path.write_text(json.dumps(payload))
    with pytest.raises(ValidationError, match="entries"):
        load_state(path)


def test_load_rejects_truncated_json(tmp_path):
    path = tmp_path / "trunc.json"
    save_state(path, random_mixed(2, 2, seed=1))
    path.write_text(path.read_text()[:40])
    with pytest.raises(ValidationError, match="JSON"):
        load_state(path)


def test_load_runs_density_validation(tmp_path):
    path = tmp_path / "npsd.json"
    payload = {
        "format": MATRIX_FORMAT,
        "dims": [2],
        "entries": [[1.5, 0.0], [0.0, 0.0], [0.0, 0.0], [-0.5, 0.0]],
    }
    path.write_text(json.dumps(payload))
    with pytest.raises(NotPositiveSemidefiniteError):
        load_state(path)


def test_load_rejects_bad_dims(tmp_path):
    path = tmp_path / "dims.json"
    payload = {"format": MATRIX_FORMAT, "dims": [2, 0], "entries": []}
    path.write_text(json.dumps(payload))
    with pytest.raises(ValidationError, match="dims"):
        load_state(path)


@pytest.mark.parametrize(
    "dims, entries, match",
    [
        ([3, 6148914691236517206], [[0.5, 0], [0, 0], [0, 0], [0.5, 0]], "entries"),
        ([4294967296, 4294967296], [], "entries"),
        ([True, True], [[1, 0]], "dims"),
        ([1], [[10**400, 0]], "entry pair"),
        ([1], [[True, False]], "entry pair"),
    ],
    ids=[
        "dims-wrap-int64", "dims-square-wraps-to-0", "bool-dims", "int-overflows-float",
        "bool-entry",
    ],
)
def test_load_rejects_files_that_overflow(tmp_path, dims, entries, match):
    path = tmp_path / "overflow.json"
    path.write_text(json.dumps({"format": MATRIX_FORMAT, "dims": dims, "entries": entries}))
    with pytest.raises(ValidationError, match=match):
        load_state(path)
