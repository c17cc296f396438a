import json

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import hermiticity_defect, matrix_entries_one_at_a_time
from weylsep import (
    NotPositiveSemidefiniteError,
    ValidationError,
    decompose_bipartite,
    validate_density,
)
from weylsep.fileio import MATRIX_FORMAT, json_text, load_state, matrix_entries, save_state
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


def test_matrix_entries_serialize_as_the_entrywise_loop():
    # strided and reversed views, a real input, signed zeros and extremes
    rng = np.random.default_rng(7)
    m = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
    m[0, :3] = [complex(-0.0, -0.0), complex(0.0, -0.0), complex(-0.0, 0.0)]
    m[1, :3] = [complex(5e-324, -1.7976931348623157e308), 1e-300j, 0.1 + 0.2j]
    dec = decompose_bipartite(validate_density(random_mixed(6, 3, seed=4).matrix, [2, 3]))
    inputs = [m, m.T, m[::2, 1::3], m[::-1], m.real, dec.alpha, dec.beta, dec.correlation,
              np.empty((0, 0), dtype=complex)]
    for a in inputs:
        entries = matrix_entries(a)
        assert json.dumps(entries) == json.dumps(matrix_entries_one_at_a_time(a))
        assert all(type(x) is float for pair in entries for x in pair)
    assert json.dumps(matrix_entries(m[0, :1])) == "[[-0.0, -0.0]]"


_FLOATS = st.one_of(
    st.floats(),  # nan, +-inf and subnormals among them
    st.sampled_from([-0.0, 5e-324, 1e16, 9999999999999998.0, 1e-5, 1e-4, 1.7976931348623157e308]),
)
_SCALARS = st.one_of(
    _FLOATS,
    _FLOATS.map(np.float64),  # a float subclass, written by float.__repr__
    st.integers(),
    st.booleans(),
    st.none(),
    st.text(),  # non-ASCII and control characters among them
    st.sampled_from(["", "\x00\n\t\"\\", "\u00e9\u2028\U0001f600", "nan", "\n"]),
)
_KEYS = st.one_of(st.text(), st.integers(), _FLOATS, st.booleans(), st.none())
# [re, im] pairs, now and then with a member that is not a float
_PAIRS = st.lists(st.lists(st.one_of(_FLOATS, _FLOATS, _FLOATS, _SCALARS), min_size=2, max_size=2))
_VALUES = st.recursive(
    st.one_of(_SCALARS, st.lists(_FLOATS), _PAIRS),
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.lists(inner, max_size=3).map(tuple),
        st.dictionaries(st.text(), inner, max_size=4),
        st.dictionaries(_KEYS, inner, max_size=3),
    ),
    max_leaves=24,
)


@settings(derandomize=True, deadline=None, max_examples=400)
@given(value=_VALUES)
@example(value={"entries": [[0.5, -0.0], [1e16, float("nan")], [1, 2.0]], "dims": [2, 3]})
@example(value=[[0.0, 1.0], (2.0, 3.0), [4.0, 5.0, 6.0]])
@example(value=[{1.0: "a", 2.0: "b"}, {2.5: None, -1.0: True}])
@example(value={"a": {}, "b": [], "c": (), "d": [[]], "e": {"": [{}]}})
def test_json_text_is_json_dumps_with_indent_two(value):
    assert json_text(value) == json.dumps(value, indent=2)


def test_save_state_writes_json_dumps_with_indent_two(tmp_path):
    path = tmp_path / "state.json"
    pair = validate_density(random_mixed(6, 3, seed=2).matrix, [2, 3])
    for rho in (isotropic(3, 0.4), pair, validate_density(np.eye(2) / 2, [2])):
        save_state(path, rho)
        payload = {"format": MATRIX_FORMAT, "dims": list(rho.dims),
                   "entries": matrix_entries(rho.matrix)}
        assert path.read_text() == json.dumps(payload, indent=2) + "\n"


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
