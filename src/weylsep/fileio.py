"""Matrix file format and helpers shared by the CLI.

States travel as versioned JSON: subsystem dimensions plus a row-major
list of ``[re, im]`` entry pairs. Small, diffable, and loadable by any
JSON parser.

Every indented JSON text the program writes, a state file here and a
report on stdout, is :func:`json_text`: byte for byte
``json.dumps(value, indent=2)``, which runs the pure-Python encoder
whenever ``indent`` is set. :func:`json_text` writes dicts with ``str``
keys, lists and tuples, strings, ints and floats itself, a list of
floats as one join and a list of ``[float, float]`` lists as one
f-string per pair. Anything else goes to ``json.JSONEncoder(indent=2)``,
and the lines of its text are indented to where the value sits: ``nan``
and ``inf`` (whose reprs are the only float texts with an ``n``),
``None`` and bools, an empty container, a dict with a non-``str`` key,
and any other type, subclasses included (a float subclass inside a list
of floats is written with ``float.__repr__``, as ``json`` writes it). A
value that contains itself raises ``RecursionError`` where ``json``
raises ``ValueError``.
"""

from __future__ import annotations

import json
import math
from json.encoder import encode_basestring_ascii
from pathlib import Path

import numpy as np

from .linalg import DensityMatrix, ValidationError, _is_count, validate_density

MATRIX_FORMAT = "weylsep-matrix-v1"

_ENCODER = json.JSONEncoder(indent=2)


def matrix_entries(m: np.ndarray) -> list[list[float]]:
    """Row-major ``[re, im]`` pairs for JSON output, of any array including a strided view."""
    flat = np.asarray(m, dtype=complex).reshape(-1)
    return np.stack((flat.real, flat.imag), axis=-1).tolist()


def _number_rows(items, pad: str):
    """The lines of a list of floats or of ``[float, float]`` lists, or None for any other list.

    None also for a ``nan`` or ``inf`` member, whose ``float.__repr__`` is
    the only float text that holds an ``n``; the caller walks that list.
    """
    rep = float.__repr__
    try:
        text = f",\n{pad}".join(map(rep, items))
    except TypeError:
        if not all(type(pair) is list for pair in items):
            return None
        inner = "\n" + pad + "  "
        try:
            pairs = [f"[{inner}{rep(a)},{inner}{rep(b)}\n{pad}]" for a, b in items]
            text = f",\n{pad}".join(pairs)
        except (TypeError, ValueError):
            return None
    return None if "n" in text else text


def json_text(value) -> str:
    """Exactly ``json.dumps(value, indent=2)``; the module docstring says which values it writes."""
    return _text(value, "")


def _text(value, pad: str) -> str:
    """The text of ``value`` as :func:`json_text` writes it, placed after ``pad``'s indent."""
    kind = type(value)
    if kind is str:
        return encode_basestring_ascii(value)
    inner = pad + "  "
    if kind is dict and value and all(type(key) is str for key in value):
        items = [f"\n{inner}{encode_basestring_ascii(k)}: {_text(v, inner)}"
                 for k, v in value.items()]
        return "{" + ",".join(items) + f"\n{pad}}}"
    if (kind is list or kind is tuple) and value:
        text = _number_rows(value, inner)
        if text is None:
            text = f",\n{inner}".join([_text(v, inner) for v in value])
        return f"[\n{inner}{text}\n{pad}]"
    if kind is int or kind is float:
        text = kind.__repr__(value)
        if "n" not in text:
            return text
    return _ENCODER.encode(value).replace("\n", "\n" + pad)


def save_state(path, rho: DensityMatrix) -> None:
    payload = {
        "format": MATRIX_FORMAT,
        "dims": [int(d) for d in rho.dims],
        "entries": matrix_entries(rho.matrix),
    }
    Path(path).write_text(json_text(payload) + "\n")


def load_state(path) -> DensityMatrix:
    """Parse and validate a state file; raises ValidationError on any defect."""
    try:
        payload = json.loads(Path(path).read_text(encoding="utf-8"))
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise ValidationError(f"not valid JSON: {exc}") from exc
    except RecursionError as exc:  # the decoder recurses once per nesting level
        raise ValidationError(f"JSON nested too deeply: {exc}") from exc
    if not isinstance(payload, dict):
        raise ValidationError("top-level JSON value must be an object")
    if payload.get("format") != MATRIX_FORMAT:
        raise ValidationError(
            f"unsupported format tag {payload.get('format')!r}, expected {MATRIX_FORMAT!r}"
        )
    dims = payload.get("dims")
    if not isinstance(dims, list) or not dims or not all(_is_count(d, 1) for d in dims):
        raise ValidationError(f"dims must be a list of positive integers, got {dims!r}")
    entries = payload.get("entries")
    total = math.prod(dims)
    if not isinstance(entries, list) or len(entries) != total * total:
        raise ValidationError(
            f"entries must hold {total * total} [re, im] pairs, got "
            f"{len(entries) if isinstance(entries, list) else type(entries).__name__}"
        )
    try:
        flat = np.array([complex(re, im) for re, im in entries])
    except (TypeError, ValueError, OverflowError) as exc:
        raise ValidationError(f"malformed entry pair: {exc}") from exc
    if any(type(re) is bool or type(im) is bool for re, im in entries):  # complex(True) is 1
        raise ValidationError("malformed entry pair: true and false are not numbers")
    return validate_density(flat.reshape(total, total), dims)
