"""Matrix file format and helpers shared by the CLI.

States travel as versioned JSON: subsystem dimensions plus a row-major
list of ``[re, im]`` entry pairs. Small, diffable, and loadable by any
JSON parser.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

from .linalg import DensityMatrix, ValidationError, _is_count, validate_density

MATRIX_FORMAT = "weylsep-matrix-v1"


def matrix_entries(m: np.ndarray) -> list[list[float]]:
    """Row-major ``[re, im]`` pairs for JSON output."""
    flat = np.asarray(m, dtype=complex).reshape(-1)
    return [[float(z.real), float(z.imag)] for z in flat]


def save_state(path, rho: DensityMatrix) -> None:
    payload = {
        "format": MATRIX_FORMAT,
        "dims": [int(d) for d in rho.dims],
        "entries": matrix_entries(rho.matrix),
    }
    Path(path).write_text(json.dumps(payload, indent=2) + "\n")


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
