"""JSON matrix files.

Schema: {"rows": r, "cols": c, "data": [[re, im], ...]} with data in
row-major order; r and c are JSON integers >= 1 and re, im JSON numbers
(booleans are neither). Floats are serialized with shortest round-trip decimal
representation (up to 17 significant digits), so write followed by read
reproduces every entry bit-exactly. `write_matrix` refuses what
`read_matrix` would: a matrix with an empty side or a non-finite entry.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

from .errors import MatrixFileError


def read_matrix(path) -> np.ndarray:
    path = Path(path)
    try:
        payload = json.loads(path.read_text())
    except OSError as exc:
        raise MatrixFileError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise MatrixFileError(f"malformed JSON in {path}: {exc}") from exc
    if not isinstance(payload, dict):
        raise MatrixFileError(f"{path}: expected a JSON object")
    try:
        rows, cols, data = payload["rows"], payload["cols"], payload["data"]
    except KeyError as exc:
        raise MatrixFileError(f"{path}: missing rows/cols/data") from exc
    # type(), not isinstance(): JSON true and false load as bool, an int subclass
    if not all(type(n) is int and n >= 1 for n in (rows, cols)):
        raise MatrixFileError(f"{path}: rows and cols must be integers >= 1")
    if not isinstance(data, list) or len(data) != rows * cols:
        raise MatrixFileError(
            f"{path}: data must hold rows*cols = {rows * cols} entries"
        )
    out = np.empty((rows, cols), dtype=np.complex128)
    for k, entry in enumerate(data):
        if (not isinstance(entry, list) or len(entry) != 2
                or not all(type(v) in (int, float) for v in entry)):
            raise MatrixFileError(f"{path}: entry {k} is not a [re, im] pair")
        try:
            re, im = float(entry[0]), float(entry[1])
        except OverflowError:  # a JSON integer beyond the float range
            re = im = math.inf
        if not (math.isfinite(re) and math.isfinite(im)):
            raise MatrixFileError(f"{path}: entry {k} is not finite")
        out[k // cols, k % cols] = complex(re, im)
    return out


def write_matrix(path, m) -> None:
    m = np.asarray(m, dtype=np.complex128)
    if m.ndim != 2 or 0 in m.shape:
        raise MatrixFileError(f"expected a 2-d matrix with sides >= 1, got shape {m.shape}")
    if not np.isfinite(m).all():
        raise MatrixFileError("entries must be finite")
    payload = {
        "rows": int(m.shape[0]),
        "cols": int(m.shape[1]),
        "data": [[float(v.real), float(v.imag)] for v in m.ravel()],
    }
    Path(path).write_text(json.dumps(payload, allow_nan=False) + "\n")
