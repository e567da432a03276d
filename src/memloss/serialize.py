"""JSON codecs for complex matrices, Kraus files, and Hamiltonian specs.

Complex numbers are stored as ``[re, im]`` pairs, matrices row-major.
"""

from __future__ import annotations

import json
import os
import tempfile

import numpy as np


def encode_complex_matrix(m) -> list:
    m = np.asarray(m, dtype=complex)
    return [[[float(z.real), float(z.imag)] for z in row] for row in m]


def require_finite(values):
    """``values``, or a ValueError if json.load read a NaN or Infinity there."""
    if not np.isfinite(values).all():
        raise ValueError("NaN or Infinity where a finite number is expected")
    return values


def require_int(value) -> int:
    """``value`` as an int, or a ValueError unless json.load read an integer
    there: ``int()`` would truncate 2.5, read true as 1 and parse "3"."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"expected an integer, got {value!r}")
    return int(value)


def require_float(value) -> float:
    """``value`` as a finite float, or a ValueError unless json.load read a
    finite number there: ``float()`` would read true as 1.0 and parse "0.3"."""
    if isinstance(value, bool) or not isinstance(value, (int, float, np.integer,
                                                         np.floating)):
        raise ValueError(f"expected a number, got {value!r}")
    return require_finite(float(value))


def decode_complex_matrix(rows) -> np.ndarray:
    return require_finite(np.array([[complex(re, im) for re, im in row] for row in rows],
                                   dtype=complex))


def encode_complex_vector(v) -> list:
    v = np.asarray(v, dtype=complex).reshape(-1)
    return [[float(z.real), float(z.imag)] for z in v]


def decode_complex_vector(entries) -> np.ndarray:
    return require_finite(np.array([complex(re, im) for re, im in entries],
                                   dtype=complex))


def load_kraus_file(path) -> list[np.ndarray]:
    """Read a JSON array of complex matrices (the CLI's channel format)."""
    with open(path, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    if not isinstance(data, list) or not data:
        raise ValueError("Kraus file must be a non-empty JSON array of matrices")
    return [decode_complex_matrix(m) for m in data]


def save_kraus_file(path, kraus) -> None:
    atomic_write_json(path, [encode_complex_matrix(k) for k in kraus])


def atomic_write_text(path, text: str) -> None:
    """Write via a temp file + rename so interrupted runs leave no truncation."""
    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix=".part")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def atomic_write_json(path, obj) -> None:
    atomic_write_text(path, json.dumps(obj, indent=2) + "\n")
