"""JSON codecs for complex matrices, Kraus files, and Hamiltonian specs.

Complex numbers are stored as ``[re, im]`` pairs, matrices row-major.
"""

from __future__ import annotations

import gc
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


def reject_unknown_keys(obj: dict, known) -> None:
    """A ValueError naming each key of ``obj`` outside ``known``, so that a
    misspelt key cannot leave its value at the default in silence."""
    unknown = sorted(set(obj) - set(known))
    if unknown:
        raise ValueError(f"unknown key(s) {', '.join(map(repr, unknown))}")


def read_json(path):
    """The JSON value in the file at ``path``, parsed with the cyclic garbage
    collector paused.

    A parse builds only lists, dicts, strings and numbers, none of which can
    close a reference cycle, so a collection pass during it frees nothing; on
    a 926 KB Kraus file those passes took half of ``json.loads``.  The
    caller's collector state is restored whether the parse succeeds or not.
    """
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    enabled = gc.isenabled()
    gc.disable()
    try:
        return json.loads(text)
    finally:
        if enabled:
            gc.enable()


_NESTING = {1: "a list", 2: "a matrix", 3: "a list of matrices"}


def _decode_pairs(values, axes: int) -> np.ndarray:
    """``values``, ``axes`` levels of lists of finite ``[re, im]`` pairs, as
    one complex array with ``axes`` axes, from one ``np.array`` pass.

    Refused with a ValueError: ragged lists, an entry that is not a pair, a
    string, null, a nested list or a NaN or Infinity where a number belongs,
    and an empty list (it holds no pair, so the axes come out wrong).  As
    with ``complex(re, im)`` per entry, true and false read as 1 and 0, and
    an integer past 64 bits as the float it rounds to (OverflowError past
    the float range).
    """
    a = np.array(values)
    if a.dtype.kind == "O" and all(isinstance(x, (int, float)) for x in a.flat):
        a = a.astype(float)
    if a.dtype.kind not in "biuf" or a.ndim != axes + 1 or a.shape[-1] != 2:
        raise ValueError(f"expected {_NESTING[axes]} of [re, im] pairs of numbers")
    return require_finite(a.astype(float, copy=False)).view(complex)[..., 0]


def decode_complex_matrix(rows) -> np.ndarray:
    return _decode_pairs(rows, 2)


def encode_complex_vector(v) -> list:
    v = np.asarray(v, dtype=complex).reshape(-1)
    return [[float(z.real), float(z.imag)] for z in v]


def decode_complex_vector(entries) -> np.ndarray:
    return _decode_pairs(entries, 1)


def load_kraus_file(path) -> np.ndarray:
    """Read a JSON array of complex matrices (the CLI's channel format) as
    one ``(r, d_out, d_in)`` array."""
    data = read_json(path)
    if not isinstance(data, list) or not data:
        raise ValueError("Kraus file must be a non-empty JSON array of matrices")
    return _decode_pairs(data, 3)


def save_kraus_file(path, kraus) -> None:
    text = json.dumps([encode_complex_matrix(k) for k in kraus], indent=2)
    atomic_write_text(path, text + "\n")


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
