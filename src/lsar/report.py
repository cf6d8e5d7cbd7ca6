"""Machine-readable report emission.

Reports are CSV files with a leading metadata block of ``# key=value``
comment lines and a fixed, documented header row.  An equivalent
structured-text rendering carries the same metadata verbatim.  Numbers are
printed with 17 significant digits so values round-trip exactly.  Files are
written to a temporary sibling and renamed, so a partial file is never left
behind.

Long columns of numbers (the series files of ``ingest`` and ``generate``)
are formatted by ``float_lines``, which returns the same bytes as
``FLOAT_FORMAT % v`` per value but works on whole numpy blocks: the 17
digits come from exact integer arithmetic, and only zeros, values below
1e-6 or from 1e17 up, and non-finite values take the per-value path.
"""

from __future__ import annotations

import os
import tempfile
from typing import Iterable, Mapping

import numpy as np

from .errors import DataError

FLOAT_FORMAT = "%.17g"

# ``float_lines`` prints 1e-6 <= |v| < 1e17 from integers: the 17 digits of
# v are D = round(|v| * 10**q) with q = 16 - floor(log10 |v|) in [0, 22],
# where 10**q is an exact double.  Dekker's product (a Veltkamp split, as
# numpy has no fma) gives |v| * 10**q = hi + lo exactly; hi >= 1e16 > 2**53
# is an integer, so floor(hi + lo) = hi + floor(lo), and the half-even
# rounding compares lo with floor(lo) + 1/2, both exact.
_Q_MAX = 22
_POW10 = np.array([float(10**k) for k in range(_Q_MAX + 1)])
_VELTKAMP = 2.0**27 + 1
_E16, _E17 = 10**16, 10**17
# Each value is a row of byte columns, built one column (plane) at a time
# and joined with the zero pads dropped: sign | 17 integer-part digits |
# point | up to 3 zeros after "0." | 17 fraction digits | e±XX | newline.
_INT, _POINT, _ZEROS, _FRAC, _EXP, _NEWLINE, _WIDTH = 1, 18, 19, 22, 39, 43, 44
_DIGIT = np.arange(1, 18, dtype=np.int8)[:, None]
_ZERO = np.arange(1, 4, dtype=np.int8)[:, None]


def format_value(value) -> str:
    if isinstance(value, float):
        return FLOAT_FORMAT % value
    return str(value)


def _split(a):
    """Veltkamp split ``a = high + low``, each half of at most 26 bits."""
    t = _VELTKAMP * a
    high = t - (t - a)
    return high, a - high


_POW10_HIGH, _POW10_LOW = _split(_POW10)


def _scaled(a, q):
    """``(N, lo, floor(lo))`` with ``N = floor(a * 10**q)`` as int64 and
    ``a * 10**q = hi + lo`` exactly."""
    hi = a * _POW10[q]
    high, low = _split(a)
    p_high, p_low = _POW10_HIGH[q], _POW10_LOW[q]
    lo = ((high * p_high - hi) + high * p_low + low * p_high) + low * p_low
    floor_lo = np.floor(lo)
    return hi.astype(np.int64) + floor_lo.astype(np.int64), lo, floor_lo


def float_lines(values: np.ndarray) -> str:
    """``FLOAT_FORMAT % v + "\\n"`` for each float64 ``v``, joined."""
    n = values.size
    a = np.abs(values)
    fast = (a >= 1e-6) & (a < 1e17)
    a[~fast] = 1.0
    q = (16.0 - np.floor(np.log10(a))).clip(0, _Q_MAX).astype(np.intp)
    N, lo, floor_lo = _scaled(a, q)
    # log10 can miss floor(log10 a) by one, so q is checked on N, the
    # product before rounding: it must lie in [1e16, 1e17).  Checked on the
    # rounded D instead, the double 1e-6 (9.9999999999999995e-07, below
    # 10^-6) would print as 1e-06; here its q becomes 23 and it falls back.
    shift = (N < _E16).astype(np.intp) - (N >= _E17)
    moved = np.flatnonzero(shift)
    if moved.size:
        qm = q[moved] + shift[moved]
        inside = (qm >= 0) & (qm <= _Q_MAX)
        qm = qm.clip(0, _Q_MAX)
        Nm, lom, floor_lom = _scaled(a[moved], qm)
        q[moved], N[moved], lo[moved], floor_lo[moved] = qm, Nm, lom, floor_lom
        fast[moved[~inside | (Nm < _E16) | (Nm >= _E17)]] = False
    half = floor_lo + 0.5
    D = N + ((lo > half) | ((lo == half) & (N & 1).astype(bool)))
    carry = D == _E17  # rounded up to the next power of ten
    D[carry] = _E16
    X = (16 - q + carry).astype(np.int8)  # the decimal exponent

    # The 17 digits of D, most significant first, from its two uint32 halves.
    digits = np.empty((17, n), dtype=np.uint8)
    top = D // 10**8
    ten = np.uint32(10)
    for part, last in ((D - top * 10**8, 16), (top, 8)):
        x = part.astype(np.uint32)
        for r in range(last, last - 8, -1):
            y = x // ten
            digits[r] = x - y * ten
            x = y
    digits[0] = x  # the top half has 9 digits
    kept = (_DIGIT * (digits != 0)).max(axis=0)  # digits up to the last nonzero
    digits += ord("0")

    # %g: exponent form below 1e-4 or from 1e17 on, else ``ints`` digits
    # before the point ("0" when there are none) and ``zeros`` after it.
    scientific = (X < -4) | (X > 16)
    ints = np.where(scientific, 1, np.maximum(X + 1, 0)).astype(np.int8)
    zeros = np.where(scientific, 0, np.maximum(-1 - X, 0)).astype(np.int8)
    planes = np.empty((_WIDTH, n), dtype=np.uint8)
    planes[0] = (values < 0) * np.uint8(ord("-"))
    np.multiply(digits, _DIGIT <= ints, out=planes[_INT:_POINT])
    planes[_INT] += (ints == 0) * np.uint8(ord("0"))
    planes[_POINT] = (kept > ints) * np.uint8(ord("."))
    np.multiply(np.uint8(ord("0")), _ZERO <= zeros, out=planes[_ZEROS:_FRAC])
    np.multiply(digits, (_DIGIT > ints) & (_DIGIT <= kept), out=planes[_FRAC:_EXP])
    size = np.abs(X).astype(np.uint8)
    planes[_EXP] = ord("e")
    planes[_EXP + 1] = np.where(X < 0, ord("-"), ord("+"))
    planes[_EXP + 2] = size // 10 + ord("0")
    planes[_EXP + 3] = size % 10 + ord("0")
    planes[_EXP:_NEWLINE] *= scientific
    planes[_NEWLINE] = ord("\n")

    # Out of range: ``FLOAT_FORMAT % v`` one value at a time, in the same rows.
    slow = np.flatnonzero(~fast)
    if slow.size:
        text = [(FLOAT_FORMAT % v + "\n").encode() for v in values[slow].tolist()]
        rows = np.array(text, dtype=f"S{_WIDTH}").view(np.uint8).reshape(-1, _WIDTH)
        planes[:, slow] = rows.T
    return planes.T.tobytes().translate(None, b"\0").decode("ascii")


def _atomic_write(path: str, chunks: Iterable[str | bytes], binary: bool = False):
    """Write the concatenated ``chunks`` (``bytes`` when ``binary``) to
    ``path`` through a renamed temporary sibling.

    The file gets the mode ``open(path, "w")`` would create it with, not
    ``mkstemp``'s 0600, which the rename would keep.  An ``OSError`` is
    raised as a ``DataError`` that names ``path``, not the temporary file.
    """
    directory = os.path.dirname(os.path.abspath(path))
    tmp = None
    try:
        fd, tmp = tempfile.mkstemp(dir=directory, prefix=".report-", suffix=".tmp")
        with os.fdopen(fd, "wb" if binary else "w") as fh:
            umask = os.umask(0)
            os.umask(umask)
            os.fchmod(fh.fileno(), 0o666 & ~umask)
            fh.writelines(chunks)
        os.replace(tmp, path)
    except BaseException as err:
        if tmp is not None and os.path.exists(tmp):
            os.unlink(tmp)
        if isinstance(err, OSError):
            raise DataError(f"cannot write {path}: {err.strerror or err}") from err
        raise


def metadata_lines(metadata: Mapping[str, object]) -> list[str]:
    return [f"# {key}={format_value(value)}" for key, value in metadata.items()]


def write_csv_report(
    path: str,
    header: Iterable[str],
    rows: Iterable[Iterable[object]],
    metadata: Mapping[str, object],
):
    lines = metadata_lines(metadata)
    lines.append(",".join(header))
    for row in rows:
        lines.append(",".join(format_value(v) for v in row))
    _atomic_write(path, ["\n".join(lines) + "\n"])


def write_text_report(
    path: str,
    header: Iterable[str],
    rows: Iterable[Iterable[object]],
    metadata: Mapping[str, object],
):
    header = list(header)
    formatted = [[format_value(v) for v in row] for row in rows]
    widths = [
        max([len(h)] + [len(r[i]) for r in formatted]) for i, h in enumerate(header)
    ]
    lines = metadata_lines(metadata)
    lines.append("  ".join(h.ljust(w) for h, w in zip(header, widths)))
    for row in formatted:
        lines.append("  ".join(v.ljust(w) for v, w in zip(row, widths)))
    _atomic_write(path, ["\n".join(lines) + "\n"])
