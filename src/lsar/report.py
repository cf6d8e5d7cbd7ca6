"""Machine-readable reports and series files.

Reports are CSV files with a leading metadata block of ``# key=value``
comment lines and a fixed, documented header row.  An equivalent
structured-text rendering carries the same metadata verbatim.  Numbers are
printed with 17 significant digits so values round-trip exactly.  Files are
written to a temporary sibling and renamed, so a partial file is never left
behind.

Series files are what ``generate`` and ``ingest`` write and every other
command reads: a single ``y`` column, with a binary sidecar that spares the
parse (``write_series``, ``read_series``).  ``read_series`` also extracts a
column of any delimited text.  Their long columns of numbers are formatted
by ``float_lines``, which returns the same bytes as
``FLOAT_FORMAT % v`` per value but works on whole numpy blocks: the 17
digits come from exact integer arithmetic, and only zeros, values below
1e-6 or from 1e17 up, and non-finite values take the per-value path.
"""

from __future__ import annotations

import functools
import itertools
import os
import warnings
from typing import Iterable, Mapping

import numpy as np

from .errors import DataError, IngestError
from .series import TimeSeries

FLOAT_FORMAT = "%.17g"

# The line scan skips lines that start with ``#`` wherever they are, which
# numpy's reader would parse, and float() rejects the separators
# \x1c-\x1f that numpy strips as whitespace.  Files holding any of these
# characters are read by the scan alone.
SCAN_ONLY_CHARS = "#\x1c\x1d\x1e\x1f"
# Values formatted per chunk by ``write_series``: about 0.4 MB of text and
# 4 MB of working arrays.
WRITE_CHUNK = 2**14
# ``write_series`` puts a binary copy of the values next to the text, in
# ``<path>.lsarbin``: 8 bytes of magic and version, the SHA-256 of the text's
# bytes followed by the payload, then the payload, little-endian float64.
SIDECAR_SUFFIX = ".lsarbin"
SIDECAR_MAGIC = b"LSARF64\x01"
# Bytes of text hashed per read when a sidecar is checked.
HASH_CHUNK = 1 << 20

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

    The sibling is created only if no file has its name, with mode 0666
    less the umask as ``open(path, "w")`` would create ``path``, and the
    rename keeps that mode.  An ``OSError`` is raised as a ``DataError``
    that names ``path``, not the temporary file.
    """
    tmp = os.path.join(os.path.dirname(os.path.abspath(path)),
                       f".report-{os.urandom(6).hex()}.tmp")
    created = False
    try:
        fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
        created = True  # from here on the sibling is ours to remove
        with os.fdopen(fd, "wb" if binary else "w") as fh:
            fh.writelines(chunks)
        os.replace(tmp, path)
    except BaseException as err:
        if created and os.path.exists(tmp):
            os.unlink(tmp)
        if isinstance(err, OSError):
            raise DataError(f"cannot write {path}: {err.strerror or err}") from err
        raise


def read_series(path: str, column: str | None = None, delimiter: str = ",",
                has_header: bool | None = None) -> TimeSeries:
    """Load one numeric column from a delimited text file.

    ``column`` may be a header name or a 0-based index.  With the default
    arguments this reads the single-column files written by ``generate``
    and ``ingest``.  Blank lines and lines starting with ``#`` are skipped.
    The column is parsed by numpy's C reader; a file that reader rejects, or
    might read differently, is parsed line by line, which names the first
    bad row.  A UTF-8 byte-order mark is dropped.

    With the default arguments a file whose sidecar (see ``write_series``)
    matches its bytes is not parsed: the sidecar holds the same values.
    """
    if column is None and delimiter == "," and has_header is None:
        values = _read_sidecar(path)
        if values is not None:
            return TimeSeries(values)
    if not delimiter:
        raise IngestError("the delimiter must not be empty")
    try:
        with open(path, encoding="utf-8-sig") as fh:
            for skipped, first in enumerate(fh):
                if first.strip() and not first.startswith("#"):
                    break
            else:
                raise IngestError(f"{path} contains no data rows")
            chunks = itertools.chain([first], iter(functools.partial(fh.read, 1 << 20), ""))
            scan_only = any(c in chunk for chunk in chunks for c in SCAN_ONLY_CHARS)
    except (OSError, UnicodeDecodeError) as err:
        raise IngestError(f"cannot read {path}: {err}") from err
    fields = first.strip().split(delimiter)
    header: list[str] | None = None
    if has_header is None:
        has_header = not _is_number(fields[0])
    if has_header:
        header = [h.strip() for h in fields]
        skipped += 1
    if column is None:
        if header is not None and len(header) > 1:
            raise IngestError(
                f"{path} has {len(header)} columns; pick one of {header}"
            )
        col_idx = 0
    elif column.isdigit() or (column.startswith("-") and column[1:].isdigit()):
        col_idx = int(column)
    else:
        if header is None or column not in header:
            available = header if header is not None else "(no header row)"
            raise IngestError(f"column {column!r} not found; available: {available}")
        col_idx = header.index(column)
    values = None
    # Splitting a stripped line on whitespace is not how numpy splits it.
    if not scan_only and len(delimiter) == 1 and not delimiter.isspace():
        try:
            with warnings.catch_warnings():
                # A file without data rows reads as empty; TimeSeries rejects it.
                warnings.simplefilter("ignore", UserWarning)
                values = np.loadtxt(path, delimiter=delimiter, comments=None,
                                    usecols=col_idx, skiprows=skipped, ndmin=1,
                                    encoding="utf-8-sig")
        except (ValueError, OverflowError, OSError):
            pass
    if values is None:
        values = _scan_column(path, col_idx, delimiter, has_header)
    if not np.all(np.isfinite(values)):
        bad = int(np.flatnonzero(~np.isfinite(values))[0]) + (2 if has_header else 1)
        raise IngestError(f"{path}: non-finite value at row {bad}")
    return TimeSeries(values)


def _scan_column(path: str, col_idx: int, delimiter: str, has_header: bool) -> np.ndarray:
    """Parse column ``col_idx`` line by line; errors name the data row."""
    try:
        with open(path, encoding="utf-8-sig") as fh:
            lines = [ln.strip() for ln in fh if ln.strip() and not ln.startswith("#")]
    except (OSError, UnicodeDecodeError) as err:
        raise IngestError(f"cannot read {path}: {err}") from err
    if has_header:
        lines = lines[1:]
    values = np.empty(len(lines))
    for row_no, line in enumerate(lines):
        fields = line.split(delimiter)
        try:
            values[row_no] = float(fields[col_idx])
        except (IndexError, ValueError) as err:
            data_row = row_no + (2 if has_header else 1)
            why = f"the row has {len(fields)} field(s)" if isinstance(err, IndexError) else err
            raise IngestError(f"{path}: cannot parse column {col_idx} at row {data_row}: "
                              f"{why}") from err
    return values


def _read_sidecar(path: str) -> np.ndarray | None:
    """The values of ``path``'s sidecar, or None unless its digest matches
    the bytes of ``path`` followed by the payload."""
    try:
        with open(path + SIDECAR_SUFFIX, "rb") as fh:
            head = fh.read(len(SIDECAR_MAGIC) + 32)
            if not head.startswith(SIDECAR_MAGIC):
                return None
            values = np.fromfile(fh, dtype="<f8")
            if fh.read(1):  # a partial value at the end
                return None
        import hashlib

        digest = hashlib.sha256()
        buffer = memoryview(bytearray(HASH_CHUNK))
        with open(path, "rb") as fh:
            while size := fh.readinto(buffer):
                digest.update(buffer[:size])
        digest.update(values)
    except OSError:
        return None
    return values if digest.digest() == head[len(SIDECAR_MAGIC):] else None


def _is_number(token: str) -> bool:
    try:
        float(token)
        return True
    except ValueError:
        return False


def write_series(path: str, series: TimeSeries):
    """Single-column ``y`` report without metadata, and its sidecar.

    Values are formatted ``WRITE_CHUNK`` at a time by ``float_lines``,
    so the text of the whole column never exists at once.  The sidecar
    (``SIDECAR_SUFFIX``) is best-effort: if it cannot be written, the text
    alone holds the series and ``read_series`` parses it.
    """
    import hashlib

    values = series.values
    digest = hashlib.sha256()

    def chunks():
        yield b"y\n"
        for start in range(0, values.size, WRITE_CHUNK):
            yield float_lines(values[start: start + WRITE_CHUNK]).encode()

    def hashed(chunks):
        for chunk in chunks:
            digest.update(chunk)
            yield chunk

    _atomic_write(path, hashed(chunks()), binary=True)
    payload = np.ascontiguousarray(values, dtype="<f8")
    digest.update(payload)
    try:
        _atomic_write(path + SIDECAR_SUFFIX, [SIDECAR_MAGIC, digest.digest(), payload],
                      binary=True)
    except DataError:
        pass


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
