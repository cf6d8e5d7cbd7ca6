"""Machine-readable report emission.

Reports are CSV files with a leading metadata block of ``# key=value``
comment lines and a fixed, documented header row.  An equivalent
structured-text rendering carries the same metadata verbatim.  Numbers are
printed with 17 significant digits so values round-trip exactly.  Files are
written to a temporary sibling and renamed, so a partial file is never left
behind.
"""

from __future__ import annotations

import os
import tempfile
from typing import Iterable, Mapping

FLOAT_FORMAT = "%.17g"


def format_value(value) -> str:
    if isinstance(value, float):
        return FLOAT_FORMAT % value
    return str(value)


def _atomic_write(path: str, chunks: Iterable[str]):
    """Write the concatenated ``chunks`` to ``path`` through a renamed
    temporary sibling."""
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".report-", suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.writelines(chunks)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
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
