"""The one CSV layout every report in the package is written and read in,
and the one reader of the lines, and of the records, of a text input file.

A file is an optional preamble of ``# key=value`` comment lines, a header row,
and one comma-separated row per record, read by the ``csv`` module; ``_row``
quotes only the fields that would not read back whole bare. Floats are written
as ``repr(float(x))`` so they read back bit for bit; ``None`` is written as an
empty field (a missing value).
"""

from __future__ import annotations

import csv
from itertools import chain
from numbers import Integral, Real
from typing import Iterable, Iterator, Sequence

__all__ = ["format_csv", "write_csv", "read_csv", "read_lines", "read_records"]


def _cell(x) -> str:
    if x is None:
        return ""
    if isinstance(x, Real) and not isinstance(x, Integral):  # float and numpy's floats, without importing numpy
        return repr(float(x))
    return str(x)


def _row(cells: Iterable[str]) -> str:
    """One line that ``read_csv`` reads back as ``cells``; a field is quoted only where bare it would not be."""
    fields = [c if {",", '"', "\r", "\n"}.isdisjoint(c) else '"' + c.replace('"', '""') + '"' for c in cells]
    if fields[0][:1].strip() in ("", "#"):  # bare, the line would read as blank, trimmed or a comment
        fields[0] = f'"{fields[0]}"'  # it holds no double quote, or it would be quoted already
    return ",".join(fields)


def format_csv(header: Sequence[str], rows: Iterable[Sequence], comments: Iterable[str] = ()) -> str:
    """The file text: ``# comment`` lines, the header, then the rows."""
    lines = [f"# {c}" for c in comments]
    lines.append(_row(header))
    lines.extend(_row(map(_cell, row)) for row in rows)
    return "\n".join(lines) + "\n"


def write_csv(path: str, header: Sequence[str], rows: Iterable[Sequence], comments: Iterable[str] = ()) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(format_csv(header, rows, comments))


def read_csv(path: str) -> tuple[list[str], list[dict[str, str]]]:
    """(comments, rows): comment texts without their ``#``, and one header-keyed
    dict of unquoted fields per row. Blank lines are skipped; malformed quoting,
    or a row whose field count differs from the header's, raises ``ValueError``
    naming the file and the row's first line."""
    comments: list[str] = []
    header: list[str] | None = None
    rows: list[dict[str, str]] = []
    lines = read_lines(path)
    for lineno, line in lines:
        if (text := line.strip()).startswith("#"):
            comments.append(text[1:].strip())
        elif text:
            try:  # a quoted line break continues the record on the lines after this one
                fields = next(csv.reader(chain([line.lstrip()], (more for _, more in lines)), strict=True))
            except csv.Error as exc:
                raise ValueError(f"{path}:{lineno}: {exc}") from None
            if header is None:
                header = fields
            elif len(fields) != len(header):
                raise ValueError(f"{path}:{lineno}: expected {len(header)} fields, got {len(fields)}")
            else:
                rows.append(dict(zip(header, fields)))
    return comments, rows


def read_lines(path: str) -> Iterator[tuple[int, str]]:
    r"""(line number, line) for each '\n'-ended line of a UTF-8 text file,
    line ending kept (a '\r' before the '\n' too), a leading byte order mark
    skipped (model files, read as binary, still reject one). A file that is not
    valid UTF-8 raises ``ValueError`` naming the file and its first bad line."""
    try:
        with open(path, encoding="utf-8-sig", newline="\n") as fh:
            yield from enumerate(fh, 1)
    except UnicodeDecodeError:
        # The decoder works ahead in blocks, so the bad line is found in the bytes.
        with open(path, "rb") as fh:
            for lineno, raw in enumerate(fh, 1):
                try:
                    raw.decode("utf-8")
                except UnicodeDecodeError:
                    raise ValueError(f"{path}:{lineno}: not valid UTF-8") from None
        raise


def read_records(path: str) -> Iterator[tuple[int, str]]:
    """(line number, stripped line) for each line of ``read_lines(path)`` that
    is neither blank nor a '#' comment."""
    for lineno, line in read_lines(path):
        if (line := line.strip()) and not line.startswith("#"):
            yield lineno, line
