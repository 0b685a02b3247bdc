"""Reader of the ASCII set format, behind numset.load_set.

Two routes read a file. The numpy read takes the leading blank and
comment lines and the optional limit= header line by line, parses the
rest with np.loadtxt, and keeps the result whenever it is one column;
the element rules (>= 1, strictly ascending, within the header) are
checked by NumberSet.from_elements. A comment line further down stops
np.loadtxt; when every # of the file leads its line, numpy reads the
file once more, skipping # lines. Anything else (a # after other text, a header further
down, a line numpy cannot parse, a value outside int64, a bad byte)
sends the whole file through by_line, the per-line rules, which define
the format and raise every error with its line number.

It is a module of its own, imported by load_set on first use, because a
module's compile-time peak grows with its size: parser code inside
numset raised the peak RSS of every process, set file or not, by about
0.24 MB when bytecode is not cached.
"""

from __future__ import annotations

import re
from array import array

import numpy as np

from .errors import SetFormatError

# a # that follows other text on its line
_LATE_HASH = re.compile(r"^[^\S\n]*[^\s#][^\n#]*#", re.M)


def read(path: str) -> tuple[np.ndarray, int | None, int]:
    """(elements, limit header or None, line of the header).

    Without a header, only by_line counts the last element's line. The
    numpy read's elements are the int64 array numpy parsed into, reshaped
    in place, that nothing else holds.
    """
    try:
        got = _by_numpy(path)
    except (ValueError, OverflowError):  # a UnicodeDecodeError is a ValueError
        got = None
    return got if got is not None else by_line(path)


def _by_numpy(path: str) -> tuple[np.ndarray, int, int] | None:
    """The file read by np.loadtxt, or None when it is not one non-empty column.

    The lines before the first element are read here; np.loadtxt skips
    them and parses the rest. It is given the path, so it reads the file
    in chunks (a file object it would iterate line by line, twice as
    slow). comments=None, so "5 # c" is two fields; ndmin=2, so a lone
    "3 5" line is a row of two columns, not two elements. A file with no
    element line is left to by_line. When numpy stops and every # leads
    its line, it reads the rest again with comments="#", which skips the
    comment lines and nothing else. The elements are not checked here:
    NumberSet.from_elements checks them.
    """
    limit, limit_line = None, 1
    with open(path, "r", encoding="utf-8") as fh:
        for skip, raw in enumerate(fh):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if limit is not None or not line.startswith("limit="):
                break
            limit, limit_line = int(line[len("limit=") :]), skip + 1
        else:
            return None
    try:
        elems = np.loadtxt(path, dtype=np.int64, comments=None, ndmin=2, skiprows=skip, encoding="utf-8")
    except ValueError:
        if not _comments_lead_lines(path):
            raise
        elems = np.loadtxt(path, dtype=np.int64, comments="#", ndmin=2, skiprows=skip, encoding="utf-8")
    if elems.shape[1] != 1 or not elems.size:
        return None
    # one column, so the array is its elements: reshape it without a copy
    elems.resize(elems.shape[0], refcheck=False)
    return elems, limit, limit_line


def _comments_lead_lines(path: str) -> bool:
    """True when every # of the file is the first non-space character of its line."""
    with open(path, "r", encoding="utf-8") as fh:
        chunks = iter(lambda: fh.read(1 << 20) + fh.readline(), "")
        return not any(_LATE_HASH.search(chunk) for chunk in chunks)


def by_line(path: str) -> tuple[np.ndarray, int | None, int]:
    """The per-line rules: (elements, limit header or None, line of the header, else of the last element).

    Each line is stripped; blank and # lines are skipped; limit=N is the
    header while no element or header came before; any other line is an
    element as int() reads it, >= 1, above the one before, below 2^63 and
    within the header. The first line that breaks a rule raises.
    """
    limit: int | None = None
    limit_line = 1
    values = array("q")
    prev = 0
    with open(path, "r", encoding="utf-8") as fh:
        for line_no, raw in enumerate(fh, 1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if limit is None and not values and line.startswith("limit="):
                try:
                    limit = int(line[len("limit=") :])
                except ValueError:
                    raise SetFormatError(path, line_no, f"bad limit header {line!r}") from None
                limit_line = line_no
                continue
            try:
                value = int(line)
            except ValueError:
                raise SetFormatError(path, line_no, f"not an integer: {line!r}") from None
            if value <= prev:
                message = "elements must be strictly ascending" if values else "elements must be >= 1"
                raise SetFormatError(path, line_no, message)
            try:
                values.append(value)
            except OverflowError:
                raise SetFormatError(path, line_no, f"element {value} does not fit in int64") from None
            if limit is None:
                limit_line = line_no
            elif value > limit:
                raise SetFormatError(path, line_no, f"element {value} exceeds limit {limit}")
            prev = value
    if not values and limit is None:
        raise SetFormatError(path, 1, "no elements and no limit header")
    return np.frombuffer(values, dtype=np.int64), limit, limit_line
