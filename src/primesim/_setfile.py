"""Block parser of the ASCII set format, behind numset.load_set.

The file is read as UTF-8 text with universal newlines, in blocks of
BLOCK_CHARS characters cut at their last newline. A line of 1 to 18 ASCII
digits is plain: numpy parses a block's plain lines one digit column at a
time. Any other non-empty line is odd and goes through _odd_line, the
per-line rules. Each block's elements are then checked as vectors (>= 1,
above the previous one, within the limit header), and the first failing
line in file order raises.

It is a module of its own, imported by load_set on first use, because a
module's compile-time peak grows with its size: inside numset it raised
the peak RSS of every process, set file or not, by about 0.3 MB when
bytecode is not cached.
"""

from __future__ import annotations

import numpy as np

from .errors import SetFormatError

# characters per block
BLOCK_CHARS = 1 << 16

# lines of at most this many ASCII digits are read as vectors: below 10^18 < 2^63
_PLAIN_DIGITS = 18
_INT64_MAX = 2**63 - 1


def read(path: str) -> tuple[np.ndarray, int | None, int]:
    """(elements, limit header or None, line of the header, else of the last element).

    The elements are one int64 array, sized by a first pass that counts the
    file's line ends and trimmed in place, that nothing else holds.
    """
    reader = _Reader(path, _line_bound(path))
    pending: list[bytes] = []
    with open(path, "r", encoding="utf-8") as fh:
        while text := fh.read(BLOCK_CHARS):
            data = text.encode()
            cut = data.rfind(b"\n") + 1
            if cut:
                pending.append(data[:cut])
                reader.feed(b"".join(pending))
                pending = [data[cut:]]
            else:
                pending.append(data)
    tail = b"".join(pending)
    if tail:
        reader.feed(tail + b"\n")
    if not reader.size and reader.limit is None:
        raise SetFormatError(path, 1, "no elements and no limit header")
    # the array has no views, so it can shrink in place
    reader.out.resize(reader.size, refcheck=False)
    return reader.out, reader.limit, reader.limit_line


def _line_bound(path: str) -> int:
    """At least the number of lines: each ends at \\n, \\r, \\r\\n or the end of the file."""
    lines = 1
    with open(path, "rb") as fh:
        while data := fh.read(BLOCK_CHARS):
            buf = np.frombuffer(data, dtype=np.uint8)
            lines += np.count_nonzero(buf == 10)
            if cr := np.count_nonzero(buf == 13):
                lines += cr - data.count(b"\r\n")
    return int(lines)


def _odd_line(path: str, line_no: int, raw: str, header_ok: bool) -> int | tuple[int] | None:
    """The per-line rules for a line that is not plain digits.

    Returns None for a blank or comment line, (limit,) for the limit header
    (header_ok: no element or header came before), or the element. An
    element below -1 reads as -1, which fails the same checks.
    """
    line = raw.strip()
    if not line or line.startswith("#"):
        return None
    if header_ok and line.startswith("limit="):
        try:
            return (int(line[len("limit=") :]),)
        except ValueError:
            raise SetFormatError(path, line_no, f"bad limit header {line!r}") from None
    try:
        value = int(line)
    except ValueError:
        raise SetFormatError(path, line_no, f"not an integer: {line!r}") from None
    if value > _INT64_MAX:
        raise SetFormatError(path, line_no, f"element {value} does not fit in int64")
    return max(value, -1)


class _Reader:
    """One read: the elements so far, the limit header, the lines read."""

    def __init__(self, path: str, capacity: int):
        self.path = path
        self.out = np.empty(capacity, dtype=np.int64)
        self.size = 0
        self.prev = 0
        self.limit: int | None = None
        self.limit_line = 1  # the header's line, else the last element's
        self.lines = 0

    def feed(self, data: bytes) -> None:
        """Check and keep the elements of whole lines, each ending in b"\\n".

        A line is plain when it has 1 to 18 bytes, all ASCII digits.
        """
        buf = np.frombuffer(data, dtype=np.uint8)
        ends = np.flatnonzero(buf == 10)
        starts = np.concatenate(([0], ends[:-1] + 1))
        lens = ends - starts
        plain = (lens >= 1) & (lens <= _PLAIN_DIGITS)
        not_digit = (buf - np.uint8(48)) > 9
        if np.count_nonzero(not_digit) > ends.size:
            stray = np.flatnonzero(not_digit)
            stray = stray[buf[stray] != 10]
            plain[np.searchsorted(ends, stray)] = False
        rows = np.flatnonzero(plain)
        values = _parse_digits(buf, ends[rows], lens[rows])

        # odd lines in file order, up to the first that fails on its own
        first_row = int(rows[0]) if rows.size else len(ends)
        odd_rows, odd_values, error = [], [], None
        odd = np.flatnonzero(~plain & (lens > 0))
        for i, start, end in zip(odd.tolist(), starts[odd].tolist(), ends[odd].tolist()):
            header_ok = self.limit is None and not self.size and i < first_row and not odd_rows
            try:
                got = _odd_line(self.path, self.lines + i + 1, data[start:end].decode(), header_ok)
            except SetFormatError as exc:
                error = (i, exc)
                break
            if isinstance(got, tuple):
                self.limit, self.limit_line = got[0], self.lines + i + 1
            elif got is not None:
                odd_rows.append(i)
                odd_values.append(got)
        if odd_rows:
            rows = np.concatenate((rows, odd_rows))
            values = np.concatenate((values, np.array(odd_values, dtype=np.int64)))
            order = np.argsort(rows, kind="stable")
            rows, values = rows[order], values[order]
        if error is not None:
            keep = int(np.searchsorted(rows, error[0]))
            rows, values = rows[:keep], values[:keep]

        if values.size:
            self._check(rows, values)
            self.out[self.size : self.size + values.size] = values
            self.size += values.size
            self.prev = values[-1]
            if self.limit is None:
                self.limit_line = self.lines + int(rows[-1]) + 1
        if error is not None:
            raise error[1]
        self.lines += ends.size

    def _check(self, rows: np.ndarray, values: np.ndarray) -> None:
        """Raise for the first element that is not above the previous one or exceeds the limit."""
        bad = np.empty(values.size, dtype=bool)
        bad[0] = values[0] <= self.prev
        np.less_equal(values[1:], values[:-1], out=bad[1:])
        low = int(np.argmax(bad)) if bad.any() else values.size
        high = values.size
        if self.limit is not None:
            over = values > min(max(self.limit, -1), _INT64_MAX)
            high = int(np.argmax(over)) if over.any() else values.size
        if low <= high and low < values.size:  # at one element, the order check comes first
            message = "elements must be strictly ascending" if low or self.size else "elements must be >= 1"
            raise SetFormatError(self.path, self.lines + int(rows[low]) + 1, message)
        if high < values.size:
            raise SetFormatError(
                self.path,
                self.lines + int(rows[high]) + 1,
                f"element {int(values[high])} exceeds limit {self.limit}",
            )


def _parse_digits(buf: np.ndarray, ends: np.ndarray, lens: np.ndarray) -> np.ndarray:
    """Values of the digit strings buf[end - len : end], one column at a time from the units."""
    values = np.zeros(ends.size, dtype=np.int64)
    if not ends.size:
        return values
    shortest, longest = int(lens.min()), int(lens.max())
    scale = np.int64(1)
    for k in range(1, longest + 1):
        column = buf.take(ends - k, mode="clip") - np.uint8(48)
        if k > shortest:
            column[lens < k] = 0
        values += column * scale
        scale *= np.int64(10)
    return values
