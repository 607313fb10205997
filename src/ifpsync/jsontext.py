"""JSON text of an input file, with a dense adjacency read as its arcs.

`loads(text)` returns what ``json.loads(text)`` returns, except that the
`adjacency` of a top-level object, when it is a square matrix of numbers,
comes back as `graphnet.Cells`: the nonzero cells, in row-major order, of
the float64 matrix that ``errors.numbers("adjacency", ...)`` makes of json's
nested list, bit for bit. Neither the n x n array nor a Python float for a
zero cell is made. json's own scanner parses every other value.

The matrix is read in blocks of whole rows, about 512 KB of text each, so a
block's arrays stay in the L2 cache. A block with at least one digit 1-9 per
two cells is mostly nonzero: one ``json.loads`` reads its rows as they stand,
and ``np.nonzero`` picks its cells. In any other block, numpy comparisons
check the layout: the separators must be ``[``, n - 1 commas and ``]`` per
row, and each cell must hold one run of number characters (``0-9 + - . e
E``) between spaces. Two counts and one compare check it, with no write per
cell: the block must hold as many separators, and as many separators and
runs together, as k such rows, and every separator of those rows must be in
its place in the sequence of separators and run starts, so every other
place holds a run. Cells that read exactly ``0`` or ``0.0`` are skipped,
one ``json.loads`` parses the other tokens of the block, and those that read
as zero (``-0.0``, ``0e0``, ``0.00``) are dropped. Either way the numbers
must come back as an int64 or a float64 array, the types numpy also gives
the whole matrix then. Anything else (non-ASCII text, tabs or newlines in a
mostly zero block, strings, nested or ragged rows, a token json refuses,
booleans alone, an integer beyond int64 that numpy does not read as a float)
sends the whole value to json's scanner, and text that json refuses goes to
``json.loads`` itself. So every value read is the one json reads, up to the
form of the matrix, and every error is json's or the typed readers'.
"""

from __future__ import annotations

import json
from json.decoder import WHITESPACE, JSONDecoder, scanstring

import numpy as np

from .graphnet import Cells

_scan_once = JSONDecoder().scan_once
_ws = WHITESPACE.match

#: characters of matrix text per block
_BLOCK = 1 << 19

_PAD = np.frombuffer(b"   ", np.uint8)


class _Decline(Exception):
    """The text is not read here; json reads it instead."""


def loads(text: str):
    """json.loads(text), with a top-level object's square `adjacency` matrix
    of numbers as its nonzero `Cells`."""
    try:
        return _object(text)
    except (_Decline, json.JSONDecodeError, StopIteration):
        return json.loads(text)  # json's value, or json's error


def _object(text: str) -> dict:
    """The top-level object of text, parsed as json.decoder.JSONObject does:
    pairs in order, so a repeated key keeps its first place and last value."""
    i = _ws(text, 0).end()
    if not text.startswith("{", i):
        raise _Decline
    pairs = []
    i = _ws(text, i + 1).end()
    while True:
        if not text.startswith('"', i):
            raise _Decline
        key, i = scanstring(text, i + 1)
        i = _ws(text, i).end()
        if not text.startswith(":", i):
            raise _Decline
        i = _ws(text, i + 1).end()
        value, i = (key == "adjacency" and _matrix(text, i)) or _scan_once(text, i)
        pairs.append((key, value))
        i = _ws(text, i).end()
        if not text.startswith(",", i):
            break
        i = _ws(text, i + 1).end()
    if not text.startswith("}", i) or _ws(text, i + 1).end() != len(text):
        raise _Decline
    return dict(pairs)


def _matrix(text: str, i: int):
    """(Cells, end) for the square matrix of numbers whose text starts at i,
    or None where the blocks do not read it."""
    if not text.startswith("[", i):
        return None
    pos = _ws(text, i + 1).end()
    first = text.find("]", pos)
    if not text.startswith("[", pos) or first < 0:
        return None
    n = text.count(",", pos, first) + 1
    rows_per_block = max(1, _BLOCK // (first - pos + 2))
    rows, cols, values = [], [], []
    row = 0
    while True:
        k = min(rows_per_block, n - row)
        stop = pos
        for _ in range(k):  # one past the k-th "]": the end of k whole rows
            stop = text.find("]", stop) + 1
            if not stop:
                return None
        cells = _block(text[pos:stop], n, k)
        if cells is None:
            return None
        rows.append(cells[0] + row)
        cols.append(cells[1])
        values.append(cells[2])
        row += k
        i = _ws(text, stop).end()
        if row == n:
            if not text.startswith("]", i):
                return None
            cells = Cells(n, np.concatenate(rows), np.concatenate(cols), np.concatenate(values))
            return cells, i + 1
        if not text.startswith(",", i):
            return None
        pos = _ws(text, i + 1).end()


def _numbers(text: str):
    """json's numbers in text as one int64 or float64 array, or None where
    numpy would give them another type (a boolean or string, or an integer
    outside int64, whose type would then depend on the rest of the matrix)."""
    try:
        a = np.array(json.loads(text))
    except ValueError:  # not JSON (a JSONDecodeError), or ragged rows
        return None
    return a if a.dtype in (np.int64, np.float64) else None


def _block(block: str, n: int, k: int):
    """(rows, cols, values) of the nonzero cells of the k rows of n cells in
    block, row-major, rows counted from the block's first; None where they
    are not read here (see the module docstring)."""
    try:
        b = np.frombuffer(block.encode("ascii"), np.uint8)
    except UnicodeEncodeError:
        return None
    if 2 * np.count_nonzero((b - 49) < 9) >= k * n:
        # at least one digit 1-9 per two cells: mostly nonzero, so json
        # reads the rows as they stand
        a = _numbers("[" + block + "]")
        if a is None or a.shape != (k, n):
            return None
        rows, cols = np.nonzero(a)
        return rows, cols, a[rows, cols].astype(float)

    b = np.concatenate((b, _PAD))  # so that b[t + 3] exists for every token t
    num = ((b - 48) < 10) | (b == 46) | (b == 101) | (b == 69) | (b == 45) | (b == 43)
    sep = (b == 91) | (b == 44) | (b == 93)  # [ , ]
    if np.count_nonzero(num) + np.count_nonzero(sep) + np.count_nonzero(b == 32) != b.size:
        return None
    start = np.empty_like(num)  # the first character of each token
    start[0] = num[0]
    np.greater(num[1:], num[:-1], out=start[1:])
    # events: every separator and token start; k rows hold k(n + 2) - 1
    # separators and k n tokens
    events = np.flatnonzero(sep | start)
    if events.size != k * (2 * n + 2) - 1 or np.count_nonzero(sep) != k * (n + 2) - 1:
        return None
    # "T" matches no event's character, so k(n + 2) matches put every
    # separator in its place, and every "T" is a token start
    marks = np.append(b[events], 44)  # and the comma that would follow the last row
    row = np.frombuffer(b"[T" + b",T" * (n - 1) + b"],", np.uint8)
    if np.count_nonzero(marks.reshape(k, -1) == row) != k * (n + 2):
        return None

    # a token that reads 0 (a non-number character next) or 0.0 is skipped
    zero = (b[:-3] == 48) & (~num[1:-2] | ((b[1:-2] == 46) & (b[2:-1] == 48) & ~num[3:]))
    # event index of each token kept: the kept tokens are few
    keep = np.searchsorted(events, np.flatnonzero(start[:-3] & ~zero))
    values = np.zeros(0)
    if keep.size:
        ends = events[keep + 1].tolist()  # the separator after the token
        tokens = ",".join([block[s:e] for s, e in zip(events[keep].tolist(), ends)])
        values = _numbers("[" + tokens + "]")
        if values is None:
            return None
        nonzero = values != 0  # -0.0, 0e0, 0.00 and the like read as zero
        keep, values = keep[nonzero], values[nonzero].astype(float)
    return keep // (2 * n + 2), keep % (2 * n + 2) // 2, values
