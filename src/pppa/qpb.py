"""Line-oriented plain-text instance format (QPB).

Grammar (one record per line, tokens whitespace-separated)::

    qpb 1
    [family <name>] [seed <int>] [rho <float>] [generator-id <token>]
    [structure dense|tridiagonal]
    n <int>
    q <n reals>
    u <n reals or inf>
    m <nnz>
    <i> <j> <value>     # nnz lines, 1 <= i <= j <= n, lower triangle of M

Values are written with 17 significant digits, so parse(write(x))
round-trips bit-exactly.  Unlisted matrix entries are zero.
"""

from __future__ import annotations

import io
import math
import re
import warnings
from array import array

import numpy as np

from .errors import DuplicateEntry, IndexOutOfRange, ParseError
from .matrices import SymMatrix
from .pivoting import QpInstance

_HEADER_KEYS = ("family", "seed", "rho", "generator-id", "structure")

# A line as str.splitlines cuts it: up to one of its breaks, "\r\n" being one.
_BREAKS = "\n\r\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029"
_LINE = re.compile(f"([^{_BREAKS}]*)(?:\r\n|[{_BREAKS}])?")

# A comment, or a line break other than "\n" (np.loadtxt reads these breaks
# as spaces), leaves the triplet section to the loop; the non-ASCII breaks
# fail the bulk read's isascii test.
_LOOP_ONLY = "#\r\x0b\x0c\x1c\x1d\x1e"
_TRIPLET = np.dtype([("i", np.int64), ("j", np.int64), ("v", np.float64)])


def _fmt(v: float) -> str:
    if np.isposinf(v):
        return "inf"
    return f"{v:.17g}"


def write_qpb(instance: QpInstance, header: dict | None = None) -> str:
    """Serialize an instance; ``header`` may carry the optional keys."""
    out = io.StringIO()
    out.write("qpb 1\n")
    header = header or {}
    for key in _HEADER_KEYS:
        if key in header and key != "structure":
            out.write(f"{key} {header[key]}\n")
    out.write(f"structure {'tridiagonal' if instance.m.tridiagonal else 'dense'}\n")
    n = instance.n
    out.write(f"n {n}\n")
    out.write("q " + " ".join(_fmt(v) for v in instance.q) + "\n")
    out.write("u " + " ".join(_fmt(v) for v in instance.u) + "\n")
    if instance.m.tridiagonal:
        diag, sub = instance.m.band()
        triplets = [(i, i, diag[i]) for i in range(n) if diag[i] != 0.0]
        triplets += [(i, i + 1, sub[i]) for i in range(n - 1) if sub[i] != 0.0]
        triplets.sort()
    else:
        a = instance.m.full()
        rows, cols = np.nonzero(np.triu(a))
        triplets = [(int(i), int(j), a[i, j]) for i, j in zip(rows, cols)]
    out.write(f"m {len(triplets)}\n")
    for i, j, v in triplets:
        out.write(f"{i + 1} {j + 1} {_fmt(v)}\n")
    return out.getvalue()


def _parse_real(token: str, lineno: int, allow_inf: bool = False) -> float:
    """A finite real, or +inf where ``allow_inf`` (upper bounds)."""
    try:
        value = float(token)
    except ValueError as exc:
        raise ParseError(f"expected a real number, got {token!r}", line=lineno) from exc
    # math.isfinite: np.isfinite on a Python float costs ~20x more per triplet.
    if math.isfinite(value) or (allow_inf and value == math.inf):
        return value
    expected = "a finite real or inf" if allow_inf else "a finite real"
    raise ParseError(f"expected {expected}, got {token!r}", line=lineno)


def _parse_reals(tokens: list, lineno: int, allow_inf: bool = False) -> np.ndarray:
    """:func:`_parse_real` over a record's tokens, converted in bulk.

    On a token ``float`` rejects, or a value outside the record's range,
    the per-token loop runs again and raises its error for the first
    such token.
    """
    try:
        vals = np.array(list(map(float, tokens)), dtype=float)
    except ValueError:
        vals = None
    if vals is not None:
        finite = np.isfinite(vals)
        if finite.all() or (allow_inf and np.all(finite | (vals == math.inf))):
            return vals
    return np.array([_parse_real(t, lineno, allow_inf) for t in tokens], dtype=float)


def parse_qpb(text: str) -> tuple[QpInstance, dict]:
    """Parse QPB text; returns (instance, header dict)."""
    return _parse(text, bulk=True)


def _parse(text: str, bulk: bool) -> tuple[QpInstance, dict]:
    """:func:`parse_qpb`; ``bulk=False`` reads the triplets with the line loop alone."""
    pos = lineno = 0

    def next_line():
        # Records are read one line at a time from ``pos``; the line numbers
        # are those of ``text.splitlines()``.
        nonlocal pos, lineno
        while pos < len(text):
            match = _LINE.match(text, pos)
            pos = match.end()
            lineno += 1
            stripped = match.group(1).split("#", 1)[0].strip()
            if stripped:
                return stripped, lineno
        return None, lineno

    first, lineno = next_line()
    if first is None or first.split() != ["qpb", "1"]:
        raise ParseError(f"expected 'qpb 1' header, got {first!r}", line=lineno)

    header: dict = {}
    n = None
    q = u = None
    nnz = None
    while True:
        line, lineno = next_line()
        if line is None:
            raise ParseError("unexpected end of file before matrix section", line=lineno)
        tokens = line.split()
        key = tokens[0]
        if key in _HEADER_KEYS:
            if len(tokens) != 2:
                raise ParseError(f"header key {key!r} takes one value", line=lineno)
            value: object = tokens[1]
            if key == "seed":
                try:
                    value = int(tokens[1])
                except ValueError as exc:
                    raise ParseError(f"seed takes an integer, got {tokens[1]!r}",
                                     line=lineno) from exc
            elif key == "rho":
                value = _parse_real(tokens[1], lineno)
            header[key] = value
        elif key == "n":
            if len(tokens) != 2 or not tokens[1].isdigit():
                raise ParseError("n takes one integer value", line=lineno)
            n = int(tokens[1])
        elif key in ("q", "u"):
            if n is None:
                raise ParseError(f"{key} section before n", line=lineno)
            vals = _parse_reals(tokens[1:], lineno, allow_inf=key == "u")
            if len(vals) != n:
                raise ParseError(f"{key} has {len(vals)} values, expected {n}", line=lineno)
            if key == "q":
                q = vals
            else:
                u = vals
        elif key == "m":
            if n is None or q is None or u is None:
                raise ParseError("m section before n/q/u", line=lineno)
            if len(tokens) != 2 or not tokens[1].isdigit():
                raise ParseError("m takes one integer count", line=lineno)
            nnz = int(tokens[1])
            break
        else:
            raise ParseError(f"unknown record {key!r}", line=lineno)

    structure = header.get("structure")
    m = _bulk_matrix(text[pos:], n, nnz, structure) if bulk else None
    if m is None:
        m = _loop_matrix(next_line, n, nnz, structure)
    try:
        instance = QpInstance(m, q, u)
    except ValueError as exc:
        raise ParseError(str(exc)) from exc
    return instance, header


def _bulk_matrix(section: str, n: int, nnz: int, structure) -> SymMatrix | None:
    """The triplet section read by one ``np.loadtxt`` call, or None.

    It answers only for a section that :func:`_loop_matrix` accepts as it
    is: ASCII text with no comment, no blank line and no line break but
    ``\\n``, holding exactly ``nnz`` triplets with indices in 1..n, finite
    values and no entry twice, inside the band under ``structure
    tridiagonal``.  On anything else it returns None, and the loop reads
    the section again and reports its error with the line number.
    """
    if nnz == 0 or structure not in (None, "dense", "tridiagonal"):
        return None
    if not section.isascii() or any(c in section for c in _LOOP_ONLY):
        return None
    # One triplet a line: with the row count below, this rules out blank lines.
    if section.count("\n") + (not section.endswith("\n")) != nnz:
        return None
    with warnings.catch_warnings():
        # A conversion numpy only warns about (an empty section, or a float
        # read as an index by numpy < 2) is left to the loop as well.
        warnings.simplefilter("error")
        try:
            t = np.loadtxt(io.StringIO(section), dtype=_TRIPLET, ndmin=1, comments=None)
        except (ValueError, Warning):
            return None
    if t.size != nnz:
        return None
    lo, hi, v = np.minimum(t["i"], t["j"]), np.maximum(t["i"], t["j"]), t["v"]
    if lo.min() < 1 or hi.max() > n or not np.isfinite(v).all():
        return None
    # The q record holds n values, so n is far below the 3e9 at which the
    # keys would leave int64.
    keys = np.sort(lo * (n + 1) + hi)
    if np.any(keys[1:] == keys[:-1]):
        return None
    if structure == "tridiagonal" and np.any(hi - lo > 1):
        return None
    lo -= 1
    hi -= 1
    return _fill(n, lo, hi, v, structure)


def _loop_matrix(next_line, n: int, nnz: int, structure) -> SymMatrix:
    """The triplet section checked record by record from ``next_line``, then :func:`_fill`."""
    lo, hi, vals = array("q"), array("q"), array("d")
    seen = set()
    for _ in range(nnz):
        line, lineno = next_line()
        if line is None:
            raise ParseError(f"expected {nnz} triplets, file ended early", line=lineno)
        tokens = line.split()
        if len(tokens) != 3:
            raise ParseError(f"matrix triplet needs 3 tokens, got {len(tokens)}", line=lineno)
        try:
            i, j = int(tokens[0]), int(tokens[1])
        except ValueError as exc:
            raise ParseError(f"bad triplet indices {tokens[:2]}", line=lineno) from exc
        if not (1 <= i <= n and 1 <= j <= n):
            raise IndexOutOfRange(f"triplet index ({i}, {j}) outside 1..{n}", line=lineno)
        if i > j:
            i, j = j, i
        key = i * (n + 1) + j  # one int per entry: a tuple costs ~3x the memory
        if key in seen:
            raise DuplicateEntry(f"triplet ({i}, {j}) appears twice", line=lineno)
        seen.add(key)
        vals.append(_parse_real(tokens[2], lineno))
        lo.append(i - 1)
        hi.append(j - 1)
    trailing, lineno = next_line()
    if trailing is not None:
        raise ParseError(f"unexpected trailing record {trailing!r}", line=lineno)

    if structure not in (None, "dense", "tridiagonal"):
        raise ParseError(f"unknown structure {structure!r}", line=lineno)
    lo, hi = np.frombuffer(lo, dtype=np.int64), np.frombuffer(hi, dtype=np.int64)
    if structure == "tridiagonal" and np.any(hi - lo > 1):
        raise ParseError("structure tridiagonal but a triplet lies outside the band", line=lineno)
    return _fill(n, lo, hi, np.frombuffer(vals, dtype=np.float64), structure)


def _fill(n: int, lo: np.ndarray, hi: np.ndarray, v: np.ndarray, structure) -> SymMatrix:
    """M from checked 0-based triplets ``(lo, hi, v)``, ``lo <= hi``: QPB's storage rule.

    M is tridiagonal under ``structure tridiagonal``, or with no structure
    key when n >= 2 and every triplet lies in the band; it is dense
    otherwise.  Unlisted entries are zero.
    """
    band = hi - lo
    if structure == "tridiagonal" or (structure is None and n >= 2 and np.all(band <= 1)):
        diag, sub = np.zeros(n), np.zeros(max(n - 1, 0))
        on = band == 0
        diag[lo[on]] = v[on]
        on = band == 1
        sub[lo[on]] = v[on]
        return SymMatrix.from_banded(diag, sub)
    a = np.zeros((n, n))
    a[lo, hi] = v
    a[hi, lo] = v
    return SymMatrix._from_symmetric(a)


def load_qpb(path) -> tuple[QpInstance, dict]:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError as exc:
            raise ParseError(f"file is not UTF-8 text: {exc}") from exc
    return parse_qpb(text)


def save_qpb(path, instance: QpInstance, header: dict | None = None) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(write_qpb(instance, header))
