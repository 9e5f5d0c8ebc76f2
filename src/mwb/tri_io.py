"""Facet-list files (.tri), move traces, and coordinate files.

A .tri file is a `d n` header followed by one facet per line (d+1 labels).
Input labels may be decimal or the single characters a-z for 10-35 (the
shorthand used in printed facet tables); output is always decimal, with
facets and vertices sorted, so writing is byte-deterministic and
parse(write(C)) == C for every complex. A trace has one move per line,
`k: a .. -> b ..`, in decimal, and parse_trace(write_trace(t)) == t.
A reduction trace repeats few distinct lines many times over: heating
back-and-forths and the inverse moves of reverts.  So each distinct move is
written, and each distinct line parsed and validated, once, and repeated
lines share one frozen FlipMove.  Which moves of a trace are checked is
decided by ``flips.replay``; see its undo rule.
"""
from __future__ import annotations

from fractions import Fraction

from .core import Complex, from_facets
from .errors import ParseError
from .flips import FlipMove


def decimal(tok: str) -> int | None:
    """The value of an ASCII decimal token, None for any other token and for
    one of more digits than int() converts."""
    if tok.isascii() and tok.isdigit():  # isdigit alone passes superscripts
        try:
            return int(tok)
        except ValueError:
            pass
    return None


def _parse_label(tok: str, line_no: int) -> int:
    v = decimal(tok)
    if v is not None:
        return v
    if len(tok) == 1 and "a" <= tok <= "z":
        return 10 + ord(tok) - ord("a")
    raise ParseError(f"bad vertex label {tok[:20]!r}", line_no)


def parse(text: str) -> Complex:
    """Parse a facet file; raises ParseError with the offending line number."""
    header = None
    facets = []
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        toks = line.split()
        if header is None:
            header = tuple(map(decimal, toks))
            if len(header) != 2 or None in header:
                raise ParseError("header must be 'd n'", line_no)
            if header[0] < 1 or header[1] < header[0] + 1:
                raise ParseError("need d >= 1 and n >= d+1", line_no)
            continue
        labels = [_parse_label(t, line_no) for t in toks]
        if len(labels) != header[0] + 1:
            raise ParseError(
                f"facet has {len(labels)} labels, expected {header[0] + 1}",
                line_no)
        for v in labels:
            if not 1 <= v <= header[1]:
                raise ParseError(f"label {v} outside 1..{header[1]}", line_no)
        if len(set(labels)) != len(labels):
            raise ParseError("facet repeats a vertex", line_no)
        facets.append(labels)
    if header is None:
        raise ParseError("missing header")
    if not facets:
        raise ParseError("no facets")
    C = from_facets(facets)
    if C.n != header[1]:
        raise ParseError(
            f"header announces {header[1]} vertices but {C.n} labels are used")
    return C


def write(C: Complex) -> str:
    lines = [f"{C.dim} {C.n}"]
    lines.extend(" ".join(map(str, F)) for F in C.facets)
    return "\n".join(lines) + "\n"


def load(path) -> Complex:
    with open(path, "r", encoding="ascii") as fh:
        return parse(fh.read())


def save(path, C: Complex) -> None:
    with open(path, "w", encoding="ascii") as fh:
        fh.write(write(C))


def write_trace(trace) -> str:
    lines: dict = {}  # move -> its line, each distinct move formatted once
    out = []
    for m in trace:
        line = lines.get(m)
        if line is None:
            line = lines[m] = (f"{m.kind}: {' '.join(map(str, m.remove))} -> "
                               f"{' '.join(map(str, m.insert))}\n")
        out.append(line)
    return "".join(out)


def parse_trace(text: str) -> list:
    """The moves of a trace; a repeated line gives the same FlipMove."""
    moves = []
    seen: dict = {}  # raw line -> its move, each distinct line parsed once
    for line_no, raw in enumerate(text.splitlines(), start=1):
        m = seen.get(raw)
        if m is None:
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            head, colon, rest = line.partition(":")
            a, arrow, b = rest.partition("->")
            kind, remove, insert = ([decimal(t) for t in part.split()]
                                    for part in (head, a, b))
            if not (colon and arrow) or len(kind) != 1 or None in kind + remove + insert:
                raise ParseError("bad move line, expected 'k: a .. -> b ..'", line_no)
            m = seen[raw] = FlipMove(kind[0], tuple(remove), tuple(insert))
        moves.append(m)
    return moves


_COORD_CHARS = frozenset("+-0123456789./")


def _parse_coord(tok: str, line_no: int) -> Fraction:
    # Fraction alone also reads exponents (Fraction("1e999999999") builds a
    # huge integer), non-ASCII digits and, from Python 3.11 on, "1_0"
    try:
        if set(tok) <= _COORD_CHARS:
            return Fraction(tok)
    except (ValueError, ZeroDivisionError):
        pass
    raise ParseError(f"bad coordinate {tok[:20]!r}", line_no)


def parse_coords(text: str) -> dict:
    """Lines `v x y z`, one per vertex; coordinates may be integers,
    fractions, or decimals without exponent (all converted exactly), written
    with an ASCII sign, digits, `.` and `/` only."""
    coords = {}
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        toks = line.split()
        if len(toks) != 4:
            raise ParseError("expected 'v x y z'", line_no)
        v = _parse_label(toks[0], line_no)
        if v in coords:
            raise ParseError(f"vertex {v} given twice", line_no)
        coords[v] = tuple(_parse_coord(t, line_no) for t in toks[1:])
    return coords
