"""Line-oriented instance files.

    c <free-form comment>
    p mkvc <n_left> <n_right> <m> <k>
    e <left_index> <right_index> <weight>     (m lines, 0-based indices)

Weights in files are non-negative integers; rational-weighted instances
exist only in memory (see generate) and must be scaled before writing.

Lines are numbered from 1 after text-mode newline translation: "\n",
"\r\n" and a lone "\r" each end a line and no other character does, so
"\x0b", "\x0c" and "\x1c"-"\x1f" separate fields as a space does.  The
text after the last newline is a line only if it is not empty.  Each
line is checked in turn and the first fault found is raised, with that
line's number; an edge count that falls short is reported on the line
after the last.  The reader makes every check `BipartiteInstance`
makes, so it builds the instance without repeating them.
"""

from __future__ import annotations

import sys
from pathlib import Path

from .errors import MkvcError, ParseError
from .graph import BipartiteInstance


def _int_error(lineno: int, fields, line_kind: str) -> ParseError:
    """Why int() refused one of the fields: it also refuses a digit string
    longer than the interpreter's limit (none before Python 3.10.7)."""
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if limit and any(len(field) > limit for field in fields):
        return ParseError(lineno, f"field too long in {line_kind} line "
                          f"(over {limit} digits)")
    return ParseError(lineno, f"non-integer field in {line_kind} line")


def read_instance(path) -> BipartiteInstance:
    # undecodable bytes become lone surrogates, so they reach the ASCII
    # check below with the same line numbering as a strict decode; text
    # mode turns "\r\n" and a lone "\r" into "\n"
    with open(path, "r", encoding="ascii", errors="surrogateescape") as fh:
        text = fh.read()
    lines = text.split("\n")
    if not lines[-1]:
        lines.pop()             # the text after a final newline is no line
    bad = None
    if not text.isascii():
        # only the lines before the first non-ASCII one are parsed, so a
        # fault on one of them is still reported first
        bad = next(i for i, line in enumerate(lines, 1) if not line.isascii())
        del lines[bad - 1:]
    n_left = n_right = k = None
    edges = []
    seen = set()
    m_expected = 0              # no edge line is allowed before the header
    for lineno, line in enumerate(lines, start=1):
        fields = line.split()
        if not fields:
            continue
        tag = fields[0]
        if tag == "e":
            if len(edges) >= m_expected:
                raise ParseError(lineno, "edge line before problem line"
                                 if n_left is None else
                                 "more edge lines than declared")
            if len(fields) != 4:
                raise ParseError(lineno, "expected 'e left right weight'")
            try:
                l, r, w = int(fields[1]), int(fields[2]), int(fields[3])
            except ValueError:
                raise _int_error(lineno, fields[1:], "edge")
            if not (0 <= l < n_left and 0 <= r < n_right):
                raise ParseError(lineno, f"edge ({l},{r}) out of range")
            if w < 0:
                raise ParseError(lineno, "negative weight")
            key = l * n_right + r
            if key in seen:
                raise ParseError(lineno, f"duplicate edge ({l},{r})")
            seen.add(key)
            edges.append((l, r, w))
        elif tag[0] == "c":
            continue
        elif tag == "p":
            if n_left is not None:
                raise ParseError(lineno, "duplicate problem line")
            if len(fields) != 6 or fields[1] != "mkvc":
                raise ParseError(lineno, "malformed problem line, "
                                 "expected 'p mkvc n_left n_right m k'")
            try:
                n_left, n_right, m_expected, k = map(int, fields[2:])
            except ValueError:
                raise _int_error(lineno, fields[2:], "problem")
            if n_left < 1 or n_right < 1:
                raise ParseError(lineno, "side sizes must be >= 1")
            if m_expected < 0:
                raise ParseError(lineno, "negative edge count")
            if not 1 <= k < n_left + n_right:
                raise ParseError(
                    lineno, f"k={k} out of range [1, {n_left + n_right})")
        else:
            raise ParseError(lineno, f"unknown line type {tag!r}")
    if bad is not None:
        raise ParseError(bad, "non-ASCII byte")
    if n_left is None:
        raise ParseError(1, "missing problem line")
    if len(edges) != m_expected:
        raise ParseError(len(lines) + 1,
                         f"declared {m_expected} edges, found {len(edges)}")
    # every check __init__ makes has been made above
    return BipartiteInstance._checked(n_left, n_right, tuple(edges), k)


def write_instance(inst: BipartiteInstance, path) -> None:
    for _, _, w in inst.edges:
        if not isinstance(w, int):
            raise MkvcError(
                "cannot serialize non-integer weights; scale the instance first")
    lines = [f"p mkvc {inst.n_left} {inst.n_right} {inst.m} {inst.k}"]
    for l, r, w in inst.edges:
        lines.append(f"e {l} {r} {w}")
    Path(path).write_text("\n".join(lines) + "\n", encoding="ascii")
