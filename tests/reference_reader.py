"""The instance reader as it stood before `mkvc.fileio.read_instance` was
rewritten as one pass over the text: the reference the differential tests
in test_harness.py hold the package's reader to.  It reads the file line
by line, strips and splits each line, and builds the instance through
`BipartiteInstance.__init__`, which checks every edge again."""

from __future__ import annotations

import sys

from mkvc.errors import ParseError
from mkvc.graph import BipartiteInstance


def _int_error(lineno: int, fields, line_kind: str) -> ParseError:
    """Why int() refused one of the fields: it also refuses a digit string
    longer than the interpreter's limit (none before Python 3.10.7)."""
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if limit and any(len(field) > limit for field in fields):
        return ParseError(lineno, f"field too long in {line_kind} line "
                          f"(over {limit} digits)")
    return ParseError(lineno, f"non-integer field in {line_kind} line")


def reference_read_instance(path) -> BipartiteInstance:
    header = None
    edges = []
    seen = set()
    m_expected = 0
    lineno = 0
    # undecodable bytes become lone surrogates, so they reach the line
    # check below with the same line numbering as a strict decode
    with open(path, "r", encoding="ascii", errors="surrogateescape") as fh:
        for lineno, raw in enumerate(fh, start=1):
            if not raw.isascii():
                raise ParseError(lineno, "non-ASCII byte")
            line = raw.strip()
            if not line or line.startswith("c"):
                continue
            fields = line.split()
            if fields[0] == "p":
                if header is not None:
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
                header = (n_left, n_right, k)
            elif fields[0] == "e":
                if header is None:
                    raise ParseError(lineno, "edge line before problem line")
                if len(edges) >= m_expected:
                    raise ParseError(lineno, "more edge lines than declared")
                if len(fields) != 4:
                    raise ParseError(lineno, "expected 'e left right weight'")
                try:
                    l, r, w = map(int, fields[1:])
                except ValueError:
                    raise _int_error(lineno, fields[1:], "edge")
                if not 0 <= l < header[0] or not 0 <= r < header[1]:
                    raise ParseError(lineno, f"edge ({l},{r}) out of range")
                if w < 0:
                    raise ParseError(lineno, "negative weight")
                if (l, r) in seen:
                    raise ParseError(lineno, f"duplicate edge ({l},{r})")
                seen.add((l, r))
                edges.append((l, r, w))
            else:
                raise ParseError(lineno, f"unknown line type {fields[0]!r}")
    if header is None:
        raise ParseError(1, "missing problem line")
    if len(edges) != m_expected:
        raise ParseError(
            lineno + 1 if edges or m_expected else 1,
            f"declared {m_expected} edges, found {len(edges)}")
    return BipartiteInstance(header[0], header[1], edges, header[2])

