"""Line-oriented instance files.

    c <free-form comment>
    p mkvc <n_left> <n_right> <m> <k>
    e <left_index> <right_index> <weight>     (m lines, 0-based indices)

Weights in files are non-negative integers; rational-weighted instances
exist only in memory (see generate) and must be scaled before writing.
"""

from __future__ import annotations

from pathlib import Path

from .errors import MkvcError, ParseError
from .graph import BipartiteInstance


def read_instance(path) -> BipartiteInstance:
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
                    raise ParseError(lineno, "non-integer field in problem line")
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
                    raise ParseError(lineno, "non-integer field in edge line")
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


def write_instance(inst: BipartiteInstance, path) -> None:
    for _, _, w in inst.edges:
        if not isinstance(w, int):
            raise MkvcError(
                "cannot serialize non-integer weights; scale the instance first")
    lines = [f"p mkvc {inst.n_left} {inst.n_right} {inst.m} {inst.k}"]
    for l, r, w in inst.edges:
        lines.append(f"e {l} {r} {w}")
    Path(path).write_text("\n".join(lines) + "\n", encoding="ascii")
