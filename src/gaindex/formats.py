"""Text formats: graph6 (read/write), plain edge lists, and named shorthand."""

from __future__ import annotations

import re
from typing import Callable, Iterator

from .graphs import (
    Graph,
    complete_bipartite_graph,
    complete_graph,
    cycle_graph,
    double_star_graph,
    from_edge_list,
    path_graph,
    paw_graph,
    star_graph,
)

__all__ = [
    "Graph6Error",
    "parse_graph6",
    "to_graph6",
    "iter_graph6",
    "read_edge_list",
    "write_edge_list",
    "parse_graph_spec",
    "looks_like_edge_list",
]

_HEADER = ">>graph6<<"
_PLUS_63 = bytes((i + 63) % 256 for i in range(256))  # 6-bit value -> graph6 char
# Inputs from outside are checked against these before any graph is built,
# so an oversized spec, header or graph6 line fails at once instead of
# exhausting memory.
MAX_VERTICES = 10_000
MAX_EDGES = 100_000


class Graph6Error(ValueError):
    """Malformed graph6 input; ``offset`` is the byte position of the problem."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (byte offset {offset})")
        self.offset = offset


def _data_values(text: str, start: int) -> list[int]:
    values = []
    for i in range(start, len(text)):
        code = ord(text[i])
        if not 63 <= code <= 126:
            raise Graph6Error(f"invalid graph6 character {text[i]!r}", i)
        values.append(code - 63)
    return values


def parse_graph6(text: str) -> Graph:
    """Decode one graph6 line into a graph."""
    s = text.strip()
    if s.startswith(_HEADER):
        s = s[len(_HEADER):]
    if not s:
        raise Graph6Error("empty graph6 string", 0)
    first = ord(s[0])
    if not 63 <= first <= 126:
        raise Graph6Error(f"invalid graph6 character {s[0]!r}", 0)
    if s[0] == "~":
        if len(s) >= 2 and s[1] == "~":
            size_chars, start = 6, 2
        else:
            size_chars, start = 3, 1
        if len(s) < start + size_chars:
            raise Graph6Error("truncated graph6 size field", len(s))
        n = 0
        for i in range(start, start + size_chars):
            code = ord(s[i])
            if not 63 <= code <= 126:
                raise Graph6Error(f"invalid graph6 character {s[i]!r}", i)
            n = (n << 6) | (code - 63)
        body_at = start + size_chars
    else:
        n = first - 63
        body_at = 1
    _check_size(n, 0)
    nbits = n * (n - 1) // 2
    need = (nbits + 5) // 6
    got = len(s) - body_at
    if got != need:
        raise Graph6Error(
            f"expected {need} data characters for n={n}, found {got}", body_at
        )
    values = _data_values(s, body_at)
    # One set bit per edge (padding bits are zero, checked below).
    _check_size(n, sum(map(int.bit_count, values)))
    pairs = []
    idx = 0
    for k in range(1, n):
        for j in range(k):
            word, bit = divmod(idx, 6)
            if (values[word] >> (5 - bit)) & 1:
                pairs.append((j, k))
            idx += 1
    # Padding bits beyond the triangle must be zero.
    if need:
        tail_bits = need * 6 - nbits
        if tail_bits and values[-1] & ((1 << tail_bits) - 1):
            raise Graph6Error("nonzero padding bits", len(s) - 1)
    return from_edge_list(n, pairs)


def to_graph6(g: Graph) -> str:
    """Encode a graph as a canonical graph6 line (no header, no newline)."""
    n = g.n
    if n <= 62:
        head = chr(n + 63)
    elif n <= 258047:
        head = "~" + "".join(chr(((n >> sh) & 63) + 63) for sh in (12, 6, 0))
    else:
        raise ValueError(f"graph too large for this encoder: n={n}")
    # Bit k of the column-major upper triangle is bit 5 - k % 6 of group k // 6.
    groups = bytearray((n * (n - 1) // 2 + 5) // 6)
    for u, v in g.edges:
        k = v * (v - 1) // 2 + u
        groups[k // 6] |= 32 >> (k % 6)
    return head + groups.translate(_PLUS_63).decode("ascii")


def iter_graph6(text: str) -> Iterator[Graph]:
    """Parse one graph per nonblank line, each when it is reached."""
    for line in text.splitlines():
        line = line.strip()
        if line:
            yield parse_graph6(line)


def looks_like_edge_list(text: str) -> bool:
    for line in text.splitlines():
        line = line.strip()
        if line:
            return re.fullmatch(r"\d+\s+\d+", line) is not None
    return False


def _check_size(n: int, m: int) -> None:
    if n > MAX_VERTICES:
        raise ValueError(
            f"{n} vertices exceed the input limit MAX_VERTICES = {MAX_VERTICES}"
        )
    if m > MAX_EDGES:
        raise ValueError(f"{m} edges exceed the input limit MAX_EDGES = {MAX_EDGES}")


def read_edge_list(text: str) -> Graph:
    """Parse the plain format: first line ``n m``, then m lines ``u v``, each
    edge once in either orientation."""
    lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise ValueError("empty edge-list input")
    head = lines[0].split()
    if len(head) != 2 or not all(tok.isdigit() for tok in head):
        raise ValueError(f"edge-list header must be 'n m', got {lines[0]!r}")
    n, m = int(head[0]), int(head[1])
    _check_size(n, m)
    if len(lines) - 1 != m:
        raise ValueError(f"expected {m} edge lines, found {len(lines) - 1}")
    pairs = []
    seen = set()
    for ln in lines[1:]:
        toks = ln.split()
        if len(toks) != 2 or not all(tok.isdigit() for tok in toks):
            raise ValueError(f"bad edge line {ln!r}")
        u, v = int(toks[0]), int(toks[1])
        edge = (u, v) if u < v else (v, u)
        if edge in seen:
            raise ValueError(f"repeated edge line {ln!r}: edge {edge} is listed twice")
        seen.add(edge)
        pairs.append((u, v))
    return from_edge_list(n, pairs)


def write_edge_list(g: Graph) -> str:
    lines = [f"{g.n} {g.m}"]
    lines.extend(f"{u} {v}" for u, v in g.edges)
    return "\n".join(lines) + "\n"


# (pattern, (vertex count, edge count) from the parameters, builder); the
# builders look their functions up when called, after the size check.
_SPECS: list[tuple[re.Pattern[str], Callable[..., tuple[int, int]], Callable]] = [
    (re.compile(r"^P(\d+)$"), lambda n: (n, n - 1), lambda n: path_graph(n)),
    (re.compile(r"^C(\d+)$"), lambda n: (n, n), lambda n: cycle_graph(n)),
    (re.compile(r"^S(\d+)$"), lambda n: (n, n - 1), lambda n: star_graph(n)),
    (
        re.compile(r"^K(\d+),(\d+)$"),
        lambda p, q: (p + q, p * q),
        lambda p, q: complete_bipartite_graph(p, q),
    ),
    (
        re.compile(r"^K(\d+)$"),
        lambda n: (n, n * (n - 1) // 2),
        lambda n: complete_graph(n),
    ),
    (
        re.compile(r"^DS(\d+),(\d+)$"),
        lambda a, b: (a + b + 2, a + b + 1),
        lambda a, b: double_star_graph(a, b),
    ),
    (re.compile(r"^paw$"), lambda: (4, 4), lambda: paw_graph()),
]


def parse_graph_spec(spec: str) -> Graph:
    """Parse a named family (P5, C4, S5, K5,20, K4, DS1,2, paw) or graph6."""
    s = spec.strip()
    for pattern, size, build in _SPECS:
        m = pattern.match(s)
        if m:
            params = [int(group) for group in m.groups()]
            _check_size(*size(*params))
            return build(*params)
    return parse_graph6(s)
