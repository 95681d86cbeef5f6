"""Text formats: ".graph" for plain graphs, ".hex" for hexagonal systems."""

from __future__ import annotations

from pathlib import Path

from .errors import MatchforceError, ParseError
from .graphs import Graph, build_graph
from .hexsys import HexSystem, build_hex_system


def _body_lines(text: str) -> list[str]:
    lines = []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if line:
            lines.append(line)
    return lines


def parse_graph(text: str) -> Graph:
    """Parse `p n m`, then m `e u v` lines, then optional `c v color` lines."""
    lines = _body_lines(text)
    if not lines or not lines[0].startswith("p "):
        raise ParseError("graph file must start with a 'p <n> <m>' line")
    try:
        _, n_s, m_s = lines[0].split()
        n, m = int(n_s), int(m_s)
    except ValueError as exc:
        raise ParseError(f"bad problem line {lines[0]!r}") from exc
    if n < 0 or m < 0:
        raise ParseError(f"negative count in problem line {lines[0]!r}")

    edges: list[tuple[int, int]] = []
    colors: dict[int, int] = {}
    for line in lines[1:]:
        parts = line.split()
        if parts[0] == "e" and len(parts) == 3:
            try:
                edges.append((int(parts[1]), int(parts[2])))
            except ValueError as exc:
                raise ParseError(f"bad edge line {line!r}") from exc
        elif parts[0] == "c" and len(parts) == 3:
            try:
                v, c = int(parts[1]), int(parts[2])
            except ValueError as exc:
                raise ParseError(f"bad color line {line!r}") from exc
            if v in colors:
                raise ParseError(f"vertex {v} colored twice")
            colors[v] = c
        else:
            raise ParseError(f"unrecognized line {line!r}")
    if len(edges) != m:
        raise ParseError(f"problem line promises {m} edges, found {len(edges)}")
    color = None
    if colors:
        if sorted(colors) != list(range(n)):
            raise ParseError("color lines must cover every vertex or none")
        color = [colors[v] for v in range(n)]
    try:
        return build_graph(n, edges, color)
    except MatchforceError as exc:
        raise ParseError(str(exc)) from exc
    except ValueError as exc:
        raise ParseError(str(exc)) from exc


def serialize_graph(g: Graph) -> str:
    lines = [f"p {g.n} {g.m}"]
    lines += [f"e {u} {v}" for u, v in g.edges]
    if g.color is not None:
        lines += [f"c {v} {c}" for v, c in enumerate(g.color)]
    return "\n".join(lines) + "\n"


def parse_hex(text: str) -> HexSystem:
    """One `q r` cell per line; order-insensitive, duplicates rejected."""
    cells = []
    seen = set()
    for line in _body_lines(text):
        parts = line.split()
        if len(parts) != 2:
            raise ParseError(f"expected 'q r' pair, got {line!r}")
        try:
            cell = (int(parts[0]), int(parts[1]))
        except ValueError as exc:
            raise ParseError(f"bad cell line {line!r}") from exc
        if cell in seen:
            raise ParseError(f"duplicate cell {cell}")
        seen.add(cell)
        cells.append(cell)
    if not cells:
        raise ParseError("hex file contains no cells")
    try:
        return build_hex_system(cells)
    except MatchforceError as exc:
        raise ParseError(str(exc)) from exc


def serialize_hex(h: HexSystem) -> str:
    return "\n".join(f"{q} {r}" for q, r in h.cells) + "\n"


def load_instance(path: str | Path) -> tuple[str, Graph | HexSystem]:
    """Load a file by extension; returns ("graph", Graph) or ("hex", HexSystem)."""
    p = Path(path)
    try:
        text = p.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ParseError(f"cannot read {p}: {exc}") from exc
    if p.suffix == ".graph":
        return "graph", parse_graph(text)
    if p.suffix == ".hex":
        return "hex", parse_hex(text)
    raise ParseError(f"unknown instance extension {p.suffix!r} (want .graph or .hex)")


def serialize_instance(obj: Graph | HexSystem) -> str:
    if isinstance(obj, HexSystem):
        return serialize_hex(obj)
    return serialize_graph(obj)
