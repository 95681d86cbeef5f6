"""A fixed, stdlib-only reference workload that calibrates the host's speed.

On a shared host the CPU speed can drift by about ±20 % over a minute or two
(measured on a 2-vCPU virtual machine). The drift affects every operation
alike, so raw seconds from runs made minutes apart differ by more than many
changes worth measuring. The benchmark therefore times this reference before
the first operation of a pass and after every operation. It reports each
operation's time as a multiple of the median reference time measured around
it, in the unit "ref".

The reference imitates the program's kind of work, without using matchforce,
so that no change to the program can change it:
- backtracking over the perfect matchings of a 4 x 8 grid graph, building
  each one as a frozenset;
- a bitmask branch-and-bound for a minimum vertex cover of a fixed random
  graph.
Never change it: the values of two commits are comparable only when both
used the same reference.
"""

from __future__ import annotations

import random
import time

GRID_ROWS, GRID_COLS = 4, 8
_rng = random.Random(7)
COVER_EDGES = tuple((u, v) for u in range(20) for v in range(u + 1, 20) if _rng.random() < 0.2)


def _grid_matchings() -> int:
    n = GRID_ROWS * GRID_COLS
    adj = [[] for _ in range(n)]
    for r in range(GRID_ROWS):
        for c in range(GRID_COLS):
            for rr, cc in ((r, c + 1), (r + 1, c), (r, c - 1), (r - 1, c)):
                if 0 <= rr < GRID_ROWS and 0 <= cc < GRID_COLS:
                    adj[r * GRID_COLS + c].append(rr * GRID_COLS + cc)
    covered = [False] * n
    found = [0]

    def extend(v: int, chosen: list) -> None:
        while v < n and covered[v]:
            v += 1
        if v == n:
            # built and dropped, as the program builds matchings, while
            # keeping the reference's own memory small
            frozenset(chosen)
            found[0] += 1
            return
        for w in adj[v]:
            if not covered[w]:
                covered[v] = covered[w] = True
                chosen.append((v, w))
                extend(v + 1, chosen)
                chosen.pop()
                covered[v] = covered[w] = False

    extend(0, [])
    return found[0]


def _min_vertex_cover() -> int:
    masks = [(1 << u) | (1 << v) for u, v in COVER_EDGES]
    best = [len({x for e in COVER_EDGES for x in e})]

    def branch(i: int, chosen: int, size: int) -> None:
        if size >= best[0]:
            return
        while i < len(masks) and masks[i] & chosen:
            i += 1
        if i == len(masks):
            best[0] = size
            return
        u, v = COVER_EDGES[i]
        branch(i + 1, chosen | (1 << u), size + 1)
        branch(i + 1, chosen | (1 << v), size + 1)

    branch(0, 0, 0)
    return best[0]


def reference() -> tuple[int, int]:
    """Run the reference once; the result is always (2245, 12)."""
    return _grid_matchings(), _min_vertex_cover()


def timed_reference() -> float:
    start = time.perf_counter()
    reference()
    return time.perf_counter() - start
