"""Point-line incidence graphs of projective planes of prime order.

For a prime q the plane has q^2 + q + 1 points and as many lines; every
line carries q + 1 points, every point lies on q + 1 lines, and any two
points share exactly one line (dually for lines). The incidence (Levi)
graph is therefore bipartite, (q+1)-regular on both sides, and C4-free.

Vertex indexing is fixed so that generation is byte-reproducible:
points occupy indices 0 .. q^2+q, lines q^2+q+1 .. 2(q^2+q+1)-1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .graphs import Graph, GraphError, codegree_range


def is_prime(q: int) -> bool:
    if q < 2:
        return False
    f = 2
    while f * f <= q:
        if q % f == 0:
            return False
        f += 1
    return True


def require_prime(q: int) -> int:
    if not is_prime(q):
        raise GraphError(f"order must be a prime, got {q}")
    return q


def plane_size(q: int) -> int:
    """q^2 + q + 1, the number of points (and of lines) of the plane of
    order q."""
    return q * q + q + 1


def infer_q(g: Graph) -> int:
    """Recover the plane order from the bipartition side size.

    s = q^2 + q + 1 iff 4s - 3 = (2q + 1)^2.
    """
    s = g.side_p_size
    q = (math.isqrt(max(4 * s - 3, 0)) - 1) // 2
    if q < 2 or plane_size(q) != s or not is_prime(q):
        raise GraphError(
            f"side size {s} does not match a prime-order plane")
    return q


@dataclass(frozen=True)
class LeviIndexing:
    """Canonical vertex numbering for the incidence graph of order q.

    Affine points come first in row-major (x, y) order, then the slope
    points (where all lines of slope a meet), then the point shared by the
    vertical lines. Lines follow the same pattern: sloped lines (a, b),
    vertical lines, then the line through all points at infinity.
    """

    q: int

    def __post_init__(self):
        require_prime(self.q)

    @property
    def side_size(self) -> int:
        return plane_size(self.q)

    @property
    def n(self) -> int:
        return 2 * self.side_size

    def affine_point(self, x: int, y: int) -> int:
        return x * self.q + y

    def slope_point(self, a: int) -> int:
        return self.q * self.q + a

    def vertical_point(self) -> int:
        return self.q * self.q + self.q

    def sloped_line(self, a: int, b: int) -> int:
        return self.side_size + a * self.q + b

    def vertical_line(self, x: int) -> int:
        return self.side_size + self.q * self.q + x

    def infinity_line(self) -> int:
        return self.n - 1


def gen_levi(q: int) -> Graph:
    """Build the incidence graph of the projective plane of prime order q.

    An affine point (x, y) lies on the sloped line (a, b) iff
    a*x + b = y (mod q), and on the vertical line at x. The slope point
    for a lies on every line of slope a and on the infinity line; the
    vertical point lies on every vertical line and on the infinity line.
    """
    ix = LeviIndexing(require_prime(q))
    edges = []
    for x in range(q):
        for y in range(q):
            p = ix.affine_point(x, y)
            for a in range(q):
                b = (y - a * x) % q
                edges.append((p, ix.sloped_line(a, b)))
            edges.append((p, ix.vertical_line(x)))
    for a in range(q):
        p = ix.slope_point(a)
        for b in range(q):
            edges.append((p, ix.sloped_line(a, b)))
        edges.append((p, ix.infinity_line()))
    for x in range(q):
        edges.append((ix.vertical_point(), ix.vertical_line(x)))
    edges.append((ix.vertical_point(), ix.infinity_line()))
    edges.sort()
    return Graph.from_edges(ix.n, edges, side_p_size=ix.side_size)


@dataclass(frozen=True)
class LeviPropertyReport:
    """Result of exhaustively checking the five incidence-graph properties."""

    n_ok: bool
    p_degree_ok: bool
    p_common_ok: bool
    l_degree_ok: bool
    l_common_ok: bool
    observed_n: int
    degree_range: tuple[int, int]
    common_range: tuple[int, int]

    @property
    def all_ok(self) -> bool:
        return (self.n_ok and self.p_degree_ok and self.p_common_ok
                and self.l_degree_ok and self.l_common_ok)


def _degree_range(g: Graph, lo: int, hi: int) -> tuple[int, int]:
    """Min and max degree over lo <= v < hi; (g.n, 0) when it is empty."""
    degs = [g.degree(v) for v in range(lo, hi)]
    return min(degs, default=g.n), max(degs, default=0)


def verify_levi_properties(g: Graph, q: int) -> LeviPropertyReport:
    """Check side sizes, (q+1)-regularity, and the one-common-neighbor law.

    Failures are reported in the flags, never raised: the point of the
    report is to describe graphs that are *not* valid incidence graphs too
    (e.g. after deleting an edge).
    """
    require_prime(q)
    s = plane_size(q)
    if g.side_p_size != s:
        raise GraphError(f"graph not flagged bipartite with side size {s}")
    want_n = 2 * s
    deg = q + 1
    p_deg = _degree_range(g, 0, g.side_p_size)
    l_deg = _degree_range(g, g.side_p_size, g.n)
    p_common = codegree_range(g, 0, g.side_p_size)
    l_common = codegree_range(g, g.side_p_size, g.n)
    return LeviPropertyReport(
        n_ok=g.n == want_n,
        p_degree_ok=p_deg == (deg, deg),
        p_common_ok=p_common == (1, 1),
        l_degree_ok=l_deg == (deg, deg),
        l_common_ok=l_common == (1, 1),
        observed_n=g.n,
        degree_range=(min(p_deg[0], l_deg[0]), max(p_deg[1], l_deg[1])),
        common_range=(min(p_common[0], l_common[0]),
                      max(p_common[1], l_common[1])),
    )
