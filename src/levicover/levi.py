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

from .graphs import DEFAULT_BUDGET, Budget, Graph, GraphError, charge_rows


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


class LeviIndexing:
    """Canonical vertex numbering for the incidence graph of order q.

    Affine points come first in row-major (x, y) order, then the slope
    points (where all lines of slope a meet), then the point shared by the
    vertical lines. Lines follow the same pattern: sloped lines (a, b),
    vertical lines, then the line through all points at infinity.
    """

    __slots__ = ("q",)

    def __init__(self, q: int):
        self.q = require_prime(q)

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


def gen_levi(q: int, budget: int = DEFAULT_BUDGET) -> Graph:
    """Build the incidence graph of the projective plane of prime order q.

    An affine point (x, y) lies on the sloped line (a, b) iff
    a*x + b = y (mod q), and on the vertical line at x. The slope point
    for a lies on every line of slope a and on the infinity line; the
    vertical point lies on every vertical line and on the infinity line.

    The rows are built directly. Affine points and sloped lines are both
    numbered in q blocks of q (LeviIndexing), and if (x, y) lies on
    (a, b) then (x, y + 1) lies on (a, b + 1). So the sloped lines of
    (x, y + 1), and the points of (a, b + 1), are those of (x, y), and of
    (a, b), each moved one place up within its block, the top place
    wrapping to the bottom: a few n-bit operations per row.

    The (q+1)(q^2+q+1) edges are charged against ``budget`` first, then,
    on a budget of its own, the n rows of words(n) that it builds, as
    parse_graph charges them: an order too large to build is refused
    before primality is tested or any memory is taken. An order below 2,
    whose charges would be wrong or a credit, is refused before both.
    """
    if q < 2:
        require_prime(q)
    size, n = (q + 1) * plane_size(q), 2 * plane_size(q)
    Budget(budget, f"the plane of order {q} has {{}} edges").charge(size)
    charge_rows(budget, n, n, f"the plane of order {q}")
    ix = LeviIndexing(q)
    r = range(q)
    block = (1 << q) - 1
    tops = sum(1 << (i * q + q - 1) for i in r)

    def up(row: int) -> int:
        return (row & ~tops) << 1 | (row & tops) >> (q - 1)

    adj = [0] * ix.n
    sloped = ix.sloped_line(0, 0)
    for x in r:
        # (x, 0) lies on the lines (a, -a*x mod q), a*q + b past line (0, 0)
        lines = sum(1 << (a * q + -a * x % q) for a in r)
        for y in r:
            adj[ix.affine_point(x, y)] = (lines << sloped
                                          | 1 << ix.vertical_line(x))
            lines = up(lines)
        adj[ix.vertical_line(x)] = (block << ix.affine_point(x, 0)
                                    | 1 << ix.vertical_point())
    for a in r:
        # (a, 0) holds the points (x, a*x mod q)
        points = sum(1 << ix.affine_point(x, a * x % q) for x in r)
        for b in r:
            adj[ix.sloped_line(a, b)] = points | 1 << ix.slope_point(a)
            points = up(points)
        adj[ix.slope_point(a)] = (block << ix.sloped_line(a, 0)
                                  | 1 << ix.infinity_line())
    adj[ix.vertical_point()] = (block << ix.vertical_line(0)
                                | 1 << ix.infinity_line())
    adj[ix.infinity_line()] = (block << ix.slope_point(0)
                               | 1 << ix.vertical_point())
    return Graph(n=ix.n, m=size, adj=tuple(adj), side_p_size=ix.side_size)


def verify_levi_properties(g: Graph, c4_free: bool) -> bool:
    """True iff g is C4-free, as ``c4_free`` says from the caller's
    is_c4_free sweep, has two sides of s = q^2 + q + 1 vertices and
    every degree is q + 1, where q is ``infer_q(g)``; GraphError when the
    side P of g fits no prime-order plane.

    Those facts give the one-common-neighbour law by double counting: the
    s lines cover s C(q+1, 2) = C(s, 2) pairs of points, and with no C4
    no pair is covered twice, so every two points share exactly one
    line. The same count holds for lines. A graph that is not a valid
    incidence graph (e.g. after deleting an edge) gives False, never an
    error.
    """
    q = infer_q(g)
    return (c4_free and g.n == 2 * g.side_p_size
            and all(row.bit_count() == q + 1 for row in g.adj))
