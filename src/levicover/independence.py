"""Independent-set enumeration and the extremal checks built on it.

Everything here is exact: neighborhood expansion bounds are compared as
rationals or as cross-multiplied integers, counts are integers, and the
only floating point appears in the closed-form bound values that are
irrational by nature (those are compared with an explicit relative
margin by callers).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from fractions import Fraction
from itertools import accumulate, chain, combinations
from typing import Callable, Iterator, Optional

import numpy as np

from .graphs import (Graph, GraphError, VertexSet, degeneracy_order,
                     is_c4_free, iter_members, members,
                     neighborhood_of_set, sqrt_degeneracy_bound)
from .levi import (gen_levi, infer_q, plane_size, require_prime,
                   verify_levi_properties)


class BudgetExceededError(RuntimeError):
    """An enumeration exceeded its configured step budget."""


class _Budget:
    """Mutable step counter; None means unlimited."""

    def __init__(self, limit: Optional[int]):
        self.left = limit

    def charge(self, cost: int = 1):
        if self.left is None:
            return
        self.left -= cost
        if self.left < 0:
            raise BudgetExceededError("enumeration budget exceeded")


def enumerate_independent_sets(g: Graph, k: int,
                               budget: Optional[int] = None
                               ) -> Iterator[VertexSet]:
    """Yield every independent set of size 1..k exactly once.

    Emission order is lexicographic on the sorted member lists, i.e. a
    depth-first walk that extends by increasing vertex index.
    """
    if k < 0:
        raise GraphError("size limit must be non-negative")
    b = _Budget(budget)

    def extend(mask: int, start: int, depth: int) -> Iterator[VertexSet]:
        for v in range(start, g.n):
            b.charge()
            if g.adj[v] & mask:
                continue
            new = mask | (1 << v)
            yield new
            if depth + 1 < k:
                yield from extend(new, v + 1, depth + 1)

    if k >= 1:
        yield from extend(0, 0, 0)


def count_independent_sets(g: Graph, k: int,
                           budget: Optional[int] = None) -> int:
    return sum(1 for _ in enumerate_independent_sets(g, k, budget))


def enumerate_maximal_independent_sets(g: Graph, containing: VertexSet = 0,
                                       budget: Optional[int] = None
                                       ) -> Iterator[VertexSet]:
    """Yield every inclusion-maximal independent set containing
    ``containing`` exactly once (by default, every maximal set).

    Bron-Kerbosch with pivoting on the complement graph (independent sets
    of g are cliques of its complement), started at R = ``containing``
    with P its common non-neighbors and X empty. Each recursive call
    costs one budget step.
    """
    if containing & ~g.all_vertices:
        raise GraphError("vertex index out of range")
    if not g.is_independent(containing):
        raise GraphError("set is not independent")
    b = _Budget(budget)
    full = g.all_vertices
    comp = tuple(full & ~g.adj[v] & ~(1 << v) for v in range(g.n))

    def bk(r: int, p: int, x: int) -> Iterator[VertexSet]:
        b.charge()
        if not p and not x:
            yield r
            return
        pivot, best = -1, -1
        for u in iter_members(p | x):
            score = (p & comp[u]).bit_count()
            if score > best:
                pivot, best = u, score
        for v in iter_members(p & ~comp[pivot]):
            nb = comp[v]
            yield from bk(r | (1 << v), p & nb, x & nb)
            p &= ~(1 << v)
            x |= 1 << v

    if g.n:
        p = full
        for v in iter_members(containing):
            p &= comp[v]
        yield from bk(containing, p, 0)


@dataclass(frozen=True)
class DesignParams:
    """Side size, regular degree, and common-neighbor count of a design."""

    eta: int
    delta: int
    lam: int

    @classmethod
    def for_plane(cls, q: int) -> "DesignParams":
        return cls(eta=plane_size(q), delta=q + 1, lam=1)


@dataclass(frozen=True)
class SideProfile:
    """Per-side member counts (a in P, b in L) of a vertex set."""

    a: int
    b: int


def side_profile(g: Graph, s: VertexSet) -> SideProfile:
    if g.side_p_size == 0:
        raise GraphError("graph is not flagged bipartite")
    a = (s & g.side_p).bit_count()
    return SideProfile(a=a, b=s.bit_count() - a)


@dataclass(frozen=True)
class ExpansionCheck:
    holds: bool
    neighborhood_size: int
    bound: Fraction


def check_expansion(g: Graph, params: DesignParams,
                    s: VertexSet) -> ExpansionCheck:
    """Compare |N(S)| against delta^2 |S| / (delta + lam (|S|-1)) exactly."""
    if not s:
        raise GraphError("expansion check needs a nonempty set")
    if g.side_p_size == 0:
        raise GraphError("graph is not flagged bipartite")
    if (s & g.side_p) and (s & g.side_l):
        raise GraphError("set straddles both sides")
    size = s.bit_count()
    bound = Fraction(params.delta ** 2 * size,
                     params.delta + params.lam * (size - 1))
    nsize = neighborhood_of_set(g, s).bit_count()
    return ExpansionCheck(holds=nsize >= bound, neighborhood_size=nsize,
                          bound=bound)


# A verify check: (expected, observed, pass, margin); margin is None for
# yes/no checks.
CheckResult = tuple[object, object, bool, Optional[float]]


def _verify_expansion(g: Graph, *, samples: int, seed: int,
                      budget: Optional[int], **_) -> CheckResult:
    """check_expansion on every set of one or two vertices of one side,
    then on ``samples`` random one-side sets; observed is the number of
    sets that violate it.

    A one-side set S has no edge inside it, so N(S) is the union of its
    rows, and S violates the bound iff
    |N(S)| (delta + lam (|S|-1)) < delta^2 |S|; the test is that integer
    comparison. Each random set draws its side, its size and its members,
    in that order, from numpy's PCG64 seeded with ``seed``. The budget is
    charged s + C(s, 2) per side of size s up front, then one step per
    sample.
    """
    if samples < 0:
        raise GraphError("sample count must be non-negative")
    params = DesignParams.for_plane(infer_q(g))
    delta, lam = params.delta, params.lam
    square = delta * delta
    sides = (members(g.side_p), members(g.side_l))
    if not all(sides):
        raise GraphError("expansion check needs two nonempty sides")
    fixed = sum(len(v) + math.comb(len(v), 2) for v in sides)
    b = _Budget(budget)
    b.charge(fixed)
    adj = g.adj
    violations = 0
    for verts in sides:
        rows = [adj[v] for v in verts]
        violations += sum(r.bit_count() * delta < square for r in rows)
        for i, x in enumerate(rows):
            violations += sum((x | y).bit_count() * (delta + lam) < 2 * square
                              for y in rows[i + 1:])
    rng = np.random.default_rng(seed)
    arrays = tuple(np.array(verts, dtype=np.intp) for verts in sides)
    for _ in range(samples):
        b.charge()
        verts = arrays[rng.integers(2)]
        size = int(rng.integers(1, len(verts) + 1))
        union = 0
        for v in rng.choice(verts, size=size, replace=False).tolist():
            union |= adj[v]
        violations += (union.bit_count() * (delta + lam * (size - 1))
                       < square * size)
    return (0, violations, violations == 0,
            float(fixed + samples - violations))


def _is_generated_plane(g: Graph) -> bool:
    """True iff g equals the incidence graph gen_levi builds."""
    try:
        return g == gen_levi(infer_q(g))
    except GraphError:
        return False


def profile_frontier(g: Graph, budget: Optional[int] = None
                     ) -> tuple[int, ...]:
    """b*(a) for a = 0..|P|: the most lines (L members) of an independent
    set with a points (P members). A best such set extends to a maximal
    set by adding points only, so b*(a) is the running maximum, from the
    top a down, of the most lines of a maximal set with exactly a points.
    On the generated plane only the maximal sets through points 0 and 1
    are enumerated (the collineation group is 2-transitive on points and
    keeps profiles); the sets with a <= 1 are read off the graph: the
    line side, and point 0 with the lines off it.
    """
    if g.side_p_size == 0:
        raise GraphError("graph is not flagged bipartite")
    if _is_generated_plane(g):
        sets = chain((g.side_l, 1 | (g.side_l & ~g.adj[0])),
                     enumerate_maximal_independent_sets(g, 0b11, budget))
    else:
        sets = enumerate_maximal_independent_sets(g, budget=budget)
    side_p = g.side_p
    profiles = {((s & side_p).bit_count(), s.bit_count()) for s in sets}
    best = [0] * (g.side_p_size + 1)
    for a, size in profiles:
        best[a] = max(best[a], size - a)
    return tuple(accumulate(reversed(best), max))[::-1]


def max_side_product(g: Graph, budget: Optional[int] = None
                     ) -> tuple[int, SideProfile]:
    """Largest a*b over independent sets, with its witness profile; ties
    go to the larger a, whose frontier point a maximal set realises."""
    best, a, b = max((a * b, a, b)
                     for a, b in enumerate(profile_frontier(g, budget)))
    return best, SideProfile(a, b)


def side_product_bound(q: int) -> int:
    """q (q+1)^2, the ceiling on a*b for the plane of order q."""
    return q * (q + 1) ** 2


def count_balanced(g: Graph, k: int, budget: Optional[int] = None) -> int:
    """Exact number of independent sets with k/2 members on each side.

    Any same-side set in a bipartite graph is independent, so the count is
    a sum over P-side (k/2)-subsets S of C(#L - |N(S)|, k/2).
    """
    if k % 2 != 0 or k < 2:
        raise GraphError("balanced counting is defined for even k >= 2 only")
    if g.side_p_size == 0:
        raise GraphError("graph is not flagged bipartite")
    half = k // 2
    b = _Budget(budget)
    l_size = g.n - g.side_p_size
    total = 0
    for combo in combinations(range(g.side_p_size), half):
        b.charge()
        blocked = 0
        for v in combo:
            blocked |= g.adj[v]
        total += math.comb(l_size - blocked.bit_count(), half)
    return total


def _capacity(a: int, b: int, k: int) -> int:
    """Balanced k-subsets of a set with side profile (a, b)."""
    if k % 2 != 0 or k < 2:
        raise GraphError("cover capacity is defined for even k >= 2 only")
    return math.comb(a, k // 2) * math.comb(b, k // 2)


def check_cover_capacity(g: Graph, i: VertexSet, k: int) -> int:
    """Number of balanced k-subsets inside the independent set i."""
    if not g.is_independent(i):
        raise GraphError("set is not independent")
    prof = side_profile(g, i)
    return _capacity(prof.a, prof.b, k)


def max_cover_capacity(g: Graph, k: int,
                       budget: Optional[int] = None) -> int:
    """Largest number of balanced k-subsets any independent set holds."""
    _capacity(0, 0, k)  # reject a bad k before the enumeration
    return max(_capacity(a, b, k)
               for a, b in enumerate(profile_frontier(g, budget)))


def balanced_count_lower_bound(n: int, k: int) -> Fraction:
    """(n/4k)^k, the floor on the number of balanced k-sets."""
    return Fraction(n, 4 * k) ** k


def per_set_capacity_bound(n: int, k: int) -> float:
    """2^(k/2) n^(3k/4), the ceiling on one independent set's capacity."""
    return 2 ** (k / 2) * n ** (3 * k / 4)


@dataclass(frozen=True)
class BoundsReport:
    """Closed-form bound values for (q, k), plus measured counts if exact.

    balanced_count_lower_bound and per_set_capacity_bound are the
    functions of those names at n; family_size_lower_bound is
    n^(k/4) / (4 sqrt(2) k)^k. The measured fields are the exact balanced
    count and max_cover_capacity, and exact_cover_lower_bound =
    ceil(count / max capacity).
    """

    q: int
    k: int
    n: int
    balanced_count_lower_bound: Fraction
    per_set_capacity_bound: float
    family_size_lower_bound: float
    measured_balanced_count: Optional[int] = None
    measured_max_capacity: Optional[int] = None
    exact_cover_lower_bound: Optional[int] = None


def evaluate_bounds(q: int, k: int, g: Optional[Graph] = None,
                    budget: Optional[int] = None) -> BoundsReport:
    """Evaluate the covering-family bound chain at concrete (q, k).

    With a graph supplied, also measures the balanced independent-set
    count and the largest per-set capacity over maximal independent sets,
    giving the exact counting lower bound on any covering family.
    """
    require_prime(q)
    if k % 2 != 0 or k < 2:
        raise GraphError("k must be an even integer >= 2")
    if k > q:
        raise GraphError(
            f"k must be at most q (covering bound hypothesis): k={k}, q={q}")
    n = 2 * plane_size(q)
    report = BoundsReport(
        q=q, k=k, n=n,
        balanced_count_lower_bound=balanced_count_lower_bound(n, k),
        per_set_capacity_bound=per_set_capacity_bound(n, k),
        family_size_lower_bound=n ** (k / 4) / (4 * math.sqrt(2) * k) ** k,
    )
    if g is None:
        return report
    count = count_balanced(g, k, budget=budget)
    max_cap = max_cover_capacity(g, k, budget=budget)
    return replace(report, measured_balanced_count=count,
                   measured_max_capacity=max_cap,
                   exact_cover_lower_bound=(-(-count // max_cap)
                                            if max_cap > 0 else 0))


def _flag(ok: bool) -> CheckResult:
    return True, ok, ok, None


def _at_most(bound, observed) -> CheckResult:
    return bound, observed, observed <= bound, float(bound - observed)


def _balanced(g: Graph, *, k: int, budget: Optional[int],
              **_) -> CheckResult:
    count = count_balanced(g, k, budget=budget)
    bound = balanced_count_lower_bound(g.n, k)
    return float(bound), count, count >= bound, float(count - bound)


# The checks of ``levicover verify`` by name, in report order. Every
# entry is called as check(g, k=..., samples=..., seed=..., budget=...),
# takes the options it needs and infers the plane order q from g. Entries
# call the library through this module's globals, never through a stored
# function object, so a wrapper installed on one of those names sees it.
CHECKS: dict[str, Callable[..., CheckResult]] = {
    "levi-props": lambda g, **_: _flag(
        verify_levi_properties(g, infer_q(g)).all_ok),
    "c4free": lambda g, **_: _flag(is_c4_free(g)),
    "degeneracy": lambda g, **_: _at_most(
        sqrt_degeneracy_bound(g.n), degeneracy_order(g).degeneracy),
    "expansion": _verify_expansion,
    "product": lambda g, *, budget, **_: _at_most(
        side_product_bound(infer_q(g)), max_side_product(g, budget)[0]),
    "balanced": _balanced,
    "coverbound": lambda g, *, k, budget, **_: _at_most(
        per_set_capacity_bound(g.n, k), max_cover_capacity(g, k, budget)),
}
