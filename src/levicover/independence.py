"""The plane's expansion bound, profile frontier and extremal checks.

Everything here is exact: neighborhood sizes are compared with the
expansion bound rounded up to an int, counts are integers, and the
balanced count lower bound (n/4k)^k is a pair of ints in lowest terms.
Floats appear only in the bounds that are irrational by nature, the
per-set capacity bound and the family size lower bound, and in the
margins of checks: ``coverbound`` compares the exact largest capacity
with the float per-set capacity bound as it is, with no margin.
"""

from __future__ import annotations

import math
from collections import Counter
from functools import reduce
from itertools import accumulate, combinations
from operator import and_, or_
from typing import Callable, Iterator, NamedTuple, Optional

from .graphs import (DEFAULT_BUDGET, Budget, Graph, GraphError, VertexSet,
                     _members_above, degeneracy_order,
                     enumerate_maximal_independent_sets, is_c4_free,
                     iter_members, members, sqrt_degeneracy_bound, vset,
                     words)
from .graphs import enumerate_independent_sets  # perfbench/tracer.py wraps it
from .levi import (LeviIndexing, gen_levi, infer_q, plane_size,
                   require_prime, verify_levi_properties)


def expansion_bound(q: int, size: int) -> int:
    """ceil((q+1)^2 size / (q + size)), the least |N(S)| of a one-side
    set S of ``size`` >= 1 vertices of the plane of order q: delta^2 |S|
    / (delta + lambda (|S|-1)) with degree delta = q+1 and lambda = 1
    common neighbour per pair, rounded up because |N(S)| is an int."""
    return -(-(q + 1) ** 2 * size // (q + size))


# ExpansionCheck and check_expansion are not exported by the package;
# perfbench/tracer.py wraps check_expansion by name.
class ExpansionCheck(NamedTuple):
    holds: bool
    neighborhood_size: int
    bound: int


def check_expansion(g: Graph, s: VertexSet) -> ExpansionCheck:
    """Compare |N(S)|, the union of the rows of S's members less S,
    against expansion_bound(q, |S|), q the plane order read off g (see
    infer_q)."""
    if not s:
        raise GraphError("expansion check needs a nonempty set")
    if g.side_p_size == 0:
        raise GraphError("graph is not flagged bipartite")
    q = infer_q(g)
    if (s & g.side_p) and (s & g.side_l):
        raise GraphError("set straddles both sides")
    bound = expansion_bound(q, s.bit_count())
    if s & ~g.all_vertices:
        raise GraphError("vertex index out of range")
    union = 0
    for v in iter_members(s):
        union |= g.adj[v]
    nsize = (union & ~s).bit_count()
    return ExpansionCheck(holds=nsize >= bound, neighborhood_size=nsize,
                          bound=bound)


# A verify check: (expected, observed, pass, margin); margin is None for
# yes/no checks.
CheckResult = tuple[object, object, bool, Optional[float]]


def _pair_unions(g: Graph, side: VertexSet) -> list[int]:
    """tally[u], the pairs x < y of ``side`` with |N(x) | N(y)| = u.

    |N(x) | N(y)| = deg x + deg y - codeg(x, y). For each x the rows r_1,
    r_2, ... of its neighbours build the levels: level t holds the
    vertices in at least t of them, those that share at least t
    neighbours with x. Level 0 holds every vertex, and the running value
    of level t after r_j is the one after r_(j-1) ORed with level t-1's
    after r_(j-1) ANDed with r_j. The later vertices in level t but not
    in t+1 share exactly t, and each degree class D counts its own with
    one AND, at u = deg x + D - t. The levels stop once none holds a
    later vertex. An x whose next level would take its levels past one
    operation per later vertex ORs its row with the later vertices left
    instead, so the sweep takes at most twice the C(|side|, 2) pair ORs.
    """
    adj = g.adj
    verts = members(side)
    classes: dict[int, VertexSet] = {}
    for v in verts:
        d = adj[v].bit_count()
        classes[d] = classes.get(d, 0) | 1 << v
    tally = [0] * (2 * max(classes, default=0) + 1)
    for i, x in enumerate(verts):
        row = adj[x]
        dx = row.bit_count()
        left = side & -(2 << x)  # the later vertices not yet counted
        rows = [adj[w] for w in _members_above(row, -1)]
        spent = t = 0
        while left:
            spent += dx - t + len(classes)
            if spent > len(verts) - i - 1:
                for u in map(int.bit_count, map(row.__or__, map(
                        adj.__getitem__, _members_above(left, -1)))):
                    tally[u] += 1
                break
            level = list(accumulate(
                map(and_, level, rows[t:]) if t else rows, or_))
            deeper = level[-1] if level else 0
            exact = left & ~deeper
            for d, cls in classes.items():
                tally[dx + d - t] += (exact & cls).bit_count()
            left &= deeper
            t += 1
    return tally


def _sampled_unions(sides: list[list[VertexSet]], samples: int, seed: int
                    ) -> Iterator[tuple[int, VertexSet]]:
    """The size and the union of the rows of each of ``samples`` sets,
    drawn from ``random.Random(seed)`` as _verify_expansion states; a
    test passes the rows 1 << v to read the sets themselves."""
    import random  # here, as no other check draws
    rng = random.Random(seed)
    getrandbits = rng.getrandbits
    for _ in range(samples):
        rows = sides[rng.randrange(2)]
        n = len(rows)
        size = rng.randint(1, n)
        setsize = 21
        if size > 5:
            setsize += 4 ** math.ceil(math.log(size * 3, 4))
        union = 0
        if n <= setsize:
            pool = rows.copy()
            last, stop = n - 1, n - 1 - size
            while last > stop:
                # a draw below last + 1 takes the same bits for every
                # last + 1 down to 2^(bits - 1), that is last down to low + 1
                bits = (last + 1).bit_length()
                low = max(stop, (1 << (bits - 1)) - 2)
                for last in range(last, low, -1):
                    j = getrandbits(bits)
                    while j > last:
                        j = getrandbits(bits)
                    union |= pool[j]
                    pool[j] = pool[last]
                last = low
        else:
            bits = n.bit_length()
            picked: set[int] = set()
            for _ in range(size):
                j = getrandbits(bits)
                while j >= n or j in picked:
                    j = getrandbits(bits)
                picked.add(j)
                union |= rows[j]
        yield size, union


def _verify_expansion(g: Graph, *, samples: int, seed: int, budget: int,
                      **_) -> CheckResult:
    """check_expansion on every set of one or two vertices of one side,
    then on ``samples`` random one-side sets; observed is the number of
    sets that violate it.

    A one-side set S has no edge inside it, so N(S) is the union of its
    rows, and S violates the bound iff |N(S)| < expansion_bound(q, |S|).
    The pairs are counted by ``_pair_unions``' codegree sweep. The
    random sets are those that randrange(2) (the side, 0 for P),
    randint(1, |side|) (the size) and sample(side, size) (the members)
    draw from ``random.Random(seed)``, with the members' draws written
    out over its getrandbits (``_sampled_unions``), call for call:
    a draw below m takes getrandbits(m.bit_length()) until the value is
    below m. When |side| is at most 21, plus 4^ceil(log4(3 size)) for a
    size over 5, the side's rows are a pool: the i-th member (from 0) is
    pool[j] for a draw j below |side| - i, and the pool's last unpicked
    row moves into its place. Otherwise each member is the j-th row for
    a draw j below |side|, drawn again while j was picked before. Each
    row is ORed into N(S) as it is picked.

    The budget is charged s + C(s, 2) per side of size s, and the larger
    side's size per sample, the most rows a sample ORs, all before the
    first set is tested. A negative seed, which Random would read as its
    absolute value, is refused.
    """
    if samples < 0:
        raise GraphError("sample count must be non-negative")
    if seed < 0:
        raise GraphError("seed must be non-negative")
    q = infer_q(g)
    one, two = expansion_bound(q, 1), expansion_bound(q, 2)
    sides = [[g.adj[v] for v in members(s)] for s in (g.side_p, g.side_l)]
    if not all(sides):
        raise GraphError("expansion check needs two nonempty sides")
    fixed = sum(len(rows) + math.comb(len(rows), 2) for rows in sides)
    Budget(budget, "the expansion check takes {} steps").charge(
        fixed + samples * max(map(len, sides)))
    violations = sum(r.bit_count() < one for rows in sides for r in rows)
    violations += sum(sum(_pair_unions(g, s)[:two])
                      for s in (g.side_p, g.side_l))
    violations += sum(union.bit_count() < expansion_bound(q, size)
                      for size, union in _sampled_unions(sides, samples,
                                                         seed))
    return (0, violations, violations == 0,
            float(fixed + samples - violations))


def _frame(g: Graph, budget: int) -> VertexSet:
    """The frame {0, 1, q, q+1} when g equals gen_levi(q), the generated
    plane of order q, else the empty set. Those are the affine points
    (0,0), (0,1), (1,0), (1,1); the lines through two of them, x = 0,
    x = 1, y = 0, y = 1, y = x and y = 1 - x, each hold just two. The
    edge counts are compared first, so the plane built is never larger
    than g, whatever side size the header names, and it is charged
    against ``budget`` as gen_levi charges it."""
    try:
        q = infer_q(g)
    except GraphError:
        return 0
    if g.m != (q + 1) * g.side_p_size or g != gen_levi(q, budget):
        return 0
    ix = LeviIndexing(q)
    return vset(ix.affine_point(x, y) for x in (0, 1) for y in (0, 1))


def profile_frontier(g: Graph, budget: int = DEFAULT_BUDGET
                     ) -> tuple[int, ...]:
    """b*(a) for a = 0..|P|: the most lines (L members) of an independent
    set with a points (P members); b*(0) = |L|.

    On the generated plane (``_frame(g)`` is not empty) b*(a) = |L| -
    mu(a), mu from ``_fewest_lines_met``, up to A, the first a with
    b*(a) < a; above A self-duality gives b*(a) = max{c <= A : b*(c) >=
    a} (c = 0 always qualifies). README, "Maxima over maximal independent
    sets", gives the reasons. On any other graph a best set with a points
    extends to a maximal set by adding points only, so b*(a) is the
    running maximum, from the top a down, of the most lines of a maximal
    set with exactly a points, and every maximal set is enumerated.
    """
    if g.side_p_size == 0:
        raise GraphError("graph is not flagged bipartite")
    lines = g.n - g.side_p_size
    frame = _frame(g, budget)
    if frame:
        mu, _ = _fewest_lines_met(g, frame, budget)
        best = [lines - m for m in mu]
        cross = next(a for a, b in enumerate(best) if b < a)
        head = best[:cross + 1]
        return tuple(head + [max(c for c, b in enumerate(head) if b >= a)
                             for a in range(cross + 1, g.side_p_size + 1)])
    best = [0] * (g.side_p_size + 1)
    best[0] = lines
    side_p = g.side_p
    sets = enumerate_maximal_independent_sets(g, budget)
    for a, size in {((s & side_p).bit_count(), s.bit_count()) for s in sets}:
        best[a] = max(best[a], size - a)
    return tuple(accumulate(reversed(best), max))[::-1]


def _fewest_lines_met(g: Graph, frame: VertexSet, budget: int
                      ) -> tuple[list[int], int]:
    """mu(a), the fewest lines that a points meet, for a from 0 to the
    larger of top and |frame|, and the number of nodes visited. The
    plane's frame is ``frame``, four points no three collinear. mu(a)
    for a <= |frame| is |N| of the frame's first a points; above, it is
    the least |N(S)| over point sets S through the frame. floor(a) =
    expansion_bound(q, a) <= mu(a), and top is the first a with
    |L| - floor(a) < a.

    Depth-first branch and bound: child i of a node adds its i-th
    candidate, in (new lines met, index) order, and keeps the later
    ones, so each set is visited once. A node of s points is expanded
    only if some j >= 1 with s + j <= top has max(|N(S)| + ceil(T^2 /
    (T + j(j - 1))), floor(s + j)) below the best mu(s + j) found, T the
    sum of the j smallest new-line counts of its candidates (0 when T is
    0). The bound is first tried at T = 0; only a node that leaves some
    j open is charged 1 + its candidates rows of words(|L|) and scores
    them. Each expanded node keeps [N(S), its sorted candidates, the
    next child] on an explicit stack.
    """
    q = infer_q(g)
    lines = g.n - g.side_p_size
    floors = [0]
    while lines - floors[-1] >= len(floors) - 1:
        floors.append(expansion_bound(q, len(floors)))
    top = len(floors) - 1
    rows = g.adj
    mu, hit = [0], 0
    for v in iter_members(frame):
        hit |= rows[v]
        mu.append(hit.bit_count())
    start = len(mu) - 1
    mu += [lines + 1] * (top - start)
    b = Budget(budget, "the frontier search takes at least {} words")
    row = words(lines)
    size = g.side_p_size
    cands = [v for v in range(size) if not frame >> v & 1]
    stack: list[list] = []
    nodes = 0
    while True:
        nodes += 1
        s = start + len(stack)
        met = hit.bit_count()
        mu[s] = min(mu[s], met)
        last = min(top, s + len(cands))
        if any(max(met, floors[a]) < mu[a] for a in range(s + 1, last + 1)):
            b.charge((1 + len(cands)) * row)
            free = ~hit
            scored = sorted([(rows[c] & free).bit_count() * size + c
                             for c in cands])
            t = 0
            for j, key in enumerate(scored[:last - s], 1):
                t += key // size
                low = met + (-(-t * t // (t + j * (j - 1))) if t else 0)
                if max(low, floors[s + j]) < mu[s + j]:
                    stack.append([hit, [key % size for key in scored], 0])
                    break
        while stack and stack[-1][2] == len(stack[-1][1]):
            stack.pop()
        if not stack:
            return mu, nodes
        parent = stack[-1]
        above, order, i = parent
        parent[2] = i + 1
        hit, cands = above | rows[order[i]], order[i + 1:]


def max_side_product(frontier: tuple[int, ...]) -> int:
    """Largest a*b over the points (a, b*(a)) of a profile frontier."""
    return max(a * b for a, b in enumerate(frontier))


def side_product_bound(q: int) -> int:
    """q (q+1)^2, the ceiling on a*b for the plane of order q."""
    return q * (q + 1) ** 2


def _half(k: int) -> int:
    """k/2, the members a balanced k-set has on each side; GraphError
    unless k is an even integer >= 2."""
    if k % 2 or k < 2:
        raise GraphError("k must be an even integer >= 2")
    return k // 2


def count_balanced(g: Graph, k: int, budget: int = DEFAULT_BUDGET) -> int:
    """Exact number of independent sets with k/2 members on each side.

    Any same-side set in a bipartite graph is independent, so the count is
    a sum over P-side (k/2)-subsets S of C(#L - |N(S)|, k/2), one per
    distinct |N(S)|: at k = 4 from ``_pair_unions``' tally, else from one
    OR of rows per subset. A k/2 above either side counts 0 at once;
    otherwise C(|P|, k/2) times the words of #L are charged against
    ``budget`` before either.
    """
    half = _half(k)
    if g.side_p_size == 0:
        raise GraphError("graph is not flagged bipartite")
    l_size = g.n - g.side_p_size
    if half > min(g.side_p_size, l_size):
        return 0
    Budget(budget, "the balanced count takes at least {} words").charge(
        _comb_over(g.side_p_size, half, budget) * words(l_size))
    tally = (enumerate(_pair_unions(g, g.side_p)) if half == 2 else Counter(
        reduce(or_, map(g.adj.__getitem__, combo)).bit_count()
        for combo in combinations(range(g.side_p_size), half)).items())
    return sum(count * math.comb(l_size - u, half)
               for u, count in tally if count)  # no set meets u > #L lines


def _comb_over(n: int, r: int, cap: int) -> int:
    """C(n, r) when it is at most ``cap``, else some number over ``cap``
    and at most C(n, r). C(n, i) >= 2^i for i <= n/2, so this takes at
    most about log2(cap) steps."""
    r = min(r, n - r)
    c = 1 if r >= 0 else 0
    for i in range(r):
        if c > cap:
            break
        c = c * (n - i) // (i + 1)
    return c


def _capacity(a: int, b: int, half: int) -> int:
    """Balanced (2 half)-subsets of a set with side profile (a, b)."""
    return math.comb(a, half) * math.comb(b, half)


# Not exported by the package; perfbench/tracer.py wraps it by name.
def check_cover_capacity(g: Graph, i: VertexSet, k: int) -> int:
    """Number of balanced k-subsets inside the independent set i."""
    if i & ~g.all_vertices:
        raise GraphError("vertex index out of range")
    if any(g.adj[v] & i for v in iter_members(i)):
        raise GraphError("set is not independent")
    if g.side_p_size == 0:
        raise GraphError("graph is not flagged bipartite")
    a = (i & g.side_p).bit_count()
    return _capacity(a, i.bit_count() - a, _half(k))


def max_cover_capacity(frontier: tuple[int, ...], k: int) -> int:
    """Largest number of balanced k-subsets any independent set holds,
    read off the points (a, b*(a)) of a profile frontier."""
    half = _half(k)
    return max(_capacity(a, b, half) for a, b in enumerate(frontier))


def balanced_count_lower_bound(n: int, k: int, budget: int = DEFAULT_BUDGET
                               ) -> tuple[int, int]:
    """(n/4k)^k, the floor on the number of balanced k-sets, as the pair
    (numerator, denominator) in lowest terms: n and 4k divided by their
    gcd, each raised to the k-th power. Before either is taken, the w
    words of both powers are charged against ``budget``, then, on an
    account of its own, the 3^ceil(log2 w) word products in which
    Karatsuba multiplies two w-word ints, the last squaring's cost."""
    common = math.gcd(n, 4 * k)
    num, den = n // common, 4 * k // common
    size = words(k * (num.bit_length() + den.bit_length()))
    what = f"the balanced count lower bound at n={n}, k={k} takes {{}}"
    Budget(budget, what + " words").charge(size)
    Budget(budget, what + " word products to raise").charge(
        3 ** (size - 1).bit_length())
    return num ** k, den ** k


def _float_bound(what: str, value: Callable[[], float]) -> float:
    """value(), or GraphError when it does not fit a float."""
    try:
        out = value()
    except OverflowError:
        out = math.inf
    if not math.isfinite(out):
        raise GraphError(f"the {what} does not fit a float")
    return out


def balanced_bound_float(n: int, k: int, bound: tuple[int, int]) -> float:
    """num / den, (num, den) the balanced count lower bound at (n, k);
    GraphError when that does not fit a float."""
    num, den = bound
    return _float_bound(f"balanced count lower bound at n={n}, k={k}",
                        lambda: num / den)


def per_set_capacity_bound(n: int, k: int) -> float:
    """2^(k/2) n^(3k/4), the ceiling on one independent set's capacity;
    GraphError when that does not fit a float."""
    return _float_bound(f"per-set capacity bound at n={n}, k={k}",
                        lambda: 2 ** (k / 2) * n ** (3 * k / 4))


class BoundsReport(NamedTuple):
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
    balanced_count_lower_bound: tuple[int, int]
    per_set_capacity_bound: float
    family_size_lower_bound: float
    measured_balanced_count: Optional[int] = None
    measured_max_capacity: Optional[int] = None
    exact_cover_lower_bound: Optional[int] = None


def evaluate_bounds(q: int, k: int, exact: bool = False,
                    budget: int = DEFAULT_BUDGET) -> BoundsReport:
    """Evaluate the covering-family bound chain at concrete (q, k).

    k is checked first, before any plane is built. With ``exact``, it
    then builds gen_levi(q), and also measures on it the balanced
    independent-set count and the largest per-set capacity over maximal
    independent sets, giving the exact counting lower bound on any
    covering family.

    The trial division that tests q for primality takes up to isqrt(q)
    steps, and they are charged against ``budget`` before it.
    """
    _half(k)
    if k > q:
        raise GraphError(
            f"k must be at most q (covering bound hypothesis): k={k}, q={q}")
    g = gen_levi(q, budget) if exact else None
    Budget(budget, "the primality test takes {} steps").charge(
        math.isqrt(max(q, 0)))
    require_prime(q)
    n = 2 * plane_size(q)
    report = BoundsReport(
        q=q, k=k, n=n,
        balanced_count_lower_bound=balanced_count_lower_bound(n, k, budget),
        per_set_capacity_bound=per_set_capacity_bound(n, k),
        family_size_lower_bound=_float_bound(
            f"family size lower bound at n={n}, k={k}",
            lambda: n ** (k / 4) / (4 * math.sqrt(2) * k) ** k),
    )
    if not exact:
        return report
    count = count_balanced(g, k, budget=budget)
    max_cap = max_cover_capacity(profile_frontier(g, budget), k)
    return report._replace(measured_balanced_count=count,
                           measured_max_capacity=max_cap,
                           exact_cover_lower_bound=-(-count // max_cap))


def _flag(ok: bool) -> CheckResult:
    return True, ok, ok, None


def _at_most(bound, observed) -> CheckResult:
    return bound, observed, observed <= bound, float(bound - observed)


def _balanced(g: Graph, *, k: int, budget: int, **_) -> CheckResult:
    count = count_balanced(g, k, budget=budget)
    num, den = bound = balanced_count_lower_bound(g.n, k, budget)
    expected = balanced_bound_float(g.n, k, bound)
    margin = _float_bound(f"balanced count margin at n={g.n}, k={k}",
                          lambda: (count * den - num) / den)
    return expected, count, count * den >= num, margin


def _once(memo: dict, key: str, fn: Callable, *args):
    """fn(*args), computed once per ``memo``: the first check of a run
    that reads it stores it there under ``key`` for the later ones."""
    if key not in memo:
        memo[key] = fn(*args)
    return memo[key]


def _levi_props(g: Graph, *, budget: int, memo: dict, **_) -> CheckResult:
    infer_q(g)  # a graph that fits no plane is refused before the sweep
    return _flag(verify_levi_properties(
        g, _once(memo, "c4free", is_c4_free, g, budget)))


# The checks of ``levicover verify`` by name, in report order. Every
# entry is called as check(g, k=..., samples=..., seed=..., budget=...,
# memo=...), takes the options it needs and infers the plane order q
# from g; memo is one dict per run (see run_checks). Entries call the
# library through this module's globals, never through a stored
# function object, so a wrapper installed on one of those names sees it.
CHECKS: dict[str, Callable[..., CheckResult]] = {
    "levi-props": _levi_props,
    "c4free": lambda g, *, budget, memo, **_: _flag(
        _once(memo, "c4free", is_c4_free, g, budget)),
    "degeneracy": lambda g, *, budget, **_: _at_most(
        sqrt_degeneracy_bound(g.n), degeneracy_order(g, budget).degeneracy),
    "expansion": _verify_expansion,
    "product": lambda g, *, budget, memo, **_: _at_most(
        side_product_bound(infer_q(g)), max_side_product(
            _once(memo, "frontier", profile_frontier, g, budget))),
    "balanced": _balanced,
    "coverbound": lambda g, *, k, budget, memo, **_: _at_most(
        per_set_capacity_bound(g.n, k), max_cover_capacity(
            _once(memo, "frontier", profile_frontier, g, budget), k)),
}


# The options of ``levicover verify`` that only some checks read: the
# checks that read each, and its value when it is not given.
CHECK_OPTIONS = {"k": (("balanced", "coverbound"), 2),
                 "samples": (("expansion",), 1000),
                 "seed": (("expansion",), 0)}


def select_checks(names: str, **given) -> tuple[list[str], dict]:
    """The check names of the comma list ``names``, and the options of
    CHECK_OPTIONS that some named check reads: each as given, or its
    default where it is None or not given. GraphError on an unknown name,
    on an option given for checks of which none is named, on a k that is
    not an even integer >= 2 and on a negative samples or seed, so a bad
    option fails before any graph is built."""
    names = names.split(",")
    for name in names:
        if name not in CHECKS:
            raise GraphError(f"unknown check name: {name} (the checks "
                             f"are {', '.join(CHECKS)})")
    options = {}
    for option, (readers, default) in CHECK_OPTIONS.items():
        value = given.get(option)
        if set(readers) & set(names):
            options[option] = default if value is None else value
        elif value is not None:
            raise GraphError(f"--{option} is given, but none of the checks "
                             f"that read it ({', '.join(readers)}) is named")
    if "k" in options:
        _half(options["k"])
    if options.get("samples", 0) < 0:
        raise GraphError("sample count must be non-negative")
    if options.get("seed", 0) < 0:
        raise GraphError("seed must be non-negative")
    return names, options


def run_checks(g: Graph, names: list[str], options: dict,
               budget: int) -> list[CheckResult]:
    """CHECKS[name](g, **options) for each of ``names`` in turn, as
    select_checks returns them, with one memo: the codegree sweep and the
    profile frontier are each computed and charged once per run."""
    memo: dict = {}
    return [CHECKS[name](g, **options, budget=budget, memo=memo)
            for name in names]
