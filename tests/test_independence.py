import math
import random
import sys
from fractions import Fraction
from itertools import accumulate, combinations, islice

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from levicover import (GraphError, balanced_count_lower_bound,
                       count_balanced, count_independent_sets,
                       enumerate_independent_sets,
                       enumerate_maximal_independent_sets, evaluate_bounds,
                       gen_levi, graph_hash, is_c4_free, max_cover_capacity,
                       max_side_product, members, plane_size,
                       profile_frontier, vset)
from levicover import independence
from levicover.graphs import (DEFAULT_BUDGET, Budget, BudgetExceededError,
                              charge_rows, words)
from levicover.independence import check_cover_capacity, check_expansion
from conftest import (brute_independent_sets, complete_graph, cycle_graph,
                      edgeless_bipartite, from_edges, is_independent,
                      neighborhood_of_set, small_graphs)


class TestEnumeration:
    def test_four_cycle_counts(self):
        g = cycle_graph(4)
        sets = list(enumerate_independent_sets(g, 2))
        assert len(sets) == 6  # 4 singletons + 2 diagonal pairs

    def test_edgeless_singletons(self):
        g = from_edges(3, [])
        assert count_independent_sets(g, 1) == 3

    def test_fano_k2(self, fano):
        assert count_independent_sets(fano, 2) == 84  # 14 + (C(14,2) - 21)

    def test_matches_brute_force(self, fano):
        got = list(enumerate_independent_sets(fano, 3))
        assert sorted(got) == sorted(brute_independent_sets(fano, 3))
        assert len(got) == len(set(got))

    def test_lexicographic_order(self, fano):
        got = [tuple(members(s)) for s in enumerate_independent_sets(fano, 3)]
        assert got == sorted(got)

    def test_all_emitted_independent(self, plane3):
        for s in enumerate_independent_sets(plane3, 3):
            assert is_independent(plane3, s)

    def test_negative_size_limit_rejected(self, fano):
        with pytest.raises(GraphError, match="size limit must be non-neg"):
            list(enumerate_independent_sets(fano, -1))

    def test_budget_raises(self, fano):
        # 14 covers the first level's 14 one-word rows, not the walk
        with pytest.raises(BudgetExceededError, match="^the independent-set "
                           "walk takes at least 15 steps, over the budget "
                           "of 14$"):
            list(enumerate_independent_sets(fano, 4, budget=14))


def recursive_independent_sets(g, k, budget=DEFAULT_BUDGET):
    """Oracle: the recursive depth-first walk, with the same charges as
    enumerate_independent_sets."""
    if k < 0:
        raise GraphError("size limit must be non-negative")
    b = Budget(budget, "the independent-set walk takes at least {} steps")

    def extend(mask, start, depth):
        for v in range(start, g.n):
            b.charge()
            if g.adj[v] & mask:
                continue
            new = mask | (1 << v)
            yield new
            if depth + 1 < k:
                yield from extend(new, v + 1, depth + 1)

    if k >= 1:
        charge_rows(budget, g.n, g.n, "the independent-set sweep")
        yield from extend(0, 0, 0)


def recursive_maximal_sets(g, containing=0, budget=DEFAULT_BUDGET):
    """Oracle: recursive Bron-Kerbosch with pivoting, started at
    R = ``containing``, with the same charges as
    enumerate_maximal_independent_sets (which starts at R = 0)."""
    if containing & ~g.all_vertices:
        raise GraphError("vertex index out of range")
    if not is_independent(g, containing):
        raise GraphError("set is not independent")
    charge_rows(budget, g.n, g.n, "the complement graph")
    b = Budget(budget, "Bron-Kerbosch takes at least {} words")
    full = g.all_vertices
    comp = tuple(full & ~g.adj[v] & ~(1 << v) for v in range(g.n))

    def bk(r, p, x):
        b.charge(len(members(p | x)) * words(g.n))
        if not p and not x:
            yield r
            return
        pivot, best = -1, -1
        for u in members(p | x):
            score = (p & comp[u]).bit_count()
            if score > best:
                pivot, best = u, score
        for v in members(p & ~comp[pivot]):
            nb = comp[v]
            yield from bk(r | (1 << v), p & nb, x & nb)
            p &= ~(1 << v)
            x |= 1 << v

    p = full
    for v in members(containing):
        p &= comp[v]
    yield from bk(containing, p, 0)


def drained(sets):
    """The sets a generator yields, and the message of the error that
    ended it, if any."""
    out = []
    try:
        out.extend(sets)
    except (BudgetExceededError, GraphError) as exc:
        return out, f"{type(exc).__name__}: {exc}"
    return out, None


class TestIterativeMatchesRecursive:
    @settings(max_examples=150, deadline=None)
    @given(small_graphs(), st.integers(-1, 10), st.integers(0, 300))
    def test_same_sets_same_budget(self, g, k, budget):
        # set for set, up to the same budget step or error
        for limit in (DEFAULT_BUDGET, budget):
            assert drained(enumerate_independent_sets(g, k, limit)) == \
                drained(recursive_independent_sets(g, k, limit))
            assert drained(enumerate_maximal_independent_sets(
                g, limit)) == drained(recursive_maximal_sets(g, 0, limit))

    @pytest.mark.parametrize("name", ["fano", "plane3"])
    def test_every_budget_on_the_planes(self, name, request):
        g = request.getfixturevalue(name)
        for budget in [*range(0, 400, 3), DEFAULT_BUDGET]:
            assert drained(enumerate_independent_sets(g, 2, budget)) == \
                drained(recursive_independent_sets(g, 2, budget))
            assert drained(enumerate_maximal_independent_sets(
                g, budget)) == drained(recursive_maximal_sets(g, 0, budget))

    def test_depth_beyond_the_recursion_limit(self):
        # edgeless: the walk reaches all n vertices through n nested
        # levels, and Bron-Kerbosch takes one vertex per call; its calls
        # scan n, n - 1, ..., 0 rows, over the default budget
        n = sys.getrecursionlimit() + 100
        g = from_edges(n, [])
        walk = enumerate_independent_sets(g, n)
        assert next(islice(walk, n - 1, None)) == g.all_vertices
        need = words(n) * n * (n + 1) // 2
        assert list(enumerate_maximal_independent_sets(g, need)) == \
            [g.all_vertices]


class TestMaximalEnumeration:
    def test_triangle(self):
        got = sorted(enumerate_maximal_independent_sets(complete_graph(3)))
        assert got == [1, 2, 4]

    def test_four_cycle_diagonals(self):
        got = sorted(enumerate_maximal_independent_sets(cycle_graph(4)))
        assert got == [vset([0, 2]), vset([1, 3])]

    def test_fano_against_subset_lattice(self, fano):
        # oracle: an independent set is maximal iff every outside vertex
        # has a neighbor inside
        expect = set()
        for mask in brute_independent_sets(fano, fano.n):
            outside = fano.all_vertices & ~mask
            if all(fano.adj[v] & mask for v in members(outside)):
                expect.add(mask)
        got = list(enumerate_maximal_independent_sets(fano))
        assert len(got) == len(set(got))
        assert set(got) == expect

    @pytest.mark.parametrize("name", ["fano", "plane3", "c4"])
    def test_containing_filters_full_enumeration(self, name, request):
        # the oracle's start at R = r, which the frame-path and two-point
        # oracles take, yields the maximal sets through r
        g = cycle_graph(4) if name == "c4" else request.getfixturevalue(name)
        full = list(enumerate_maximal_independent_sets(g))
        for r in [0, *enumerate_independent_sets(g, 2)]:
            got = list(recursive_maximal_sets(g, r))
            assert len(got) == len(set(got))
            assert set(got) == {s for s in full if s & r == r}

    def test_empty_graph_has_the_empty_maximal_set(self):
        # no vertex can be added to the empty set of the 0-vertex graph
        assert list(enumerate_maximal_independent_sets(
            from_edges(0, []))) == [0]
        assert list(recursive_maximal_sets(from_edges(0, []))) == [0]

    def test_budget_counts_recursive_calls(self, fano):
        # 93 Bron-Kerbosch calls enumerate Fano's 37 maximal sets; each
        # is charged its |P | X| one-word rows, 215 in all
        assert len(list(enumerate_maximal_independent_sets(
            fano, budget=215))) == 37
        with pytest.raises(BudgetExceededError, match="^Bron-Kerbosch takes "
                           "at least 215 words, over the budget of 214$"):
            list(enumerate_maximal_independent_sets(fano, budget=214))

    def test_budget_covers_the_pivot_scans(self):
        # edgeless on 130 vertices: the calls scan 130, 129, ..., 0
        # vertices of three words each
        g = from_edges(130, [])
        need = 3 * 130 * 131 // 2
        assert list(enumerate_maximal_independent_sets(
            g, budget=need)) == [g.all_vertices]
        with pytest.raises(BudgetExceededError, match="^Bron-Kerbosch takes "
                           f"at least {need} words, over the budget of "
                           f"{need - 1}$"):
            list(enumerate_maximal_independent_sets(g, budget=need - 1))


class TestExpansion:
    @pytest.mark.parametrize("q", [2, 3, 5, 7, 23])
    def test_bound_is_the_exact_ratio_rounded_up(self, q):
        # oracle: the rational bound of the paper, ceiled
        for s in range(1, plane_size(q) + 1):
            bound = independence.expansion_bound(q, s)
            assert type(bound) is int
            assert bound == math.ceil(Fraction((q + 1) ** 2 * s, q + s))

    def test_singleton_equality(self, fano):
        chk = check_expansion(fano, 1 << 0)
        assert chk.holds
        assert chk.neighborhood_size == 3 and chk.bound == 3

    def test_full_side_equality(self, fano):
        chk = check_expansion(fano, fano.side_p)
        assert chk.neighborhood_size == 7
        assert chk.bound == Fraction(9 * 7, 2 + 7) == 7

    def test_random_subsets_plane3(self, plane3):
        rng = np.random.default_rng(7)
        sides = [members(plane3.side_p), members(plane3.side_l)]
        for _ in range(1000):
            verts = sides[rng.integers(2)]
            size = int(rng.integers(1, len(verts) + 1))
            s = vset(rng.choice(verts, size=size, replace=False))
            assert check_expansion(plane3, s).holds

    def test_out_of_range_raises(self, fano):
        with pytest.raises(GraphError, match="vertex index out of range"):
            check_expansion(fano, 1 << fano.n)

    def test_empty_or_straddling_raises(self, fano):
        with pytest.raises(GraphError):
            check_expansion(fano, 0)
        with pytest.raises(GraphError):
            check_expansion(fano, vset([0, 7]))

    def test_negative_samples_rejected(self, fano):
        with pytest.raises(GraphError, match="non-negative"):
            independence._verify_expansion(fano, samples=-5, seed=0,
                                           budget=DEFAULT_BUDGET)

    @pytest.mark.parametrize("seed", [-1, -7])
    def test_negative_seed_rejected_by_the_check(self, fano, seed,
                                                 monkeypatch):
        # called without select_checks, as CHECKS["expansion"]
        def no_draws(*args):
            raise AssertionError("sampled despite the negative seed")
        monkeypatch.setattr(random, "Random", no_draws)
        with pytest.raises(GraphError, match="seed must be non-negative"):
            independence.CHECKS["expansion"](fano, samples=200, seed=seed,
                                             budget=DEFAULT_BUDGET)

    def test_unknown_name_lists_the_checks(self):
        with pytest.raises(GraphError, match="unknown check name: nosuch "
                           r"\(the checks are levi-props, c4free, "):
            independence.select_checks("c4free,nosuch")

    @pytest.mark.parametrize("seed", [-1, -7])
    def test_negative_seed_rejected_before_any_graph(self, seed):
        # random.Random(-7) draws what Random(7) draws
        with pytest.raises(GraphError, match="seed must be non-negative"):
            independence.select_checks("expansion", seed=seed)


def profile(g, s):
    """(a, b): the points and the lines of s."""
    a = (s & g.side_p).bit_count()
    return a, s.bit_count() - a


class TestSideProduct:
    def test_fano_max_is_four(self, fano):
        assert max_side_product(profile_frontier(fano)) == 4

    def test_fano_brute_force_agreement(self, fano):
        # dual computation: global maximum over *all* independent sets
        brute = 0
        for mask in brute_independent_sets(fano, fano.n):
            a, b = profile(fano, mask)
            brute = max(brute, a * b)
        assert brute == max_side_product(profile_frontier(fano))

    def test_edgeless_bipartite(self):
        assert max_side_product(profile_frontier(
            edgeless_bipartite(2, 3))) == 6

    def test_plane3_bound(self, plane3):
        assert max_side_product(profile_frontier(plane3)) <= 3 * 16  # q(q+1)^2

    def test_profile_product_bound_everywhere(self, fano):
        n32 = 2 * 14 ** 1.5
        for s in enumerate_independent_sets(fano, 14):
            a, b = profile(fano, s)
            assert a * b <= 18 < n32

    def test_non_bipartite_raises(self):
        with pytest.raises(GraphError):
            max_side_product(profile_frontier(cycle_graph(4)))


def relabelled(g, seed):
    """g with its vertices permuted inside each side."""
    rng = np.random.default_rng(seed)
    perm = np.concatenate([rng.permutation(g.side_p_size),
                           g.side_p_size + rng.permutation(
                               g.n - g.side_p_size)])
    edges = [(int(perm[u]), int(perm[v])) for u, v in g.edges()]
    return from_edges(g.n, edges, side_p_size=g.side_p_size)


def minus_one_edge(g):
    return from_edges(g.n, list(g.edges())[:-1],
                      side_p_size=g.side_p_size)


def full_path_best(g, score):
    """Oracle: score every maximal set, ties to the larger (a, b)."""
    profiles = {profile(g, s) for s in enumerate_maximal_independent_sets(g)}
    a, b = max(profiles, key=lambda ab: (score(*ab), ab))
    return score(a, b), (a, b)


def brute_best(g, score):
    """Oracle: score every independent set of the subset lattice."""
    return max(score(*profile(g, s)) for s in brute_independent_sets(g, g.n))


def brute_frontier(g):
    """Oracle: for each a, the most lines of an independent set with a
    points, over the whole subset lattice (every set of points is
    independent, so each a has one)."""
    best = [0] * (g.side_p_size + 1)
    for s in brute_independent_sets(g, g.n):
        a, b = profile(g, s)
        best[a] = max(best[a], b)
    return tuple(best)


def staircase(g, sets):
    """The running maximum, from the top a down, of the most lines of a
    set in ``sets`` with a points."""
    best = [0] * (g.side_p_size + 1)
    for s in sets:
        a, b = profile(g, s)
        best[a] = max(best[a], b)
    return tuple(accumulate(reversed(best), max))[::-1]


def two_point_frontier(g):
    """Oracle for the plane: the frontier from the maximal sets through
    points 0 and 1 (2-transitivity), the line side (a = 0) and point 0
    with the lines off it (a = 1)."""
    return staircase(g, [g.side_l, 1 | (g.side_l & ~g.adj[0]),
                         *recursive_maximal_sets(g, 0b11)])


def frame_path_frontier(g, q):
    """Oracle for the plane: the frontier from the maximal sets through
    the frame, and from the frame's first 0..3 points with every line
    that misses them."""
    prefix = members(frame(q))[:3]
    return staircase(g, [vset(prefix[:a]) | (g.side_l & ~neighborhood_of_set(
        g, vset(prefix[:a]))) for a in range(4)]
        + list(recursive_maximal_sets(g, frame(q))))


def frame(q):
    """The frame profile_frontier searches through on the plane of order
    q."""
    return vset([0, 1, q, q + 1])


def lines_missed(g, points):
    """Direct count: the lines with no member in ``points``."""
    return (g.side_l & ~neighborhood_of_set(g, vset(points))).bit_count()


def frontier_best(frontier, score):
    """The largest score over the frontier points (a, b*(a)), ties to
    the larger a."""
    a, b = max(enumerate(frontier), key=lambda ab: (score(*ab), ab[0]))
    return score(a, b), (a, b)


@st.composite
def bipartite_graphs(draw):
    """Hypothesis strategy: bipartite graphs with 1..6 points, at most 10
    vertices and random point-line edges."""
    a = draw(st.integers(1, 6))
    b = draw(st.integers(0, 10 - a))
    pairs = [(p, a + j) for p in range(a) for j in range(b)]
    bits = draw(st.lists(st.booleans(), min_size=len(pairs),
                         max_size=len(pairs)))
    return from_edges(a + b, [e for e, on in zip(pairs, bits) if on],
                      side_p_size=a)


# Scores non-decreasing in both side counts. The last two are settled
# by the a = 0 and a = 1 sets of the plane, which contain no point pair.
MONOTONE_SCORES = {
    "product": lambda a, b: a * b,
    "capacity2": lambda a, b: math.comb(a, 1) * math.comb(b, 1),
    "capacity4": lambda a, b: math.comb(a, 2) * math.comb(b, 2),
    "points": lambda a, b: a,
    "lines": lambda a, b: b,
    "lines_with_a_point": lambda a, b: min(a, 1) * b,
}


@pytest.fixture()
def bk_starts(monkeypatch):
    """Records the yield count of each maximal-set run."""
    runs = []
    orig = independence.enumerate_maximal_independent_sets

    def spy(g, budget):
        runs.append(0)
        for s in orig(g, budget):
            runs[-1] += 1
            yield s

    monkeypatch.setattr(independence, "enumerate_maximal_independent_sets",
                        spy)
    return runs


class TestSymmetryReduction:
    @pytest.mark.parametrize("q", [2, 3])
    @pytest.mark.parametrize("score", sorted(MONOTONE_SCORES))
    def test_reduced_matches_full(self, q, score, bk_starts):
        g = gen_levi(q)
        fn = MONOTONE_SCORES[score]
        expect = full_path_best(g, fn)
        assert frontier_best(profile_frontier(g), fn) == expect
        assert bk_starts == []

    @pytest.mark.parametrize("q", [2, 3])
    def test_reduced_frontier_equals_full_path(self, q, bk_starts,
                                               monkeypatch):
        g = gen_levi(q)
        reduced = profile_frontier(g)
        monkeypatch.setattr(independence, "_frame", lambda g, budget: 0)
        assert profile_frontier(g) == reduced
        assert len(bk_starts) == 1

    @pytest.mark.parametrize("q", [2, 3, 5])
    def test_frame_frontier_equals_two_point_path(self, q):
        g = gen_levi(q)
        f = independence._frame(g, DEFAULT_BUDGET)
        assert f == frame(q) and not f & g.side_l
        # a frame: no line holds three of its four points
        assert all((g.adj[line] & f).bit_count() <= 2
                   for line in range(plane_size(q), g.n))
        assert profile_frontier(g) == two_point_frontier(g)

    @pytest.mark.parametrize("q", [2, 3, 5])
    def test_search_equals_frame_path(self, q):
        g = gen_levi(q)
        assert profile_frontier(g) == frame_path_frontier(g, q)

    @pytest.mark.parametrize("q", [2, 3, 5])
    def test_frame_prefixes_and_frameless_sets(self, q):
        # a <= 3: the frame's first a points miss the most lines of any a
        # points; a >= 4: every collinear and every line-plus-point set
        # misses fewer lines than b*(a), so sets with a frame attain it
        g = gen_levi(q)
        frontier = profile_frontier(g)
        prefix = members(frame(q))
        for a in range(4):
            assert frontier[a] == lines_missed(g, prefix[:a]) == max(
                lines_missed(g, pts)
                for pts in combinations(range(plane_size(q)), a))
        lines = [members(g.adj[v]) for v in range(plane_size(q), g.n)]
        for line in lines:
            off = [v for v in range(plane_size(q)) if v not in line]
            for m in range(2, q + 2):
                for pts in combinations(line, m):
                    if m >= 4:
                        assert lines_missed(g, pts) < frontier[m]
                    for v in off:
                        if m >= 3:
                            assert lines_missed(g, (*pts, v)) < \
                                frontier[m + 1]

    @pytest.mark.parametrize("q", [2, 3])
    def test_public_maxima_take_reduced_path(self, q, bk_starts):
        g = gen_levi(q)
        frontier = profile_frontier(g)
        assert max_side_product(frontier) == full_path_best(
            g, MONOTONE_SCORES["product"])[0]
        for k in (2, 4):
            assert max_cover_capacity(frontier, k) == max(
                check_cover_capacity(g, s, k)
                for s in enumerate_maximal_independent_sets(g))
        assert bk_starts == []

    def test_plane3_values(self, plane3):
        frontier = profile_frontier(plane3)
        assert max_side_product(frontier) == 12
        assert max_cover_capacity(frontier, 4) == 18

    @pytest.mark.parametrize("perturb", [lambda g: relabelled(g, 5),
                                         minus_one_edge],
                             ids=["relabelled", "minus_one_edge"])
    def test_uncertified_fano_takes_full_path(self, fano, perturb,
                                              bk_starts):
        g = perturb(fano)
        assert graph_hash(g) != graph_hash(fano)
        frontier = profile_frontier(g)
        assert frontier == brute_frontier(g)
        assert len(bk_starts) == 1
        for score in MONOTONE_SCORES.values():
            assert frontier_best(frontier, score)[0] == brute_best(g, score)
        assert max_side_product(frontier) == brute_best(
            g, MONOTONE_SCORES["product"])
        assert max_cover_capacity(frontier, 4) == brute_best(
            g, MONOTONE_SCORES["capacity4"])

    @pytest.mark.parametrize("perturb", [lambda g: relabelled(g, 5),
                                         minus_one_edge],
                             ids=["relabelled", "minus_one_edge"])
    def test_uncertified_plane3_takes_full_path(self, plane3, perturb,
                                                bk_starts):
        g = perturb(plane3)
        assert graph_hash(g) != graph_hash(plane3)
        frontier = profile_frontier(g)
        assert len(bk_starts) == 1
        for score in MONOTONE_SCORES.values():
            expect = full_path_best(g, score)
            assert frontier_best(frontier, score) == expect
        assert max_side_product(frontier) == full_path_best(
            g, MONOTONE_SCORES["product"])[0]
        assert max_cover_capacity(frontier, 4) == full_path_best(
            g, MONOTONE_SCORES["capacity4"])[0]

    def test_plane5_pinned(self, bk_starts):
        frontier = profile_frontier(gen_levi(5))
        assert max_cover_capacity(frontier, 4) == 675
        assert max_side_product(frontier) == 60
        assert bk_starts == []

    def test_plane5_frontier_pinned(self, bk_starts):
        frontier = profile_frontier(gen_levi(5))
        assert frontier == (31, 25, 20, 16, 13, 11, 10, 8, 7, 6, 6, 5, 4, 4,
                            3, 3, 3, 2, 2, 2, 2, 1, 1, 1, 1, 1,
                            0, 0, 0, 0, 0, 0)
        assert bk_starts == []
        # both maxima sit at (6, 10) and at its mirror (10, 6), which wins
        # the tie
        assert frontier[6] == 10 and frontier[10] == 6
        assert frontier_best(frontier, MONOTONE_SCORES["product"]) == \
            (60, (10, 6))
        assert frontier_best(frontier, MONOTONE_SCORES["capacity4"]) == \
            (675, (10, 6))

    @pytest.mark.parametrize("q,frontier", [
        (2, (7, 4, 2, 1, 1, 0, 0, 0)),
        (3, (13, 9, 6, 4, 3, 2, 2, 1, 1, 1, 0, 0, 0, 0))])
    def test_small_plane_frontiers(self, q, frontier):
        assert profile_frontier(gen_levi(q)) == frontier

    @settings(max_examples=100, deadline=None)
    @given(bipartite_graphs())
    def test_frontier_matches_brute_force(self, g):
        frontier = profile_frontier(g)
        assert frontier == brute_frontier(g)
        assert max_side_product(frontier) == full_path_best(
            g, MONOTONE_SCORES["product"])[0]

    def test_budget_covers_both_paths(self, plane3):
        # the search at q=5 is charged 6,731 one-word rows, 1 plus the
        # candidates of each of the 441 nodes that score them; the full
        # path on this relabelling of the q=3 plane takes 1711
        # Bron-Kerbosch calls, charged 4540 one-word rows (pivots depend
        # on the labels)
        plane5 = gen_levi(5)
        assert profile_frontier(plane5, budget=6731) == profile_frontier(
            plane5)
        with pytest.raises(BudgetExceededError, match="^the frontier search "
                           "takes at least 6731 words, over the budget of "
                           "6730$"):
            profile_frontier(plane5, budget=6730)
        g = relabelled(plane3, 5)
        assert profile_frontier(g, budget=4540) == profile_frontier(g)
        with pytest.raises(BudgetExceededError, match="^Bron-Kerbosch takes "
                           "at least 4540 words, over the budget of 4539$"):
            profile_frontier(g, budget=4539)

    def test_plane5_search_nodes(self):
        # top = 9, and mu(4..9) = 31 - b*(a)
        mu, nodes = independence._fewest_lines_met(gen_levi(5), frame(5),
                                                   DEFAULT_BUDGET)
        assert nodes == 1183
        assert mu[:4] == [0, 6, 11, 15]
        assert mu[4:] == [18, 20, 21, 23, 24, 25]

    @pytest.mark.parametrize("q", [3, 5, 7])
    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_search_bounds_are_sound(self, q, data):
        # for S through the frame, candidates C and j more points J from
        # C, |N(S + J)| is at least both floors the search prunes with
        g = gen_levi(q)
        points = range(plane_size(q))
        rest = [v for v in points if not frame(q) >> v & 1]
        extra = data.draw(st.lists(st.sampled_from(rest), unique=True,
                                   max_size=2 * q), label="S - frame")
        s = frame(q) | vset(extra)
        outside = st.sampled_from([v for v in points if not s >> v & 1])
        pick = data.draw(st.lists(outside, unique=True, min_size=1,
                                  max_size=2 * q), label="J")
        cands = set(pick) | set(data.draw(st.lists(outside), label="C - J"))
        j, hit = len(pick), neighborhood_of_set(g, s)
        t = sum(sorted((g.adj[c] & ~hit).bit_count() for c in cands)[:j])
        met = neighborhood_of_set(g, s | vset(pick)).bit_count()
        assert met >= hit.bit_count() + (
            -(-t * t // (t + j * (j - 1))) if t else 0)
        assert met >= independence.expansion_bound(q, s.bit_count() + j)


class TestBalancedCounting:
    def test_fano_28(self, fano):
        assert count_balanced(fano, 2) == 28  # 7*7 - 21 non-incident pairs

    def test_edgeless(self):
        assert count_balanced(edgeless_bipartite(2, 2), 2) == 4

    def test_agrees_with_enumeration(self, plane3):
        expect = sum(1 for s in enumerate_independent_sets(plane3, 4)
                     if s.bit_count() == 4
                     and profile(plane3, s)[0] == 2)
        assert count_balanced(plane3, 4) == expect

    def test_exceeds_formula_floor(self, fano):
        assert count_balanced(fano, 2) >= Fraction(14, 8) ** 2

    def test_odd_k_rejected(self, fano):
        with pytest.raises(GraphError):
            count_balanced(fano, 3)

    def test_budget_charges_each_point_subset(self, plane3):
        # k=2 sums over the 13 single points, one step each
        with pytest.raises(BudgetExceededError, match="balanced count"):
            count_balanced(plane3, 2, budget=12)
        assert count_balanced(plane3, 2, budget=13) == 13 * 9

    def test_budget_charges_the_words_of_the_line_side(self):
        # 3 single points, each ORing rows over 65 lines, 2 words
        g = edgeless_bipartite(3, 65)
        with pytest.raises(BudgetExceededError, match="balanced count"):
            count_balanced(g, 2, budget=5)
        assert count_balanced(g, 2, budget=6) == 3 * 65

    @settings(max_examples=100, deadline=None)
    @given(bipartite_graphs(), st.sampled_from([2, 4, 6]))
    def test_tally_matches_per_subset_sum(self, g, k):
        # oracle: one binomial per point subset, as summed before the tally
        half = k // 2
        lines = g.n - g.side_p_size
        expect = sum(math.comb(lines - neighborhood_of_set(
                         g, vset(combo)).bit_count(), half)
                     for combo in combinations(range(g.side_p_size), half))
        assert count_balanced(g, k) == expect

    def test_half_above_a_side_counts_0_at_once(self):
        # 10 points and 2 lines: no line subset of 3, so no charge
        assert count_balanced(edgeless_bipartite(10, 2), 6, budget=0) == 0

    @given(st.integers(0, 60), st.integers(0, 60), st.integers(0, 10 ** 6))
    def test_comb_over(self, n, r, cap):
        c = independence._comb_over(n, r, cap)
        if math.comb(n, r) <= cap:
            assert c == math.comb(n, r)
        else:
            assert cap < c <= math.comb(n, r)


class TestCoverCapacity:
    def test_profile_41(self, fano):
        best_set = next(s for s in enumerate_maximal_independent_sets(fano)
                        if profile(fano, s) == (4, 1))
        assert check_cover_capacity(fano, best_set, 2) == 4

    def test_too_small_side_gives_zero(self, fano):
        assert check_cover_capacity(fano, 1 << 0, 2) == 0

    def test_three_three(self):
        g = edgeless_bipartite(3, 3)
        assert check_cover_capacity(g, g.all_vertices, 2) == 9

    def test_dependent_set_rejected(self, fano):
        edge = next(fano.edges())
        with pytest.raises(GraphError):
            check_cover_capacity(fano, vset(edge), 2)

    @pytest.mark.parametrize("s", [1 << 14, 1 | 1 << 14, -1])
    def test_out_of_range_rejected(self, fano, s):
        # refused as a GraphError before any row is read, not an
        # IndexError from the row of a vertex past the graph
        with pytest.raises(GraphError, match="vertex index out of range"):
            check_cover_capacity(fano, s, 2)


class TestBounds:
    def test_fano_formula_values(self):
        rep = evaluate_bounds(2, 2)
        assert rep.n == 14
        assert rep.balanced_count_lower_bound == (49, 16)
        assert rep.family_size_lower_bound == \
            pytest.approx(math.sqrt(14) / 128, rel=1e-12)
        assert rep.per_set_capacity_bound == \
            pytest.approx(2 * 14 ** 1.5, rel=1e-12)

    def test_balanced_bound_raising_charged_on_its_own_account(self):
        # 7^1000 and 2000^1000 take 1000 (3 + 11) bits, 219 words, and
        # 3^8 word products to raise
        assert balanced_count_lower_bound(14, 1000, 3 ** 8) == (
            Fraction(14, 4000) ** 1000).as_integer_ratio()
        with pytest.raises(BudgetExceededError, match=(
                "^the balanced count lower bound at n=14, k=1000 takes 6561 "
                "word products to raise, over the budget of 6560$")):
            balanced_count_lower_bound(14, 1000, 3 ** 8 - 1)
        with pytest.raises(BudgetExceededError, match=(
                "^the balanced count lower bound at n=14, k=1000 takes 219 "
                "words, over the budget of 218$")):
            balanced_count_lower_bound(14, 1000, 218)

    def test_balanced_bound_is_the_fraction_in_lowest_terms(self):
        for n in range(1, 201):
            for k in range(2, 41, 2):
                assert balanced_count_lower_bound(n, k) == (
                    Fraction(n, 4 * k) ** k).as_integer_ratio()

    @pytest.mark.parametrize("n, k", [(14, 2), (26, 2), (62, 4), (64, 2),
                                      (2814, 4), (120, 30)])
    def test_balanced_check_equals_the_fraction_formulas(self, n, k,
                                                         monkeypatch):
        # count just under, at and just over the bound; 64/8 squared is
        # the integral bound 64, which a count can equal
        bound = Fraction(n, 4 * k) ** k
        low, high = math.floor(bound), math.ceil(bound)
        g = edgeless_bipartite(n // 2, n - n // 2)
        for count in sorted({low - 1, low, high, high + 1}):
            monkeypatch.setattr(independence, "count_balanced",
                                lambda g, k, budget: count)
            got = independence.CHECKS["balanced"](g, k=k,
                                                  budget=DEFAULT_BUDGET,
                                                  memo={})
            assert got == (float(bound), count, count >= bound,
                           float(count - bound))
            assert type(got[3]) is float

    def test_fano_exact_counts(self):
        rep = evaluate_bounds(2, 2, exact=True)
        assert rep.measured_balanced_count == 28
        assert rep.measured_max_capacity == 4
        assert rep.exact_cover_lower_bound == 7

    def test_large_q_formula(self):
        rep = evaluate_bounds(101, 4)
        assert rep.n == 20606
        assert rep.family_size_lower_bound == \
            pytest.approx(20606 / 262144, rel=1e-12)

    def test_k_above_q_rejected(self):
        with pytest.raises(GraphError, match="at most q"):
            evaluate_bounds(2, 4)

    def test_odd_k_rejected(self):
        with pytest.raises(GraphError):
            evaluate_bounds(5, 3)

    @pytest.mark.parametrize("q,k,match", [
        (109, 3, "even"), (109, 200, "at most q"), (4, 3, "even"),
    ])
    def test_bad_k_rejected_before_the_plane(self, q, k, match,
                                             monkeypatch):
        built = []
        monkeypatch.setattr(independence, "gen_levi",
                            lambda *args: built.append(args))
        with pytest.raises(GraphError, match=match):
            evaluate_bounds(q, k, exact=True)
        assert built == []

    @pytest.mark.parametrize("q", [2, 3])
    def test_exact_measures_the_generated_plane(self, q):
        # the measured fields, taken on gen_levi(q) by hand
        g = gen_levi(q)
        count = count_balanced(g, 2)
        cap = max_cover_capacity(profile_frontier(g), 2)
        assert evaluate_bounds(q, 2, exact=True) == evaluate_bounds(
            q, 2)._replace(measured_balanced_count=count,
                           measured_max_capacity=cap,
                           exact_cover_lower_bound=-(-count // cap))

    def test_skeleton_dominates_formula(self):
        for q in (2, 3):
            rep = evaluate_bounds(q, 2, exact=True)
            assert rep.exact_cover_lower_bound >= rep.family_size_lower_bound


@pytest.mark.parametrize("call", [
    lambda g: check_cover_capacity(g, 1, 2),
    lambda g: check_expansion(g, 1),
    lambda g: count_balanced(g, 2),
], ids=["check_cover_capacity", "check_expansion", "count_balanced"])
def test_unflagged_graph_rejected(call):
    with pytest.raises(GraphError, match="not flagged bipartite"):
        call(from_edges(4, [(0, 2), (1, 3)]))


OPTIONS = {"k": 2, "samples": 1000, "seed": 0}
# a C4 through points 0, 1 and lines 7, 8 on the sides of the Fano plane
SQUARE_ON_FANO_SIDES = from_edges(14, [(0, 7), (0, 8), (1, 7), (1, 8)],
                                  side_p_size=7)


class TestRunChecks:
    @pytest.mark.parametrize("names", [
        ["levi-props", "c4free"], ["c4free", "levi-props"],
        ["c4free", "degeneracy", "levi-props", "c4free"]])
    @pytest.mark.parametrize("graph", ["plane3", "square"])
    def test_structural_checks_sweep_once(self, names, graph, plane3,
                                          monkeypatch):
        g = plane3 if graph == "plane3" else SQUARE_ON_FANO_SIDES
        # each check run on its own, with a sweep of its own
        alone = [independence.CHECKS[name](g, **OPTIONS,
                                           budget=DEFAULT_BUDGET, memo={})
                 for name in names]
        sweeps = []

        def counted(g, budget):
            sweeps.append(budget)
            return is_c4_free(g, budget)
        monkeypatch.setattr(independence, "is_c4_free", counted)
        assert independence.run_checks(g, names, OPTIONS, 10 ** 6) == alone
        assert sweeps == [10 ** 6]

    @pytest.mark.parametrize("names", [
        ["product", "coverbound"], ["coverbound", "product"],
        ["c4free", "coverbound", "levi-props", "product"],
        ["product", "levi-props", "c4free", "coverbound"]])
    @pytest.mark.parametrize("graph", ["plane3", "relabelled"])
    def test_product_and_coverbound_search_once(self, names, graph, plane3,
                                                monkeypatch):
        # the relabelled plane takes the Bron-Kerbosch path
        g = plane3 if graph == "plane3" else relabelled(plane3, 5)
        # each check run on its own, with a frontier of its own
        alone = [independence.CHECKS[name](g, **OPTIONS,
                                           budget=DEFAULT_BUDGET, memo={})
                 for name in names]
        searches = []

        def counted(g, budget):
            searches.append(budget)
            return profile_frontier(g, budget)
        monkeypatch.setattr(independence, "profile_frontier", counted)
        assert independence.run_checks(g, names, OPTIONS, 10 ** 6) == alone
        assert searches == [10 ** 6]

    def test_graph_fitting_no_plane_is_refused_before_the_sweep(self):
        # budget 0 would refuse the sweep; the side size is refused first
        with pytest.raises(GraphError, match="prime-order plane"):
            independence.run_checks(
                from_edges(12, [], side_p_size=6),
                ["levi-props", "c4free"], OPTIONS, 0)

    def test_one_sweep_charge_for_both(self, plane3):
        # 26 rows of one word: the charge of one sweep covers both checks
        assert independence.run_checks(plane3, ["levi-props", "c4free"],
                                       OPTIONS, 26) == [(True, True, True,
                                                         None)] * 2
        with pytest.raises(BudgetExceededError, match="codegree sweep"):
            independence.run_checks(plane3, ["c4free", "levi-props"],
                                    OPTIONS, 25)
