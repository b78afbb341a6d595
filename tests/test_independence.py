import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from levicover import (Graph, GraphError, DesignParams, SideProfile,
                       check_cover_capacity,
                       check_expansion, count_balanced,
                       count_independent_sets, enumerate_independent_sets,
                       enumerate_maximal_independent_sets, evaluate_bounds,
                       gen_levi, graph_hash, max_cover_capacity,
                       max_side_product, members, profile_frontier,
                       side_profile, vset)
from levicover import independence
from levicover.independence import BudgetExceededError
from conftest import (brute_independent_sets, complete_graph, cycle_graph,
                      edgeless_bipartite)


class TestEnumeration:
    def test_four_cycle_counts(self):
        g = cycle_graph(4)
        sets = list(enumerate_independent_sets(g, 2))
        assert len(sets) == 6  # 4 singletons + 2 diagonal pairs

    def test_edgeless_singletons(self):
        g = Graph.from_edges(3, [])
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
            assert plane3.is_independent(s)

    def test_budget_raises(self, fano):
        with pytest.raises(BudgetExceededError):
            list(enumerate_independent_sets(fano, 4, budget=10))


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
        g = cycle_graph(4) if name == "c4" else request.getfixturevalue(name)
        full = list(enumerate_maximal_independent_sets(g))
        for r in [0, *enumerate_independent_sets(g, 2)]:
            got = list(enumerate_maximal_independent_sets(g, r))
            assert len(got) == len(set(got))
            assert set(got) == {s for s in full if s & r == r}

    def test_containing_rejects_dependent_or_outside(self, fano):
        with pytest.raises(GraphError, match="not independent"):
            list(enumerate_maximal_independent_sets(fano, fano.all_vertices))
        with pytest.raises(GraphError, match="out of range"):
            list(enumerate_maximal_independent_sets(fano, 1 << 14))

    def test_budget_counts_recursive_calls(self, fano):
        # 93 Bron-Kerbosch calls enumerate Fano's 37 maximal sets
        assert len(list(enumerate_maximal_independent_sets(
            fano, budget=93))) == 37
        with pytest.raises(BudgetExceededError):
            list(enumerate_maximal_independent_sets(fano, budget=92))


class TestExpansion:
    def test_singleton_equality(self, fano):
        chk = check_expansion(fano, DesignParams.for_plane(2), 1 << 0)
        assert chk.holds
        assert chk.neighborhood_size == 3 and chk.bound == 3

    def test_full_side_equality(self, fano):
        chk = check_expansion(fano, DesignParams.for_plane(2), fano.side_p)
        assert chk.neighborhood_size == 7
        assert chk.bound == Fraction(9 * 7, 2 + 7) == 7

    def test_random_subsets_plane3(self, plane3):
        params = DesignParams.for_plane(3)
        rng = np.random.default_rng(7)
        sides = [members(plane3.side_p), members(plane3.side_l)]
        for _ in range(1000):
            verts = sides[rng.integers(2)]
            size = int(rng.integers(1, len(verts) + 1))
            s = vset(rng.choice(verts, size=size, replace=False))
            assert check_expansion(plane3, params, s).holds

    def test_empty_or_straddling_raises(self, fano):
        params = DesignParams.for_plane(2)
        with pytest.raises(GraphError):
            check_expansion(fano, params, 0)
        with pytest.raises(GraphError):
            check_expansion(fano, params, vset([0, 7]))

    def test_negative_samples_rejected(self, fano):
        with pytest.raises(GraphError, match="non-negative"):
            independence._verify_expansion(fano, samples=-5, seed=0,
                                           budget=None)


class TestSideProduct:
    def test_fano_max_is_four(self, fano):
        best, prof = max_side_product(fano)
        assert best == 4
        assert prof.a * prof.b == 4

    def test_fano_brute_force_agreement(self, fano):
        # dual computation: global maximum over *all* independent sets
        brute = 0
        for mask in brute_independent_sets(fano, fano.n):
            prof = side_profile(fano, mask)
            brute = max(brute, prof.a * prof.b)
        assert brute == max_side_product(fano)[0]

    def test_edgeless_bipartite(self):
        assert max_side_product(edgeless_bipartite(2, 3))[0] == 6

    def test_plane3_bound(self, plane3):
        assert max_side_product(plane3)[0] <= 3 * 16  # q(q+1)^2

    def test_profile_product_bound_everywhere(self, fano):
        n32 = 2 * 14 ** 1.5
        for s in enumerate_independent_sets(fano, 14):
            prof = side_profile(fano, s)
            assert prof.a * prof.b <= 18 < n32

    def test_non_bipartite_raises(self):
        with pytest.raises(GraphError):
            max_side_product(cycle_graph(4))


def relabelled(g, seed):
    """g with its vertices permuted inside each side."""
    rng = np.random.default_rng(seed)
    perm = np.concatenate([rng.permutation(g.side_p_size),
                           g.side_p_size + rng.permutation(
                               g.n - g.side_p_size)])
    edges = [(int(perm[u]), int(perm[v])) for u, v in g.edges()]
    return Graph.from_edges(g.n, edges, side_p_size=g.side_p_size)


def minus_one_edge(g):
    return Graph.from_edges(g.n, list(g.edges())[:-1],
                            side_p_size=g.side_p_size)


def full_path_best(g, score):
    """Oracle: score every maximal set, ties to the larger (a, b)."""
    profiles = {(p.a, p.b) for p in (side_profile(g, s) for s in
                                     enumerate_maximal_independent_sets(g))}
    a, b = max(profiles, key=lambda ab: (score(*ab), ab))
    return score(a, b), SideProfile(a, b)


def brute_best(g, score):
    """Oracle: score every independent set of the subset lattice."""
    return max(score(p.a, p.b) for p in (side_profile(g, s) for s in
                                         brute_independent_sets(g, g.n)))


def brute_frontier(g):
    """Oracle: for each a, the most lines of an independent set with a
    points, over the whole subset lattice (every set of points is
    independent, so each a has one)."""
    best = [0] * (g.side_p_size + 1)
    for s in brute_independent_sets(g, g.n):
        p = side_profile(g, s)
        best[p.a] = max(best[p.a], p.b)
    return tuple(best)


def frontier_best(frontier, score):
    """The largest score over the frontier points (a, b*(a)), ties to
    the larger a."""
    a, b = max(enumerate(frontier), key=lambda ab: (score(*ab), ab[0]))
    return score(a, b), SideProfile(a, b)


@st.composite
def bipartite_graphs(draw):
    """Hypothesis strategy: bipartite graphs with 1..6 points, at most 10
    vertices and random point-line edges."""
    a = draw(st.integers(1, 6))
    b = draw(st.integers(0, 10 - a))
    pairs = [(p, a + j) for p in range(a) for j in range(b)]
    bits = draw(st.lists(st.booleans(), min_size=len(pairs),
                         max_size=len(pairs)))
    return Graph.from_edges(a + b, [e for e, on in zip(pairs, bits) if on],
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
    """Records the start set and yield count of each maximal-set run."""
    runs = []
    orig = independence.enumerate_maximal_independent_sets

    def spy(g, containing=0, budget=None):
        runs.append([containing, 0])
        for s in orig(g, containing, budget):
            runs[-1][1] += 1
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
        assert [r[0] for r in bk_starts] == [0b11]

    @pytest.mark.parametrize("q", [2, 3])
    def test_reduced_frontier_equals_full_path(self, q, bk_starts,
                                               monkeypatch):
        g = gen_levi(q)
        reduced = profile_frontier(g)
        monkeypatch.setattr(independence, "_is_generated_plane",
                            lambda g: False)
        assert profile_frontier(g) == reduced
        assert [r[0] for r in bk_starts] == [0b11, 0]

    @pytest.mark.parametrize("q", [2, 3])
    def test_public_maxima_take_reduced_path(self, q, bk_starts):
        g = gen_levi(q)
        assert max_side_product(g) == full_path_best(
            g, MONOTONE_SCORES["product"])
        for k in (2, 4):
            assert max_cover_capacity(g, k) == max(
                check_cover_capacity(g, s, k)
                for s in enumerate_maximal_independent_sets(g))
        assert [r[0] for r in bk_starts[:3]] == [0b11] * 3

    def test_plane3_values(self, plane3):
        assert max_side_product(plane3)[0] == 12
        assert max_cover_capacity(plane3, 4) == 18

    @pytest.mark.parametrize("perturb", [lambda g: relabelled(g, 5),
                                         minus_one_edge],
                             ids=["relabelled", "minus_one_edge"])
    def test_uncertified_fano_takes_full_path(self, fano, perturb,
                                              bk_starts):
        g = perturb(fano)
        assert graph_hash(g) != graph_hash(fano)
        frontier = profile_frontier(g)
        assert frontier == brute_frontier(g)
        assert [r[0] for r in bk_starts] == [0]
        for score in MONOTONE_SCORES.values():
            assert frontier_best(frontier, score)[0] == brute_best(g, score)

    @pytest.mark.parametrize("perturb", [lambda g: relabelled(g, 5),
                                         minus_one_edge],
                             ids=["relabelled", "minus_one_edge"])
    def test_uncertified_plane3_takes_full_path(self, plane3, perturb,
                                                bk_starts):
        g = perturb(plane3)
        assert graph_hash(g) != graph_hash(plane3)
        frontier = profile_frontier(g)
        assert [r[0] for r in bk_starts] == [0]
        for score in MONOTONE_SCORES.values():
            expect = full_path_best(g, score)
            assert frontier_best(frontier, score) == expect

    def test_plane5_pinned(self, bk_starts):
        g = gen_levi(5)
        assert max_cover_capacity(g, 4) == 675
        assert max_side_product(g)[0] == 60
        assert bk_starts == [[0b11, 78986]] * 2

    def test_plane5_frontier_pinned(self, bk_starts):
        frontier = profile_frontier(gen_levi(5))
        assert frontier == (31, 25, 20, 16, 13, 11, 10, 8, 7, 6, 6, 5, 4, 4,
                            3, 3, 3, 2, 2, 2, 2, 1, 1, 1, 1, 1,
                            0, 0, 0, 0, 0, 0)
        assert bk_starts == [[0b11, 78986]]
        # both maxima sit at (6, 10) and at its mirror (10, 6), which wins
        # the tie
        assert frontier[6] == 10 and frontier[10] == 6
        assert frontier_best(frontier, MONOTONE_SCORES["product"]) == \
            (60, SideProfile(10, 6))
        assert frontier_best(frontier, MONOTONE_SCORES["capacity4"]) == \
            (675, SideProfile(10, 6))

    @pytest.mark.parametrize("q,frontier", [
        (2, (7, 4, 2, 1, 1, 0, 0, 0)),
        (3, (13, 9, 6, 4, 3, 2, 2, 1, 1, 1, 0, 0, 0, 0))])
    def test_small_plane_frontiers(self, q, frontier):
        assert profile_frontier(gen_levi(q)) == frontier

    @settings(max_examples=100, deadline=None)
    @given(bipartite_graphs())
    def test_frontier_matches_brute_force(self, g):
        assert profile_frontier(g) == brute_frontier(g)
        assert max_side_product(g) == full_path_best(
            g, MONOTONE_SCORES["product"])

    def test_budget_covers_both_paths(self, plane3):
        # 135 Bron-Kerbosch calls on the reduced path; the full path on
        # this relabelling takes 1711 (pivots depend on the labels)
        assert max_side_product(plane3, budget=135)[0] == 12
        with pytest.raises(BudgetExceededError):
            max_side_product(plane3, budget=134)
        g = relabelled(plane3, 5)
        assert max_cover_capacity(g, 2, budget=1711) == 12
        with pytest.raises(BudgetExceededError):
            max_cover_capacity(g, 2, budget=1710)


class TestBalancedCounting:
    def test_fano_28(self, fano):
        assert count_balanced(fano, 2) == 28  # 7*7 - 21 non-incident pairs

    def test_edgeless(self):
        assert count_balanced(edgeless_bipartite(2, 2), 2) == 4

    def test_agrees_with_enumeration(self, plane3):
        expect = sum(1 for s in enumerate_independent_sets(plane3, 4)
                     if s.bit_count() == 4
                     and side_profile(plane3, s).a == 2)
        assert count_balanced(plane3, 4) == expect

    def test_exceeds_formula_floor(self, fano):
        assert count_balanced(fano, 2) >= Fraction(14, 8) ** 2

    def test_odd_k_rejected(self, fano):
        with pytest.raises(GraphError):
            count_balanced(fano, 3)


class TestCoverCapacity:
    def test_profile_41(self, fano):
        best_set = next(s for s in enumerate_maximal_independent_sets(fano)
                        if side_profile(fano, s) == SideProfile(4, 1))
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


class TestBounds:
    def test_fano_formula_values(self):
        rep = evaluate_bounds(2, 2)
        assert rep.n == 14
        assert rep.balanced_count_lower_bound == Fraction(49, 16)
        assert rep.family_size_lower_bound == \
            pytest.approx(math.sqrt(14) / 128, rel=1e-12)
        assert rep.per_set_capacity_bound == \
            pytest.approx(2 * 14 ** 1.5, rel=1e-12)

    def test_fano_exact_counts(self, fano):
        rep = evaluate_bounds(2, 2, g=fano)
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

    def test_skeleton_dominates_formula(self, fano, plane3):
        for q, g in ((2, fano), (3, plane3)):
            rep = evaluate_bounds(q, 2, g=g)
            assert rep.exact_cover_lower_bound >= rep.family_size_lower_bound
