import hashlib
import json
import math
import random
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from levicover import (GraphError, build_family_mc,
                       count_independent_sets, degeneracy_order, dump_family,
                       family_from_json, family_to_json,
                       enumerate_independent_sets,
                       enumerate_maximal_independent_sets, gen_levi,
                       graph_hash, greedy_cover, load_family, members,
                       parse_graph, required_samples, substream,
                       verify_family, vset)
from levicover import covering
from levicover.covering import sample_independent_set
from levicover.graphs import DEFAULT_BUDGET, BudgetExceededError, words
from conftest import (complete_graph, cycle_graph, from_edges,
                      is_independent, path_graph, small_graphs)

P_MIN_FANO = Fraction(729, 65536)  # (1/4)^2 (3/4)^6 for d=3, k=2


def p_min(d, k):
    """Oracle: the per-sample containment floor p^k (1-p)^(kd) at
    p = 1/(d+1), in Fraction."""
    p = Fraction(1, d + 1)
    return p ** k * (1 - p) ** (k * d)


def lane_marks(rng, lanes, d):
    """Oracle: the marks of ``lanes`` lanes at p = 1/(d+1), one lane at a
    time. Planes getrandbits(lanes) are drawn while some lane's numeral
    equals floor(2^m/(d+1)) and 2^m/(d+1) is not an integer, at most 64
    of them; a lane is marked iff its numeral is below floor(2^m/(d+1))."""
    numerals, m = [0] * lanes, 0
    while m < 64 and (1 << m) % (d + 1) and (1 << m) // (d + 1) in numerals:
        digits = format(rng.getrandbits(lanes), f"0{lanes}b")[::-1]
        numerals = [2 * x + int(b) for x, b in zip(numerals, digits)]
        m += 1
    return [x < (1 << m) // (d + 1) for x in numerals]


def lane_block(rng, rows, g, order):
    """Oracle: ``rows`` samples of g, vertex v of sample r on lane
    v rows + r, each vertex kept iff it is marked and no forward neighbor
    is."""
    marked = lane_marks(rng, rows * g.n, order.degeneracy)
    return [sum(1 << v for v in range(g.n) if marked[v * rows + r]
                and not any(marked[w * rows + r]
                            for w in members(order.forward[v])))
            for r in range(rows)]


def columns_block(rng, rows, d, forward):
    """Oracle: ``rows`` samples as bitmasks, the planes cut and pruned as
    the sampler does, then transposed by the column index."""
    lanes = rows * len(forward)
    digits = bin(covering._marks(rng, lanes, d) | 1 << lanes)[3:]
    planes = [int(digits[i - rows:i], 2) for i in range(lanes, 0, -rows)]
    keep = []
    for plane, fwd in zip(planes, forward):
        for w in members(fwd):
            plane &= ~planes[w]
        keep.append(plane)
    return covering._columns(keep, rows, DEFAULT_BUDGET)


def decoded(rows):
    return [int.from_bytes(row, "little") for row in rows]


class CountingRandom:
    """Planes that hold every lane at the digits ``digit(i)``, counted."""

    def __init__(self, digit):
        self.digit, self.planes = digit, 0

    def getrandbits(self, lanes):
        self.planes += 1
        return (1 << lanes) - 1 if self.digit(self.planes) else 0


class TestSampler:
    def test_edgeless_returns_marked_set(self):
        g = from_edges(6, [])
        order = degeneracy_order(g)
        rng = substream(1)
        for _ in range(20):
            # p = 1/2; no forward neighbors, so nothing is pruned
            s = sample_independent_set(g, order._replace(degeneracy=1), rng)
            assert is_independent(g, s)
        full = sample_independent_set(g, order, rng)  # d = 0, p = 1
        assert full == g.all_vertices

    def test_complete_graph_at_most_one(self):
        g = complete_graph(5)
        half = degeneracy_order(g)._replace(degeneracy=1)  # p = 1/2
        rng = substream(2)
        for _ in range(50):
            assert sample_independent_set(g, half, rng).bit_count() <= 1

    def test_always_independent(self, fano):
        order = degeneracy_order(fano)
        rng = substream(3)
        for _ in range(500):
            s = sample_independent_set(fano, order, rng)
            assert is_independent(fano, s)

    def test_substream_reproducible(self, fano):
        order = degeneracy_order(fano)
        a, b = substream(9), substream(9)
        assert ([sample_independent_set(fano, order, a) for _ in range(30)]
                == [sample_independent_set(fano, order, b)
                    for _ in range(30)])

    def test_containment_floor_value(self):
        assert p_min(3, 2) == P_MIN_FANO == Fraction(3 ** 6, 4 ** 8)
        assert float(P_MIN_FANO) == pytest.approx(0.011124, abs=5e-7)

    def test_pair_frequency_above_floor(self, fano):
        # Monte Carlo estimate of one pair's containment probability
        order = degeneracy_order(fano)
        x = vset([0, 1])
        assert is_independent(fano, x)
        rng = substream(5)
        hits = sum(
            1 for _ in range(10 ** 4)
            if x & ~sample_independent_set(fano, order, rng) == 0)
        floor = float(P_MIN_FANO)
        assert hits / 10 ** 4 >= floor - 3 * math.sqrt(floor / 10 ** 4)


def oracle_verify(g, k, sets):
    """The scalar coverage check: scan the family for every target."""
    for z in enumerate_independent_sets(g, k):
        if not any(z & ~s == 0 for s in sets):
            return False, z
    return True, None


def column_verify(g, k, sets, budget=DEFAULT_BUDGET):
    """The column-index coverage check that verify_family's prefix walk
    replaced: the same checks and charges, then each target's members'
    columns ANDed afresh, over enumerate_independent_sets."""
    if k < 1:
        raise GraphError("k must be at least 1")
    sets = list(sets)
    if any(s < 0 or s >> g.n for s in sets):
        raise GraphError("family member has a vertex outside the graph")
    cols = covering._columns(sets, g.n, budget)
    for u, v in g.edges():
        if cols[u] & cols[v]:
            raise GraphError(f"family member contains the edge ({u}, {v})")
    for z in enumerate_independent_sets(g, k, budget):
        holders = -1
        for v in members(z):
            holders &= cols[v]
        if not holders:
            return False, z
    return True, None


def outcome(f, *args, **kwargs):
    """f's result, or the type and message of the error it raised."""
    try:
        return f(*args, **kwargs)
    except (GraphError, BudgetExceededError) as exc:
        return type(exc).__name__, str(exc)


def least_budget(f, *args):
    """The least budget at which f(*args, budget) returns, by bisection."""
    lo, hi = 0, 10 ** 7
    while lo < hi:
        mid = (lo + hi) // 2
        if isinstance(outcome(f, *args, mid)[0], bool):
            hi = mid
        else:
            lo = mid + 1
    return lo


def oracle_pack(sets, n):
    """Oracle: the per-array loop that family_from_json's whole-family
    passes replaced. Each array is checked, then packed, in file order,
    so the first bad array's message is raised."""
    masks = []
    for arr in sets:
        if not (isinstance(arr, list) and set(map(type, arr)) <= {int}
                and all(a < b for a, b in zip(arr, arr[1:]))
                and (not arr or arr[0] >= 0)):
            raise GraphError("family set is not a strictly ascending array "
                             "of vertex indices")
        if arr and arr[-1] >= n:
            raise GraphError("family member has a vertex outside the graph: "
                             f"{arr[-1]}")
        masks.append(sum(1 << v for v in arr))
    return tuple(masks)


def _insert(arr, item, at):
    return arr[:at % (len(arr) + 1)] + [item] + arr[at % (len(arr) + 1):]


# How a member array is spoiled: each takes the array, the graph's n and
# an int to place the change
MUTATIONS = {
    "keep": lambda arr, n, at: arr,
    "dict": lambda arr, n, at: {str(v): v for v in arr},
    "int": lambda arr, n, at: at,
    "str-array": lambda arr, n, at: ",".join(map(str, arr)),
    "bool": lambda arr, n, at: _insert(arr, at % 2 == 0, at),
    "float": lambda arr, n, at: _insert(arr, float(at % n), at),
    "str": lambda arr, n, at: _insert(arr, str(at % n), at),
    "negative": lambda arr, n, at: [-1 - at % 3] + arr,
    "outside": lambda arr, n, at: arr + [n + at % 3],
    "far-outside": lambda arr, n, at: arr + [10 ** 10],
    "duplicate": lambda arr, n, at: (_insert(arr, arr[at % len(arr)], at)
                                     if arr else [at % n, at % n]),
    "descending": lambda arr, n, at: arr[::-1] if len(arr) > 1 else [1, 0],
    "empty": lambda arr, n, at: [],
    "nested": lambda arr, n, at: _insert(arr, [at % n], at),
    "wrapped": lambda arr, n, at: [arr],
}


@st.composite
def family_documents(draw):
    """The member arrays of a family document for a graph on n vertices:
    ascending arrays, with up to three of them spoiled by MUTATIONS, so a
    bad array may come after good ones."""
    n = draw(st.sampled_from([1, 14, 26, 70]))
    arrays = draw(st.lists(st.lists(st.integers(0, n - 1), unique=True,
                                    max_size=8).map(sorted), max_size=12))
    for _ in range(draw(st.integers(0, 3))):
        if not arrays:
            break
        i = draw(st.integers(0, len(arrays) - 1))
        name = draw(st.sampled_from(sorted(MUTATIONS)))
        if isinstance(arrays[i], list):
            arrays[i] = MUTATIONS[name](arrays[i], n,
                                        draw(st.integers(0, 99)))
    return n, arrays


@st.composite
def graphs_with_families(draw):
    """A small graph, a k in 1..4 and a family of its independent sets:
    random vertex subsets, each cut to an independent set by keeping a
    vertex only when no kept vertex is its neighbour."""
    g = draw(small_graphs())
    family = []
    for subset in draw(st.lists(st.integers(0, (1 << g.n) - 1),
                                max_size=12)):
        kept = 0
        for v in members(subset):
            if not g.adj[v] & kept:
                kept |= 1 << v
        family.append(kept)
    return g, draw(st.integers(1, 4)), family


def oracle_greedy(g, k):
    """The scalar greedy cover: recount every candidate's gain per round."""
    uncovered = set(enumerate_independent_sets(g, k))
    candidates = sorted(enumerate_maximal_independent_sets(g), key=members)
    chosen = []
    while uncovered:
        best, best_gain = None, 0
        for c in candidates:
            gain = sum(1 for z in uncovered if z & ~c == 0)
            if gain > best_gain:
                best, best_gain = c, gain
        chosen.append(best)
        uncovered = {z for z in uncovered if z & ~best}
    return chosen


def eager_greedy(g, k):
    """The bitmask greedy cover that scans every candidate's gain in
    every round, as greedy_cover did before its gains were lazy."""
    universe = list(enumerate_independent_sets(g, k))
    candidates = sorted(enumerate_maximal_independent_sets(g), key=members)
    cols = covering._columns(universe, g.n, DEFAULT_BUDGET)
    uncovered = (1 << len(universe)) - 1
    contained = []
    for c in candidates:
        outside = 0
        for v in members(g.all_vertices & ~c):
            outside |= cols[v]
        contained.append(uncovered & ~outside)
    chosen = []
    while uncovered:
        best, best_gain = None, 0
        for i, inside in enumerate(contained):
            gain = (inside & uncovered).bit_count()
            if gain > best_gain:
                best, best_gain = i, gain
        chosen.append(candidates[best])
        uncovered &= ~contained[best]
    return chosen


class TestBlockSampler:
    """The bit-sliced sampler against the lane oracle."""

    # q=7 has n=114 vertices, wider than one 64-bit word; the path has
    # d=1, p=1/2, so one plane decides every lane; the edgeless graphs
    # have d=0 and n=0, which draw nothing
    @pytest.mark.parametrize("g", [gen_levi(q) for q in (2, 3, 7)]
                             + [path_graph(9), from_edges(5, []),
                                from_edges(0, [])],
                             ids=["q2", "q3", "q7", "path9", "edgeless5",
                                  "empty"])
    @pytest.mark.parametrize("rows", [1, 3, 17, 300])
    def test_block_rows_equal_lane_oracle(self, g, rows):
        order = degeneracy_order(g)
        d = order.degeneracy
        a, b = substream(11), substream(11)
        for _ in range(3):
            assert (decoded(covering._sample_block(a, rows, d, order.forward))
                    == lane_block(b, rows, g, order))
        assert a.getstate() == b.getstate()

    # edgeless graphs of 5, 8 and 16 vertices end in a partial and in a
    # full byte
    @pytest.mark.parametrize("g", [gen_levi(q) for q in (2, 3, 5, 7)]
                             + [path_graph(9)]
                             + [from_edges(n, [])
                                for n in (5, 8, 16, 0)],
                             ids=["q2", "q3", "q5", "q7", "path9", "edgeless5",
                                  "edgeless8", "edgeless16", "empty"])
    @pytest.mark.parametrize("rows", [1, 3, 17, 300])
    def test_block_rows_equal_column_transpose(self, g, rows):
        order = degeneracy_order(g)
        d = order.degeneracy
        a, b = substream(13), substream(13)
        for _ in range(3):
            got = covering._sample_block(a, rows, d, order.forward)
            assert all(len(row) == (g.n + 7) // 8 for row in got)
            assert decoded(got) == columns_block(b, rows, d, order.forward)
        assert a.getstate() == b.getstate()

    def test_full_block_equals_column_transpose(self):
        g = gen_levi(3)
        order = degeneracy_order(g)
        d = order.degeneracy
        a, b = substream(14), substream(14)
        got = covering._sample_block(a, covering.BLOCK, d, order.forward)
        assert decoded(got) == columns_block(b, covering.BLOCK, d,
                                             order.forward)
        assert a.getstate() == b.getstate()

    @pytest.mark.parametrize("rows", [1, 5])
    def test_block_of_no_vertices_is_empty_rows(self, rows):
        assert covering._sample_block(substream(0), rows, 0,
                                      []) == (b"",) * rows

    @pytest.mark.parametrize("q", [2, 3, 5, 7])
    def test_block_rows_equal_sequential_calls(self, q):
        # each sample_independent_set call is a lane-oracle block of one row
        g = gen_levi(q)
        order = degeneracy_order(g)
        a, b = substream(12), substream(12)
        assert ([sample_independent_set(g, order, a) for _ in range(200)]
                == [lane_block(b, 1, g, order)[0] for _ in range(200)])
        assert a.getstate() == b.getstate()

    @pytest.mark.parametrize("d,planes", [(0, 0), (1, 1), (3, 2), (7, 3)])
    def test_dyadic_p_draws_its_digits_only(self, d, planes):
        # every lane takes the digits of p = 1/(d+1), so every lane ties
        # until they run out; it then sits at 2^m p and is unmarked
        rng = CountingRandom(lambda i: 2 ** i // (d + 1) % 2)
        assert covering._marks(rng, 10, d) == (1023 if d == 0 else 0)
        assert rng.planes == planes

    def test_lane_tied_after_64_planes_is_unmarked(self):
        # 1/3 is 0.010101... in binary; lanes that draw those digits stay
        # tied, and the 64th plane is the last
        rng = CountingRandom(lambda i: i % 2 == 0)
        assert covering._marks(rng, 7, 2) == 0
        assert rng.planes == covering.PLANES == 64
        # one digit below p's at plane 64 marks the lane
        rng = CountingRandom(lambda i: i % 2 == 0 and i < 64)
        assert covering._marks(rng, 7, 2) == 127

    def test_no_lanes_draw_nothing(self):
        rng = CountingRandom(bool)
        assert covering._marks(rng, 0, 4) == 0
        assert rng.planes == 0

    def test_family_is_deduplicated_block_stream(self, monkeypatch):
        # t = 1020 in blocks of 300, 300, 300 and a partial 120, all drawn
        # from one generator
        monkeypatch.setattr(covering, "BLOCK", 300)
        g = gen_levi(2)
        order = degeneracy_order(g)
        fam = build_family_mc(g, 2, 1e-3, seed=4)
        assert fam.t == 1020
        rng = substream(4)
        samples = []
        for rows in (300, 300, 300, 120):
            samples += lane_block(rng, rows, g, order)
        want = tuple(s for s in dict.fromkeys(samples) if s)
        assert fam.sets == want

    def test_single_partial_block(self):
        g = gen_levi(2)
        order = degeneracy_order(g)
        fam = build_family_mc(g, 2, 1e-3, seed=6)
        assert fam.t < covering.BLOCK
        samples = lane_block(substream(6), fam.t, g, order)
        assert fam.sets == tuple(s for s in dict.fromkeys(samples) if s)

    def test_pinned_family_digest(self):
        # recorded when the sampler moved to random.Random bit-planes: a
        # change of the stream contract changes these bytes
        fam = build_family_mc(gen_levi(3), 2, 1e-3, seed=7)
        assert (fam.t, len(fam.sets)) == (1879, 1503)
        assert hashlib.sha256(dump_family(fam).encode()).hexdigest() == (
            "49d3a651aea4b048f2aac22f0f6b9524748f756a73ea2b5c7be778f57ea8260b")

    def test_pinned_workload_family_digest(self):
        # the cover-q3k4 family: 85 full blocks and one partial block,
        # recorded before rows were deduplicated as bytes
        fam = build_family_mc(gen_levi(3), 4, 1e-3, seed=0)
        assert (fam.t, len(fam.sets)) == (348638, 23133)
        assert hashlib.sha256(dump_family(fam).encode()).hexdigest() == (
            "6fed7a36f6a305be52efddbb1fc7a0415c176c8ccc2cc458bc242b6ac8cd009a")

    def test_empty_graph_gives_no_sets(self):
        fam = build_family_mc(from_edges(0, []), 1, 0.5, seed=0)
        assert (fam.t, fam.degeneracy, fam.sets) == (1, 0, ())

    def test_edgeless_graph_gives_every_vertex(self):
        fam = build_family_mc(from_edges(3, []), 1, 0.5, seed=0)
        assert fam.degeneracy == 0 and fam.sets == (0b111,)

    @pytest.mark.parametrize("seed", [-1, -7])
    def test_negative_seed_refused(self, fano, seed, monkeypatch):
        def no_draws(*args):
            raise AssertionError("sampled despite the negative seed")
        monkeypatch.setattr(covering, "substream", no_draws)
        with pytest.raises(GraphError, match="seed must be non-negative"):
            build_family_mc(fano, 2, 0.1, seed)


class TestFastPathsAgainstOracles:
    @pytest.fixture(scope="class")
    def q3_family(self):
        return build_family_mc(gen_levi(3), 4, 1e-3, seed=0).sets

    @pytest.mark.parametrize("size", [0, 1, 10, 100, 1000])
    def test_verify_prefixes(self, q3_family, size):
        g = gen_levi(3)
        prefix = q3_family[:size]
        for k in (2, 4):
            assert verify_family(g, k, prefix) == oracle_verify(g, k, prefix)

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_verify_every_50th_set(self, q3_family, k):
        # 463 of the 23,133 sets: every target covered at k <= 2, the
        # walk ends at {0, 1, 7} at k = 3 and {0, 1, 2, 3} at k = 4
        g = gen_levi(3)
        cut = q3_family[::50]
        assert verify_family(g, k, cut) == oracle_verify(g, k, cut)

    @settings(max_examples=300, deadline=None)
    @given(graphs_with_families())
    def test_verify_random_families(self, case):
        g, k, family = case
        assert verify_family(g, k, family) == oracle_verify(g, k, family)

    @settings(max_examples=300, deadline=None)
    @given(graphs_with_families())
    def test_verify_charges_as_the_column_loop(self, case):
        # the same verdict, witness or budget message on either side of
        # the least budget at which the column loop finishes
        g, k, family = case
        least = least_budget(column_verify, g, k, family)
        for budget in (least - 1, least):
            assert (outcome(verify_family, g, k, family, budget)
                    == outcome(column_verify, g, k, family, budget))

    @pytest.mark.parametrize("dropped", [None, 20, 73, 145])
    def test_verify_greedy_family_budget_threshold(self, dropped):
        # the k=4 greedy family, whole or without one set, walks far
        # enough that the steps, not the column index, set the least
        # budget
        g = gen_levi(3)
        family = greedy_cover(g, 4)
        if dropped is not None:
            del family[dropped]
        least = least_budget(column_verify, g, 4, family)
        assert least > words(8 * g.n * len(family))
        assert outcome(verify_family, g, 4, family, least - 1) == (
            "BudgetExceededError", f"the independent-set walk takes at "
            f"least {least} steps, over the budget of {least - 1}")
        assert (verify_family(g, 4, family, least)
                == column_verify(g, 4, family, least))

    @pytest.mark.parametrize("q,k", [(2, 1), (2, 2), (2, 3), (3, 2)])
    def test_greedy_matches_scalar_greedy(self, q, k):
        g = gen_levi(q)
        assert greedy_cover(g, k) == oracle_greedy(g, k)

    @pytest.mark.parametrize("q,k", [(q, k) for q in (2, 3)
                                     for k in range(1, 5)])
    def test_lazy_greedy_matches_eager_scan_on_planes(self, q, k):
        g = gen_levi(q)
        assert greedy_cover(g, k) == eager_greedy(g, k)

    @pytest.mark.parametrize("g", [from_edges(n, []) for n in (1, 5)]
                             + [cycle_graph(n) for n in (4, 5, 8, 9)],
                             ids=["edgeless1", "edgeless5", "C4", "C5", "C8",
                                  "C9"])
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_lazy_greedy_matches_eager_scan_on_ties(self, g, k):
        assert greedy_cover(g, k) == eager_greedy(g, k)

    @settings(max_examples=60, deadline=None)
    @given(g=small_graphs(), k=st.integers(1, 3))
    def test_lazy_greedy_matches_eager_scan(self, g, k):
        assert greedy_cover(g, k) == eager_greedy(g, k)


class TestRequiredSamples:
    def test_fano_value(self):
        assert required_samples(84, 3, 2, 1e-3) == 1020

    def test_plane3_k4_value(self, plane3):
        universe = count_independent_sets(plane3, 4)
        assert required_samples(universe, 4, 4, 1e-3) == 348638

    def test_huge_universe_and_tiny_floor(self):
        # float(10**400) and float(p_min) would overflow and underflow;
        # d = 1, k = 1 has p_min = 1/4
        t = required_samples(10 ** 400, 1, 1, 1e-3)
        want = (400 * math.log(10) - math.log(1e-3)) * 4
        assert abs(t - want) <= 1
        assert float(p_min(200, 140)) == 0.0
        assert required_samples(10, 200, 140, 0.5) > 10 ** 300

    def test_trivial(self):
        assert required_samples(1, 0, 1, 0.5) == 1

    def test_bad_args(self):
        with pytest.raises(GraphError):
            required_samples(0, 1, 1, 0.1)
        with pytest.raises(GraphError):
            required_samples(5, 1, 1, 1.5)
        with pytest.raises(GraphError):
            required_samples(5, 1, 0, 0.1)
        with pytest.raises(GraphError):
            required_samples(5, -1, 1, 0.1)

    @settings(max_examples=300, deadline=None)
    @given(st.integers(1, 10 ** 60), st.integers(0, 60), st.integers(1, 60),
           st.floats(1e-300, 1, exclude_max=True))
    def test_int_formula_equals_fraction_formula(self, universe, d, k,
                                                 delta):
        # oracle: ceil(ln(universe/delta) / p_min) with p_min in Fraction
        log_targets = math.log(universe) - math.log(delta)
        assert required_samples(universe, d, k, delta) == math.ceil(
            Fraction(log_targets) / p_min(d, k))


class TestBuildFamily:
    def test_fano_end_to_end(self, fano):
        fam = build_family_mc(fano, 2, 1e-3, seed=42)
        assert fam.t == 1020 and fam.degeneracy == 3
        assert family_to_json(fam)["p"] == "1/4"
        assert len(fam.sets) <= fam.t
        assert all(is_independent(fano, s) for s in fam.sets)
        ok, witness = verify_family(fano, 2, fam.sets)
        assert ok and witness is None

    def test_deterministic(self, fano):
        a = build_family_mc(fano, 2, 1e-3, seed=7)
        b = build_family_mc(fano, 2, 1e-3, seed=7)
        assert a == b
        c = build_family_mc(fano, 2, 1e-3, seed=8)
        assert c.sets != a.sets

    def test_edgeless_single_sample(self):
        g = from_edges(4, [])
        fam = build_family_mc(g, 4, 0.5, seed=0)
        # d = 0 forces p = 1, so the first sample is all of V
        assert fam.sets[0] == g.all_vertices
        assert verify_family(g, 4, fam.sets)[0]

    def test_k1_covers_singletons(self, plane3):
        fam = build_family_mc(plane3, 1, 1e-3, seed=3)
        covered = 0
        for s in fam.sets:
            covered |= s
        assert covered == plane3.all_vertices

    def test_sizing_lower_bound_refused_before_counting(self, fano,
                                                        monkeypatch):
        # t at the 14 single-vertex targets is 859; the full count of 84
        # targets gives t=1020
        def no_count(*args):
            raise AssertionError("counted despite the budget")
        monkeypatch.setattr(covering, "count_independent_sets", no_count)
        with pytest.raises(BudgetExceededError, match="t>=859"):
            build_family_mc(fano, 2, 1e-3, seed=0, budget=858)

    def test_sizing_lower_bound_refused_before_the_exact_powers(
            self, fano, monkeypatch):
        # at k = 10^6 the int powers of d and d+1 have millions of bits;
        # the float bound on t refuses first, with 2^3245114 <= t
        def no_powers(*args):
            raise AssertionError("built the powers despite the budget")
        monkeypatch.setattr(covering, "required_samples", no_powers)
        with pytest.raises(BudgetExceededError,
                           match=r"t>=2\^3245114 or more samples"):
            build_family_mc(fano, 10 ** 6, 0.5, seed=0)

    @settings(max_examples=300, deadline=None)
    @given(st.integers(1, 10 ** 7), st.integers(0, 60), st.integers(1, 60),
           st.floats(1e-300, 1, exclude_max=True), st.booleans())
    def test_float_sizing_floor_is_a_lower_bound(self, n, d, k, delta,
                                                 power):
        # oracle: the exact t, at n targets or at the n^k targets of the
        # fallback universe
        universe, log = ((n ** k, k * math.log(n)) if power
                         else (n, math.log(n)))
        t = required_samples(universe, d, k, delta)
        floor = covering._samples_floor(log, d, k, delta)
        assert t - t // 10 ** 9 - 1 <= floor <= t

    def test_sizing_lower_bound_within_budget_counts(self, fano):
        with pytest.raises(BudgetExceededError, match="t=1020"):
            build_family_mc(fano, 2, 1e-3, seed=0, budget=859)

    def test_universe_falls_back_to_n_to_the_k(self):
        # 20 + 190 + 1140 targets of size <= 3; counting them takes more
        # than 100 steps, so the union bound runs over 20^3 targets
        g = from_edges(20, [])
        assert count_independent_sets(g, 3) == 1350
        with pytest.raises(BudgetExceededError):
            count_independent_sets(g, 3, budget=100)
        fam = build_family_mc(g, 3, 0.1, seed=0, budget=100)
        assert fam.t == required_samples(20 ** 3, 0, 3, 0.1) == 12

    def test_sample_count_over_budget(self, fano, monkeypatch):
        def no_draws(*args):
            raise AssertionError("sampled despite the budget")
        monkeypatch.setattr(covering, "substream", no_draws)
        with pytest.raises(BudgetExceededError, match="t=1020"):
            build_family_mc(fano, 2, 1e-3, seed=0, budget=1019)

    def test_rows_over_budget(self, monkeypatch):
        # on the 65-cycle a row is 2 words, so the t = 1,608 rows take
        # 3,216, more than any other account (1,640 at most), and they
        # are charged before any draw
        g = cycle_graph(65)
        assert build_family_mc(g, 2, 1e-12, seed=0, budget=3216).t == 1608

        def no_draws(*args):
            raise AssertionError("sampled despite the budget")
        monkeypatch.setattr(covering, "substream", no_draws)
        with pytest.raises(BudgetExceededError) as exc:
            build_family_mc(g, 2, 1e-12, seed=0, budget=3215)
        assert str(exc.value) == ("sampling takes 1608 rows of 2 words, "
                                  "over the budget of 3215")


class TestVerifyFamily:
    def test_all_maximal_sets_cover(self, fano):
        fam = list(enumerate_maximal_independent_sets(fano))
        assert verify_family(fano, 3, fam) == (True, None)

    def test_single_set_fails_with_witness(self, fano):
        one = [next(enumerate_maximal_independent_sets(fano))]
        ok, witness = verify_family(fano, 2, one)
        assert not ok and witness is not None
        assert is_independent(fano, witness)

    def test_empty_family_first_singleton(self, fano):
        ok, witness = verify_family(fano, 1, [])
        assert not ok and witness == 1  # vertex 0

    def test_budget_error(self, fano):
        # the 37 maximal sets cover every target, so no witness ends the
        # walk early; 65 covers their 65-word column index and the
        # 14-word sweep, not the target enumeration
        fam = list(enumerate_maximal_independent_sets(fano))
        with pytest.raises(BudgetExceededError, match="^the independent-set "
                           "walk takes at least 66 steps"):
            verify_family(fano, 5, fam, budget=65)

    @staticmethod
    def spy_walk(monkeypatch):
        """One list per call of covering.enumerate_independent_sets, of
        the targets drawn from it."""
        calls = []
        real = covering.enumerate_independent_sets

        def spy(*args, **kwargs):
            drawn = []
            calls.append(drawn)
            for target in real(*args, **kwargs):
                drawn.append(target)
                yield target
        monkeypatch.setattr(covering, "enumerate_independent_sets", spy)
        return calls

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_covered_family_draws_every_target_once(self, plane3, k,
                                                    monkeypatch):
        family = greedy_cover(plane3, k)
        calls = self.spy_walk(monkeypatch)
        assert verify_family(plane3, k, family) == (True, None)
        assert [len(drawn) for drawn in calls] == [
            count_independent_sets(plane3, k)]

    def test_uncovered_family_stops_at_the_witness(self, plane3,
                                                   monkeypatch):
        family = greedy_cover(plane3, 2)
        calls = self.spy_walk(monkeypatch)
        assert verify_family(plane3, 4, family) == (
            False, vset([0, 1, 2, 23]))
        assert len(calls) == 1 and calls[0][-1] == vset([0, 1, 2, 23])

    def test_rejects_dependent_member(self, fano):
        with pytest.raises(GraphError, match="edge"):
            verify_family(fano, 1, [fano.all_vertices])

    def test_rejects_out_of_range_member(self, fano):
        with pytest.raises(GraphError, match="outside"):
            verify_family(fano, 1, [fano.side_p, 1 << 14])

    def test_rejects_negative_member(self, fano):
        # the largest member is in range; the least is below 0
        with pytest.raises(GraphError, match="outside"):
            verify_family(fano, 1, [fano.side_p, -2])

    @pytest.mark.parametrize("k", [0, -1])
    def test_k_below_one_rejected(self, fano, k):
        # the size-<=0 target universe is empty, so any family would pass
        with pytest.raises(GraphError, match="at least 1"):
            verify_family(fano, k, [fano.side_p])


class TestGreedyCover:
    def test_edgeless_one_set(self):
        g = from_edges(5, [])
        assert greedy_cover(g, 2) == [g.all_vertices]

    def test_four_cycle_diagonals(self):
        got = sorted(greedy_cover(cycle_graph(4), 2))
        assert got == [vset([0, 2]), vset([1, 3])]

    def test_budget_covers_candidates(self, fano):
        # each of the 37 candidates held is charged two mask words (84
        # targets) plus its member count, 74 + 168 = 242 in all; the
        # targets (84 words), their walk and the 215 rows charged to the
        # Bron-Kerbosch calls take fewer steps
        for budget in (215, 241):
            with pytest.raises(BudgetExceededError,
                               match="^the greedy candidates take at least"):
                greedy_cover(fano, 2, budget=budget)
        assert len(greedy_cover(fano, 2, budget=242)) == len(
            greedy_cover(fano, 2))

    def test_budget_covers_maximal_set_enumeration(self):
        # edgeless on 6 vertices: the 6 targets take 6 steps and the one
        # candidate 1 + 6 words, but Bron-Kerbosch makes 7 calls to reach
        # it, which scan 6 + 5 + ... + 0 = 21 one-word rows
        g = from_edges(6, [])
        with pytest.raises(BudgetExceededError, match="^Bron-Kerbosch takes "
                           "at least 21 words, over the budget of 20$"):
            greedy_cover(g, 1, budget=20)
        assert greedy_cover(g, 1, budget=21) == [g.all_vertices]

    def test_fano_size_and_coverage(self, fano):
        fam = greedy_cover(fano, 2)
        assert len(fam) >= 7  # exact counting lower bound ceil(28/4)
        assert verify_family(fano, 2, fam) == (True, None)

    def test_k0_rejected(self, fano):
        with pytest.raises(GraphError, match="at least 1"):
            greedy_cover(fano, 0)

    def test_family_document(self, fano):
        fam = covering.greedy_family(fano, 2)
        assert list(fam.sets) == greedy_cover(fano, 2)
        assert (fam.k, fam.delta, fam.seed, fam.t) == (2, 0.0, 0,
                                                       len(fam.sets))
        assert (fam.degeneracy, family_to_json(fam)["p"]) == (3, "1/4")
        assert fam.graph_hash == graph_hash(fano)


class TestFamilyIO:
    @staticmethod
    def doc(g, **fields):
        return {"graph_hash": graph_hash(g), "k": 1, "delta": 0.5, "seed": 0,
                "t": 1, "d": 0, "p": "1/1", "sets": [[1, 2]], **fields}

    def test_roundtrip(self, fano):
        fam = build_family_mc(fano, 2, 1e-3, seed=11)
        again = load_family(dump_family(fam).encode(), fano)
        assert again == fam
        assert fam.graph_hash == graph_hash(fano)

    @pytest.mark.parametrize("make", [
        lambda g: build_family_mc(g, 2, 1e-3, seed=11),
        lambda g: covering.greedy_family(g, 2),
        lambda g: covering.greedy_family(g, 2)._replace(sets=()),
        lambda g: covering.greedy_family(g, 2)._replace(sets=(0,)),
        lambda g: build_family_mc(g, 1, 0.5, seed=3)._replace(
            sets=(vset([13]), 0, g.side_p))],
        ids=["sampled", "greedy", "empty-family", "empty-member", "mixed"])
    def test_dump_matches_json_encoder(self, fano, make):
        fam = make(fano)
        assert dump_family(fam) == json.dumps(
            covering.family_to_json(fam), indent=2, sort_keys=True) + "\n"

    def test_dump_matches_json_encoder_q3k4(self):
        fam = build_family_mc(gen_levi(3), 4, 1e-3, seed=0)
        assert dump_family(fam) == json.dumps(
            covering.family_to_json(fam), indent=2, sort_keys=True) + "\n"

    # sets in ints wider than a machine word: n=62 on the q=5 plane, and
    # on the edgeless graph of 130 vertices one set of all of them, its
    # singletons, and a mixed family of dense, sparse and empty sets
    @pytest.mark.parametrize("make", [
        lambda: build_family_mc(gen_levi(5), 2, 0.1, seed=2),
        lambda: build_family_mc(from_edges(130, []), 2, 0.5, seed=0),
        lambda: build_family_mc(from_edges(130, []), 2, 0.5, seed=0)._replace(
            sets=tuple(1 << v for v in range(130))),
        lambda: build_family_mc(from_edges(130, []), 2, 0.5, seed=0)._replace(
            sets=(0, (1 << 130) - 1, 0b1011 << 60, 1 << 129, 0))],
        ids=["q5-sampled", "edgeless130", "edgeless130-singletons",
             "edgeless130-mixed"])
    def test_dump_matches_json_encoder_wide(self, make):
        fam = make()
        assert dump_family(fam) == json.dumps(
            covering.family_to_json(fam), indent=2, sort_keys=True) + "\n"

    def test_dump_peak_memory_is_a_few_texts(self):
        # the rows are written straight from the bitmasks and joined once,
        # so no member lists and no spliced copy of the text are held
        rng = random.Random(1)
        sets = tuple(sum(1 << v for v in rng.sample(range(200), 12))
                     for _ in range(20000))
        fam = covering.CoveringFamily(sets=sets, k=2, delta=0.5, seed=0,
                                      t=len(sets), degeneracy=3,
                                      graph_hash="0" * 64)
        tracemalloc.start()
        try:
            text = dump_family(fam)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * len(text)

    def test_sets_serialized_ascending(self, fano):
        fam = build_family_mc(fano, 2, 1e-3, seed=11)
        text = dump_family(fam)
        doc = json.loads(text)
        for arr in doc["sets"]:
            assert arr == sorted(arr)

    def test_rejects_unsorted_set(self, fano):
        with pytest.raises(GraphError):
            family_from_json(self.doc(fano, sets=[[2, 1]]), fano)

    @pytest.mark.parametrize("bad", [{"p": "1/0"}, {"p": "a/b"},
                                     {"p": "1" * 5000 + "/1"},
                                     {"sets": {"0": [1]}}, {"k": 0},
                                     {"sets": [[-1, 2]]}, {"extra": 1}])
    def test_rejects_malformed_document(self, fano, bad):
        with pytest.raises(GraphError, match="malformed|ascending"):
            family_from_json(self.doc(fano, **bad), fano)

    @pytest.mark.parametrize("bad", [
        {"k": 4.0}, {"seed": 1e20}, {"seed": 0.0}, {"t": 1.0},
        {"delta": math.nan}, {"seed": -1}, {"d": 0.0}],
        ids=repr)
    def test_rejects_what_the_schema_types_let_through(self, fano, bad):
        with pytest.raises(GraphError, match="malformed family file"):
            family_from_json(self.doc(fano, **bad), fano)
        data = json.dumps(self.doc(fano, **bad)).encode()
        with pytest.raises(GraphError, match="malformed family file"):
            load_family(data, fano)

    def test_family_file_charged_before_it_is_parsed(self, fano,
                                                     monkeypatch):
        # a word per 8 bytes: the file itself fits its own charge, and
        # one word less is refused before json reads a byte
        data = dump_family(build_family_mc(fano, 2, 1e-3, seed=11)).encode()
        cost = -(-len(data) // 8)
        assert load_family(data, fano, budget=cost).t == 1020

        def no_parse(*args, **kwargs):
            raise AssertionError("parsed despite the budget")
        monkeypatch.setattr(json, "loads", no_parse)
        with pytest.raises(BudgetExceededError,
                           match=f"the family file takes {cost} words, "
                                 f"over the budget of {cost - 1}"):
            load_family(data, fano, budget=cost - 1)

    def test_sets_charged_before_they_are_packed(self):
        # 400 copies of the last of 10^5 vertices pack into 5 MB of masks;
        # a budget one word short of their charge refuses the 4 KB file
        # at about the memory of its parse
        g = parse_graph(b"100000 0 0\n")
        data = json.dumps(self.doc(g, sets=[[99999]] * 400)).encode()
        cost = words(100000 * 400)
        tracemalloc.start()
        try:
            with pytest.raises(BudgetExceededError,
                               match=f"the 400 family sets take {cost} "
                                     f"words, over the budget of "
                                     f"{cost - 1}"):
                load_family(data, g, budget=cost - 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20
        assert len(load_family(data, g, budget=cost).sets) == 400

    def test_rejects_non_object(self, fano):
        with pytest.raises(GraphError):
            load_family(b"[1, 2]", fano)

    def test_reads_utf8_bytes_alone(self, fano):
        # a str is a TypeError, and bytes are decoded as UTF-8 alone: a
        # UTF-16 file, which json.loads would detect and read, is refused
        data = dump_family(build_family_mc(fano, 2, 1e-3, seed=11))
        with pytest.raises(TypeError):
            load_family(data, fano)
        with pytest.raises(GraphError, match="malformed family file"):
            load_family(data.encode("utf-16"), fano)

    def test_rejects_other_graph_before_member_ranges(self, fano):
        with pytest.raises(GraphError, match="different graph"):
            family_from_json(self.doc(gen_levi(3), sets=[[25]]), fano)

    def test_rejects_member_outside_graph(self, fano):
        with pytest.raises(GraphError, match="outside the graph: 14"):
            family_from_json(self.doc(fano, sets=[[0], [3, 14]]), fano)

    @settings(max_examples=300, deadline=None)
    @given(family_documents())
    def test_member_arrays_as_the_per_array_loop(self, case):
        # the oracle's masks, or its exact message for the first bad array
        n, arrays = case
        g = from_edges(n, [])
        doc = self.doc(g, sets=arrays)
        assert (outcome(lambda: family_from_json(doc, g).sets)
                == outcome(oracle_pack, arrays, n))

    @pytest.mark.parametrize("n,arrays", [
        (2000, [[1999]]), (2000, [[0, 5], [3, 1999]]), (64, [[63]] * 3)],
        ids=["one-item", "two-arrays", "three-items"])
    def test_indices_above_the_bit_table(self, n, arrays):
        # the table covers the vertices below isqrt(128 items), so these
        # valid indices are packed by the per-array loop
        g = from_edges(n, [])
        assert (family_from_json(self.doc(g, sets=arrays), g).sets
                == oracle_pack(arrays, n))

    def test_wide_sparse_sets_as_the_shift_sum(self):
        # members far above the bit table, up to the last of 10^6 vertices:
        # the per-array loop reads each mask off its binary digits, at a
        # cost of the members plus the largest one, where the sum of their
        # bits took one 10^6-bit int per member
        n = 10 ** 6
        rng = random.Random(5)
        arrays = [[], [0], [n - 1], [0, 4096, n - 1],
                  sorted(rng.sample(range(n), 300)),
                  list(range(n - 2000, n))]
        g = from_edges(n, [])
        assert (family_from_json(self.doc(g, sets=arrays), g).sets
                == oracle_pack(arrays, n))

    def test_workload_family_packs_as_the_per_array_loop(self):
        g = gen_levi(3)
        text = dump_family(build_family_mc(g, 4, 1e-3, seed=0))
        assert (load_family(text.encode(), g).sets
                == oracle_pack(json.loads(text)["sets"], g.n))
