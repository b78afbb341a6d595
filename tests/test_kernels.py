"""Differential tests for the kernels behind ``verify`` and ``cover``.

The bucket-queue degeneracy order, the seen-twice C4 sweep and the
integer expansion test replaced a linear rescan, a loop over vertex
pairs and one ``check_expansion`` call per set. The parser that walks
the text a window of lines at a time replaced one that split the whole
text into lines first, which had replaced one that built the graph with
``from_edges`` and compared ``write_graph`` of it with the text,
and before it one that checked each rule of the canonical format in
turn; the split-lines parser is the oracle for every message as well
as every verdict. The column index read from binary digits replaced a numpy
transpose. Those paths stay here as the oracles, and every result must
match them exactly: the whole elimination order, the C4 verdict, the
full check tuple, the parser's verdict and graph, and every column. The
edge walk that skips empty rows and reads each row off its binary digits
keeps the walk over every row as its oracle; the C4 sweep over side P
of a bipartite graph keeps the sweep over every vertex; the plane built
row by row keeps the one built from its edge list; and the plane test
from degrees and C4-freeness keeps the rule it replaced: each side's
degrees and its pairwise codegree range. The expansion oracle draws its
sets by the check's stream contract, and a digest of one draw is pinned.
The codegree sweep that tallies the expansion check's pairs keeps the
loop that ORs every pair of rows as its oracle, and the balanced count at
k=4, which reads the same tally, keeps one binomial per point pair. The
draws written out over getrandbits keep random.sample: the same sets from
the same calls.
"""

import hashlib
import itertools
import math
import random
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from levicover import (BudgetExceededError, DegeneracyResult, Graph,
                       GraphError, LeviIndexing, ParseError, degeneracy_order,
                       gen_levi, infer_q, is_c4_free, iter_members, members,
                       parse_graph, plane_size, verify_levi_properties, vset,
                       write_graph)
from levicover import graphs, independence
from levicover.covering import _columns
from levicover.graphs import DEFAULT_BUDGET, Budget, _index_of, charge_rows
from levicover.independence import (_pair_unions, _sampled_unions,
                                    _verify_expansion, check_expansion,
                                    count_balanced)
from conftest import from_edges, neighborhood_of_set
from test_graphs import random_graphs


def scan_degeneracy_order(g: Graph) -> DegeneracyResult:
    """Oracle: rescan every remaining vertex at each removal."""
    remaining = g.all_vertices
    order = []
    forward = [0] * g.n
    d = 0
    while remaining:
        best = -1
        best_deg = g.n + 1
        for v in iter_members(remaining):
            deg = (g.adj[v] & remaining).bit_count()
            if deg < best_deg:
                best, best_deg = v, deg
        order.append(best)
        d = max(d, best_deg)
        remaining &= ~(1 << best)
        forward[best] = g.adj[best] & remaining
    return DegeneracyResult(order=tuple(order), degeneracy=d,
                            forward=tuple(forward))


def all_rows_edges(g: Graph) -> list[tuple[int, int]]:
    """Oracle: the edges (u, v), u < v, from a walk over every row."""
    return [(u, u + 1 + v) for u in range(g.n)
            for v in iter_members(g.adj[u] >> (u + 1))]


def every_vertex_c4_free(g: Graph) -> bool:
    """Oracle: the seen-twice sweep from every vertex, side flag or not."""
    for u in range(g.n):
        seen = 0
        for w in iter_members(g.adj[u]):
            row = g.adj[w] >> (u + 1)
            if seen & row:
                return False
            seen |= row
    return True


def pairwise_c4_free(g: Graph) -> bool:
    """Oracle: no pair of vertices shares two neighbours."""
    for u in range(g.n):
        for v in range(u + 1, g.n):
            if (g.adj[u] & g.adj[v]).bit_count() >= 2:
                return False
    return True


def pairwise_common_range(g: Graph, lo: int, hi: int) -> tuple[int, int]:
    """Oracle: min and max common-neighbour count over pairs in [lo, hi)."""
    cmin, cmax = g.n, 0
    for u in range(lo, hi):
        for v in range(u + 1, hi):
            c = (g.adj[u] & g.adj[v]).bit_count()
            cmin, cmax = min(cmin, c), max(cmax, c)
    return cmin, cmax


def pairwise_levi_rule(g: Graph, q: int) -> bool:
    """Oracle: both sides have q^2 + q + 1 vertices of degree q + 1, and
    each side's codegree range is (1, 1)."""
    s = plane_size(q)
    return g.n == 2 * s and all(
        all(g.adj[v].bit_count() == q + 1 for v in range(lo, hi))
        and pairwise_common_range(g, lo, hi) == (1, 1)
        for lo, hi in ((0, s), (s, g.n)))


def expansion_draws(g: Graph, samples: int, seed: int,
                    make_rng=random.Random) -> list[int]:
    """The random sets of the expansion check, drawn by its contract:
    from make_rng(seed), the side (randrange(2), 0 for P), then the
    size (randint(1, |side|)), then the members (sample(side, size))."""
    sides = (members(g.side_p), members(g.side_l))
    rng = make_rng(seed)
    drawn = []
    for _ in range(samples):
        verts = sides[rng.randrange(2)]
        size = rng.randint(1, len(verts))
        drawn.append(vset(rng.sample(verts, size)))
    return drawn


def pair_loop(g: Graph, side: int, threshold: int) -> int:
    """Oracle: the pairs x < y of ``side`` with |N(x) | N(y)| below
    ``threshold``, one OR per pair."""
    rows = [g.adj[v] for v in members(side)]
    return sum((x | y).bit_count() < threshold
               for i, x in enumerate(rows) for y in rows[i + 1:])


class CountingRandom(random.Random):
    """random.Random that counts its getrandbits calls."""
    calls = 0

    def getrandbits(self, k):
        CountingRandom.calls += 1
        return super().getrandbits(k)


def expansion_by_check(g: Graph, samples: int, seed: int):
    """Oracle: check_expansion applied set by set, with the same draws."""
    sides = (members(g.side_p), members(g.side_l))
    fixed = [s for verts in sides
             for s in itertools.chain(
                 (1 << v for v in verts),
                 ((1 << x) | (1 << y)
                  for x, y in itertools.combinations(verts, 2)))]
    total = violations = 0
    for s in fixed + expansion_draws(g, samples, seed):
        total += 1
        violations += not check_expansion(g, s).holds
    return 0, violations, violations == 0, float(total - violations)


_INT = re.compile(r"^(0|[1-9][0-9]*)$")


def _parse_int(token: str, what: str) -> int:
    if not _INT.match(token):
        raise ParseError(f"malformed {what}: {token!r}")
    return int(token)


def rule_by_rule_parse_graph(data: bytes | str) -> Graph:
    """Oracle: parse the canonical format by checking each of its rules."""
    if isinstance(data, (bytes, bytearray)):
        try:
            text = bytes(data).decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ParseError(f"not valid UTF-8: {exc}") from exc
    else:
        text = data
    if not text.endswith("\n"):
        raise ParseError("missing final newline")
    lines = text.split("\n")[:-1]
    if not lines:
        raise ParseError("empty input")
    header = lines[0].split(" ")
    if len(header) != 3:
        raise ParseError(f"malformed header: {lines[0]!r}")
    n = _parse_int(header[0], "vertex count")
    m = _parse_int(header[1], "edge count")
    side = _parse_int(header[2], "side_p_size")
    if len(lines) - 1 != m:
        raise ParseError(f"expected {m} edge lines, got {len(lines) - 1}")
    edges = []
    prev = None
    for line in lines[1:]:
        parts = line.split(" ")
        if len(parts) != 2:
            raise ParseError(f"malformed edge line: {line!r}")
        u = _parse_int(parts[0], "edge endpoint")
        v = _parse_int(parts[1], "edge endpoint")
        if u >= v:
            raise ParseError(f"edge ({u}, {v}) violates u < v")
        if v >= n:
            raise ParseError(f"edge endpoint out of range: ({u}, {v})")
        if prev is not None and (u, v) <= prev:
            if (u, v) == prev:
                raise ParseError(f"duplicate edge ({u}, {v})")
            raise ParseError(f"edge ({u}, {v}) out of sort order")
        prev = (u, v)
        edges.append((u, v))
    try:
        return from_edges(n, edges, side_p_size=side)
    except GraphError as exc:
        raise ParseError(str(exc)) from exc


def round_trip_parse_graph(data: bytes | str) -> Graph:
    """Oracle: build the graph with from_edges, then accept the text iff
    write_graph gives it back."""
    if isinstance(data, (bytes, bytearray)):
        try:
            text = bytes(data).decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ParseError(f"not valid UTF-8: {exc}") from exc
    else:
        text = data
    lines = text.split("\n")
    try:
        n, _, side = map(int, lines[0].split(" "))
        g = from_edges(n, (map(int, line.split(" "))
                           for line in lines[1:-1]), side_p_size=side)
    except ValueError as exc:
        raise ParseError(f"malformed graph: {exc}") from exc
    if write_graph(g) != text:
        raise ParseError("not the canonical text of the graph it describes")
    return g


def split_lines_parse_graph(data: bytes | str,
                            budget: int = DEFAULT_BUDGET) -> Graph:
    """Oracle: the parser that split the whole text into lines first, then
    charged and checked them; its verdicts and messages are the format's."""
    if isinstance(data, (bytes, bytearray)):
        try:
            text = bytes(data).decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ParseError(f"not valid UTF-8: {exc}") from exc
    else:
        text = data
    lines = text.split("\n")
    del text  # a decoded copy of the file, not held while the rows are built
    m = len(lines) - 2
    try:
        n, _, side = map(int, lines[0].split(" "))
    except ValueError as exc:
        raise ParseError(f"malformed header: {exc}") from exc
    Budget(budget, f"the graph has {n} vertices").charge(n)
    charge_rows(budget, min(2 * m, n), n, "the adjacency")
    if not (0 <= side <= n and lines[0] == f"{n} {m} {side}"
            and lines[-1] == ""):
        raise ParseError(f"header {lines[0][:80]!r} is not 'n m side' for "
                         f"the {m} edge lines after it and one final "
                         "newline")
    index = _index_of(n, 2 * m)
    adj = [0] * n
    last = -1
    for i in range(1, m + 1):
        first, _, second = lines[i].partition(" ")
        u, v = index(first, -1), index(second, -1)
        if not (0 <= u < v and u * n + v > last
                and (u < side <= v or not side)):
            raise ParseError(f"line {i + 1}: {lines[i][:80]!r} is not the "
                             "next edge of the canonical text (see "
                             "write_graph)")
        last = u * n + v
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    return Graph(n=n, m=m, adj=tuple(adj), side_p_size=side)


PARSERS = (parse_graph, round_trip_parse_graph, rule_by_rule_parse_graph,
           split_lines_parse_graph)


def edge_list_gen_levi(q: int) -> Graph:
    """Oracle: the plane of order q from its edge list, each incidence
    placed by LeviIndexing and checked by from_edges."""
    ix = LeviIndexing(q)
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
    return from_edges(ix.n, edges, side_p_size=ix.side_size)


def numpy_columns(sets, n: int) -> list[int]:
    """Oracle: the column index as a numpy transpose of the sets' bits."""
    nbytes = (n + 7) // 8
    raw = np.frombuffer(b"".join(s.to_bytes(nbytes, "little") for s in sets),
                        dtype=np.uint8).reshape(len(sets), nbytes)
    bits = np.unpackbits(raw, axis=1, count=n, bitorder="little")
    cols = np.packbits(bits.T, axis=1, bitorder="little")
    return [int.from_bytes(row.tobytes(), "little") for row in cols]


def without_edge(g: Graph, index: int) -> Graph:
    edges = list(g.edges())
    del edges[index]
    return from_edges(g.n, edges, side_p_size=g.side_p_size)


def bipartite_graphs(side: int):
    """Hypothesis strategy: bipartite graphs with two sides of ``side``."""
    pairs = [(u, side + v) for u in range(side) for v in range(side)]

    def build(bits):
        return from_edges(2 * side,
                          [e for e, keep in zip(pairs, bits) if keep],
                          side_p_size=side)
    return st.builds(build, st.lists(st.booleans(), min_size=len(pairs),
                                     max_size=len(pairs)))


def seeded_graph(n: int, density: float, seed: int,
                 side_p_size: int = 0) -> Graph:
    rng = np.random.default_rng(seed)
    if side_p_size:
        pairs = [(u, v) for u in range(side_p_size)
                 for v in range(side_p_size, n)]
    else:
        pairs = list(itertools.combinations(range(n), 2))
    keep = rng.random(len(pairs)) < density
    return from_edges(n, [e for e, k in zip(pairs, keep) if k],
                      side_p_size=side_p_size)


PLANES = {f"q{q}{cut}": (gen_levi(q) if cut == "" else
                         without_edge(gen_levi(q), 0 if cut == "-first"
                                      else -1))
          for q in (2, 3, 5, 7) for cut in ("", "-first", "-last")}
# irregular degrees for the pair sweep: few and many degree classes, and
# levels up to the largest degree
IRREGULAR = {**{f"bip{side}-p{p}-s{s}": seeded_graph(2 * side, p, s,
                                                     side_p_size=side)
                for side, p, s in [(13, 0.3, 1), (13, 0.7, 2), (31, 0.15, 3),
                                   (31, 0.6, 4)]},
             **{f"n{n}-p{p}-s{s}": seeded_graph(n, p, s)
                for n, p, s in [(30, 0.2, 5), (60, 0.1, 6), (60, 0.5, 7)]},
             "q5-first": without_edge(gen_levi(5), 0)}
DENSE = {f"n{n}-p{p}-s{s}": seeded_graph(n, p, s)
         for n, p, s in [(40, 0.05, 1), (40, 0.2, 2), (40, 0.5, 3),
                         (60, 0.1, 4), (60, 0.9, 5), (1, 0.5, 6)]}


def threshold_graph(n: int, seed: int) -> Graph:
    """Each vertex after the first joins every earlier vertex, or none,
    by a fair coin: degrees spread over many classes."""
    rng = random.Random(seed)
    return from_edges(n, [(u, v) for v in range(1, n) if rng.random() < 0.5
                          for u in range(v)])


# neighbours in classes far apart: a removed leaf's one neighbour, the
# centre, sits hundreds of classes above the lowest bucket
FAR_CLASSES = {"star300": from_edges(300, [(0, v) for v in range(1, 300)]),
               "threshold600": threshold_graph(600, 0),
               "threshold90": threshold_graph(90, 1)}


class TestDegeneracyOrder:
    @settings(max_examples=200, deadline=None)
    @given(random_graphs())
    def test_random_graphs(self, g):
        assert degeneracy_order(g) == scan_degeneracy_order(g)

    @pytest.mark.parametrize("name", sorted(PLANES) + sorted(DENSE))
    def test_planes_and_seeded_graphs(self, name):
        g = PLANES.get(name) or DENSE[name]
        assert degeneracy_order(g) == scan_degeneracy_order(g)

    @pytest.mark.parametrize("name", sorted(FAR_CLASSES))
    def test_neighbours_in_far_classes(self, name):
        g = FAR_CLASSES[name]
        assert degeneracy_order(g) == scan_degeneracy_order(g)

    def test_empty_graph(self):
        assert degeneracy_order(from_edges(0, [])) == \
            DegeneracyResult(order=(), degeneracy=0, forward=())


class TestEdges:
    @settings(max_examples=200, deadline=None)
    @given(random_graphs())
    def test_random_graphs(self, g):
        assert list(g.edges()) == all_rows_edges(g)

    @pytest.mark.parametrize("name", sorted(PLANES) + sorted(DENSE))
    def test_planes_and_seeded_graphs(self, name):
        g = PLANES.get(name) or DENSE[name]
        assert list(g.edges()) == all_rows_edges(g)

    def test_sparse_wide_graph(self):
        g = from_edges(10 ** 5, [(5, 99999), (0, 7), (7, 99998)])
        assert list(g.edges()) == all_rows_edges(g) == [
            (0, 7), (5, 99999), (7, 99998)]


class TestCodegree:
    @settings(max_examples=200, deadline=None)
    @given(random_graphs())
    def test_c4_free_random_graphs(self, g):
        assert is_c4_free(g) == pairwise_c4_free(g)

    @pytest.mark.parametrize("name", sorted(PLANES) + sorted(DENSE))
    def test_planes_and_seeded_graphs(self, name):
        g = PLANES.get(name) or DENSE[name]
        assert is_c4_free(g) == pairwise_c4_free(g) == \
            every_vertex_c4_free(g)

    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 5).flatmap(bipartite_graphs))
    def test_side_p_sweep_on_bipartite_graphs(self, g):
        assert is_c4_free(g) == every_vertex_c4_free(g)

    @settings(max_examples=200, deadline=None)
    @given(random_graphs())
    def test_every_vertex_swept_without_a_side_flag(self, g):
        assert is_c4_free(g) == every_vertex_c4_free(g)

    @pytest.mark.parametrize("q", [2, 3, 5, 7])
    def test_plane_plus_one_incidence(self, q):
        # p and a point of the new line share a line of the plane, so each
        # added incidence closes a C4
        g = gen_levi(q)
        s = g.side_p_size
        for p in (0, q, s - 1):
            line = next(v for v in range(s, g.n) if not g.adj[p] >> v & 1)
            h = from_edges(g.n, sorted({*g.edges(), (p, line)}),
                           side_p_size=s)
            assert is_c4_free(h) is every_vertex_c4_free(h) is False


class TestGenLevi:
    @pytest.mark.parametrize("q", [2, 3, 5, 7, 11, 13, 37])
    def test_rows_match_the_edge_list(self, q):
        assert gen_levi(q) == edge_list_gen_levi(q)


@st.composite
def perturbed_planes(draw):
    """Hypothesis strategy: (q, g) for the plane of order 2, 3 or 5 after
    up to four edits, each a degree-preserving switch of two edges, a
    deleted edge, an added point-line edge or an added line vertex."""
    q = draw(st.sampled_from([2, 3, 5]))
    s = plane_size(q)
    n = 2 * s
    edges = set(gen_levi(q).edges())
    for _ in range(draw(st.integers(0, 4))):
        kind = draw(st.sampled_from(["switch", "delete", "add", "vertex"]))
        ordered = sorted(edges)
        if kind == "switch":
            (p1, l1), (p2, l2) = (draw(st.sampled_from(ordered)),
                                  draw(st.sampled_from(ordered)))
            if len({p1, p2}) == len({l1, l2}) == 2 and not \
                    {(p1, l2), (p2, l1)} & edges:
                edges -= {(p1, l1), (p2, l2)}
                edges |= {(p1, l2), (p2, l1)}
        elif kind == "delete":
            edges.discard(draw(st.sampled_from(ordered)))
        elif kind == "add":
            edges.add((draw(st.integers(0, s - 1)),
                       draw(st.integers(s, n - 1))))
        else:
            n += 1
    return q, from_edges(n, sorted(edges), side_p_size=s)


class TestLeviProperties:
    @settings(max_examples=300, deadline=None)
    @given(perturbed_planes())
    def test_perturbed_planes(self, qg):
        q, g = qg
        assert (verify_levi_properties(g, is_c4_free(g))
                == pairwise_levi_rule(g, q))

    @pytest.mark.parametrize("name", sorted(PLANES))
    def test_planes_and_cut_planes(self, name):
        g = PLANES[name]
        assert (verify_levi_properties(g, is_c4_free(g))
                == pairwise_levi_rule(g, infer_q(g)))


class TestExpansion:
    @pytest.mark.parametrize("name", sorted(PLANES))
    @pytest.mark.parametrize("seed", [0, 1])
    def test_planes(self, name, seed):
        g = PLANES[name]
        samples = 300 if g.n < 100 else 60
        assert _verify_expansion(g, samples=samples, seed=seed,
                                 budget=DEFAULT_BUDGET) == \
            expansion_by_check(g, samples, seed)

    @settings(max_examples=60, deadline=None)
    @given(bipartite_graphs(7), st.integers(0, 40), st.integers(0, 2 ** 32))
    def test_random_bipartite(self, g, samples, seed):
        assert _verify_expansion(g, samples=samples, seed=seed,
                                 budget=DEFAULT_BUDGET) == \
            expansion_by_check(g, samples, seed)

    @pytest.mark.parametrize("q,density", [(3, 0.3), (5, 0.15), (7, 0.1)])
    def test_violations_at_plane_size(self, q, density):
        side = q * q + q + 1
        g = seeded_graph(2 * side, density, q, side_p_size=side)
        got = _verify_expansion(g, samples=200, seed=q, budget=DEFAULT_BUDGET)
        assert got[1] > 0 and not got[2]
        assert got == expansion_by_check(g, 200, q)

    # the sides of the planes of order 2, 3 and 23, and the side sizes 21
    # and 85 at which sample's pool gives way to its set of picked indices
    @pytest.mark.parametrize("side,samples,seed", [
        (7, 300, 0), (13, 300, 5), (21, 300, 2), (85, 300, 3), (553, 200, 1)])
    def test_written_out_draws_are_samples(self, side, samples, seed):
        # the draws read the sides alone, so an edgeless graph serves, and
        # the rows 1 << v make each union the drawn set itself
        g = from_edges(2 * side, [], side_p_size=side)
        sides = [[1 << v for v in members(s)] for s in (g.side_p, g.side_l)]
        drawn = list(_sampled_unions(sides, samples, seed))
        assert [s for _, s in drawn] == expansion_draws(g, samples, seed)
        assert all(size == s.bit_count() for size, s in drawn)
        if side == 553:
            # a side of 553 draws a set of up to 85 members by rejection
            # against the picked ones, and a larger one from a pool
            sizes = [size for size, _ in drawn]
            assert min(sizes) <= 85 < max(sizes)

    def test_written_out_draws_make_the_same_calls(self, monkeypatch):
        g = gen_levi(23)
        CountingRandom.calls = 0
        expansion_draws(g, 1000, 0, make_rng=CountingRandom)
        by_sample = CountingRandom.calls
        CountingRandom.calls = 0
        monkeypatch.setattr(random, "Random", CountingRandom)
        sides = [[1 << v for v in members(s)] for s in (g.side_p, g.side_l)]
        for _ in _sampled_unions(sides, 1000, 0):
            pass
        assert CountingRandom.calls == by_sample == 391_419

    @pytest.mark.parametrize("name", sorted(IRREGULAR))
    def test_pair_sweep_every_threshold(self, name):
        g = IRREGULAR[name]
        sides = ((g.side_p, g.side_l) if g.side_p_size
                 else (g.all_vertices,))
        for side in sides:
            tally = _pair_unions(g, side)
            for threshold in range(g.n + 2):
                assert sum(tally[:threshold]) == \
                    pair_loop(g, side, threshold)

    @settings(max_examples=60, deadline=None)
    @given(random_graphs(), st.integers(0, 10))
    def test_pair_sweep_random_graphs(self, g, threshold):
        assert sum(_pair_unions(g, g.all_vertices)[:threshold]) == \
            pair_loop(g, g.all_vertices, threshold)

    def test_pinned_draws(self):
        # On a plane no set violates the bound, so the reports cannot tell
        # two draw orders apart; the drawn sets themselves are pinned.
        drawn = expansion_draws(gen_levi(3), 50, 7)
        digest = hashlib.sha256(
            "\n".join(map(str, drawn)).encode()).hexdigest()
        assert digest == ("3fee14e113113034ade36505531a2e35"
                          "4b5faed3bb90940d631652b6f2ea7123")


def balanced_by_subset(g: Graph, k: int) -> int:
    """Oracle: one binomial per point subset of k/2 members."""
    half, lines = k // 2, g.n - g.side_p_size
    return sum(math.comb(lines - neighborhood_of_set(g, vset(combo))
                         .bit_count(), half)
               for combo in itertools.combinations(range(g.side_p_size),
                                                   half))


# dense bipartite graphs of many degree classes and high codegrees: each
# x but the last takes the pair ORs, on the larger sides after a level
# or more has counted the points that share few lines with it
DENSE_BIPARTITE = {f"bip{side}-p{p}-s{s}": seeded_graph(2 * side, p, s,
                                                        side_p_size=side)
                   for side, p, s in [(13, 0.9, 9), (31, 0.5, 10),
                                      (120, 0.5, 13), (150, 0.3, 15)]}


class TestBalancedTally:
    """count_balanced at k=4 reads the codegree sweep's tally; the sum of
    one binomial per point pair stays its oracle."""

    def test_plane_of_order_37(self):
        # every two points share one line: C(s, 2) C(s - 2q - 1, 2)
        s = plane_size(37)
        # C(1407, 2) pairs of 22 words are over the default budget; CI
        # passes the same 3 * 10^7
        count = count_balanced(gen_levi(37), 4, 30_000_000)
        assert count == 876_802_353_966 == \
            math.comb(s, 2) * math.comb(s - 2 * 37 - 1, 2)

    def test_plane_of_order_37_over_the_default_budget(self):
        # the CLI's --budget default is the library's: C(1407, 2) pairs of
        # 22 words each are refused before the sweep
        with pytest.raises(BudgetExceededError, match="^the balanced count "
                           "takes at least 21760662 words, over the budget "
                           "of 10000000$"):
            count_balanced(gen_levi(37), 4)

    @settings(max_examples=60, deadline=None)
    @given(perturbed_planes())
    def test_perturbed_planes(self, qg):
        _, g = qg
        assert count_balanced(g, 4) == balanced_by_subset(g, 4)

    @pytest.mark.parametrize("name", sorted(DENSE_BIPARTITE))
    def test_dense_bipartite_with_the_or_fallback(self, name, monkeypatch):
        g = DENSE_BIPARTITE[name]
        calls = []

        def counted(row, u):
            calls.append(row)
            return graphs._members_above(row, u)
        monkeypatch.setattr(independence, "_members_above", counted)
        assert count_balanced(g, 4) == balanced_by_subset(g, 4)
        # one call per point reads its neighbours; each call past those
        # reads the later points that one x ORs its row with
        assert len(calls) == 2 * g.side_p_size - 1

    @settings(max_examples=100, deadline=None)
    @given(bipartite_graphs(6))
    def test_random_bipartite(self, g):
        assert count_balanced(g, 4) == balanced_by_subset(g, 4)


def verdict(parse, data):
    """The graph parse returns for data, or None when it is rejected."""
    try:
        return parse(data)
    except ParseError:
        return None


def outcome(parse, data):
    """The graph parse returns for data, or the type and text of the
    ParseError it raises."""
    try:
        return parse(data)
    except ParseError as exc:
        return type(exc), str(exc)


def swapped_line_at(text: str, at: int) -> str:
    """text with the edge line "u v" that holds position ``at`` written as
    "v u", which no canonical text holds."""
    lo = text.rfind("\n", 0, at) + 1
    hi = text.index("\n", at)
    u, v = text[lo:hi].split(" ")
    return f"{text[:lo]}{v} {u}{text[hi:]}"


# Tokens that write_graph never prints; int() reads all but "x" as a
# number.
ODD_TOKENS = ["01", "+1", "-0", "1_0", "٣", "３", "\t1", "1\r", " 1", "1 ",
              "x"]


@st.composite
def mutated_texts(draw):
    """Canonical texts of small graphs, some bipartite, and of the plane of
    order 7, after zero to three edits of their lines, header fields or
    characters."""
    g = draw(st.one_of(random_graphs(), bipartite_graphs(3),
                       st.just(PLANES["q7"])))
    lines = write_graph(g).split("\n")
    small = st.one_of(st.integers(-1, 12).map(str),
                      st.integers(0, g.n + 1).map(str))
    for _ in range(draw(st.integers(0, 3))):
        edit = draw(st.sampled_from(["drop", "drop-edge", "duplicate",
                                     "swap", "edge", "header", "token",
                                     "insert", "replace", "delete"]))
        i = draw(st.integers(0, len(lines) - 1))
        j = draw(st.integers(0, len(lines) - 1))
        if edit == "drop" and len(lines) > 1:
            del lines[i]
        elif edit == "drop-edge" and 0 < i < len(lines) - 1:
            # keeps the header's edge count in step, so the text can stay
            # canonical
            del lines[i]
            head = lines[0].split(" ")
            if len(head) == 3 and head[1].isdigit():
                head[1] = str(int(head[1]) - 1)
                lines[0] = " ".join(head)
        elif edit == "duplicate":
            lines.insert(j, lines[i])
        elif edit == "swap":
            lines[i], lines[j] = lines[j], lines[i]
        elif edit == "edge":
            lines[i] = draw(small) + " " + draw(small)
        elif edit in ("header", "token"):
            # "header" edits a header field, "token" a field of any line
            at = 0 if edit == "header" else i
            fields = lines[at].split(" ")
            fields[j % len(fields)] = draw(st.one_of(
                small, st.sampled_from(ODD_TOKENS)))
            lines[at] = " ".join(fields)
        else:
            text = "\n".join(lines)
            at = draw(st.integers(0, len(text)))
            char = draw(st.sampled_from("0123456789 \n-+x\r\t_٣３"))
            text = (text[:at] + char + text[at:] if edit == "insert" else
                    text[:at] + char + text[at + 1:] if edit == "replace"
                    else text[:at] + text[at + 1:])
            lines = text.split("\n")
    return "\n".join(lines)


class TestParser:
    @settings(max_examples=500, deadline=None)
    @given(mutated_texts())
    def test_mutated_canonical_texts(self, text):
        data = text.encode()
        assert verdict(parse_graph, data) == \
            verdict(round_trip_parse_graph, data) == \
            verdict(rule_by_rule_parse_graph, data)

    @pytest.mark.parametrize("token", ODD_TOKENS + [""])
    @pytest.mark.parametrize("field", range(5))
    def test_every_odd_token_in_every_field(self, token, field):
        # "2 1 0\n0 1\n" with one of its five fields replaced
        fields = ["2", "1", "0", "0", "1"]
        fields[field] = token
        text = " ".join(fields[:3]) + "\n" + " ".join(fields[3:]) + "\n"
        for parse in PARSERS:
            assert verdict(parse, text.encode()) is None

    @pytest.mark.parametrize("name", sorted(PLANES) + sorted(DENSE))
    def test_planes_and_seeded_graphs(self, name):
        g = PLANES.get(name) or DENSE[name]
        data = write_graph(g).encode()
        assert parse_graph(data) == round_trip_parse_graph(data) == \
            rule_by_rule_parse_graph(data) == g

    def test_sparse_wide_graph(self):
        # n is far above the names in the text, so names are read one by one
        g = from_edges(10 ** 5, [(5, 99999), (0, 7), (7, 99998)])
        data = write_graph(g).encode()
        assert data == b"100000 3 0\n0 7\n5 99999\n7 99998\n"
        assert parse_graph(data) == round_trip_parse_graph(data) == g
        for bad in ("100000 1 0\n0 0100\n", "100000 1 0\n0 100000\n",
                    "100000 1 0\n0 ٣\n"):
            for parse in PARSERS:
                assert verdict(parse, bad.encode()) is None

    def test_invalid_utf8(self):
        for parse in PARSERS:
            with pytest.raises(ParseError, match="UTF-8"):
                parse(b"2 1 0\n0 \xff\n")

    @pytest.mark.parametrize("window", [1, 2, 7, 64])
    @settings(max_examples=150, deadline=None)
    @given(text=mutated_texts())
    def test_every_window_edge_keeps_the_message(self, window, text):
        # a window of a few characters puts every line on a window's edge
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(graphs, "_WINDOW", window)
            data = text.encode()
            assert outcome(parse_graph, data) == \
                outcome(split_lines_parse_graph, data)

    @pytest.mark.parametrize("count", range(7))
    def test_every_header_field_keeps_the_message(self, count):
        # a header of count fields, all good, then each one bad in turn:
        # not a number, empty, negative, or over the 4,300 digits that
        # int() reads (Python 3.11 on); the budget stops a 5,000-digit
        # vertex count where int() reads it
        good = ["2", "1", "0", "0", "1", "9"][:count]
        cases = [good] + [good[:i] + [bad] + good[i + 1:]
                          for i in range(count)
                          for bad in ("x", "", "-1", "9" * 5000)]
        for fields in cases:
            head = " ".join(fields)
            for text in (head + "\n0 1\n", head):
                got = []
                for parse in (parse_graph, split_lines_parse_graph):
                    try:
                        got.append(outcome(lambda d: parse(d, 10 ** 6),
                                           text.encode()))
                    except BudgetExceededError as exc:
                        got.append(str(exc))
                assert got[0] == got[1]

    def test_one_empty_edge_line(self):
        got = outcome(parse_graph, b"2 1 0\n\n")
        assert got == outcome(split_lines_parse_graph, b"2 1 0\n\n")
        assert got == (ParseError, "line 2: '' is not the next edge of the "
                       "canonical text (see write_graph)")

    def test_plane_lines_at_window_edges(self):
        text = write_graph(gen_levi(37))
        start = text.index("\n") + 1
        cut = text.rfind("\n", start, start + graphs._WINDOW)
        assert 0 < cut < len(text) - 1  # the file takes more than a window
        # the last line of the first window, the first of the second, and
        # the last line of the file
        for at in (cut - 1, cut + 1, len(text) - 2):
            bad = swapped_line_at(text, at).encode()
            number = text.count("\n", 0, at) + 1
            got = outcome(parse_graph, bad)
            assert got == outcome(split_lines_parse_graph, bad)
            assert got[0] is ParseError
            assert got[1].startswith(f"line {number}: ")

    def test_invalid_utf8_wins_over_an_earlier_bad_line(self):
        data = swapped_line_at(write_graph(gen_levi(37)), 20).encode()
        at = len(data) - 3
        data = data[:at] + b"\xff" + data[at + 1:]
        got = outcome(parse_graph, data)
        assert got == outcome(split_lines_parse_graph, data)
        assert got[0] is ParseError
        assert got[1].startswith("not valid UTF-8: ")
        assert f"in position {at}:" in got[1]


# Widths around the byte boundaries of the numpy packing and a 64-bit word.
WIDTHS = [0, 1, 7, 63, 64, 65, 114, 200]


class TestColumns:
    @settings(max_examples=300, deadline=None)
    @given(st.sampled_from(WIDTHS).flatmap(lambda n: st.tuples(
        st.just(n), st.lists(st.integers(0, (1 << n) - 1), max_size=150))))
    def test_random_families(self, case):
        n, sets = case
        assert _columns(sets, n, DEFAULT_BUDGET) == numpy_columns(sets, n)

    @pytest.mark.parametrize("n", WIDTHS)
    def test_edge_families(self, n):
        full = (1 << n) - 1
        for sets in ([], [0], [full], [0, full, 0], [full] * 130):
            assert _columns(sets, n, DEFAULT_BUDGET) == numpy_columns(sets, n)

    @pytest.mark.parametrize("n", WIDTHS)
    def test_seeded_families(self, n):
        rng = np.random.default_rng(n)
        bits = rng.random((1000, n)) < 0.3
        sets = [sum(1 << v for v in np.flatnonzero(row).tolist())
                for row in bits]
        assert _columns(sets, n, DEFAULT_BUDGET) == numpy_columns(sets, n)
