import itertools
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from levicover import (BudgetExceededError, GraphError, ParseError,
                       degeneracy_order, gen_levi, is_c4_free, members,
                       parse_graph, sqrt_degeneracy_bound, vset,
                       write_graph)
from levicover.graphs import Budget
from conftest import (brute_has_c4, complete_graph, cycle_graph,
                      edgeless_bipartite, from_edges, neighborhood_of_set,
                      path_graph)


def random_graphs():
    """Hypothesis strategy: small simple graphs via an edge indicator."""
    def build(n, bits):
        pairs = list(itertools.combinations(range(n), 2))
        edges = [e for e, keep in zip(pairs, bits) if keep]
        return from_edges(n, edges)
    return st.integers(1, 9).flatmap(
        lambda n: st.builds(build, st.just(n),
                            st.lists(st.booleans(), min_size=n * (n - 1) // 2,
                                     max_size=n * (n - 1) // 2)))


class TestConstruction:
    def test_symmetric_adjacency(self, fano):
        for u in range(fano.n):
            for v in members(fano.adj[u]):
                assert (fano.adj[v] >> u) & 1

    def test_rejects_negative_vertex_count(self):
        with pytest.raises(GraphError, match="vertex count must be non-neg"):
            from_edges(-1, [])

    def test_rejects_self_loop(self):
        with pytest.raises(GraphError):
            from_edges(3, [(0, 0)])

    def test_rejects_duplicate_edge(self):
        with pytest.raises(GraphError):
            from_edges(3, [(0, 1), (1, 0)])

    def test_rejects_out_of_range(self):
        with pytest.raises(GraphError):
            from_edges(2, [(0, 2)])

    def test_rejects_same_side_edge(self):
        with pytest.raises(GraphError):
            from_edges(4, [(0, 1)], side_p_size=2)

    def test_edge_count(self, fano):
        assert fano.m == sum(a.bit_count() for a in fano.adj) // 2


class TestNeighborhoodOfSet:
    # the tests' helper; check_expansion's tests in test_independence
    # check the library's own union of rows
    def test_empty_set(self, fano):
        assert neighborhood_of_set(fano, 0) == 0

    def test_disjoint_from_input(self, fano):
        s = vset([0, 3, 9])
        assert neighborhood_of_set(fano, s) & s == 0


class TestC4Free:
    def test_fano_is_c4_free(self, fano):
        assert is_c4_free(fano)

    def test_four_cycle_is_not(self):
        assert not is_c4_free(cycle_graph(4))

    def test_k22_minus_edge(self):
        g = from_edges(4, [(0, 2), (0, 3), (1, 2)])
        assert is_c4_free(g)
        assert not brute_has_c4(g)

    @settings(max_examples=60, deadline=None)
    @given(random_graphs())
    def test_agrees_with_four_tuple_scan(self, g):
        assert is_c4_free(g) == (not brute_has_c4(g))


class TestDegeneracy:
    def test_path_is_1_degenerate(self):
        assert degeneracy_order(path_graph(4)).degeneracy == 1

    def test_fano_degeneracy(self, fano):
        assert degeneracy_order(fano).degeneracy == 3

    def test_plane3_degeneracy(self, plane3):
        res = degeneracy_order(plane3)
        assert res.degeneracy == 4
        assert res.degeneracy <= sqrt_degeneracy_bound(26) == 6

    def test_order_is_permutation(self, fano):
        assert sorted(degeneracy_order(fano).order) == list(range(fano.n))

    def test_tie_break_lowest_index(self):
        # 4-cycle: everything is degree 2, so removal must start at 0
        assert degeneracy_order(cycle_graph(4)).order[0] == 0

    @settings(max_examples=60, deadline=None)
    @given(random_graphs())
    def test_forward_degree_and_suffix_witness(self, g):
        res = degeneracy_order(g)
        maxdeg = max((a.bit_count() for a in g.adj), default=0)
        assert res.degeneracy <= maxdeg
        # oracle for forward: the neighbours later in the order
        pos = {v: i for i, v in enumerate(res.order)}
        assert res.forward == tuple(
            vset(u for u in members(g.adj[v]) if pos[u] > pos[v])
            for v in range(g.n))
        assert max(f.bit_count() for f in res.forward) <= res.degeneracy
        # some removal suffix has minimum degree equal to the degeneracy
        found = False
        for i in range(g.n):
            suffix = vset(res.order[i:])
            mind = min((g.adj[v] & suffix).bit_count()
                       for v in members(suffix))
            if mind == res.degeneracy:
                found = True
                break
        assert found


class TestCanonicalFormat:
    def test_single_edge(self):
        g = parse_graph(b"2 1 0\n0 1\n")
        assert (g.n, g.m) == (2, 1)

    def test_text_is_refused(self):
        # the parser reads bytes alone: a str, ASCII or not, is a TypeError
        for text in ("2 1 0\n0 1\n", "2 1 0\n0 ٣\n"):
            with pytest.raises(TypeError):
                parse_graph(text)

    def test_fano_header(self, fano):
        assert write_graph(fano).startswith("14 21 7\n")

    def test_roundtrip_fano(self, fano):
        assert parse_graph(write_graph(fano).encode()) == fano

    def test_decoded_text_not_held_while_rows_are_built(self):
        # a file with a non-ASCII byte is decoded whole once, to check it
        # as UTF-8, and the copy is dropped at once: its peak is that of an
        # ASCII file refused at the same line, not a whole copy more ("¹"
        # keeps the str of a window at one byte a character)
        text = write_graph(gen_levi(13))
        cut = text.rindex(" ") + 1
        last_line = f"line {text.count(chr(10))}: "
        peaks = []
        for last in ("0", "¹"):
            data = (text[:cut] + last + "\n").encode()
            tracemalloc.start()
            try:
                with pytest.raises(ParseError, match=last_line):
                    parse_graph(data)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] - peaks[0] < len(text) // 2

    def test_parse_peak_under_half_of_split_lines(self):
        # the file is walked a window of lines at a time, never held as one
        # str per line, as the oracle holds it after it decodes the bytes
        from test_kernels import split_lines_parse_graph
        data = write_graph(gen_levi(37)).encode()
        peaks = []
        for parse in (split_lines_parse_graph, parse_graph):
            tracemalloc.start()
            try:
                assert parse(data).n == 2814
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] < peaks[0] / 2

    @settings(max_examples=60, deadline=None)
    @given(random_graphs())
    def test_roundtrip_random(self, g):
        assert parse_graph(write_graph(g).encode()) == g

    @pytest.mark.parametrize("text", [
        "2 1\n0 1\n",            # short header
        "x 1 0\n0 1\n",          # non-integer
        "2 1 0\n1 0\n",          # u >= v
        "3 2 0\n0 1\n0 1\n",     # duplicate edge
        "3 2 0\n0 2\n0 1\n",     # out of sort order
        "2 1 0\n0 5\n",          # endpoint out of range
        "2 1 0\n0 1",            # missing final newline
        "2 2 0\n0 1\n",          # edge count mismatch
        "4 1 2\n0 1\n",          # same-side edge under bipartite flag
        "2 1 0\n00 1\n",         # non-canonical integer
        "2 1 0\n0 +1\n",         # signed integer
        "2 1 0\n0 1 \n",         # trailing space
        "2 1 0\r\n0 1\r\n",      # CRLF line ends
        "2 -1 0\n",              # negative edge count
        "",                      # empty input
    ])
    def test_rejects_malformed(self, text):
        with pytest.raises(ParseError):
            parse_graph(text.encode())


    def test_vertex_count_charged_before_allocation(self):
        with pytest.raises(BudgetExceededError, match="5 vertices"):
            parse_graph(b"5 0 0\n", budget=4)
        assert parse_graph(b"5 0 0\n", budget=5).n == 5
        with pytest.raises(BudgetExceededError):
            parse_graph(b"1000000000000 0 0\n", budget=10 ** 7)

    @pytest.mark.parametrize("end", ["\n", ""])
    def test_long_header_read_in_bounded_memory(self, end):
        # a first line of half a million fields, with or without a newline:
        # no more than four of them are decoded
        data = ("1 " * 500_000 + end).encode()
        tracemalloc.start()
        try:
            with pytest.raises(ParseError, match="too many values"):
                parse_graph(data)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < len(data) // 8

    def test_vertex_count_charged_before_the_lines_are_read(self):
        data = b"1000000000000 0 0\n" + b"0 1\n" * 250_000
        tracemalloc.start()
        try:
            with pytest.raises(BudgetExceededError,
                               match="the graph has 1000000000000 vertices"):
                parse_graph(data, budget=10 ** 7)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < len(data) // 2


def test_sqrt_degeneracy_bound_values():
    assert sqrt_degeneracy_bound(14) == 4
    assert sqrt_degeneracy_bound(26) == 6
    assert sqrt_degeneracy_bound(16) == 4
    assert sqrt_degeneracy_bound(17) == 5


def test_edgeless_bipartite_sides():
    g = edgeless_bipartite(2, 3)
    assert g.side_p.bit_count() == 2 and g.side_l.bit_count() == 3


def test_complete_graph_degeneracy():
    assert degeneracy_order(complete_graph(5)).degeneracy == 4


def test_budget_refusal_prints_the_account_total():
    # two charges on one account: the refusal prints their sum, not the
    # last cost
    b = Budget(10, "the stage takes at least {} steps")
    b.charge(6)
    with pytest.raises(BudgetExceededError, match="^the stage takes at "
                       "least 13 steps, over the budget of 10$"):
        b.charge(7)
