import hashlib
import itertools

import pytest

from levicover import (GraphError, LeviIndexing, gen_levi, infer_q,
                       is_c4_free, is_prime, verify_levi_properties,
                       write_graph)
from levicover import levi
from conftest import from_edges


class TestPrimality:
    def test_primes(self):
        assert [p for p in range(2, 30) if is_prime(p)] == \
            [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]

    def test_infer_q(self, fano, plane3):
        assert infer_q(fano) == 2 and infer_q(plane3) == 3
        for side in (0, 4, 21, 12):  # 21 = 4^2 + 4 + 1, but 4 is not prime
            with pytest.raises(GraphError, match="prime-order plane"):
                infer_q(from_edges(2 * side, [], side_p_size=side))

    def test_non_prime_rejected(self):
        for q in (0, 1, 4, 6, 9):
            with pytest.raises(GraphError):
                gen_levi(q)


class TestIndexing:
    def test_bijection_onto_range(self):
        for q in (2, 3, 5):
            ix = LeviIndexing(q)
            seen = set()
            for x in range(q):
                for y in range(q):
                    seen.add(ix.affine_point(x, y))
            for a in range(q):
                seen.add(ix.slope_point(a))
            seen.add(ix.vertical_point())
            for a in range(q):
                for b in range(q):
                    seen.add(ix.sloped_line(a, b))
            for x in range(q):
                seen.add(ix.vertical_line(x))
            seen.add(ix.infinity_line())
            assert seen == set(range(ix.n))

    def test_points_precede_lines(self):
        ix = LeviIndexing(3)
        assert ix.vertical_point() < ix.sloped_line(0, 0)
        assert ix.infinity_line() == ix.n - 1


class TestGeneration:
    def test_fano_shape(self, fano):
        assert fano.n == 14 and fano.m == 21 and fano.side_p_size == 7

    def test_incidence_rule_example(self, plane3):
        # a*x + b = 1*2 + 2 = 4 = 1 (mod 3), so (2,1) lies on line (1,2)
        ix = LeviIndexing(3)
        p = ix.affine_point(2, 1)
        line = ix.sloped_line(1, 2)
        assert (plane3.adj[p] >> line) & 1

    @pytest.mark.parametrize("q", [2, 3, 5])
    def test_sloped_line_incidence(self, q):
        # field arithmetic mod q decides every affine incidence
        g = gen_levi(q)
        ix = LeviIndexing(q)
        for x, y, a, b in itertools.product(range(q), repeat=4):
            on = (g.adj[ix.affine_point(x, y)] >> ix.sloped_line(a, b)) & 1
            assert on == ((a * x + b) % q == y)

    def test_regularity(self, fano, plane3):
        assert all(a.bit_count() == 3 for a in fano.adj)
        assert all(a.bit_count() == 4 for a in plane3.adj)

    def test_deterministic_bytes(self):
        assert write_graph(gen_levi(3)) == write_graph(gen_levi(3))

    # SHA-256 of the canonical text of each plane, recorded before the
    # graph layer built rows directly and read them with bin().
    @pytest.mark.parametrize("q,digest", [
        (2, "5f565560452f48c1daced1adf78d89e6f8b5b7e2b87b4614b6a6b4423105eb5b"),
        (3, "c770f9c4e967b461da3f69432478bad26de1cbd9f021a8c09acaf387b936fc49"),
        (5, "fec1d643b467e85ba3171222cae23aefb860ef40e513ccfc71a2520ad9bac01e"),
        (7, "02a9084ca75c42e4474f75590a8cce14c5e50b75fe55859e0f83c3cbae377f41"),
        (37, "eb48f8f3e745b69d7c42d016f78d306279cfada333b736bcbbfdf914ea5f2680"),
    ])
    def test_pinned_canonical_bytes(self, q, digest):
        text = write_graph(gen_levi(q))
        assert hashlib.sha256(text.encode("utf-8")).hexdigest() == digest


class TestPropertyReport:
    @pytest.mark.parametrize("q", [2, 3, 5])
    def test_all_properties_hold(self, q):
        g = gen_levi(q)
        assert verify_levi_properties(g, is_c4_free(g)) is True
        assert g.n == 2 * (q * q + q + 1)

    def test_plane5_values(self):
        g = gen_levi(5)
        assert verify_levi_properties(g, is_c4_free(g)) is True
        assert g.n == 62 and {a.bit_count() for a in g.adj} == {6}

    def test_deleted_edge_breaks_degree(self, fano):
        edges = list(fano.edges())[1:]
        broken = from_edges(14, edges, side_p_size=7)
        assert is_c4_free(broken)
        assert verify_levi_properties(broken, is_c4_free(broken)) is False

    def test_wrong_side_size_raises(self):
        # 6 points fit no prime-order plane (7 is the least)
        with pytest.raises(GraphError, match="prime-order plane"):
            g = from_edges(12, [], side_p_size=6)
            verify_levi_properties(g, is_c4_free(g))

    def test_given_sweep_is_not_run_again(self, fano, monkeypatch):
        # the caller that swept g passes the result; the shape is still read
        def no_sweep(*args):
            raise AssertionError("swept again")
        monkeypatch.setattr("levicover.graphs.is_c4_free", no_sweep)
        assert not hasattr(levi, "is_c4_free")
        assert verify_levi_properties(fano, c4_free=True) is True
        assert verify_levi_properties(fano, c4_free=False) is False
        broken = from_edges(14, list(fano.edges())[1:], side_p_size=7)
        assert verify_levi_properties(broken, c4_free=True) is False

    def test_indexing_refuses_a_non_prime_order(self):
        for q in (0, 1, 4, 6):
            with pytest.raises(GraphError, match="prime"):
                LeviIndexing(q)
        assert LeviIndexing(5).q == 5


@pytest.mark.parametrize("q", [2, 3, 5])
def test_c4_freeness_and_girth(q):
    # one common neighbor per same-side pair forbids 4-cycles
    g = gen_levi(q)
    assert is_c4_free(g)
