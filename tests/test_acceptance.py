"""Acceptance suite: one test per exit criterion, exact tolerances.

Each test prints a single "ACCEPTANCE <id>: PASS/FAIL" line (visible with
pytest -v -s or in the captured output section on failure) and asserts
the criterion, including its wall-clock ceiling.
"""

import itertools
import math
import time
from fractions import Fraction

import numpy as np
import pytest

from levicover import (build_family_mc, count_balanced, degeneracy_order,
                       dump_family, enumerate_independent_sets,
                       enumerate_maximal_independent_sets, evaluate_bounds,
                       gen_levi, greedy_cover, is_c4_free, members,
                       parse_graph, required_samples,
                       sqrt_degeneracy_bound, substream, verify_family,
                       verify_levi_properties, vset, write_graph)
from levicover.independence import check_cover_capacity, check_expansion
from levicover.cli import main
from levicover.covering import BLOCK, _sample_block
from levicover.graphs import BudgetExceededError
from conftest import from_edges, is_independent

PRIMES = (2, 3, 5, 7, 11, 13)
REL_MARGIN = 1e-6  # slack applied when a float bound meets an exact count


class Criterion:
    def __init__(self, ident, limit_s):
        self.ident = ident
        self.limit_s = limit_s
        self.start = time.monotonic()
        self.ok = True

    def check(self, cond):
        self.ok = self.ok and bool(cond)
        assert cond

    def done(self):
        elapsed = time.monotonic() - self.start
        verdict = "PASS" if self.ok and elapsed < self.limit_s else "FAIL"
        print(f"ACCEPTANCE {self.ident}: {verdict} ({elapsed:.2f}s)")
        assert elapsed < self.limit_s


def test_01_structural_suite():
    c = Criterion("1 levi structural suite", 10)
    for q in PRIMES:
        g = gen_levi(q)
        c.check(verify_levi_properties(g, is_c4_free(g)) is True)
        c.check(is_c4_free(g))
    c.done()


def induced_subgraph(g, s):
    """The subgraph of g on the vertex set s, relabelled 0..|s|-1 in
    ascending order."""
    index = {v: i for i, v in enumerate(members(s))}
    return from_edges(len(index), [
        (index[u], index[v]) for u, v in g.edges()
        if u in index and v in index])


def test_02_degeneracy():
    c = Criterion("2 degeneracy", 5)
    for q in PRIMES:
        g = gen_levi(q)
        d = degeneracy_order(g).degeneracy
        c.check(d == q + 1)
        c.check(d <= sqrt_degeneracy_bound(g.n))
    g7 = gen_levi(7)
    rng = np.random.default_rng(2024)
    for _ in range(100):
        size = int(rng.integers(10, g7.n + 1))
        s = vset(rng.choice(g7.n, size=size, replace=False))
        sub = induced_subgraph(g7, s)
        c.check(degeneracy_order(sub).degeneracy
                <= sqrt_degeneracy_bound(sub.n))
    c.done()


def test_03_expansion():
    c = Criterion("3 expansion", 30)
    for q in (2, 3):
        g = gen_levi(q)
        for side in (g.side_p, g.side_l):
            verts = members(side)
            for size in (1, 2, 3):
                for combo in itertools.combinations(verts, size):
                    chk = check_expansion(g, vset(combo))
                    c.check(chk.holds)
                    if size == 1:
                        c.check(chk.neighborhood_size == chk.bound)
            full = check_expansion(g, side)
            c.check(full.holds and full.neighborhood_size == full.bound)
        rng = np.random.default_rng(31)
        sides = [members(g.side_p), members(g.side_l)]
        eta = len(sides[0])
        for _ in range(10 ** 4 // 2):
            verts = sides[rng.integers(2)]
            size = int(rng.integers(4, eta + 1)) if eta > 4 else eta
            s = vset(rng.choice(verts, size=size, replace=False))
            c.check(check_expansion(g, s).holds)
    c.done()


def side_product(g, s):
    """a * b for the a points and b lines of s."""
    a = (s & g.side_p).bit_count()
    return a * (s.bit_count() - a)


def test_04_product_bound():
    c = Criterion("4 side product bound", 60)
    for q in (2, 3):
        g = gen_levi(q)
        best = max(side_product(g, s)
                   for s in enumerate_maximal_independent_sets(g))
        c.check(best <= q * (q + 1) ** 2)
        if q == 2:
            # full subset brute force over all 2^14 vertex subsets
            brute = 0
            for mask in range(1, 1 << g.n):
                if is_independent(g, mask):
                    brute = max(brute, side_product(g, mask))
            c.check(brute == best == 4)
    c.done()


def test_05_balanced_counting():
    c = Criterion("5 balanced counting", 120)
    fano = gen_levi(2)
    count = count_balanced(fano, 2)
    c.check(count == 7 * 7 - 21 == 28)
    c.check(count >= Fraction(49, 16))
    g3 = gen_levi(3)
    c.check(count_balanced(g3, 2) >= Fraction(26, 8) ** 2)
    try:
        big = count_balanced(gen_levi(5), 4, budget=10 ** 7)
        c.check(big >= Fraction(62, 16) ** 4)
    except BudgetExceededError:
        c.done()
        pytest.skip("balanced count for q=5, k=4 exceeded the step budget")
    c.done()


def test_06_cover_capacity():
    c = Criterion("6 cover capacity", 60)
    k = 2
    for q in (2, 3):
        g = gen_levi(q)
        bound = 2 ** (k / 2) * g.n ** (3 * k / 4)
        for s in enumerate_maximal_independent_sets(g):
            cap = check_cover_capacity(g, s, k)
            c.check(cap <= bound * (1 + REL_MARGIN))
    c.done()


def test_07_counting_skeleton():
    c = Criterion("7 counting skeleton", 30)
    fano = gen_levi(2)
    rep = evaluate_bounds(2, 2, exact=True)
    c.check(rep.exact_cover_lower_bound == 7)
    fam = greedy_cover(fano, 2)
    c.check(len(fam) >= 7)
    c.check(verify_family(fano, 2, fam) == (True, None))
    c.check(7 >= rep.family_size_lower_bound)
    c.check(rep.family_size_lower_bound == pytest.approx(0.0292, abs=1e-4))
    c.done()


def test_08_sampler_marginals():
    c = Criterion("8 sampler marginals", 60)
    fano = gen_levi(2)
    order = degeneracy_order(fano)
    c.check(order.degeneracy == 3)  # p = 1/4
    pairs = [s for s in enumerate_independent_sets(fano, 2)
             if s.bit_count() == 2]
    c.check(len(pairs) == 70)
    # the samples of a build: blocks of BLOCK rows from one generator
    rng = substream(0)
    samples = [int.from_bytes(s, "little") for _ in range(25)
               for s in _sample_block(rng, BLOCK, 3, order.forward)]
    n_samples = len(samples)
    counts = dict.fromkeys(pairs, 0)
    for s in samples:
        c.ok = c.ok and is_independent(fano, s)
        for x in pairs:
            if x & ~s == 0:
                counts[x] += 1
    c.check(c.ok)  # every sample independent
    p_min = 3 ** 6 / 4 ** 8  # (1/4)^2 (3/4)^6
    floor = p_min - 3 * math.sqrt(p_min / n_samples)
    for x in pairs:
        c.check(counts[x] / n_samples >= floor)
    c.done()


def test_09_end_to_end_covering():
    c = Criterion("9 end-to-end covering", 120)
    c.check(required_samples(84, 3, 2, 1e-3) == 1020)
    fano = gen_levi(2)
    passes = 0
    for seed in range(20):
        fam = build_family_mc(fano, 2, 1e-3, seed=seed)
        ok, _ = verify_family(fano, 2, fam.sets)
        passes += ok
    c.check(passes >= 19)
    c.done()


def test_10_determinism_and_io(tmp_path, capsys):
    c = Criterion("10 determinism and io", 10)
    for q in PRIMES:
        g = gen_levi(q)
        c.check(parse_graph(write_graph(g).encode()) == g)
    c.check(write_graph(gen_levi(7)) == write_graph(gen_levi(7)))
    path = tmp_path / "fano.g"
    path.write_text(write_graph(gen_levi(2)))
    blobs = []
    for i in range(2):
        fam = tmp_path / f"fam{i}.json"
        code = main(["cover", "build", "--in", str(path), "--k", "2",
                     "--delta", "0.001", "--seed", "42", "--out", str(fam)])
        c.check(code == 0)
        blobs.append(fam.read_bytes())
    capsys.readouterr()
    c.check(blobs[0] == blobs[1])
    fano = gen_levi(2)
    c.check(dump_family(build_family_mc(fano, 2, 1e-3, seed=42))
            == dump_family(build_family_mc(fano, 2, 1e-3, seed=42)))
    c.done()
