import itertools
from typing import Iterable

import pytest
from hypothesis import strategies as st

from levicover import Graph, GraphError, gen_levi, members


def from_edges(n: int, edges: Iterable[tuple[int, int]],
               side_p_size: int = 0) -> Graph:
    """The graph on n vertices with the given edges, each checked: no
    self-loop, no endpoint out of range, no edge twice, and every edge
    across the bipartition when side_p_size > 0, else GraphError. The
    tests build their graphs with it, and the round-trip and rule-by-rule
    parser oracles of test_kernels validate with it."""
    if n < 0:
        raise GraphError("vertex count must be non-negative")
    if side_p_size < 0 or side_p_size > n:
        raise GraphError("side_p_size out of range")
    adj = [0] * n
    m = 0
    for u, v in edges:
        if u == v:
            raise GraphError(f"self-loop at vertex {u}")
        if not (0 <= u < n and 0 <= v < n):
            raise GraphError(f"edge endpoint out of range: ({u}, {v})")
        if adj[u] >> v & 1:
            raise GraphError(f"duplicate edge ({min(u, v)}, {max(u, v)})")
        if side_p_size > 0 and (u < side_p_size) == (v < side_p_size):
            raise GraphError(
                f"edge ({u}, {v}) does not cross the bipartition")
        adj[u] |= 1 << v
        adj[v] |= 1 << u
        m += 1
    return Graph(n=n, m=m, adj=tuple(adj), side_p_size=side_p_size)


def is_independent(g: Graph, s: int) -> bool:
    """True iff no two members of the vertex set s are adjacent."""
    return not any(g.adj[v] & s for v in members(s))


def neighborhood_of_set(g: Graph, s: int) -> int:
    """Union of the neighborhoods of the members of s, minus s itself."""
    out = 0
    for v in members(s):
        out |= g.adj[v]
    return out & ~s


@pytest.fixture(scope="session")
def fano():
    return gen_levi(2)


@pytest.fixture(scope="session")
def plane3():
    return gen_levi(3)


def brute_independent_sets(g: Graph, k: int) -> list[int]:
    """Oracle: all independent sets of size 1..k by subset scan."""
    out = []
    for size in range(1, k + 1):
        for combo in itertools.combinations(range(g.n), size):
            mask = 0
            ok = True
            for v in combo:
                if g.adj[v] & mask:
                    ok = False
                    break
                mask |= 1 << v
            if ok:
                out.append(mask)
    return out


def brute_has_c4(g: Graph) -> bool:
    """Oracle: scan vertex 4-tuples for a cycle u-x-v-y-u."""
    for u, x, v, y in itertools.permutations(range(g.n), 4):
        if ((g.adj[u] >> x) & 1 and (g.adj[x] >> v) & 1
                and (g.adj[v] >> y) & 1 and (g.adj[y] >> u) & 1):
            return True
    return False


def path_graph(n: int) -> Graph:
    return from_edges(n, [(i, i + 1) for i in range(n - 1)])


def cycle_graph(n: int) -> Graph:
    edges = [(i, i + 1) for i in range(n - 1)] + [(0, n - 1)]
    return from_edges(n, edges)


def complete_graph(n: int) -> Graph:
    return from_edges(n, list(itertools.combinations(range(n), 2)))


def edgeless_bipartite(a: int, b: int) -> Graph:
    return from_edges(a + b, [], side_p_size=a)


@st.composite
def small_graphs(draw):
    """Hypothesis strategy: graphs on 0..9 vertices with random edges."""
    n = draw(st.integers(0, 9))
    pairs = list(itertools.combinations(range(n), 2))
    bits = draw(st.lists(st.booleans(), min_size=len(pairs),
                         max_size=len(pairs)))
    return from_edges(n, [e for e, on in zip(pairs, bits) if on])
