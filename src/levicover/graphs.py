"""Immutable undirected graphs, bitmask vertex sets and independent sets.

A vertex set is a plain Python int used as a bitmask: bit v set means
vertex v is a member. Intersection/union/difference are &, |, &~ and
cardinality is ``int.bit_count()``, which keeps the enumeration cores fast
without any extra data structures.

A graph is built by levi.gen_levi or read by parse_graph from the bytes
of a canonical file, and is frozen. Every operation here is a pure
function of its arguments; none knows the projective plane.
"""

from __future__ import annotations

import math
from itertools import compress
from typing import Callable, Iterable, Iterator, NamedTuple

VertexSet = int
DEFAULT_BUDGET = 10 ** 7  # every command's --budget when none is given
_WINDOW = 1 << 16  # bytes of a graph file split into lines at once


class GraphError(ValueError):
    """Invalid graph, vertex index, or argument."""


class ParseError(GraphError):
    """Malformed canonical edge-list input."""


class BudgetExceededError(RuntimeError):
    """A computation exceeded its configured budget."""


class Budget:
    """Step counter with an int limit. This is the only code that raises
    BudgetExceededError. ``why`` names the stage the account pays for: a
    charge that runs it out raises "<why>, over the budget of <limit>",
    with a ``{}`` in ``why`` standing for the total charged so far. That
    total is printed here, and only on refusal, because one too large to
    build may be too large for Python to print too.

    Memory and the work that grows with it are charged in 64-bit machine
    words (see ``words``): a stage that builds or walks one n-bit int per
    vertex is charged its rows before it starts, on a budget of its own.
    """

    def __init__(self, limit: int, why: str):
        self.limit = limit
        self.left = limit
        self.why = why

    def charge(self, cost: int = 1):
        """Take ``cost`` steps."""
        self.left -= cost
        if self.left < 0:
            raise BudgetExceededError(
                f"{self.why.format(_decimal(self.limit - self.left))}, "
                f"over the budget of {self.limit}")


def charge_rows(budget: int, rows: int, n: int, what: str):
    """Charge ``rows`` n-bit ints at words(n) each, on an account of their
    own, for the stage ``what``."""
    Budget(budget, f"{what} takes {rows} rows of {words(n)} words").charge(
        rows * words(n))


def _decimal(n: int) -> str:
    """n in decimal, or "2^<e> or more" when it has more digits than
    Python will print (sys.get_int_max_str_digits)."""
    try:
        return str(n)
    except ValueError:
        return f"2^{n.bit_length() - 1} or more"


def words(bits: int) -> int:
    """ceil(bits / 64), the machine words of a bits-wide int: the unit in
    which a budget charges memory."""
    return -(-bits // 64)


def vset(vertices: Iterable[int]) -> VertexSet:
    mask = 0
    for v in vertices:
        mask |= 1 << int(v)
    return mask


def iter_members(s: VertexSet) -> Iterator[int]:
    while s:
        low = s & -s
        yield low.bit_length() - 1
        s ^= low


def members(s: VertexSet) -> list[int]:
    """Ascending list of vertex indices in the set."""
    return list(iter_members(s))


def _members_above(row: VertexSet, u: int) -> list[int]:
    """Ascending list of the members of ``row`` above u (all of them when
    u is -1), read off one bin(row) by scans for "1" from its low end: a
    sparse n-bit row costs a few C scans, not the three n-bit operations
    per member of iter_members."""
    s = bin(row)
    top = len(s) - 1  # the index of bit 0
    out = []
    j = s.rfind("1", 2, max(top - u, 0))
    while j > 0:
        out.append(top - j)
        j = s.rfind("1", 2, j)
    return out


def _index_of(n: int, tokens: int) -> Callable[[str, int], int]:
    """``index(token, default)``: the vertex below n whose decimal name is
    exactly ``token``, else default. When n is at most the ``tokens`` to
    be read, this is a lookup in a table of every name, built once, which
    stays within a constant factor of the text; otherwise int and str
    per token."""
    if n <= tokens:
        return dict(zip(map(str, range(n)), range(n))).get

    def index(token: str, default: int) -> int:
        try:
            v = int(token)
        except ValueError:
            return default
        return v if 0 <= v < n and str(v) == token else default
    return index


class Graph(NamedTuple):
    """Undirected simple graph; ``adj[v]`` is the neighbor bitmask of v.

    ``side_p_size`` > 0 flags the graph bipartite with side P occupying
    indices 0..side_p_size-1 and side L the rest; every edge then
    crosses the bipartition, as parse_graph checks and gen_levi builds.
    """

    n: int
    m: int
    adj: tuple[int, ...]
    side_p_size: int = 0

    @property
    def all_vertices(self) -> VertexSet:
        return (1 << self.n) - 1

    @property
    def side_p(self) -> VertexSet:
        return (1 << self.side_p_size) - 1

    @property
    def side_l(self) -> VertexSet:
        return self.all_vertices & ~self.side_p

    def edges(self) -> Iterator[tuple[int, int]]:
        """Edges as (u, v) with u < v, in lexicographic order. Only the
        non-empty rows are visited, of side P alone when it is flagged."""
        for u in compress(range(self.side_p_size or self.n), self.adj):
            for v in _members_above(self.adj[u], u):
                yield u, v


class DegeneracyResult(NamedTuple):
    """Min-degree elimination order, the resulting degeneracy, and each
    vertex's forward neighbourhood: ``forward[v]`` is the set of v's
    neighbours removed after v."""

    order: tuple[int, ...]
    degeneracy: int
    forward: tuple[VertexSet, ...]


def is_c4_free(g: Graph, budget: int = DEFAULT_BUDGET) -> bool:
    """True iff no two distinct vertices share two or more neighbors.

    For each u, the rows of u's neighbours are ORed into ``seen``, which
    starts as u's bit: a row that meets ``seen`` in another vertex names
    one that shares two neighbours with u. That is O(n + m) operations,
    and the first C4 found ends the sweep. On a graph flagged bipartite
    only the vertices of side P are swept: every edge crosses the
    bipartition, so a C4 has two vertices on each side, and the sweep
    from the first of its P vertices finds it. Its n rows are charged
    against ``budget`` first.
    """
    charge_rows(budget, g.n, g.n, "the codegree sweep")
    adj = g.adj
    for u in range(g.side_p_size or g.n):
        seen = bit = 1 << u
        for w in _members_above(adj[u], -1):
            row = adj[w]
            if seen & row != bit:
                return False
            seen |= row
    return True


def degeneracy_order(g: Graph,
                     budget: int = DEFAULT_BUDGET) -> DegeneracyResult:
    """Repeated minimum-degree removal; ties broken by lowest index.

    The degeneracy is the maximum over removal steps of the degree of the
    removed vertex at removal time. A bucket queue (Matula and Beck,
    JACM 1983) holds the remaining vertices of each current degree as a
    bitmask; a removal moves each remaining neighbour down one bucket, so
    the lowest non-empty bucket drops by at most one per step. The
    neighbours still remaining when v is removed are v's ``forward`` set.
    Its n rows are charged against ``budget`` first.
    """
    charge_rows(budget, g.n, g.n, "the degeneracy order")
    deg = [a.bit_count() for a in g.adj]
    buckets = [0] * (max(deg, default=0) + 1)
    for v, d in enumerate(deg):
        buckets[d] |= 1 << v
    remaining = g.all_vertices
    order = []
    forward = [0] * g.n
    degeneracy = low = 0
    for _ in range(g.n):
        while not buckets[low]:
            low += 1
        bit = buckets[low] & -buckets[low]
        v = bit.bit_length() - 1
        buckets[low] ^= bit
        remaining ^= bit
        order.append(v)
        degeneracy = max(degeneracy, low)
        forward[v] = g.adj[v] & remaining
        for w in iter_members(forward[v]):
            d = deg[w]
            buckets[d] ^= 1 << w
            buckets[d - 1] |= 1 << w
            deg[w] = d - 1
        low = max(low - 1, 0)
    return DegeneracyResult(order=tuple(order), degeneracy=degeneracy,
                            forward=tuple(forward))


def enumerate_independent_sets(g: Graph, k: int,
                               budget: int = DEFAULT_BUDGET
                               ) -> Iterator[VertexSet]:
    """Yield every independent set of size 1..k exactly once.

    Emission order is lexicographic on the sorted member lists, i.e. a
    depth-first walk that extends by increasing vertex index. The n-bit
    sets of the first level are charged against ``budget`` before the
    walk, which then takes one step per vertex it tries. The walk keeps
    one vertex iterator per level on an explicit stack, so its depth is
    bounded by k, not by Python's recursion limit.
    """
    if k < 0:
        raise GraphError("size limit must be non-negative")
    if k < 1:
        return
    charge_rows(budget, g.n, g.n, "the independent-set sweep")
    b = Budget(budget, "the independent-set walk takes at least {} steps")
    adj, n = g.adj, g.n
    masks, tries = [0], [iter(range(n))]
    while tries:
        mask = masks[-1]
        for v in tries[-1]:
            b.charge()
            if adj[v] & mask:
                continue
            new = mask | (1 << v)
            yield new
            if len(tries) < k:
                masks.append(new)
                tries.append(iter(range(v + 1, n)))
                break
        else:
            masks.pop()
            tries.pop()


def count_independent_sets(g: Graph, k: int,
                           budget: int = DEFAULT_BUDGET) -> int:
    return sum(1 for _ in enumerate_independent_sets(g, k, budget))


def enumerate_maximal_independent_sets(g: Graph,
                                       budget: int = DEFAULT_BUDGET
                                       ) -> Iterator[VertexSet]:
    """Yield every inclusion-maximal independent set exactly once.

    Bron-Kerbosch with pivoting on the complement graph (independent sets
    of g are cliques of its complement), started at R and X empty and
    P = every vertex. The n complement rows are charged against
    ``budget`` before they are built. Each call scans P ∪ X for its
    pivot, one n-bit popcount per vertex, and is charged |P ∪ X| rows
    of words(n) before the scan. A call that branches pushes [R, P, X,
    the candidates left] on an explicit stack, so the depth is bounded
    by the largest independent set, not by Python's recursion limit.
    """
    charge_rows(budget, g.n, g.n, "the complement graph")
    b = Budget(budget, "Bron-Kerbosch takes at least {} words")
    row = words(g.n)
    full = g.all_vertices
    comp = tuple(full & ~g.adj[v] & ~(1 << v) for v in range(g.n))
    r, p, x = 0, full, 0
    stack = []
    while True:
        b.charge((p | x).bit_count() * row)
        if p | x:
            pivot, best = -1, -1
            for u in iter_members(p | x):
                score = (p & comp[u]).bit_count()
                if score > best:
                    pivot, best = u, score
            stack.append([r, p, x, p & ~comp[pivot]])
        else:
            yield r
        while stack and not stack[-1][3]:
            stack.pop()
        if not stack:
            return
        top = stack[-1]
        r, p, x, cands = top
        low = cands & -cands
        top[1:] = p & ~low, x | low, cands ^ low
        nb = comp[low.bit_length() - 1]
        r, p, x = r | low, p & nb, x & nb


def parse_graph(data: bytes, budget: int = DEFAULT_BUDGET) -> Graph:
    """Parse the canonical edge-list format: the bytes are accepted iff
    they equal write_graph of the graph they describe, encoded.

    A file with a byte outside ASCII is first checked whole as UTF-8, and
    the decoded copy dropped at once, so that an invalid file is refused
    with its offset before any other error. The header's vertex count is
    then charged against ``budget``, then, on a budget of its own, the
    rows the edges fill: two per edge line, at most n. Both come before
    any memory that grows with the file, as the edge count is read off
    the newlines and the header off at most the first four
    space-separated fields before the first. The edge lines are then
    split and checked one window at a time, about _WINDOW bytes cut at a
    newline, with no second serialisation: the header must be
    "n m side" in decimal with 0 <= side <= n and m edge lines after it,
    each edge line must be the decimal names "u v" of an edge with
    u < v < n, crossing the bipartition when side > 0, in strictly
    ascending order, and the file must end in one newline. Those are
    exactly the texts write_graph prints. The header fields and the
    windows are decoded as UTF-8: a cut at a space or after a newline
    never splits a character.
    """
    if not data.isascii():
        try:
            str(data, "utf-8")
        except UnicodeDecodeError as exc:
            raise ParseError(f"not valid UTF-8: {exc}") from exc
    m = data.count(b"\n") - 1
    end = data.find(b"\n")
    stop = end if end >= 0 else len(data)
    # three fields make a header and a fourth refutes it, so no more are
    # decoded, whatever the length of the first line
    fields, start = [], 0
    while start <= stop and len(fields) < 4:
        cut = data.find(b" ", start, stop)
        cut = stop if cut < 0 else cut
        fields.append(str(data[start:cut], "utf-8"))
        start = cut + 1
    try:
        n, _, side = map(int, fields)
    except ValueError as exc:
        raise ParseError(f"malformed header: {exc}") from exc
    header = " ".join(fields)
    Budget(budget, f"the graph has {n} vertices").charge(n)
    charge_rows(budget, min(2 * m, n), n, "the adjacency")
    if not (0 <= side <= n and header == f"{n} {m} {side}"
            and data.endswith(b"\n")):
        raise ParseError(f"header {header[:80]!r} is not 'n m side' for "
                         f"the {m} edge lines after it and one final "
                         "newline")
    index = _index_of(n, 2 * m)
    adj = [0] * n
    last = -1
    number = 1  # the number of the last line read
    while end + 1 < len(data):
        start = end + 1
        end = data.rfind(b"\n", start, start + _WINDOW)
        if end < 0:  # one line longer than the window
            end = data.find(b"\n", start + _WINDOW)
        for number, line in enumerate(str(data[start:end], "utf-8")
                                      .split("\n"), number + 1):
            first, _, second = line.partition(" ")
            u, v = index(first, -1), index(second, -1)
            if not (0 <= u < v and u * n + v > last
                    and (u < side <= v or not side)):
                raise ParseError(f"line {number}: {line[:80]!r} is not the "
                                 "next edge of the canonical text (see "
                                 "write_graph)")
            last = u * n + v
            adj[u] |= 1 << v
            adj[v] |= 1 << u
    return Graph(n=n, m=m, adj=tuple(adj), side_p_size=side)


class _Names(dict):
    """Each vertex's decimal name, filled in on first use."""

    def __missing__(self, v: int) -> str:
        text = self[v] = str(v)
        return text


def write_graph(g: Graph) -> str:
    """Canonical edge-list text: round-trips bit-exactly through parse.
    The header "n m side", then each edge "u v" of Graph.edges, its
    vertices named by one _Names table, each line ended by a newline."""
    name = _Names().__getitem__
    out = [f"{g.n} {g.m} {g.side_p_size}"]
    for u in compress(range(g.side_p_size or g.n), g.adj):
        later = _members_above(g.adj[u], u)
        if later:
            head = name(u) + " "
            out.append(head + ("\n" + head).join(map(name, later)))
    return "\n".join(out) + "\n"


def graph_hash(g: Graph) -> str:
    """Hex digest identifying a graph by its canonical bytes."""
    import hashlib  # here, as it maps OpenSSL, which only cover needs
    return hashlib.sha256(write_graph(g).encode("utf-8")).hexdigest()


def sqrt_degeneracy_bound(n: int) -> int:
    """ceil(sqrt(n)), the degeneracy guarantee for C4-free graphs."""
    return math.isqrt(n - 1) + 1 if n > 0 else 0
