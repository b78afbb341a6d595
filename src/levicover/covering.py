"""Seeded Monte Carlo construction of k-independence covering families.

A k-independence covering family of a graph is a family of independent
sets such that every independent set of size at most k is contained in
some member. The builder samples independent sets through the degeneracy
order: mark each vertex with probability p = 1/(d+1), keep a marked
vertex iff none of its forward neighbors (later in the order) is marked.
Any fixed independent set X with |X| <= k then survives a sample with
probability at least p^k (1-p)^(kd), and a union bound over the target
sets gives the number of samples needed for failure probability delta.

Randomness: a build draws from one ``random.Random(seed)``, BLOCK
samples at a time. A block of rows samples on n vertices has rows n
lanes, lane v rows + r being vertex v of sample r. Bit-planes of random
lane digits are drawn until no lane's numeral ties with p, or PLANES of
them, and a lane is marked iff its numeral of m digits, the first plane
the top one, is below floor(2^m p). ``sample_independent_set`` draws
a block of one row.

A block turns its pruned planes into rows of ceil(n/8) little-endian
bytes, so that a build deduplicates on bytes and builds an int only for
each distinct row.

Coverage and greedy cover run on a column index: bit j of column v is set
iff set j contains v, so the sets containing a target are the AND of its
members' columns. The index is built from the sets' binary digits with
ints and strings alone.
"""

from __future__ import annotations

import json
import math
import operator
from itertools import chain, repeat
from typing import NamedTuple, Optional, Sequence

from .graphs import (DEFAULT_BUDGET, Budget, BudgetExceededError,
                     DegeneracyResult, Graph, GraphError, VertexSet,
                     _Names, charge_rows, count_independent_sets,
                     degeneracy_order, enumerate_independent_sets,
                     enumerate_maximal_independent_sets, graph_hash,
                     iter_members, members, words)

BLOCK = 4096  # samples marked per run of bit-planes
PLANES = 64  # a lane still tied with p after this many planes is unmarked


class CoveringFamily(NamedTuple):
    """Ordered independent sets plus the parameters that produced them."""

    sets: tuple[VertexSet, ...]
    k: int
    delta: float
    seed: int
    t: int
    degeneracy: int
    graph_hash: str


def _p_text(d: int) -> str:
    """The marking probability 1/(d+1) as a family file writes it."""
    return f"1/{d + 1}"


# Not exported by the package; perfbench/tracer.py wraps it by name.
def sample_independent_set(g: Graph, order: DegeneracyResult,
                           rng) -> VertexSet:
    """Draw one independent set of g, a block of one row: mark with
    probability 1/(d+1), d = order.degeneracy, keep a marked vertex iff
    no forward neighbor is marked.
    """
    return int.from_bytes(
        _sample_block(rng, 1, order.degeneracy, order.forward)[0], "little")


def substream(seed: int):
    import random  # here, as no other cover command draws
    return random.Random(seed)


def _marks(rng, lanes: int, d: int) -> int:
    """Bit l set iff lane l is marked with probability 1/(d+1).

    Each plane is one more digit of every lane's numeral. ``below`` holds
    the lanes whose numeral is below floor(2^m/(d+1)), whose digits come
    by long division of 1 by d+1, and ``tied`` those equal to it while
    rem > 0."""
    full = (1 << lanes) - 1
    rem = 1 % (d + 1)
    below, tied = (0, full) if rem else (full, 0)
    for _ in range(PLANES):
        if not (tied and rem):
            break
        plane = rng.getrandbits(lanes)
        rem *= 2
        if rem > d:
            rem -= d + 1
            below |= tied & ~plane
            tied &= plane
        else:
            tied &= ~plane
    return below


def _columns(sets: Sequence[VertexSet], n: int, budget: int) -> list[int]:
    """Column index of ``cover verify`` and ``cover greedy``: bit j of
    entry v is set iff sets[j] contains v.

    Each set, all below 2^n, is written as n binary digits, last set
    first, so the digits of vertex v, every n-th from position n-1-v, read
    as one binary numeral with the bit of sets[0] last. Those n |sets|
    one-byte digits are charged against ``budget`` first.
    """
    Budget(budget, f"the column index of {len(sets)} sets takes {{}} "
                   "words").charge(words(8 * n * len(sets)))
    top = 1 << n
    digits = "".join([bin(s | top)[3:] for s in reversed(sets)])
    return [int(digits[n - 1 - v::n] or "0", 2) for v in range(n)]


def _sample_block(rng, rows: int, d: int,
                  forward: Sequence[VertexSet]) -> tuple[bytes, ...]:
    """``rows`` samples, each as ceil(n/8) bytes in which bit i of byte j
    is vertex 8j + i, so that int.from_bytes(row, "little") is its
    bitmask.

    The marked lanes' binary digits, last lane first, are reversed into
    one ASCII byte per lane, so vertex v's rows, bytes v rows up to (v+1)
    rows, read as one little-endian int with row r's bit in the low bit
    of byte r. That int is pruned by its forward neighbors' and masked to
    those low bits; the ints of vertices 8j ... 8j+7, shifted by 0 ... 7,
    make byte j of every row at once, written to every width-th byte of
    the rows.
    """
    import struct  # here, so that only cover build loads _struct
    lanes = rows * len(forward)
    digits = bin(_marks(rng, lanes, d) | 1 << lanes)[:2:-1].encode()
    planes = [int.from_bytes(digits[i:i + rows], "little")
              for i in range(0, lanes, rows)]
    del digits  # n * rows bytes, not held while the rows are built
    n = len(forward)
    width = (n + 7) // 8
    ones = int.from_bytes(b"\x01" * rows, "little")
    packed = bytearray(rows * width)
    for j in range(width):
        byte = 0
        for v in range(8 * j, min(8 * j + 8, n)):
            plane = planes[v]
            for w in iter_members(forward[v]):
                plane &= ~planes[w]
            byte |= (plane & ones) << v % 8
        packed[j::width] = byte.to_bytes(rows, "little")
    return struct.unpack(f"{width}s" * rows, packed)


def required_samples(universe_size: int, d: int, k: int,
                     delta: float) -> int:
    """Samples needed so every target set is hit with probability >= 1-delta.

    A target of at most k vertices survives one sample with probability
    at least p_min = d^(kd) / (d+1)^(k(d+1)), p^k (1-p)^(kd) at
    p = 1/(d+1). Union bound:
    t = ceil(ln(universe/delta) (d+1)^(k(d+1)) / d^(kd)), with the
    logarithm taken of the int universe and the rest in ints, so neither a
    huge universe nor a tiny p_min overflows a float.
    """
    if universe_size < 1:
        raise GraphError("universe size must be at least 1")
    if k < 1 or d < 0:
        raise GraphError("k must be at least 1 and d non-negative")
    num, den = _log_targets(math.log(universe_size), delta).as_integer_ratio()
    return -(-num * (d + 1) ** (k * (d + 1)) // (den * d ** (k * d)))


def _log_targets(log_universe: float, delta: float) -> float:
    """ln(universe / delta), the union bound's numerator, from
    log_universe = ln(universe)."""
    if not (0 < delta < 1):
        raise GraphError("delta must be in (0, 1)")
    return log_universe - math.log(delta)


def _samples_floor(log_universe: float, d: int, k: int,
                   delta: float) -> int:
    """The float lower bound on required_samples(universe, d, k, delta),
    for a universe of at least one target with ln(universe) =
    log_universe.

    log2 t is at least log2 ln(universe/delta) + k log2(d+1)
    + k d log2(1 + 1/d). With x that sum less a relative 10^-12 for
    rounding, the bound is 2^x rounded up in its top 53 bits. x is capped
    at 2^24, so the int stays within 2 MB; no budget the command line can
    read (4,300 digits at most) reaches 2^(2^24).
    """
    per_set = math.log2(d + 1) + (d * math.log1p(1 / d) / math.log(2)
                                  if d else 0.0)
    x = math.log2(_log_targets(log_universe, delta)) + k * per_set
    x = min(x - 1e-12 * max(abs(x), 1.0), 2 ** 24)
    shift = max(math.floor(x) - 52, 0)
    return math.ceil(2 ** (x - shift)) << shift


def build_family_mc(g: Graph, k: int, delta: float, seed: int,
                    budget: int = DEFAULT_BUDGET
                    ) -> CoveringFamily:
    """Build a covering family by seeded sampling, a pure function of
    (g, k, delta, seed) and of whether the count below fits ``budget``.

    The union-bound universe is the exact count of independent sets of
    size <= k when it is enumerable within the budget, else n^k, which
    can raise t. A sample count t above the budget is refused before any
    draw, and so are the t rows of words(n) words that the build holds,
    on their own account; t is refused before the count and the int
    powers of d and d+1 when a float lower bound on t at n targets (every
    vertex is a target on its own, so that t is a lower bound too) is
    already over it; the same float bound at n^k targets is charged
    before n^k is built. The t samples come from one
    ``random.Random(seed)``, BLOCK rows at a time (see the module
    docstring), and duplicates keep their first occurrence: rows are
    deduplicated as their bytes, and only the distinct ones become ints.
    A negative seed, which Random would read as its absolute value, is
    refused.
    """
    if k < 1:
        raise GraphError("k must be at least 1")
    if seed < 0:
        raise GraphError("seed must be non-negative")
    order = degeneracy_order(g, budget)
    d = order.degeneracy
    Budget(budget, "sampling needs t>={} samples").charge(
        _samples_floor(math.log(max(g.n, 1)), d, k, delta))
    try:
        universe = max(count_independent_sets(g, k, budget), 1)
    except BudgetExceededError:
        Budget(budget, "sampling needs t>={} samples").charge(
            _samples_floor(k * math.log(g.n), d, k, delta))
        universe = g.n ** k
    t = required_samples(universe, d, k, delta)
    Budget(budget, "sampling needs t={} samples").charge(t)
    charge_rows(budget, t, g.n, "sampling")
    rng = substream(seed)
    seen: dict[bytes, None] = {}
    for start in range(0, t, BLOCK):
        rows = _sample_block(rng, min(BLOCK, t - start), d, order.forward)
        seen.update(zip(rows, repeat(None)))
    seen.pop(bytes((g.n + 7) // 8), None)
    sets = tuple(map(int.from_bytes, seen, repeat("little")))
    return CoveringFamily(sets=sets, k=k, delta=delta, seed=seed,
                          t=t, degeneracy=d, graph_hash=graph_hash(g))


def verify_family(g: Graph, k: int, sets: Sequence[VertexSet],
                  budget: int = DEFAULT_BUDGET
                  ) -> tuple[bool, Optional[VertexSet]]:
    """Exact coverage check; returns the first uncovered set on failure.

    Every member must be an independent set of g and k at least 1, else
    GraphError. The column index is charged against ``budget`` before it
    is built. The coverage walk is the target enumeration,
    enumerate_independent_sets(g, k, budget), drawn once with its
    charges: n rows, then one step per vertex tried. It is
    lexicographic, so a target of j members comes right after its prefix
    of j - 1, and held[j - 1] still holds the prefix's holders, the sets
    that contain it: a target costs one AND with its last vertex's
    column, and the first target with none is the witness,
    lexicographically first. The at most min(k, n) prefixes held are no
    larger than the n columns.
    """
    if k < 1:
        raise GraphError("k must be at least 1")
    sets = list(sets)
    if sets and (min(sets) < 0 or max(sets) >> g.n):
        raise GraphError("family member has a vertex outside the graph")
    cols = _columns(sets, g.n, budget)
    for u, v in g.edges():
        if cols[u] & cols[v]:
            raise GraphError(f"family member contains the edge ({u}, {v})")
    held = [-1] * (min(k, g.n) + 1)
    for target in enumerate_independent_sets(g, k, budget):
        j = target.bit_count()
        inside = held[j] = held[j - 1] & cols[target.bit_length() - 1]
        if not inside:
            return False, target
    return True, None


def greedy_cover(g: Graph, k: int,
                 budget: int = DEFAULT_BUDGET) -> list[VertexSet]:
    """Greedy set cover of the size-<=k independent sets by maximal ones.

    Ties go to the lexicographically smallest candidate (by sorted member
    list). Gains are evaluated lazily (Minoux's accelerated greedy), with
    the picks of a scan of every gain in every round. Useful as an
    upper-bound oracle against the exact counting lower bound. Target
    sets are bits of a universe-wide mask: a candidate holds the targets
    with no member outside it. Each target held is charged its n-bit set,
    ceil(n / 64) words, as it streams in, and each candidate held its
    mask words, ceil(#targets / 64), plus its member count, each on its
    own account.
    """
    if k < 1:
        raise GraphError("k must be at least 1")
    targets = Budget(budget, "the greedy targets take at least {} words")
    universe = []
    for z in enumerate_independent_sets(g, k, budget):
        targets.charge(words(g.n))
        universe.append(z)
    held = Budget(budget, "the greedy candidates take at least {} words")
    mask_words = words(len(universe))
    candidates = []
    for c in enumerate_maximal_independent_sets(g, budget=budget):
        held.charge(mask_words + c.bit_count())
        candidates.append(c)
    candidates.sort(key=members)
    cols = _columns(universe, g.n, budget)
    uncovered = (1 << len(universe)) - 1
    contained = []
    for c in candidates:
        outside = 0
        for v in iter_members(g.all_vertices & ~c):
            outside |= cols[v]
        contained.append(uncovered & ~outside)
    import heapq  # here, so that only the greedy cover loads _heapq
    # Gains only fall as targets are covered, so the heap's stale gains
    # bound the fresh ones from above: a popped candidate whose fresh
    # (-gain, index) still sorts first is the one an eager scan of all
    # gains would pick, ties to the lower index included.
    heap = [(-inside.bit_count(), i) for i, inside in enumerate(contained)]
    heapq.heapify(heap)
    chosen: list[VertexSet] = []
    while uncovered:
        _, i = heapq.heappop(heap)
        key = (-(contained[i] & uncovered).bit_count(), i)
        if heap and key > heap[0]:
            heapq.heappush(heap, key)
            continue
        chosen.append(candidates[i])
        uncovered &= ~contained[i]
    return chosen


def greedy_family(g: Graph, k: int,
                  budget: int = DEFAULT_BUDGET) -> CoveringFamily:
    """greedy_cover as a family document: delta 0, seed 0, t the number
    of sets, and the degeneracy of g, from which the sampler's marking
    probability follows."""
    sets = greedy_cover(g, k, budget=budget)
    d = degeneracy_order(g, budget).degeneracy
    return CoveringFamily(sets=tuple(sets), k=k, delta=0.0, seed=0,
                          t=len(sets), degeneracy=d, graph_hash=graph_hash(g))


def family_to_json(fam: CoveringFamily) -> dict:
    return {
        "graph_hash": fam.graph_hash,
        "k": fam.k,
        "delta": fam.delta,
        "seed": fam.seed,
        "t": fam.t,
        "d": fam.degeneracy,
        "p": _p_text(fam.degeneracy),
        "sets": [members(s) for s in fam.sets],
    }


def family_from_json(doc: dict, g: Graph) -> CoveringFamily:
    """Parse a family document built for g; malformed input, a family for
    another graph or a member vertex outside g raises GraphError.

    Everything but the member arrays is checked against FAMILY_SCHEMA by
    schemas.validate, p must be exactly "1/<d+1>", k, seed, t and d must
    be ints, not integral floats, and delta must be finite. The arrays
    are checked as they are packed, by _pack_sets, not by a schema walk
    item by item, which would dominate the load time of a large family.
    """
    # Imported here, so that only the commands that read a family file
    # load the schemas and their checker.
    from . import schemas
    sets = doc.get("sets") if isinstance(doc, dict) else None
    try:
        schemas.validate(dict(doc, sets=[]) if isinstance(sets, list)
                         else doc, schemas.FAMILY_SCHEMA)
    except schemas.SchemaError as exc:
        raise GraphError(f"malformed family file: {exc}") from exc
    try:
        p_ok = doc["p"] == _p_text(doc["d"])
    except ValueError:  # d + 1 has more digits than Python will print
        p_ok = False
    if not p_ok:
        raise GraphError("malformed family file: p is not 1/(d+1)")
    # Draft 2020-12 lets an integral float through as an integer, and NaN
    # through both bounds of delta
    if not (all(type(doc[key]) is int for key in ("k", "seed", "t", "d"))
            and math.isfinite(doc["delta"])):
        raise GraphError("malformed family file: k, seed, t and d must be "
                         "integers and delta finite")
    if doc["graph_hash"] != graph_hash(g):
        raise GraphError("family file was built for a different graph "
                         f"(hash {doc['graph_hash'][:12]}...)")
    return CoveringFamily(
        sets=tuple(_pack_sets(sets, g.n)), k=doc["k"], delta=doc["delta"],
        seed=doc["seed"], t=doc["t"], degeneracy=doc["d"],
        graph_hash=doc["graph_hash"])


def _pack_sets(sets: list, n: int) -> list[VertexSet]:
    """The bitmasks of the member arrays ``sets``, each of which must be a
    strictly ascending list of ints from 0 to n - 1, else GraphError.

    The checks are C-level passes over the whole family: the types of
    the arrays and of their items; the masks, as sums of bits from a
    table of the vertices, where a missing key is an index out of range;
    as many mask bits as items, so no array repeats an index; and each
    array equal to its sorted copy. The table, about top^2/16 bytes,
    holds the vertices below top = min(n, isqrt(128 items)), so it is no
    larger than the items' 8-byte slots. When a pass fails, the loop
    over the arrays raises the first bad array's message, or packs them
    all when the failure was an index above the table. That loop checks
    an index against n before it writes a mask's binary digits.
    """
    if (set(map(type, sets)) <= {list}
            and set(map(type, chain.from_iterable(sets))) <= {int}):
        items = sum(map(len, sets))
        bit = {v: 1 << v for v in range(min(n, math.isqrt(items << 7)))}
        try:
            masks = list(map(sum, map(map, repeat(bit.__getitem__), sets)))
        except KeyError:  # an index out of range, or above the table
            pass
        else:
            if (sum(map(int.bit_count, masks)) == items
                    and all(map(operator.eq, sets, map(sorted, sets)))):
                return masks
    masks = []
    for arr in sets:
        if not (isinstance(arr, list) and set(map(type, arr)) <= {int}
                and all(map(operator.lt, arr, arr[1:]))
                and (not arr or arr[0] >= 0)):
            raise GraphError("family set is not a strictly ascending array "
                             "of vertex indices")
        if arr and arr[-1] >= n:
            raise GraphError("family member has a vertex outside the graph: "
                             f"{arr[-1]}")
        # the mask's binary digits, top first: members plus top steps
        digits = bytearray(b"0") * (arr[-1] + 2 if arr else 1)
        for v in arr:
            digits[-1 - v] = 49  # "1"
        masks.append(int(digits, 2))
    return masks


def dump_family(fam: CoveringFamily) -> str:
    """The text of json.dumps(family_to_json(fam), indent=2,
    sort_keys=True) + "\n". json's indenting encoder is pure Python, so
    it encodes the family without its member arrays, which are nearly
    all of the text. Those are written here, each set's members named
    through one _Names table as iter_members yields them, and joined
    with the encoder's text around the empty array in one pass. The
    table holds only the vertices that occur, so its size does not grow
    with the width of the sets' ints."""
    head, tail = json.dumps(family_to_json(fam._replace(sets=())),
                            indent=2, sort_keys=True).split('"sets": []')
    texts = map(",\n      ".join, map(map, repeat(_Names().__getitem__),
                                       map(iter_members, fam.sets)))
    rows = [",\n    [\n      " + text + "\n    ]" if text else ",\n    []"
            for text in texts]
    if rows:
        rows[0] = rows[0][1:]  # no comma before the first row
        rows.append("\n  ")
    return "".join([head, '"sets": [', *rows, "]", tail, "\n"])


# perfbench/tracer.py reads the argument "text" by name.
def load_family(text: bytes, g: Graph,
                budget: int = DEFAULT_BUDGET) -> CoveringFamily:
    """family_from_json of ``text``, the bytes of a family file, decoded
    strictly as UTF-8; bytes that do not decode or parse, including
    nesting too deep for the parser, raise GraphError. The bytes are
    charged against ``budget`` before they are decoded, a word per 8 of
    them. The sets it parses to, an n-bit int each once packed, are
    charged on their own account before any is packed or the rest of the
    document is checked."""
    Budget(budget, "the family file takes {} words").charge(
        words(8 * len(text)))
    try:
        doc = json.loads(str(text, "utf-8"))
    except (ValueError, RecursionError) as exc:
        raise GraphError(f"malformed family file: {exc}") from exc
    sets = doc.get("sets") if isinstance(doc, dict) else None
    if isinstance(sets, list):
        Budget(budget, f"the {len(sets)} family sets take {{}} words").charge(
            words(g.n * len(sets)))
    return family_from_json(doc, g)
