"""In-process span recorder for the traced benchmark run.

The recorder wraps public functions of ``levicover.graphs``, ``levi``,
``independence`` and ``covering`` from the outside; nothing in the package
changes. Each name is patched in every ``levicover`` module that holds the
original, because callers look functions up in their own module globals
(``cli`` calls ``is_c4_free`` through its own ``from .graphs import``).

Spans are aggregated into a call tree: every call of one function under
one parent span, within one run, adds to the same node, which keeps the
first start, last end, call count and busy time. That bounds memory on
calls made millions of times (``check_cover_capacity`` at q=5) while the
self time of every node stays exact: busy time minus the busy time of its
children. A generator is charged only for the time spent inside its own
``next()``, so the consumer's loop body is billed to the consumer.
"""

from __future__ import annotations

import inspect
import math
import time
from contextlib import contextmanager

# (module, function) pairs that get a span, with an optional hook that
# adds deterministic work counters from the bound arguments and result.
# Helpers called inside hot loops (iter_members, members, side_profile,
# neighborhood_of_set) are left unwrapped; their time is their caller's.


def _parse_graph(c, a, r):
    c["graphs.parse_graph_edges"] += r.m


def _is_c4_free(c, a, r):
    # Returning True means every vertex pair was examined.
    if r:
        n = a["g"].n
        c["graphs.is_c4_free_pairs"] += n * (n - 1) // 2


def _gen_levi(c, a, r):
    c["levi.gen_levi_edges"] += r.m


def _verify_levi(c, a, r):
    g = a["g"]
    c["levi.verify_levi_properties_pairs"] += (
        math.comb(g.side_p_size, 2) + math.comb(g.n - g.side_p_size, 2))


def _count_balanced(c, a, r):
    c["independence.count_balanced_combos"] += math.comb(
        a["g"].side_p_size, a["k"] // 2)


def _build_family(c, a, r):
    c["covering.samples_t"] += r.t
    c["covering.family_sets"] += len(r.sets)


def _greedy(c, a, r):
    c["covering.greedy_rounds"] += len(r)


def _dump_family(c, a, r):
    c["covering.family_bytes"] += len(r)


def _load_family(c, a, r):
    c["covering.family_bytes"] += len(a["text"])


WRAPPED = {
    "graphs": {"parse_graph": _parse_graph, "write_graph": None,
               "graph_hash": None, "is_c4_free": _is_c4_free,
               "degeneracy_order": None},
    "levi": {"gen_levi": _gen_levi, "verify_levi_properties": _verify_levi},
    "independence": {"enumerate_independent_sets": None,
                     "enumerate_maximal_independent_sets": None,
                     "count_balanced": _count_balanced,
                     "check_cover_capacity": None,
                     "check_expansion": None,
                     "evaluate_bounds": None},
    "covering": {"build_family_mc": _build_family,
                 "sample_independent_set": None, "substream": None,
                 "required_samples": None, "verify_family": None,
                 "greedy_cover": _greedy, "dump_family": _dump_family,
                 "load_family": _load_family},
}

LAYERS = tuple(WRAPPED)

# Work counters the hooks above fill in.
COUNTERS = (
    "graphs.parse_graph_edges", "graphs.is_c4_free_pairs",
    "levi.gen_levi_edges", "levi.verify_levi_properties_pairs",
    "independence.count_balanced_combos", "covering.samples_t",
    "covering.family_sets", "covering.greedy_rounds",
    "covering.family_bytes",
)


class Node:
    """All calls of one function under one parent span in one run."""

    __slots__ = ("id", "name", "parent", "run", "start", "end", "busy",
                 "calls", "items", "children")

    def __init__(self, nid, name, parent, run):
        self.id = nid
        self.name = name
        self.parent = parent
        self.run = run
        self.start = None
        self.end = None
        self.busy = 0.0
        self.calls = 0
        self.items = 0
        self.children = {}

    def add(self, t0, t1):
        if self.start is None:
            self.start = t0
        self.end = t1
        self.busy += t1 - t0

    @property
    def self_s(self):
        return self.busy - sum(ch.busy for ch in self.children.values())


class _TimedIter:
    """Iterator proxy that bills only the time inside ``next()``."""

    __slots__ = ("tracer", "node", "it")

    def __init__(self, tracer, node, it):
        self.tracer = tracer
        self.node = node
        self.it = it

    def __iter__(self):
        return self

    def __next__(self):
        stack = self.tracer.stack
        node = self.node
        stack.append(node)
        t0 = time.perf_counter()
        try:
            item = next(self.it)
        finally:
            node.add(t0, time.perf_counter())
            stack.pop()
        node.items += 1
        return item


class Tracer:
    """Holds every span of a traced run in memory until it is reported."""

    def __init__(self):
        self.nodes = []
        self.stack = []
        self.counters = dict.fromkeys(COUNTERS, 0)
        self.t0 = time.perf_counter()

    def _child(self, name):
        parent = self.stack[-1]
        node = parent.children.get(name)
        if node is None:
            node = Node(len(self.nodes), name, parent, parent.run)
            parent.children[name] = node
            self.nodes.append(node)
        return node

    @contextmanager
    def run(self, run_id, name):
        """Root span of one command; its self time is the CLI's own."""
        root = Node(len(self.nodes), name, None, run_id)
        self.nodes.append(root)
        self.stack.append(root)
        root.calls = 1
        t0 = time.perf_counter()
        try:
            yield root
        finally:
            root.add(t0, time.perf_counter())
            self.stack.pop()

    def wrap(self, name, fn, hook):
        if inspect.isgeneratorfunction(fn):
            def wrapper(*a, **kw):
                node = self._child(name)
                node.calls += 1
                return _TimedIter(self, node, fn(*a, **kw))
            return wrapper

        sig = inspect.signature(fn)
        counters = self.counters

        def wrapper(*a, **kw):
            node = self._child(name)
            self.stack.append(node)
            t0 = time.perf_counter()
            try:
                result = fn(*a, **kw)
            finally:
                node.add(t0, time.perf_counter())
                self.stack.pop()
            node.calls += 1
            if hook is not None:
                hook(counters, sig.bind(*a, **kw).arguments, result)
            return result
        return wrapper

    @contextmanager
    def installed(self, package_modules):
        """Patch every wrapped name wherever a levicover module holds it."""
        saved = []
        try:
            for layer, fns in WRAPPED.items():
                home = package_modules[layer]
                for fname, hook in fns.items():
                    orig = getattr(home, fname)
                    wrapper = self.wrap(f"{layer}.{fname}", orig, hook)
                    for mod in package_modules.values():
                        if getattr(mod, fname, None) is orig:
                            saved.append((mod, fname, orig))
                            setattr(mod, fname, wrapper)
            yield self
        finally:
            for mod, fname, orig in reversed(saved):
                setattr(mod, fname, orig)

    def spans(self):
        """Span records (times relative to the tracer's creation)."""
        return [{"id": n.id, "name": n.name,
                 "parent": n.parent.id if n.parent else None,
                 "run": n.run, "start": n.start - self.t0,
                 "end": n.end - self.t0, "busy_s": n.busy,
                 "calls": n.calls, "items": n.items}
                for n in self.nodes if n.start is not None]

    def self_s_by_run(self):
        """Sum of the self times of each run's spans. It equals the run's
        traced wall time only if every span lies inside its parent and in
        its own run, so the caller checks it against that time."""
        out = {}
        for n in self.nodes:
            if n.start is not None:
                out[n.run] = out.get(n.run, 0.0) + n.self_s
        return out

    def layer_metrics(self):
        """Per-layer metrics of every span recorded so far."""
        m = {}
        for layer in LAYERS:
            m[f"{layer}.self_s"] = 0.0
            for fname in WRAPPED[layer]:
                m[f"{layer}.{fname}_s"] = 0.0
        m["cli.self_s"] = 0.0
        calls = {}
        items = {}
        sizing = 0.0
        verify_targets = 0
        for n in self.nodes:
            if n.start is None:
                continue
            if n.parent is None:
                m["cli.self_s"] += n.self_s
                continue
            layer = n.name.split(".", 1)[0]
            m[f"{layer}.self_s"] += n.self_s
            m[f"{n.name}_s"] += n.self_s
            calls[n.name] = calls.get(n.name, 0) + n.calls
            items[n.name] = items.get(n.name, 0) + n.items
            pname = n.parent.name
            if n.name == "covering.required_samples" or (
                    n.name == "independence.enumerate_independent_sets"
                    and pname == "covering.build_family_mc"):
                sizing += n.busy
            if (n.name == "independence.enumerate_independent_sets"
                    and pname == "covering.verify_family"):
                verify_targets += n.items
        c = dict(self.counters)
        m["covering.family_io_s"] = (m.pop("covering.dump_family_s")
                                     + m.pop("covering.load_family_s"))
        m["covering.sizing_s"] = sizing
        m["covering.sample_calls"] = calls.get(
            "covering.sample_independent_set", 0)
        m["covering.verify_targets"] = verify_targets
        m["covering.dedup_ratio"] = (c["covering.family_sets"]
                                     / c["covering.samples_t"]
                                     if c["covering.samples_t"] else 0.0)
        m["independence.enumerate_independent_sets_yielded"] = items.get(
            "independence.enumerate_independent_sets", 0)
        m["independence.maximal_sets_yielded"] = items.get(
            "independence.enumerate_maximal_independent_sets", 0)
        for name in ("independence.check_cover_capacity",
                     "independence.check_expansion", "graphs.graph_hash"):
            m[f"{name}_calls"] = calls.get(name, 0)
        m.update(c)
        return m
