"""Projective-plane incidence graphs and k-independence covering families.

The package generates the bipartite point-line incidence graph of the
projective plane of prime order q, verifies its structural properties
exhaustively, evaluates the extremal bounds governing independence
covering families of C4-free graphs, and builds such families by seeded
Monte Carlo sampling through a degeneracy order.

The names below are imported from their modules on first use (PEP 562),
so ``import levicover`` loads no submodule.
"""

_HOMES = {
    "graphs": ("BudgetExceededError", "DegeneracyResult", "Graph",
               "GraphError", "ParseError", "VertexSet",
               "count_independent_sets", "degeneracy_order",
               "enumerate_independent_sets",
               "enumerate_maximal_independent_sets", "graph_hash",
               "is_c4_free", "iter_members", "members", "parse_graph",
               "sqrt_degeneracy_bound", "vset", "write_graph"),
    "levi": ("LeviIndexing", "gen_levi", "infer_q", "is_prime",
             "plane_size", "verify_levi_properties"),
    "independence": ("BoundsReport", "balanced_count_lower_bound",
                     "count_balanced", "evaluate_bounds", "expansion_bound",
                     "max_cover_capacity", "max_side_product",
                     "per_set_capacity_bound", "profile_frontier",
                     "side_product_bound"),
    "covering": ("CoveringFamily", "build_family_mc", "dump_family",
                 "family_from_json", "family_to_json", "greedy_cover",
                 "load_family", "required_samples", "substream",
                 "verify_family"),
}
_HOME = {name: module for module, names in _HOMES.items() for name in names}

# the eager package of earlier versions exported its four modules too
__all__ = [*_HOMES, *_HOME]
__version__ = "0.1.0"


def __getattr__(name: str):
    if name in _HOMES:
        from importlib import import_module
        value = import_module(f"{__name__}.{name}")
    elif name in _HOME:
        value = getattr(__getattr__(_HOME[name]), name)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute "
                             f"{name!r}")
    globals()[name] = value
    return value
