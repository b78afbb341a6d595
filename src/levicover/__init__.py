"""Projective-plane incidence graphs and k-independence covering families.

The package generates the bipartite point-line incidence graph of the
projective plane of prime order q, verifies its structural properties
exhaustively, evaluates the extremal bounds governing independence
covering families of C4-free graphs, and builds such families by seeded
Monte Carlo sampling through a degeneracy order.
"""

from .graphs import (BudgetExceededError, DegeneracyResult, Graph,
                     GraphError, ParseError, VertexSet, degeneracy_order,
                     graph_hash, is_c4_free, iter_members, members,
                     neighborhood_of_set, parse_graph, sqrt_degeneracy_bound,
                     vset, write_graph)
from .levi import (LeviIndexing, gen_levi, infer_q, is_prime, plane_size,
                   verify_levi_properties)
from .independence import (BoundsReport, ExpansionCheck,
                           balanced_count_lower_bound, check_cover_capacity,
                           check_expansion, count_balanced,
                           count_independent_sets,
                           enumerate_independent_sets,
                           enumerate_maximal_independent_sets,
                           evaluate_bounds, expansion_bound,
                           max_cover_capacity, max_side_product,
                           per_set_capacity_bound, profile_frontier,
                           side_product_bound)
from .covering import (CoveringFamily, build_family_mc,
                       containment_probability_floor, dump_family,
                       family_from_json, family_to_json, greedy_cover,
                       load_family, required_samples,
                       sample_independent_set, substream, verify_family)

__version__ = "0.1.0"
