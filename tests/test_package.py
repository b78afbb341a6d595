"""The package's public surface: every name resolves on first use, to the
object of its home module, and ``import levicover`` alone loads no
submodule."""

import ast
import importlib
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import levicover

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "levicover"
# Every name the package exports, by home module.
EXPORTS = {
    "graphs": ["BudgetExceededError", "DegeneracyResult", "Graph",
               "GraphError", "ParseError", "VertexSet",
               "count_independent_sets", "degeneracy_order",
               "enumerate_independent_sets",
               "enumerate_maximal_independent_sets", "graph_hash",
               "is_c4_free", "iter_members", "members",
               "neighborhood_of_set", "parse_graph", "sqrt_degeneracy_bound",
               "vset", "write_graph"],
    "levi": ["LeviIndexing", "gen_levi", "infer_q", "is_prime",
             "plane_size", "verify_levi_properties"],
    "independence": ["BoundsReport", "balanced_count_lower_bound",
                     "count_balanced", "evaluate_bounds", "expansion_bound",
                     "max_cover_capacity", "max_side_product",
                     "per_set_capacity_bound", "profile_frontier",
                     "side_product_bound"],
    "covering": ["CoveringFamily", "build_family_mc", "dump_family",
                 "family_from_json", "family_to_json", "greedy_cover",
                 "load_family", "required_samples", "substream",
                 "verify_family"],
}
NAMES = [(home, name) for home, names in EXPORTS.items() for name in names]

# Names that earlier versions exported and that now live in their modules
# alone: the tests and the benchmark's tracer use them, no command does.
UNEXPORTED = [("independence", "ExpansionCheck"),
              ("independence", "check_cover_capacity"),
              ("independence", "check_expansion"),
              ("covering", "sample_independent_set")]

# The record types and their fields, in the order of earlier versions.
FIELDS = {
    "Graph": ("n", "m", "adj", "side_p_size"),
    "DegeneracyResult": ("order", "degeneracy", "forward"),
    "ExpansionCheck": ("holds", "neighborhood_size", "bound"),
    "BoundsReport": ("q", "k", "n", "balanced_count_lower_bound",
                     "per_set_capacity_bound", "family_size_lower_bound",
                     "measured_balanced_count", "measured_max_capacity",
                     "exact_cover_lower_bound"),
    "CoveringFamily": ("sets", "k", "delta", "seed", "t", "degeneracy",
                       "graph_hash"),
}


@pytest.mark.parametrize("home, name", NAMES,
                         ids=[name for _, name in NAMES])
def test_name_is_its_home_modules_object(home, name):
    module = importlib.import_module(f"levicover.{home}")
    assert getattr(levicover, name) is getattr(module, name)


@pytest.mark.parametrize("home, name", UNEXPORTED,
                         ids=[name for _, name in UNEXPORTED])
def test_unexported_name_stays_in_its_module(home, name):
    assert name not in levicover.__all__
    with pytest.raises(AttributeError):
        getattr(levicover, name)
    assert callable(getattr(importlib.import_module(f"levicover.{home}"),
                            name))


def test_modules_are_attributes():
    for home in EXPORTS:
        assert getattr(levicover, home) is sys.modules[f"levicover.{home}"]


def test_unknown_attribute_raises_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'nosuch'"):
        levicover.nosuch
    assert not hasattr(levicover, "DEFAULT_BUDGET")


def test_star_import_exports_every_name():
    namespace = {}
    exec("from levicover import *", namespace)
    assert {name for _, name in NAMES} | set(EXPORTS) <= set(namespace)
    assert set(levicover.__all__) == {name for _, name in NAMES} | set(
        EXPORTS)


@pytest.mark.parametrize("record", sorted(FIELDS))
def test_record_fields_keep_their_order(record):
    home = {name: home for home, name in NAMES + UNEXPORTED}[record]
    module = importlib.import_module(f"levicover.{home}")
    assert getattr(module, record)._fields == FIELDS[record]


def test_import_alone_loads_no_submodule(tmp_path):
    # -S: no site, so that nothing but the import loads a module
    script = ("import sys, levicover\n"
              "before = sorted(m for m in sys.modules\n"
              "                if m.startswith('levicover.'))\n"
              "levicover.Graph\n"
              "after = sorted(m for m in sys.modules\n"
              "               if m.startswith('levicover.'))\n"
              "import json\n"
              "print(json.dumps([before, after]))")
    src = str(Path(__file__).resolve().parents[1] / "src")
    proc = subprocess.run([sys.executable, "-S", "-c", script],
                          env=dict(os.environ, PYTHONPATH=src), cwd=tmp_path,
                          capture_output=True, text=True, timeout=60)
    assert json.loads(proc.stdout) == [[], ["levicover.graphs"]]


# The package modules that each module may import: only layers below its
# own. The graph layer and the schemas import none, levi the graph layer,
# covering the graph layer and schemas (for family files), the plane's
# checks in independence the graph layer and levi, and cli any of them.
LAYERS = {
    "__init__": set(), "graphs": set(), "schemas": set(),
    "levi": {"graphs"},
    "covering": {"graphs", "schemas"},
    "independence": {"graphs", "levi"},
    "cli": {"graphs", "schemas", "levi", "covering", "independence"},
}
ENUMERATORS = ("count_independent_sets", "enumerate_independent_sets",
               "enumerate_maximal_independent_sets")


def _tree(module: str) -> ast.Module:
    return ast.parse((SRC / f"{module}.py").read_text(encoding="utf-8"))


def _package_imports(tree: ast.Module) -> set[str]:
    """The package modules that the import statements of tree name,
    function-level ones included."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            if node.level:
                base = node.module or ""
            elif (node.module or "").split(".")[0] == "levicover":
                base = node.module.partition(".")[2]
            else:
                continue
            out |= ({base.split(".")[0]} if base
                    else {alias.name for alias in node.names})
        elif isinstance(node, ast.Import):
            out |= {alias.name.split(".")[1] for alias in node.names
                    if alias.name.startswith("levicover.")}
    return out


def _tracer_wrapped() -> dict:
    """perfbench/tracer.py's WRAPPED: the names it looks up, by module."""
    spec = importlib.util.spec_from_file_location(
        "levicover_tracer", ROOT / "perfbench" / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer.WRAPPED


def test_every_module_has_a_layer():
    assert {p.stem for p in SRC.glob("*.py")} == set(LAYERS)


@pytest.mark.parametrize("module", sorted(LAYERS))
def test_imports_follow_the_layers(module):
    assert _package_imports(_tree(module)) <= LAYERS[module]


@pytest.mark.parametrize("module", sorted(LAYERS))
def test_module_uses_every_name_it_imports(module):
    """Every name an import binds is read somewhere in the module, but
    for those that perfbench/tracer.py looks up in it."""
    tree = _tree(module)
    bound = {alias.asname or alias.name.split(".")[0]
             for node in ast.walk(tree)
             if isinstance(node, (ast.Import, ast.ImportFrom))
             and getattr(node, "module", None) != "__future__"
             for alias in node.names}
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    kept = set(_tracer_wrapped().get(module, ()))
    assert sorted(bound - used - kept) == []


@pytest.mark.parametrize("name", ENUMERATORS)
def test_enumerator_is_defined_once_in_the_graph_layer(name):
    homes = [module for module in LAYERS for node in _tree(module).body
             if isinstance(node, ast.FunctionDef) and node.name == name]
    assert homes == ["graphs"]
    graphs = importlib.import_module("levicover.graphs")
    for module in ("independence", "covering"):
        held = getattr(importlib.import_module(f"levicover.{module}"),
                       name, None)
        assert held in (None, getattr(graphs, name))
