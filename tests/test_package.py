"""The package's public surface: every name resolves on first use, to the
object of its home module, and ``import levicover`` alone loads no
submodule."""

import ast
import importlib
import importlib.util
import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import levicover
from levicover import gen_levi, write_graph

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "levicover"
# Every name the package exports, by home module.
EXPORTS = {
    "graphs": ["BudgetExceededError", "DegeneracyResult", "Graph",
               "GraphError", "ParseError", "VertexSet",
               "count_independent_sets", "degeneracy_order",
               "enumerate_independent_sets",
               "enumerate_maximal_independent_sets", "graph_hash",
               "is_c4_free", "iter_members", "members", "parse_graph",
               "sqrt_degeneracy_bound", "vset", "write_graph"],
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


# The exported functions that charge a budget: each defaults to the
# --budget of every command, so no library stage runs unbounded.
BUDGETED = ["balanced_count_lower_bound", "build_family_mc", "count_balanced",
            "count_independent_sets", "degeneracy_order",
            "enumerate_independent_sets",
            "enumerate_maximal_independent_sets", "evaluate_bounds",
            "gen_levi", "greedy_cover", "is_c4_free", "load_family",
            "parse_graph", "profile_frontier", "verify_family"]


def test_every_budget_defaults_to_the_commands_budget():
    from levicover.graphs import DEFAULT_BUDGET
    defaults = {}
    for name in levicover.__all__:
        value = getattr(levicover, name)
        if inspect.isfunction(value):
            budget = inspect.signature(value).parameters.get("budget")
            if budget is not None:
                defaults[name] = budget.default
    assert defaults == dict.fromkeys(BUDGETED, DEFAULT_BUDGET)


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


# The functions of src/ that no command enters: those that
# perfbench/tracer.py looks up by name, which ROADMAP item 8 moves into
# the tests once the tracer is gone. Any other function that only the
# tests reach belongs in tests/, so that the library holds what the
# commands run.
UNREACHED = {"check_cover_capacity", "check_expansion",
             "sample_independent_set"}
# A fresh interpreter, so that every first use is seen (the package's lazy
# names among them), runs each argv of the grid in-process under
# sys.setprofile and prints the src/ functions that were entered.
REACH = """
import contextlib, io, json, os, sys
entered = set()
sys.setprofile(lambda frame, event, arg: event == "call"
               and entered.add(frame.f_code))
from levicover.cli import main
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()), \\
            contextlib.redirect_stderr(io.StringIO()):
        try:
            main(argv)
        except SystemExit:
            pass
sys.setprofile(None)
import levicover
home = os.path.realpath(levicover.__path__[0])
print(json.dumps(sorted(
    (os.path.basename(c.co_filename), c.co_firstlineno, c.co_name)
    for c in entered
    if os.path.dirname(os.path.realpath(c.co_filename)) == home)))
"""
SEVEN = "levi-props,c4free,degeneracy,expansion,product,balanced,coverbound"
REACH_GRID = [
    ["gen", "--q", "2", "--out", "fano.g"],
    ["verify", "--q", "2", "--checks", SEVEN, "--k", "2"],
    ["verify", "--in", "plane3.g", "--checks", SEVEN, "--k", "2",
     "--samples", "50", "--seed", "1", "--no-timestamp"],
    ["verify", "--in", "damaged3.g", "--checks", SEVEN, "--k", "2",
     "--no-timestamp"],
    # n > 2m, so names are read by int, not from a table
    ["verify", "--in", "sparse.g", "--checks", "c4free,degeneracy",
     "--no-timestamp"],
    ["bounds", "--q", "3", "--k", "2"],
    ["bounds", "--q", "3", "--k", "2", "--exact"],
    ["cover", "build", "--in", "fano.g", "--k", "2", "--delta", "0.1",
     "--seed", "1", "--out", "fam.json"],
    ["cover", "verify", "--in", "fano.g", "--k", "2", "--family",
     "fam.json"],
    ["cover", "greedy", "--in", "damaged3.g", "--k", "2", "--out",
     "greedy.json"],
    # the count runs out of budget, so t comes from n^k
    ["cover", "build", "--in", "edgeless20.g", "--k", "3", "--delta",
     "0.1", "--seed", "0", "--budget", "100"],
    # rejected inputs, and a budget refusal that prints its cost
    ["verify", "--in", "bad.g", "--checks", "c4free"],
    ["verify", "--in", "utf8.g", "--checks", "c4free"],
    ["cover", "verify", "--in", "fano.g", "--k", "2", "--family", "bad.g"],
    ["gen", "--q", "3", "--budget", "10"],
]


def _functions(code, prefix: str = ""):
    """(line, name) -> qualified name of every function that code
    defines, in classes and functions too; comprehensions and lambdas
    are left out."""
    out = {}
    for const in code.co_consts:
        if hasattr(const, "co_code") and not const.co_name.startswith("<"):
            name = prefix + const.co_name
            if const.co_flags & inspect.CO_NEWLOCALS:
                out[const.co_firstlineno, const.co_name] = name
            out.update(_functions(const, name + "."))
    return out


def test_every_library_function_but_the_tracer_chain_is_run(tmp_path):
    plane3 = write_graph(gen_levi(3))
    lines = plane3.split("\n")
    head = lines[0].split(" ")
    files = {
        "plane3.g": plane3,
        "damaged3.g": "\n".join([f"{head[0]} {int(head[1]) - 1} {head[2]}",
                                 *lines[2:]]),
        "sparse.g": "5 1 0\n0 4\n",
        "edgeless20.g": "20 0 0\n",
        "bad.g": "2 1 0\n1 0\n",
        "utf8.g": "2 1 0\n0 ٣\n",
    }
    for name, text in files.items():
        (tmp_path / name).write_text(text, encoding="utf-8")
    proc = subprocess.run(
        [sys.executable, "-c", REACH, json.dumps(REACH_GRID)],
        env=dict(os.environ, PYTHONPATH=str(ROOT / "src")), cwd=tmp_path,
        capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    entered = {(f, line, name) for f, line, name in json.loads(proc.stdout)}
    never = set()
    for path in sorted(SRC.glob("*.py")):
        code = compile(path.read_text(encoding="utf-8"), str(path), "exec")
        never |= {qualified for (line, name), qualified
                  in _functions(code).items()
                  if (path.name, line, name) not in entered}
    # a function inside one that is never entered is not reported again
    outermost = {name for name in never
                 if not any(name.startswith(other + ".") for other in never)}
    assert outermost == UNREACHED
