"""Fuzz harness for the command line.

Hypothesis generates graph files, family files and argument vectors, and
``cli.main`` runs each vector in-process with a small ``--budget``. Every
run must end in a documented exit code (0 pass, 1 check failed, 2 usage,
3 budget) with no exception escaping, and a ``cover verify`` that passes
must pass the brute-force coverage oracle too. Graphs have at most 64
vertices and plane orders stay small, so no run allocates much. The
wide graphs, on 900 to 1,200 vertices with a few edges, run the
enumerating commands with sizes k up to 1,000 and budgets up to 10^5,
so a walk goes deeper than Python's recursion limit. The q=5 frontier
commands run with budgets around the 6,731 steps of their frontier
search, and must print the pinned values or exit 3.
"""

import contextlib
import io
import json
import sys
import tempfile
from pathlib import Path

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from levicover import (BudgetExceededError, Graph, GraphError,
                       enumerate_maximal_independent_sets, gen_levi,
                       graph_hash, members, parse_graph, vset, write_graph)
from levicover.cli import main
from levicover.independence import CHECKS
from conftest import brute_independent_sets, from_edges

MAX_N = 64


@st.composite
def graph_files(draw, canonical: bool = False, max_n: int = MAX_N) -> bytes:
    """Canonical texts of random graphs on at most ``max_n`` vertices and
    of the planes of order 2 and 3, and unless ``canonical``, raw texts:
    headers with side sizes from 0 to n+1, edges that repeat, stay on one
    side or leave the graph, and stray bytes."""
    kinds = ["graph", "graph", "plane"] + ([] if canonical else ["raw"])
    kind = draw(st.sampled_from(kinds))
    if kind == "plane":
        text = write_graph(gen_levi(draw(st.sampled_from([2, 3]))))
    else:
        n = draw(st.integers(0, max_n))
        side = draw(st.integers(0, n + 1))
        ends = st.integers(0, n + 1)
        edges = draw(st.lists(st.tuples(ends, ends), max_size=2 * n))
        if kind == "graph":
            text = _canonical(n, min(side, n), edges)
        else:
            m = draw(st.sampled_from([len(edges), 0, n]))
            text = "".join([f"{n} {m} {side}\n"]
                           + [f"{u} {v}\n" for u, v in edges])
    data = text.encode()
    if not canonical and draw(st.integers(0, 3)) == 0:
        at = draw(st.integers(0, len(data)))
        data = data[:at] + draw(st.binary(max_size=3)) + data[at:]
    return data


def _canonical(n: int, side: int, edges) -> str:
    """The canonical text of the graph on n vertices with those of
    ``edges`` that join two vertices of it, across the sides when
    ``side`` > 0."""
    keep = {(min(u, v), max(u, v)) for u, v in edges
            if u != v and max(u, v) < n
            and (side == 0 or (u < side) != (v < side))}
    return write_graph(from_edges(n, keep, side_p_size=side))


@st.composite
def wide_graph_files(draw) -> bytes:
    """Canonical texts of graphs on 900 to 1,200 vertices with at most
    three edges, unflagged or with sides of n/2."""
    n = draw(st.integers(900, 1200))
    ends = st.integers(0, n - 1)
    edges = draw(st.lists(st.tuples(ends, ends), max_size=3))
    return _canonical(n, draw(st.sampled_from([0, n // 2])), edges).encode()


def _parsed(data: bytes):
    try:
        return parse_graph(data)
    except GraphError:
        return None


@st.composite
def family_files(draw, g) -> bytes:
    """Family documents for g (or for no graph, when g did not parse):
    random member lists, the singletons, and all maximal independent sets
    of g or all but one, under the right hash; fields of the wrong type
    or size; and the shapes that are not JSON documents at all."""
    shape = draw(st.sampled_from(["doc"] * 5 + ["bytes", "nested", "json"]))
    if shape == "bytes":
        return draw(st.sampled_from([b"\xff\xfe{", b"", b"{"])) + draw(
            st.binary(max_size=8))
    if shape == "nested":
        return b"[" * draw(st.sampled_from([10, 5000, 200000]))
    if shape == "json":
        return json.dumps(draw(st.recursive(
            st.none() | st.booleans() | st.integers() | st.text(max_size=4),
            lambda kids: st.lists(kids, max_size=3)
            | st.dictionaries(st.text(max_size=4), kids, max_size=3),
            max_leaves=8))).encode()
    n = g.n if g is not None else 4
    kind = draw(st.sampled_from(
        ["random", "singletons", "maximal", "maximal", "cut", "empty"]))
    if kind == "random":
        sets = draw(st.lists(st.lists(st.integers(-1, n), max_size=6).map(
            lambda vs: sorted(set(vs))), max_size=12))
    elif kind == "singletons":
        sets = [[v] for v in range(n)]
    elif kind == "empty":
        sets = draw(st.sampled_from([[], [[]]]))
    else:
        sets = []
        if g is not None:
            with contextlib.suppress(BudgetExceededError):
                sets = [members(s) for s in
                        enumerate_maximal_independent_sets(g, budget=2000)]
        if kind == "cut":
            sets = sets[1:]
    doc = {"graph_hash": graph_hash(g) if g is not None else "0" * 64,
           "k": 2, "delta": 0.1, "seed": 0, "t": len(sets), "d": 1,
           "p": "1/2", "sets": sets}
    if draw(st.integers(0, 3)) == 0:
        key = draw(st.sampled_from(sorted(doc)))
        doc[key] = draw(st.sampled_from(
            [None, "x", -1, 1.5, [], {}, 10 ** 4000, "1" * 5000 + "/1",
             "deadbeef", [[0, 0]], [["0"]], [[True]]]))
    if draw(st.integers(0, 7)) == 0:
        del doc[draw(st.sampled_from(sorted(doc)))]
    return json.dumps(doc).encode()


@st.composite
def argument_vectors(draw, graph, family, out):
    """One command with its required options and a draw of the others,
    all small and now and then invalid; a tenth of the vectors lose a
    token or are junk. Paths name the files written for the run, and now
    and then a missing file or a directory."""
    q = st.sampled_from(["2", "3", "5", "7", "11", "4", "1", "-2"])
    k = st.sampled_from(["1", "2", "2", "3", "4", "0", "-1"])
    off = st.just(None)
    directory = str(Path(out).parent)
    graph, family = (st.sampled_from([path] * 4 + [directory, out])
                     for path in (graph, family))
    out = off | st.sampled_from([out, out, directory])
    options = {
        ("gen",): {"--q": q, "--out": out},
        ("verify",): {
            "--in": graph, "--k": off | k,
            "--checks": st.lists(st.sampled_from([*CHECKS, "nosuch"]),
                                 min_size=1, max_size=3).map(",".join),
            "--samples": off | st.sampled_from(["0", "3", "20", "-1"]),
            "--seed": off | st.sampled_from(["0", "1", "-1"]),
            "--no-timestamp": st.just(True)},
        ("bounds",): {"--q": q, "--k": k, "--exact": st.booleans()},
        ("cover", "build"): {
            "--in": graph, "--k": k,
            "--delta": st.sampled_from(["0.5", "0.05", "0", "1", "nan"]),
            "--seed": st.sampled_from(["0", "1", "-1"]),
            "--out": out},
        ("cover", "verify"): {"--in": graph, "--k": k, "--family": family,
                              "--no-timestamp": st.just(True)},
        ("cover", "greedy"): {"--in": graph, "--k": k, "--out": out},
    }
    command = draw(st.sampled_from(sorted(options)))
    argv = list(command)
    flags = dict(options[command],
                 **{"--budget": st.integers(0, 3000).map(str)})
    for flag, strategy in flags.items():
        value = draw(strategy)
        if value:
            argv += [flag] if value is True else [flag, value]
    if draw(st.integers(0, 9)) == 0:
        del argv[draw(st.integers(0, len(argv) - 1))]
    if draw(st.integers(0, 9)) == 0:
        argv = draw(st.lists(st.sampled_from(
            ["cover", "verify", "--k", "-1", "2", "--budget", "--in",
             directory]), max_size=5))
    return argv


@st.composite
def wide_vectors(draw, graph, family, out):
    """A valid command that enumerates the graph: sizes k of 1, 2, 990
    and 1,000, and a budget of 20,000 to 10^5, about what the n-bit rows
    of a wide graph take."""
    command = draw(st.sampled_from([
        ["verify", "--checks", "product,coverbound", "--no-timestamp"],
        ["cover", "build", "--delta", "0.5", "--seed", "0", "--out", out],
        ["cover", "verify", "--family", family, "--no-timestamp"],
        ["cover", "greedy", "--out", out]]))
    k = draw(st.sampled_from(["1", "2", "990", "1000"]))
    budget = draw(st.integers(20000, 10 ** 5))
    return [*command, "--in", graph, "--k", k, "--budget", str(budget)]


@contextlib.contextmanager
def default_recursion_limit():
    """Python's default recursion limit of 1,000 frames, which a command
    run from a shell has and Hypothesis raises while a test runs."""
    saved = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)
    try:
        yield
    finally:
        sys.setrecursionlimit(saved)


def captured(argv) -> tuple[int, str, str]:
    """The exit code, stdout and stderr of one in-process run."""
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), \
            contextlib.redirect_stderr(stderr):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse refuses the vector
            code = exc.code
    return code, stdout.getvalue(), stderr.getvalue()


def run(argv) -> int:
    return captured(argv)[0]


def covers(g: Graph, k: int, family: bytes) -> bool:
    """Oracle: every independent set of at most k vertices lies inside a
    member of the family."""
    sets = [vset(arr) for arr in json.loads(family)["sets"]]
    return all(any(target & ~s == 0 for s in sets)
               for target in brute_independent_sets(g, k))


@contextlib.contextmanager
def written(graph_bytes: bytes, family_bytes: bytes):
    """Paths of the graph file, the family file and an output file in a
    fresh directory."""
    with tempfile.TemporaryDirectory() as tmp:
        paths = [str(Path(tmp, name))
                 for name in ("g.txt", "fam.json", "out.txt")]
        Path(paths[0]).write_bytes(graph_bytes)
        Path(paths[1]).write_bytes(family_bytes)
        yield paths


FUZZ = settings(deadline=None, derandomize=True,
                suppress_health_check=[HealthCheck.too_slow,
                                       HealthCheck.data_too_large])


@settings(FUZZ, max_examples=150)
@given(st.data())
def test_every_command_ends_in_a_documented_exit_code(data):
    graph_bytes = data.draw(graph_files(), label="graph file")
    family_bytes = data.draw(family_files(_parsed(graph_bytes)),
                             label="family file")
    with written(graph_bytes, family_bytes) as (graph, family, out):
        argv = data.draw(argument_vectors(graph, family, out), label="argv")
        assert run(argv) in (0, 1, 2, 3), argv


@settings(FUZZ, max_examples=15)
@given(st.data())
def test_wide_graphs_end_in_a_documented_exit_code(data):
    graph_bytes = data.draw(wide_graph_files(), label="graph file")
    family_bytes = data.draw(family_files(parse_graph(graph_bytes)),
                             label="family file")
    with written(graph_bytes, family_bytes) as (graph, family, out):
        argv = data.draw(wide_vectors(graph, family, out), label="argv")
        with default_recursion_limit():
            code = run(argv)
        assert code in (0, 1, 2, 3), argv


# The q=5 commands that read the plane's frontier, and the values each
# prints when its budget fits the 6,731 steps of the frontier search.
FRONTIER_STEPS = 6731
PLANE5_VALUES = {
    ("bounds", "--q", "5", "--k", "4", "--exact"): lambda doc: (
        doc["measured_balanced_count"], doc["measured_max_capacity"],
        doc["exact_cover_lower_bound"]) == (88350, 675, 131),
    ("verify", "--q", "5", "--checks", "product,coverbound", "--k", "4",
     "--no-timestamp"): lambda doc: [
        c["observed"] for c in doc["checks"]] == [60, 675],
}


@settings(FUZZ, max_examples=24)
@given(st.sampled_from(sorted(PLANE5_VALUES)),
       st.sampled_from([FRONTIER_STEPS - 1, FRONTIER_STEPS])
       | st.integers(FRONTIER_STEPS - 50, FRONTIER_STEPS + 50)
       | st.integers(0, 2 * FRONTIER_STEPS))
def test_plane5_frontier_prints_its_values_or_exits_3(argv, budget):
    code, out, err = captured([*argv, "--budget", str(budget)])
    assert code == (0 if budget >= FRONTIER_STEPS else 3), budget
    if code == 0:
        assert PLANE5_VALUES[argv](json.loads(out))
    else:
        assert out == "" and err.startswith("error: ") and "budget" in err


@settings(FUZZ, max_examples=100)
@given(st.data())
def test_cover_verify_agrees_with_the_coverage_oracle(data):
    # small graphs, so that more families cover every target in budget
    graph_bytes = data.draw(graph_files(canonical=True, max_n=16),
                            label="graph file")
    g = parse_graph(graph_bytes)
    family_bytes = data.draw(family_files(g), label="family file")
    k = data.draw(st.integers(1, 3), label="k")
    budget = data.draw(st.integers(0, 3000), label="budget")
    with written(graph_bytes, family_bytes) as (graph, family, _):
        code = run(["cover", "verify", "--in", graph, "--k", str(k),
                    "--family", family, "--no-timestamp",
                    "--budget", str(budget)])
    assert code in (0, 1, 2, 3)
    if code in (0, 1):
        assert covers(g, k, family_bytes) == (code == 0)
