import json
import math
import os
import random
import subprocess
import sys
import time
import tracemalloc
from fractions import Fraction
from pathlib import Path

import jsonschema
import pytest

from levicover import (BudgetExceededError, count_independent_sets,
                       covering, enumerate_maximal_independent_sets,
                       gen_levi, graph_hash, independence, parse_graph,
                       write_graph)
from levicover import cli
from levicover.cli import main
from levicover.schemas import (BOUNDS_REPORT_SCHEMA, FAMILY_SCHEMA,
                               RUN_REPORT_SCHEMA, SchemaError)
from conftest import cycle_graph, from_edges


@pytest.fixture()
def fano_file(tmp_path):
    path = tmp_path / "fano.g"
    path.write_text(write_graph(gen_levi(2)))
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestGen:
    def test_writes_canonical_file(self, tmp_path, capsys):
        path = tmp_path / "fano.g"
        code, out, _ = run(capsys, "gen", "--q", "2", "--out", str(path))
        assert code == 0
        assert out.strip() == "14 21 7"
        data = path.read_bytes()
        assert data.startswith(b"14 21 7\n")
        assert parse_graph(data) == gen_levi(2)

    def test_q3_summary(self, tmp_path, capsys):
        path = tmp_path / "g3.g"
        code, out, _ = run(capsys, "gen", "--q", "3", "--out", str(path))
        assert code == 0 and out.strip() == "26 52 13"

    def test_non_prime_exits_2(self, capsys):
        code, _, err = run(capsys, "gen", "--q", "4")
        assert code == 2 and "prime" in err

    @pytest.mark.parametrize("q", ["-113", "-1000000000"])
    def test_negative_order_exits_2_before_any_charge(self, q, capsys):
        # (q+1)(q^2+q+1) is a credit below -1: no charge comes first
        code, out, err = run(capsys, "gen", "--q", q)
        assert (code, out, err) == (2, "", f"error: order must be a prime, "
                                           f"got {q}\n")

    def test_stdout_when_no_outfile(self, capsys):
        code, out, err = run(capsys, "gen", "--q", "2")
        assert code == 0
        assert out.startswith("14 21 7\n")
        assert "14 21 7" in err


def test_file_written_in_slices(tmp_path):
    # a slice of the text is encoded at a time, never a copy of the whole
    text = "".join(f"{i}\n" for i in range(200000))
    path = tmp_path / "out.txt"
    tracemalloc.start()
    try:
        cli._write(text, str(path))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert path.read_bytes() == text.encode()
    assert peak < len(text) // 4


def test_stdout_written_in_slices(tmp_path, monkeypatch):
    # stdout takes the same slices: its text wrapper never holds an
    # encoded copy of the whole text, as it did given the text at once
    text = "".join(f"{i}\n" for i in range(200000))
    path = tmp_path / "stdout.txt"
    with open(path, "w", encoding="utf-8") as stdout:
        monkeypatch.setattr(sys, "stdout", stdout)
        tracemalloc.start()
        try:
            cli._write(text, None)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert path.read_bytes() == text.encode()
    assert peak < len(text) // 4


# Refusals whose cost has more digits than Python will print: a
# 1,500-digit order has a plane of about 10^4497 edges, and at k=5000
# the Fano plane needs more than 10^4800 samples.
UNPRINTABLE_COSTS = {
    "gen": (["gen", "--q", str(10 ** 1499 + 1)],
            "has 2^14938 or more edges"),
    "cover-build": (["cover", "build", "--in", "fano.g", "--k", "5000",
                     "--delta", "0.5", "--seed", "0"],
                    "sampling needs t>=2^16227 or more samples"),
}


@pytest.mark.parametrize("name", sorted(UNPRINTABLE_COSTS))
def test_unprintable_cost_exits_3(name, tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "fano.g").write_text(write_graph(gen_levi(2)))
    argv, message = UNPRINTABLE_COSTS[name]
    started = time.monotonic()
    code, out, err = run(capsys, *argv)
    assert code == 3 and out == ""
    assert message + ", over the budget of 10000000" in err
    assert time.monotonic() - started < 5


# Every command that builds the plane from --q; the Fano plane has 21
# edges.
PLANE_COMMANDS = {
    "gen": ["gen", "--q", "2"],
    "verify": ["verify", "--q", "2", "--checks", "c4free", "--no-timestamp"],
    "bounds": ["bounds", "--q", "2", "--k", "2", "--exact"],
}


@pytest.mark.parametrize("name", sorted(PLANE_COMMANDS))
def test_plane_edges_charged_before_generation(name, tmp_path, capsys,
                                               monkeypatch):
    monkeypatch.chdir(tmp_path)
    argv = PLANE_COMMANDS[name] + ["--budget"]
    code, out, err = run(capsys, *argv, "20")
    assert code == 3 and out == ""
    assert "order 2 has 21 edges, over the budget of 20" in err
    assert run(capsys, *argv, "21")[0] == 0
    assert list(tmp_path.iterdir()) == []


# No command loads numpy or jsonschema: the plane commands at q=3, every
# check of verify, the sampled expansion check included, a seeded build,
# coverage verification of a family file and the greedy cover.
NUMPY_FREE = {
    "gen": ["gen", "--q", "3"],
    "verify": ["verify", "--q", "3", "--checks",
               "levi-props,c4free,degeneracy,expansion,product,balanced,"
               "coverbound", "--samples", "50", "--seed", "7",
               "--no-timestamp"],
    "bounds": ["bounds", "--q", "3", "--k", "2", "--exact"],
    "cover-build": ["cover", "build", "--in", "plane3.g", "--k", "2",
                    "--delta", "0.1", "--seed", "3", "--out", "built.json"],
    "cover-verify": ["cover", "verify", "--in", "plane3.g", "--k", "2",
                     "--family", "greedy.json", "--no-timestamp"],
    "cover-greedy": ["cover", "greedy", "--in", "plane3.g", "--k", "2",
                     "--out", "greedy.json"],
}


@pytest.mark.parametrize("name", sorted(NUMPY_FREE))
def test_plane_commands_do_not_load_numpy(name, tmp_path):
    """A fresh interpreter runs the command without importing numpy or
    jsonschema, reading a family file included."""
    argv = NUMPY_FREE[name]
    g = gen_levi(3)
    (tmp_path / "plane3.g").write_text(write_graph(g))
    (tmp_path / "greedy.json").write_text(
        covering.dump_family(covering.greedy_family(g, 2)))
    script = ("import json, sys\n"
              "from levicover.cli import main\n"
              "rc = main(sys.argv[1:])\n"
              "print(json.dumps([rc, [m for m in ('numpy', 'jsonschema')\n"
              "                       if m in sys.modules]]), file=sys.stderr)")
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", script, *argv], env=env,
                          cwd=tmp_path, capture_output=True, text=True,
                          timeout=120)
    rc, loaded = json.loads(proc.stderr.splitlines()[-1])
    assert rc == 0 and loaded == []


# Each command imports only what it runs. dataclasses is loaded by none,
# hashlib (which maps OpenSSL) only by cover, datetime by none (report
# timestamps are built from time), fractions and decimal by none (the
# balanced count lower bound is a pair of ints), random only where a
# command draws (the expansion check and cover build), schemas only where
# a report is checked or a family file read, and the levi, independence
# and covering modules only by the commands that call them: argv at q=2
# and the modules of WATCHED that it leaves loaded.
WATCHED = ("dataclasses", "hashlib", "datetime", "fractions", "decimal",
           "random", "levicover.covering", "levicover.independence",
           "levicover.levi", "levicover.schemas")
PLANE = {"levicover.independence", "levicover.levi"}
REPORT = {"levicover.schemas", *PLANE}
FOOTPRINT = {
    "gen": (["gen", "--q", "2", "--out", "out.g"], {"levicover.levi"}),
    "verify": (["verify", "--q", "2", "--checks",
                "levi-props,c4free,degeneracy"],
               REPORT),
    "verify-no-timestamp": (["verify", "--in", "fano.g", "--checks",
                             "levi-props,c4free,degeneracy",
                             "--no-timestamp"],
                            REPORT),
    "verify-expansion": (["verify", "--q", "2", "--checks",
                          "expansion,product,coverbound", "--no-timestamp"],
                         {"random", *REPORT}),
    "verify-balanced": (["verify", "--q", "2", "--checks", "balanced",
                         "--no-timestamp"],
                        REPORT),
    "bounds": (["bounds", "--q", "2", "--k", "2", "--exact"], REPORT),
    # covering needs the graph layer alone, so no cover command loads
    # a plane module
    "cover-build": (["cover", "build", "--in", "fano.g", "--k", "2",
                     "--delta", "0.1", "--seed", "1", "--out", "out.json"],
                    {"hashlib", "random", "levicover.covering"}),
    "cover-verify": (["cover", "verify", "--in", "fano.g", "--k", "2",
                      "--family", "fam.json"],
                     {"hashlib", "levicover.covering", "levicover.schemas"}),
    "cover-greedy": (["cover", "greedy", "--in", "fano.g", "--k", "2",
                      "--out", "out.json"],
                     {"hashlib", "levicover.covering"}),
}


@pytest.mark.parametrize("name", sorted(FOOTPRINT))
def test_command_import_footprint(name, tmp_path):
    """A fresh interpreter without site (-S), so that nothing but the
    command loads a module, runs the command and reports which modules of
    WATCHED it loaded."""
    argv, expected = FOOTPRINT[name]
    fano = gen_levi(2)
    (tmp_path / "fano.g").write_text(write_graph(fano))
    (tmp_path / "fam.json").write_text(
        covering.dump_family(covering.greedy_family(fano, 2)))
    script = ("import sys\n"
              "from levicover.cli import main\n"
              "rc = main(sys.argv[1:])\n"
              f"loaded = [m for m in {WATCHED!r} if m in sys.modules]\n"
              "import json\n"
              "print(json.dumps([rc, loaded]), file=sys.stderr)")
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-S", "-c", script, *argv],
                          env=env, cwd=tmp_path, capture_output=True,
                          text=True, timeout=120)
    rc, loaded = json.loads(proc.stderr.splitlines()[-1])
    assert rc == 0 and set(loaded) == expected


@pytest.mark.parametrize("ns", [
    0, 1_000, -1_000, 999_999_999, 1_700_000_000_000_000_000,
    1_700_000_000_123_456_789, 951_782_400_000_001_000,
    253_402_300_799_999_999_000, -2_208_988_800_000_000_000])
def test_timestamp_is_datetime_isoformat(ns):
    # datetime is the oracle, at the microsecond the instant falls in;
    # among the instants, 0 microseconds (no fraction is written), the
    # epoch, before it, 29 February 2000 and the last microsecond of 9999
    import datetime
    epoch = datetime.datetime(1970, 1, 1, tzinfo=datetime.timezone.utc)
    assert cli._utc_timestamp(ns) == (
        epoch + datetime.timedelta(microseconds=ns // 1000)).isoformat()


def test_timestamp_is_datetime_isoformat_at_random_instants():
    # 10^4 seeded instants from 1000 to 9999, every other one on a whole
    # second, so that half are written without a fraction
    import datetime
    rng = random.Random(0)
    first = int(datetime.datetime(1000, 1, 1, tzinfo=datetime.timezone.utc)
                .timestamp())
    for i in range(10 ** 4):
        seconds = rng.randrange(first, 253_402_300_800)
        ns = seconds * 10 ** 9 + (rng.randrange(10 ** 9) if i % 2 else 0)
        assert cli._utc_timestamp(ns) == datetime.datetime.fromtimestamp(
            seconds, datetime.timezone.utc).replace(
                microsecond=ns // 1000 % 10 ** 6).isoformat()


@pytest.mark.parametrize("command,usage", [
    ("build", "[-h] [--budget BUDGET] --in INFILE --k K --delta DELTA "
              "--seed SEED [--out OUT]"),
    ("verify", "[-h] [--budget BUDGET] --in INFILE --k K --family FAMILY "
               "[--no-timestamp]"),
    ("greedy", "[-h] [--budget BUDGET] --in INFILE --k K [--out OUT]")])
def test_cover_usage(command, usage, monkeypatch, capsys):
    # --budget, --in and --k come first, from the parents, in that order
    monkeypatch.setenv("COLUMNS", "200")
    with pytest.raises(SystemExit) as exc:
        main(["cover", command, "--help"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith(
        f"usage: levicover cover {command} {usage}\n\n")


def _extra_key(monkeypatch):
    run_report = cli._run_report
    monkeypatch.setattr(cli, "_run_report",
                        lambda *args: dict(run_report(*args), extra=1))


def _string_q(monkeypatch):
    evaluate = independence.evaluate_bounds
    monkeypatch.setattr(independence, "evaluate_bounds",
                        lambda *args, **kw: evaluate(*args, **kw)._replace(
                            q="2"))


@pytest.mark.parametrize("argv, breaks, message", [
    (["verify", "--q", "2", "--checks", "c4free", "--no-timestamp"],
     _extra_key, r"\$\.extra is not allowed"),
    (["cover", "verify", "--in", "fano.g", "--k", "2", "--family",
      "fam.json", "--no-timestamp"], _extra_key, r"\$\.extra is not allowed"),
    (["bounds", "--q", "2", "--k", "2"], _string_q,
     r"\$\.q is not of type integer"),
], ids=["verify", "cover-verify", "bounds"])
def test_report_that_breaks_its_schema_is_not_written(
        argv, breaks, message, tmp_path, capsys, monkeypatch):
    fano = gen_levi(2)
    (tmp_path / "fano.g").write_text(write_graph(fano))
    (tmp_path / "fam.json").write_text(
        covering.dump_family(covering.greedy_family(fano, 2)))
    monkeypatch.chdir(tmp_path)
    breaks(monkeypatch)
    with pytest.raises(SchemaError, match=message):
        main(argv)
    assert capsys.readouterr().out == ""


# A graph header whose vertex count alone is over the default budget.
HUGE_HEADER = "1000000000000 0 0\n"


@pytest.mark.parametrize("argv", [
    ["verify", "--in", "huge.g", "--checks", "c4free", "--no-timestamp"],
    ["cover", "build", "--in", "huge.g", "--k", "2", "--delta", "0.1",
     "--seed", "0"],
])
def test_graph_vertex_count_over_budget_exits_3(argv, tmp_path, capsys,
                                               monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "huge.g").write_text(HUGE_HEADER)
    code, out, err = run(capsys, *argv)
    assert code == 3 and out == ""
    assert "1000000000000 vertices, over the budget of 10000000" in err


def _singletons_family(n: int) -> str:
    g = parse_graph(f"{n} 0 0\n".encode())
    return json.dumps({"graph_hash": graph_hash(g), "k": 1, "delta": 0.1,
                       "seed": 0, "t": 1, "d": 0, "p": "1/1",
                       "sets": [[v] for v in range(n)]})


# Small files whose per-vertex rows, or whose column index, are over the
# default budget. Each run exits 3 before it takes that memory, naming
# the stage: (files, argv, message).
ROW_CHARGES = {
    "adjacency": (
        # a star on 10^6 vertices: 800 edges fill 1,600 rows of 15,625
        # words, in an 8.7 KB file
        {"g.txt": "1000000 800 0\n"
                  + "".join(f"{u} 999999\n" for u in range(800))},
        ["verify", "--in", "g.txt", "--checks", "c4free"],
        "the adjacency takes 1600 rows of 15625 words"),
    "codegree": (
        {"g.txt": "1000000 0 0\n"},
        ["verify", "--in", "g.txt", "--checks", "c4free"],
        "the codegree sweep takes 1000000 rows of 15625 words"),
    "degeneracy": (
        {"g.txt": "1000000 0 0\n"},
        ["verify", "--in", "g.txt", "--checks", "degeneracy"],
        "the degeneracy order takes 1000000 rows of 15625 words"),
    "independent-set-sweep": (
        {"g.txt": "100000 0 0\n"},
        ["cover", "greedy", "--in", "g.txt", "--k", "1"],
        "the independent-set sweep takes 100000 rows of 1563 words"),
    "column-index": (
        {"g.txt": "16000 0 0\n", "fam.json": _singletons_family(16000)},
        ["cover", "verify", "--in", "g.txt", "--k", "1", "--family",
         "fam.json"],
        "the column index of 16000 sets takes 32000000 words"),
}


@pytest.mark.parametrize("name", sorted(ROW_CHARGES))
def test_row_memory_over_budget_exits_3_at_once(name, tmp_path, capsys,
                                                monkeypatch):
    files, argv, message = ROW_CHARGES[name]
    monkeypatch.chdir(tmp_path)
    for path, text in files.items():
        (tmp_path / path).write_text(text)
    started = time.monotonic()
    code, out, err = run(capsys, *argv)
    assert code == 3 and out == ""
    assert message + ", over the budget of 10000000" in err
    assert time.monotonic() - started < 5


@pytest.mark.parametrize("check", ["levi-props", "c4free"])
def test_structural_checks_share_one_codegree_charge(check, tmp_path,
                                                     capsys, monkeypatch):
    # 614 vertices, rows of 10 words each, in two sides of the size of the
    # plane of order 17. The plane itself is charged the same rows before
    # it is built, from --q or from its file; with no edge line no
    # adjacency row is charged, so the sweep's charge is the one refused.
    monkeypatch.chdir(tmp_path)
    (tmp_path / "sides17.g").write_text("614 0 307\n")
    argv = ("verify", "--in", "sides17.g", "--checks", check,
            "--no-timestamp", "--budget")
    code, out, err = run(capsys, *argv, "6139")
    assert code == 3 and out == ""
    assert ("the codegree sweep takes 614 rows of 10 words, over the "
            "budget of 6139") in err
    # C4-free, but not a plane
    assert run(capsys, *argv, "6140")[0] == (check == "levi-props")


def test_plane_rows_charged_before_generation(capsys):
    # the plane of order 17: 5,526 edges, then 614 rows of 10 words, as
    # parse_graph charges the rows of its file
    argv = ("verify", "--q", "17", "--checks", "c4free", "--no-timestamp",
            "--budget")
    code, out, err = run(capsys, *argv, "6139")
    assert code == 3 and out == ""
    assert err == ("error: the plane of order 17 takes 614 rows of 10 "
                   "words, over the budget of 6139\n")
    assert run(capsys, *argv, "6140")[0] == 0


def test_gen_211_refused_before_the_plane_is_built(tmp_path, capsys,
                                                   monkeypatch):
    # its 9,483,396 edges fit the default budget, but not its 89,466 rows
    # of 1,398 words, about 800 MB once built
    monkeypatch.chdir(tmp_path)
    tracemalloc.start()
    try:
        code, out, err = run(capsys, "gen", "--q", "211", "--out", "p.g")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 3 and out == ""
    assert err == ("error: the plane of order 211 takes 89466 rows of 1398 "
                   "words, over the budget of 10000000\n")
    assert peak < 1 << 20
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("q,fits", [(109, True), (113, False)])
def test_plane_rows_fit_the_default_budget_up_to_109(q, fits, monkeypatch):
    # both charges come before the plane's indexing, which is stopped
    # here, so no plane is built
    class Charged(Exception):
        pass

    def stop(q):
        raise Charged
    monkeypatch.setattr("levicover.levi.LeviIndexing", stop)
    with pytest.raises(Charged if fits else BudgetExceededError,
                       match=None if fits else f"plane of order {q} takes"):
        gen_levi(q, 10 ** 7)


# A k whose work is astronomically over the default budget: C(500000,
# 100000) point subsets, a t whose exact p_min has millions of bits, a
# k/2 above both sides of the Fano plane, whose (n/4k)^k takes more
# words than the budget, or fits it in words but not in the word
# products that raising it takes.
LARGE_K = {
    "balanced": ({"g.txt": "1000000 0 500000\n"},
                 ["verify", "--in", "g.txt", "--checks", "balanced", "--k",
                  "200000"],
                 "the balanced count takes at least 976623046750000 words, "
                 "over the budget of 10000000"),
    "cover-build": ({"fano.g": write_graph(gen_levi(2))},
                    ["cover", "build", "--in", "fano.g", "--k", "1000000",
                     "--delta", "0.5", "--seed", "0"],
                    "sampling needs t>=2^3245114 or more samples, over the "
                    "budget of 10000000"),
    "cover-build-3000000": ({"fano.g": write_graph(gen_levi(2))},
                            ["cover", "build", "--in", "fano.g", "--k",
                             "3000000", "--delta", "0.5", "--seed", "0"],
                            "sampling needs t>=2^9735339 or more samples, "
                            "over the budget of 10000000"),
    "balanced-10^12": ({}, ["verify", "--q", "2", "--checks", "balanced",
                            "--k", "1000000000000"],
                       "the balanced count lower bound at n=14, "
                       "k=1000000000000 takes 687500000000 words, over the "
                       "budget of 10000000"),
    "balanced-raised": ({}, ["verify", "--q", "2", "--checks", "balanced",
                             "--k", "4000000"],
                        "the balanced count lower bound at n=14, k=4000000 "
                        "takes 10460353203 word products to raise, over the "
                        "budget of 10000000"),
    "bounds-raised": ({}, ["bounds", "--q", "1000003", "--k", "1000002"],
                      "the balanced count lower bound at n=2000014000026, "
                      "k=1000002 takes 3486784401 word products to raise, "
                      "over the budget of 10000000"),
}


@pytest.mark.parametrize("name", sorted(LARGE_K))
def test_large_k_exits_3_at_once(name, tmp_path, capsys, monkeypatch):
    files, argv, message = LARGE_K[name]
    monkeypatch.chdir(tmp_path)
    for path, text in files.items():
        (tmp_path / path).write_text(text)
    started = time.monotonic()
    code, out, err = run(capsys, *argv)
    assert code == 3 and out == "" and err == f"error: {message}\n"
    assert time.monotonic() - started < 2


def _plane3_less_first_edge():
    g = gen_levi(3)
    return write_graph(from_edges(g.n, list(g.edges())[1:],
                                  side_p_size=g.side_p_size))


# One input per account charged as its stage runs. The refusal names the
# stage's row of README's budget table and the total charged so far.
STAGE_REFUSALS = {
    "walk": ({"plane3.g": write_graph(gen_levi(3))},
             ["cover", "greedy", "--in", "plane3.g", "--k", "2",
              "--budget", "200"],
             "the independent-set walk takes at least 201 steps, over the "
             "budget of 200"),
    "greedy-candidates": ({"plane3.g": write_graph(gen_levi(3))},
                          ["cover", "greedy", "--in", "plane3.g", "--k", "2",
                           "--budget", "400"],
                          "the greedy candidates take at least 403 words, "
                          "over the budget of 400"),
    "greedy-targets": ({"edgeless.g": "25000 0 0\n"},
                       ["cover", "greedy", "--in", "edgeless.g", "--k", "2"],
                       "the greedy targets take at least 10000216 words, "
                       "over the budget of 10000000"),
    "frontier-search": ({}, ["bounds", "--q", "5", "--k", "4", "--exact",
                             "--budget", "500"],
                        "the frontier search takes at least 515 words, "
                        "over the budget of 500"),
    "primality-test": ({}, ["bounds", "--q", "99999989", "--k", "2",
                            "--budget", "100"],
                       "the primality test takes 9999 steps, over the "
                       "budget of 100"),
    "balanced-count": ({}, ["verify", "--q", "37", "--checks", "balanced",
                            "--k", "4"],
                       "the balanced count takes at least 21760662 words, "
                       "over the budget of 10000000"),
    "bron-kerbosch": ({"cut.g": _plane3_less_first_edge()},
                      ["verify", "--in", "cut.g", "--checks", "product",
                       "--budget", "1000"],
                      "Bron-Kerbosch takes at least 1001 words, over the "
                      "budget of 1000"),
}


@pytest.mark.parametrize("name", sorted(STAGE_REFUSALS))
def test_stage_refusal_is_one_line(name, tmp_path, capsys, monkeypatch):
    files, argv, message = STAGE_REFUSALS[name]
    monkeypatch.chdir(tmp_path)
    for path, text in files.items():
        (tmp_path / path).write_text(text)
    assert run(capsys, *argv) == (3, "", f"error: {message}\n")


def test_n_to_the_k_universe_charged_before_the_power(tmp_path):
    # d = 0, so p_min = 1 and t at the 40 single-vertex targets is 4; the
    # count runs out of budget, and t at 40^(10^8) targets is refused
    # before that 532-million-bit power is built
    (tmp_path / "g.txt").write_text("40 0 0\n")
    src = str(Path(__file__).resolve().parents[1] / "src")
    proc = subprocess.run(
        [sys.executable, "-m", "levicover.cli", "cover", "build", "--in",
         "g.txt", "--k", "100000000", "--delta", "0.5", "--seed", "0",
         "--budget", "100000"], env=dict(os.environ, PYTHONPATH=src),
        cwd=tmp_path, capture_output=True, text=True, timeout=30)
    assert proc.returncode == 3 and proc.stdout == ""
    assert proc.stderr == ("error: sampling needs t>=368887947 samples, "
                           "over the budget of 100000\n")


@pytest.mark.parametrize("check", ["product", "coverbound"])
def test_plane_certification_builds_no_plane_larger_than_the_graph(
        check, tmp_path, capsys, monkeypatch):
    # the side size of the plane of order 101, and no edges: the plane's
    # 1,050,906 edges must not be built to compare with it
    def refuse(q, budget):
        raise AssertionError(f"built the plane of order {q}")
    monkeypatch.setattr("levicover.independence.gen_levi", refuse)
    path = tmp_path / "header.g"
    path.write_text("20606 0 10303\n")
    code, out, err = run(capsys, "verify", "--in", str(path), "--checks",
                         check, "--no-timestamp", "--budget", "1000000")
    assert code == 3 and out == ""
    assert "the complement graph takes 20606 rows of 322 words" in err


def least_cli_budget(capsys, *argv):
    """The least --budget at which the command exits 0, by bisection."""
    lo, hi = 0, 10 ** 4
    while lo < hi:
        mid = (lo + hi) // 2
        code, _, _ = run(capsys, *argv, "--budget", str(mid))
        assert code in (0, 3)
        lo, hi = (lo, mid) if code == 0 else (mid + 1, hi)
    return lo


@pytest.mark.parametrize("q, least", [(2, 21), (3, 52)])
def test_plane_file_certified_on_the_budget_of_the_built_plane(
        q, least, tmp_path, capsys):
    # the frame check builds its plane on the run's budget, so a plane
    # read with --in needs what --q needs: its (q+1)(q^2+q+1) edges
    path = tmp_path / "plane.g"
    path.write_text(write_graph(gen_levi(q)))
    checks = ["--checks", "product,coverbound", "--no-timestamp"]
    assert least_cli_budget(capsys, "verify", "--in", str(path),
                            *checks) == least
    assert least_cli_budget(capsys, "verify", "--q", str(q),
                            *checks) == least


class TestVerify:
    def test_levi_props_and_c4free(self, capsys):
        code, out, _ = run(capsys, "verify", "--q", "2",
                           "--checks", "levi-props,c4free",
                           "--no-timestamp")
        assert code == 0
        doc = json.loads(out)
        jsonschema.validate(doc, RUN_REPORT_SCHEMA)
        assert doc["outcome"] == "pass"
        assert [c["name"] for c in doc["checks"]] == ["levi-props", "c4free"]

    def test_degeneracy_from_file(self, tmp_path, capsys):
        path = tmp_path / "fano.g"
        path.write_text(write_graph(gen_levi(2)))
        code, out, _ = run(capsys, "verify", "--in", str(path),
                           "--checks", "degeneracy", "--no-timestamp")
        assert code == 0
        doc = json.loads(out)
        jsonschema.validate(doc, RUN_REPORT_SCHEMA)
        chk = doc["checks"][0]
        assert chk["observed"] == 3 and chk["expected"] == 4

    def test_all_checks_pass_on_plane3(self, capsys):
        code, out, _ = run(capsys, "verify", "--q", "3", "--checks",
                           "levi-props,c4free,degeneracy,expansion,"
                           "product,balanced,coverbound",
                           "--samples", "200", "--no-timestamp")
        assert code == 0
        jsonschema.validate(json.loads(out), RUN_REPORT_SCHEMA)

    def test_unknown_check_exits_2(self, capsys):
        code, _, err = run(capsys, "verify", "--q", "2",
                           "--checks", "nosuch")
        assert code == 2 and "unknown check" in err

    def test_failed_check_exits_1(self, tmp_path, capsys):
        path = tmp_path / "square.g"
        path.write_text("4 4 2\n0 2\n0 3\n1 2\n1 3\n")
        code, out, _ = run(capsys, "verify", "--in", str(path),
                           "--checks", "c4free", "--no-timestamp")
        assert code == 1
        assert json.loads(out)["outcome"] == "fail"

    @pytest.mark.parametrize("check", ["product", "coverbound"])
    def test_maximal_set_budget_exits_3(self, check, tmp_path, capsys):
        # without its last edge the q=3 plane takes the full path, whose
        # Bron-Kerbosch calls are charged 4,251 one-word rows; the graph
        # is read from a file, as --q would charge the plane's 52 edges
        g = gen_levi(3)
        path = tmp_path / "cut.g"
        path.write_text(write_graph(from_edges(
            g.n, list(g.edges())[:-1], side_p_size=g.side_p_size)))
        argv = ("verify", "--in", str(path), "--checks", check,
                "--no-timestamp", "--budget")
        code, _, err = run(capsys, *argv, "4250")
        assert code == 3 and err == ("error: Bron-Kerbosch takes at least "
                                     "4251 words, over the budget of 4250\n")
        assert run(capsys, *argv, "4251")[0] == 0

    def test_uncertified_plane_file_takes_full_path(self, tmp_path, capsys):
        # without its last edge the plane holds a 4 + 4 independent set,
        # which the frame path would miss (it tops out at a*b = 14 here)
        g = gen_levi(3)
        path = tmp_path / "cut.g"
        path.write_text(write_graph(from_edges(
            g.n, list(g.edges())[:-1], side_p_size=g.side_p_size)))
        code, out, _ = run(capsys, "verify", "--in", str(path), "--checks",
                           "product,coverbound", "--no-timestamp")
        assert code == 0
        assert [c["observed"] for c in json.loads(out)["checks"]] == [16, 16]

    def test_expansion_samples_charged_before_drawing(self, capsys,
                                                      monkeypatch):
        def refuse(*args):
            raise AssertionError("drew samples despite the budget")
        monkeypatch.setattr(random, "Random", refuse)
        started = time.monotonic()
        code, out, err = run(capsys, "verify", "--q", "2", "--checks",
                             "expansion", "--samples", "200000", "--budget",
                             "100000", "--no-timestamp")
        # 7 + 21 fixed sets per side, then 7 steps for each of the 200,000
        # samples
        assert code == 3 and out == "" and err == (
            "error: the expansion check takes 1400056 steps, over the "
            "budget of 100000\n")
        assert time.monotonic() - started < 5

    def test_expansion_budget_threshold(self, capsys):
        # 31 + 465 fixed sets per side of the q=5 plane, then 31 steps for
        # each of 10 samples
        argv = ["verify", "--q", "5", "--checks", "expansion", "--samples",
                "10", "--no-timestamp", "--budget"]
        code, out, err = run(capsys, *argv, "1301")
        assert code == 3 and out == "" and err == (
            "error: the expansion check takes 1302 steps, over the budget "
            "of 1301\n")
        code, out, _ = run(capsys, *argv, "1302")
        assert code == 0 and json.loads(out)["outcome"] == "pass"

    def test_odd_k_coverbound_exits_2(self, capsys):
        code, out, err = run(capsys, "verify", "--q", "2", "--checks",
                             "coverbound", "--k", "3", "--no-timestamp")
        assert code == 2 and out == ""
        assert "k must be an even integer >= 2" in err

    @pytest.mark.parametrize("check", ["balanced", "coverbound"])
    @pytest.mark.parametrize("k", ["3", "0"])
    def test_bad_k_exits_2_before_the_plane_is_built(self, check, k, capsys):
        # the order-109 plane alone is over a budget of 1
        code, out, err = run(capsys, "verify", "--q", "109", "--checks",
                             f"degeneracy,{check}", "--k", k, "--budget",
                             "1")
        assert code == 2 and out == ""
        assert "k must be an even integer >= 2" in err

    @pytest.mark.parametrize("budget,code", [("756", 0), ("755", 3)])
    def test_expansion_budget(self, budget, code, capsys):
        # 7 + 21 sets of one or two vertices per side, then 7 steps for
        # each of 100 samples
        got, _, err = run(capsys, "verify", "--q", "2", "--checks",
                          "expansion", "--samples", "100", "--budget",
                          budget, "--no-timestamp")
        assert got == code and ("budget" in err) == (code == 3)

    def test_negative_samples_exits_2(self, capsys):
        code, out, err = run(capsys, "verify", "--q", "2", "--checks",
                             "expansion", "--samples", "-5",
                             "--no-timestamp")
        assert code == 2 and "non-negative" in err and out == ""

    def test_negative_samples_exits_2_before_the_plane_is_built(self,
                                                                 capsys):
        # the order-109 plane alone is over a budget of 1
        code, out, err = run(capsys, "verify", "--q", "109", "--checks",
                             "degeneracy,expansion", "--samples", "-1",
                             "--budget", "1")
        assert code == 2 and out == ""
        assert "sample count must be non-negative" in err

    def test_expansion_on_empty_side_exits_2(self, tmp_path, capsys):
        path = tmp_path / "points.g"
        path.write_text("7 0 7\n")
        code, out, err = run(capsys, "verify", "--in", str(path), "--checks",
                             "expansion", "--samples", "5", "--no-timestamp")
        assert code == 2 and "nonempty sides" in err and out == ""
        # the side size is a plane's, so levi-props runs and fails
        code, out, _ = run(capsys, "verify", "--in", str(path), "--checks",
                           "levi-props", "--no-timestamp")
        assert code == 1 and json.loads(out)["outcome"] == "fail"

    @pytest.mark.parametrize("checks,flag", [
        ("c4free", "--k"), ("c4free", "--samples"), ("c4free", "--seed"),
        ("expansion", "--k"), ("levi-props,degeneracy,product", "--k"),
        ("balanced", "--samples"), ("coverbound,balanced", "--seed")])
    def test_option_no_named_check_reads_exits_2(self, checks, flag, capsys):
        # the order-109 plane alone is over a budget of 1
        code, out, err = run(capsys, "verify", "--q", "109", "--checks",
                             checks, flag, "4", "--budget", "1")
        assert code == 2 and out == ""
        assert f"{flag} is given, but none of the checks" in err

    def test_defaults_fill_in_unread_options(self, capsys):
        # the defaults k=2, samples=1000, seed=0, given or not
        runs = [run(capsys, "verify", "--q", "2", "--checks",
                    "expansion,balanced", "--no-timestamp", *given)
                for given in ([], ["--k", "2", "--samples", "1000",
                                   "--seed", "0"])]
        assert runs[0] == runs[1] and runs[0][0] == 0
        assert json.loads(runs[0][1])["parameters"] == {
            "q": 2, "in": None, "checks": "expansion,balanced", "k": 2,
            "samples": 1000, "seed": 0}
        # the report lists only the options that a named check reads
        code, out, _ = run(capsys, "verify", "--q", "2", "--checks",
                           "c4free", "--no-timestamp")
        assert code == 0 and json.loads(out)["parameters"] == {
            "q": 2, "in": None, "checks": "c4free"}
        code, out, _ = run(capsys, "verify", "--q", "2", "--checks",
                           "expansion", "--samples", "5", "--seed", "9",
                           "--no-timestamp")
        assert code == 0 and json.loads(out)["parameters"] == {
            "q": 2, "in": None, "checks": "expansion", "samples": 5,
            "seed": 9}

    def test_given_options_reach_their_checks(self, capsys):
        code, out, _ = run(capsys, "verify", "--q", "2", "--checks",
                           "c4free,expansion,coverbound", "--k", "4",
                           "--samples", "5", "--seed", "9",
                           "--no-timestamp")
        doc = json.loads(out)
        assert code == 0
        assert [doc["parameters"][o] for o in ("k", "samples", "seed")] == [
            4, 5, 9]
        # 7 + 21 fixed sets per side, then the 5 samples
        assert doc["checks"][1]["margin"] == 2 * (7 + 21) + 5

    @pytest.mark.parametrize("flag", ["--seed", "--budget"])
    def test_negative_seed_or_budget_exits_2(self, flag, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--q", "2", "--checks", "expansion", flag, "-1"])
        assert exc.value.code == 2
        assert "non-negative" in capsys.readouterr().err

    def test_overflowing_capacity_bound_exits_2(self, capsys):
        code, out, err = run(capsys, "verify", "--q", "3", "--checks",
                             "coverbound", "--k", "300", "--no-timestamp")
        assert code == 2 and out == "" and "does not fit a float" in err

    def test_overflowing_balanced_bound_exits_2(self, tmp_path, capsys):
        # (n/4k)^k = 1250^200 at n = 10^6, k = 200; one point, so there
        # is nothing to count
        path = tmp_path / "wide.g"
        path.write_text("1000000 0 1\n")
        code, out, err = run(capsys, "verify", "--in", str(path), "--checks",
                             "balanced", "--k", "200", "--no-timestamp")
        assert code == 2 and out == "" and "does not fit a float" in err

    def test_timestamp_present_by_default(self, capsys):
        _, out, _ = run(capsys, "verify", "--q", "2", "--checks", "c4free")
        doc = json.loads(out)
        jsonschema.validate(doc, RUN_REPORT_SCHEMA)
        assert "timestamp" in doc and "duration_s" in doc


class TestBounds:
    def test_exact_fano(self, capsys):
        code, out, _ = run(capsys, "bounds", "--q", "2", "--k", "2",
                           "--exact")
        assert code == 0
        doc = json.loads(out)
        jsonschema.validate(doc, BOUNDS_REPORT_SCHEMA)
        assert doc["measured_balanced_count"] == 28
        assert doc["measured_max_capacity"] == 4
        assert doc["exact_cover_lower_bound"] == 7
        assert doc["balanced_count_lower_bound"] == "49/16"

    def test_k_above_q_exits_2(self, capsys):
        code, _, err = run(capsys, "bounds", "--q", "2", "--k", "4")
        assert code == 2 and "at most q" in err

    @pytest.mark.parametrize("budget", ["10", "13"])
    def test_budget_exceeded_exits_3(self, budget, capsys):
        # the plane's 52 edges are over both budgets, so the command
        # exits before it builds the plane
        code, out, err = run(capsys, "bounds", "--q", "3", "--k", "2",
                             "--exact", "--budget", budget)
        assert code == 3 and out == "" and "52 edges" in err

    def test_balanced_count_budget_exits_3(self, capsys):
        # at q=5, k=4 the plane's 186 edges fit; the balanced count sums
        # over the C(31, 2) = 465 point pairs, one step each
        argv = ("bounds", "--q", "5", "--k", "4", "--exact", "--budget")
        code, out, err = run(capsys, *argv, "464")
        assert code == 3 and out == "" and ("the balanced count takes at "
                                            "least 465 words" in err)
        code, _, err = run(capsys, *argv, "465")
        assert code == 3 and "the frontier search takes at least" in err

    def test_frontier_budget_exits_3(self, capsys):
        # at q=5 the plane (186 edges) and the balanced count (31 steps)
        # fit; the frontier search is charged 6,731 one-word rows
        argv = ("bounds", "--q", "5", "--k", "2", "--exact", "--budget")
        code, out, err = run(capsys, *argv, "6730")
        assert code == 3 and out == "" and err == (
            "error: the frontier search takes at least 6731 words, over the "
            "budget of 6730\n")
        assert run(capsys, *argv, "6731")[0] == 0

    def test_negative_budget_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["bounds", "--q", "2", "--k", "2", "--exact",
                  "--budget", "-5"])
        assert exc.value.code == 2
        assert "non-negative" in capsys.readouterr().err

    def test_primality_budget_exits_3_at_once(self, capsys):
        # trial division would take isqrt(q) ~ 10^9 steps, over the budget
        started = time.monotonic()
        code, out, err = run(capsys, "bounds", "--q",
                             "1000000000000000003", "--k", "4")
        assert code == 3 and out == "" and err == (
            "error: the primality test takes 1000000000 steps, over the "
            "budget of 10000000\n")
        assert time.monotonic() - started < 5

    @pytest.mark.parametrize("argv,words", [
        (["verify", "--q", "2", "--checks", "balanced", "--k", "100000000",
          "--no-timestamp"], "n=14, k=100000000 takes 48437500 words"),
        (["bounds", "--q", "99999989", "--k", "99999988"],
         "n=19999995800000222, k=99999988 takes 128124985 words"),
    ], ids=["verify", "bounds"])
    def test_balanced_bound_power_charged_first(self, argv, words, capsys):
        # (n/4k)^k would take hundreds of millions of words
        started = time.monotonic()
        code, out, err = run(capsys, *argv)
        assert code == 3 and out == ""
        assert ("the balanced count lower bound at " + words
                + ", over the budget of 10000000") in err
        assert time.monotonic() - started < 5

    def test_balanced_k_above_a_side_counts_0_at_once(self, capsys):
        # k/2 = 5 * 10^7 is above both sides of 7: no point subset is
        # made, where itertools.combinations took 400 MB for its indices
        # before the bound's words were refused
        tracemalloc.start()
        try:
            code, out, err = run(capsys, "verify", "--q", "2", "--checks",
                                 "balanced", "--k", "100000000",
                                 "--no-timestamp")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 3 and out == "" and "48437500 words" in err
        assert peak < 8 << 20

    def test_balanced_bound_float_at_the_largest_float(self, capsys):
        # at q=999983, (n/120)^30 is about 4.5e306 and (n/128)^32 about
        # 1e326, over the largest float
        n = 1999934000546
        code, out, _ = run(capsys, "bounds", "--q", "999983", "--k", "30")
        assert code == 0
        assert json.loads(out)["balanced_count_lower_bound_float"] == float(
            Fraction(n, 120) ** 30)
        code, out, err = run(capsys, "bounds", "--q", "999983", "--k", "32")
        assert code == 2 and out == ""
        assert (f"error: the balanced count lower bound at n={n}, k=32 "
                "does not fit a float") in err

    def test_overflowing_capacity_bound_exits_2(self, capsys):
        code, out, err = run(capsys, "bounds", "--q", "101", "--k", "96")
        assert code == 2 and out == "" and "does not fit a float" in err

    def test_overflowing_balanced_margin_exits_2(self, tmp_path):
        # edgeless, sides of 200 and 9,000: the count C(9000, 200), about
        # 10^414, is over the largest float while (23/4)^400, about
        # 10^304, is not
        (tmp_path / "e.g").write_text("9200 0 200\n")
        src = str(Path(__file__).resolve().parents[1] / "src")
        proc = subprocess.run(
            [sys.executable, "-m", "levicover.cli", "verify", "--in", "e.g",
             "--checks", "balanced", "--k", "400"],
            env=dict(os.environ, PYTHONPATH=src), cwd=tmp_path,
            capture_output=True, text=True, timeout=60)
        assert proc.returncode == 2 and proc.stdout == ""
        assert proc.stderr == ("error: the balanced count margin at n=9200, "
                               "k=400 does not fit a float\n")

    def test_formula_only_large_q(self, capsys):
        code, out, _ = run(capsys, "bounds", "--q", "101", "--k", "4")
        assert code == 0
        doc = json.loads(out)
        jsonschema.validate(doc, BOUNDS_REPORT_SCHEMA)
        assert doc["family_size_lower_bound"] == pytest.approx(
            20606 / 262144, rel=1e-9)
        assert doc["measured_balanced_count"] is None


class TestCover:
    def test_build_then_verify(self, fano_file, tmp_path, capsys):
        fam = str(tmp_path / "fam.json")
        code, _, err = run(capsys, "cover", "build", "--in", fano_file,
                           "--k", "2", "--delta", "0.001", "--seed", "42",
                           "--out", fam)
        assert code == 0 and "t=1020" in err
        jsonschema.validate(json.loads(open(fam).read()), FAMILY_SCHEMA)
        code, out, _ = run(capsys, "cover", "verify", "--in", fano_file,
                           "--k", "2", "--family", fam, "--no-timestamp")
        assert code == 0
        doc = json.loads(out)
        jsonschema.validate(doc, RUN_REPORT_SCHEMA)
        assert doc["outcome"] == "pass"

    def test_greedy_size(self, fano_file, capsys):
        code, out, err = run(capsys, "cover", "greedy", "--in", fano_file,
                             "--k", "2")
        assert code == 0
        doc = json.loads(out)
        jsonschema.validate(doc, FAMILY_SCHEMA)
        assert len(doc["sets"]) >= 7
        assert "sets" in err or "greedy" in err

    def test_greedy_k0_exits_2(self, fano_file, tmp_path, capsys):
        fam = tmp_path / "greedy.json"
        code, out, err = run(capsys, "cover", "greedy", "--in", fano_file,
                             "--k", "0", "--out", str(fam))
        assert code == 2 and "at least 1" in err
        assert out == "" and not fam.exists()

    def test_verify_k0_exits_2(self, fano_file, tmp_path, capsys):
        fam = str(tmp_path / "greedy.json")
        assert run(capsys, "cover", "greedy", "--in", fano_file, "--k", "2",
                   "--out", fam)[0] == 0
        code, out, err = run(capsys, "cover", "verify", "--in", fano_file,
                             "--k", "0", "--family", fam, "--no-timestamp")
        assert code == 2 and "at least 1" in err and out == ""

    def test_verify_k_above_n(self, fano_file, tmp_path, capsys):
        # no independent set of the Fano plane has more than 7 members,
        # so k = 10^9 walks the targets of k = 7, and what the walk holds
        # grows with min(k, n), not with k
        fam = str(tmp_path / "greedy.json")
        run(capsys, "cover", "greedy", "--in", fano_file, "--k", "2",
            "--out", fam)
        argv = ("cover", "verify", "--in", fano_file, "--family", fam,
                "--no-timestamp", "--k")
        _, _, seven = run(capsys, *argv, "7")
        started = time.monotonic()
        code, out, err = run(capsys, *argv, "1000000000")
        assert time.monotonic() - started < 2
        assert code == 1 and err == seven
        assert err == "cover verify: uncovered witness [0, 1, 12, 13]\n"
        assert json.loads(out)["parameters"]["witness"] == [0, 1, 12, 13]

    @pytest.mark.parametrize("header,sets,t", [("0 0 0", [], 1),
                                              ("3 0 0", [[0, 1, 2]], 2)],
                             ids=["empty", "edgeless"])
    def test_build_without_edges(self, tmp_path, capsys, header, sets, t):
        # d = 0: every vertex is marked and nothing is drawn
        path = tmp_path / "g.g"
        path.write_text(header + "\n")
        code, out, err = run(capsys, "cover", "build", "--in", str(path),
                             "--k", "1", "--delta", "0.5", "--seed", "0")
        doc = json.loads(out)
        assert code == 0 and (doc["sets"], doc["t"], doc["p"]) == (
            sets, t, "1/1")
        assert f"{len(sets)} distinct sets from t={t} samples" in err

    def test_sizing_lower_bound_over_budget_exits_3(self, fano_file,
                                                    capsys):
        # t at the 14 single-vertex targets is 859
        code, _, err = run(capsys, "cover", "build", "--in", fano_file,
                           "--k", "2", "--delta", "0.001", "--seed", "0",
                           "--budget", "858")
        assert code == 3 and "t>=859" in err

    def test_hash_mismatch_exits_2(self, fano_file, tmp_path, capsys):
        other = tmp_path / "g3.g"
        other.write_text(write_graph(gen_levi(3)))
        fam = str(tmp_path / "fam.json")
        run(capsys, "cover", "build", "--in", str(other), "--k", "2",
            "--delta", "0.01", "--seed", "1", "--out", fam)
        code, _, err = run(capsys, "cover", "verify", "--in", fano_file,
                           "--k", "2", "--family", fam)
        assert code == 2 and "different graph" in err

    def test_budget_exceeded_exits_3(self, fano_file, tmp_path, capsys):
        # the 9 greedy sets take a 16-word column index and the graph
        # 14 vertices, so the 105 steps of the target enumeration bind
        fam = str(tmp_path / "fam.json")
        run(capsys, "cover", "greedy", "--in", fano_file, "--k", "2",
            "--out", fam)
        argv = ("cover", "verify", "--in", fano_file, "--k", "2",
                "--family", fam, "--no-timestamp", "--budget")
        code, _, err = run(capsys, *argv, "104")
        assert code == 3 and err == ("error: the independent-set walk takes "
                                     "at least 105 steps, over the budget "
                                     "of 104\n")
        assert run(capsys, *argv, "105")[0] == 0

    def test_family_file_budget_threshold(self, fano_file, tmp_path,
                                          capsys):
        # the 733-byte greedy family is charged 92 words before it is
        # parsed; the graph, the 9-set column index and the 105 steps of
        # the target enumeration each fit 92 on their own accounts
        fam = tmp_path / "fam.json"
        run(capsys, "cover", "greedy", "--in", fano_file, "--k", "2",
            "--out", str(fam))
        assert len(fam.read_bytes()) == 733
        argv = ("cover", "verify", "--in", fano_file, "--k", "1",
                "--family", str(fam), "--no-timestamp", "--budget")
        code, out, err = run(capsys, *argv, "91")
        assert code == 3 and out == ""
        assert ("the family file takes 92 words, over the budget of 91"
                in err)
        assert run(capsys, *argv, "92")[0] == 0

    def test_wide_family_refused_before_it_is_packed(self, tmp_path,
                                                     capsys):
        # 400 copies of the last of 10^5 vertices: a 4 KB file whose sets
        # pack into 5 MB of masks. They are charged ceil(10^5 * 400 / 64)
        # words once the file is parsed, before the header is checked
        graph, fam = tmp_path / "wide.g", tmp_path / "wide.json"
        graph.write_text("100000 0 0\n")
        fam.write_text(json.dumps({"sets": [[99999]] * 400}))
        code, out, err = run(capsys, "cover", "verify", "--in", str(graph),
                             "--k", "2", "--family", str(fam),
                             "--budget", "200000")
        assert (code, out) == (3, "")
        assert err == ("error: the 400 family sets take 625000 words, over "
                       "the budget of 200000\n")

    def test_workers_do_not_change_bytes(self, fano_file, tmp_path, capsys):
        outs = []
        for i in range(2):
            fam = str(tmp_path / f"fam{i}.json")
            code, _, _ = run(capsys, "cover", "build", "--in", fano_file,
                             "--k", "2", "--delta", "0.001", "--seed", "5",
                             "--out", fam)
            assert code == 0
            outs.append(open(fam, "rb").read())
        assert outs[0] == outs[1]

    def test_workers_flag_rejected(self, fano_file, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["cover", "build", "--in", fano_file, "--k", "2",
                  "--delta", "0.1", "--seed", "0", "--workers", "4"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("argv", [
        ["build", "--k", "2", "--delta", "0.1", "--seed", "-1"],
        ["build", "--k", "2", "--delta", "0.1", "--seed", "0",
         "--budget", "-5"],
        ["verify", "--k", "2", "--family", "fam.json", "--budget", "-5"],
        ["greedy", "--k", "2", "--budget", "-5"]],
        ids=["build-seed", "build-budget", "verify-budget", "greedy-budget"])
    def test_negative_seed_or_budget_exits_2(self, fano_file, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["cover", argv[0], "--in", fano_file, *argv[1:]])
        assert exc.value.code == 2
        assert "non-negative" in capsys.readouterr().err

    def test_greedy_candidate_memory_over_budget_exits_3(self, tmp_path,
                                                         capsys):
        # off the certified plane every maximal set is a candidate: 686
        # here, each charged ceil(300 targets / 64) = 5 words plus its
        # member count, 8,536 in all; the enumerations need far less
        g3 = gen_levi(3)
        g = from_edges(g3.n, list(g3.edges())[1:],
                       side_p_size=g3.side_p_size)
        need = sum(-(-count_independent_sets(g, 2) // 64) + c.bit_count()
                   for c in enumerate_maximal_independent_sets(g))
        assert need == 8536
        path = tmp_path / "cut.g"
        path.write_text(write_graph(g))
        argv = ("cover", "greedy", "--in", str(path), "--k", "2",
                "--budget")
        code, out, err = run(capsys, *argv, str(need - 1))
        assert code == 3 and out == ""
        assert err == ("error: the greedy candidates take at least 8536 "
                       "words, over the budget of 8535\n")
        assert run(capsys, *argv, str(need))[0] == 0

    def test_greedy_target_memory_over_budget_exits_3(self, tmp_path,
                                                      capsys):
        # edgeless on 25,000 vertices: the sweeps fit the default budget,
        # but the 312.5 million targets at 391 words each do not, and
        # the first 25,576 of them already run it out
        path = tmp_path / "edgeless.g"
        path.write_text("25000 0 0\n")
        code, out, err = run(capsys, "cover", "greedy", "--in", str(path),
                             "--k", "2")
        assert code == 3 and out == ""
        assert err == ("error: the greedy targets take at least 10000216 "
                       "words, over the budget of 10000000\n")

    def test_sample_count_over_budget_exits_3(self, fano_file, tmp_path,
                                              capsys):
        fam = tmp_path / "fam.json"
        code, _, err = run(capsys, "cover", "build", "--in", fano_file,
                           "--k", "2", "--delta", "0.001", "--seed", "0",
                           "--out", str(fam), "--budget", "1000")
        assert code == 3 and "t=1020" in err
        assert not fam.exists()

    def test_rows_over_budget_exits_3(self, tmp_path, capsys):
        # the 1,608 rows of the 65-cycle at 2 words each
        path = tmp_path / "cycle.g"
        path.write_text(write_graph(cycle_graph(65)))
        argv = ("cover", "build", "--in", str(path), "--k", "2",
                "--delta", "1e-12", "--seed", "0", "--budget")
        assert run(capsys, *argv, "3215") == (
            3, "", "error: sampling takes 1608 rows of 2 words, over the "
                   "budget of 3215\n")
        assert run(capsys, *argv, "3216")[0] == 0


class TestFamilyTrustBoundary:
    """Family files are external input: bad ones exit 2, never pass."""

    def verify(self, capsys, tmp_path, fano_file, **fields):
        doc = {"graph_hash": graph_hash(gen_levi(2)), "k": 2, "delta": 0.1,
               "seed": 0, "t": 1, "d": 3, "p": "1/4", "sets": [[0, 1]]}
        doc.update(fields)
        fam = tmp_path / "bad.json"
        fam.write_text(json.dumps(doc))
        return run(capsys, "cover", "verify", "--in", fano_file, "--k", "2",
                   "--family", str(fam))

    def test_all_vertices_member_exits_2(self, tmp_path, fano_file, capsys):
        code, out, err = self.verify(capsys, tmp_path, fano_file,
                                     sets=[list(range(14))])
        assert code == 2 and "edge" in err and out == ""

    def test_out_of_range_member_exits_2(self, tmp_path, fano_file, capsys):
        code, _, err = self.verify(capsys, tmp_path, fano_file,
                                   sets=[[0, 1], [3, 14]])
        assert code == 2 and "outside the graph" in err

    def test_zero_denominator_p_exits_2(self, tmp_path, fano_file, capsys):
        code, _, err = self.verify(capsys, tmp_path, fano_file, p="1/0")
        assert code == 2 and "malformed family" in err

    def test_non_fraction_p_exits_2(self, tmp_path, fano_file, capsys):
        code, _, err = self.verify(capsys, tmp_path, fano_file, p="0.25")
        assert code == 2 and "malformed family" in err

    @pytest.mark.parametrize("p,d", [
        ("2/8", 3),             # the right value, not in lowest terms
        ("1/3", 2.0),           # an integral float passes the schema
        ("1/4", 10 ** 4300 - 1),  # d + 1 is too long for Python to print
    ], ids=["unreduced", "float-d", "d-plus-one-unprintable"])
    def test_p_other_than_one_over_d_plus_one_exits_2(
            self, tmp_path, fano_file, capsys, p, d):
        code, out, err = self.verify(capsys, tmp_path, fano_file, p=p, d=d)
        assert code == 2 and out == ""
        assert "malformed family file: p is not 1/(d+1)" in err

    def test_schema_violation_exits_2(self, tmp_path, fano_file, capsys):
        code, _, err = self.verify(capsys, tmp_path, fano_file, k="2")
        assert code == 2 and "malformed family" in err

    @pytest.mark.parametrize("fields", [
        {"k": 2.0}, {"delta": math.nan}, {"seed": 1e20}, {"seed": -1}],
        ids=repr)
    def test_header_no_family_holds_exits_2(self, tmp_path, fano_file,
                                            capsys, fields):
        code, out, err = self.verify(capsys, tmp_path, fano_file, **fields)
        assert code == 2 and out == "" and "malformed family file" in err

    def test_huge_member_index_exits_2_quickly(self, tmp_path, fano_file,
                                                capsys):
        started = time.monotonic()
        code, _, err = self.verify(capsys, tmp_path, fano_file,
                                   sets=[[0], [3, 10 ** 10]])
        assert code == 2 and "outside the graph" in err
        assert time.monotonic() - started < 5

    @pytest.mark.parametrize("data", [b"\xff\xfe{", b"[" * 200000],
                             ids=["not-utf-8", "nested-brackets"])
    def test_undecodable_family_file_exits_2(self, tmp_path, fano_file,
                                             capsys, data):
        fam = tmp_path / "bad.json"
        fam.write_bytes(data)
        code, out, err = run(capsys, "cover", "verify", "--in", fano_file,
                             "--k", "2", "--family", str(fam))
        assert code == 2 and out == "" and "malformed family file" in err

    def test_non_integer_member_exits_2(self, tmp_path, fano_file, capsys):
        code, _, err = self.verify(capsys, tmp_path, fano_file,
                                   sets=[[0, 1.5]])
        assert code == 2 and "ascending array" in err


def test_family_hash_matches_library(tmp_path, capsys):
    g = gen_levi(2)
    path = tmp_path / "fano.g"
    path.write_text(write_graph(g))
    fam = tmp_path / "fam.json"
    run(capsys, "cover", "build", "--in", str(path), "--k", "1",
        "--delta", "0.1", "--seed", "0", "--out", str(fam))
    doc = json.loads(fam.read_text())
    assert doc["graph_hash"] == graph_hash(g)
