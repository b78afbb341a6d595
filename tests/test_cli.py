import json
import time

import pytest

from levicover import Graph, gen_levi, graph_hash, parse_graph, write_graph
from levicover.cli import main
from levicover.schemas import (validate_bounds_report, validate_family,
                               validate_run_report)


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
        text = path.read_text()
        assert text.startswith("14 21 7\n")
        assert parse_graph(text) == gen_levi(2)

    def test_q3_summary(self, tmp_path, capsys):
        path = tmp_path / "g3.g"
        code, out, _ = run(capsys, "gen", "--q", "3", "--out", str(path))
        assert code == 0 and out.strip() == "26 52 13"

    def test_non_prime_exits_2(self, capsys):
        code, _, err = run(capsys, "gen", "--q", "4")
        assert code == 2 and "prime" in err

    def test_stdout_when_no_outfile(self, capsys):
        code, out, err = run(capsys, "gen", "--q", "2")
        assert code == 0
        assert out.startswith("14 21 7\n")
        assert "14 21 7" in err


class TestVerify:
    def test_levi_props_and_c4free(self, capsys):
        code, out, _ = run(capsys, "verify", "--q", "2",
                           "--checks", "levi-props,c4free",
                           "--no-timestamp")
        assert code == 0
        doc = json.loads(out)
        validate_run_report(doc)
        assert doc["outcome"] == "pass"
        assert [c["name"] for c in doc["checks"]] == ["levi-props", "c4free"]

    def test_degeneracy_from_file(self, tmp_path, capsys):
        path = tmp_path / "fano.g"
        path.write_text(write_graph(gen_levi(2)))
        code, out, _ = run(capsys, "verify", "--in", str(path),
                           "--checks", "degeneracy", "--no-timestamp")
        assert code == 0
        doc = json.loads(out)
        validate_run_report(doc)
        chk = doc["checks"][0]
        assert chk["observed"] == 3 and chk["expected"] == 4

    def test_all_checks_pass_on_plane3(self, capsys):
        code, out, _ = run(capsys, "verify", "--q", "3", "--checks",
                           "levi-props,c4free,degeneracy,expansion,"
                           "product,balanced,coverbound",
                           "--samples", "200", "--no-timestamp")
        assert code == 0
        validate_run_report(json.loads(out))

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
    def test_maximal_set_budget_exits_3(self, check, capsys):
        # the reduced path at q=3 takes 135 Bron-Kerbosch calls
        code, _, err = run(capsys, "verify", "--q", "3", "--checks", check,
                           "--budget", "134", "--no-timestamp")
        assert code == 3 and "budget" in err

    def test_uncertified_plane_file_takes_full_path(self, tmp_path, capsys):
        # without its last edge the plane holds a 4 + 4 independent set,
        # which no maximal set through points 0 and 1 reaches (those top
        # out at a*b = 15)
        g = gen_levi(3)
        path = tmp_path / "cut.g"
        path.write_text(write_graph(Graph.from_edges(
            g.n, list(g.edges())[:-1], side_p_size=g.side_p_size)))
        code, out, _ = run(capsys, "verify", "--in", str(path), "--checks",
                           "product,coverbound", "--no-timestamp")
        assert code == 0
        assert [c["observed"] for c in json.loads(out)["checks"]] == [16, 16]

    @pytest.mark.parametrize("budget,code", [("156", 0), ("155", 3)])
    def test_expansion_budget(self, budget, code, capsys):
        # 7 + 21 sets of one or two vertices per side, then 100 samples
        got, _, err = run(capsys, "verify", "--q", "2", "--checks",
                          "expansion", "--samples", "100", "--budget",
                          budget, "--no-timestamp")
        assert got == code and ("budget" in err) == (code == 3)

    def test_negative_samples_exits_2(self, capsys):
        code, out, err = run(capsys, "verify", "--q", "2", "--checks",
                             "expansion", "--samples", "-5",
                             "--no-timestamp")
        assert code == 2 and "non-negative" in err and out == ""

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

    @pytest.mark.parametrize("flag", ["--seed", "--budget"])
    def test_negative_seed_or_budget_exits_2(self, flag, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--q", "2", "--checks", "expansion", flag, "-1"])
        assert exc.value.code == 2
        assert "non-negative" in capsys.readouterr().err

    def test_timestamp_present_by_default(self, capsys):
        _, out, _ = run(capsys, "verify", "--q", "2", "--checks", "c4free")
        doc = json.loads(out)
        validate_run_report(doc)
        assert "timestamp" in doc and "duration_s" in doc


class TestBounds:
    def test_exact_fano(self, capsys):
        code, out, _ = run(capsys, "bounds", "--q", "2", "--k", "2",
                           "--exact")
        assert code == 0
        doc = json.loads(out)
        validate_bounds_report(doc)
        assert doc["measured_balanced_count"] == 28
        assert doc["measured_max_capacity"] == 4
        assert doc["exact_cover_lower_bound"] == 7
        assert doc["balanced_count_lower_bound"] == "49/16"

    def test_k_above_q_exits_2(self, capsys):
        code, _, err = run(capsys, "bounds", "--q", "2", "--k", "4")
        assert code == 2 and "at most q" in err

    @pytest.mark.parametrize("budget", ["10", "13"])
    def test_budget_exceeded_exits_3(self, budget, capsys):
        # 13 balanced-count steps fit a budget of 13; the maximal-set
        # enumeration then runs out
        code, out, err = run(capsys, "bounds", "--q", "3", "--k", "2",
                             "--exact", "--budget", budget)
        assert code == 3 and out == "" and "budget" in err

    def test_negative_budget_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["bounds", "--q", "2", "--k", "2", "--exact",
                  "--budget", "-5"])
        assert exc.value.code == 2
        assert "non-negative" in capsys.readouterr().err

    def test_formula_only_large_q(self, capsys):
        code, out, _ = run(capsys, "bounds", "--q", "101", "--k", "4")
        assert code == 0
        doc = json.loads(out)
        validate_bounds_report(doc)
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
        validate_family(json.loads(open(fam).read()))
        code, out, _ = run(capsys, "cover", "verify", "--in", fano_file,
                           "--k", "2", "--family", fam, "--no-timestamp")
        assert code == 0
        doc = json.loads(out)
        validate_run_report(doc)
        assert doc["outcome"] == "pass"

    def test_greedy_size(self, fano_file, capsys):
        code, out, err = run(capsys, "cover", "greedy", "--in", fano_file,
                             "--k", "2")
        assert code == 0
        doc = json.loads(out)
        validate_family(doc)
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
        fam = str(tmp_path / "fam.json")
        run(capsys, "cover", "build", "--in", fano_file, "--k", "2",
            "--delta", "0.01", "--seed", "1", "--out", fam)
        code, _, _ = run(capsys, "cover", "verify", "--in", fano_file,
                         "--k", "2", "--family", fam, "--budget", "3")
        assert code == 3

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

    def test_sample_count_over_budget_exits_3(self, fano_file, tmp_path,
                                              capsys):
        fam = tmp_path / "fam.json"
        code, _, err = run(capsys, "cover", "build", "--in", fano_file,
                           "--k", "2", "--delta", "0.001", "--seed", "0",
                           "--out", str(fam), "--budget", "1000")
        assert code == 3 and "t=1020" in err
        assert not fam.exists()


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

    def test_schema_violation_exits_2(self, tmp_path, fano_file, capsys):
        code, _, err = self.verify(capsys, tmp_path, fano_file, k="2")
        assert code == 2 and "malformed family" in err

    def test_huge_member_index_exits_2_quickly(self, tmp_path, fano_file,
                                                capsys):
        started = time.monotonic()
        code, _, err = self.verify(capsys, tmp_path, fano_file,
                                   sets=[[0], [3, 10 ** 10]])
        assert code == 2 and "outside the graph" in err
        assert time.monotonic() - started < 5

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
