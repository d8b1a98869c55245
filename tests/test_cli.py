"""Command-line interface: JSON output, determinism, and exit codes."""

import json
import math
import re
import subprocess
import sys

import pytest

from graphpoly.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, json.loads(out) if out.strip() else None


class TestCompute:
    def test_char_of_family(self, capsys):
        code, rep = run_cli(capsys, "compute", "--poly", "char",
                            "--graph", "family:cycle:4")
        assert code == 0
        assert rep["result"] == "0 0 -4 0 1"
        assert rep["schema_version"] == 1
        assert rep["graph"] == "cycle:4"

    def test_dom_fixture(self, capsys):
        code, rep = run_cli(capsys, "compute", "--poly", "dom",
                            "--graph", "family:clique:2")
        assert code == 0
        assert rep["result"] == "0 2 1"

    def test_tutte_of_path_is_bivariate(self, capsys):
        code, rep = run_cli(capsys, "compute", "--poly", "tutte",
                            "--graph", "family:path:4")
        assert code == 0
        assert rep["result"] == "0;0;0;1"

    def test_tutte_of_clique_7(self, capsys):
        code, rep = run_cli(capsys, "compute", "--poly", "tutte",
                            "--graph", "family:clique:7")
        assert code == 0
        rows = [[int(c) for c in row.split()]
                for row in rep["result"].split(";")]
        assert sum(c * 2 ** (i + j) for i, row in enumerate(rows)
                   for j, c in enumerate(row)) == 2 ** 21

    def test_graph_from_file(self, capsys, tmp_path):
        path = tmp_path / "triangle.txt"
        path.write_text("3 3\n0 1\n0 2\n1 2\n")
        code, rep = run_cli(capsys, "compute", "--poly", "chrom",
                            "--graph", str(path))
        assert code == 0
        assert rep["result"] == "0 2 -3 1"

    def test_span_closure_note(self, capsys):
        code, rep = run_cli(capsys, "compute", "--poly", "span:cycle:3",
                            "--graph", "family:cycle:3")
        assert code == 0
        assert any("closure" in note for note in rep.get("notes", []))

    def test_degenerate_family_note(self, capsys):
        code, rep = run_cli(capsys, "compute", "--poly", "char",
                            "--graph", "family:cyclesq:4")
        assert code == 0
        assert any("degenerates" in note for note in rep.get("notes", []))


class TestOrtho:
    def test_laguerre(self, capsys):
        code, rep = run_cli(capsys, "ortho", "--family", "L", "--n", "3")
        assert code == 0
        assert rep["result"] == "1 -3 3/2 -1/6"

    def test_chebyshev(self, capsys):
        code, rep = run_cli(capsys, "ortho", "--family", "T", "--n", "3")
        assert rep["result"] == "0 -3 0 4"


class TestFit:
    def test_path_characteristic(self, capsys):
        code, rep = run_cli(capsys, "fit", "--poly", "char",
                            "--family", "path:1..12",
                            "--max-order", "3", "--max-deg", "2")
        assert code == 0
        assert rep["found"] and rep["q"] == 2 and rep["d"] == 1
        assert rep["coeffs"] == ["-1", "0 1"]
        assert rep["verified_terms"] == 12

    def test_not_found(self, capsys):
        code, rep = run_cli(capsys, "fit", "--poly", "chrom",
                            "--family", "clique:1..14",
                            "--max-order", "4", "--max-deg", "4")
        assert code == 0
        assert rep["found"] is False

    def test_independence_of_ladders(self, capsys):
        # I(L_n) = trace(T^n) for the 3-state transfer matrix of a rung
        code, rep = run_cli(capsys, "fit", "--poly", "indep",
                            "--family", "ladder:3..24",
                            "--max-order", "3", "--max-deg", "2")
        assert code == 0
        assert rep["found"] is True and rep["q"] == 3
        assert rep["coeffs"] == ["0 0 1", "0 2 1", "1"]

    def test_domination_of_cycles(self, capsys):
        # Kotek et al. 2012: D(C_n) = X (D(C_(n-1)) + D(C_(n-2)) + D(C_(n-3)))
        code, rep = run_cli(capsys, "fit", "--poly", "dom",
                            "--family", "cycle:3..40",
                            "--max-order", "3", "--max-deg", "2")
        assert code == 0
        assert rep["found"] is True
        assert rep["coeffs"] == ["0 1", "0 1", "0 1"]

    def test_matchings_of_cycles(self, capsys):
        # mu(C_n) = X mu(C_(n-1)) - mu(C_(n-2)), the Chebyshev recurrence
        code, rep = run_cli(capsys, "fit", "--poly", "mu",
                            "--family", "cycle:3..60",
                            "--max-order", "2", "--max-deg", "1")
        assert code == 0
        assert rep["found"] is True and rep["q"] == 2
        assert rep["coeffs"] == ["-1", "0 1"]

    def test_two_index_family_runs_along_the_diagonal(self, capsys):
        code, rep = run_cli(capsys, "fit", "--poly", "mu",
                            "--family", "cbipartite:1..8",
                            "--max-order", "2", "--max-deg", "2")
        assert code == 0
        assert rep["terms"] == 8


class TestRecognize:
    def test_brute(self, capsys, tmp_path):
        path = tmp_path / "mu.txt"
        path.write_text("0 -3 0 1\n")
        code, rep = run_cli(capsys, "recognize", "--poly", "mu",
                            "--input", str(path))
        assert code == 0
        assert rep["method"] == "brute"
        assert rep["count"] == 1
        assert rep["matches"] == ["3 3\n0 1\n0 2\n1 2\n"]

    def test_brute_bivariate(self, capsys, tmp_path):
        path = tmp_path / "tutte.txt"
        path.write_text("0 1;1 0;1 0\n")   # tutte(K_3)
        code, rep = run_cli(capsys, "recognize", "--poly", "tutte",
                            "--input", str(path), "--bound", "4")
        assert code == 0
        assert (rep["bound"], rep["count"]) == (4, 2)
        assert rep["matches"] == ["3 3\n0 1\n0 2\n1 2\n",
                                  "4 3\n0 2\n0 3\n2 3\n"]

    def test_family_route(self, capsys, tmp_path):
        path = tmp_path / "he5.txt"
        path.write_text("0 15 0 -10 0 1\n")
        code, rep = run_cli(capsys, "recognize", "--poly", "mu",
                            "--input", str(path), "--family", "clique")
        assert code == 0
        assert rep["index"] == 5
        assert rep["uniqueness_assumed"] is True

    def test_family_route_complete_bipartite(self, capsys, tmp_path):
        path = tmp_path / "k33.txt"
        path.write_text("-6 0 18 0 -9 0 1\n")   # mu(K_{3,3})
        code, rep = run_cli(capsys, "recognize", "--poly", "mu",
                            "--input", str(path), "--family", "cbipartite")
        assert code == 0
        assert rep["found"] is True
        assert rep["index"] == 3

    @pytest.mark.parametrize("bound", ["0", "-2"])
    def test_bound_below_one_is_an_input_error(self, capsys, tmp_path, bound):
        path = tmp_path / "indep.txt"
        path.write_text("1 3 1\n")   # indep(P_3)
        code = main(["recognize", "--poly", "indep", "--input", str(path),
                     "--bound", bound])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"got {bound}" in captured.err


class TestSuites:
    def test_dom(self, capsys):
        code, rep = run_cli(capsys, "suite", "--name", "dom")
        assert code == 0
        assert rep["all_contradict"] is True

    def test_identities(self, capsys):
        code, rep = run_cli(capsys, "suite", "--name", "identities",
                            "--n-max", "8")
        assert code == 0
        assert rep["identities_hold"] is True

    def test_incomparability(self, capsys):
        code, rep = run_cli(capsys, "suite", "--name", "incomparability",
                            "--variant", "ind", "--i", "3", "--j", "5")
        assert code == 0
        assert rep["all_ok"] and rep["mutual_refutation"]

    def test_sdp_complement(self, capsys):
        code, rep = run_cli(capsys, "suite", "--name", "sdp-complement",
                            "--prop", "edgeless", "--kind", "ind",
                            "--bound", "5")
        assert code == 0
        assert rep["equivalent_up_to_bound"] is True

    def test_missing_suite_flag(self, capsys):
        code = main(["suite", "--name", "incomparability"])
        assert code == 2


class TestMaxclBuild:
    def test_order_over_the_bound_exits_3(self, capsys, tmp_path):
        path = tmp_path / "profile.txt"
        path.write_text("0 1025\n")
        assert main(["maxcl-build", "--input", str(path)]) == 3
        err = capsys.readouterr().err
        assert "order 1025" in err and "1024" in err
        assert "vertex-subset" not in err

    def test_cap_n_reaches_the_reverification(self, capsys, tmp_path):
        # eleven disjoint edges: 22 vertices, over the default cap of 20
        path = tmp_path / "profile.txt"
        path.write_text("0 0 11\n")
        assert main(["maxcl-build", "--input", str(path)]) == 3
        assert "got 22" in capsys.readouterr().err
        code, rep = run_cli(capsys, "maxcl-build", "--input", str(path),
                            "--cap-n", "30")
        assert code == 0
        assert rep["verified"] is True
        assert rep["graph"].startswith("22 11\n")


class TestCompare:
    def test_witness_serialization(self, capsys):
        code, rep = run_cli(capsys, "compare", "--p", "chrom", "--q", "tutte",
                            "--mode", "dp", "--bound", "4")
        assert code == 0
        assert rep["p_le_q"]["refuted"] is True
        assert rep["p_le_q"]["witness"] == ["1 0\n", "2 0\n"]
        assert rep["q_le_p"]["refuted"] is False

    def test_bound_below_one_is_an_input_error(self, capsys):
        for bound in ("0", "-3"):
            code = main(["compare", "--p", "chrom", "--q", "indep",
                         "--mode", "dp", "--bound", bound])
            assert code == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert f"got {bound}" in captured.err


class TestEnumerate:
    def test_count_only(self, capsys):
        code, rep = run_cli(capsys, "enumerate", "--n", "4", "--count-only")
        assert code == 0
        assert rep["count"] == 11

    def test_listing(self, capsys):
        code, rep = run_cli(capsys, "enumerate", "--n", "3")
        assert code == 0
        assert rep["count"] == 4
        assert len(rep["graphs"]) == 4


class TestDeterminismAndErrors:
    def test_byte_identical_modulo_timing(self, capsys):
        argv = ["compute", "--poly", "chrom", "--graph", "family:wheel:4"]
        code1 = main(argv)
        out1 = capsys.readouterr().out
        code2 = main(argv)
        out2 = capsys.readouterr().out
        assert code1 == code2 == 0
        a, b = json.loads(out1), json.loads(out2)
        a.pop("elapsed_ms"), b.pop("elapsed_ms")
        assert a == b

    # stdout recorded before the arithmetic layer moved from Fraction to int
    # coefficients, elapsed_ms zeroed; rationals must still print as num/den
    _CAPS = ('"caps": {"enum_n": 7, "partition_n": 10, "subset_m": 20, '
             '"subset_n": 20}')
    RECORDED = [
        ("ortho --family L --n 6",
         '{' + _CAPS + ', "command": "ortho", "elapsed_ms": 0, '
         '"family": "L", "jobs": 1, "n": 6, '
         '"result": "1 -6 15/2 -10/3 5/8 -1/20 1/720", "schema_version": 1}'),
        ("compute --poly genchrom:connected --graph family:ladder:4",
         '{' + _CAPS + ', "command": "compute", "elapsed_ms": 0, '
         '"graph": "ladder:4", "jobs": 1, "poly": "genchrom:connected", '
         '"result": "0 -1068 2938 -3226 1884 -648 136 -16 1", '
         '"schema_version": 1}'),
        ("fit --poly chrom --family ladder:3..16 --max-order 4 --max-deg 4",
         '{' + _CAPS + ', "coeffs": ["-9 21 -18 7 -1", "24 -43 29 -9 1", '
         '"-22 27 -12 2", "8 -5 1"], "command": "fit", "d": 4, '
         '"elapsed_ms": 0, "family": "ladder:3..16", "found": true, '
         '"holdout": 3, "jobs": 1, "max_deg": 4, "max_order": 4, '
         '"poly": "chrom", "q": 4, "schema_version": 1, '
         '"seeds": ["0 -26 67 -67 34 -9 1", '
         '"0 -133 423 -572 441 -214 66 -12 1", '
         '"0 -564 2146 -3670 3795 -2651 1303 -450 105 -15 1", '
         '"0 -2183 9700 -20080 26020 -23640 15823 -7936 2970 -810 153 -18 '
         '1"], "terms": 14, "verified_terms": 14}'),
        # the suites build these reports as dicts; the bytes pin their schema
        ("suite --name dom",
         '{"all_contradict": true, "branches": [{"argument": '
         '"coefficient of X on the two-vertex graphs", "cases": '
         '[{"clash": true, "lhs": 2, "name": "singleton-in-class, '
         'empty pair", "rhs": 0}, {"clash": true, "lhs": 0, "name": '
         '"singleton-not-in-class, one-edge pair", "rhs": 2}], '
         '"name": "subset", "ok": true}, {"argument": "coefficient of '
         'X on the one-edge graph", "cases": [{"clash": true, "lhs": '
         '1, "name": "edge-graph-in-class", "rhs": 2}, {"clash": '
         'true, "lhs": 0, "name": "edge-graph-not-in-class", "rhs": '
         '2}], "name": "spanning", "ok": true}, {"argument": '
         '"evaluation at one color on the one-edge graph", "cases": '
         '[{"clash": true, "lhs": 1, "name": "edge-graph-in-class", '
         '"rhs": 3}, {"clash": true, "lhs": 0, "name": '
         '"edge-graph-not-in-class", "rhs": 3}], "name": "partition", '
         '"ok": true}], ' + _CAPS
         + ', "command": "suite", "elapsed_ms": 0, "jobs": 1, '
         '"schema_version": 1, "suite": "dom"}'),
        ("suite --name identities --n-max 5 --bipartite-max 2",
         '{' + _CAPS
         + ', "command": "suite", "elapsed_ms": 0, "identities_hold": '
         'true, "items": [{"checked": [3, 4, 5], "failures": [], '
         '"name": "cycle-chebyshev-t", "ok": true}, {"checked": [1, '
         '2, 3, 4, 5], "failures": [], "name": "path-chebyshev-u", '
         '"ok": true}, {"checked": [1, 2, 3, 4, 5], "failures": [], '
         '"name": "clique-hermite", "ok": true}, {"checked": [1, 2], '
         '"failures": [], "name": "bipartite-laguerre", "ok": true}, '
         '{"checked": [1, 2], "failures": [2], "name": '
         '"bipartite-laguerre-unscaled", "ok": false}], "jobs": 1, '
         '"schema_version": 1, "suite": "identities"}'),
        ("suite --name incomparability --variant genchrom --i 3 --j 4",
         '{"all_ok": true, ' + _CAPS
         + ', "checks": [{"actual": "0 1", "expected": "0 1", "name": '
         '"own-i-first", "ok": true}, {"actual": "0 -1 1", '
         '"expected": "0 -1 1", "name": "own-i-second", "ok": true}, '
         '{"actual": "0", "expected": "0", "name": "cross-i-first", '
         '"ok": true}, {"actual": "0", "expected": "0", "name": '
         '"cross-i-second", "ok": true}, {"actual": "0 -1 1", '
         '"expected": "0 -1 1", "name": "own-j-first", "ok": true}, '
         '{"actual": "0", "expected": "0", "name": "own-j-second", '
         '"ok": true}, {"actual": "0", "expected": "0", "name": '
         '"cross-j-first", "ok": true}, {"actual": "0", "expected": '
         '"0", "name": "cross-j-second", "ok": true}], "command": '
         '"suite", "elapsed_ms": 0, "i": 3, "j": 4, "jobs": 1, "k": '
         '2, "mutual_refutation": true, "pair_shape_i": '
         '"single-vs-copies", "pair_shape_j": "copies-vs-tailed", '
         '"schema_version": 1, "suite": "incomparability", "variant": '
         '"genchrom"}'),
        ("suite --name sdp-complement --kind span --prop match --bound 4",
         '{' + _CAPS
         + ', "closure_note": "closure under isolated vertices verified '
         'up to order 4", "command": "suite", "elapsed_ms": 0, '
         '"equivalent_up_to_bound": true, "jobs": 1, "kind": "span", '
         '"mode": "sdp", "prop": "match_like", "report": {"bound": 4, '
         '"mode": "sdp", "p": "span:match_like", "p_le_q": '
         '{"refuted": false}, "q": "span:not(match_like)", "q_le_p": '
         '{"refuted": false}}, "schema_version": 1, "suite": '
         '"sdp-complement"}'),
        ("suite --name sdp-complement --kind genchrom "
         "--prop connected --bound 3",
         '{' + _CAPS
         + ', "command": "suite", "elapsed_ms": 0, '
         '"equivalent_up_to_bound": false, "jobs": 1, "kind": '
         '"genchrom", "mode": "dp", "prop": "connected", "report": '
         '{"bound": 3, "mode": "dp", "p": "genchrom:connected", '
         '"p_le_q": {"refuted": true, "witness": ["1 0\\n", "2 1\\n0 '
         '1\\n"]}, "q": "genchrom:not(connected)", "q_le_p": '
         '{"refuted": false}}, "schema_version": 1, "suite": '
         '"sdp-complement"}'),
    ]

    @pytest.mark.parametrize("command, recorded", RECORDED)
    def test_output_matches_the_recorded_bytes(self, capsys, command,
                                               recorded):
        assert main(command.split()) == 0
        out = capsys.readouterr().out
        assert re.sub(r'"elapsed_ms": \d+', '"elapsed_ms": 0', out) \
            == recorded + "\n"

    def test_screen_matches_the_recorded_bytes(self, capsys, tmp_path):
        path = tmp_path / "p.txt"
        path.write_text("0 2 -3 1\n")
        assert main(["screen", "--input", str(path)]) == 0
        out = capsys.readouterr().out
        assert re.sub(r'"elapsed_ms": \d+', '"elapsed_ms": 0', out) == (
            '{"all_pass": true, ' + self._CAPS
            + ', "checks": [{"name": "integer-coefficients", "ok": true}, '
            '{"name": "monic", "ok": true}, '
            '{"name": "zero-constant-term", "ok": true}, '
            '{"name": "alternating-signs", "ok": true}, '
            '{"name": "unimodal", "ok": true}, '
            '{"name": "log-concave", "ok": true}], "command": "screen", '
            '"elapsed_ms": 0, "input": "0 2 -3 1", "jobs": 1, '
            '"schema_version": 1}\n')

    def test_input_error_exit_2(self, capsys):
        code = main(["compute", "--poly", "char",
                     "--graph", "family:torus:5"])
        assert code == 2
        assert "error" in capsys.readouterr().err

    def test_cap_error_exit_3(self, capsys):
        code = main(["enumerate", "--n", "9"])
        assert code == 3

    def test_order_bound_exit_3(self, capsys, tmp_path):
        from graphpoly.graph import MAX_ORDER
        path = tmp_path / "big.txt"
        path.write_text(f"{MAX_ORDER + 1} 0\n")
        for argv in (["compute", "--poly", "mu", "--graph", str(path)],
                     ["compute", "--poly", "mu",
                      "--graph", f"family:cycle:{MAX_ORDER + 1}"],
                     ["ortho", "--family", "T", "--n", str(MAX_ORDER + 1)]):
            assert main(argv) == 3
            err = capsys.readouterr().err
            assert str(MAX_ORDER + 1) in err and str(MAX_ORDER) in err

    def test_cap_override(self, capsys):
        code = main(["compute", "--poly", "ind:connected",
                     "--graph", "family:path:4", "--cap-n", "3"])
        assert code == 3
        capsys.readouterr()
        code2, rep2 = run_cli(capsys, "compute", "--poly", "ind:connected",
                              "--graph", "family:path:4", "--cap-n", "10")
        assert code2 == 0
        assert rep2["result"] == "0 4 3 2 1"
        assert rep2["caps"]["enum_n"] == rep2["caps"]["subset_n"] == 10

    @pytest.mark.parametrize("poly, graph, flag, size, message", [
        # K_6 has 15 edges, and no sweep counts span:cycle:3
        ("span:cycle:3", "family:clique:6", "--cap-m", 15,
         "edge-subset sum capped at m <= 14, got 15"),
        ("genchrom:connected", "family:path:6", "--cap-partition", 6,
         "partition polynomials capped at n <= 5, got 6"),
    ], ids=["cap-m", "cap-partition"])
    def test_edge_and_partition_caps(self, capsys, poly, graph, flag, size,
                                     message):
        argv = ["compute", "--poly", poly, "--graph", graph, flag]
        assert main(argv + [str(size - 1)]) == 3
        assert message in capsys.readouterr().err
        code, rep = run_cli(capsys, *argv, str(size))
        assert code == 0
        field = {"--cap-m": "subset_m", "--cap-partition": "partition_n"}
        assert rep["caps"] == {"enum_n": 7, "subset_n": 20, "subset_m": 20,
                               "partition_n": 10, field[flag]: size}

    def test_vertex_sweeps_ignore_the_vertex_cap(self, capsys):
        for kind, result in (("indep", "1 4 3"), ("dom", "0 0 4 4 1"),
                             ("ind:edgeless", "1 4 3"),
                             ("ind:forest", "0 4 6 4 1"),
                             ("mu", "1 0 -3 0 1"), ("mgen", "1 3 1")):
            code, rep = run_cli(capsys, "compute", "--poly", kind,
                                "--graph", "family:path:4", "--cap-n", "3")
            assert code == 0, kind
            assert rep["result"] == result, kind

    @pytest.mark.parametrize("kind", ["ind:connected", "maxcl"])
    def test_subset_loops_keep_the_vertex_cap(self, capsys, kind):
        # ladder:11 has 22 vertices, over the default cap of 20
        code = main(["compute", "--poly", kind,
                     "--graph", "family:ladder:11"])
        assert code == 3
        err = capsys.readouterr().err
        assert "capped at n <= 20, got 22" in err
        loop = {"ind:connected": "vertex-subset sum",
                "maxcl": "maximal-clique search"}[kind]
        assert f"{loop} capped" in err

    def test_induced_forests_of_a_24_vertex_ladder(self, capsys):
        code, rep = run_cli(capsys, "compute", "--poly", "ind:forest",
                            "--graph", "family:ladder:12")
        assert code == 0
        coeffs = [int(c) for c in rep["result"].split()]
        # the circular ladder is bipartite and its only 4-cycles are the 12
        # squares; two squares share at most two vertices, so no set of
        # five or fewer vertices holds two of them
        assert coeffs[:6] == [0, 24, math.comb(24, 2), math.comb(24, 3),
                              math.comb(24, 4) - 12,
                              math.comb(24, 5) - 12 * 20]

    def test_wide_sweep_exits_3_in_bounded_memory(self):
        # the domination counts of a 20x20 grid outgrow the count-bit cap
        # long before the state cap; 1 GiB of address space is ample
        import resource
        limit = 1 << 30

        def cap_memory():
            resource.setrlimit(resource.RLIMIT_AS, (limit, limit))

        proc = subprocess.run(
            [sys.executable, "-m", "graphpoly", "compute", "--poly", "dom",
             "--graph", "family:grid:20x20"],
            capture_output=True, text=True, timeout=300,
            preexec_fn=cap_memory)
        assert proc.returncode == 3
        assert "domination frontier sweep reached" in proc.stderr
        assert "count bits" in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_negative_cap_exit_2(self, capsys):
        for flag in ("--cap-n", "--cap-m", "--cap-partition"):
            code = main(["enumerate", "--n", "3", flag, "-1"])
            assert code == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert flag in captured.err

    def test_argparse_rejects_unknown_flag(self):
        with pytest.raises(SystemExit) as exc:
            main(["compute", "--poly", "char", "--graph", "family:path:3",
                  "--tolerance", "0.1"])
        assert exc.value.code == 2

    def test_console_script(self):
        proc = subprocess.run(
            [sys.executable, "-m", "graphpoly", "ortho",
             "--family", "He", "--n", "4"],
            capture_output=True, text=True)
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["result"] == "3 0 -6 0 1"

    def test_closed_stdout_exits_1_without_traceback(self):
        proc = subprocess.Popen(
            [sys.executable, "-m", "graphpoly", "compute", "--poly", "tutte",
             "--graph", "family:clique:7"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
        proc.stdout.close()            # the reader is gone before any write
        err = proc.stderr.read()
        proc.stderr.close()
        assert proc.wait(timeout=60) == 1
        assert "Traceback" not in err
        assert "BrokenPipeError" not in err
