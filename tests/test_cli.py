import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from barriercover import cli, gen_random, harness, scale_instance
from barriercover.cli import main
from barriercover.fileio import parse_instance, parse_solution, serialize_instance

from conftest import fresh_python

CORPORA = Path(__file__).resolve().parent.parent / "corpora"
I1_TEXT = "L 4\nN 2\n0 1\n5 1\n"


@pytest.fixture()
def i1_path(tmp_path):
    path = tmp_path / "i1.bc"
    path.write_text(I1_TEXT)
    return str(path)


class TestGen:
    def test_fig5(self, tmp_path, capsys):
        assert main(["gen", "--family", "fig5", "--rho", "2", "--length", "12"]) == 0
        inst = parse_instance(capsys.readouterr().out)
        assert inst.length == 12 and inst.n == 5

    def test_fig5_bad_parameters(self, capsys):
        assert main(["gen", "--family", "fig5", "--rho", "2", "--length", "13"]) == 2

    def test_fig6(self, capsys):
        assert main(
            ["gen", "--family", "fig6", "--rho", "2", "--m", "4", "--delta", "1/8"]
        ) == 0
        inst = parse_instance(capsys.readouterr().out)
        assert inst.n == 5

    def test_random_empty_is_valid(self, capsys):
        assert main(["gen", "--family", "random", "--n", "0", "--length", "5"]) == 0
        inst = parse_instance(capsys.readouterr().out)
        assert inst.n == 0

    def test_past_the_generator_cap_exits_3(self, capsys):
        """Each family one sensor past the cap is refused before a sensor is built."""
        from barriercover.generators import SENSOR_CAP

        n = SENSOR_CAP + 1
        for argv in (["--family", "fig5", "--rho", "1", "--length", str(2 * n)],
                     ["--family", "fig6", "--rho", "2", "--m", str(n - 1), "--delta", f"1/{n}"],
                     ["--family", "random", "--n", str(n), "--length", "12"]):
            assert main(["gen", *argv]) == 3
            captured = capsys.readouterr()
            assert captured.out == ""
            assert f"{n} sensors exceed the generator cap {SENSOR_CAP}" in captured.err

    def test_missing_family_parameter(self, capsys):
        assert main(["gen", "--family", "fig5", "--rho", "2"]) == 2

    def test_exact_cover_with_sidecar(self, tmp_path):
        spec = tmp_path / "ec.json"
        spec.write_text(json.dumps({"m": 2, "sets": [[1], [1, 2], [2]], "k": 2}))
        out = tmp_path / "ec.bc"
        assert main(
            ["gen", "--family", "exact-cover", "--spec", str(spec), "--out", str(out)]
        ) == 0
        inst = parse_instance(out.read_text())
        assert inst.length == 5
        sidecar = json.loads((tmp_path / "ec.bc.meta.json").read_text())
        assert sidecar["B"] == "330" and sidecar["k"] == 2

    def test_exact_cover_requires_out(self, tmp_path):
        spec = tmp_path / "ec.json"
        spec.write_text(json.dumps({"m": 1, "sets": [[1]], "k": 1}))
        assert main(["gen", "--family", "exact-cover", "--spec", str(spec)]) == 2

    @pytest.mark.parametrize("spec", ["missing.json", "."])
    def test_unreadable_spec_is_usage_error(self, spec, tmp_path, capsys):
        path = tmp_path / spec
        args = ["gen", "--family", "exact-cover", "--spec", str(path), "--out", str(tmp_path / "ec.bc")]
        assert main(args) == 2
        assert capsys.readouterr().err.startswith(f"error: cannot read {path}: ")

    @pytest.mark.parametrize("family", [
        ["--family", "random", "--n", "3", "--length", "6"],
        ["--family", "exact-cover", "--spec", str(CORPORA / "e1.json")],
    ])
    def test_out_under_missing_directory_is_usage_error(self, family, tmp_path, capsys):
        out = tmp_path / "missing" / "x.bc"
        assert main(["gen", *family, "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith(f"error: cannot write {out}: ")

    def test_unwritable_sidecar_is_usage_error(self, tmp_path, capsys):
        out = tmp_path / "ec.bc"
        (tmp_path / "ec.bc.meta.json").mkdir()
        spec = str(CORPORA / "e1.json")
        assert main(["gen", "--family", "exact-cover", "--spec", spec, "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith(f"error: cannot write {out}.meta.json: ")


class TestSolve:
    def test_fpt_finds_the_optimum(self, i1_path, capsys):
        assert main(["solve", "--algo", "fpt", "--budget", "3", i1_path]) == 0
        recorded, positions = parse_solution(capsys.readouterr().out)
        assert recorded == 3 and positions == (1, 3)

    def test_dp_exact_absent(self, i1_path):
        assert main(["solve", "--algo", "dp-exact", "--budget", "2", i1_path]) == 1

    def test_dp_exact_huge_budget_finishes(self, capsys):
        path = str(CORPORA / "i1.bc")
        assert main(["solve", "--algo", "dp-exact", "--budget", "20000", path]) == 0
        recorded, _ = parse_solution(capsys.readouterr().out)
        assert recorded == 3

    def test_dp_eps_tiny_eps_hits_the_cell_cap(self, tmp_path, capsys):
        # At eps = 1/100000 every guess runs on the exact grid; the first budget past OPT_op = 23,000
        # is 24,000 steps, a 21 x 24,001 table, and the cap refuses it before the grow.
        path = tmp_path / "scaled.bc"
        path.write_text(serialize_instance(scale_instance(gen_random(20, 40, 1, 3, (-20, 60), 7), 1000)))
        start = time.process_time()
        assert main(["solve", "--algo", "dp-eps", "--eps", "1/100000", str(path)]) == 3
        assert time.process_time() - start < 1
        assert "DP table of 504021 cells exceeds the cap 500000" in capsys.readouterr().err

    def test_dp_eps_tiny_eps_on_the_exact_grid(self, capsys):
        # On i1 every guess up to the hit has q <= 1/d: the exact table stays a few steps wide.
        path = str(CORPORA / "i1.bc")
        start = time.process_time()
        assert main(["solve", "--algo", "dp-eps", "--eps", "1/100000", path]) == 0
        assert time.process_time() - start < 1
        recorded, _ = parse_solution(capsys.readouterr().out)
        assert recorded == 3

    @pytest.mark.parametrize("algo", [["dp-optimal"], ["dp-exact", "--budget", "1"]])
    def test_dp_cell_cap_on_a_grid_past_the_int_str_limit(self, algo, tmp_path, capsys):
        """Sensor i at 2i + 1 + 1/p_i, p_i the i-th prime: d and the cell count pass 4,300 digits.

        The cap's message gives the count's bit length, so the run exits 3,
        not 2 on a ValueError from formatting the count.
        """
        primes = []
        candidate = 2
        while len(primes) < 1300:
            if all(candidate % p for p in primes if p * p <= candidate):
                primes.append(candidate)
            candidate += 1
        n = len(primes)
        lines = [f"L {2 * n}", f"N {n}"] + [f"{(2 * i + 1) * p + 1}/{p} 1" for i, p in enumerate(primes)]
        path = tmp_path / "primes.bc"
        path.write_text("\n".join(lines) + "\n")
        start = time.process_time()
        assert main(["solve", "--algo", *algo, str(path)]) == 3
        assert time.process_time() - start < 2
        assert "-bit number of cells exceeds the cap 500000" in capsys.readouterr().err

    def test_oracle_zero_budget_on_covering_instance(self, tmp_path, capsys):
        path = tmp_path / "cov.bc"
        path.write_text("L 4\nN 2\n1 1\n3 1\n")
        assert main(["solve", "--algo", "oracle", "--budget", "0", str(path)]) == 0
        recorded, _ = parse_solution(capsys.readouterr().out)
        assert recorded == 0

    def test_dp_eps(self, i1_path, capsys):
        assert main(["solve", "--algo", "dp-eps", "--eps", "1/2", i1_path]) == 0
        recorded, _ = parse_solution(capsys.readouterr().out)
        assert 3 <= recorded <= 4.5

    def test_untangle_oracle(self, tmp_path, capsys):
        path = tmp_path / "i2.bc"
        path.write_text("L 12\nN 5\n0 2\n1 1\n3 1\n5 1\n7 1\n")
        assert main(["solve", "--algo", "untangle-oracle", str(path)]) == 0
        recorded, _ = parse_solution(capsys.readouterr().out)
        assert recorded == 18

    def test_infeasible_instance(self, tmp_path):
        path = tmp_path / "bad.bc"
        path.write_text("L 10\nN 1\n0 1\n")
        assert main(["solve", "--algo", "oracle", str(path)]) == 1

    def test_huge_exponent_is_usage_error(self, tmp_path, capsys):
        """A length line whose 10**k would never finish is refused at once (exit 2)."""
        path = tmp_path / "huge.bc"
        path.write_text("L 1e9999999999\nN 0\n")
        assert main(["solve", "--algo", "oracle", str(path)]) == 2
        assert "not a rational number" in capsys.readouterr().err

    def test_unprintable_digits_are_refused_before_solving(self, tmp_path, capsys, monkeypatch):
        """10**4300 has one digit more than the output could print, so the parse refuses it (exit 2)."""
        path = tmp_path / "wide.bc"
        path.write_text("L 4\nN 3\n0 1\n3 1\n1e4300 1\n")
        solved = []
        monkeypatch.setitem(harness.SOLVERS, "dp-optimal", lambda *args: solved.append(args))
        assert main(["solve", "--algo", "dp-optimal", str(path)]) == 2
        assert "not a rational number: '1e4300'" in capsys.readouterr().err
        assert solved == []

    def test_missing_budget_is_usage_error(self, i1_path, capsys):
        """Without --budget, fpt returns the optimum; a negative budget is a usage error."""
        assert main(["solve", "--algo", "fpt", i1_path]) == 0
        assert capsys.readouterr().out.splitlines()[0] == "COST 3"
        assert main(["solve", "--algo", "fpt", "--budget", "-1", i1_path]) == 2

    @pytest.mark.parametrize("text", ["L 10\nN 1\n0 1\n", I1_TEXT], ids=["infeasible", "feasible"])
    @pytest.mark.parametrize("algo", sorted(set(harness.SOLVERS) - {"dp-eps"}))
    def test_negative_budget_is_usage_error_on_any_file(self, algo, text, tmp_path, capsys):
        """A negative --budget is refused before the instance is read, infeasible or not (exit 2)."""
        path = tmp_path / "inst.bc"
        path.write_text(text)
        assert main(["solve", "--algo", algo, "--budget", "-1", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "--budget: must be >= 0, got -1" in captured.err

    def test_non_integer_node_cap_is_usage_error(self, i1_path, capsys):
        assert main(["solve", "--algo", "oracle", "--node-cap", "abc", i1_path]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "invalid int value: 'abc'" in captured.err

    def test_non_integral_input_is_precondition_error(self, tmp_path, capsys):
        """Fractional input is solved on its own grid, not refused."""
        path = tmp_path / "frac.bc"
        path.write_text("L 4\nN 1\n1/3 2\n")
        assert main(["solve", "--algo", "oracle", "--budget", "3", str(path)]) == 0
        assert capsys.readouterr().out == "COST 5/3\n2\n"

    def test_resource_limit_exit_code(self, tmp_path):
        path = tmp_path / "wide.bc"
        path.write_text("L 12\nN 4\n-8 2\n-5 2\n13 2\n16 2\n")
        assert main(
            ["solve", "--algo", "oracle", "--node-cap", "3", str(path)]
        ) == 3

    def test_negative_node_cap_is_usage_error(self, tmp_path, capsys):
        """A negative cap is refused before any search; a cap of 0 still stops the search (exit 3)."""
        path = tmp_path / "wide.bc"
        path.write_text("L 12\nN 4\n-8 2\n-5 2\n13 2\n16 2\n")
        assert main(["solve", "--algo", "oracle", "--node-cap", "-5", str(path)]) == 2
        assert "--node-cap: must be >= 0, got -5" in capsys.readouterr().err
        assert main(["bench", "--dir", str(tmp_path), "--node-cap", "-5"]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "--node-cap: must be >= 0, got -5" in captured.err
        assert main(["solve", "--algo", "oracle", "--node-cap", "0", str(path)]) == 3
        assert "explored more than 0 states" in capsys.readouterr().err

    def test_too_deep_search_exit_code(self, tmp_path, capsys):
        """A deep search cut 1,000 levels down by the node cap exits 3 with the node-cap message."""
        path = tmp_path / "deep.bc"
        sensors = "".join(f"{2 * i + 2} 1\n" for i in range(1100))
        path.write_text(f"L 2199\nN 1100\n{sensors}")
        assert main(["solve", "--algo", "oracle", "--node-cap", "1000", str(path)]) == 3
        assert "explored more than 1000 states" in capsys.readouterr().err

    def test_dp_optimal_name(self, i1_path, capsys):
        assert main(["solve", "--algo", "dp-optimal", i1_path]) == 0
        assert capsys.readouterr().out == "COST 3\n1\n3\n"
        assert main(["solve", "--algo", "dp-optimal", "--budget", "2", i1_path]) == 1

    def test_dp_eps_defaults_to_half(self, tmp_path, capsys):
        path = tmp_path / "i2.bc"
        path.write_text("L 12\nN 5\n0 2\n1 1\n3 1\n5 1\n7 1\n")
        assert main(["solve", "--algo", "dp-eps", str(path)]) == 0
        default = capsys.readouterr().out
        assert main(["solve", "--algo", "dp-eps", "--eps", "1/2", str(path)]) == 0
        assert default == capsys.readouterr().out
        assert parse_solution(default)[0] == 18

    @pytest.mark.parametrize("instance", ["missing.bc", "."])
    def test_unreadable_instance_is_usage_error(self, instance, tmp_path, capsys):
        path = tmp_path / instance
        assert main(["solve", "--algo", "dp-optimal", str(path)]) == 2
        assert capsys.readouterr().err.startswith(f"error: cannot read {path}: ")

    def test_out_under_missing_directory_is_usage_error(self, i1_path, tmp_path, capsys):
        out = tmp_path / "missing" / "sol.txt"
        assert main(["solve", "--algo", "dp-optimal", i1_path, "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith(f"error: cannot write {out}: ")

    def test_output_file(self, i1_path, tmp_path):
        out = tmp_path / "sol.txt"
        assert main(
            ["solve", "--algo", "oracle", "--budget", "5", i1_path, "--out", str(out)]
        ) == 0
        recorded, _ = parse_solution(out.read_text())
        assert recorded == 3


class TestVerify:
    def test_good_solution_within_bounds(self, i1_path, tmp_path, capsys):
        sol = tmp_path / "sol.txt"
        sol.write_text("COST 3\n1\n3\n")
        assert main(["verify", "--max-cost", "3", i1_path, str(sol)]) == 0
        out = capsys.readouterr().out
        assert "covered: yes" in out and "movers: 2" in out

    def test_uncovered_solution_reports_gap(self, i1_path, tmp_path, capsys):
        sol = tmp_path / "sol.txt"
        sol.write_text("COST 0\n0\n5\n")
        assert main(["verify", i1_path, str(sol)]) == 1
        out = capsys.readouterr().out
        assert "covered: no" in out and "gap: (1, 4)" in out

    def test_zero_movers_bound_on_home_solution(self, tmp_path):
        inst = tmp_path / "cov.bc"
        inst.write_text("L 4\nN 2\n1 1\n3 1\n")
        sol = tmp_path / "sol.txt"
        sol.write_text("COST 0\n1\n3\n")
        assert main(["verify", "--max-movers", "0", str(inst), str(sol)]) == 0

    def test_cost_bound_violation(self, i1_path, tmp_path):
        sol = tmp_path / "sol.txt"
        sol.write_text("COST 3\n1\n3\n")
        assert main(["verify", "--max-cost", "2", i1_path, str(sol)]) == 1

    def test_negative_cost_bound_is_usage_error(self, i1_path, tmp_path, capsys):
        """A negative --max-cost is refused before the solution is read, as --node-cap is."""
        sol = tmp_path / "sol.txt"
        sol.write_text("COST 3\n1\n3\n")
        assert main(["verify", "--max-cost", "-1", i1_path, str(sol)]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "--max-cost: must be >= 0, got -1" in captured.err
        assert main(["verify", "--max-cost=-1/2", i1_path, str(sol)]) == 2
        assert "--max-cost: must be >= 0, got -1/2" in capsys.readouterr().err
        assert main(["verify", "--max-cost", "0", i1_path, str(sol)]) == 1
        assert "cost exceeds bound 0" in capsys.readouterr().err

    def test_non_rational_cost_bound_is_usage_error(self, i1_path, tmp_path, capsys):
        sol = tmp_path / "sol.txt"
        sol.write_text("COST 3\n1\n3\n")
        assert main(["verify", "--max-cost", "x", i1_path, str(sol)]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "not a rational number: 'x'" in captured.err

    def test_negative_movers_bound_is_usage_error(self, i1_path, tmp_path, capsys):
        """A negative --max-movers is refused with exit 2; a bound of 0 still applies (exit 1)."""
        sol = tmp_path / "sol.txt"
        sol.write_text("COST 3\n1\n3\n")
        assert main(["verify", "--max-movers", "-1", i1_path, str(sol)]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "--max-movers: must be >= 0, got -1" in captured.err
        assert main(["verify", "--max-movers", "0", i1_path, str(sol)]) == 1
        assert "mover count exceeds bound 0" in capsys.readouterr().err

    def test_corrupt_cost_line(self, i1_path, tmp_path):
        sol = tmp_path / "sol.txt"
        sol.write_text("COST 7\n1\n3\n")
        assert main(["verify", i1_path, str(sol)]) == 2


class TestBench:
    def test_fig5_family_csv(self, tmp_path):
        out = tmp_path / "out.csv"
        assert main(
            ["bench", "--family", "fig5", "--rho", "2", "--lengths", "8,12",
             "--out", str(out)]
        ) == 0
        lines = out.read_text().strip().split("\n")
        assert lines[0] == "instance,algo,status,cost,ref_cost,ratio,time_ms"
        assert len(lines) == 5
        assert any(",dp-optimal,ok,18,10,9/5," in line for line in lines)

    def test_empty_directory_gives_header_only(self, tmp_path, capsys):
        empty = tmp_path / "empty"
        empty.mkdir()
        assert main(["bench", "--dir", str(empty)]) == 0
        out = capsys.readouterr().out
        assert out.strip() == "instance,algo,status,cost,ref_cost,ratio,time_ms"

    def test_missing_directory_is_usage_error(self, tmp_path, capsys):
        missing = tmp_path / "missing"
        assert main(["bench", "--dir", str(missing)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"error: cannot read directory {missing}" in captured.err

    def test_file_as_directory_is_usage_error(self, capsys):
        instance_file = CORPORA / "i1.bc"
        assert main(["bench", "--dir", str(instance_file)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"error: cannot read directory {instance_file}" in captured.err

    def test_directory_mode(self, tmp_path):
        (tmp_path / "a.bc").write_text(I1_TEXT)
        out = tmp_path / "out.csv"
        assert main(
            ["bench", "--dir", str(tmp_path), "--algos", "oracle,fpt",
             "--reference", "oracle", "--out", str(out)]
        ) == 0
        lines = out.read_text().strip().split("\n")
        assert len(lines) == 3
        assert all(",ok,3,3,1," in line for line in lines[1:])

    def test_directory_mode_dp_exact_name(self, tmp_path, capsys):
        (tmp_path / "a.bc").write_text("L 12\nN 5\n0 2\n1 1\n3 1\n5 1\n7 1\n")
        assert main(["bench", "--dir", str(tmp_path), "--algos", "dp-exact,dp-optimal"]) == 0
        lines = capsys.readouterr().out.strip().split("\n")
        assert [line.rsplit(",", 1)[0] for line in lines[1:]] == [
            "a,dp-exact,ok,18,10,9/5",
            "a,dp-optimal,ok,18,10,9/5",
        ]

    def test_unknown_algorithm_is_usage_error(self, tmp_path):
        (tmp_path / "a.bc").write_text(I1_TEXT)
        assert main(["bench", "--dir", str(tmp_path), "--algos", "simplex"]) == 2

    @pytest.mark.parametrize("flag", ["--reference=simplex", "--algos=oracle,simplex"])
    def test_unknown_name_is_refused_before_the_directory_is_read(self, flag, tmp_path, capsys):
        """Even a directory with no .bc file runs no solver, so the names are checked before it is read."""
        empty = tmp_path / "empty"
        empty.mkdir()
        assert main(["bench", "--dir", str(empty), flag]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "error: unknown algorithm 'simplex'" in captured.err

    def test_family_and_dir_conflict(self, tmp_path):
        assert main(["bench", "--family", "fig5", "--dir", str(tmp_path)]) == 2

    @pytest.mark.parametrize("flag, value", [("--algos", "dp-eps"), ("--reference", "dp-eps"), ("--eps", "1/4")])
    def test_family_refuses_dir_only_flags(self, flag, value, capsys):
        """A family sweep runs its own algorithms, so a --dir flag is a usage error, not ignored."""
        assert main(["bench", "--family", "fig5", "--lengths", "8", flag, value]) == 2
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize("mode, flag, value", [
        (["--family", "fig5", "--lengths", "8"], "--ms", "3"),
        (["--family", "fig5", "--lengths", "8"], "--delta", "1/4"),
        (["--family", "fig6", "--ms", "3"], "--lengths", "8"),
        (["--dir", "."], "--lengths", "8"),
        (["--dir", "."], "--ms", "3"),
        (["--dir", "."], "--rho", "3"),
        (["--dir", "."], "--delta", "1/4"),
    ])
    def test_refuses_options_of_the_other_mode(self, mode, flag, value, capsys):
        """A family or directory option given to the other mode is a usage error, not ignored."""
        assert main(["bench", *mode, flag, value]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"{flag} does not go with" in captured.err

    def test_dir_refuses_node_cap_without_a_search(self, tmp_path, capsys):
        """Only oracle, fpt and untangle-oracle read the cap, so a --dir run of the DP alone refuses it."""
        (tmp_path / "a.bc").write_text(I1_TEXT)
        argv = ["bench", "--dir", str(tmp_path), "--algos", "dp-optimal,dp-eps", "--reference", "dp-optimal"]
        assert main([*argv, "--node-cap", "0"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "error: --node-cap does not go with --dir" in captured.err
        assert main(argv) == 0

    @pytest.mark.parametrize("names, capped", [
        (["--algos", "oracle", "--reference", "dp-optimal"], "a,oracle,resource-limit,,,,"),
        (["--algos", "dp-eps", "--reference", "oracle"], "a,dp-eps,resource-limit,3,,,"),
    ])
    def test_dir_node_cap_reaches_a_named_search(self, names, capped, tmp_path, capsys):
        """With a search among --algos or the --reference, the cap is read: at 0 that search aborts."""
        (tmp_path / "a.bc").write_text(I1_TEXT)
        assert main(["bench", "--dir", str(tmp_path), *names, "--node-cap", "0"]) == 0
        (row,) = capsys.readouterr().out.splitlines()[1:]
        assert row.startswith(capped)

    @pytest.mark.parametrize("family", [["--family", "fig5", "--lengths", "8"], ["--family", "fig6", "--ms", "2"]])
    def test_family_reads_node_cap(self, family, capsys):
        """Both family sweeps run the oracle, so they take --node-cap: at 0 every row aborts."""
        assert main(["bench", *family, "--node-cap", "0"]) == 0
        rows = capsys.readouterr().out.splitlines()[1:]
        assert rows and all(",resource-limit," in row for row in rows)

    def test_fig6_family_defaults(self, capsys):
        assert main(["bench", "--family", "fig6", "--ms", "2"]) == 0
        default = capsys.readouterr().out
        assert main(["bench", "--family", "fig6", "--ms", "2", "--rho", "2", "--delta", "1/8"]) == 0
        explicit = capsys.readouterr().out
        assert [row.rsplit(",", 1)[0] for row in default.splitlines()] == [
            row.rsplit(",", 1)[0] for row in explicit.splitlines()
        ]
        assert len(default.splitlines()) == 3

    def test_unknown_subcommand_usage(self):
        assert main(["frobnicate"]) == 2


class TestModeTable:
    """``cli._MODES`` decides, for each gen family, solve algorithm and bench mode, which options it needs, reads and refuses."""

    @pytest.mark.parametrize("family, flag, value", [
        (["--family", "fig5", "--rho", "2", "--length", "12"], "--n", "5"),
        (["--family", "fig5", "--rho", "2", "--length", "12"], "--seed", "3"),
        (["--family", "random", "--n", "5", "--length", "12"], "--rho", "2"),
        (["--family", "fig6", "--rho", "2", "--m", "4", "--delta", "1/8"], "--length", "12"),
    ])
    def test_gen_refuses_other_families_options(self, family, flag, value, capsys):
        assert main(["gen", *family, flag, value]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"error: {flag} does not go with --family {family[1]}" in captured.err

    def test_gen_random_defaults_spelled_out(self, capsys):
        base = ["gen", "--family", "random", "--n", "6", "--length", "12"]
        assert main(base) == 0
        default = capsys.readouterr().out
        spelled = ["--r-min", "1", "--r-max", "3", "--x-min", "-10", "--x-max", "15", "--seed", "0"]
        assert main([*base, *spelled]) == 0
        assert capsys.readouterr().out == default
        assert main([*base, "--seed", "1"]) == 0
        assert capsys.readouterr().out != default

    @pytest.mark.parametrize("argv, message", [
        (["--family", "fig5", "--lengths", "8", "--rho="], "not a rational number: ''"),
        (["--family", "fig6", "--ms", "2", "--rho="], "not a rational number: ''"),
        (["--family", "fig6", "--ms", "2", "--delta="], "not a rational number: ''"),
        (["--dir", ".", "--eps="], "not a rational number: ''"),
        (["--dir", ".", "--reference="], "unknown algorithm ''"),
        (["--dir", ".", "--algos="], "--algos names no algorithm"),
        (["--dir", ".", "--algos=,"], "--algos names no algorithm"),
        (["--dir="], "cannot read directory"),
    ])
    def test_bench_empty_value_is_not_the_default(self, argv, message, tmp_path, capsys, monkeypatch):
        """An empty value is a usage error: the run never falls back to the option's default."""
        (tmp_path / "a.bc").write_text(I1_TEXT)
        monkeypatch.chdir(tmp_path)
        assert main(["bench", *argv]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"error: {message}" in captured.err

    def test_solve_refuses_budget_with_dp_eps(self, i1_path, capsys):
        """dp-eps picks its own budgets, so a --budget it would not honour is a usage error."""
        assert main(["solve", "--algo", "dp-eps", "--budget", "1", i1_path]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "error: --budget does not go with --algo dp-eps" in captured.err

    @pytest.mark.parametrize("algo", sorted(set(harness.SOLVERS) - {"dp-eps"}))
    def test_solve_refuses_eps_except_with_dp_eps(self, algo, i1_path, capsys):
        assert main(["solve", "--algo", algo, "--eps", "1/4", i1_path]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"error: --eps does not go with --algo {algo}" in captured.err

    @pytest.mark.parametrize("algo", ["dp-eps", "dp-exact", "dp-optimal"])
    def test_solve_refuses_node_cap_with_the_dp(self, algo, i1_path, capsys):
        """The DP fills tables and searches no tree, so a --node-cap it would not honour is a usage error."""
        assert main(["solve", "--algo", algo, "--node-cap", "0", i1_path]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"error: --node-cap does not go with --algo {algo}" in captured.err

    @pytest.mark.parametrize("algo", ["fpt", "oracle", "untangle-oracle"])
    def test_solve_searches_read_node_cap(self, algo, i1_path, capsys):
        assert main(["solve", "--algo", algo, "--node-cap", "0", i1_path]) == 3
        assert "explored more than 0 states" in capsys.readouterr().err
        assert main(["solve", "--algo", algo, i1_path]) == 0

    def test_solve_empty_eps_is_not_the_default(self, i1_path, capsys):
        assert main(["solve", "--algo", "dp-eps", "--eps=", i1_path]) == 2
        assert "error: not a rational number: ''" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["gen", "bench", "solve"])
    def test_every_option_is_in_the_table(self, command):
        """A new option must be named in a mode (or be common to all), so no mode ignores it silently."""
        parser = cli._build_parser()
        (subparsers,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
        flags = {
            flag
            for action in subparsers.choices[command]._actions
            if action.dest != "help"
            for flag in action.option_strings
        }
        named = {f"--{name}" for options in cli._MODES[command].values() for name in options}
        assert flags - named <= {"--algo" if command == "solve" else "--family", "--out"}
        assert named <= flags


class TestGoldenFiles:
    def test_corpora_parse(self):
        for name in ("i1.bc", "fig5_rho2_L12.bc", "random_seed42.bc", "e1.bc"):
            inst = parse_instance((CORPORA / name).read_text())
            assert inst.n >= 0

    def test_e1_sidecar(self):
        sidecar = json.loads((CORPORA / "e1.bc.meta.json").read_text())
        assert sidecar["B"] == "330" and sidecar["k"] == 2


class TestImportFootprint:
    """Each command loads only the solver modules it runs (import is most of a small CLI call)."""

    CODE = (
        "import sys\n"
        "from barriercover.cli import main\n"
        "code = main(sys.argv[1:])\n"
        "print(code, *sorted(m for m in sys.modules if m.startswith('barriercover.')))\n"
    )

    @pytest.mark.parametrize("argv, absent", [
        (["gen", "--family", "random", "--n", "3", "--length", "6"], {"exact", "order_dp"}),
        (["verify", "{i1}", "{sol}"], {"exact", "order_dp", "generators"}),
        (["solve", "--algo", "dp-exact", "{i1}"], {"exact", "generators"}),
        (["solve", "--algo", "dp-eps", "{i1}"], {"exact", "generators"}),
        (["solve", "--algo", "oracle", "{i1}"], {"generators", "order_dp"}),
        (["solve", "--algo", "fpt", "{i1}"], {"generators"}),
        (["solve", "--algo", "untangle-oracle", "{i1}"], {"generators", "order_dp"}),
    ])
    def test_command_loads_only_what_it_runs(self, argv, absent, tmp_path):
        sol = tmp_path / "sol.txt"
        sol.write_text("COST 3\n1\n3\n")
        paths = {"i1": str(CORPORA / "i1.bc"), "sol": str(sol)}
        code, *loaded = fresh_python(self.CODE, *(a.format(**paths) for a in argv)).splitlines()[-1].split()
        assert code == "0"
        assert "barriercover.model" in loaded
        assert absent.isdisjoint(m.removeprefix("barriercover.") for m in loaded)

    @pytest.mark.parametrize("module", ["exact", "untangle"])
    def test_solver_module_loads_no_dp(self, module):
        """``exact`` and ``untangle`` import from ``model`` alone; ``-S`` keeps ``site`` from loading anything first."""
        code = f"import sys, barriercover.{module}; print('barriercover.order_dp' in sys.modules)"
        env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).resolve().parent.parent)}
        child = subprocess.run([sys.executable, "-S", "-c", code], env=env, capture_output=True, text=True)
        assert child.returncode == 0, child.stderr
        assert child.stdout == "False\n"

    def test_one_greedy_cover_object(self):
        """The tracer wraps ``order_dp.greedy_cover`` by identity, so every module must hold the same object."""
        from barriercover import exact, model, order_dp

        assert model.greedy_cover is order_dp.greedy_cover is exact.greedy_cover
