"""Every ``solve --algo`` answers odd but valid instance files with exit 0, 1 or 3.

Each file parses; none should end in a usage error (exit 2) or a crash.
The shapes are the edge cases a hand-written or generated file can reach:
an empty barrier, duplicate sensors, sensors that all miss the barrier,
radii of 1/10^6 on a barrier 10^6 long, six coprime denominators, an infeasible row, no sensors at all,
and numbers just inside the parser's digit limit whose optimum is past it.  Every solution a
solver writes must pass ``verify``.  The searches run at a small node cap,
so the module stays fast; hitting it is exit 3, never "no solution".
"""

import pytest

from barriercover import cli
from barriercover.harness import SOLVERS

SEARCHES = {"oracle", "fpt", "untangle-oracle"}

#: A feasible file is covered (0) or its solver hits a cap (3); it is never "no solution" (1).
FEASIBLE = {0, 3}

#: name -> (file text, the exit codes every solver may give)
SHAPES = {
    "zero_length": ("L 0\nN 2\n3 1\n-2 1/2\n", {0}),
    "four_copies": ("L 4\nN 4\n" + "1 1\n" * 4, FEASIBLE),
    "all_off_barrier": ("L 6\nN 3\n-10 1\n20 2\n-5 1\n", FEASIBLE),
    "micro_radii": ("L 1000000\nN 3\n0 500000\n3 1/1000000\n999999 1/1000000\n", FEASIBLE),
    "coprime_denominators": (
        "L 3\nN 6\n0/3 1/3\n1/5 2/5\n2/7 3/7\n3/11 5/11\n4/13 6/13\n5/17 8/17\n",
        FEASIBLE,
    ),
    "infeasible": ("L 10\nN 2\n0 1\n5 1\n", {1}),
    "no_sensors": ("L 5\nN 0\n", {1}),
    "no_sensors_zero_length": ("L 0\nN 0\n", {0}),
    # L = 10^4299 and two sensors of radius L/4 at 9L: every number has at
    # most 4,300 digits, but the cost 17L has 4,301, past the output limit.
    "cost_past_digit_limit": (f"L 1{'0' * 4299}\nN 2\n" + f"9{'0' * 4299} 25{'0' * 4297}\n" * 2, {3}),
}


@pytest.mark.parametrize("algo", sorted(SOLVERS))
@pytest.mark.parametrize("shape", sorted(SHAPES))
def test_every_solver_answers(shape, algo, tmp_path, capsys):
    text, expected = SHAPES[shape]
    instance = tmp_path / f"{shape}.bc"
    instance.write_text(text)
    solution = tmp_path / f"{shape}.sol"
    argv = ["solve", "--algo", algo, "--out", str(solution), str(instance)]
    if algo in SEARCHES:
        argv[3:3] = ["--node-cap", "20000"]
    code = cli.main(argv)
    err = capsys.readouterr().err
    assert code in expected, err
    if code == 0:
        assert cli.main(["verify", str(instance), str(solution)]) == 0, capsys.readouterr().err



def test_cost_past_the_digit_limit_gives_its_bit_length(tmp_path, capsys):
    """An answer too long to print exits 3 with its size, from ``solve`` and ``bench --dir`` alike."""
    (tmp_path / "huge.bc").write_text(SHAPES["cost_past_digit_limit"][0])
    assert cli.main(["solve", "--algo", "oracle", str(tmp_path / "huge.bc")]) == 3
    assert "cannot print a 14,286-bit number" in capsys.readouterr().err
    assert cli.main(["bench", "--dir", str(tmp_path), "--algos", "dp-eps", "--reference", "untangle-oracle"]) == 3
    assert "4,300-digit output limit" in capsys.readouterr().err
