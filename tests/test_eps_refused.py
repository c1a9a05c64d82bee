"""A non-positive eps is a usage error for ``dp-eps`` whether or not a cover exists.

``order_dp.dp_eps`` checks eps before feasibility, and the ``dp-eps``
solver leaves that order as it is, so ``solve`` and ``bench --dir`` exit 2
on an infeasible file as on a feasible one, and never report "no
solution" or an ``infeasible`` row for an eps they refuse.
"""

from fractions import Fraction

import pytest

from barriercover import Instance, Sensor
from barriercover.cli import main
from barriercover.harness import SOLVERS
from barriercover.model import DEFAULT_NODE_CAP

INFEASIBLE_TEXT = "L 10\nN 1\n0 1\n"
FEASIBLE_TEXT = "L 4\nN 2\n0 1\n5 1\n"
FILES = pytest.mark.parametrize("text", [INFEASIBLE_TEXT, FEASIBLE_TEXT], ids=["infeasible", "feasible"])
EPS = pytest.mark.parametrize("eps", ["-1", "0"])


@FILES
@EPS
def test_solve_refuses_eps(text, eps, tmp_path, capsys):
    path = tmp_path / "inst.bc"
    path.write_text(text)
    assert main(["solve", "--algo", "dp-eps", f"--eps={eps}", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "eps must be positive" in captured.err


@FILES
@EPS
def test_bench_dir_refuses_eps(text, eps, tmp_path, capsys):
    (tmp_path / "a.bc").write_text(text)
    argv = ["bench", "--dir", str(tmp_path), "--algos", "dp-eps", f"--eps={eps}"]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "eps must be positive" in captured.err


@pytest.mark.parametrize("eps", [Fraction(-1), Fraction(0)])
def test_solver_refuses_eps_on_an_infeasible_instance(eps):
    infeasible = Instance(10, (Sensor(0, 1),))
    with pytest.raises(ValueError, match="eps must be positive"):
        SOLVERS["dp-eps"](infeasible, None, eps, DEFAULT_NODE_CAP)
