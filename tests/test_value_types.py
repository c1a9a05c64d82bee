"""The package's record classes behave as plain immutable values.

Each class derives from ``model._Value``.  The pinned reprs and hashes are
what the records printed and hashed when they were generated classes, so a
CSV, log or test that shows one reads the same.
"""

import copy
import os
import pickle
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest

import barriercover
from barriercover.generators import ExactCoverInstance, ReductionOutput
from barriercover.harness import SOLVERS, RunRecord
from barriercover.model import CoverageReport, Instance, Sensor, _Value
from barriercover.order_dp import DpTable, budget_table
from barriercover.untangle import CrossingPair

SRC = Path(barriercover.__file__).resolve().parent.parent
CORPORA = SRC.parent / "corpora"

SENSOR = Sensor(F(1, 2), 1)
INSTANCE = Instance(3, (Sensor(2, 1), Sensor(0, F(1, 3))))
REPORT = CoverageReport(False, ((F(0), F(1, 2)),))
PAIR = CrossingPair(0, 2)
RECORD = RunRecord("fig5", "dp-eps", "ok", F(3), F(2), F(3, 2), 4)
ABSENT = RunRecord("a", "b", "infeasible", None, None, None, 0)
COVER = ExactCoverInstance(3, ({1, 2}, {3}), 2)
REDUCED = ReductionOutput(Instance(1, (Sensor(0, F(1, 2)),)), F(1), 1, (0,))

#: (value, its field tuple, its repr, an unequal value of the same class)
VALUES = [
    (SENSOR, (F(1, 2), F(1)), "Sensor(x=Fraction(1, 2), r=Fraction(1, 1))", Sensor(F(1, 2), 2)),
    (
        INSTANCE,
        (F(3), (Sensor(0, F(1, 3)), Sensor(2, 1))),
        "Instance(length=Fraction(3, 1), sensors=(Sensor(x=Fraction(0, 1), r=Fraction(1, 3)), "
        "Sensor(x=Fraction(2, 1), r=Fraction(1, 1))))",
        Instance(4, INSTANCE.sensors),
    ),
    (
        REPORT,
        (False, ((F(0), F(1, 2)),)),
        "CoverageReport(covered=False, gaps=((Fraction(0, 1), Fraction(1, 2)),))",
        CoverageReport(True, ()),
    ),
    (PAIR, (0, 2), "CrossingPair(i=0, j=2)", CrossingPair(1, 2)),
    (
        RECORD,
        ("fig5", "dp-eps", "ok", F(3), F(2), F(3, 2), 4),
        "RunRecord(instance='fig5', algo='dp-eps', status='ok', cost=Fraction(3, 1), "
        "ref_cost=Fraction(2, 1), ratio=Fraction(3, 2), time_ms=4)",
        RunRecord("fig5", "dp-eps", "ok", F(3), F(2), F(3, 2), 5),
    ),
    (
        ABSENT,
        ("a", "b", "infeasible", None, None, None, 0),
        "RunRecord(instance='a', algo='b', status='infeasible', cost=None, ref_cost=None, ratio=None, time_ms=0)",
        RECORD,
    ),
    (
        COVER,
        (3, (frozenset({1, 2}), frozenset({3})), 2),
        "ExactCoverInstance(universe_size=3, sets=(frozenset({1, 2}), frozenset({3})), max_sets=2)",
        ExactCoverInstance(3, ({1, 2}, {3}), 1),
    ),
    (
        REDUCED,
        (Instance(1, (Sensor(0, F(1, 2)),)), F(1), 1, (0,)),
        "ReductionOutput(instance=Instance(length=Fraction(1, 1), sensors=(Sensor(x=Fraction(0, 1), "
        "r=Fraction(1, 2)),)), budget=Fraction(1, 1), movers=1, source_sets=(0,))",
        ReductionOutput(REDUCED.instance, F(1), 2, (0,)),
    ),
]
IDS = [type(v).__name__ for v, *_ in VALUES]


def _twin(value):
    """An equal value built anew from its fields."""
    return type(value)(*value._values())


@pytest.mark.parametrize("value, fields, text, other", VALUES, ids=IDS)
class TestValueContract:
    def test_repr_is_pinned(self, value, fields, text, other):
        assert repr(value) == text

    def test_hash_is_the_field_tuple_hash(self, value, fields, text, other):
        assert value._values() == fields
        assert hash(value) == hash(fields) == hash(_twin(value))

    def test_equality(self, value, fields, text, other):
        twin = _twin(value)
        assert twin is not value and value == twin and not value != twin
        assert value != other and not value == other
        assert value != fields and fields != value
        assert value.__eq__(fields) is NotImplemented
        assert value.__eq__(object()) is NotImplemented
        assert len({value, twin, other}) == 2

    def test_fields_cannot_be_set_or_deleted(self, value, fields, text, other):
        for name in type(value)._fields:
            with pytest.raises(AttributeError, match=f"cannot assign to field '{name}'"):
                setattr(value, name, None)
            with pytest.raises(AttributeError, match=f"cannot delete field '{name}'"):
                delattr(value, name)
        with pytest.raises(AttributeError):
            value.extra = 1
        assert value._values() == fields

    def test_pickle_and_copy_round_trip(self, value, fields, text, other):
        """An Instance whose grid was read is covered by ``test_model``'s grid-cache tests."""
        for twin in (pickle.loads(pickle.dumps(value)), copy.copy(value), copy.deepcopy(value)):
            assert type(twin) is type(value)
            assert twin == value and hash(twin) == hash(value) and repr(twin) == text

    def test_keyword_construction(self, value, fields, text, other):
        keywords = dict(zip(type(value)._fields, fields))
        assert type(value)(**keywords) == value


@pytest.mark.parametrize("build, message", [
    (lambda: Sensor(0, 0), "sensor radius must be positive, got 0"),
    (lambda: Sensor(0, -1), "sensor radius must be positive, got -1"),
    (lambda: Instance(-1, ()), "barrier length must be >= 0, got -1"),
    (lambda: CrossingPair(2, 2), "need 0 <= i < j"),
    (lambda: CrossingPair(-1, 2), "need 0 <= i < j"),
    (lambda: ExactCoverInstance(-1, (), 0), "universe size must be >= 0"),
    (lambda: ExactCoverInstance(2, (), -1), "solution size bound must be >= 0"),
    (lambda: ExactCoverInstance(2, ({1}, set()), 1), "subsets must be nonempty"),
    (lambda: ExactCoverInstance(2, ({1, 3},), 1), r"subset \[1, 3\] leaves the universe"),
])
def test_validation_errors(build, message):
    with pytest.raises(ValueError, match=message):
        build()


#: The records that take their fields as given, through ``_Value.__init__``.
PLAIN = [REPORT, RECORD, REDUCED]
PLAIN_IDS = [type(v).__name__ for v in PLAIN]


@pytest.mark.parametrize("value", PLAIN, ids=PLAIN_IDS)
class TestBaseConstructor:
    """``_Value.__init__`` binds fields by position or keyword, as a generated ``__init__`` did."""

    def test_positional_keyword_and_mixed_arguments_agree(self, value):
        cls, fields = type(value), value._values()
        keywords = dict(zip(cls._fields, fields))
        for k in range(len(fields) + 1):
            rest = {name: keywords[name] for name in cls._fields[k:]}
            built = cls(*fields[:k], **rest)
            assert built == value and built._values() == fields

    def test_missing_argument(self, value):
        cls, fields = type(value), value._values()
        with pytest.raises(TypeError, match=f"missing argument '{cls._fields[-1]}'"):
            cls(*fields[:-1])
        with pytest.raises(TypeError, match=f"missing argument '{cls._fields[0]}'"):
            cls(**dict(zip(cls._fields[1:], fields[1:])))

    def test_unknown_argument(self, value):
        cls, fields = type(value), value._values()
        with pytest.raises(TypeError, match="got an unexpected argument 'extra'"):
            cls(*fields, extra=1)

    def test_repeated_argument(self, value):
        cls, fields = type(value), value._values()
        with pytest.raises(TypeError, match=f"got multiple values for argument '{cls._fields[0]}'"):
            cls(*fields, **{cls._fields[0]: fields[0]})

    def test_too_many_positional_arguments(self, value):
        cls, fields = type(value), value._values()
        with pytest.raises(TypeError, match=f"takes {len(fields)} arguments, got {len(fields) + 1}"):
            cls(*fields, None)


def test_records_state_their_fields_once():
    """No record writes its own ``_values``; only those that check their fields, and ``DpTable``, an ``__init__``."""
    records, todo = [], [_Value]
    while todo:
        subclasses = [cls for cls in todo.pop().__subclasses__() if cls.__module__.startswith("barriercover.")]
        records += subclasses
        todo += subclasses
    assert {cls.__name__ for cls in records} == set(IDS) | {"DpTable"}
    assert [cls.__name__ for cls in records if "_values" in vars(cls)] == []
    assert {cls.__name__ for cls in records if "__init__" in vars(cls)} == {
        "Sensor", "Instance", "CrossingPair", "ExactCoverInstance", "DpTable",
    }


class TestDpTable:
    """The table stays mutable and unhashable; ``==`` and ``repr`` leave out ``fills``."""

    TEXT = (
        "DpTable(unit=Fraction(1, 1), scale=1, length=2, xs=[0], rs=[1], step=1, "
        "rows=[[0, 0, 0], [1, 2, 2]], choices=[[-1, -1, -1], [0, 1, 1]])"
    )

    @staticmethod
    def _table():
        return budget_table(Instance(2, (Sensor(0, 1),)), 2)

    def test_repr_is_pinned(self):
        assert repr(self._table()) == self.TEXT

    def test_equality_ignores_fills(self):
        a, b = self._table(), self._table()
        assert a.fills != b.fills
        assert a == b and not a != b
        b.fills = []
        assert a == b
        b.step = 2
        assert a != b
        assert a.__eq__(self.TEXT) is NotImplemented

    def test_unhashable(self):
        with pytest.raises(TypeError, match="unhashable type: 'DpTable'"):
            hash(self._table())

    def test_mutable(self):
        table = self._table()
        table.grow(4)
        assert table.rows == [[0] * 5, [1, 2, 2, 2, 2]]
        table.unit = F(1, 2)
        assert table.unit == F(1, 2)
        del table.fills
        assert not hasattr(table, "fills")

    def test_keyword_construction(self):
        table = self._table()
        fields = dict(zip(DpTable._fields, table._values()))
        assert DpTable(**fields, fills=[]) == table

    def test_shallow_copy_shares_the_fills(self):
        table = self._table()
        twin = copy.copy(table)
        assert twin == table and twin.fills is table.fills


def test_no_module_imports_dataclasses(tmp_path):
    """``import barriercover``, each submodule and each CLI command leave ``dataclasses`` and ``inspect`` unloaded.

    ``-S`` skips ``site``, which could otherwise load a module first and
    hide an import of it.  ``inspect`` costs most of what importing
    ``dataclasses`` does, so a constructor built on ``inspect.signature``
    would undo the start-up saving as well.
    """
    sol = tmp_path / "sol.txt"
    sol.write_text("COST 3\n1\n3\n")
    argvs = [
        ["gen", "--family", "random", "--n", "3", "--length", "6"],
        ["gen", "--family", "exact-cover", "--spec", str(CORPORA / "e1.json"), "--out", str(tmp_path / "e1.bc")],
        *(["solve", "--algo", algo, str(CORPORA / "i1.bc")] for algo in sorted(SOLVERS)),
        ["verify", str(CORPORA / "i1.bc"), str(sol)],
        ["bench", "--dir", str(CORPORA), "--algos", "dp-eps,fpt"],
        ["bench", "--family", "fig6", "--ms", "2"],
    ]
    code = "\n".join([
        "import contextlib, io, sys",
        "import barriercover",
        "from barriercover import cli, exact, fileio, generators, harness, model, order_dp, untangle",
        "with contextlib.redirect_stdout(io.StringIO()):",
        f"    codes = [cli.main(argv) for argv in {argvs!r}]",
        "print(codes, 'dataclasses' in sys.modules, 'inspect' in sys.modules)",
    ])
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    child = subprocess.run([sys.executable, "-S", "-c", code], env=env, capture_output=True, text=True)
    assert child.returncode == 0, child.stderr
    assert child.stdout == f"{[0] * len(argvs)} False False\n"
