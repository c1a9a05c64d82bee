from fractions import Fraction as F

import pytest

from barriercover import Instance, Sensor
from barriercover.fileio import (
    format_scalar,
    load_solution,
    parse_instance,
    parse_scalar,
    parse_solution,
    serialize_instance,
    serialize_solution,
)


class TestScalars:
    def test_formats(self):
        assert format_scalar(F(3)) == "3"
        assert format_scalar(F(-6, 4)) == "-3/2"

    def test_parses(self):
        assert parse_scalar("3") == 3
        assert parse_scalar("-3/2") == F(-3, 2)
        with pytest.raises(ValueError):
            parse_scalar("x")
        with pytest.raises(ValueError):
            parse_scalar("1/0")

    def test_exponent_is_bounded(self):
        """An exponent past the interpreter's int-digit limit is refused before 10**k is built.

        So is a numerator or denominator with more digits than the limit
        (4,300 by default), which ``format_scalar`` could not print.
        """
        assert parse_scalar("1e300") == 10**300
        assert parse_scalar("1e-300") == F(1, 10**300)
        assert parse_scalar("2.5E3") == 2500
        nines = "9" * 4300
        assert format_scalar(parse_scalar(nines)) == nines
        for text in (
            "1e5000", "1e-5000", "1e9999999999", "1E+9999999999", "1e4300", "123e4298", "0." + "1" * 4300,
        ):
            with pytest.raises(ValueError, match="not a rational number"):
                parse_scalar(text)


class TestInstanceFiles:
    def test_round_trip(self):
        inst = Instance(F(33, 8), (Sensor(0, 2), Sensor(1, 1), Sensor(F(25, 8), 1)))
        text = serialize_instance(inst)
        assert parse_instance(text) == inst
        assert serialize_instance(parse_instance(text)) == text

    def test_comments_and_blank_lines(self):
        text = "# a comment\n\nL 4\nN 1\n# another\n2 1\n"
        inst = parse_instance(text)
        assert inst.length == 4 and inst.sensors == (Sensor(2, 1),)

    def test_loader_sorts_sensor_lines(self):
        text = "L 4\nN 3\n5 1\n0 1\n0 2\n"
        inst = parse_instance(text)
        assert [s.x for s in inst.sensors] == [0, 0, 5]

    def test_malformed_files(self):
        for text in (
            "",
            "L 4\n",
            "N 2\nL 4\n0 1\n5 1\n",
            "L 4\nN 2\n0 1\n",
            "L 4\nN one\n",
            "L 4\nN 1\n0 1 9\n",
        ):
            with pytest.raises(ValueError):
                parse_instance(text)

    def test_negative_count(self):
        with pytest.raises(ValueError, match="sensor count must be >= 0, got -1"):
            parse_instance("L 4\nN -1\n")

    def test_second_line_must_give_the_count(self):
        with pytest.raises(ValueError, match="second data line must be 'N <int>'"):
            parse_instance("L 4\n2\n0 1\n")


class TestSolutionFiles:
    def test_round_trip(self):
        inst = Instance(4, (Sensor(0, 1), Sensor(5, 1)))
        text = serialize_solution(inst, (F(1), F(3)))
        assert text == "COST 3\n1\n3\n"
        recorded, positions = parse_solution(text)
        assert recorded == 3 and positions == (1, 3)
        assert load_solution(inst, text) == (1, 3)

    def test_cost_must_match(self):
        inst = Instance(4, (Sensor(0, 1), Sensor(5, 1)))
        with pytest.raises(ValueError):
            load_solution(inst, "COST 2\n1\n3\n")

    def test_length_must_match(self):
        inst = Instance(4, (Sensor(0, 1), Sensor(5, 1)))
        with pytest.raises(ValueError):
            load_solution(inst, "COST 1\n1\n")

    def test_missing_header(self):
        with pytest.raises(ValueError):
            parse_solution("1\n3\n")
