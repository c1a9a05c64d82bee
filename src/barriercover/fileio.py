"""Plain-text formats for instances and solutions.

Instance files::

    # optional comment lines
    L 12
    N 5
    0 2
    1 1
    ...

Solution files::

    COST 3
    1
    3

Rationals are serialized ``p/q`` in lowest terms (bare integer when q = 1),
so parse -> serialize is the identity on canonical files.  Sensor lines need
not be pre-sorted: the loaded ``Instance`` sorts them stably by (x, r), and
solution-file indices are relative to that sorted order.
"""

from __future__ import annotations

import sys
from fractions import Fraction

from .model import Instance, ResourceLimitError, Scalar, Sensor, Solution, cost


def format_scalar(value: Scalar) -> str:
    """``p/q`` in lowest terms, or ``p`` when q = 1.

    A part with more digits than the interpreter prints
    (``sys.get_int_max_str_digits``) raises ``ResourceLimitError`` with its
    bit length: the answer exists, but no output line can hold it.
    """
    value = Fraction(value)
    try:
        return str(value)
    except ValueError:
        bits = max(value.numerator.bit_length(), value.denominator.bit_length())
        raise ResourceLimitError(
            f"cannot print a {bits:,}-bit number: it passes the {sys.get_int_max_str_digits():,}-digit output limit"
        ) from None


def parse_scalar(text: str) -> Scalar:
    """A rational from ``p/q``, an integer or a decimal with optional exponent.

    ``Fraction("1e<k>")`` computes 10**k, so an exponent whose magnitude
    passes the interpreter's int-digit limit (``sys.get_int_max_str_digits``,
    none when 0) is refused, as ``int`` refuses that many digits: the parse
    does bounded work.  A numerator or denominator with more digits than
    that limit (``1e4300``, ``0.1...1``) is refused too, since no output
    could print it; a part below 2**(3*cap) < 10**cap passes on its bit
    length alone, so only a long one is compared with 10**cap.
    """
    cap = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    _, marker, exponent = text.lower().partition("e")
    try:
        if marker and cap and abs(int(exponent)) > cap:
            raise ValueError(f"exponent beyond {cap}")
        value = Fraction(text.strip())
        for part in (value.numerator, value.denominator):
            if cap and part.bit_length() > 3 * cap and abs(part) >= 10**cap:
                raise ValueError(f"more than {cap} digits")
        return value
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"not a rational number: {text!r}") from exc


def _data_lines(text: str) -> list[str]:
    return [
        line.strip()
        for line in text.splitlines()
        if line.strip() and not line.lstrip().startswith("#")
    ]


def parse_instance(text: str) -> Instance:
    """Parse an instance file; the ``Instance`` sorts its sensors by (x, r)."""
    lines = _data_lines(text)
    if len(lines) < 2:
        raise ValueError("instance file needs an L line and an N line")
    if not lines[0].startswith("L "):
        raise ValueError("first data line must be 'L <rational>'")
    length = parse_scalar(lines[0][2:])
    if not lines[1].startswith("N "):
        raise ValueError("second data line must be 'N <int>'")
    try:
        count = int(lines[1][2:])
    except ValueError as exc:
        raise ValueError(f"bad sensor count: {lines[1]!r}") from exc
    if count < 0:
        raise ValueError(f"sensor count must be >= 0, got {count}")
    body = lines[2:]
    if len(body) != count:
        raise ValueError(f"expected {count} sensor lines, found {len(body)}")
    sensors = []
    for line in body:
        parts = line.split()
        if len(parts) != 2:
            raise ValueError(f"sensor line must be '<x> <r>': {line!r}")
        sensors.append(Sensor(parse_scalar(parts[0]), parse_scalar(parts[1])))
    return Instance(length=length, sensors=tuple(sensors))


def serialize_instance(instance: Instance) -> str:
    lines = [f"L {format_scalar(instance.length)}", f"N {instance.n}"]
    lines += [
        f"{format_scalar(s.x)} {format_scalar(s.r)}" for s in instance.sensors
    ]
    return "\n".join(lines) + "\n"


def parse_solution(text: str) -> tuple[Scalar, tuple[Scalar, ...]]:
    """Parse a solution file into (recorded cost, positions)."""
    lines = _data_lines(text)
    if not lines or not lines[0].startswith("COST "):
        raise ValueError("solution file must start with 'COST <rational>'")
    recorded = parse_scalar(lines[0][5:])
    positions = tuple(parse_scalar(line) for line in lines[1:])
    return recorded, positions


def load_solution(instance: Instance, text: str) -> Solution:
    """Parse and validate a solution against its instance.

    The recorded COST must match the recomputed one exactly; the positions
    are index-aligned with the instance's sorted sensor order.
    """
    recorded, positions = parse_solution(text)
    if len(positions) != instance.n:
        raise ValueError(f"expected {instance.n} positions, got {len(positions)}")
    actual = cost(instance, positions)
    if actual != recorded:
        raise ValueError(f"recorded COST {recorded} != recomputed cost {actual}")
    return positions


def serialize_solution(instance: Instance, solution: Solution) -> str:
    lines = [f"COST {format_scalar(cost(instance, solution))}"]
    lines += [format_scalar(y) for y in solution]
    return "\n".join(lines) + "\n"
