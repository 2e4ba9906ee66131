"""Byte identity of ``emit`` with the reference writers in ``helpers``.

Both writers print numbers from their proven rounded integers in an
array pass: the CSV integer rounded to 12 digits, the JSON one the
shortest that reads back.  These tests hold them to the plain
``Decimal`` / ``csv.writer`` / ``json.dumps`` encoders they replaced, on
drawn and on hostile values, on every layout of the array pass, at the
JSON pass's edges against an exact-rational oracle, and on rows that
repeat the text of the row before them, hold their type errors to a
field-by-field check, and check that a path to a regular file is
replaced whole or not at all, while a device or a FIFO is written in
place.
"""

import errno
import io
import math
import os
import random
import stat
import struct
import subprocess
import sys
from dataclasses import replace
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import morsim
from morsim import EmitError, OutputRow, emit
from morsim.sweep import (_CHUNK_ROWS, _CSV_SLOT, _JSON_KEYS, _JSON_SLOT, _NO_KEYS, _bodies,
                          _csv_digits, _csv_precisions, _csv_text, _json_digits)

from helpers import reference_csv, reference_json, reference_number


def _rows(values, variant="v", engine="analytic"):
    """Rows of eight numbers each, ``values`` padded with 0.5."""
    values = list(values)
    values += [0.5] * (-len(values) % 8)
    return [OutputRow(variant, *values[i:i + 8], engine) for i in range(0, len(values), 8)]


def _assert_same_bytes(rows):
    # numpy scalars are str and float subclasses, written as their plain values.
    numpy_rows = [OutputRow(np.str_(row.variant), *map(np.float64, row[1:-1]),
                            np.str_(row.engine)) for row in rows]
    for out_format, reference in (("csv", reference_csv), ("json", reference_json)):
        expected = reference(rows)
        assert emit(rows, out_format) == expected
        assert emit(numpy_rows, out_format) == expected


def _ulps(x: float, count: int):
    """``x`` and its ``count`` neighbours on either side."""
    out = [x]
    up = down = x
    for _ in range(count):
        up, down = math.nextafter(up, math.inf), math.nextafter(down, -math.inf)
        out += [up, down]
    return out


@settings(max_examples=200, derandomize=True, deadline=None)
@given(st.lists(st.tuples(*[st.floats(allow_nan=False, allow_infinity=False)] * 8),
                min_size=1, max_size=8))
def test_csv_number_fields_match_reference(values):
    rows = [OutputRow("v", *numbers, "analytic") for numbers in values]
    lines = emit(rows, "csv").decode("utf-8").split("\n")[1:-1]
    for numbers, line in zip(values, lines):
        assert line.split(",")[1:-1] == [reference_number(x) for x in numbers]
    assert emit(rows, "json") == reference_json(rows)


def _hostile_values():
    rng = random.Random(20261018)
    values = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1.7976931348623157e308]
    # Powers of ten and their neighbours: floor(log10) and carries.
    for k in range(-310, 20):
        values += _ulps(float(f"1e{k}"), 4)
    # Rounding carries into the next decade, with their neighbours.
    for text in ("9.999999999995", "99999999999.95", "999999999999.5", "0.9999999999995",
                 "9.99999999999499", "99999999999.949", "-9.999999999995"):
        values += _ulps(float(text), 3)
    for k in range(-20, 14):
        values += _ulps(float("9" * 12 + "5") * 10.0 ** (k - 12), 2)
    # Exact 13-digit ties m * 2**-j (m odd), and dyadics with short expansions.
    for j in range(1, 19):
        for _ in range(40):
            m = rng.randrange(10 ** 12 // 5 ** j + 1, 10 ** 13 // 5 ** j + 1) | 1
            values.append(math.ldexp(m, -j))
    values += [20.0, 0.5, -0.125, 1000.0, 3.0517578125e-05, 2.0 ** -17, 2.0 ** -18]
    for _ in range(400):
        m = rng.randrange(1, 1 << rng.randrange(1, 53))
        values.append(math.ldexp(m, rng.randrange(-40, 30)))
    # e >= 12: integers and non-integers above 1e12.
    values += [1e12, 123456789012.5, 1234567890123.0, 1.5e13, 4.2e15, 1e22, 1e300]
    for _ in range(400):
        values.append(float(rng.randrange(1, 10 ** rng.randrange(1, 15))))
    # Subnormals, magnitudes from 1e-30 to 1e14, and random bit patterns.
    values += [math.ldexp(rng.randrange(1, 1 << 52), -1074) for _ in range(50)]
    values += [rng.random() * 10.0 ** rng.uniform(-30, 14) for _ in range(2000)]
    patterns = [struct.unpack("<d", rng.getrandbits(64).to_bytes(8, "little"))[0]
                for _ in range(2000)]
    values += [x for x in patterns if math.isfinite(x)]
    signed = [x * rng.choice((1.0, -1.0)) for x in values]
    return values + signed


def test_hostile_values_match_reference():
    _assert_same_bytes(_rows(_hostile_values()))


def test_rows_across_chunks_match_reference():
    rng = random.Random(7)
    values = [rng.uniform(-1.0, 1.0) * 10.0 ** rng.randrange(-8, 8)
              for _ in range(8 * (2 * _CHUNK_ROWS + 3))]
    _assert_same_bytes(_rows(values))


def test_repeated_deltas_match_reference():
    # Delta prints by the rule of the other numbers, and a row may reuse the text
    # of the row before it: JSON prints 0.0 and -0.0 where each occurs, CSV prints 0 for both.
    cycle = [0.0, -0.0, -79.5, 0.1, -0.0, 0.0, 5e-324, -79.5, 0.1]
    rows = [OutputRow("v", cycle[i % len(cycle)], *[0.5] * 7, "analytic")
            for i in range(2 * _CHUNK_ROWS + 3)]
    _assert_same_bytes(rows)
    json_deltas = [line for line in emit(rows, "json").decode().split("\n") if '"delta"' in line]
    assert json_deltas == [f'    "delta": {row.delta!r},' for row in rows]
    csv_deltas = [line.split(",")[1] for line in emit(rows, "csv").decode().split("\n")[1:-1]]
    assert csv_deltas[:2] == ["0", "0"]


# -- short binary fractions: "%.*f" at their own number of places ---------


def _short_fractions():
    """Positive short binary fractions n / 2**k (n odd, so k places): every k
    from 0 to 17 at decimal exponents -6 to 13, then at the 12-digit edge
    e = 11 - k (12 digits, printed exactly) and e = 12 - k (13 digits
    ending in 5, an exact tie at the twelfth), then values at powers of ten,
    zero and the smallest subnormal."""
    rng = random.Random(20261021)
    values = []
    for k in range(18):
        for e in [*range(-6, 14), *[11 - k, 12 - k] * 2]:
            for _ in range(6):
                n = int(rng.uniform(1.0, 10.0) * 10.0 ** e * 2 ** k) | 1
                values.append(math.ldexp(n, -k))
    for x in (1.0, 10.0, 1e5, 1e11, 999999999999.0, 1e12, 2.0 ** 40, 2.0 ** 46):
        values += [x, x + 0.5, x - 0.5, x + 2.0 ** -17, x - 2.0 ** -17]
    return values + [0.0, 5e-324]


def _assert_short_values_print_like_reference(values):
    x = np.array(values)
    precision = _csv_precisions(x)
    for value, p in zip(values, precision.tolist()):
        if p >= 0:
            assert "%.*f" % (p, value) == reference_number(value), (value, p)
    return precision


@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_short_binary_fractions_match_reference(sign):
    values = [sign * x for x in _short_fractions()]
    precision = _assert_short_values_print_like_reference(values)
    assert (precision >= 0).sum() > len(values) // 2
    # Each value as delta and in every number column, in twin rows, then beside other values.
    rows = [OutputRow("v", x, *[x] * 7, engine) for x in values for engine in ("analytic", "numeric")]
    _assert_same_bytes(rows + _rows(values))


@settings(max_examples=300, derandomize=True, deadline=None)
@given(st.integers(-2 ** 53, 2 ** 53), st.integers(0, 17), st.integers(0, 7))
def test_any_short_binary_fraction_matches_reference(n, k, column):
    x = math.ldexp(n, -k)
    _assert_short_values_print_like_reference([x])
    numbers = [0.3] * 8
    numbers[column] = x
    _assert_same_bytes([OutputRow("v", *numbers, engine) for engine in ("analytic", "numeric")])


@pytest.mark.parametrize("value, precision", [
    (0.5, 1), (-79.5, 1), (20.0, 0), (2.0 ** -17, 17), (-123.25, 2), (12345678901.5, 1),
    (999999999.125, 3),
    # More than 12 digits: rounded at the twelfth, as any other value.
    (1.0 + 2.0 ** -17, 11), (-79.25 + 2.0 ** -16, 10), (1234567890.125, 2),
    # Zero, e >= 12 and values whose decimal exponent is not certain: _format_number.
    (0.0, -1), (-0.0, -1), (1e12, -1), (2.0 ** 40, -1), (1.0, -1), (10.0, -1), (1e11, -1),
    (999999999999.0, -1), (99999999999.5, -1),
])
def test_csv_precisions_of_short_values(value, precision):
    assert _csv_precisions(np.array([value])).tolist() == [precision]


# -- rows that print like the row before them ---------------------------


def _run(numbers, variant="v", delta=-1.5):
    """Rows with one variant and delta, engines alternating as in a ``both``
    sweep.  Each entry of ``numbers`` is one row's seven numbers, or one
    value put in the first column before six copies of 0.3, which never
    falls back to _format_number."""
    return [OutputRow(variant, delta, *(x if isinstance(x, tuple) else (x, *[0.3] * 6)),
                      ("analytic", "numeric")[i % 2]) for i, x in enumerate(numbers)]


def _twin_count(rows):
    """How many of ``rows`` the digit rule proves equal, in every number, to the row before."""
    numbers = np.array([row[2:-1] for row in rows]).T
    precision = _csv_precisions(numbers)
    digits = _csv_digits(numbers, precision)
    return int(((precision[:, 1:] == precision[:, :-1])
                & (digits[:, 1:] == digits[:, :-1])).all(axis=0).sum())


# 12-digit rounding boundaries: half a unit in the twelfth digit.
_BOUNDARIES = [1.234567890125, 5.000000000005, 123456.7890125, 9.876543210125e-05,
               -4.567890123455e07, 3.333333333335e-11, 7.777777777775e08]


@pytest.mark.parametrize("boundary", _BOUNDARIES)
def test_rows_one_ulp_apart_at_a_rounding_boundary_match_reference(boundary):
    # Consecutive rows step one ulp across the boundary, in every column at once and in one.
    values = sorted(_ulps(boundary, 6))
    rows = _run(values) + _run([(x,) * 7 for x in values])
    _assert_same_bytes(rows)
    assert _twin_count(rows) > 0


def test_rows_at_the_margin_of_the_digit_rule_match_reference():
    # x * 1e11 within 5e-4 of k +- 0.5, where the margin |s| * 2**-51 is 2.3e-4:
    # the rule proves some of these values and leaves the others to be formatted.
    k = 512345678901.0
    steps = np.linspace(0.0, 5e-4, 41)
    values = [(k + 0.5 - m) / 1e11 for m in steps] + [(k - 0.5 + m) / 1e11 for m in steps]
    proven = ~np.isnan(_csv_digits(np.array(values), np.full(len(values), 11)))
    assert proven.any() and not proven.all()
    values = [y for x in values for y in _ulps(x, 1)]
    _assert_same_bytes(_run(values) + _run(values[::-1]))


@pytest.mark.parametrize("pair", [
    (0.999999999999995, 1.0000000000001),  # across a power of ten
    (1.23456789012, 12.3456789012),  # the same digits, one decade apart
    (-12.3456789012, -1.23456789012),
    (4.56789012345e-06, 4.56789012345e-05),
    # Below 1e-11 the precision passes 22; 1e22 alone would scale these alike.
    (1.234567890123e-12, 1.234567890123e-12 + 2e-23),
], ids=["power_of_ten", "decade", "negative_decade", "small_decade", "past_exact_powers"])
def test_rows_that_differ_in_decade_match_reference(pair):
    a, b = pair
    _assert_same_bytes(_run([a, b, a, b]) + _run([(a,) * 7, (b,) * 7, (b,) * 7]))


def test_zeros_and_fallback_values_among_repeated_rows_match_reference():
    # Values _format_number prints (zeros, dyadics, e >= 12, next to powers of ten)
    # are formatted in every row, beside twins in the other columns.
    specials = [0.0, -0.0, 0.5, -0.125, 20.0, 1e12, 123456789012.5, 1.5e13,
                *_ulps(1e5, 2), *_ulps(1e-7, 2)]
    rows = _run([x for x in specials for _ in range(2)])
    rows += _run([(x, 0.3, -0.0, 1.234, x, 0.0, 5.5) for x in specials for _ in range(3)])
    _assert_same_bytes(rows)


def test_twins_across_chunks_and_in_runs_match_reference():
    # Runs of 1 to 7 equal rows, with run and chunk bounds falling anywhere.
    rng = random.Random(31)
    numbers = []
    while len(numbers) < 2 * _CHUNK_ROWS + 9:
        x = tuple(rng.uniform(-1.0, 1.0) * 10.0 ** rng.randrange(-8, 8) for _ in range(7))
        numbers += [x] * rng.randrange(1, 8)
    rows = _run(numbers)
    _assert_same_bytes(rows)
    for edge in (_CHUNK_ROWS, 2 * _CHUNK_ROWS):
        _assert_same_bytes(_run([numbers[0]] * (edge + 2)))
    assert _twin_count(rows) > len(rows) // 2


@pytest.mark.parametrize("rows", [
    _run([0.7] * 3, variant="a") + _run([0.7] * 3, variant="b"),
    _run([0.7] * 3, delta=-1.5) + _run([0.7] * 3, delta=2.0),
    _run([0.7] * 2, delta=5e-324) + _run([0.7] * 2, delta=-5e-324),
    # 0.0 and -0.0 print alike as a delta, so these rows print alike.
    _run([0.7] * 2, delta=0.0) + _run([0.7] * 2, delta=-0.0),
    [OutputRow('a,"b', -1.5, *[0.7] * 7, engine) for engine in ("x", 'a,"b', "x y", "x")],
], ids=["variant", "delta", "delta_sign", "zero_delta", "quoted_names"])
def test_equal_numbers_under_other_names_or_deltas_match_reference(rows):
    _assert_same_bytes(rows)


def _printed(k: float, p: int) -> str:
    """The "%.*f" text of a value whose ``p``-place rounding is the nonzero integer ``k``."""
    digits = str(abs(int(k))).rjust(p + 1, "0")
    head, tail = digits[:len(digits) - p], digits[len(digits) - p:]
    return ("-" if k < 0 else "") + head + ("." + tail if p else "")


def _assert_digits_print(values, precisions):
    x = np.array(values, float)
    p = np.array(precisions)
    digits = _csv_digits(x, p)
    for value, q, k in zip(x.tolist(), p.tolist(), digits.tolist()):
        if not 0 <= q <= 22:
            assert math.isnan(k), (value, q)
        elif not math.isnan(k):
            assert "%.*f" % (q, value) == _printed(k, q), (value, q, k)


@pytest.mark.parametrize("value, precision", [
    (0.1, 22), (1e10, 22), (math.nextafter(1e10, 0.0), 22), (123.456, 20), (2.0 ** 60, 0),
    (-0.4, 0), (0.4, 0), (-0.04, 1), (2.5, 0), (0.125, 2), (-1.5, 0), (0.3, 23), (0.3, -1),
    (1e300, 5), (5e-324, 22), (-0.0, 3),
])
def test_csv_digits_are_the_digits_that_print(value, precision):
    # The rule at precisions no CSV column reaches: |x * 10**p| past 2**53, zero digits,
    # ties and precisions outside 0..22.
    _assert_digits_print([value], [precision])


@settings(max_examples=300, derandomize=True, deadline=None)
@given(st.floats(allow_nan=False, allow_infinity=False), st.integers(-2, 25))
def test_csv_digits_print_at_any_precision(value, precision):
    _assert_digits_print([value], [precision])


# Any magnitude a few ulps and 1e-13 from overflow, and the magnitudes the rule can prove.
_NEAR_TWIN_BASES = st.one_of(st.floats(-1e300, 1e300), st.floats(1e-11, 1e12),
                             st.floats(-1e12, -1e-11))


@settings(max_examples=200, derandomize=True, deadline=None)
@given(st.lists(_NEAR_TWIN_BASES, min_size=7, max_size=7), st.integers(0, 4),
       st.floats(-1e-13, 1e-13))
def test_near_twins_match_reference(base, steps, epsilon):
    # Each row beside one a few ulps away and one scaled by 1 + epsilon.
    up, down = list(base), list(base)
    for _ in range(steps):
        up = [math.nextafter(x, math.inf) for x in up]
        down = [math.nextafter(x, -math.inf) for x in down]
    scaled = [x * (1.0 + epsilon) for x in base]
    numbers = [tuple(row) for row in (base, up, base, down, base, scaled, scaled, base)]
    _assert_same_bytes(_run(numbers))


@pytest.mark.parametrize("name", ['a,"b"', " leading space", "line\nbreak", "carriage\rreturn",
                                  "é", "tab\there", "", '"'])
def test_names_are_quoted_and_escaped_like_reference(name):
    _assert_same_bytes(_rows([0.1, 2.5, -3.75], variant=name, engine=name))
    _assert_same_bytes(_rows([0.1], variant=name) + _rows([0.2], variant="plain"))


# -- the array pass: numbers printed from their proven integers ----------


def _layout_cases():
    """(precision, k) pairs for every precision from 0 to 22 and every digit
    count of ``k`` from 1 to 18, the smallest, the largest and one other
    ``k`` of each count, with both signs."""
    rng = random.Random(20261022)
    cases = []
    for p in range(23):
        for count in range(1, 19):
            low, high = 10 ** (count - 1), 10 ** count
            for k in (low, high - 1, rng.randrange(low, high)):
                cases += [(p, k), (p, -k)]
    return cases


def _printf_or_reference(x, p):
    return "%.*f" % (p, x) if p >= 0 else reference_number(x)


# Each slot: the words before each number, and the text of each, and of a cell left.
_SLOTS = [
    (_NO_KEYS, _CSV_SLOT, [","] * 8, _printf_or_reference),
    (_JSON_KEYS, _JSON_SLOT, [f',\n    "{name}": ' for name in morsim.CSV_HEADER[1:-1]],
     lambda x, p: repr(x)),
]


def test_array_pass_prints_every_layout_as_printf():
    # Precisions 21 and 22 and |k| of more digits than the slot's (12 in CSV, 17
    # in JSON) are beyond the slot, a negative precision is _format_number's;
    # each of those cells is left to be printed alone.
    cases = _layout_cases()
    numbers = [k / 10 ** p for p, k in cases]
    cases += [(-1, 0)] * 5
    numbers += [0.0, -0.0, 1e12, -79.5, 1.0]
    cases += [(-1, 0)] * (-len(cases) % 8)
    numbers += [0.5] * (len(cases) - len(numbers))
    precision = np.array([p for p, _ in cases]).reshape(-1, 8).T
    digits = np.array([k for _, k in cases]).reshape(-1, 8).T
    x = np.array(numbers).reshape(-1, 8).T
    # The CSV digit rule proves every integer of up to 13 digits here.
    rule = _csv_digits(x, precision)
    up_to_13 = (precision >= 0) & (abs(digits) < 10 ** 13)
    assert (rule[up_to_13] == digits[up_to_13]).all()
    for keys, slot, before, alone in _SLOTS:
        in_slot = [0 <= p <= 20 and 0 < abs(k) < 10 * slot.decades[-1] for p, k in cases]
        cells = [key + (format(Decimal(k).scaleb(-p), "f") if fits else alone(v, p))
                 for key, (p, k), v, fits in zip(before * len(cases), cases, numbers, in_slot)]
        expected = ["".join(cells[i:i + 8]) for i in range(0, len(cells), 8)]
        bodies, left = _bodies(x, precision, digits, keys, slot)
        assert left.ravel().tolist() == [not fits for fits in in_slot]
        values = [_csv_text(v, p).encode() if slot is _CSV_SLOT else v
                  for v, p in zip(x.T[left].tolist(), precision.T[left].tolist())]
        assert (b"\n".join(bodies) % tuple(values)).decode() == "\n".join(expected)


def _every_precision_and_digit_count():
    """Values at every precision from 0 to 22 (12 digits, ``1.2345678901234 *
    10**(11 - p)``), and short binary fractions ``n / 2**q`` whose ``n * 5**q``
    has each digit count from that of ``5**q`` to 12, away from a power of ten."""
    values = [1.2345678901234 * 10.0 ** (11 - p) for p in range(23)]
    for q in range(18):
        for count in range(len(str(5 ** q)), 13):
            values.append(math.ldexp(3 * 10 ** (count - 1) // 5 ** q | 1, -q))
    return values


@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_every_precision_and_digit_count_matches_reference(sign):
    values = [sign * x for x in _every_precision_and_digit_count()]
    x = np.array(values)
    precision = _csv_precisions(x)
    digits = _csv_digits(x, precision)
    assert set(precision.tolist()) == set(range(23))
    counts = {len(str(abs(int(k)))) for k in digits.tolist() if not math.isnan(k)}
    assert counts == set(range(1, 13))
    rows = [OutputRow("v", x, *[x] * 7, engine)
            for x in values for engine in ("analytic", "numeric")]
    _assert_same_bytes(rows + _rows(values) + _rows(values[::-1]))


# Cells the array pass leaves to be printed alone: zero and 1e12 (_format_number),
# and a near-tie whose integer the digit rule does not prove ("%.*f" at precision 11).
_NEAR_TIE = 5.123456789015


@pytest.mark.parametrize("column", range(8))
def test_rows_mixing_array_and_fallback_cells_match_reference(column):
    alone = [0.0, 1e12, _NEAR_TIE, -_NEAR_TIE]
    precision = _csv_precisions(np.array(alone))
    assert precision.tolist() == [-1, -1, 11, 11]
    assert np.isnan(_csv_digits(np.array(alone), precision)).all()
    base = [-79.5, 0.123456789012, -3.25e-05, 42.0, 6022.14076, -0.5, 1.5e-09, 999.999]
    rows = []
    for cells in ([0.0], [1e12], [_NEAR_TIE], alone, alone[::-1]):
        numbers = list(base)
        for offset, value in enumerate(cells):
            numbers[(column + offset) % 8] = value
        rows += [OutputRow("v", *numbers, engine) for engine in ("analytic", "numeric", "numeric")]
    _assert_same_bytes(rows)


# Names with the bytes a renderer could take for padding or a row marker, and
# with CSV's special characters.  None ends in NUL, which numpy.str_ drops.
_HOSTILE_NAMES = ["\x00a", "a\x01b", "a,b", 'say "x"', "two\nlines", "é", '\x00,\x01\n"é']


@pytest.mark.parametrize("engines", [('a\x01,"b', "\x00\né"), ("\x00\x01,\n",)],
                         ids=["both", "single"])
def test_hostile_names_across_a_chunk_bound_match_reference(engines):
    rng = random.Random(33)
    rows = []
    while len(rows) < _CHUNK_ROWS + 40:
        variant = rng.choice(_HOSTILE_NAMES)
        for _ in range(rng.randrange(1, 6)):
            numbers = [rng.uniform(-1.0, 1.0) * 10.0 ** rng.randrange(-8, 8) for _ in range(8)]
            numbers[rng.randrange(8)] = rng.choice([0.0, 1e12, _NEAR_TIE, 0.5])
            rows += [OutputRow(variant, *numbers, engine) for engine in engines]
    _assert_same_bytes(rows)


# The JSON pass: _json_digits proves the integer and precision at which "%.*f"
# prints a value's repr, and _bodies prints it as the CSV pass does.

def _shortest_digits(x: float) -> tuple[int, int, bool]:
    """Oracle for a positional ``repr``: the fewest significant digits ``n`` that
    read back as ``x``, the nearest such number as ``c·10**e`` with ``e =
    decimal exponent - n + 1``, and whether two were nearest, by exact
    rationals.  A bound reads back where the mantissa is even."""
    v = Fraction(abs(x))
    m, q = math.frexp(abs(x))
    even = int(m * 2 ** 53) % 2 == 0
    above = Fraction(2) ** (q - 54)
    below = above / 2 if m == 0.5 else above
    exponent = len(str(math.floor(v))) - 1 if v >= 1 else -len(str(math.floor(1 / v)))
    while Fraction(10) ** exponent > v:
        exponent -= 1
    for n in range(1, 18):
        unit = Fraction(10) ** (exponent - n + 1)
        low = math.floor(v / unit)
        inside = [c for c in (low, low + 1)
                  if (v - below < c * unit < v + above)
                  or (even and c * unit in (v - below, v + above))]
        if inside:
            nearest = min(abs(c * unit - v) for c in inside)
            ties = [c for c in inside if abs(c * unit - v) == nearest]
            return n, ties[0], len(ties) > 1
    raise AssertionError(f"17 digits do not read back as {x!r}")


def _json_pass_texts(values):
    """Each value as the JSON pass prints it, None where it is left; and its
    precision, by _json_digits and _bodies on one row of eight per value."""
    x = np.repeat(np.array(values, float)[None, :], 8, axis=0)
    precision, digits = _json_digits(x)
    bodies, left = _bodies(x, precision, digits, _JSON_KEYS, _JSON_SLOT)
    texts = [None if gone else body.decode().split(",")[1].split(": ")[1]
             for body, gone in zip(bodies, left[:, 0])]
    return texts, precision[0]


def _repr_digits(text: str) -> str:
    """The significant digits of a positional ``repr`` text."""
    return text.lstrip("-").replace(".", "").strip("0")


def _every_repr_layout():
    """A value of each layout the JSON pass prints: the point from 3 places
    left of the first digit to 15 places right of it, each digit count from
    1 to 17, both signs."""
    rng = random.Random(34)
    values = []
    for point in range(-3, 16):
        for count in range(1, 18):
            while True:
                digits = str(rng.randrange(10 ** (count - 1), 10 ** count))
                x = float(f"0.{digits}e{point}")
                if _repr_digits(repr(x)) == digits:  # a trailing zero never matches
                    break
            values += [x, -x]
    return values


def test_json_pass_prints_every_layout_as_repr():
    values = _every_repr_layout()
    assert len(values) == 19 * 17 * 2
    texts, _ = _json_pass_texts(values)
    assert texts == [repr(v) for v in values]
    rows = _rows(values)
    assert emit(rows, "json") == reference_json(rows)


def _json_edges():
    """Values at the edges of the JSON pass: every power of two in its range and
    beside it, with its bound below nearer; values an eighth, a quarter and a
    half past an integer from 1e14, where the 17th or the 16th digit may tie
    between an even and an odd one; 2**53, 1e15 + k/8, each power of ten, and
    the range's ends with their neighbours."""
    powers = [v for n in range(-14, 51) for v in _ulps(2.0 ** n, 1)]
    ties = ([1e14 + k / 8 for k in range(64)] + [2e14 + k / 4 for k in range(32)]
            + [6e14 + k / 2 for k in range(16)] + [1e15 - k / 8 for k in range(64)])
    beyond = [1e15 + k / 8 for k in range(16)] + _ulps(2.0 ** 53, 2)
    ends = _ulps(1e-4, 2) + _ulps(1e15, 2) + [float(f"1e{j}") for j in range(-4, 16)]
    return powers + ties + beyond + ends


@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_json_pass_proves_the_shortest_nearest_digits_at_its_edges(sign):
    values = [sign * v for v in _json_edges()]
    texts, precision = _json_pass_texts(values)
    left = 0
    for x, text, p in zip(values, texts, precision.tolist()):
        if not 1e-4 <= abs(x) < 1e15:
            assert text is None and p == -1, x
            continue
        _, c, tie = _shortest_digits(x)
        if tie:  # repr takes the even digit; the pass leaves the value
            assert text is None and p == -1, x
            left += 1
            continue
        assert text == repr(x), x
        assert _repr_digits(text) == str(c).rstrip("0"), x
    assert left >= 48  # the 32 ties at 1e14 + k/8 and the 16 at 2e14 + k/4
    rows = _rows(values)
    assert emit(rows, "json") == reference_json(rows)


def test_no_float_nearest_a_power_of_ten_in_the_json_pass_is_below_it():
    # So no float below 10**j prints as 10**j, and no neighbour of the pass is
    # the power of ten above its decade.
    for j in range(-4, 16):
        assert Fraction(float(f"1e{j}")) >= Fraction(10) ** j


# Cells the JSON pass leaves to repr: zeros, subnormal, below 1e-4, from 1e15, the largest.
_JSON_ALONE = [0.0, -0.0, 5e-324, 1e-5, 1e16, 1.7976931348623157e308]


@pytest.mark.parametrize("column", range(8))
def test_rows_mixing_json_pass_and_repr_cells_match_reference(column):
    base = [-79.5, 0.123456789012345, -3.25e-04, 42.0, 6022.14076, -0.1, 123456789012345.6, 1e-4]
    rows = []
    for offset in range(len(_JSON_ALONE)):
        numbers = list(base)
        for i, value in enumerate(_JSON_ALONE):
            if i <= offset:
                numbers[(column + i) % 8] = value
        rows += [OutputRow("v%", *numbers, engine) for engine in ("analytic", "%s")]
    texts, _ = _json_pass_texts(_JSON_ALONE + base)
    assert texts[:len(_JSON_ALONE)] == [None] * len(_JSON_ALONE)
    assert texts[len(_JSON_ALONE):] == [repr(v) for v in base]
    assert emit(rows, "json") == reference_json(rows)


@settings(max_examples=200, derandomize=True, deadline=None)
@given(st.lists(st.integers(0, 2 ** 64 - 1), min_size=8, max_size=64))
def test_json_of_any_float_bits_matches_reference(bits):
    values = [struct.unpack("<d", struct.pack("<Q", b))[0] for b in bits]
    values = [v for v in values if math.isfinite(v)]
    rows = _rows(values) if values else _rows([0.5])
    assert emit(rows, "json") == reference_json(rows)


def _assert_same_error(rows, out_format, destination=None):
    reference = reference_csv if out_format == "csv" else reference_json
    with pytest.raises(EmitError) as expected:
        reference(rows)
    with pytest.raises(EmitError) as actual:
        emit(rows, out_format, destination)
    assert str(actual.value) == str(expected.value)
    return str(actual.value)


@pytest.mark.parametrize("column", ["variant", "engine"])
def test_lone_surrogate_names_are_refused_in_csv_and_escaped_in_json(column, tmp_path):
    rows = _rows([0.1, 2.5, -3.0] * 8)
    rows[1] = rows[1]._replace(**{column: "a\ud800"})
    rows[2] = rows[2]._replace(variant="\udfff")
    target = tmp_path / "out.csv"
    message = _assert_same_error(rows, "csv", target)
    assert message == (f"output row 1: {column} 'a\\ud800' holds a lone surrogate, "
                       "which UTF-8 cannot encode")
    assert not target.exists()
    assert emit(rows, "json") == reference_json(rows)
    assert b'"a\\ud800"' in emit(rows, "json")


def test_sweep_with_a_lone_surrogate_variant_name_is_refused_in_csv(tmp_path):
    cfg = morsim.SweepConfig(delta_grid=morsim.DeltaGrid(-1.0, 1.0, 3), out_format="csv",
                             variants=(morsim.Variant("a"), morsim.Variant("b\ud800")))
    target = tmp_path / "out.csv"
    with pytest.raises(EmitError) as raised:
        morsim.write_sweep(cfg, target)
    assert str(raised.value) == "variant 'b\\ud800' holds a lone surrogate, which UTF-8 cannot encode"
    assert os.listdir(tmp_path) == []
    json_cfg = replace(cfg, out_format="json")
    assert morsim.write_sweep(json_cfg, target) == 12  # 2 variants, 3 points, 2 engines
    assert target.read_bytes() == emit(morsim.run_sweep(json_cfg), "json")


@pytest.mark.parametrize("variant, engine", [(1, True), (True, 1.0), (0.0, -0.0), (1, "1")])
def test_non_str_names_match_reference(variant, engine, tmp_path):
    # A name is a str: 1, True and 1.0 are equal, and none of them is a name.
    for rows in (_rows([0.1, 2.5], variant=variant, engine=engine),
                 _rows([0.1], variant=variant) + _rows([0.2], variant=engine)):
        for out_format in ("csv", "json"):
            target = tmp_path / f"out.{out_format}"
            message = _assert_same_error(rows, out_format, target)
            assert message == f"output row 0: variant must be a str, got {variant!r}"
            assert not target.exists()


@pytest.mark.parametrize("value", [3, -7, 2 ** 60 + 1, 10 ** 17, True])
def test_non_float_number_matches_reference(value, tmp_path):
    rows = _rows([0.1, value, 0.3, value])
    for out_format in ("csv", "json"):
        target = tmp_path / f"out.{out_format}"
        message = _assert_same_error(rows, out_format, target)
        assert message == f"output row 0: re_s_plus must be a float, got {value!r}"
        assert not target.exists()


def test_type_error_names_first_value_in_row_order():
    # Row by row, then field by field: an engine before the next row's
    # variant, across chunks, and before a nonfinite value in an earlier chunk.
    rows = _rows([0.3] * (8 * (_CHUNK_ROWS + 2)))
    rows[0] = rows[0]._replace(t_x=math.nan)
    rows[_CHUNK_ROWS] = rows[_CHUNK_ROWS]._replace(engine=b"analytic")
    rows[_CHUNK_ROWS + 1] = rows[_CHUNK_ROWS + 1]._replace(variant=None, delta=1)
    for out_format in ("csv", "json"):
        message = _assert_same_error(rows, out_format)
        assert message == f"output row {_CHUNK_ROWS}: engine must be a str, got b'analytic'"


_ROW = OutputRow("v", *[0.5] * 8, "analytic")


@pytest.mark.parametrize("rows, message", [
    ([_ROW[:9]], "output row 0: expected 10 fields, got 9"),
    ([("a", 1.0)], "output row 0: expected 10 fields, got 2"),
    ([_ROW, (*_ROW, "x")], "output row 1: expected 10 fields, got 11"),
    # Every row's length is checked before any value's type or finiteness.
    ([_ROW._replace(variant=None, t_x=math.nan), _ROW, _ROW[:9], ()],
     "output row 2: expected 10 fields, got 9"),
    ([_ROW] * (_CHUNK_ROWS + 1) + [(*_ROW, 0.5), _ROW[:3]],
     f"output row {_CHUNK_ROWS + 1}: expected 10 fields, got 11"),
    # A row that is not a sequence is named by its type and value.
    ([1.0], "output row 0: expected 10 fields, got float 1.0"),
    ([None], "output row 0: expected 10 fields, got NoneType None"),
    ([_ROW._replace(variant=None), _ROW, 2.5], "output row 2: expected 10 fields, got float 2.5"),
], ids=["short", "two_fields", "long", "mixed", "across_chunks", "float_row", "none_row",
        "scalar_after_bad_type"])
@pytest.mark.parametrize("out_format", ["csv", "json"])
def test_rows_of_the_wrong_length_are_refused(rows, message, out_format, tmp_path):
    target = tmp_path / f"out.{out_format}"
    with pytest.raises(EmitError) as error:
        emit(rows, out_format, target)
    assert str(error.value) == message
    assert os.listdir(tmp_path) == []


@pytest.mark.parametrize("column", range(8))
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("out_format", ["csv", "json"])
def test_nonfinite_error_matches_reference(out_format, bad, column):
    values = [0.3] * 24
    # The first nonfinite value in row order is the one named, also when
    # a different one sits in an earlier column of a later row.
    values[8 + column] = bad
    values[16] = -bad if math.isinf(bad) else math.inf
    assert repr(bad) in _assert_same_error(_rows(values), out_format)


@pytest.mark.parametrize("out_format", ["csv", "json"])
def test_nonfinite_error_names_first_value_across_chunks(out_format):
    values = [0.3] * (8 * (_CHUNK_ROWS + 2))
    values[8 * _CHUNK_ROWS - 1] = -math.inf
    values[8 * _CHUNK_ROWS] = math.nan
    assert "-inf" in _assert_same_error(_rows(values), out_format)


@pytest.mark.parametrize("wrap", [iter, lambda rows: (row for row in rows),
                                  lambda rows: map(tuple, rows)],
                         ids=["iterator", "generator", "map"])
@pytest.mark.parametrize("out_format", ["csv", "json"])
def test_any_iterable_of_rows_gives_the_bytes_of_the_list(wrap, out_format):
    rows = _rows([0.25 * i for i in range(24)])
    assert emit(wrap(rows), out_format) == emit(rows, out_format)
    with pytest.raises(EmitError, match="^no rows to emit$"):
        emit(wrap([]), out_format)


def test_no_rows_and_rows_that_cannot_be_iterated_keep_their_errors():
    for rows in (None, [], ()):
        with pytest.raises(EmitError, match="^no rows to emit$"):
            emit(rows, "csv")
    with pytest.raises(TypeError, match="^'int' object is not iterable$"):
        emit(5, "csv")


# -- writing to a path ---------------------------------------------------


def _fail_midway(monkeypatch):
    """Make os.write write half of what it is given, then fail."""
    real_write = os.write
    calls = []

    def write(fd, data):
        if calls:
            raise OSError(errno.ENOSPC, "No space left on device")
        calls.append(fd)
        return real_write(fd, bytes(data)[:len(data) // 2])

    monkeypatch.setattr(os, "write", write)


def test_failed_write_keeps_old_file_and_leaves_no_temp(tmp_path, monkeypatch):
    target = tmp_path / "out.csv"
    target.write_bytes(b"old bytes\n")
    target.chmod(0o640)
    _fail_midway(monkeypatch)
    with pytest.raises(EmitError, match="cannot write .*out.csv: .*No space left"):
        emit(_rows([0.1, 0.2]), "csv", target)
    assert target.read_bytes() == b"old bytes\n"
    assert stat.S_IMODE(target.stat().st_mode) == 0o640
    assert sorted(os.listdir(tmp_path)) == ["out.csv"]


def test_failed_write_of_new_file_leaves_nothing(tmp_path, monkeypatch):
    _fail_midway(monkeypatch)
    with pytest.raises(EmitError, match="cannot write"):
        emit(_rows([0.1, 0.2]), "json", tmp_path / "out.json")
    assert os.listdir(tmp_path) == []


def test_new_file_mode_matches_write_bytes(tmp_path):
    reference = tmp_path / "reference"
    reference.write_bytes(b"")
    target = tmp_path / "out.csv"
    data = emit(_rows([0.1]), "csv", target)
    assert target.read_bytes() == data
    assert stat.S_IMODE(target.stat().st_mode) == stat.S_IMODE(reference.stat().st_mode)
    assert sorted(os.listdir(tmp_path)) == ["out.csv", "reference"]


def test_existing_file_keeps_its_mode(tmp_path):
    target = tmp_path / "out.csv"
    target.write_bytes(b"old")
    target.chmod(0o600)
    data = emit(_rows([0.1]), "csv", target)
    assert target.read_bytes() == data
    assert stat.S_IMODE(target.stat().st_mode) == 0o600


def test_existing_file_keeps_its_owner(tmp_path):
    target = tmp_path / "out.csv"
    target.write_bytes(b"old")
    if os.geteuid() == 0:
        os.chown(target, 4321, 4321)
    before = target.stat()
    emit(_rows([0.1]), "csv", target)
    after = target.stat()
    assert (after.st_uid, after.st_gid) == (before.st_uid, before.st_gid)


def _forbid_replace(monkeypatch):
    """Fail the test, without renaming anything, if os.replace is called."""
    def replace(*args):
        raise AssertionError(f"os.replace{args}: a non-regular file must be written in place")

    monkeypatch.setattr(os, "replace", replace)


def test_device_destination_is_written_in_place(monkeypatch):
    _forbid_replace(monkeypatch)
    data = emit(_rows([0.1]), "csv", os.devnull)
    assert data.startswith(b"variant,")
    assert stat.S_ISCHR(os.stat(os.devnull).st_mode)


def test_fifo_destination_is_written_in_place(tmp_path, monkeypatch):
    _forbid_replace(monkeypatch)
    fifo = tmp_path / "pipe"
    os.mkfifo(fifo)
    reader = os.open(fifo, os.O_RDONLY | os.O_NONBLOCK)
    try:
        data = emit(_rows([0.1, 0.2]), "json", fifo)
        assert os.read(reader, 1 << 16) == data
    finally:
        os.close(reader)
    assert stat.S_ISFIFO(fifo.stat().st_mode)
    assert os.listdir(tmp_path) == ["pipe"]


@pytest.mark.skipif(not os.path.exists("/dev/stdout"), reason="no /dev/stdout")
def test_dev_stdout_on_a_pipe_gets_the_bytes():
    script = ("from morsim import OutputRow, emit\n"
              "emit([OutputRow('v', *[0.5] * 8, 'analytic')], 'csv', '/dev/stdout')\n")
    source_root = os.path.dirname(os.path.dirname(morsim.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([source_root, *sys.path])}
    result = subprocess.run([sys.executable, "-c", script], stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, env=env, check=False, timeout=60)
    assert result.returncode == 0, result.stderr.decode()
    assert result.stdout == emit([OutputRow("v", *[0.5] * 8, "analytic")], "csv")


def test_symlink_destination_is_written_through(tmp_path):
    real = tmp_path / "real.csv"
    real.write_bytes(b"old")
    link = tmp_path / "link.csv"
    link.symlink_to(real)
    data = emit(_rows([0.1]), "csv", link)
    assert link.is_symlink()
    assert real.read_bytes() == data


def test_file_like_destination_gets_the_bytes():
    buffer = io.BytesIO()
    data = emit(_rows([0.1]), "json", buffer)
    assert buffer.getvalue() == data
