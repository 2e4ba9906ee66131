import math
import struct
from dataclasses import fields, replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, strategies as st

from helpers import reference_converted
from morsim import (
    JonesVector,
    ParameterError,
    SusceptibilityPair,
    SystemParams,
    cartesian_to_circular,
    circular_to_cartesian,
    preset,
    validate_params,
)
from test_contract import HOSTILE

SQRT2 = math.sqrt(2.0)

finite_complex = st.complex_numbers(
    max_magnitude=1e8, allow_nan=False, allow_infinity=False
)


def test_default_params_are_valid():
    p = SystemParams()
    assert validate_params(p) is p


def test_reference_parameter_set_is_valid():
    p = SystemParams(gamma1=1, gamma2=1, Gamma1=1, Gamma2=1,
                     Omega=0, Delta=0, delta=0, G1=0, G2=0, alpha_l=30)
    assert validate_params(p) is p


@pytest.mark.parametrize("name", ["fig2", "fig3", "fig4"])
def test_preset_parameter_sets_are_valid(name):
    cfg = preset(name)
    for variant in cfg.variants:
        validate_params(variant.apply(cfg.base))


@pytest.mark.parametrize(
    "kwargs, fragment",
    [
        ({"gamma1": -1.0}, "gamma1"),
        ({"gamma1": 0.0}, "gamma1"),
        ({"gamma2": -0.5}, "gamma2"),
        ({"Gamma1": -0.1}, "Gamma1"),
        ({"Gamma2": -2.0}, "Gamma2"),
        ({"Gamma1": 0.0, "Gamma2": 0.0}, "undamped"),
        ({"alpha_l": -1.0}, "alpha_l"),
        ({"Omega": math.nan}, "Omega"),
        ({"G1": complex("inf")}, "G1"),
    ],
)
def test_invalid_params_name_first_violation(kwargs, fragment):
    with pytest.raises(ParameterError, match=fragment):
        validate_params(SystemParams(**kwargs))


def test_x_polarized_splits_evenly():
    j = cartesian_to_circular(1.5, 0.0)
    assert j.e_plus == pytest.approx(1.5 / SQRT2)
    assert j.e_minus == pytest.approx(1.5 / SQRT2)


def test_y_polarized_components():
    j = cartesian_to_circular(0.0, 2.0)
    assert j.e_plus == pytest.approx(-2j / SQRT2)
    assert j.e_minus == pytest.approx(2j / SQRT2)


def test_pure_sigma_plus_in_cartesian():
    ex, ey = circular_to_cartesian(JonesVector(1.0, 0.0))
    assert ex == pytest.approx(1 / SQRT2)
    assert ey == pytest.approx(1j / SQRT2)


def test_equal_components_recombine_to_x():
    ex, ey = circular_to_cartesian(JonesVector(1 / SQRT2, 1 / SQRT2))
    assert ex == pytest.approx(1.0)
    assert ey == pytest.approx(0.0, abs=1e-15)


@given(ex=finite_complex, ey=finite_complex)
def test_round_trip_recovers_input(ex, ey):
    back_ex, back_ey = circular_to_cartesian(cartesian_to_circular(ex, ey))
    scale = math.hypot(abs(ex), abs(ey))
    assert abs(back_ex - ex) <= 1e-12 * scale
    assert abs(back_ey - ey) <= 1e-12 * scale


@given(ex=finite_complex, ey=finite_complex)
def test_conversion_preserves_intensity(ex, ey):
    j = cartesian_to_circular(ex, ey)
    cart = abs(ex) ** 2 + abs(ey) ** 2
    assert j.intensity == pytest.approx(cart, rel=1e-12, abs=1e-300)


@given(ep=finite_complex, em=finite_complex)
def test_inverse_direction_round_trip(ep, em):
    j = JonesVector(ep, em)
    back = cartesian_to_circular(*circular_to_cartesian(j))
    scale = math.hypot(abs(ep), abs(em))
    assert abs(back.e_plus - j.e_plus) <= 1e-12 * scale
    assert abs(back.e_minus - j.e_minus) <= 1e-12 * scale


def test_params_coerce_numeric_types():
    p = SystemParams(gamma1=1, G1=20)
    assert isinstance(p.gamma1, float)
    assert isinstance(p.G1, complex)


def test_random_conversions_preserve_norm():
    rng = np.random.default_rng(11)
    for _ in range(200):
        ex, ey = rng.normal(size=2) + 1j * rng.normal(size=2)
        j = cartesian_to_circular(ex, ey)
        assert j.intensity == pytest.approx(abs(ex) ** 2 + abs(ey) ** 2, rel=1e-12)


class _Real(float):
    """A float of another type: converted, as every type but the field's own."""


class _Complex(complex):
    """A complex of another type."""


def _number(rng) -> float:
    if rng.random() < 0.2:
        return [0.0, -0.0, 1.0, math.nan, math.inf, -math.inf][rng.integers(6)]
    return rng.normal() * 10.0 ** int(rng.integers(-300, 300))


# Each kind of value a field is drawn as; the complex kinds only for complex fields.
_REAL_KINDS = [
    _number,
    lambda rng: _Real(_number(rng)),
    # Beyond the float range for about one draw in fifteen.
    lambda rng: int(rng.integers(-10**18, 10**18)) * 10 ** int(rng.integers(0, 310)),
    lambda rng: bool(rng.integers(2)),
    lambda rng: np.float64(_number(rng)),
    lambda rng: np.float32(rng.normal() * 10.0 ** int(rng.integers(-30, 30))),
    lambda rng: np.int64(rng.integers(-2**63, 2**63 - 1)),
    lambda rng: Fraction(int(rng.integers(-10**9, 10**9)), int(rng.integers(1, 10**9))),
    lambda rng: f" {_number(rng)!r} ",
]
_COMPLEX_KINDS = _REAL_KINDS + [
    lambda rng: complex(_number(rng), _number(rng)),
    lambda rng: _Complex(_number(rng), _number(rng)),
    lambda rng: np.complex128(complex(_number(rng), _number(rng))),
    lambda rng: repr(complex(_number(rng), _number(rng))),
]


def _draw(rng, cls) -> dict:
    """One value per field of ``cls``, each of a kind drawn for its field."""
    values = {}
    for f in fields(cls):
        kinds = _REAL_KINDS if f.type == "float" else _COMPLEX_KINDS
        values[f.name] = kinds[rng.integers(len(kinds))](rng)
    return values


def _bits(x) -> bytes:
    return struct.pack("<2d", x.real, x.imag) if type(x) is complex else struct.pack("<d", x)


def _assert_converted_as_reference(cls, values, make):
    """``make()`` builds ``cls`` from ``values`` with the reference's field values,
    equal in type and bits, or raises its error; a value of the field's exact type is
    kept as the same object."""
    try:
        expected = reference_converted(cls, values)
    except Exception as exc:
        with pytest.raises(type(exc)) as raised:
            make()
        assert str(raised.value) == str(exc)
        return
    built = make()
    for name, want in expected.items():
        got = getattr(built, name)
        assert type(got) is type(want), name
        assert _bits(got) == _bits(want) and repr(got) == repr(want), name
        if type(values[name]) is type(want):
            assert got is values[name], name


@pytest.mark.parametrize("cls", [SystemParams, JonesVector, SusceptibilityPair])
def test_fields_convert_by_the_reference_rule(cls):
    rng = np.random.default_rng(24)
    for _ in range(500):
        values = _draw(rng, cls)
        _assert_converted_as_reference(cls, values, lambda: cls(**values))


@pytest.mark.parametrize("cls", [SystemParams, JonesVector, SusceptibilityPair])
def test_values_of_the_field_types_are_kept(cls):
    rng = np.random.default_rng(25)
    for _ in range(100):
        values = {f.name: _number(rng) if f.type == "float" else complex(_number(rng), _number(rng))
                  for f in fields(cls)}
        _assert_converted_as_reference(cls, values, lambda: cls(**values))


def test_replace_converts_by_the_reference_rule():
    rng = np.random.default_rng(26)
    names = [f.name for f in fields(SystemParams)]
    checked = 0
    while checked < 300:
        try:
            p = SystemParams(**_draw(rng, SystemParams))
        except (ParameterError, TypeError):
            continue
        delta = _REAL_KINDS[rng.integers(len(_REAL_KINDS))](rng)
        values = {**{name: getattr(p, name) for name in names}, "delta": delta}
        _assert_converted_as_reference(SystemParams, values, lambda: replace(p, delta=delta))
        checked += 1


@pytest.mark.parametrize("cls", [SystemParams, JonesVector, SusceptibilityPair])
def test_hostile_field_values_raise_by_the_reference_rule(cls):
    names = [f.name for f in fields(cls)]
    for name in names:
        for value in HOSTILE:
            values = {**dict.fromkeys(names, 0.5), name: value}
            _assert_converted_as_reference(cls, values, lambda: cls(**values))
