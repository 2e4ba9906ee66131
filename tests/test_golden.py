"""Output bytes pinned by sha256.

The preset hashes are those of the seed implementation's CSVs; the JSON
pins were taken from the scalar, point-by-point sweep.  CSV rounds to 12
significant digits, JSON prints every bit, so the JSON pins catch a
last-place drift in any column that the CSV hashes may round away.  A
change that alters output bytes on purpose updates these hashes and
says why.
"""

import hashlib
import math

import pytest

from morsim import OutputRow, emit, parse_config, preset, run_sweep

PRESET_SHA256 = {
    "fig2": "b30c01e8192908b7d96f13cb33eb2dfe50a8572af71f859c8b2d6f1e149dcce0",
    "fig3": "baf5b1a4c7a7ca086f8809401b4379f7cb2c077bdc1bfbf03e3ac3bac8fee7d3",
    "fig4": "a89b97fa6514a63bc862116ba988d7456351ed9f9355289d210414591fc82606",
}

# Numeric engine, unequal gammas, complex G1: every first-order solve path.
NUMERIC_UNEQUAL_GAMMAS = """
gamma1 = 1
gamma2 = 0.55
Gamma1 = 0.8
Gamma2 = 1.3
Omega = 3.5
alpha_l = 30
delta_min = -40
delta_max = 40
delta_points = 41
engine = numeric
format = json
variant a: G1 = 12+5j, Delta = 4
variant b: G1 = -7.5+20j, G2 = 6, Delta = -15
"""

# Both engines, complex G1 and G2, negative Omega: closed form and solve.
BOTH_COMPLEX_CONTROL = """
Gamma1 = 0.8
Gamma2 = 1.3
Omega = -2.5
alpha_l = 30
delta_min = -40
delta_max = 40
delta_points = 41
engine = both
format = json
variant a: G1 = 12+5j, Delta = 4
variant b: G1 = -7.5+20j, G2 = 6-2j, Delta = -15
"""

JSON_SHA256 = {
    "numeric_unequal_gammas": (
        NUMERIC_UNEQUAL_GAMMAS,
        "8eaafa6f39ab33c01c7f033b87cb9b917760970e695c36a7f318a225570dfcf0",
    ),
    "both_complex_control": (
        BOTH_COMPLEX_CONTROL,
        "aef38dbf8e5f9005a691d25abe25df7eaec2934e4cf5e339fa6eaeb1e7b0aeb9",
    ),
}


@pytest.mark.parametrize("name", sorted(PRESET_SHA256))
def test_preset_csv_bytes_are_pinned(name):
    data = emit(run_sweep(preset(name)), "csv")
    assert hashlib.sha256(data).hexdigest() == PRESET_SHA256[name]


@pytest.mark.parametrize("name", sorted(JSON_SHA256))
def test_json_bytes_are_pinned(name):
    text, expected = JSON_SHA256[name]
    cfg = parse_config(text)
    data = emit(run_sweep(cfg), cfg.out_format)
    assert hashlib.sha256(data).hexdigest() == expected


# sha256 of the hostile rows below, taken from the Decimal / json.dumps
# writers the template writers replaced.
HOSTILE_SHA256 = {
    "csv": "61de83bf9215c062f0e667733d7a3f25d80d9baff894b441df83c4a3632d381d",
    "json": "8374b7c3f5a84b15f4b47267a77b93e37a85621a8027139aca63f5dfd2b08596",
}


def _hostile_rows() -> list[OutputRow]:
    values = [0.0, -0.0, 20.0, 0.5, -0.125, 1000.0, 2.0 ** -17, 2.0 ** -18, 1 / 3,
              9.999999999995, 99999999999.95, 999999999999.5, 0.9999999999995,
              123456789012.5, 1234567890123.0, 1.5e13, 1e22, 1e300, 5e-324,
              2.2250738585072014e-308, 1.7976931348623157e308, 3.0517578125e-05]
    for k in range(-30, 16):
        x = float(f"1e{k}")
        values += [x, math.nextafter(x, 0.0), math.nextafter(x, math.inf)]
    values += [math.ldexp(m, -j) for j in range(1, 24) for m in (1, 3, 12345, 987654321)]
    values += [x * k for x in (0.1, 0.7, 1.1) for k in range(1, 40)]
    values += [-x for x in values]
    values += [0.25] * (-len(values) % 8)
    names = ['a,"b"', " lead", "line\nbreak", "é"]
    return [OutputRow(names[i % 4], *values[8 * i:8 * i + 8], "analytic")
            for i in range(len(values) // 8)]


@pytest.mark.parametrize("out_format", sorted(HOSTILE_SHA256))
def test_hostile_value_bytes_are_pinned(out_format):
    data = emit(_hostile_rows(), out_format)
    assert hashlib.sha256(data).hexdigest() == HOSTILE_SHA256[out_format]
