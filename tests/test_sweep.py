import csv
import dataclasses
import errno
import io
import json
import os
from dataclasses import replace

import numpy as np
import pytest

from morsim import (
    ConfigError,
    CSV_HEADER,
    DeltaGrid,
    EmitError,
    NumericError,
    OutputRow,
    SweepConfig,
    SystemParams,
    Variant,
    emit,
    parse_config,
    preset,
    run_sweep,
    write_sweep,
)
from morsim.sweep import MAX_DELTA_POINTS, validate_config

MINIMAL = """
# minimal sweep
G1 = 20
delta_min = -150
delta_max = 150
delta_points = 2001
"""


def test_parse_minimal_config():
    cfg = parse_config(MINIMAL)
    assert cfg.base.G1 == 20.0
    assert cfg.delta_grid == DeltaGrid(-150.0, 150.0, 2001)
    assert [v.name for v in cfg.variants] == ["base"]
    assert cfg.engine == "both"
    assert cfg.out_format == "csv"


def test_parse_variants_and_complex_values():
    cfg = parse_config(
        "Omega = 5\n"
        "G2 = 3+4j\n"
        "delta_min = -10\ndelta_max = 10\ndelta_points = 11\n"
        "engine = numeric\n"
        "format = json\n"
        "output = out.json\n"
        "variant weak: G1 = 5\n"
        "variant strong: G1 = 50, Delta = -20\n"
    )
    assert cfg.base.G2 == 3 + 4j
    assert cfg.engine == "numeric"
    assert cfg.out_format == "json"
    assert cfg.out_path == "out.json"
    assert [v.name for v in cfg.variants] == ["weak", "strong"]
    assert cfg.variants[1].overrides == {"G1": 50.0, "Delta": -20.0}


def test_single_point_grid_rejected():
    with pytest.raises(ConfigError, match=">= 2"):
        parse_config("delta_points = 1\n")


def test_oversized_grid_rejected_with_line_number():
    parse_config(f"delta_points = {MAX_DELTA_POINTS}\n")
    with pytest.raises(ConfigError, match=rf"line 2: delta_points must be <= {MAX_DELTA_POINTS}"):
        parse_config(f"Omega = 1\ndelta_points = {MAX_DELTA_POINTS + 1}\n")


def test_oversized_grid_rejected_before_allocation(monkeypatch):
    def no_grid(self):
        raise AssertionError("grid built before the size check")

    monkeypatch.setattr(DeltaGrid, "values", no_grid)
    cfg = SweepConfig(delta_grid=DeltaGrid(-1.0, 1.0, MAX_DELTA_POINTS + 1))
    with pytest.raises(ConfigError, match="delta_points must be <="):
        validate_config(cfg)
    with pytest.raises(ConfigError, match="delta_points must be <="):
        run_sweep(cfg)


def test_overflowing_grid_span_rejected(monkeypatch):
    def no_grid(self):
        raise AssertionError("grid built before the span check")

    monkeypatch.setattr(DeltaGrid, "values", no_grid)
    cfg = SweepConfig(delta_grid=DeltaGrid(-1e308, 1e308, 3))
    with pytest.raises(ConfigError, match=r"delta grid span overflows: \[-1e\+308, 1e\+308\]"):
        validate_config(cfg)
    with pytest.raises(ConfigError, match="delta grid span overflows"):
        run_sweep(cfg)


def test_reversed_grid_rejected():
    with pytest.raises(ConfigError, match="delta_min"):
        parse_config("delta_min = 10\ndelta_max = -10\n")


def test_unknown_key_rejected_with_line_number():
    with pytest.raises(ConfigError, match=r"line 2.*dopler"):
        parse_config("Omega = 1\ndopler = 600\n")


def test_syntax_error_reports_line_number():
    with pytest.raises(ConfigError, match="line 3"):
        parse_config("Omega = 1\nG1 = 2\nwhat is this\n")


def test_delta_cannot_be_assigned():
    with pytest.raises(ConfigError, match="sweep axis"):
        parse_config("delta = 3\n")
    with pytest.raises(ConfigError, match="sweep axis"):
        parse_config("variant v: delta = 3\n")


def test_unparseable_value_rejected():
    with pytest.raises(ConfigError, match=r"line 1.*Omega"):
        parse_config("Omega = fast\n")


def test_duplicate_key_rejected():
    with pytest.raises(ConfigError, match="duplicate"):
        parse_config("Omega = 1\nOmega = 2\n")


_AXIS = "delta is the sweep axis; set delta_min/delta_max/delta_points instead"
_VARIANT_SYNTAX = "variant line must read: variant <name>: key=value[, key=value...]"


@pytest.mark.parametrize("text, message", [
    # Base lines.
    ("G1 = 1\nwhat is this\n", "line 2: expected key = value, got 'what is this'"),
    ("\ufeffOmega\n", "line 1: expected key = value, got 'Omega'"),
    ("Omega = 1\n  dopler = 600\n", "line 2: unknown key 'dopler'"),
    ("= 5\n", "line 1: unknown key ''"),
    ("variant=1\n", "line 1: unknown key 'variant'"),
    ("\n# note\ndelta = 3\n", f"line 3: {_AXIS}"),
    ("Omega = 1\nOmega = fast\n", "line 2: duplicate key 'Omega'"),
    ("output = a\noutput = b\n", "line 2: duplicate key 'output'"),
    ("Omega = fast\n", "line 1: cannot parse value for 'Omega': 'fast'"),
    ("G1 = 3+4\n", "line 1: cannot parse value for 'G1': '3+4'"),
    ("delta_points = 1.5\n", "line 1: cannot parse value for 'delta_points': '1.5'"),
    ("gamma1 = 1  # decay\n", "line 1: cannot parse value for 'gamma1': '1  # decay'"),
    # Python's number syntax is wider than a config's.
    ("gamma1 = 1_0.5\n", "line 1: cannot parse value for 'gamma1': '1_0.5'"),
    ("G1 = 3_0+4j\n", "line 1: cannot parse value for 'G1': '3_0+4j'"),
    ("Omega = \uff15\n", "line 1: cannot parse value for 'Omega': '\uff15'"),
    ("delta_points = \u0663\n", "line 1: cannot parse value for 'delta_points': '\u0663'"),
    ("output =  \n", "line 1: output path is empty"),
    (f"delta_points = {MAX_DELTA_POINTS + 1}\n",
     f"line 1: delta_points must be <= {MAX_DELTA_POINTS} (got {MAX_DELTA_POINTS + 1})"),
    # Variant lines.
    ("variant\n", f"line 1: {_VARIANT_SYNTAX}"),
    ("Omega = 1\nvariant a G1 = 2\n", f"line 2: {_VARIANT_SYNTAX}"),
    ("variant  : G1 = 2\n", "line 1: variant name is empty"),
    ("variant a: G1\n", "line 1: variant override 'G1' is not key=value"),
    ("variant a: G1 = 2,\n", "line 1: variant override '' is not key=value"),
    ("variant a: G1 = 2,  x y ,\n", "line 1: variant override 'x y' is not key=value"),
    ("variant a: dopler = 600\n", "line 1: unknown key 'dopler'"),
    ("variant a: delta_min = -5\n", "line 1: unknown key 'delta_min'"),
    ("variant a: engine = numeric\n", "line 1: unknown key 'engine'"),
    ("variant a: G1 = 2, delta = 3\n", f"line 1: {_AXIS}"),
    ("variant a: G1 = 2, G1 = fast\n", "line 1: duplicate override 'G1'"),
    ("variant a: Omega = fast\n", "line 1: cannot parse value for 'Omega': 'fast'"),
    ("variant a: G2 = 1+\n", "line 1: cannot parse value for 'G2': '1+'"),
    # A base key and an override of the same name are no duplicates.
    ("G1 = 1\nvariant a: G1 = 2, G2 = j\nvariant a: G1 = 3\n",
     "duplicate variant name 'a'"),
    # Settings checked after the last line carry no line number.
    ("engine = warp\n", "engine must be one of analytic|numeric|both (got 'warp')"),
    ("delta_min = 5\ndelta_max = 5\n", "delta_min must be < delta_max (got 5.0 >= 5.0)"),
    ("delta_min = inf\n", "nonfinite delta grid bounds: [inf, 150.0]"),
    ("delta_max = nan\n", "nonfinite delta grid bounds: [-150.0, nan]"),
    ("variant a: gamma1 = -1\n", "variant 'a': nonpositive gamma1: -1.0"),
])
def test_config_reader_messages(text, message):
    with pytest.raises(ConfigError) as error:
        parse_config(text)
    assert str(error.value) == message


def test_duplicate_variant_name_rejected():
    with pytest.raises(ConfigError, match="duplicate variant"):
        parse_config("variant a: G1 = 1\nvariant a: G1 = 2\n")
    cfg = SweepConfig(variants=(Variant("a"), Variant(np.str_("a"))))
    with pytest.raises(ConfigError) as error:
        validate_config(cfg)
    assert str(error.value) == "duplicate variant name 'a'"


@pytest.mark.parametrize("name", [1, None, b"a"])
def test_non_str_variant_name_rejected(tmp_path, name):
    cfg = SweepConfig(delta_grid=DeltaGrid(-1.0, 1.0, 3), variants=(Variant(name),))
    message = f"variant name must be a str (got {name!r})"
    for run in (validate_config, run_sweep, lambda c: write_sweep(c, tmp_path / "out.csv")):
        with pytest.raises(ConfigError) as error:
            run(cfg)
        assert str(error.value) == message
    assert os.listdir(tmp_path) == []


def test_delta_override_rejected(tmp_path):
    cfg = SweepConfig(delta_grid=DeltaGrid(-1.0, 1.0, 3), variants=(Variant("a", {"delta": 7.0}),))
    for run in (validate_config, run_sweep, lambda c: write_sweep(c, tmp_path / "out.csv")):
        with pytest.raises(ConfigError) as error:
            run(cfg)
        assert str(error.value) == f"variant 'a': {_AXIS}"
    assert os.listdir(tmp_path) == []


@pytest.mark.parametrize("cfg, message", [
    (SweepConfig(variants=()), "config defines no variants"),
    # The sweep sets each row's delta; it used to drop a base delta silently.
    (SweepConfig(base=SystemParams(delta=7.0), delta_grid=DeltaGrid(-1.0, 1.0, 3)),
     f"base: {_AXIS}"),
    (SweepConfig(base=SystemParams(delta=float("nan"))), f"base: {_AXIS}"),
    # A grid of the wrong types, built in Python, names the grid.
    *((SweepConfig(delta_grid=grid),
       f"delta grid needs real bounds and integer points (got {grid})")
      for grid in (DeltaGrid(-1.0, 1.0, 2.5), DeltaGrid(-1.0, 1.0, 3.0),
                   DeltaGrid(-1.0, 1.0, "3"), DeltaGrid("a", 1.0, 3))),
    (SweepConfig(delta_grid=DeltaGrid(-1.0, 1.0, True)), "delta_points must be >= 2 (got True)"),
    (SweepConfig(variants=(Variant("a", {"Omega": "x"}),)),
     "variant 'a': could not convert string to float: 'x'"),
], ids=["no_variants", "base_delta", "nan_base_delta", "fractional_points", "float_points",
        "str_points", "str_min", "bool_points", "str_override"])
def test_library_config_refused_before_evaluation(tmp_path, cfg, message):
    for run in (validate_config, run_sweep, lambda c: write_sweep(c, tmp_path / "out.csv")):
        with pytest.raises(ConfigError) as error:
            run(cfg)
        assert str(error.value) == message
    assert os.listdir(tmp_path) == []


@pytest.mark.parametrize("base", [None, {"delta": 7.0}])
def test_base_that_is_no_params_is_refused_by_the_merge(base):
    with pytest.raises(ConfigError) as error:
        validate_config(SweepConfig(base=base))
    assert str(error.value).startswith("variant 'base': ")


def test_numpy_integer_points_run_like_int():
    grid = DeltaGrid(-1.0, 1.0, np.int64(3))
    expected = emit(run_sweep(SweepConfig(delta_grid=DeltaGrid(-1.0, 1.0, 3))), "json")
    assert emit(run_sweep(SweepConfig(delta_grid=grid)), "json") == expected


def test_negative_zero_base_delta_is_the_default():
    grid = DeltaGrid(-1.0, 1.0, 3)
    cfg = SweepConfig(base=SystemParams(delta=-0.0), delta_grid=grid)
    assert validate_config(cfg) is cfg
    expected = emit(run_sweep(SweepConfig(delta_grid=grid)), "json")
    assert emit(run_sweep(cfg), "json") == expected


def test_text_values_keep_any_characters():
    cfg = parse_config("output = r\u00e9sultat_1.csv\n")
    assert cfg.out_path == "r\u00e9sultat_1.csv"
    with pytest.raises(ConfigError) as error:
        parse_config("engine = b\u00f6th_\n")
    assert str(error.value) == "engine must be one of analytic|numeric|both (got 'b\u00f6th_')"


def test_invalid_merged_variant_rejected():
    with pytest.raises(ConfigError, match=r"variant 'bad'.*gamma1"):
        parse_config("variant bad: gamma1 = -1\n")
    cfg = SweepConfig(variants=(Variant(np.str_("bad"), {"gamma1": -1.0}),))
    with pytest.raises(ConfigError) as error:
        validate_config(cfg)
    assert str(error.value).startswith("variant 'bad': nonpositive gamma1")


def test_replaced_base_or_variants_are_checked_again():
    cfg = parse_config("delta_points = 3\nvariant a: G1 = 1\n")
    with pytest.raises(ConfigError, match=r"variant 'a'.*gamma1"):
        validate_config(replace(cfg, base=replace(cfg.base, gamma1=-1.0)))
    with pytest.raises(ConfigError, match="duplicate variant"):
        run_sweep(replace(cfg, variants=cfg.variants * 2))
    expected = [row.re_s_plus for row in run_sweep(parse_config(
        "delta_points = 3\nengine = numeric\nvariant a: G1 = 2\n"))]
    changed = replace(cfg, variants=(Variant("a", {"G1": 2.0}),), engine="numeric")
    assert [row.re_s_plus for row in run_sweep(changed)] == expected
    # An override changed in place after the config was checked.
    cfg = replace(cfg, engine="numeric")
    cfg.variants[0].overrides["G1"] = 2.0
    assert [row.re_s_plus for row in run_sweep(cfg)] == expected


def test_config_holds_only_its_settings():
    assert [f.name for f in dataclasses.fields(SweepConfig)] == [
        "base", "delta_grid", "variants", "engine", "out_format", "out_path"]


def test_validate_config_leaves_the_config_unchanged():
    cfg = SweepConfig(delta_grid=DeltaGrid(-1.0, 1.0, 3), variants=(Variant("a", {"G1": 1.0}),))
    before = dict(vars(cfg))
    assert validate_config(cfg) is cfg
    assert vars(cfg) == before


def test_bad_engine_rejected():
    with pytest.raises(ConfigError, match="engine"):
        parse_config("engine = warp\n")


def test_preset_fig2():
    cfg = preset("fig2")
    assert [v.name for v in cfg.variants] == ["G1=20", "G1=50", "G1=100"]
    assert [v.overrides["G1"] for v in cfg.variants] == [20.0, 50.0, 100.0]
    assert cfg.base.Omega == 0.0 and cfg.base.Delta == 0.0 and cfg.base.G2 == 0.0
    assert cfg.base.alpha_l == 30.0
    assert cfg.base.gamma1 == cfg.base.gamma2 == 1.0
    assert cfg.base.Gamma1 == cfg.base.Gamma2 == 1.0
    assert cfg.delta_grid == DeltaGrid(-150.0, 150.0, 2001)


def test_preset_fig3():
    cfg = preset("fig3")
    assert cfg.base.Omega == 5.0
    assert cfg.base.G2 == 0.0
    assert len(cfg.variants) == 5
    assert cfg.variants[0].overrides == {"G1": 0.0, "Delta": 5.0}
    assert cfg.variants[3].overrides == {"G1": 20.0, "Delta": -20.0}
    assert cfg.variants[4].overrides == {"G1": 20.0, "Delta": -30.0}


def test_preset_fig4():
    cfg = preset("fig4")
    assert cfg.base.G2 == 10.0
    assert cfg.base.Omega == 5.0 and cfg.base.Delta == 5.0
    assert [v.overrides["G1"] for v in cfg.variants] == [0.0, 20.0, 50.0]


def test_preset_returns_fresh_overrides():
    preset("fig3").variants[0].overrides["G1"] = 99.0
    cfg = preset("fig3")
    assert cfg.variants[0].overrides == {"G1": 0.0, "Delta": 5.0}
    assert cfg.variants[0].overrides is not preset("fig3").variants[0].overrides


def test_unknown_preset():
    with pytest.raises(ConfigError, match="unknown preset"):
        preset("fig9")


def _tiny_config(engine="analytic", variants=3, points=5) -> SweepConfig:
    names = ["a", "b", "c", "d"][:variants]
    return SweepConfig(
        base=SystemParams(Omega=1.0),
        delta_grid=DeltaGrid(-5.0, 5.0, points),
        variants=tuple(Variant(n, {"G1": 10.0 * i}) for i, n in enumerate(names)),
        engine=engine,
    )


def test_row_cardinality_single_engine():
    rows = run_sweep(_tiny_config(engine="analytic"))
    assert len(rows) == 3 * 5
    rows = run_sweep(_tiny_config(engine="numeric"))
    assert len(rows) == 3 * 5


def test_fig2_single_engine_cardinality():
    cfg = preset("fig2")
    rows = run_sweep(SweepConfig(base=cfg.base, delta_grid=cfg.delta_grid,
                                 variants=cfg.variants, engine="analytic"))
    assert len(rows) == 3 * 2001


def test_parallel_evaluation_matches_serial_order():
    # Sweep points are pure; evaluating them concurrently and sorting
    # back must reproduce the serial row stream exactly.
    from concurrent.futures import ThreadPoolExecutor
    from dataclasses import replace as dc_replace

    from morsim import s_pair
    from helpers import make_row

    cfg = _tiny_config(engine="analytic")
    serial = run_sweep(cfg)

    tasks = []
    for variant_index, variant in enumerate(cfg.variants):
        merged = variant.apply(cfg.base)
        for delta in cfg.delta_grid.values():
            tasks.append((variant_index, variant.name, dc_replace(merged, delta=float(delta))))

    def evaluate(task):
        variant_index, name, p = task
        return variant_index, p.delta, make_row(name, p.delta, s_pair(p), p.alpha_l, "analytic")

    with ThreadPoolExecutor(max_workers=4) as pool:
        results = list(pool.map(evaluate, reversed(tasks)))
    results.sort(key=lambda item: (item[0], item[1]))
    assert [r for _, _, r in results] == serial


def test_row_cardinality_and_pairing_both_engines():
    rows = run_sweep(_tiny_config(engine="both"))
    assert len(rows) == 2 * 3 * 5
    for analytic_row, numeric_row in zip(rows[::2], rows[1::2]):
        assert analytic_row.engine == "analytic"
        assert numeric_row.engine == "numeric"
        assert analytic_row.variant == numeric_row.variant
        assert analytic_row.delta == numeric_row.delta


def test_rows_ordered_by_variant_then_delta():
    rows = run_sweep(_tiny_config(engine="analytic"))
    assert [r.variant for r in rows] == ["a"] * 5 + ["b"] * 5 + ["c"] * 5
    for i in range(4):
        assert rows[i].delta < rows[i + 1].delta


def test_isotropic_medium_has_dark_crossed_polarizer():
    cfg = SweepConfig(
        base=SystemParams(Omega=0.0, G1=0.0, G2=0.0),
        delta_grid=DeltaGrid(-20.0, 20.0, 41),
        variants=(Variant("quiet"),),
        engine="both",
    )
    for row in run_sweep(cfg):
        assert row.t_y == 0.0


def test_sweep_error_carries_variant_context():
    # A numpy.str_ name prints as its rows do, not as np.str_('odd').
    for name in ("odd", np.str_("odd")):
        cfg = SweepConfig(
            base=SystemParams(G1=1e200),
            delta_grid=DeltaGrid(-1.0, 1.0, 3),
            variants=(Variant(name),),
            engine="analytic",
        )
        with pytest.raises(NumericError) as error:
            run_sweep(cfg)
        assert str(error.value).startswith("variant 'odd', delta=-1.0: overflow in closed-form")


def test_emit_csv_header_and_shape():
    rows = run_sweep(_tiny_config(variants=1, points=2))
    data = emit(rows[:1], "csv")
    lines = data.decode("utf-8").split("\n")
    assert lines[0] == "variant,delta,re_s_plus,im_s_plus,re_s_minus,im_s_minus,t_y,t_x,theta_rad,engine"
    assert len(lines) == 3 and lines[-1] == ""  # header + row + trailing newline


def test_emit_csv_round_trip():
    rows = run_sweep(_tiny_config(engine="both"))
    reader = csv.DictReader(io.StringIO(emit(rows, "csv").decode("utf-8")))
    parsed = list(reader)
    assert len(parsed) == len(rows)
    for original, row in zip(rows, parsed):
        assert row["variant"] == original.variant
        assert row["engine"] == original.engine
        for name in CSV_HEADER[1:-1]:
            value = float(row[name])
            reference = getattr(original, name)
            assert abs(value - reference) <= 1e-11 * max(abs(reference), 1e-300)


def test_output_row_contract():
    values = ("v", 0.5, 1.0, -2.0, 3.0, -4.0, 0.25, 0.75, 0.1, "analytic")
    row = OutputRow(*values)
    assert row == OutputRow(**dict(zip(CSV_HEADER, values)))
    assert OutputRow._fields == CSV_HEADER
    assert tuple(row) == values
    assert row.as_dict() == dict(zip(CSV_HEADER, values))
    assert list(row.as_dict()) == list(CSV_HEADER)
    assert row.t_x == 0.75
    with pytest.raises(AttributeError):
        row.delta = 1.0
    with pytest.raises(AttributeError):
        row.extra = 1.0


def test_emit_is_deterministic():
    rows_a = run_sweep(_tiny_config(engine="both"))
    rows_b = run_sweep(_tiny_config(engine="both"))
    assert emit(rows_a, "csv") == emit(rows_b, "csv")
    assert emit(rows_a, "json") == emit(rows_b, "json")


def test_emit_json_keys_and_values():
    rows = run_sweep(_tiny_config(variants=1, points=2))
    payload = json.loads(emit(rows, "json").decode("utf-8"))
    assert len(payload) == len(rows)
    assert list(payload[0].keys()) == list(CSV_HEADER)
    assert payload[0]["t_y"] == rows[0].t_y


@pytest.mark.parametrize("out_format", ["csv", "json"])
@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
def test_emit_rejects_nonfinite_values(out_format, bad):
    row = OutputRow("v", 0.0, 0.5, bad, 0.0, 0.0, 0.0, 0.0, 0.0, "analytic")
    with pytest.raises(EmitError, match=rf"nonfinite value in output row: {bad!r}"):
        emit([row], out_format)


def test_emit_rejects_empty_rows():
    with pytest.raises(EmitError, match="no rows"):
        emit([], "csv")


def test_emit_rejects_unknown_format():
    rows = run_sweep(_tiny_config(variants=1, points=2))
    with pytest.raises(EmitError, match="format"):
        emit(rows, "xml")


def test_emit_writes_file(tmp_path):
    rows = run_sweep(_tiny_config(variants=1, points=2))
    target = tmp_path / "out.csv"
    data = emit(rows, "csv", target)
    assert target.read_bytes() == data


def test_emit_write_failure_names_destination(tmp_path):
    rows = run_sweep(_tiny_config(variants=1, points=2))
    missing_dir = tmp_path / "nope" / "out.csv"
    with pytest.raises(EmitError, match="nope"):
        emit(rows, "csv", missing_dir)


class _FullDevice:
    """A file-like destination whose writes fail as on a full disk."""

    name = "<full>"

    def write(self, data):
        raise OSError(errno.ENOSPC, "No space left on device")


def test_file_like_write_failure_is_emit_error():
    cfg = _tiny_config(variants=1, points=2)
    with pytest.raises(EmitError, match=r"^cannot write <full>: .*No space left"):
        emit(run_sweep(cfg), "csv", _FullDevice())
    with pytest.raises(EmitError, match=r"^cannot write <full>: .*No space left"):
        write_sweep(cfg, _FullDevice())


def test_csv_numbers_use_plain_decimal_notation():
    row = OutputRow(
        variant="v", delta=0.0,
        re_s_plus=1 / 3, im_s_plus=9.36e-14,
        re_s_minus=-150.0, im_s_minus=0.0,
        t_y=0.5, t_x=0.25, theta_rad=-0.125, engine="analytic",
    )
    body = emit([row], "csv").decode("utf-8").split("\n")[1]
    fields = body.split(",")
    for numeric_field in fields[1:-1]:
        assert "e" not in numeric_field.lower()  # no exponent notation
    assert fields[2] == "0.333333333333"
    assert float(fields[3]) == pytest.approx(9.36e-14, rel=1e-11)
    assert fields[5] == "0"
