"""Command-line front end.

Two subcommands::

    morsim sweep --config sweep.cfg [--engine both] [--format csv] [--out path]
    morsim figure fig2 [--out directory]

Exit codes: 0 on success, 1 on configuration or parameter errors, 2 on
numeric failures (including analytic-vs-numeric cross-validation).
"""

from __future__ import annotations

import argparse
import contextlib
import os
import sys
from dataclasses import replace
from pathlib import Path

from .errors import ConfigError, EmitError, MorsimError, NumericError
from .sweep import (ENGINES, FORMATS, MAX_CONFIG_BYTES, PRESET_NAMES, _read_config, preset,
                    write_sweep)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="morsim",
        description="Susceptibility and magneto-optical rotation spectra of a "
                    "control-driven four-level medium.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sweep_cmd = sub.add_parser("sweep", help="run a sweep described by a config file")
    sweep_cmd.add_argument("--config", required=True, help="path to flat key-value config")
    sweep_cmd.add_argument("--engine", choices=ENGINES, default=None,
                           help="override the engine selected in the config")
    sweep_cmd.add_argument("--format", choices=FORMATS, default=None, dest="out_format",
                           help="override the output format selected in the config")
    sweep_cmd.add_argument("--out", default=None, dest="out_path",
                           help="output path (default: config 'output', else stdout)")

    figure_cmd = sub.add_parser("figure", help="emit the data behind a built-in preset")
    figure_cmd.add_argument("name", choices=PRESET_NAMES)
    figure_cmd.add_argument("--out", default=".",
                            help="directory for <name>.csv (default: current directory)")
    return parser


def _run_sweep_command(args: argparse.Namespace) -> int:
    try:
        with open(args.config, "rb") as stream:
            data = stream.read(MAX_CONFIG_BYTES + 1)
    except OSError as exc:
        raise ConfigError(f"cannot read config {args.config}: {exc}") from exc
    if len(data) > MAX_CONFIG_BYTES:
        raise ConfigError(f"config {args.config} is larger than {MAX_CONFIG_BYTES} bytes")
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        # The line of the bad byte, as the parser's splitlines counts lines.
        line = len((data[:exc.start].decode("utf-8") + "_").splitlines())
        raise ConfigError(f"config {args.config} is not UTF-8: {exc.reason} "
                          f"at byte {exc.start}", line=line) from exc
    # Variants are merged and checked once, by write_sweep.
    options = {name: getattr(args, name) for name in ("engine", "out_format", "out_path")}
    cfg = replace(_read_config(text),
                  **{name: value for name, value in options.items() if value is not None})

    if cfg.out_path is None or cfg.out_path == "-":
        # Spooled: stdout gets no byte unless the whole sweep passes.
        try:
            write_sweep(cfg, sys.stdout.buffer)
        except EmitError:
            # Drop what stdout could not take, so the flush at exit cannot fail again.
            with contextlib.suppress(OSError), open(os.devnull, "wb") as devnull:
                os.dup2(devnull.fileno(), sys.stdout.fileno())
            raise
    else:
        rows = write_sweep(cfg, cfg.out_path)
        print(f"wrote {rows} rows to {cfg.out_path}")
    return 0


def _run_figure_command(args: argparse.Namespace) -> int:
    cfg = preset(args.name)
    out_dir = Path(args.out)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise EmitError(f"cannot create output directory {out_dir}: {exc}") from exc
    path = out_dir / f"{args.name}.csv"
    rows = write_sweep(cfg, path)
    print(f"wrote {rows} rows to {path}")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors; usage problems are
        # configuration errors under this tool's exit-code contract.
        return 0 if exc.code in (0, None) else 1

    try:
        if args.command == "sweep":
            return _run_sweep_command(args)
        return _run_figure_command(args)
    except NumericError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 2
    except (MorsimError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
