"""Command-line front-end.

    smframe run <config.cfg> [--output DIR] [--verbose]
    smframe roundtrip <config.cfg> [--output DIR] [--verbose]
    smframe diagnose <snapshot.smfs>
    smframe version

Exit codes: 0 success, 2 configuration/validation error, 3 numerical
failure.  All messages go to standard error; data goes to files.
"""

from __future__ import annotations

import argparse
import ctypes
import platform
import sys
from dataclasses import fields as dc_fields
from pathlib import Path

from . import __version__
from .config import load_config
from .errors import ConfigError, FormatError, SmframeError

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3

#: glibc mallopt(3) parameter numbers
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3


def _keep_freed_memory() -> None:
    """Have glibc keep freed arrays of up to 16 MiB for reuse.

    A solver step allocates and frees a few MiB of arrays.  glibc's
    adaptive thresholds start low (arrays over 128 KiB are mapped and
    unmapped one by one, a free heap top over 128 KiB is trimmed) and rise
    only after a large block is freed, so each step can fault its pages
    back in: 217k minor faults in a 200-step 64x64 parabolic-sm run, about
    a fifth of its stepping time.  Fixed thresholds keep that memory in
    the heap.
    """
    if platform.libc_ver()[0] == "glibc":
        libc = ctypes.CDLL(None)
        libc.mallopt(_M_MMAP_THRESHOLD, 16 << 20)
        libc.mallopt(_M_TRIM_THRESHOLD, 64 << 20)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="smframe",
        description="Solvers and diagnostics for geometric Schrodinger flows "
                    "and their gauge-side systems.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_run_like(name: str, help_text: str):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("config_path", nargs="?", help="INI run configuration")
        p.add_argument("--config", dest="config_flag", help="INI run configuration")
        p.add_argument("--output", help="output directory (overrides config)")
        p.add_argument("--verbose", action="store_true")
        return p

    add_run_like("run", "execute a configured experiment")
    add_run_like("roundtrip", "direct-flow vs reconstruction comparison")

    pd = sub.add_parser("diagnose", help="recompute functionals from a snapshot")
    pd.add_argument("snapshot", help="path to a .smfs state snapshot")

    sub.add_parser("version", help="print the package version")
    return parser


def _cmd_run(args, force_experiment: str | None = None) -> int:
    path = args.config_flag or args.config_path
    if not path:
        print("error: no config given (positional or --config)", file=sys.stderr)
        return EXIT_CONFIG
    cfg = load_config(path)
    if force_experiment and cfg.experiment != force_experiment:
        raise ConfigError("run.experiment",
                          f"subcommand expects {force_experiment!r}, "
                          f"config says {cfg.experiment!r}")
    from .runner import execute
    _keep_freed_memory()
    outdir = execute(cfg, Path(path).read_text(), args.output)
    if args.verbose:
        print(f"run {cfg.run_id!r} finished; outputs in {outdir}", file=sys.stderr)
    return EXIT_OK


def _cmd_diagnose(args) -> int:
    from .diagnostics import DiagnosticsRow
    from .runner import diagnose_snapshot
    row = diagnose_snapshot(args.snapshot)
    for f in dc_fields(DiagnosticsRow):
        print(f"{f.name} = {getattr(row, f.name)}")
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "run":
            return _cmd_run(args)
        if args.command == "roundtrip":
            return _cmd_run(args, force_experiment="roundtrip")
        if args.command == "diagnose":
            return _cmd_diagnose(args)
        if args.command == "version":
            print(__version__)
            return EXIT_OK
    except (ConfigError, FormatError, OSError, ValueError) as exc:  # OSError names its path
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (SmframeError, FloatingPointError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
