"""Print one SHA-256 digest per output file of each `test_cli.PAIRS` config
and each benchmark workload: the diagnostics CSV, the final snapshot and the
roundtrip report, not the manifest (which records the wall time).

    python tests/pairs_digest.py > digests.txt

The run uses the `src/` next to this file.  Each workload's input snapshot
and configs are written by `perfbench.workloads.prepare` with seed
`WORKLOAD_SEED`, and its full config runs in that directory, as the
benchmark runs it.  Run the script in two checkouts and `diff` the two
listings: each line names a run and one of its files, so a diff tells a
run whose logged values moved (its CSV line only) from one whose state
moved (its snapshot line too).  A roundtrip report's line ends with its
`max_gap`, so the diff also shows how far the roundtrip moved.  pytest does
not collect it.
"""

import hashlib
import json
import os
import sys
import tempfile
import warnings
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench import workloads  # noqa: E402
from smframe.cli import main  # noqa: E402
from test_cli import PAIRS  # noqa: E402

WORKLOAD_SEED = 7


def _line(path: Path) -> str:
    """The file's SHA-256 digest, and the max_gap of a roundtrip report."""
    line = hashlib.sha256(path.read_bytes()).hexdigest()
    if path.name.endswith(".roundtrip.json"):
        line += f" max_gap={json.loads(path.read_text())['max_gap']!r}"
    return line


def _run(cfg: Path, out: Path) -> dict[str, str]:
    code = main(["run", str(cfg), "--output", str(out)])
    if code:
        raise SystemExit(f"run exited {code}:\n{cfg.read_text()}")
    return {path.name: _line(path)
            for path in sorted(out.iterdir()) if not path.name.endswith(".manifest.json")}


def digest(config: str) -> dict[str, str]:
    with tempfile.TemporaryDirectory() as tmp:
        cfg = Path(tmp) / "run.cfg"
        cfg.write_text(config)
        return _run(cfg, Path(tmp) / "out")


def workload_digest(w: workloads.Workload) -> dict[str, str]:
    cwd = Path.cwd()
    with tempfile.TemporaryDirectory() as tmp:
        cfgs = workloads.prepare(w, WORKLOAD_SEED, Path(tmp))
        os.chdir(tmp)  # the config names its input snapshot relative to its directory
        try:
            return _run(cfgs["full"], Path(tmp) / "out")
        finally:
            os.chdir(cwd)


def _print(name: str, files: dict[str, str]) -> None:
    for file, line in files.items():
        print(name, file, line)


if __name__ == "__main__":
    warnings.simplefilter("ignore")
    for pair, (config, _) in PAIRS.items():
        _print("-".join(pair), digest(config))
    for name, w in workloads.WORKLOADS.items():
        _print(name, workload_digest(w))
