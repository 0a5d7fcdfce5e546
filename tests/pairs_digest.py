"""Print one SHA-256 digest per `test_cli.PAIRS` config and per benchmark
workload, over every output file of its run except the manifest (which
records the wall time).

    python tests/pairs_digest.py > digests.txt

The run uses the `src/` next to this file.  Each workload's input snapshot
and configs are written by `perfbench.workloads.prepare` with seed
`WORKLOAD_SEED`, and its full config runs in that directory, as the
benchmark runs it.  Run the script in two checkouts and `diff` the two
listings: equal lines mean byte-identical diagnostics CSVs, final
snapshots and roundtrip reports.  pytest does not collect it.
"""

import hashlib
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


def _run(cfg: Path, out: Path) -> str:
    code = main(["run", str(cfg), "--output", str(out)])
    if code:
        raise SystemExit(f"run exited {code}:\n{cfg.read_text()}")
    sha = hashlib.sha256()
    for path in sorted(out.iterdir()):
        if not path.name.endswith(".manifest.json"):
            sha.update(path.name.encode() + b"\0" + path.read_bytes())
    return sha.hexdigest()


def digest(config: str) -> str:
    with tempfile.TemporaryDirectory() as tmp:
        cfg = Path(tmp) / "run.cfg"
        cfg.write_text(config)
        return _run(cfg, Path(tmp) / "out")


def workload_digest(w: workloads.Workload) -> str:
    cwd = Path.cwd()
    with tempfile.TemporaryDirectory() as tmp:
        cfgs = workloads.prepare(w, WORKLOAD_SEED, Path(tmp))
        os.chdir(tmp)  # the config names its input snapshot relative to its directory
        try:
            return _run(cfgs["full"], Path(tmp) / "out")
        finally:
            os.chdir(cwd)


if __name__ == "__main__":
    warnings.simplefilter("ignore")
    for pair, (config, _) in PAIRS.items():
        print("-".join(pair), digest(config))
    for name, w in workloads.WORKLOADS.items():
        print(name, workload_digest(w))
