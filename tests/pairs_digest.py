"""Print one SHA-256 digest per `test_cli.PAIRS` config, over every output
file of its run except the manifest (which records the wall time).

    python tests/pairs_digest.py > digests.txt

The run uses the `src/` next to this file.  Run it in two checkouts and
`diff` the two listings: equal lines mean byte-identical diagnostics CSVs,
final snapshots and roundtrip reports.  pytest does not collect it.
"""

import hashlib
import sys
import tempfile
import warnings
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from smframe.cli import main  # noqa: E402
from test_cli import PAIRS  # noqa: E402


def digest(config: str) -> str:
    with tempfile.TemporaryDirectory() as tmp:
        cfg, out = Path(tmp) / "run.cfg", Path(tmp) / "out"
        cfg.write_text(config)
        code = main(["run", str(cfg), "--output", str(out)])
        if code:
            raise SystemExit(f"run exited {code}:\n{config}")
        sha = hashlib.sha256()
        for path in sorted(out.iterdir()):
            if not path.name.endswith(".manifest.json"):
                sha.update(path.name.encode() + b"\0" + path.read_bytes())
        return sha.hexdigest()


if __name__ == "__main__":
    warnings.simplefilter("ignore")
    for pair, (config, _) in PAIRS.items():
        print("-".join(pair), digest(config))
