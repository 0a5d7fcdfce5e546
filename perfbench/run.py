"""End-to-end benchmark of `smframe run` on named workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from
``src/``.  Load model: a closed loop with one client.  One fresh
`smframe run` child runs at a time; ``spawn.py`` starts it and waits for
it with ``wait4``, which gives the child's CPU time and peak RSS.

``--trace 0`` alternates set-up runs (the workload's config with
``t_end = 0``) and full runs until ``--seconds`` is used up, and reports
medians.  ``--trace 1`` alternates plain and traced full runs; the traced
runs go through ``tracer.py`` and give the per-layer metrics.  Every run's
outputs are checked.  The last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``; a per-run report goes
to ``.bench_out/<workload>-seed<N>-trace<T>/report.json``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path

import spans as sp

# workloads and envinfo import smframe and numpy; main() imports them only
# after checking that the sources are in this checkout

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
CLI = ["-c", "import sys; from smframe.cli import main; sys.exit(main())"]
TRACER = HERE / "tracer.py"
CHILD_TIMEOUT_S = 60.0


@dataclass
class Child:
    """One fresh `smframe run` and what the benchmark saw of it."""

    kind: str  # warmup | setup | full | traced
    wall_s: float = math.nan
    cpu_s: float = math.nan
    rss_mb: float = math.nan
    error: str | None = None
    scheme_err: float = math.nan
    layers: dict = field(default_factory=dict)


class Runner:
    """Starts, times and checks the children of one workload.

    Children are started through spawn.py, so that their peak RSS does not
    include this process's memory.
    """

    def __init__(self, w, cfgs: dict[str, Path]):
        self.w, self.cfgs = w, cfgs
        self.spawner = subprocess.Popen([sys.executable, str(HERE / "spawn.py")],
                                        stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                                        text=True)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.spawner.stdin.close()
        self.spawner.wait()

    def attempt(self, kind: str) -> Child:
        """Run one child of `kind` and check its outputs."""
        import workloads

        setup = kind in ("warmup", "setup")
        cfg = self.cfgs["setup" if setup else "full"]
        n_steps = 0 if setup else self.w.n_steps
        workdir = cfg.parent
        outdir = workdir / "out"
        shutil.rmtree(outdir, ignore_errors=True)
        spans_path = workdir / "spans.json"
        head = [str(TRACER), str(spans_path)] if kind == "traced" else CLI
        pythonpath = [str(SRC)] + ([os.environ["PYTHONPATH"]]
                                   if os.environ.get("PYTHONPATH") else [])
        self.spawner.stdin.write(json.dumps({
            "argv": [sys.executable, *head, "run", cfg.name, "--output", outdir.name],
            "cwd": str(workdir), "env": dict(os.environ, PYTHONPATH=os.pathsep.join(pythonpath)),
            "stdout": str(workdir / "stdout.txt"), "stderr": str(workdir / "stderr.txt"),
            "timeout": CHILD_TIMEOUT_S}) + "\n")
        self.spawner.stdin.flush()
        reply = json.loads(self.spawner.stdout.readline())
        child = Child(kind, reply["wall_s"], reply["cpu_s"], reply["maxrss_kb"] / 1024.0)
        stderr = (workdir / "stderr.txt").read_text(errors="replace")
        if reply["returncode"] != 0:
            child.error = f"exit {reply['returncode']}: {stderr.strip()[-300:]}"
        elif "Traceback" in stderr:
            child.error = "traceback on stderr"
        else:
            try:
                child.scheme_err = workloads.check_outputs(self.w, outdir, n_steps)
                if kind == "traced":
                    child.layers = traced_layers(self.w, workdir, spans_path)
            except (workloads.CheckFailed, OSError, ValueError, KeyError) as exc:
                child.error = f"{type(exc).__name__}: {exc}"
        print(f"  {kind:7s} {child.wall_s:8.3f} s  cpu {child.cpu_s:8.3f} s  "
              f"rss {child.rss_mb:7.1f} MiB  {child.error or 'ok'}", file=sys.stderr)
        return child

    def measure(self, seconds: float, kinds: tuple[str, ...], min_rounds: int) -> list[Child]:
        """Warm up once, then run rounds of `kinds` until the next round would
        overrun `seconds` (at least `min_rounds`); stop at the first failure."""
        children = [self.attempt("warmup")]
        start, round_s = time.perf_counter(), []
        while children[-1].error is None:
            elapsed = time.perf_counter() - start
            if len(round_s) >= min_rounds and elapsed + statistics.median(round_s) > seconds:
                break
            t0 = time.perf_counter()
            for kind in kinds:
                children.append(self.attempt(kind))
                if children[-1].error is not None:
                    break
            round_s.append(time.perf_counter() - t0)
        return children


def traced_layers(w, workdir: Path, spans_path: Path) -> dict:
    raw = json.loads(spans_path.read_text())
    names = raw["names"]
    raw["spans"] = [(names[n], t0, t1, p) for n, t0, t1, p in raw["spans"]]
    metrics = sp.layer_metrics(raw)
    outdir = workdir / "out"
    written = sum(p.stat().st_size for p in outdir.glob("*.smfs"))
    reads = sum(1 for name, *_ in raw["spans"] if name == "snapshot.read_snapshot")
    metrics["snapshot.bytes"] = ((workdir / "input.smfs").stat().st_size * reads + written,
                                 "bytes")
    metrics["diagnostics.csv_bytes"] = ((outdir / f"{w.name}.diag.csv").stat().st_size,
                                        "bytes")
    return metrics


def tally(children: list[Child]) -> tuple[int, int]:
    """(attempted, failed) over every child run, warm-up included."""
    return len(children), sum(1 for c in children if c.error is not None)


def _median(children, kind: str, attr: str) -> float:
    vals = [getattr(c, attr) for c in children if c.kind == kind and c.error is None]
    return statistics.median(vals) if vals else math.nan


def end_to_end(w, children: list[Child]) -> dict[str, tuple[float, str]]:
    setup_s, run_s = _median(children, "setup", "wall_s"), _median(children, "full", "wall_s")
    attempted, failed = tally(children)
    return {
        "setup_s": (setup_s, "s"),
        "run_s": (run_s, "s"),
        "steps_per_s": (w.n_steps / (run_s - setup_s) if run_s > setup_s else math.nan,
                        "1/s"),
        "cpu_s": (_median(children, "full", "cpu_s"), "s"),
        "peak_rss_mb": (_median(children, "full", "rss_mb"), "MiB"),
        "scheme_err": (_median(children, "full", "scheme_err"), "1"),
        "ok_frac": ((attempted - failed) / attempted, "1"),
    }


def per_layer(children: list[Child]) -> dict[str, tuple[float, str]]:
    traced = [c for c in children if c.kind == "traced" and c.error is None]
    if not traced:
        return {}
    out = {name: (statistics.median(c.layers[name][0] for c in traced), unit)
           for name, (_, unit) in traced[0].layers.items()}
    out["trace.overhead_s"] = (_median(children, "traced", "wall_s")
                               - _median(children, "full", "wall_s"), "s")
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "smframe" / "cli.py").is_file():
        print(f"error: no smframe sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import smframe
    if Path(smframe.__file__).resolve().parent != (SRC / "smframe").resolve():
        print(f"error: smframe imported from {smframe.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import envinfo
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; expected one of "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    w = workloads.WORKLOADS[args.workload]
    workdir = OUT / f"{w.name}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(workdir, ignore_errors=True)
    cfgs = workloads.prepare(w, args.seed, workdir)
    print(f"{w.name} seed {args.seed} trace {args.trace}: measuring {args.seconds:g} s",
          file=sys.stderr)

    with Runner(w, cfgs) as runner:
        if args.trace:
            children = runner.measure(args.seconds, ("full", "traced"), min_rounds=1)
            metrics = per_layer(children)
        else:
            children = runner.measure(args.seconds, ("setup", "full"), min_rounds=2)
            metrics = end_to_end(w, children)
    attempted, failed = tally(children)
    report = {"workload": w.name, "seed": args.seed, "trace": args.trace,
              "env": envinfo.record(workloads.WORKLOADS.values()),
              "children": [asdict(c) for c in children],
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    (workdir / "report.json").write_text(json.dumps(report, indent=1, default=str))
    ok = failed == 0 and all(math.isfinite(v) for v, _ in metrics.values())
    print(json.dumps({
        "correct": ok, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v if math.isfinite(v) else 0.0, "unit": u}
                    for k, (v, u) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
