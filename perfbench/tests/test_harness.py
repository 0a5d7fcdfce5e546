"""Self-tests of run counting and of one traced run end to end."""

import dataclasses
import json
import math
from pathlib import Path

import run
import workloads

TINY = dataclasses.replace(workloads.WORKLOADS["gnls2d-bump128"],
                           n=(64, 64), length=4 * math.pi, n_steps=2, snapshot_every=1)


def test_dt_zero_counts_as_one_failed_run(tmp_path):
    cfgs = workloads.prepare(TINY, 0, tmp_path)
    cfgs["setup"].write_text(cfgs["setup"].read_text().replace("dt = 5e-05", "dt = 0.0"))
    with run.Runner(TINY, cfgs) as runner:
        children = runner.measure(1.0, ("setup", "full"), min_rounds=2)
    assert run.tally(children) == (1, 1)
    assert children[0].error.startswith("exit 2")
    assert run.end_to_end(TINY, children)["ok_frac"][0] == 0.0


def test_failed_output_check_counts_as_failed_run(tmp_path):
    cfgs = workloads.prepare(TINY, 0, tmp_path)
    expects_more_rows = dataclasses.replace(TINY, n_steps=3)
    with run.Runner(expects_more_rows, cfgs) as runner:
        child = runner.attempt("full")
    assert child.error is not None and "rows" in child.error
    assert run.tally([child]) == (1, 1)


def test_traced_run_counts_transforms_per_step(tmp_path):
    cfgs = workloads.prepare(TINY, 3, tmp_path)
    with run.Runner(TINY, cfgs) as runner:
        child = runner.attempt("traced")
    assert child.error is None
    layers = {k: v for k, (v, _) in child.layers.items()}
    assert layers["gnls.steps"] == 2 and layers["gnls.rhs_evals"] == 8
    # spectral_derivative is bound by name in gnls and gauge; both are traced
    assert layers["field.calls.spectral_derivative"] > 0
    assert (layers["fft.per_step.fwd_1d"], layers["fft.per_step.inv_1d"]) == (56, 56)
    assert (layers["fft.per_step.fwd_nd"], layers["fft.per_step.inv_nd"]) == (20, 20)
    assert layers["gauge.poisson_per_step"] == 12
    assert layers["diagnostics.rows"] == 2


def test_child_rss_excludes_the_benchmark_process(tmp_path):
    cfgs = workloads.prepare(TINY, 0, tmp_path)
    ballast = b"x" * (200 << 20)  # noqa: F841  (resident while the child runs)
    with run.Runner(TINY, cfgs) as runner:
        child = runner.attempt("setup")
    assert child.error is None and child.rss_mb < 150


def test_end_to_end_metrics_match_benchmark_json():
    listed = json.loads((Path(run.__file__).parents[1] / "BENCHMARK.json").read_text())
    children = [run.Child("setup", 1.0, 1.0, 50.0), run.Child("full", 3.0, 3.0, 60.0, None, 1e-9)]
    metrics = run.end_to_end(TINY, children)
    assert [m["name"] for m in listed["end_to_end"]] == list(metrics)
    assert metrics["steps_per_s"][0] == TINY.n_steps / 2.0
