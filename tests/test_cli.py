import csv
import inspect
import json
import math
import os
import platform
import subprocess
import sys
import tempfile
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst

import smframe
import smframe.gnls
from smframe import geometry as geo
from smframe import presets
from smframe.cli import main
from smframe.config import EXPERIMENTS
from smframe.diagnostics import energy_map
from smframe.direct import MapState, heisenberg_step, parabolic_sm_step
from smframe.errors import CFLViolation
from smframe.field import Grid
from smframe.runner import FIELD_PRESETS, MAP_PRESETS
from smframe.snapshot import read_snapshot, write_snapshot

NLS1D_CFG = """
[run]
experiment = nls1d
target = sphere
dt = 1e-3
t_end = 0.01
snapshot_every = 5
run_id = demo

[grid]
n = 64
length = 62.83185307179586

[initial]
preset = soliton
b = 2.0
"""

ROUNDTRIP_CFG = """
[run]
experiment = roundtrip
target = sphere
dt = 1e-4
t_end = 1e-3
snapshot_every = 5
run_id = loop

[grid]
n = 64
length = 6.283185307179586

[initial]
preset = great-circle

[base]
m = 1, 0, 0
v0 = 0, 0, 1
"""


DIRECT_CFG = """
[run]
experiment = direct-sm
target = sphere
dt = 1e-4
t_end = 1e-3
snapshot_every = 5
run_id = flow

[grid]
n = 64
length = 6.283185307179586

[initial]
preset = perturbed-great-circle
"""

GNLS_CFG = """
[run]
experiment = gnls
target = sphere
dt = 1e-4
t_end = 5e-4
snapshot_every = 1
run_id = bump

[grid]
n = 32, 32
length = 12.566370614359172

[initial]
preset = sphere-bump
"""

SOLITON_RECONSTRUCT_CFG = """
[run]
experiment = reconstruct
target = sphere
dt = 1e-3
t_end = 2e-2
snapshot_every = 5
run_id = rebuild

[grid]
n = 256
length = 62.83185307179586

[initial]
preset = soliton
b = 2.0

[base]
m = 0, 0, 1
v0 = 1, 0, 0
"""


def _write(tmp_path, text, name="run.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def _rows(path):
    """The diagnostics CSV's rows as column -> value."""
    with open(path, newline="") as fh:
        return [{k: float(v) for k, v in rec.items()} for rec in csv.DictReader(fh)]


def test_version_prints_and_exits_zero(capsys):
    assert main(["version"]) == 0
    out = capsys.readouterr().out.strip()
    assert out and out[0].isdigit()


def test_run_produces_outputs(tmp_path, capsys):
    cfg = _write(tmp_path, NLS1D_CFG)
    assert main(["run", cfg, "--output", str(tmp_path), "--verbose"]) == 0
    assert "demo" in capsys.readouterr().err

    rows = _rows(tmp_path / "demo.diag.csv")
    times = [r["time"] for r in rows]
    assert times == pytest.approx([0.005, 0.01])
    assert all(b > a for a, b in zip(times, times[1:]))
    assert all(math.isfinite(r["mass"]) for r in rows)

    manifest = json.loads((tmp_path / "demo.manifest.json").read_text())
    assert manifest["run_id"] == "demo"
    assert manifest["experiment"] == "nls1d"
    assert manifest["version"] == smframe.__version__
    assert "[run]" in manifest["config"]

    snap = read_snapshot(tmp_path / "demo.final.smfs")
    assert snap.time == pytest.approx(0.01)
    assert "q" in snap.fields


def test_invalid_dt_is_config_error(tmp_path, capsys):
    cfg = _write(tmp_path, NLS1D_CFG.replace("dt = 1e-3", "dt = 0"))
    assert main(["run", cfg]) == 2
    assert "run.dt" in capsys.readouterr().err


@pytest.mark.parametrize("dt", ["inf", "nan"])
def test_non_finite_dt_is_config_error(tmp_path, capsys, dt):
    cfg = _write(tmp_path, NLS1D_CFG.replace("dt = 1e-3", f"dt = {dt}")
                 .replace("t_end = 0.01", "t_end = 1"))
    assert main(["run", cfg, "--output", str(tmp_path)]) == 2
    assert "run.dt" in capsys.readouterr().err
    assert not (tmp_path / "demo.diag.csv").exists()


@pytest.mark.parametrize("dt, t_end", [("1e-320", "1"), ("5e-324", "1"),
                                        ("1e-10", "1e300"), ("1e-300", "1e300")])
def test_overflowing_step_count_is_config_error(tmp_path, capsys, dt, t_end):
    # t_end / dt overflows to inf, which round() cannot count
    cfg = _write(tmp_path, NLS1D_CFG.replace("dt = 1e-3", f"dt = {dt}")
                 .replace("t_end = 0.01", f"t_end = {t_end}"))
    assert main(["run", cfg, "--output", str(tmp_path)]) == 2
    assert "run.dt" in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["run.cfg"]


@pytest.mark.parametrize("dt, t_end", [("1", "1e300"), ("1e-3", "1e6")])
def test_step_count_above_the_cap_is_config_error(tmp_path, capsys, dt, t_end):
    # a finite but endless run (10^300 steps) stops at load, before any march
    cfg = _write(tmp_path, NLS1D_CFG.replace("dt = 1e-3", f"dt = {dt}")
                 .replace("t_end = 0.01", f"t_end = {t_end}"))
    assert main(["run", cfg, "--output", str(tmp_path)]) == 2
    assert "run.t_end" in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["run.cfg"]


@pytest.mark.parametrize("length", ["nan", "inf"])
def test_non_finite_box_length_is_config_error(tmp_path, capsys, length):
    cfg = _write(tmp_path, NLS1D_CFG.replace("length = 62.83185307179586",
                                             f"length = {length}"))
    assert main(["run", cfg, "--output", str(tmp_path)]) == 2
    assert "grid" in capsys.readouterr().err
    assert not (tmp_path / "demo.diag.csv").exists()


def test_unknown_experiment_is_config_error(tmp_path, capsys):
    cfg = _write(tmp_path, NLS1D_CFG.replace("experiment = nls1d",
                                             "experiment = magic"))
    assert main(["run", cfg]) == 2
    assert "run.experiment" in capsys.readouterr().err


def test_epsilon_rejected_outside_parabolic_runs(tmp_path, capsys):
    cfg = _write(tmp_path, NLS1D_CFG.replace("dt = 1e-3",
                                             "dt = 1e-3\nepsilon = 0.1"))
    assert main(["run", cfg]) == 2
    assert "epsilon" in capsys.readouterr().err


def test_missing_config_paths(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:  # argparse: the config path is required
        main(["run"])
    assert exc.value.code == 2
    assert main(["run", str(tmp_path / "nope.cfg")]) == 2


@pytest.mark.parametrize("argv", [["roundtrip", "x.cfg"], ["run", "--config", "x.cfg"],
                                  ["run", "x.cfg", "--config", "y.cfg"]],
                         ids=["roundtrip", "config-flag", "path-and-config-flag"])
def test_run_is_the_one_way_to_start_a_run(capsys, argv):
    with pytest.raises(SystemExit) as exc:  # argparse, before any config is read
        main(argv)
    assert exc.value.code == 2


def test_diagnose_snapshot(tmp_path, capsys):
    cfg = _write(tmp_path, NLS1D_CFG)
    assert main(["run", cfg, "--output", str(tmp_path)]) == 0
    capsys.readouterr()
    assert main(["diagnose", str(tmp_path / "demo.final.smfs")]) == 0
    out = capsys.readouterr().out
    assert "mass = " in out and "time = " in out

    bad = tmp_path / "bad.smfs"
    data = bytearray((tmp_path / "demo.final.smfs").read_bytes())
    data[:4] = b"XXXX"
    bad.write_bytes(data)
    assert main(["diagnose", str(bad)]) == 2


def test_roundtrip_run(tmp_path):
    cfg = _write(tmp_path, ROUNDTRIP_CFG)
    assert main(["run", cfg, "--output", str(tmp_path)]) == 0
    report = json.loads((tmp_path / "loop.roundtrip.json").read_text())
    assert len(report["times"]) == len(report["geodesic_gap"]) == 3
    assert report["max_gap"] < 1e-8
    assert report["periodicity_defect"] < 1e-8
    snap = read_snapshot(tmp_path / "loop.final.smfs")
    assert snap.time == pytest.approx(1e-3)
    assert snap.fields["u"].shape == (64, 3)
    assert np.max(np.abs(np.sum(snap.fields["u"] ** 2, axis=-1) - 1.0)) < 1e-12


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_roundtrip_gap_that_is_not_finite_exits_3_without_outputs(tmp_path, capsys,
                                                                  monkeypatch):
    # a reconstruction step that returns nan: the run stops at the first
    # logged pair, before the final snapshot and the report are written
    def nan_step(target, u, e, stages, dt):
        return np.full_like(u, np.nan), np.full_like(e, np.nan)

    monkeypatch.setattr(smframe.reconstruct, "time_evolve_point", nan_step)
    assert main(["run", _write(tmp_path, ROUNDTRIP_CFG), "--output", str(tmp_path)]) == 3
    assert "geodesic gap is not finite at t = 0.0005" in capsys.readouterr().err
    assert not (tmp_path / "loop.final.smfs").exists()
    assert not (tmp_path / "loop.roundtrip.json").exists()


def test_field_preset_reconstruct_runs(tmp_path):
    cfg = _write(tmp_path, SOLITON_RECONSTRUCT_CFG)
    assert main(["run", cfg, "--output", str(tmp_path)]) == 0
    rows = _rows(tmp_path / "rebuild.diag.csv")
    assert [r["time"] for r in rows] == pytest.approx([5e-3, 1e-2, 1.5e-2, 2e-2])
    assert all(r["constraint_max"] < 1e-8 for r in rows)
    snap = read_snapshot(tmp_path / "rebuild.final.smfs")
    assert snap.time == pytest.approx(2e-2)
    assert snap.fields["u"].shape == snap.fields["e"].shape == (256, 3)


def test_unknown_preset_parameter_is_config_error(tmp_path, capsys):
    cfg = _write(tmp_path, NLS1D_CFG.replace("b = 2.0", "c = 1.0"))
    assert main(["run", cfg, "--output", str(tmp_path)]) == 2
    assert "initial.c" in capsys.readouterr().err


def test_integer_preset_parameter_is_cast(tmp_path, capsys):
    cfg = _write(tmp_path, ROUNDTRIP_CFG.replace(
        "preset = great-circle", "preset = perturbed-great-circle\nseed = 3"))
    assert main(["run", cfg, "--output", str(tmp_path)]) == 0
    cfg = _write(tmp_path, ROUNDTRIP_CFG.replace(
        "preset = great-circle", "preset = great-circle\nturns = 1.5"))
    assert main(["run", cfg, "--output", str(tmp_path)]) == 2
    assert "initial.turns" in capsys.readouterr().err


def test_t_end_must_be_whole_steps(tmp_path, capsys):
    cfg = _write(tmp_path, NLS1D_CFG.replace("t_end = 0.01", "t_end = 0.0105"))
    assert main(["run", cfg, "--output", str(tmp_path)]) == 2
    assert "run.t_end" in capsys.readouterr().err


def test_t_end_must_be_whole_snapshot_intervals(tmp_path, capsys):
    # the last logged state is the final snapshot, so it must fall on t_end
    cfg = _write(tmp_path, NLS1D_CFG.replace("snapshot_every = 5", "snapshot_every = 3"))
    assert main(["run", cfg, "--output", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert "run.snapshot_every" in err and "10 steps" in err
    assert not (tmp_path / "demo.diag.csv").exists()


def test_cli_import_leaves_scipy_unloaded():
    src = Path(smframe.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(src))
    code = ("import sys, smframe.cli, smframe.runner; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"


def test_runs_leave_scipy_unloaded(tmp_path):
    # a 2-D gnls run and a 1-D roundtrip stay on numpy.fft: importing
    # scipy.fft costs about 0.4 s and 27 MiB of resident memory per run
    cfgs = [_write(tmp_path, GNLS_CFG, "gnls.cfg"), _write(tmp_path, ROUNDTRIP_CFG, "loop.cfg")]
    src = Path(smframe.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(src))
    code = ("import sys, warnings; from smframe.cli import main; "
            "warnings.simplefilter('ignore'); "
            "print([main(['run', c, '--output', sys.argv[1]]) for c in sys.argv[2:]], "
            "sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    out = subprocess.run([sys.executable, "-c", code, str(tmp_path), *cfgs], env=env,
                         check=True, capture_output=True, text=True).stdout
    assert out.strip() == "[0, 0] []"


def test_snapshot_without_needed_field_is_config_error(tmp_path, capsys):
    g = Grid((64,), (62.83185307179586,))
    snap = tmp_path / "map.smfs"
    write_snapshot(snap, g, geo.SPHERE, 0.0, {"u": presets.great_circle(g)})
    cfg = _write(tmp_path, NLS1D_CFG.replace("preset = soliton\nb = 2.0",
                                             f"snapshot = {snap}"))
    assert main(["run", cfg, "--output", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert "initial.snapshot" in err and "'q'" in err and "u" in err


@pytest.mark.parametrize("name, value", [("u", "real scalar"), ("q", "3-vector"),
                                         ("u", "complex scalar")])
def test_snapshot_field_of_the_wrong_shape_is_config_error(tmp_path, capsys, name, value):
    text, length = (NLS1D_CFG, 10 * _L1) if name == "q" else (DIRECT_CFG, _L1)
    g = Grid((64,), (length,))
    field = {"real scalar": np.ones(g.shape), "3-vector": np.ones(g.shape + (3,)),
             "complex scalar": np.ones(g.shape, complex)}[value]
    snap = tmp_path / "bad.smfs"
    write_snapshot(snap, g, geo.SPHERE, 0.0, {name: field})
    text = text.replace("preset = soliton\nb = 2.0", f"snapshot = {snap}").replace(
        "preset = perturbed-great-circle", f"snapshot = {snap}")
    out = tmp_path / "out"
    assert main(["run", _write(tmp_path, text), "--output", str(out)]) == 2
    err = capsys.readouterr().err
    expected = (64, 3) if name == "u" else (64,)
    assert "initial.snapshot" in err and f"field {name!r}" in err and f"expected {expected}" in err
    assert not out.exists()


@pytest.mark.parametrize("name, value", [("u", "real scalar"), ("u", "complex scalar"),
                                         ("q1", "3-vector")])
def test_diagnose_of_a_field_of_the_wrong_shape_is_config_error(tmp_path, capsys, name,
                                                                value):
    g = Grid((64,), (_L1,))
    field = {"real scalar": np.ones(g.shape), "3-vector": np.ones(g.shape + (3,)),
             "complex scalar": np.ones(g.shape, complex)}[value]
    snap = tmp_path / "bad.smfs"
    write_snapshot(snap, g, geo.SPHERE, 0.0, {name: field})
    assert main(["diagnose", str(snap)]) == 2
    captured = capsys.readouterr()
    expected = (64, 3) if name == "u" else (64,)
    assert f"field {name!r}" in captured.err and f"expected {expected}" in captured.err
    assert captured.out == ""


def test_diagnose_prints_plain_floats(tmp_path, capsys):
    assert main(["run", _write(tmp_path, DIRECT_CFG), "--output", str(tmp_path)]) == 0
    capsys.readouterr()
    assert main(["diagnose", str(tmp_path / "flow.final.smfs")]) == 0
    out = capsys.readouterr().out
    assert "moment = (" in out and "killing = (" in out
    assert "np.float64" not in out


def test_diagnose_has_no_verbose_option(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["diagnose", str(tmp_path / "demo.final.smfs"), "--verbose"])
    assert exc.value.code == 2


def test_direct_run_logs_moments_as_killing_functionals(tmp_path):
    cfg = _write(tmp_path, DIRECT_CFG)
    assert main(["run", cfg, "--output", str(tmp_path)]) == 0
    rows = _rows(tmp_path / "flow.diag.csv")
    assert len(rows) == 2
    for row in rows:
        moment = [row[f"moment_{i}"] for i in (1, 2, 3)]
        assert all(math.isfinite(v) for v in moment)
        assert [row[f"killing_{i}"] for i in (1, 2, 3)] == moment


def test_gnls_run_logs_compatibility_without_deriving_a0(tmp_path, monkeypatch):
    # the logged residual reads q and a only: a_0 is solved at the 4 RK4
    # stages of each step and nowhere else
    solves = []
    a0_from_q0 = smframe.gnls.a0_from_q0

    def counted(*args, **kwargs):
        solves.append(1)
        return a0_from_q0(*args, **kwargs)

    monkeypatch.setattr(smframe.gnls, "a0_from_q0", counted)
    cfg = _write(tmp_path, GNLS_CFG)
    assert main(["run", cfg, "--output", str(tmp_path)]) == 0
    rows = _rows(tmp_path / "bump.diag.csv")
    assert len(rows) == 5
    assert all(math.isfinite(row[f"residual_compat_{i}"]) for row in rows for i in (1, 2, 3))
    assert len(solves) == 4 * 5


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc",
                    reason="sets glibc allocator thresholds")
def test_run_keeps_freed_arrays_for_reuse():
    # a freed 4 MiB array is reused without page faults, instead of being
    # unmapped (or trimmed off the heap) and faulted back in
    src = Path(smframe.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(src))
    code = ("import resource, numpy as np; from smframe import cli; "
            "cli._keep_freed_memory(); np.ones(1 << 19); "
            "f = resource.getrusage(resource.RUSAGE_SELF).ru_minflt; "
            "np.ones(1 << 19); "
            "print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - f)")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert int(out) < 100


def test_non_finite_state_exits_3(tmp_path, capsys):
    # dt far past the CFL limit: every logged mass is nan
    cfg = _write(tmp_path, GNLS_CFG.replace("dt = 1e-4\nt_end = 5e-4\nsnapshot_every = 1",
                                            "dt = 0.5\nt_end = 20\nsnapshot_every = 10")
                 .replace("n = 32, 32", "n = 64").replace("sphere-bump", "great-circle"))
    with pytest.warns(CFLViolation):
        assert main(["run", cfg, "--output", str(tmp_path)]) == 3
    err = capsys.readouterr().err
    assert "'q1' is not finite at t = 20" in err
    assert not (tmp_path / "bump.final.smfs").exists()


def test_parabolic_gnls_epsilon_above_one_is_config_error(tmp_path, capsys):
    cfg = _write(tmp_path, GNLS_CFG.replace("experiment = gnls",
                                            "experiment = parabolic-gnls\nepsilon = 2"))
    assert main(["run", cfg, "--output", str(tmp_path)]) == 2
    assert "run.epsilon" in capsys.readouterr().err


@pytest.mark.parametrize("epsilon", ["inf", "nan"])
def test_parabolic_sm_epsilon_that_is_not_finite_is_config_error(tmp_path, capsys, epsilon):
    text = _pair_cfg("parabolic-sm", "hyperbolic", "16, 16", _L4, 1e-3, 4, "gaussian-bump-chi",
                     f"epsilon = {epsilon}")
    out = tmp_path / "out"
    assert main(["run", _write(tmp_path, text), "--output", str(out)]) == 2
    assert "config field 'run.epsilon'" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("preset", ["plane-wave", "random-bandlimited"])
def test_nls1d_on_a_2d_grid_is_config_error(tmp_path, capsys, preset):
    text = _pair_cfg("nls1d", "sphere", "32, 32", _L1, 1e-3, 4, preset)
    out = tmp_path / "out"
    assert main(["run", _write(tmp_path, text), "--output", str(out)]) == 2
    assert "config field 'grid.n'" in capsys.readouterr().err
    assert not out.exists()


def test_base_point_off_the_target_is_config_error(tmp_path, capsys):
    cfg = _write(tmp_path, SOLITON_RECONSTRUCT_CFG.replace("m = 0, 0, 1", "m = 2, 0, 0"))
    assert main(["run", cfg, "--output", str(tmp_path)]) == 2
    assert "m is not a point of the target" in capsys.readouterr().err


@pytest.mark.parametrize("field, base", [("base.m", "m = 0, 0, 1.5\nv0 = 1, 0, 0"),
                                         ("base.v0", "m = 0, 0, 1\nv0 = 0, 0, 1")],
                         ids=["m", "v0"])
def test_bad_base_point_names_its_field_before_any_set_up(tmp_path, capsys, field, base):
    text = _pair_cfg("reconstruct", "sphere", "16, 16", _L4, 1e-3, 4, "sphere-bump")
    text = text[:text.index("[base]")] + f"[base]\n{base}\n"
    out = tmp_path / "out"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["run", _write(tmp_path, text), "--output", str(out)]) == 2
    assert f"config field '{field}'" in capsys.readouterr().err
    assert caught == []  # no gauge-side state was seeded
    assert not out.exists()


def _snapshot_cfg(tmp_path, extra):
    """NLS1D_CFG reading its q from a snapshot, with `extra` lines in [initial]."""
    g = Grid((64,), (62.83185307179586,))
    write_snapshot(tmp_path / "q.smfs", g, geo.SPHERE, 0.0, {"q": presets.soliton(g, 2.0)})
    return NLS1D_CFG.replace("preset = soliton\nb = 2.0",
                             f"snapshot = {tmp_path / 'q.smfs'}{extra}")


#: case -> (config edit, the start of its message)
CONFIG_KEY_ERRORS = {
    "misspelled run key": (lambda p: NLS1D_CFG.replace("snapshot_every", "snapshot_evry"),
                           "run.snapshot_evry': unknown key"),
    "extra run key": (lambda p: NLS1D_CFG.replace("run_id = demo", "run_id = demo\nbogus = 3"),
                      "run.bogus': unknown key"),
    "unknown section": (lambda p: NLS1D_CFG + "\n[bsae]\nm = 0, 0, 1\n",
                        "bsae': unknown section"),
    "misspelled grid key": (lambda p: NLS1D_CFG.replace("length =", "lenght ="),
                            "grid.lenght': unknown key"),
    "preset beside snapshot": (lambda p: _snapshot_cfg(p, "\npreset = soliton"),
                               "initial.preset': a snapshot takes no other key"),
    "parameter beside snapshot": (lambda p: _snapshot_cfg(p, "\nb = 2.0"),
                                  "initial.b': a snapshot takes no other key"),
    "missing grid n": (lambda p: NLS1D_CFG.replace("n = 64\n", ""),
                       "grid.n': missing required key"),
    "missing grid length": (lambda p: NLS1D_CFG.replace("length = 62.83185307179586\n", ""),
                            "grid.length': missing required key"),
    "run seed": (lambda p: NLS1D_CFG.replace("run_id = demo", "run_id = demo\nseed = 0"),
                 "run.seed': unknown key"),
}


@pytest.mark.parametrize("case", list(CONFIG_KEY_ERRORS))
def test_unknown_or_missing_key_is_config_error(tmp_path, capsys, case):
    edit, message = CONFIG_KEY_ERRORS[case]
    out = tmp_path / "out"
    assert main(["run", _write(tmp_path, edit(tmp_path)), "--output", str(out)]) == 2
    assert f"config field '{message}" in capsys.readouterr().err
    assert not out.exists()


_RECON_H2 = SOLITON_RECONSTRUCT_CFG.replace("target = sphere", "target = hyperbolic") \
    .replace("m = 0, 0, 1\nv0 = 1, 0, 0", "m = 1, 0, 0\nv0 = 0, 1, 0")
#: case -> (config text, the start of its message)
CONFIG_VALUE_ERRORS = {
    "missing run section": (NLS1D_CFG[NLS1D_CFG.index("[grid]"):],
                            "config': sections [run] and [grid] are required"),
    "missing grid section": (NLS1D_CFG.replace("[grid]\nn = 64\nlength = 62.83185307179586\n",
                                               ""),
                             "config': sections [run] and [grid] are required"),
    "missing initial section": (NLS1D_CFG[:NLS1D_CFG.index("[initial]")],
                                "initial': section [initial] is required"),
    "initial without preset or snapshot": (NLS1D_CFG.replace("preset = soliton\n", ""),
                                           "initial': needs either 'preset' or 'snapshot'"),
    "reconstruct without base": (
        SOLITON_RECONSTRUCT_CFG[:SOLITON_RECONSTRUCT_CFG.index("[base]")],
        "base': experiment reconstruct needs a [base] section"),
    "unparsable value": (NLS1D_CFG.replace("dt = 1e-3", "dt = fast"),
                         "run.dt': cannot parse 'fast'"),
    "base m of two components": (SOLITON_RECONSTRUCT_CFG.replace("m = 0, 0, 1", "m = 0, 1"),
                                 "base.m': cannot parse '0, 1'"),
    "unknown target": (NLS1D_CFG.replace("target = sphere", "target = torus"),
                       "run.target': "),
    "negative t_end": (NLS1D_CFG.replace("t_end = 0.01", "t_end = -1"),
                       "run.t_end': must be finite and nonnegative"),
    "infinite t_end": (NLS1D_CFG.replace("t_end = 0.01", "t_end = inf"),
                       "run.t_end': must be finite and nonnegative"),
    "field preset reconstruct on 2D": (SOLITON_RECONSTRUCT_CFG.replace("n = 256", "n = 16, 16"),
                                       "initial.preset': field presets reconstruct 1D sphere"),
    "field preset reconstruct on H2": (_RECON_H2,
                                       "initial.preset': field presets reconstruct 1D sphere"),
}


@pytest.mark.parametrize("case", list(CONFIG_VALUE_ERRORS))
def test_config_error_names_its_field(tmp_path, capsys, case):
    text, message = CONFIG_VALUE_ERRORS[case]
    out = tmp_path / "out"
    assert main(["run", _write(tmp_path, text), "--output", str(out)]) == 2
    assert f"config field '{message}" in capsys.readouterr().err
    assert not out.exists()


def test_roundtrip_needs_no_base_section(tmp_path):
    cfg = _write(tmp_path, ROUNDTRIP_CFG[:ROUNDTRIP_CFG.index("[base]")])
    assert main(["run", cfg, "--output", str(tmp_path)]) == 0
    assert (tmp_path / "loop.roundtrip.json").exists()


def _pair_cfg(experiment, target, n, length, dt, n_steps, preset, extra=""):
    """A small config of one (experiment, target) pair: 4 steps, a row every 2."""
    base = {"sphere": "m = 0, 0, 1\nv0 = 1, 0, 0", "hyperbolic": "m = 1, 0, 0\nv0 = 0, 1, 0"}
    return (f"[run]\nexperiment = {experiment}\ntarget = {target}\ndt = {dt!r}\n"
            f"t_end = {n_steps * dt!r}\nsnapshot_every = 2\nrun_id = pair\n{extra}\n"
            f"[grid]\nn = {n}\nlength = {length!r}\n\n[initial]\npreset = {preset}\n"
            f"\n[base]\n{base[target]}\n")


_L1, _L4 = 2 * np.pi, 4 * np.pi
#: (experiment, target) -> (config, final snapshot fields), every pair the runner accepts
PAIRS = {
    ("nls1d", "sphere"): (_pair_cfg("nls1d", "sphere", 64, 10 * _L1, 1e-3, 4, "soliton"), {"q"}),
    ("nls1d", "hyperbolic"): (_pair_cfg("nls1d", "hyperbolic", 64, 10 * _L1, 1e-3, 4,
                                        "soliton"), {"q"}),
    ("gnls", "sphere"): (_pair_cfg("gnls", "sphere", "16, 16", _L4, 1e-3, 4, "sphere-bump"),
                         {"q1", "q2"}),
    ("gnls", "hyperbolic"): (_pair_cfg("gnls", "hyperbolic", 32, _L4, 1e-3, 4,
                                       "gaussian-bump-chi"), {"q1"}),
    ("parabolic-gnls", "sphere"): (_pair_cfg("parabolic-gnls", "sphere", 32, _L1, 1e-4, 4,
                                             "perturbed-great-circle", "epsilon = 0.1"), {"q1"}),
    ("parabolic-gnls", "hyperbolic"): (_pair_cfg("parabolic-gnls", "hyperbolic", "16, 16", _L4,
                                                 1e-3, 4, "gaussian-bump-chi", "epsilon = 0.1"),
                                       {"q1", "q2"}),
    ("direct-sm", "sphere"): (_pair_cfg("direct-sm", "sphere", 32, _L1, 1e-4, 4,
                                        "perturbed-great-circle"), {"u"}),
    ("direct-sm", "hyperbolic"): (_pair_cfg("direct-sm", "hyperbolic", "16, 16", _L4, 1e-3, 4,
                                            "gaussian-bump-chi"), {"u"}),
    ("parabolic-sm", "hyperbolic"): (_pair_cfg("parabolic-sm", "hyperbolic", "16, 16", _L4, 1e-3,
                                               4, "gaussian-bump-chi", "epsilon = 0.1"), {"u"}),
    ("reconstruct", "sphere"): (_pair_cfg("reconstruct", "sphere", 32, _L1, 1e-4, 4,
                                          "perturbed-great-circle"), {"u", "e"}),
    ("reconstruct", "hyperbolic"): (_pair_cfg("reconstruct", "hyperbolic", 32, _L4, 1e-3, 4,
                                              "gaussian-bump-chi"), {"u", "e"}),
    ("roundtrip", "sphere"): (_pair_cfg("roundtrip", "sphere", 32, _L1, 1e-4, 4,
                                        "perturbed-great-circle"), {"u"}),
    ("roundtrip", "hyperbolic"): (_pair_cfg("roundtrip", "hyperbolic", 32, _L4, 1e-3, 4,
                                            "gaussian-bump-chi"), {"u"}),
}


def test_runner_table_covers_every_experiment():
    from smframe.config import EXPERIMENTS
    from smframe.runner import PLANS
    assert tuple(PLANS) == EXPERIMENTS
    assert {e for e, _ in PAIRS} == set(EXPERIMENTS)


@pytest.mark.filterwarnings("ignore::smframe.errors.MeanHolonomy")
@pytest.mark.parametrize("pair", list(PAIRS), ids="-".join)
def test_every_accepted_pair_runs_through_the_cli(tmp_path, pair):
    text, names = PAIRS[pair]
    assert main(["run", _write(tmp_path, text), "--output", str(tmp_path)]) == 0
    times = [r["time"] for r in _rows(tmp_path / "pair.diag.csv")]
    assert len(times) == 4 // 2
    assert all(math.isfinite(t) for t in times)
    assert all(b > a for a, b in zip(times, times[1:]))
    snap = read_snapshot(tmp_path / "pair.final.smfs")
    assert set(snap.fields) == names
    assert all(np.all(np.isfinite(v)) for v in snap.fields.values())
    assert snap.time == pytest.approx(times[-1])
    assert (tmp_path / "pair.manifest.json").is_file()
    assert (tmp_path / "pair.roundtrip.json").is_file() == (pair[0] == "roundtrip")


def test_rejected_pair_leaves_earlier_outputs_unchanged(tmp_path, capsys):
    # parabolic-sm has no sphere solver; the run must fail before it opens
    # the CSV that an earlier run with the same run_id wrote
    earlier = tmp_path / "pair.diag.csv"
    earlier.write_text("time\n0.5\n")
    text = _pair_cfg("parabolic-sm", "sphere", 32, _L1, 1e-4, 4, "perturbed-great-circle",
                     "epsilon = 0.1")
    assert main(["run", _write(tmp_path, text), "--output", str(tmp_path)]) == 2
    assert "run.target" in capsys.readouterr().err
    assert earlier.read_text() == "time\n0.5\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["pair.diag.csv", "run.cfg"]


@pytest.mark.parametrize("experiment", ["direct-sm", "roundtrip"])
def test_energy_drift_of_a_conservative_flow_exits_3(tmp_path, capsys, experiment):
    # a stationary great circle stepped at dt = 5, far past stability: its
    # state stays finite while round-off, amplified, takes the energy from
    # 4 pi to about 2e3 at step 2
    grid = Grid((64,), (12.566370614359172,))
    state = MapState(grid=grid, target=geo.SPHERE, time=0.0, u=presets.great_circle(grid))
    with pytest.warns(CFLViolation):
        state = heisenberg_step(heisenberg_step(state, 5.0), 5.0)
    text = (DIRECT_CFG.replace("experiment = direct-sm", f"experiment = {experiment}")
            .replace("dt = 1e-4\nt_end = 1e-3\nsnapshot_every = 5",
                     "dt = 5\nt_end = 50\nsnapshot_every = 1")
            .replace("length = 6.283185307179586", "length = 12.566370614359172")
            .replace("perturbed-great-circle", "great-circle"))
    with pytest.warns(CFLViolation):
        assert main(["run", _write(tmp_path, text), "--output", str(tmp_path)]) == 3
    err = capsys.readouterr().err
    assert f"energy {energy_map(state):.6g}" in err
    assert "E0 = 12.5664" in err and "step 2, t = 10" in err
    assert not (tmp_path / "flow.final.smfs").exists()


PARABOLIC_SM_CFG = _pair_cfg("parabolic-sm", "hyperbolic", "32, 32", _L4, 1e-4, 20,
                             "gaussian-bump-chi", "epsilon = 0.1").replace(
    "snapshot_every = 2", "snapshot_every = 1")


def test_parabolic_sm_run_never_raises_energy_or_moment(tmp_path):
    assert main(["run", _write(tmp_path, PARABOLIC_SM_CFG), "--output", str(tmp_path)]) == 0
    rows = _rows(tmp_path / "pair.diag.csv")
    assert len(rows) == 20
    for col in ("energy", "moment_1"):
        assert all(b[col] <= a[col] for a, b in zip(rows, rows[1:])), col
    assert rows[-1]["energy"] < rows[0]["energy"]


def test_parabolic_sm_energy_that_rises_exits_3(tmp_path, capsys, monkeypatch):
    # a stepper that steepens the map (its offset from the apex grows by 1 %
    # a step) raises the Dirichlet energy, which the dissipative flow never does
    def steepen(state, dt, epsilon):
        u = parabolic_sm_step(state, dt, epsilon).u
        apex = state.target.base_point
        return MapState(grid=state.grid, target=state.target, time=state.time + dt,
                        u=geo.retract(state.target, apex + 1.01 * (u - apex)))

    monkeypatch.setattr(smframe.runner, "parabolic_sm_step", steepen)
    assert main(["run", _write(tmp_path, PARABOLIC_SM_CFG), "--output", str(tmp_path)]) == 3
    err = capsys.readouterr().err
    energies = [r["energy"] for r in _rows(tmp_path / "pair.diag.csv")]
    assert len(energies) == 1
    assert "parabolic energy rose from " in err and f"to {energies[0]:.15e}" in err
    assert "at step 1, t = 0.0001" in err
    assert not (tmp_path / "pair.final.smfs").exists()


@pytest.mark.parametrize("experiment", ["direct-sm", "gnls", "roundtrip"])
def test_snapshot_of_another_target_is_config_error(tmp_path, capsys, experiment):
    g = Grid((64,), (6.283185307179586,))
    snap = tmp_path / "map.smfs"
    write_snapshot(snap, g, geo.SPHERE, 0.0, {"u": presets.great_circle(g)})
    text = (DIRECT_CFG.replace("experiment = direct-sm", f"experiment = {experiment}")
            .replace("target = sphere", "target = hyperbolic")
            .replace("preset = perturbed-great-circle", f"snapshot = {snap}"))
    assert main(["run", _write(tmp_path, text), "--output", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert "initial.snapshot" in err and "sphere" in err and "hyperbolic" in err
    assert not (tmp_path / "flow.diag.csv").exists()


def test_snapshot_on_another_grid_is_config_error(tmp_path, capsys):
    small = Grid((32, 32), (12.566370614359172,) * 2)
    snap = tmp_path / "bump.smfs"
    write_snapshot(snap, small, geo.SPHERE, 0.0, {"u": presets.sphere_bump_2d(small)})
    text = (GNLS_CFG.replace("n = 32, 32", "n = 64, 64")
            .replace("preset = sphere-bump", f"snapshot = {snap}"))
    assert main(["run", _write(tmp_path, text), "--output", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert "initial.snapshot" in err and "(32, 32)" in err and "(64, 64)" in err


def test_diagnose_of_a_directory_is_config_error(tmp_path, capsys):
    assert main(["diagnose", str(tmp_path)]) == 2
    assert str(tmp_path) in capsys.readouterr().err


def test_snapshot_that_is_a_directory_is_config_error(tmp_path, capsys):
    folder = tmp_path / "map.smfs"
    folder.mkdir()
    text = GNLS_CFG.replace("preset = sphere-bump", f"snapshot = {folder}")
    out = tmp_path / "out"
    assert main(["run", _write(tmp_path, text), "--output", str(out)]) == 2
    assert str(folder) in capsys.readouterr().err
    assert not out.exists()


def test_output_that_is_a_file_is_config_error(tmp_path, capsys):
    taken = tmp_path / "taken"
    taken.write_text("kept\n")
    assert main(["run", _write(tmp_path, NLS1D_CFG), "--output", str(taken)]) == 2
    assert str(taken) in capsys.readouterr().err
    assert taken.read_text() == "kept\n"


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("target, preset", [("hyperbolic", "gaussian-bump-chi"),
                                            ("sphere", "sphere-bump")])
def test_preset_overflow_is_config_error(tmp_path, capsys, target, preset):
    # width**2 overflows a float; the run must stop before any output is
    # opened, and before numpy warns of an overflow in the preset's arrays
    text = _pair_cfg("gnls", target, "16, 16", _L4, 1e-3, 4, preset).replace(
        f"preset = {preset}\n", f"preset = {preset}\nwidth = 1e200\n")
    out = tmp_path / "out"
    assert main(["run", _write(tmp_path, text), "--output", str(out)]) == 2
    assert "initial.preset" in capsys.readouterr().err
    assert not out.exists()


#: (experiment, target, grid n, length, preset, parameter) whose initial data
#: is not finite or has no frame; each used to fail only after set-up
BAD_PRESET_VALUES = {
    "soliton-nan": ("nls1d", "sphere", 64, 10 * _L1, "soliton", "b = nan"),
    "bump-chi-overflow": ("direct-sm", "hyperbolic", "16, 16", _L4, "gaussian-bump-chi",
                          "amplitude = 800"),
    "sphere-bump-zero-width": ("gnls", "sphere", "16, 16", _L4, "sphere-bump", "width = 0"),
}


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # numpy's overflow and 0/0
@pytest.mark.parametrize("case", list(BAD_PRESET_VALUES))
def test_non_finite_preset_state_is_config_error(tmp_path, capsys, case):
    experiment, target, n, length, preset, param = BAD_PRESET_VALUES[case]
    text = _pair_cfg(experiment, target, n, length, 1e-3, 4, preset).replace(
        f"preset = {preset}\n", f"preset = {preset}\n{param}\n")
    out = tmp_path / "out"
    assert main(["run", _write(tmp_path, text), "--output", str(out)]) == 2
    assert "initial.preset" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("defect", ["nan", "off-target"])
def test_bad_snapshot_map_is_config_error(tmp_path, capsys, defect):
    g = Grid((64,), (6.283185307179586,))
    u = presets.great_circle(g)
    if defect == "nan":
        u[5, 2] = np.nan
    else:
        u = 1.01 * u
    snap = tmp_path / "map.smfs"
    write_snapshot(snap, g, geo.SPHERE, 0.0, {"u": u})
    text = DIRECT_CFG.replace("preset = perturbed-great-circle", f"snapshot = {snap}")
    out = tmp_path / "out"
    assert main(["run", _write(tmp_path, text), "--output", str(out)]) == 2
    err = capsys.readouterr().err
    assert "initial.snapshot" in err and ("not finite" if defect == "nan" else "off the") in err
    assert not out.exists()


def test_infinite_logged_value_exits_3(tmp_path, capsys):
    # found by the property below: parabolic-gnls at dt = 2 keeps q finite
    # (|q| ~ 1e157) while its mass overflows to inf, which used to exit 0
    text = _pair_cfg("parabolic-gnls", "sphere", 16, _L1, 2.0, 3, "perturbed-great-circle",
                     "epsilon = 0.1").replace("snapshot_every = 2", "snapshot_every = 1")
    text = text.replace("preset = perturbed-great-circle\n",
                        "preset = perturbed-great-circle\nkmax = 2\nseed = 1\namplitude = 3\n")
    assert main(["run", _write(tmp_path, text), "--output", str(tmp_path)]) == 3
    assert "a logged value is infinite at t = " in capsys.readouterr().err
    assert not (tmp_path / "pair.final.smfs").exists()


@pytest.mark.parametrize("experiment", ["roundtrip", "reconstruct"])
def test_peak_memory_does_not_grow_with_logged_rows(tmp_path, experiment):
    # the states stream through the run, so 200 logged rows peak as 10 do; a
    # run that keeps every logged state peaks 5.7x to 7.2x higher at 200 rows
    def peak(rows):
        text = _pair_cfg(experiment, "hyperbolic", 512, _L4, 2e-5, rows, "gaussian-bump-chi")
        tracemalloc.start()
        try:
            assert main(["run", _write(tmp_path, text.replace("snapshot_every = 2",
                                                              "snapshot_every = 1")),
                         "--output", str(tmp_path)]) == 0
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    peak(10)  # one-time allocations (imports, caches) land in this run
    small = peak(10)
    assert peak(200) < 1.2 * small


#: target -> (preset, max_gap at 64^2 measured with the config below)
ROUNDTRIP_2D = {"sphere": ("sphere-bump", 1.10e-6), "hyperbolic": ("gaussian-bump-chi", 2.64e-9)}


@pytest.mark.filterwarnings("ignore::smframe.errors.MeanHolonomy")
@pytest.mark.parametrize("target", list(ROUNDTRIP_2D))
def test_2d_roundtrip_gap_converges_spectrally(tmp_path, target):
    # the direct flow against GNLS evolution plus reconstruction in 2D: the
    # gap (32^2: 9.0e-5 on S2, 8.9e-6 on H2) falls by far more than 10x at
    # 64^2; a first-order time transport leaves it at 1.8e-3 and 4.4e-5
    preset, measured = ROUNDTRIP_2D[target]
    gaps = []
    for n in (32, 64):
        text = (f"[run]\nexperiment = roundtrip\ntarget = {target}\ndt = 1e-3\nt_end = 0.1\n"
                f"snapshot_every = 25\nrun_id = rt{n}\n\n"
                f"[grid]\nn = {n}, {n}\nlength = {_L4!r}\n\n"
                f"[initial]\npreset = {preset}\namplitude = 0.3\nwidth = 1.0\n")
        assert main(["run", _write(tmp_path, text), "--output", str(tmp_path)]) == 0
        gaps.append(json.loads((tmp_path / f"rt{n}.roundtrip.json").read_text())["max_gap"])
    assert gaps[1] < 10.0 * measured
    assert gaps[1] <= gaps[0] / 10.0


#: preset -> its own [initial] keys, read off its signature
PRESET_KEYS = {name: [p for p in inspect.signature(preset).parameters if p != "grid"]
               for name, preset in {**FIELD_PRESETS, **MAP_PRESETS}.items()}
#: experiment -> the CSV columns its rows fill; the others are logged as NaN
FILLED = {
    "nls1d": {"time", "mass", "energy"},
    "gnls": {"time", "mass", "residual_compat_1", "residual_compat_2", "residual_compat_3"},
    "direct-sm": {"time", "energy", "constraint_max", *(f"{name}_{i}" for name in
                                                        ("moment", "killing") for i in (1, 2, 3))},
    "reconstruct": {"time", "residual_sm", "constraint_max", "periodicity_defect"},
}
FILLED.update({"parabolic-gnls": FILLED["gnls"], "parabolic-sm": FILLED["direct-sm"],
               "roundtrip": FILLED["direct-sm"]})
#: parameter values: zero, negative, not finite, huge, small, and typical
PARAM_VALUES = hst.sampled_from([0.0, -1.0, math.nan, math.inf, -math.inf, 1e308, 1e-6]) \
    | hst.floats(0.1, 4.0) | hst.integers(1, 4).map(float)
#: the presets defined on one dimension only, and map presets not on the sphere
ONE_D = {"soliton", "great-circle", "perturbed-great-circle"}
MAP_TARGET = {"gaussian-bump-chi": "hyperbolic"}


def _mostly(draw, fitting, others):
    """One of `fitting`, or about one draw in five one of `others`."""
    return draw(hst.sampled_from(fitting if draw(hst.integers(0, 4)) else others))


@hst.composite
def cli_configs(draw):
    """A small config from the CLI grammar: every experiment, target and
    preset plus an unknown one, each preset's own keys, 0-4 steps.  Draws
    lean towards what fits together, so that most runs get past set-up."""
    experiment = _mostly(draw, EXPERIMENTS, ["magic"])
    preset = _mostly(draw, sorted(FIELD_PRESETS if experiment == "nls1d" else MAP_PRESETS),
                     sorted(PRESET_KEYS) + ["magic"])
    target = _mostly(draw, [MAP_TARGET.get(preset, "sphere")] if preset in MAP_PRESETS
                     else ["sphere", "hyperbolic"], ["sphere", "hyperbolic", "magic"])
    dim = _mostly(draw, [1] if preset in ONE_D else [2] if preset == "sphere-bump" else [1, 2],
                  [1, 2])
    keys = draw(hst.lists(hst.sampled_from(PRESET_KEYS.get(preset, ["b"])), unique=True))
    params = "".join(f"{key} = {draw(PARAM_VALUES)!r}\n" for key in keys)
    dt, n_steps = draw(hst.floats(1e-4, 5.0)), draw(hst.integers(0, 4))
    n = ", ".join(str(draw(hst.sampled_from([16, 32]))) for _ in range(dim))
    epsilon = f"epsilon = {draw(hst.sampled_from([0.1, 1.0]))}\n" \
        if experiment.startswith("parabolic") else ""
    base = "m = 1, 0, 0\nv0 = 0, 1, 0" if target == "hyperbolic" else "m = 0, 0, 1\nv0 = 1, 0, 0"
    return experiment, (
        f"[run]\nexperiment = {experiment}\ntarget = {target}\ndt = {dt!r}\n"
        f"t_end = {n_steps * dt!r}\nrun_id = fuzz\n{epsilon}\n"
        f"[grid]\nn = {n}\nlength = {draw(hst.sampled_from([_L1, _L4, 10 * _L1]))!r}\n\n"
        f"[initial]\npreset = {preset}\n{params}\n[base]\n{base}\n")


@pytest.mark.filterwarnings("ignore::RuntimeWarning", "ignore::smframe.errors.CFLViolation",
                            "ignore::smframe.errors.MeanHolonomy")
@settings(max_examples=200, deadline=None)
@given(drawn=cli_configs())
def test_cli_keeps_its_exit_code_contract(drawn):
    # exit 0, 2 or 3 and never an exception; a run that exits 0 logs only
    # finite values, NaN only in the columns its experiment does not fill,
    # and leaves a finite final snapshot
    experiment, text = drawn
    with tempfile.TemporaryDirectory() as tmp:
        code = main(["run", _write(Path(tmp), text), "--output", tmp])
        assert code in (0, 2, 3)
        if code:
            return
        with open(Path(tmp) / "fuzz.diag.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        for i, row in enumerate(rows):
            for col, value in row.items():
                value = float(value)
                # reconstruct has no centered residual at its last state
                unfilled = col not in FILLED[experiment] or (
                    col == "residual_sm" and i == len(rows) - 1)
                assert math.isfinite(value) or (math.isnan(value) and unfilled), (col, text)
        snap = read_snapshot(Path(tmp) / "fuzz.final.smfs")
        assert all(np.all(np.isfinite(v)) for v in snap.fields.values())
