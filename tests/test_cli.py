import json
import math
import os
import platform
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import smframe
import smframe.gnls
from smframe import geometry as geo
from smframe import presets
from smframe.cli import main
from smframe.diagnostics import read_diagnostics
from smframe.errors import CFLViolation
from smframe.field import Grid
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


def test_version_prints_and_exits_zero(capsys):
    assert main(["version"]) == 0
    out = capsys.readouterr().out.strip()
    assert out and out[0].isdigit()


def test_run_produces_outputs(tmp_path, capsys):
    cfg = _write(tmp_path, NLS1D_CFG)
    assert main(["run", cfg, "--output", str(tmp_path), "--verbose"]) == 0
    assert "demo" in capsys.readouterr().err

    rows = read_diagnostics(tmp_path / "demo.diag.csv")
    times = [r.time for r in rows]
    assert times == pytest.approx([0.005, 0.01])
    assert all(b > a for a, b in zip(times, times[1:]))
    assert all(math.isfinite(r.mass) for r in rows)

    manifest = json.loads((tmp_path / "demo.manifest.json").read_text())
    assert manifest["run_id"] == "demo"
    assert manifest["experiment"] == "nls1d"
    assert manifest["version"] == smframe.__version__
    assert "[run]" in manifest["config"]

    snap = read_snapshot(tmp_path / "demo.final.smfs")
    assert snap.time == pytest.approx(0.01)
    assert "q" in snap.fields


def test_run_accepts_config_flag(tmp_path):
    cfg = _write(tmp_path, NLS1D_CFG)
    assert main(["run", "--config", cfg, "--output", str(tmp_path)]) == 0


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
    assert main(["run"]) == 2
    assert main(["run", str(tmp_path / "nope.cfg")]) == 2


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


def test_roundtrip_subcommand(tmp_path):
    cfg = _write(tmp_path, ROUNDTRIP_CFG)
    assert main(["roundtrip", cfg, "--output", str(tmp_path)]) == 0
    report = json.loads((tmp_path / "loop.roundtrip.json").read_text())
    assert len(report["times"]) == len(report["geodesic_gap"]) == 3
    assert report["max_gap"] < 1e-8
    assert report["periodicity_defect"] < 1e-8
    snap = read_snapshot(tmp_path / "loop.final.smfs")
    assert snap.time == pytest.approx(1e-3)
    assert snap.fields["u"].shape == (64, 3)
    assert np.max(np.abs(np.sum(snap.fields["u"] ** 2, axis=-1) - 1.0)) < 1e-12


def test_field_preset_reconstruct_runs(tmp_path):
    cfg = _write(tmp_path, SOLITON_RECONSTRUCT_CFG)
    assert main(["run", cfg, "--output", str(tmp_path)]) == 0
    rows = read_diagnostics(tmp_path / "rebuild.diag.csv")
    assert [r.time for r in rows] == pytest.approx([5e-3, 1e-2, 1.5e-2, 2e-2])
    assert all(r.constraint_max < 1e-8 for r in rows)
    snap = read_snapshot(tmp_path / "rebuild.final.smfs")
    assert snap.time == pytest.approx(2e-2)
    assert snap.fields["u"].shape == snap.fields["e"].shape == (256, 3)


def test_roundtrip_rejects_other_experiments(tmp_path, capsys):
    cfg = _write(tmp_path, NLS1D_CFG)
    assert main(["roundtrip", cfg]) == 2
    assert "roundtrip" in capsys.readouterr().err


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


def test_diagnose_has_no_verbose_option(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["diagnose", str(tmp_path / "demo.final.smfs"), "--verbose"])
    assert exc.value.code == 2


def test_direct_run_logs_moments_as_killing_functionals(tmp_path):
    cfg = _write(tmp_path, DIRECT_CFG)
    assert main(["run", cfg, "--output", str(tmp_path)]) == 0
    rows = read_diagnostics(tmp_path / "flow.diag.csv")
    assert len(rows) == 2
    for row in rows:
        assert all(math.isfinite(v) for v in row.moment)
        assert row.killing == row.moment


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
    rows = read_diagnostics(tmp_path / "bump.diag.csv")
    assert len(rows) == 5
    assert all(math.isfinite(v) for row in rows for v in row.residual_compat)
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


def test_base_point_off_the_target_is_config_error(tmp_path, capsys):
    cfg = _write(tmp_path, SOLITON_RECONSTRUCT_CFG.replace("m = 0, 0, 1", "m = 2, 0, 0"))
    assert main(["run", cfg, "--output", str(tmp_path)]) == 2
    assert "m is not a point of the target" in capsys.readouterr().err


def test_roundtrip_needs_no_base_section(tmp_path):
    cfg = _write(tmp_path, ROUNDTRIP_CFG[:ROUNDTRIP_CFG.index("[base]")])
    assert main(["roundtrip", cfg, "--output", str(tmp_path)]) == 0
    assert (tmp_path / "loop.roundtrip.json").exists()
