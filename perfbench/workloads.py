"""Workload definitions: seeded inputs, run configs and output checks.

Each workload is one `smframe run` configuration.  Its initial map is a
named preset plus a small seeded band-limited perturbation, written as a
`.smfs` snapshot that the config points at; `[run] seed` never reaches
the map presets, so the snapshot is the only route by which a seed can
change the input.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from smframe import geometry as geo
from smframe import presets
from smframe.field import Grid
from smframe.snapshot import read_snapshot, write_snapshot

#: Max-norm of each perturbed ambient component, its Fourier band, and the
#: width of the Gaussian envelope that keeps it off the torus seam (a
#: perturbation reaching the seam adds a mean connection, whose holonomy
#: the gauge fix cannot remove).
PERTURB_AMPLITUDE = 1e-3
PERTURB_KMAX = 4
PERTURB_WIDTH = 2.0


@dataclass(frozen=True)
class Workload:
    name: str
    experiment: str
    target: str
    n: tuple[int, ...]
    length: float
    dt: float
    n_steps: int
    snapshot_every: int
    preset: str
    preset_args: tuple[float, ...]
    epsilon: float | None = None
    #: ambient components that receive the seeded perturbation
    perturb: tuple[int, ...] = (0, 1, 2)

    @property
    def grid(self) -> Grid:
        return Grid(self.n, (self.length,) * len(self.n))

    @property
    def state_bytes(self) -> int:
        """Bytes of one evolved state: d complex fields (GNLS) or a 3-vector map."""
        points = math.prod(self.n)
        return points * (16 * len(self.n) if self.experiment == "gnls" else 24)

    def config_text(self, n_steps: int) -> str:
        lines = ["[run]",
                 f"experiment = {self.experiment}",
                 f"target = {self.target}",
                 f"dt = {self.dt!r}",
                 f"t_end = {n_steps * self.dt!r}",
                 f"snapshot_every = {self.snapshot_every}",
                 f"run_id = {self.name}"]
        if self.epsilon is not None:
            lines.append(f"epsilon = {self.epsilon!r}")
        lines += ["", "[grid]",
                  "n = " + ", ".join(str(v) for v in self.n),
                  f"length = {self.length!r}",
                  "", "[initial]", "snapshot = input.smfs"]
        if self.experiment == "roundtrip":
            # required by the config schema; the roundtrip anchors at u0(center)
            lines += ["", "[base]", "m = 1, 0, 0", "v0 = 0, 1, 0"]
        return "\n".join(lines) + "\n"


WORKLOADS = {w.name: w for w in (
    Workload(name="gnls2d-bump128", experiment="gnls", target="sphere",
             n=(128, 128), length=8 * np.pi, dt=5e-5, n_steps=100,
             snapshot_every=50, preset="sphere-bump", preset_args=(0.5, 1.0)),
    Workload(name="roundtrip1d-h2", experiment="roundtrip", target="hyperbolic",
             n=(512,), length=16 * np.pi, dt=1e-4, n_steps=400,
             snapshot_every=50, preset="gaussian-bump-chi",
             preset_args=(0.4, 1.0), perturb=(1,)),
    Workload(name="psm2d-logged", experiment="parabolic-sm", target="hyperbolic",
             n=(64, 64), length=4 * np.pi, dt=1e-4, n_steps=200,
             snapshot_every=1, preset="gaussian-bump-chi",
             preset_args=(0.5, 1.0), epsilon=0.1, perturb=(1, 2)),
)}

_PRESETS = {"sphere-bump": presets.sphere_bump_2d,
            "gaussian-bump-chi": presets.gaussian_bump_chi}


def initial_map(w: Workload, seed: int) -> np.ndarray:
    """Preset map plus a seeded band-limited perturbation, back on the target."""
    grid, target = w.grid, geo.target_from_name(w.target)
    u = _PRESETS[w.preset](grid, *w.preset_args)
    envelope = np.exp(-sum(x**2 for x in grid.coords()) / (2 * PERTURB_WIDTH**2))
    rng = np.random.default_rng(seed % 2**63)
    for c in w.perturb:
        sub_seed = int(rng.integers(2**31))
        u[..., c] += envelope * presets.random_bandlimited(
            grid, PERTURB_KMAX, PERTURB_AMPLITUDE, sub_seed).real
    return geo.retract(target, u)


def prepare(w: Workload, seed: int, workdir: Path) -> dict[str, Path]:
    """Write the seeded input snapshot and the setup/full configs."""
    workdir.mkdir(parents=True, exist_ok=True)
    write_snapshot(workdir / "input.smfs", w.grid, geo.target_from_name(w.target),
                   0.0, {"u": initial_map(w, seed)})
    cfgs = {"setup": workdir / "setup.cfg", "full": workdir / "full.cfg"}
    cfgs["setup"].write_text(w.config_text(0))
    cfgs["full"].write_text(w.config_text(w.n_steps))
    return cfgs


# ---------------------------------------------------------------------------
# output checks
# ---------------------------------------------------------------------------

class CheckFailed(Exception):
    pass


def _require(cond: bool, what: str) -> None:
    if not cond:
        raise CheckFailed(what)


def read_rows(path: Path) -> list[dict[str, float]]:
    with open(path, newline="") as fh:
        return [{k: float(v) for k, v in rec.items()} for rec in csv.DictReader(fh)]


def check_outputs(w: Workload, outdir: Path, n_steps: int) -> float:
    """Check one run's outputs; return its scheme-error figure.

    Raises CheckFailed naming the first check that does not hold.
    """
    manifest = outdir / f"{w.name}.manifest.json"
    _require(manifest.is_file(), "no manifest")
    json.loads(manifest.read_text())
    rows = read_rows(outdir / f"{w.name}.diag.csv")
    _require(len(rows) == n_steps // w.snapshot_every,
             f"{len(rows)} diagnostics rows, expected {n_steps // w.snapshot_every}")

    if w.experiment != "roundtrip":  # a roundtrip writes no final snapshot
        snap = read_snapshot(outdir / f"{w.name}.final.smfs")
        _require(bool(snap.fields), "final snapshot has no fields")
        for name, arr in snap.fields.items():
            _require(bool(np.all(np.isfinite(arr))), f"final field {name} not finite")

    if w.experiment != "gnls":  # map-side rows carry the constraint defect
        for r in rows:
            _require(r["constraint_max"] < geo.CONSTRAINT_TOL,
                     f"constraint_max {r['constraint_max']:.3e} at t={r['time']}")
    return _WORKLOAD_CHECKS[w.experiment](w, outdir, rows)


def _check_gnls(w: Workload, outdir: Path, rows) -> float:
    res = [r[f"residual_compat_{i}"] for r in rows for i in (1, 2, 3)]
    _require(all(math.isfinite(v) for v in res), "non-finite compatibility residual")
    err = max(res, default=math.nan)
    _require(not rows or err < 1e-5, f"compatibility residual {err:.3e} >= 1e-5")
    return err


def _check_roundtrip(w: Workload, outdir: Path, rows) -> float:
    summary = json.loads((outdir / f"{w.name}.roundtrip.json").read_text())
    gap = float(summary["max_gap"])
    _require(math.isfinite(gap) and gap < 1e-6, f"roundtrip max_gap {gap:.3e} >= 1e-6")
    if len(rows) >= 2:
        span = rows[-1]["time"] - rows[0]["time"]
        for col in ("energy", "killing_1", "killing_2", "killing_3"):
            drift = max(abs(r[col] - rows[0][col]) for r in rows) / span
            _require(drift < 1e-8, f"{col} drifts {drift:.3e} per unit time")
    return gap


def _check_parabolic(w: Workload, outdir: Path, rows) -> float:
    for col in ("energy", "moment_1"):
        for a, b in zip(rows, rows[1:]):
            _require(b[col] <= a[col], f"{col} increases at t={b['time']}")
    return max((r["constraint_max"] for r in rows), default=math.nan)


_WORKLOAD_CHECKS = {"gnls": _check_gnls, "roundtrip": _check_roundtrip,
                    "parabolic-sm": _check_parabolic}
