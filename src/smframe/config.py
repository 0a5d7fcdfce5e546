"""Run configuration: flat INI files parsed into a validated RunConfig.

Layout::

    [run]
    experiment = nls1d        ; nls1d | gnls | parabolic-gnls | direct-sm |
                              ; parabolic-sm | reconstruct | roundtrip
    target = sphere           ; sphere | hyperbolic
    dt = 1e-3
    t_end = 1.0
    snapshot_every = 100      ; steps between logged rows; divides t_end / dt
    epsilon = 0.1             ; required iff the experiment is parabolic
    output = out
    run_id = soliton          ; optional; defaults to the experiment name

    [grid]
    n = 1024                  ; comma-separated per axis for 2D
    length = 125.663706

    [initial]
    preset = soliton          ; or  snapshot = state.smfs, with no other key
    b = 2.0                   ; remaining keys are preset parameters, seed included

    [base]                    ; read by reconstruct only, accepted by every run
    m = 1, 0, 0
    v0 = 0, 1, 0

Any other section or key is a config error.
"""

from __future__ import annotations

import configparser
import math
import os
from dataclasses import dataclass, field as dc_field

import numpy as np

from .errors import ConfigError, FrameInvalid
from .field import Grid
from .gauge import validate_frame
from .geometry import Target, check_on_manifold, target_from_name

EXPERIMENTS = ("nls1d", "gnls", "parabolic-gnls", "direct-sm",
               "parabolic-sm", "reconstruct", "roundtrip")
_PARABOLIC = ("parabolic-gnls", "parabolic-sm")
#: section -> its keys; [initial] takes `snapshot` alone, or `preset` and its parameters
_KEYS = {"run": ("experiment", "target", "dt", "t_end", "snapshot_every", "epsilon", "output",
                "run_id"),
        "grid": ("n", "length"), "initial": ("snapshot",), "base": ("m", "v0")}
#: most time steps a run may take; over 1,000 times any run of the tests and examples
MAX_STEPS = 10**8


@dataclass
class RunConfig:
    experiment: str
    target: Target
    grid: Grid
    dt: float
    t_end: float
    snapshot_every: int
    output: str
    run_id: str
    epsilon: float | None = None
    preset: str | None = None
    preset_params: dict[str, float] = dc_field(default_factory=dict)
    snapshot_path: str | None = None
    base_m: np.ndarray | None = None
    base_v0: np.ndarray | None = None

    @property
    def n_steps(self) -> int:
        return int(round(self.t_end / self.dt))


def _get(section, key: str, cast, field: str, default=None):
    if key not in section:
        if default is not None:
            return default
        raise ConfigError(field, "missing required key")
    raw = section[key]
    try:
        return cast(raw)
    except (ValueError, TypeError) as exc:
        raise ConfigError(field, f"cannot parse {raw!r}: {exc}") from exc


def _vector3(raw: str) -> np.ndarray:
    parts = [float(p) for p in raw.split(",")]
    if len(parts) != 3:
        raise ValueError("expected three comma-separated components")
    return np.asarray(parts)


def load_config(path) -> RunConfig:
    parser = configparser.ConfigParser(inline_comment_prefixes=(";", "#"))
    read = parser.read(path)
    if not read:
        raise ConfigError("config", f"cannot read {path}")
    if "run" not in parser or "grid" not in parser:
        raise ConfigError("config", "sections [run] and [grid] are required")
    for name in parser.sections():
        if name not in _KEYS:
            raise ConfigError(name, f"unknown section; expected {', '.join(_KEYS)}")
        if name == "initial" and "snapshot" not in parser[name]:
            continue  # preset parameters are checked against the preset
        for key in parser[name]:
            if key not in _KEYS[name]:
                raise ConfigError(f"{name}.{key}", "a snapshot takes no other key"
                                  if name == "initial" else
                                  f"unknown key; expected one of {', '.join(_KEYS[name])}")
    run = parser["run"]
    gridsec = parser["grid"]

    experiment = _get(run, "experiment", str, "run.experiment")
    if experiment not in EXPERIMENTS:
        raise ConfigError("run.experiment",
                          f"unknown experiment {experiment!r}; "
                          f"expected one of {', '.join(EXPERIMENTS)}")
    target = _get(run, "target", str, "run.target", default="sphere")
    try:
        target = target_from_name(target)
    except ValueError as exc:
        raise ConfigError("run.target", str(exc)) from exc

    dt = _get(run, "dt", float, "run.dt")
    if not 0 < dt < math.inf:
        raise ConfigError("run.dt", f"must be finite and positive, got {dt}")
    t_end = _get(run, "t_end", float, "run.t_end")
    if not 0 <= t_end < math.inf:
        raise ConfigError("run.t_end", f"must be finite and nonnegative, got {t_end}")
    if not t_end / dt < math.inf:  # round() of the overflowed step count would raise
        raise ConfigError("run.dt", f"t_end / dt = {t_end} / {dt} overflows the step count")
    if t_end / dt > MAX_STEPS:
        raise ConfigError("run.t_end", f"t_end / dt = {t_end / dt:.3g} steps exceeds "
                          f"the cap of {MAX_STEPS:.0e}")
    if not math.isclose(t_end / dt, round(t_end / dt), rel_tol=1e-9):
        raise ConfigError("run.t_end", f"not a whole number of steps of dt = {dt}")
    snapshot_every = _get(run, "snapshot_every", int, "run.snapshot_every", default=1)
    if snapshot_every < 1 or round(t_end / dt) % snapshot_every:  # t_end is logged last
        raise ConfigError("run.snapshot_every", f"must be a positive step count dividing "
                          f"the {round(t_end / dt)} steps to t_end, got {snapshot_every}")

    epsilon = None
    if experiment in _PARABOLIC:
        epsilon = _get(run, "epsilon", float, "run.epsilon")
        upper = 1.0 if experiment == "parabolic-gnls" else math.inf  # the steppers' ranges
        if not 0 < epsilon < math.inf or epsilon > upper:
            bound = ", at most 1" if upper < math.inf else ""
            raise ConfigError("run.epsilon", f"must be finite and positive{bound}, got {epsilon}")
    elif "epsilon" in run:
        raise ConfigError("run.epsilon",
                          f"only parabolic experiments take epsilon, not {experiment}")

    n = _get(gridsec, "n", lambda raw: tuple(int(p) for p in raw.split(",")), "grid.n")
    length = _get(gridsec, "length", lambda raw: tuple(float(p) for p in raw.split(",")),
                  "grid.length")
    if len(length) == 1 and len(n) > 1:
        length = length * len(n)
    try:
        grid = Grid(n, length)
    except ValueError as exc:
        raise ConfigError("grid", str(exc)) from exc

    if "initial" not in parser:
        raise ConfigError("initial", "section [initial] is required")
    init = parser["initial"]
    preset, snapshot_path = init.get("preset"), init.get("snapshot")
    if not (preset or snapshot_path):
        raise ConfigError("initial", "needs either 'preset' or 'snapshot'")
    preset_params = {key: _get(init, key, float, f"initial.{key}")
                     for key in init if key not in ("preset", "snapshot")}

    base_m = base_v0 = None
    if "base" in parser:
        base_m = _get(parser["base"], "m", _vector3, "base.m")
        base_v0 = _get(parser["base"], "v0", _vector3, "base.v0")
    elif experiment == "reconstruct":
        raise ConfigError("base", "experiment reconstruct needs a [base] section")
    if experiment == "reconstruct":  # checked before any initial data is built
        try:
            check_on_manifold(target, base_m)
        except FrameInvalid as exc:
            raise ConfigError("base.m", f"m is not a point of the target: {exc}") from exc
        try:
            validate_frame(target, base_m, base_v0)
        except FrameInvalid as exc:
            raise ConfigError("base.v0", f"v0 is not a unit tangent at m: {exc}") from exc

    run_id = _get(run, "run_id", str, "run.run_id", default=experiment)
    if run_id in ("", ".", "..") or {os.sep, os.altsep} & set(run_id):  # no path
        raise ConfigError("run.run_id", f"must be a plain file name, got {run_id!r}")
    return RunConfig(
        experiment=experiment, target=target, grid=grid, dt=dt, t_end=t_end,
        snapshot_every=snapshot_every,
        output=_get(run, "output", str, "run.output", default="."),
        run_id=run_id,
        epsilon=epsilon, preset=preset, preset_params=preset_params,
        snapshot_path=snapshot_path, base_m=base_m, base_v0=base_v0)
