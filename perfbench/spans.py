"""Span analysis: self times, per-layer totals and per-layer metrics.

A span is ``(name, start, end, parent)`` with ``parent`` the index of the
enclosing span or -1.  The tracer allocates a span's index when the call
starts, so a parent's index is always smaller than its children's.
"""

from __future__ import annotations

import math
import statistics
from collections import Counter

#: Functions of gnls.py that belong to the gauge layer: the connection
#: helpers and the map -> (q, a) seeding.
GAUGE_HELPERS = frozenset({
    "gnls.connection_from_coordinates", "gnls.covariant_terms",
    "gnls.q0_schrodinger", "gnls.a0_from_q0", "gnls.q0_parabolic",
    "gnls.GnlsState.connection", "gnls.GnlsState.coordinates",
    "gnls.GnlsState.connection_field",
    "gnls.gnls_seed_from_map", "gnls.gnls_state_from_map",
})
DRIVER_MODULES = frozenset({"cli", "runner", "config", "setup"})
GNLS_STEPPERS = frozenset({"gnls.gnls_step", "gnls.parabolic_gnls_step", "gnls.nls1d_step"})
DIRECT_STEPPERS = frozenset({"direct.heisenberg_step", "direct.hyperbolic_sm_step",
                             "direct.parabolic_sm_step"})
STEPPERS = GNLS_STEPPERS | DIRECT_STEPPERS
FUNCTIONALS = frozenset({
    "diagnostics.energy_map", "diagnostics.killing_functionals",
    "diagnostics.lorentz_weighted_energy", "diagnostics.equivalence_report",
    "direct.map_moment", "direct.MapState.constraint_max",
    "gauge.compatibility_residual", "gnls.gnls_mass", "gnls.gnls_dissipation",
    "gnls.nls1d_mass", "gnls.nls1d_energy", "reconstruct.sm_residual",
    "reconstruct.uniqueness_gap",
})
FFT_1D = frozenset({"fft", "ifft", "rfft", "irfft"})
FFT_INVERSE = frozenset({"ifft", "irfft", "ifftn", "irfftn", "ifft2", "irfft2"})
TAIL_LADDER = (50.0, 75.0, 90.0, 95.0, 99.0, 99.5, 99.9)


def layer_of(name: str) -> str:
    if name.startswith(("numpy.fft.", "scipy.fft.")):
        return "fft"
    if name in GAUGE_HELPERS:
        return "gauge"
    module = name.split(".", 1)[0]
    return "driver" if module in DRIVER_MODULES else module


def covered(intervals) -> float:
    """Length of the union of (start, end) intervals."""
    total, reach = 0.0, -math.inf
    for start, end in sorted(intervals):
        if end <= reach:
            continue
        total += end - max(start, reach)
        reach = end
    return total


def self_times(spans) -> list[float]:
    """Each span's duration minus the part of it its children cover."""
    children: list[list[tuple[float, float]]] = [[] for _ in spans]
    for _, start, end, parent in spans:
        if parent >= 0:
            children[parent].append((start, end))
    return [(end - start) - covered((max(s, start), min(e, end))
                                    for s, e in children[i] if e > start and s < end)
            for i, (_, start, end, _) in enumerate(spans)]


def outermost(spans, names) -> list[int]:
    """For each span, the index of its outermost ancestor-or-self whose name
    is in `names`, or -1."""
    out: list[int] = []
    for i, (name, _, _, parent) in enumerate(spans):
        above = out[parent] if parent >= 0 else -1
        out.append(above if above >= 0 else (i if name in names else -1))
    return out


def inclusive_s(spans, names) -> float:
    """Time inside spans named in `names`, not counting nested repeats."""
    top = outermost(spans, names)
    return sum(end - start for i, (_, start, end, _) in enumerate(spans) if top[i] == i)


def tail(samples) -> tuple[float, float]:
    """(percentile, value): the highest ladder percentile with at least ten
    samples beyond its nearest-rank value; (0, 0) below twenty samples."""
    ordered = sorted(samples)
    n = len(ordered)
    best = (0.0, 0.0)
    for pct in TAIL_LADDER:
        rank = math.ceil(pct / 100.0 * n)
        if rank >= 1 and n - rank >= 10:
            best = (pct, ordered[rank - 1])
    return best


def layer_self(spans, wall: tuple[float, float]) -> tuple[dict[str, float], float]:
    """Per-layer self time and the traced wall time covered by no span."""
    layers: dict[str, float] = {}
    for (name, *_), s in zip(spans, self_times(spans)):
        layer = layer_of(name)
        layers[layer] = layers.get(layer, 0.0) + s
    t0, t1 = wall
    roots = [(max(s, t0), min(e, t1)) for _, s, e, p in spans if p < 0 and e > t0 and s < t1]
    return layers, (t1 - t0) - covered(roots)


def _step_stats(spans, steppers, prefix: str) -> dict[str, tuple[float, str]]:
    top = outermost(spans, steppers)
    ms = [(e - s) * 1e3 for i, (_, s, e, _) in enumerate(spans) if top[i] == i]
    pct, value = tail(ms)
    return {f"{prefix}.steps": (len(ms), "count"),
            f"{prefix}.step_ms.p50": (statistics.median(ms) if ms else 0.0, "ms"),
            f"{prefix}.step_ms.tail": (value, "ms"),
            f"{prefix}.step_ms.tail_pct": (pct, "%")}


def layer_metrics(trace: dict) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of one traced run, as name -> (value, unit)."""
    spans = trace["spans"]
    calls = Counter(name for name, *_ in spans)
    layers, unattributed = layer_self(spans, (trace["t_start"], trace["t_end"]))
    wall = trace["t_end"] - trace["t_start"]
    if abs(sum(layers.values()) + unattributed - wall) > 1e-6 * wall:
        raise ValueError("layer self times do not add up to the traced wall time")

    under_step = outermost(spans, STEPPERS)
    base = sum(1 for i, t in enumerate(under_step) if t == i)
    fft_in_steps: Counter = Counter()
    poisson_in_steps = 0
    for (name, *_), top in zip(spans, under_step):
        if top < 0:
            continue
        if layer_of(name) == "fft":
            fn = name.rsplit(".", 1)[1]
            fft_in_steps[("inv" if fn in FFT_INVERSE else "fwd")
                         + ("_1d" if fn in FFT_1D else "_nd")] += 1
        elif name == "field.poisson_solve":
            poisson_in_steps += 1
    fft_1d = sum(c for n, c in calls.items() if layer_of(n) == "fft"
                 and n.rsplit(".", 1)[1] in FFT_1D)
    fft_all = sum(c for n, c in calls.items() if layer_of(n) == "fft")

    def per_step(count: int) -> float:
        return count / base if base else 0.0

    m: dict[str, tuple[float, str]] = {
        "field.self_s": (layers.get("field", 0.0), "s"),
        **{f"field.calls.{f}": (calls[f"field.{f}"], "count") for f in
           ("spectral_derivative", "poisson_solve", "dealias", "fractional_shift")},
        "fft.self_s": (layers.get("fft", 0.0), "s"),
        "fft.transforms_1d": (fft_1d, "count"),
        "fft.transforms_nd": (fft_all - fft_1d, "count"),
        "fft.points": (trace["fft_points"], "count"),
        "fft.bytes_computed": (trace["fft_bytes"], "bytes"),
        "fft.per_step": (per_step(sum(fft_in_steps.values())), "1/step"),
        **{f"fft.per_step.{k}": (per_step(fft_in_steps[k]), "1/step") for k in
           ("fwd_1d", "inv_1d", "fwd_nd", "inv_nd")},
        "steppers.calls": (base, "count"),
        "gauge.self_s": (layers.get("gauge", 0.0), "s"),
        "gauge.calls.connection": (calls["gnls.connection_from_coordinates"], "count"),
        "gauge.poisson_per_step": (per_step(poisson_in_steps), "1/step"),
        "gauge.seed_s": (inclusive_s(spans, {"gnls.gnls_seed_from_map",
                                             "gnls.gnls_state_from_map",
                                             "gauge.best_reference_frame"}), "s"),
        **_step_stats(spans, GNLS_STEPPERS, "gnls"),
        "gnls.rhs_evals": (calls["gnls.gnls_rhs"], "count"),
        "gnls.self_s": (layers.get("gnls", 0.0), "s"),
        **_step_stats(spans, DIRECT_STEPPERS, "direct"),
        "direct.flux_evals": (calls["direct.flux_divergence"], "count"),
        "direct.retries": (calls["direct.hyperbolic_sm_step.retry"], "count"),
        "direct.self_s": (layers.get("direct", 0.0), "s"),
        "geometry.self_s": (layers.get("geometry", 0.0), "s"),
        **{f"geometry.calls.{f}": (calls[f"geometry.{f}"], "count") for f in
           ("j_apply", "retract", "orthonormalize_frame")},
        "reconstruct.sweep_s": (inclusive_s(spans, {"reconstruct.initial_data_sweep"}), "s"),
        "reconstruct.transport_s": (inclusive_s(spans, {"reconstruct.time_evolve_point"}), "s"),
        "reconstruct.advance_s": (inclusive_s(spans, {"reconstruct.GnlsTrajectory.advance",
                                                      "reconstruct.Nls1dTrajectory.advance"}), "s"),
        "reconstruct.self_s": (layers.get("reconstruct", 0.0), "s"),
        "diagnostics.functional_s": (inclusive_s(spans, FUNCTIONALS), "s"),
        "diagnostics.rows": (calls["diagnostics.DiagnosticsLog.append"], "count"),
        "diagnostics.append_s": (inclusive_s(spans, {"diagnostics.DiagnosticsLog.append"}), "s"),
        "diagnostics.self_s": (layers.get("diagnostics", 0.0), "s"),
        "snapshot.read_s": (inclusive_s(spans, {"snapshot.read_snapshot"}), "s"),
        "snapshot.write_s": (inclusive_s(spans, {"snapshot.write_snapshot"}), "s"),
        "driver.self_s": (layers.get("driver", 0.0), "s"),
        "setup.import_s": (inclusive_s(spans, {"setup.import"}), "s"),
        "setup.config_s": (inclusive_s(spans, {"config.load_config"}), "s"),
        "trace.wall_s": (wall, "s"),
        "trace.unattributed_s": (unattributed, "s"),
        "trace.spans": (len(spans), "count"),
    }
    return m
