"""Record of the machine and software a benchmark run measured."""

from __future__ import annotations

import os
import platform
from pathlib import Path

import numpy as np
import scipy


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _caches() -> list[dict]:
    """Data and unified caches of cpu0, as sysfs reports them."""
    out = []
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
            level = int((index / "level").read_text())
        except (OSError, ValueError):
            continue
        if kind != "Instruction":
            scale = {"K": 1 << 10, "M": 1 << 20}.get(size[-1:], 1)
            out.append({"level": level, "type": kind,
                        "bytes": int(size.rstrip("KM")) * scale})
    return out


def _blas() -> dict | str:
    try:
        return np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # numpy < 1.26 has no dict mode
        return "unknown"


def record(workloads) -> dict:
    caches = _caches()
    llc = max(caches, key=lambda c: c["level"])["bytes"] if caches else None
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu_model": _cpu_model(),
        "caches": caches,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": _blas(),
        "state_bytes_vs_llc": {
            w.name: {"state_bytes": w.state_bytes,
                     "llc_bytes": llc,
                     "share_of_llc": w.state_bytes / llc if llc else None}
            for w in workloads},
    }
