"""smframe: geometric Schrodinger flows on S^2/H^2 and their gauge systems.

The package implements both directions of the map <-> gauge-field
correspondence: extracting frame coordinates (q, a) from a map, evolving
them with dispersive or parabolic solvers, and rebuilding the map from a
gauge-side trajectory — plus direct map-side integrators and the
conservation/residual diagnostics that tie the two sides together.
"""

__version__ = "0.1.0"

from .errors import (CadenceMismatch, CFLViolation, ConfigError,
                     DegenerateRetraction, FormatError, FrameInvalid,
                     InvalidStep, MeanHolonomy, NegativeEnergy, SmframeError)
from .geometry import HYPERBOLIC, SPHERE, Target, target_from_name
from .field import Grid
from .gauge import (best_reference_frame, compatibility_residual, coulomb_fix,
                    exponential_gauge_connection, exponential_gauge_curl_residual,
                    extract_coordinates, gauge_transform, remove_mean_connection,
                    rotate_frame, validate_frame)
from .gnls import (GnlsState, gnls_dissipation, gnls_mass, gnls_seed_from_map,
                   gnls_step, nls1d_energy, nls1d_step,
                   parabolic_gnls_step)
from .direct import MapState, heisenberg_step, map_moment, parabolic_sm_step
from .reconstruct import (MapFrameState, initial_data_sweep, reconstruct_trajectory,
                          sm_residual, time_evolve_point)
from .diagnostics import DiagnosticsLog, DiagnosticsRow, energy_map, geodesic_gap
from .snapshot import Snapshot, read_snapshot, write_snapshot
from .config import RunConfig, load_config

__all__ = [name for name in dir() if not name.startswith("_")]
