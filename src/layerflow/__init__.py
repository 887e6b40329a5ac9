"""Finite-volume solver for layered free-surface flows.

A single water column is split into N layers that share one free
surface.  Each layer carries its own depth-averaged velocity; mass
crosses the internal interfaces so the stack behaves like one fluid
rather than N immiscible ones.  The solver couples an HLL transport
core with Newtonian vertical/horizontal stresses, bottom friction and
a per-step energy audit, and degenerates to a classic single-layer
scheme when N = 1.
"""

from .energy import exchange_dissipation, layer_energies, newtonian_dissipation
from .errors import ConfigError, SolverAbort
from .euler import euler_rhs, hll_fluxes
from .geometry import (Bathymetry, InterfaceGeometry, LayerPartition,
                       build_geometry, layer_thicknesses, make_bathymetry)
from .gridops import ddx, ddx_adjoint, pad_cells
from .kinematics import reconstruct_w, what_coefficients
from .rheology import StressField, stress_closure, viscous_rhs
from .scenario import Scenario, format_scenario, parse_scenario
from .state import (H_DRY, LayerState, exchange_fluxes, hydrostatic_pressures,
                    interface_velocities, velocities)
from .sv import sv_rhs, sv_velocity
from .timeloop import (RunResult, SimContext, make_context, make_rhs, run,
                       stable_dt, step)

__version__ = "0.1.0"

__all__ = [
    "Bathymetry", "ConfigError", "H_DRY",
    "InterfaceGeometry", "LayerPartition", "LayerState",
    "RunResult", "Scenario", "SimContext", "SolverAbort", "StressField",
    "build_geometry", "ddx", "ddx_adjoint", "euler_rhs", "exchange_dissipation",
    "exchange_fluxes", "format_scenario", "hll_fluxes",
    "hydrostatic_pressures", "interface_velocities", "layer_energies",
    "layer_thicknesses", "make_bathymetry", "make_context", "make_rhs",
    "newtonian_dissipation", "pad_cells", "parse_scenario", "reconstruct_w",
    "run", "stable_dt", "step", "stress_closure", "sv_rhs", "sv_velocity",
    "velocities", "viscous_rhs",
    "what_coefficients",
]
