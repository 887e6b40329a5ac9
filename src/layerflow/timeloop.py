"""Explicit time integration with adaptive stable steps.

The step size satisfies the advective CFL condition and, for viscous
runs, explicit-diffusion bounds for the vertical shear stencil
(0.25 gap^2 / mu), the horizontal stresses (dx^2 / (8 mu)) and the
fourth-order cross terms weighted by interface heights measured from
mid-column, which a datum shift leaves alone (dx^4 / (2 mu z_max^2)).
Friction, with or without viscosity, adds a relaxation bound
0.5 h_1 cos^3 / kappa.  After every stage
the depth is clipped: small negatives (round-off from drying fronts)
snap to zero and the momentum of dry columns is dropped; anything worse
aborts with the offending cell.

SSP-RK2 is the default integrator: on smooth closed flows it keeps the
energy falling at every step.  Forward Euler's first-order time error is
anti-dissipative, so on periodic flows of uniform velocity the energy
grows at every CFL from 0.5 up (by up to 1.6e-6 of the total in one step
at CFL 0.8, with three layers at u = 0.5 over a bump).  On dam breaks
and dry fronts the same error partly cancels the flux's diffusion, and
forward Euler, one evaluation per step, is the cheaper choice.

Each right-hand-side evaluation computes velocities, layer thicknesses
and fluxes once and returns the tendencies at once.  The diagnostics of
a state (energy and dissipation sums, velocities and the stable step
from it) are built only when first asked for, which happens at accepted
states: there `run`, the one stepping loop, audits energy, takes
snapshots and takes the step the diagnostics sized.  An evaluation the
stepper only advances through, such as the second SSP-RK2 stage,
therefore computes tendencies only.  Inviscid tendencies need no
geometry; viscous ones build it, and the closed stress field, at every
stage.

Every evaluation works on its window of cells and on the window's bed
(`Bathymetry.cells`).  An inviscid window is the wet one (`wet_window`),
outside which the state is a dry bed at rest: the tendencies, each
stage's update and clip, the stable step and the audit's fields cover
the window's cells only, and snapshot_frame widens the fields it writes.
Viscous evaluations take the whole domain as their window.
"""
from __future__ import annotations

import functools
import sys
import time
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from . import energy as energy_mod
from .errors import SolverAbort
from .euler import euler_rhs, wet_window
from .geometry import (Bathymetry, InterfaceGeometry, LayerPartition,
                       build_geometry, layer_thicknesses, make_bathymetry)
from .gridops import TRANSMISSIVE, widen
from .rheology import StressField, friction_kappa, stress_closure, viscous_rhs
from .scenario import (FORWARD_EULER, SSP_RK2, ControlsSpec, MeshSpec, PhysicsSpec,
                       Scenario, bathymetry_values, initial_fields)
from .state import (H_DRY, LayerState, hydrostatic_pressures, max_wave_speed,
                    velocities)


@dataclass
class Diagnostics:
    """What a run keeps of one evaluated state: the stable step from it,
    the audit's sums, and u and G on the evaluation's window [a, b),
    which snapshot_frame widens."""

    u: np.ndarray                   # (N, b - a)
    G: np.ndarray                   # (N+1, b - a)
    window: tuple[int, int]
    dt: float                       # stable step from this state
    energy: float                   # total mechanical energy
    influx: float                   # net boundary energy inflow
    diss_exchange: float
    diss_stress: float
    diss_friction: float


class RhsEval:
    """Tendencies of one state on its cells [a, b) = `window`, by default
    all of them; its diagnostics are built on first access.

    Outside the window the state is a dry bed at rest, which keeps it.
    `diagnose` builds the diagnostics from what the evaluation already
    computed, so an evaluation whose diagnostics nobody reads never pays
    for them.
    """

    def __init__(self, dH: np.ndarray, dq: np.ndarray,
                 window: Optional[tuple[int, int]] = None,
                 diagnose: Optional[Callable[[], Diagnostics]] = None):
        self.dH = dH
        self.dq = dq
        self.window = window if window is not None else (0, dH.size)
        self._diagnose = diagnose

    @functools.cached_property
    def diag(self) -> Optional[Diagnostics]:
        diagnose, self._diagnose = self._diagnose, None
        return diagnose() if diagnose is not None else None


@dataclass
class SimContext:
    """A validated scenario's own mesh, physics and controls specs, plus
    the layer partition and the bed that make_context derived from them.

    The bed holds the boundary kind; `dx` and `g` read the specs, and
    `h_dry` is H_DRY, for perfbench's tracer.
    """

    mesh: MeshSpec
    part: LayerPartition
    bathy: Bathymetry
    physics: PhysicsSpec
    controls: ControlsSpec
    h_dry = H_DRY

    @property
    def dx(self) -> float:
        return self.mesh.dx

    @property
    def g(self) -> float:
        return self.physics.g


def stable_dt(
    H: np.ndarray,
    u: np.ndarray,
    geom: InterfaceGeometry,
    ctx: SimContext,
) -> float:
    """Largest step honoring the advective, viscous and friction bounds.

    H, u and `geom` hold the cells of an evaluation's window: the bounds
    are over wet cells, and only the viscous and friction ones read `geom`.
    """
    c, p = ctx.controls, ctx.physics
    dx = ctx.dx
    wet = H > H_DRY
    if not np.any(wet):
        return c.cfl * dx / np.sqrt(ctx.g * H_DRY)
    speed = max_wave_speed(H, u, ctx.g)
    dt = c.cfl * dx / speed if speed > 0.0 else np.inf

    bounds = []
    mu = p.mu
    if mu > 0.0:
        gap = float(geom.h_half[:, wet].min())
        bounds.append(gap * gap / (2.0 * mu))
        bounds.append(dx * dx / (4.0 * mu))
        zmax = float(np.abs(geom.z_if[:, wet] - (geom.z_if[0, wet] + 0.5 * H[wet])).max())
        if zmax > 0.0:
            with np.errstate(over="ignore"):  # a dx^4 beyond the float range bounds nothing
                bounds.append(float(np.float64(dx) ** 4 / (mu * zmax * zmax)))
    if p.k_l > 0.0 or p.k_t > 0.0:
        kappa = friction_kappa(p, H, u[0])[wet]
        cos3 = geom.cos3_b[wet]
        h1 = geom.h[0, wet]
        pos = kappa > 0.0
        if np.any(pos):
            with np.errstate(over="ignore"):  # a subnormal kappa bounds nothing
                bounds.append(float((h1[pos] * cos3[pos] / kappa[pos]).min()))
    if bounds:
        dt = min(dt, 0.5 * min(bounds))
    if not (dt > 0.0):
        raise SolverAbort(f"nonpositive stable step dt={dt:g}")
    return float(dt)


def _clip_dry(state: LayerState, a: int, b: int, neg_tol: float,
              step_no: int, t: float) -> LayerState:
    """Clip the updated cells [a, b); a failing cell is named by its index."""
    H, q = state.H[a:b], state.q[:, a:b]
    if not (np.all(np.isfinite(H)) and np.all(np.isfinite(q))):
        cell = a + int(np.flatnonzero(~(np.isfinite(H) & np.isfinite(q).all(axis=0)))[0])
        raise SolverAbort("non-finite state after update", step=step_no, time=t, cell=cell)
    hmin = H.min()
    if hmin < -neg_tol:
        cell = a + int(np.argmin(H))
        raise SolverAbort(f"depth fell to {hmin:.3e}, beyond the clipping tolerance",
                          step=step_no, time=t, cell=cell)
    if hmin < 0.0:
        np.maximum(H, 0.0, out=H)
    dry = H <= H_DRY
    if dry.any():
        q[:, dry] = 0.0
    return state


def step(
    state: LayerState,
    dt: float,
    rhs: Callable[[LayerState], RhsEval],
    integrator: str = SSP_RK2,
    neg_tol: float = 1e-10,
    first_stage: Optional[RhsEval] = None,
    step_no: int = 0,
    t: float = 0.0,
) -> LayerState:
    """Advance one step with forward Euler or two-stage SSP Runge-Kutta;
    each stage updates and clips the cells of its evaluation's window."""
    r1 = first_stage if first_stage is not None else rhs(state)
    a, b = r1.window
    s1 = state.copy()
    s1.H[a:b] += dt * r1.dH
    s1.q[:, a:b] += dt * r1.dq
    _clip_dry(s1, a, b, neg_tol, step_no, t)
    if integrator == FORWARD_EULER:
        return s1
    if integrator != SSP_RK2:
        raise ValueError(f"unknown integrator {integrator!r}")
    r2 = rhs(s1)
    # a clip that dried a cell shrinks the second window, an advancing
    # front grows it: the combination covers both, with dry-bed
    # tendencies where the second stage did not evaluate
    c, d = r2.window
    a, b = min(a, c), max(b, d)
    dH, dq = widen(r2.dH, c - a, b - a, -0.0), widen(r2.dq, c - a, b - a)
    s1.H[a:b] = 0.5 * (state.H[a:b] + s1.H[a:b] + dt * dH)
    s1.q[:, a:b] = 0.5 * (state.q[:, a:b] + s1.q[:, a:b] + dt * dq)
    return _clip_dry(s1, a, b, neg_tol, step_no, t)


def make_context(scn: Scenario) -> SimContext:
    """Specs, partition and bed of a scenario; ConfigError if invalid."""
    scn.validate()
    bathy = make_bathymetry(bathymetry_values(scn), scn.mesh.dx, scn.boundary)
    return SimContext(mesh=scn.mesh, part=scn.partition(), bathy=bathy,
                      physics=scn.physics, controls=scn.controls)


def make_rhs(scn: Scenario) -> tuple[LayerState, Callable[[LayerState], RhsEval], SimContext]:
    """Initial state plus the full right-hand-side closure for a scenario."""
    ctx = make_context(scn)
    bathy, part, g, p = ctx.bathy, ctx.part, ctx.g, ctx.physics
    viscous = p.mu > 0.0 or p.k_l > 0.0 or p.k_t > 0.0
    H0, q0 = initial_fields(scn, part, bathy.zb)

    n = H0.size
    # the layer energies of a dry bed, which cells outside a wet window keep
    Z = np.zeros_like(q0)
    E_dry = energy_mod.layer_energies(Z, build_geometry(Z[0], bathy, part, Z), g)

    def rhs(state: LayerState) -> RhsEval:
        # only the wet window's cells change on an inviscid run; the
        # stresses' derivatives need the whole domain
        a, b = (0, n) if viscous else wet_window(state.H, state.q, bathy.bc)
        bed = bathy.cells(a, b)
        H, q = state.H[a:b], state.q[:, a:b]
        h = layer_thicknesses(H, part)
        u = velocities(H, q, part, h=h)
        ev = euler_rhs(H, q, bed, part, g, u=u)
        if not viscous:  # the geometry is built for the diagnostics, if read
            return RhsEval(ev.dH, ev.dq, (a, b), lambda: _diagnostics(
                ctx, H, u, ev.G, (a, b), E_dry, build_geometry(H, bed, part, h)))
        geom = build_geometry(H, bed, part, h)
        S = stress_closure(p, H, u, geom)
        dq = ev.dq + viscous_rhs(S, geom)
        return RhsEval(ev.dH, dq, (a, b),
                       lambda: _diagnostics(ctx, H, u, ev.G, (a, b), E_dry, geom, S))

    return LayerState(H0, q0), rhs, ctx


def _diagnostics(ctx: SimContext, H: np.ndarray, u: np.ndarray, G: np.ndarray,
                 window: tuple[int, int], E_dry: np.ndarray, geom: InterfaceGeometry,
                 S: Optional[StressField] = None) -> Diagnostics:
    """Stable step and audit sums of one evaluation on its window [a, b).

    The layer energies and the exchange dissipation are widened with the
    dry bed's (`E_dry`, zero) before their sums: a sum over the window
    would round differently.  Only u and G outlive the call.
    """
    a, b = window
    n = ctx.mesh.n_cells
    if S is not None:
        d_stress, d_fric = energy_mod.newtonian_dissipation(S, geom, ctx.physics.mu, u)
    else:
        d_stress, d_fric = 0.0, 0.0
    E = energy_mod.layer_energies(u, geom, ctx.g)
    influx = 0.0
    # water crosses transmissive ends only: the mirrored traces at a wall
    # carry no mass flux
    if ctx.bathy.bc == TRANSMISSIVE and (a == 0 or b == n):  # the window's ends
        p_mid, _ = hydrostatic_pressures(geom.h, ctx.g)
        flux = energy_mod.energy_flux_density(u, geom, E, p_mid)
        influx = energy_mod.boundary_influx((flux[0] if a == 0 else 0.0,
                                             flux[-1] if b == n else 0.0))
    return Diagnostics(u=u, G=G, window=window, dt=stable_dt(H, u, geom, ctx),
                       energy=float(widen(E, a, n, E_dry).sum() * ctx.dx), influx=influx,
                       diss_exchange=energy_mod.exchange_dissipation(u, G, ctx.dx, a, n),
                       diss_stress=d_stress, diss_friction=d_fric)


@dataclass
class RunResult:
    """Trajectory-level outputs: per-step audit series plus snapshots."""

    times: np.ndarray               # (steps+1,)
    E_total: np.ndarray             # energy at each recorded time
    D_G: np.ndarray                 # exchange dissipation at step starts
    R_E: np.ndarray                 # viscous stress dissipation
    friction: np.ndarray            # wall-friction dissipation
    influx: np.ndarray              # net boundary energy inflow
    mass: np.ndarray                # total water volume
    residuals: np.ndarray           # (steps,) budget residuals
    snapshots: list                 # [(t, Diagnostics, LayerState), ...]
    summary: dict
    final: LayerState
    ctx: SimContext                 # what the run was made from


def next_snapshot_time(t: float, every: float) -> float:
    """First multiple k * every of the snapshot cadence past time t.

    "Past" carries the same 1e-12 relative slack as the snapshot test in
    run().  The time is computed, not accumulated: adding a cadence far
    below the resolution of t would leave a running sum unchanged.  When
    every is that small, the result may not exceed t, and the next step
    takes the next snapshot.  A cadence of 0 means no snapshots.
    """
    if not every > 0.0:
        return np.inf
    past = t * (1.0 + 1e-12)
    k = np.floor(past / every) + 1.0
    if k * every <= past:  # past / every rounded up to a whole number
        k += 1.0
    return float(k * every)


def run(
    scn: Scenario,
    progress_every: int = 0,
    max_steps: int = 10_000_000,
) -> RunResult:
    """Integrate a scenario to t_end, auditing energy and mass each step."""
    state, rhs, ctx = make_rhs(scn)
    controls = ctx.controls
    dx = ctx.dx
    t_end = controls.t_end
    every = scn.output.snapshot_every
    neg_tol = 1e-10 * max(1.0, float(state.H.max()))

    times = [0.0]
    cols = {name: [] for name in ("E", "DG", "RE", "fric", "influx", "mass")}
    snapshots = []
    wall0 = time.perf_counter()

    def audit(r: RhsEval):
        d = r.diag
        cols["E"].append(d.energy)
        cols["DG"].append(d.diss_exchange)
        cols["RE"].append(d.diss_stress)
        cols["fric"].append(d.diss_friction)
        cols["influx"].append(d.influx)
        cols["mass"].append(float(state.H.sum() * dx))

    t = 0.0
    step_no = 0
    r = rhs(state)
    audit(r)
    snapshots.append((t, r.diag, state))
    next_snap = next_snapshot_time(t, every)

    while t < t_end * (1.0 - 1e-13):
        dt = r.diag.dt
        if dt <= max(1e-13, 1e-13 * t_end):
            raise SolverAbort(f"time step collapsed to dt={dt:.3e}", step=step_no, time=t)
        if step_no == 0 and (t_end - t) / dt > max_steps:
            raise SolverAbort(f"stable step dt0={dt:.3e} needs about {(t_end - t) / dt:.3g} "
                              f"steps, over the budget of {max_steps}", step=step_no, time=t)
        dt = min(dt, t_end - t)
        state = step(state, dt, rhs, controls.integrator, neg_tol=neg_tol,
                     first_stage=r, step_no=step_no, t=t)
        t += dt
        step_no += 1
        if step_no > max_steps:
            raise SolverAbort("step budget exhausted", step=step_no, time=t)
        r = rhs(state)
        times.append(t)
        audit(r)
        if t >= next_snap * (1.0 - 1e-12):
            snapshots.append((t, r.diag, state))
            next_snap = next_snapshot_time(t, every)
        if progress_every and step_no % progress_every == 0:
            print(f"step={step_no} t={t:.6g} dt={dt:.3e} "
                  f"mass={cols['mass'][-1]:.12g} energy={cols['E'][-1]:.12g}",
                  file=sys.stderr)

    if snapshots[-1][0] != t:
        snapshots.append((t, r.diag, state))

    times = np.array(times)
    E, DG, RE, fric, influx, mass = (np.array(v) for v in cols.values())
    residuals = (energy_mod.budget_residuals(times, E, influx, DG, RE, fric)
                 if len(times) > 1 else np.zeros(0))

    m0 = mass[0] if mass[0] != 0.0 else 1.0
    summary = {
        "steps": step_no,
        "t_end": t,
        "mass_drift": float(np.abs(mass - mass[0]).max() / abs(m0)),
        "energy_change": float(E[-1] - E[0]),
        "min_depth": float(state.H.min()),
        "wall_time": time.perf_counter() - wall0,
    }
    return RunResult(times=times, E_total=E, D_G=DG, R_E=RE, friction=fric,
                     influx=influx, mass=mass, residuals=residuals,
                     snapshots=snapshots, summary=summary, final=state, ctx=ctx)
