"""Time integration: explicit transport, then an implicit viscous stage.

Each step advances the transport with forward Euler or SSP-RK2 at the
advective CFL step, the only bound on it, and clips the depth after each
stage: round-off negatives snap to zero, dry columns drop their momentum
and anything worse aborts naming the cell.  Viscous and friction runs
then take one trapezoidal stage, which freezes the geometry and the wall
law at its start and solves (h - dt/2 A) delta = dt A u* for the velocity
increment, A u = viscous_rhs(stress_closure(physics, H, u, geom), geom),
by preconditioned conjugate gradients (Hestenes & Stiefel, J. Res. NBS
49, 1952).  A is symmetric and negative semidefinite under sum(u V) dx,
end rows included, so the stage cannot gain energy at any step; the
audit books its work, 1/2 sum h (u_new^2 - u*^2) dx.  Transport and stage
follow one another, a first-order IMEX splitting (Ascher, Ruuth &
Spiteri, Appl. Numer. Math. 25, 1997).

SSP-RK2, the default, keeps the energy of smooth closed flows falling at
every step.  Forward Euler's time error is anti-dissipative: on periodic
flows of uniform velocity the energy grows at every CFL from 0.5 up (by
up to 2.1e-6 of the total in a step at CFL 0.9, three layers at u = 0.5
over a bump); on dam breaks and dry fronts it partly cancels the flux's
diffusion, at one evaluation a step.

An evaluation computes velocities and fluxes once, on its wet window
(`wet_window`) and the window's bed (`Bathymetry.cells`), outside which
the state is a dry bed at rest.  `diagnose()` builds its stable step and
audit sums from (H, q, z_b) and u, by `energy`'s closed forms, at the
accepted states, where `accepted_steps`, the one stepping loop, audits
and steps.  A step builds one geometry, the viscous stage's, which covers
the whole domain, whose derivatives a window edge would change.
"""
from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Iterator, Optional

import numpy as np

from . import energy as energy_mod
from .errors import SolverAbort
from .euler import euler_rhs, wet_window
from .geometry import InterfaceGeometry, build_geometry
from .gridops import TRANSMISSIVE, widen
from .rheology import stress_closure, viscous_rhs
from .scenario import FORWARD_EULER, SSP_RK2, Scenario
from .state import H_DRY, LayerState, velocities


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


@dataclass
class RhsEval:
    """Tendencies of one state on its cells [a, b) = `window`, outside which
    the state is a dry bed at rest.  `diagnose` builds the diagnostics from
    what the evaluation computed; the stepping loop calls it once per
    accepted state, so an evaluation nobody audits pays nothing."""

    dH: np.ndarray
    dq: np.ndarray
    window: tuple[int, int]
    diagnose: Optional[Callable[[], Diagnostics]] = None


def stable_dt(H: np.ndarray, u: np.ndarray, geom: Optional[InterfaceGeometry],
              scn: Scenario) -> float:
    """The advective CFL step over the wet cells of an evaluation's window,
    whose fastest wave is |u_a| + sqrt(g H), or sqrt(g H_DRY) when all are
    dry.  `geom` is not read (the audit passes None): it stays only for the
    benchmark's tracer, which wraps this function with four arguments,
    until ROADMAP item 8.
    A step that underflows to 0 is left to the stepping loop's collapse check."""
    speed = np.abs(u).max(axis=0) + np.sqrt(scn.g * np.maximum(H, 0.0))
    if H.min() <= H_DRY:  # exact, since the clipped state is finite
        wet = H > H_DRY
        speed = speed[wet] if wet.any() else np.sqrt(scn.g * H_DRY)
    speed = float(speed.max())
    return float(scn.controls.cfl * scn.dx / speed if speed > 0.0 else np.inf)


def _clip_dry(state: LayerState, a: int, b: int) -> LayerState:
    """Clip the updated cells [a, b), outside which H is 0: a depth down to
    -1e-10 max(1, max H) snaps to 0; a failing cell is named by its index."""
    H, q = state.H[a:b], state.q[:, a:b]
    if not (np.isfinite(H).all() and np.isfinite(q).all()):
        cell = a + int(np.flatnonzero(~(np.isfinite(H) & np.isfinite(q).all(axis=0)))[0])
        raise SolverAbort("non-finite state after update", cell=cell)
    hmin = H.min()
    if hmin < 0.0:
        if hmin < -1e-10 * max(1.0, H.max()):
            cell = a + int(np.argmin(H))
            raise SolverAbort(f"depth fell to {hmin:.3e}, beyond the clipping tolerance", cell=cell)
        np.maximum(H, 0.0, out=H)
    if hmin <= H_DRY:  # a dry column, since H is finite
        q[:, H <= H_DRY] = 0.0
    return state


def step(state: LayerState, dt: float, r1: RhsEval, rhs: Callable[[LayerState], RhsEval],
         integrator: str = SSP_RK2) -> LayerState:
    """Advance one step with forward Euler or two-stage SSP Runge-Kutta from
    `r1`, the evaluation of `state`; `rhs` makes SSP-RK2's second.  Each
    stage updates and clips the cells of its evaluation's window."""
    a, b = r1.window
    s1 = state.copy()
    s1.H[a:b] += dt * r1.dH
    s1.q[:, a:b] += dt * r1.dq
    _clip_dry(s1, a, b)
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
    return _clip_dry(s1, a, b)


CG_MAX_ITER = 1000  # conjugate-gradient iterations one viscous stage may take
CG_TOL = 1e-6       # stop at |r| <= CG_TOL |dt A u*|, the stage's right-hand side


def trapezoidal_increment(h: np.ndarray, b: np.ndarray, apply: Callable, w: np.ndarray,
                          c: np.ndarray, dt: float) -> np.ndarray:
    """delta with (h - dt/2 A) delta = b, A = `apply`, by preconditioned CG
    from delta = 0 over numpy's pairwise sums.  Preconditioner: each column's
    diag(w) + layer Laplacian of weights c (N-1, n), factored L D L^T from
    its grounded parts G (Thomas), so no pivot falls below w, however large c."""
    G, D, m = w.copy(), np.empty_like(w), np.empty_like(c)
    for a in range(len(c)):
        np.add(G[a], c[a], out=D[a])
        np.divide(c[a], D[a], out=m[a])
        G[a + 1] += m[a] * G[a]
    D[-1] = G[-1]
    r, rr, rz = b, np.add.reduce((b * b).ravel()), 1.0
    delta = p = np.zeros_like(b)
    tol2 = CG_TOL * CG_TOL * rr
    for k in range(CG_MAX_ITER + 1):
        if rr <= tol2 < np.inf:
            return delta
        if k == CG_MAX_ITER or not rr < np.inf:  # the cap, or beyond the float range
            raise SolverAbort(f"the viscous stage did not converge: |r|^2 = {rr:.3g} after "
                              f"{k} iterations")
        z = r.copy()
        for a in range(len(m)):
            z[a + 1] += m[a] * z[a]
        z /= D
        for a in range(len(m) - 1, -1, -1):
            z[a] += m[a] * z[a + 1]
        rz_prev, rz = rz, np.add.reduce((r * z).ravel())
        p = z + (rz / rz_prev) * p
        Ap = h * p - (0.5 * dt) * apply(p)
        alpha = rz / np.add.reduce((p * Ap).ravel())
        delta = delta + alpha * p
        r = r - alpha * Ap
        rr = np.add.reduce((r * r).ravel())


def viscous_stage(state: LayerState, dt: float, scn: Scenario) -> tuple[float, float]:
    """One trapezoidal stage of the stresses and the wall law on `state.q`,
    in place, with the dry columns held.  Returns the stage's mean stress
    and friction power."""
    H, part, p = state.H, scn.partition, scn.physics
    geom = build_geometry(H, scn.bed, part)
    h, dry = geom.h, H <= H_DRY
    u = velocities(H, state.q, part, h=h)

    def masked(V):
        V[:, dry] = 0.0
        return V

    # a stress beyond the float range leaves |r|^2 non-finite, and the stage aborts located
    with np.errstate(over="ignore", invalid="ignore"):
        S = stress_closure(p, H, u, geom)  # the wall law frozen at u*
        drag = S.kappa / geom.cos3_b
        hp = np.where(dry, 1.0, h)  # a dry column's rows stay regular
        cs = (dt * p.mu) / (hp[:-1] + hp[1:])  # dt/2 mu / gap, the shear across a gap
        w = np.concatenate(((hp[0] + (0.5 * dt) * drag)[None], hp[1:]))  # the wall law grounds it
        delta = trapezoidal_increment(
            h, masked(dt * viscous_rhs(S, geom)),
            lambda v: masked(viscous_rhs(stress_closure(p, H, v, geom, S.kappa), geom)),
            w, cs, dt)
    hd, um = h * delta, u + 0.5 * delta
    state.q += hd
    power = float(np.add.reduce((hd * um).ravel())) * scn.dx / dt
    # the wall law's drain at the mean velocity; + 0.0 books a zero drain as +0.0, not -0.0
    fric = power if p.mu == 0.0 else -float(np.add.reduce(drag * um[0] * um[0])) * scn.dx + 0.0
    return power - fric, fric


def make_context(scn: Scenario) -> Scenario:
    """The scenario itself, once checked: ConfigError if it is invalid,
    which a scenario checks once (`Scenario.built`)."""
    scn.built
    return scn


def make_rhs(scn: Scenario) -> tuple[LayerState, Callable[..., RhsEval], Scenario]:
    """A copy of a scenario's initial state plus the transport right-hand-side closure."""
    bathy, H0, q0 = make_context(scn).built
    part, g = scn.partition, scn.g

    def rhs(state: LayerState) -> RhsEval:
        # only the wet window's cells change
        a, b = wet_window(state.H, state.q, bathy.bc)
        bed = bathy.cells(a, b)
        H, q = state.H[a:b], state.q[:, a:b]
        u = velocities(H, q, part)
        dH, dq, G = euler_rhs(H, q, bed, part, g, u=u)
        return RhsEval(dH, dq, (a, b), lambda: _diagnostics(scn, H, q, u, G, (a, b), bed.zb))

    return LayerState(H0.copy(), q0.copy()), rhs, scn


def _diagnostics(scn: Scenario, H: np.ndarray, q: np.ndarray, u: np.ndarray, G: np.ndarray,
                 window: tuple[int, int], zb: np.ndarray) -> Diagnostics:
    """Stable step and audit sums of one evaluation on its window [a, b) of
    bed heights zb.  Layers add in row order from +0.0 (`sum` over rows), so
    a window's columns round like the whole domain's; the cell energies and
    the exchange dissipation are widened with the dry bed's zeros before
    their sums, which would round differently over the window.  Only u and
    G outlive the call."""
    a, b = window
    n, g = scn.mesh.n_cells, scn.g
    E = 0.5 * sum(q * u) + g * H * (zb + 0.5 * H)
    influx = 0.0
    # water crosses transmissive ends only: the mirrored traces at a wall
    # carry no mass flux
    if scn.bed.bc == TRANSMISSIVE and (a == 0 or b == n):
        e = [0, -1]  # the window's end columns
        flux = sum(q[:, e] * (0.5 * u[:, e] * u[:, e] + g * (zb[e] + H[e])))
        influx = float((flux[0] if a == 0 else 0.0) - (flux[-1] if b == n else 0.0))
    return Diagnostics(u=u, G=G, window=window, dt=stable_dt(H, u, None, scn),
                       energy=float(widen(E, a, n).sum() * scn.dx), influx=influx,
                       diss_exchange=energy_mod.exchange_dissipation(u, G, scn.dx, a, n))


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

    @classmethod
    def collect(cls, rows, snapshots: list, final: LayerState, wall0: float) -> "RunResult":
        """The result of `accepted_steps`' rows; a state books the stress
        and friction power of its step's viscous stage, the last state none."""
        times, E, DG, influx, mass, RE, fric = np.array(rows).T.copy()
        RE, fric = np.append(RE[1:], 0.0), np.append(fric[1:], 0.0)
        m0 = mass[0] if mass[0] != 0.0 else 1.0
        summary = {
            "steps": times.size - 1,
            "t_end": float(times[-1]),
            "mass_drift": float(np.abs(mass - mass[0]).max() / abs(m0)),
            "energy_change": float(E[-1] - E[0]),
            "min_depth": float(final.H.min()),
            "wall_time": time.perf_counter() - wall0,
        }
        return cls(times=times, E_total=E, D_G=DG, R_E=RE, friction=fric, influx=influx,
                   mass=mass, residuals=energy_mod.budget_residuals(times, E, influx, DG, RE, fric),
                   snapshots=snapshots, summary=summary, final=final)


def next_snapshot_time(t: float, every: float) -> float:
    """First multiple k * every of the snapshot cadence past time t.

    "Past" carries the same 1e-12 relative slack as the stepping loop's
    snapshot test.  The time is computed, not accumulated: adding a cadence far
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


def accepted_steps(scn: Scenario, max_steps: int = 10_000_000) -> Iterator[tuple]:
    """Integrate a scenario to t_end, the package's one stepping loop, and
    yield each accepted state once, as (row, frame).  The row is its audit
    (t, E_total, D_G, influx, mass, R_E, friction), R_E and friction being
    the mean stress and friction power of the viscous stage that reached
    it (0 at t = 0).  The frame is (t, Diagnostics, LayerState) when the
    snapshot schedule takes the state, the first and the last one always,
    else None; a state is never changed once yielded."""
    state, rhs, _ = make_rhs(scn)
    p, controls = scn.physics, scn.controls
    viscous = p.mu > 0.0 or p.k_l > 0.0 or p.k_t > 0.0
    dx, t_end = scn.dx, controls.t_end
    every = scn.output.snapshot_every
    t, step_no, due, power = 0.0, 0, 0.0, (0.0, 0.0)
    try:
        while True:
            r = rhs(state)  # the first stage of step step_no
            d, last = r.diagnose(), not t < t_end * (1.0 - 1e-13)
            if take := last or t >= due * (1.0 - 1e-12):
                due = next_snapshot_time(t, every)
            # the frame is not bound here, so a consumer alone decides how long it lives
            yield ((t, d.energy, d.diss_exchange, d.influx, float(state.H.sum() * dx), *power),
                   (t, d, state) if take else None)
            if last:
                return
            dt = d.dt
            if dt <= 1e-13 * t_end:
                raise SolverAbort(f"time step collapsed to dt={dt:.3e}")
            if step_no == 0 and (t_end - t) / dt > max_steps:
                raise SolverAbort(f"stable step dt0={dt:.3e} needs about {(t_end - t) / dt:.3g} "
                                  f"steps, over the budget of {max_steps}")
            dt = min(dt, t_end - t)
            state = step(state, dt, r, rhs, controls.integrator)
            if viscous:
                power = viscous_stage(state, dt, scn)
            t += dt
            step_no += 1
            if step_no > max_steps:
                raise SolverAbort("step budget exhausted")
    except SolverAbort as exc:  # the one place an abort gets its step and time
        raise SolverAbort(exc.reason, step_no, t, exc.cell)


def run(scn: Scenario, max_steps: int = 10_000_000) -> RunResult:
    """Integrate a scenario to t_end: `accepted_steps`, collected."""
    wall0 = time.perf_counter()
    rows, frames = zip(*accepted_steps(scn, max_steps))
    snapshots = [frame for frame in frames if frame is not None]
    return RunResult.collect(rows, snapshots, snapshots[-1][2], wall0)
