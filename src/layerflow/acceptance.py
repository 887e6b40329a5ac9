"""Built-in acceptance suite.

Each criterion exercises an end-to-end behavior of the solver against
an independent reference: exact still water, bit-level mass bookkeeping,
partition-refinement collapse, a closed-form dam-break profile, sign
checks of the two dissipation channels and the work the applied viscous
operator does against them, the layer-mean property of the reconstructed
vertical velocity, a matrix-exponential oracle for vertical momentum
diffusion, the standalone single-layer solver, the energy optimality
of the upwinded interface velocity, and the exact decaying mode of a
shear column with a wall law, approached as the layer count grows.
"""
from __future__ import annotations

import itertools
import time
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from . import energy as energy_mod
from .euler import euler_rhs
from .geometry import LayerPartition, build_geometry, make_bathymetry
from .kinematics import reconstruct_w, what_coefficients
from .rheology import stress_closure, viscous_rhs
from .scenario import (FORWARD_EULER, BathymetrySpec, ControlsSpec, InitSpec, LayersSpec,
                       MeshSpec, OutputSpec, PhysicsSpec, Scenario)
from .state import LayerState, interface_velocities, velocities
from .sv import sv_rhs, sv_velocity, sv_viscous
from .timeloop import RhsEval, accepted_steps, run, step, trapezoidal_increment


@dataclass
class CriterionResult:
    cid: int
    title: str
    passed: bool
    detail: str

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"[{status}] criterion {self.cid:2d} - {self.title}: {self.detail}"


def _scenario(n: int, t_end: float, init: InitSpec, layers: int = 1,
              **specs) -> Scenario:
    """The criteria's base run: n cells of [0, 1], periodic over a flat bed,
    g = 9.81, to t_end; a spec given by keyword replaces the base's."""
    base = dict(mesh=MeshSpec(0.0, 1.0, n), layers=LayersSpec(n=layers),
                physics=PhysicsSpec(g=9.81), controls=ControlsSpec(t_end=t_end))
    return Scenario(init=init, **{**base, **specs})


# --- 1: exact preservation of a lake at rest over topography ---------------

def criterion_1() -> CriterionResult:
    t0 = time.perf_counter()
    frames = run(_scenario(100, 1.6, InitSpec(kind="lake_at_rest", eta0=1.0), layers=4,
                           bathymetry=BathymetrySpec(kind="bump", a=0.25, x0=0.5,
                                                     width=0.15))).snapshots
    (_, _, start), (_, diag, end) = frames[0], frames[-1]
    du = float(np.abs(diag.u).max())
    deta = float(np.abs(end.H - start.H).max())
    wall = time.perf_counter() - t0
    ok = du <= 1e-12 and deta <= 1e-12 and wall < 5.0
    return CriterionResult(1, "lake at rest stays at rest", ok,
                           f"max|u|={du:.2e} (<=1e-12), max|eta-eta0|={deta:.2e} "
                           f"(<=1e-12), wall={wall:.2f}s (<5s)")


# --- 2: bit-level mass bookkeeping through shocks ---------------------------

# the periodic dam break of criteria 2 and 5
_DAM = InitSpec(kind="dam_break", eta_l=1.0, eta_r=0.5, x0=0.5)


def criterion_2() -> CriterionResult:
    result = run(_scenario(200, 0.65, _DAM, layers=3))
    drift = result.summary["mass_drift"]
    ok = drift <= 1e-12
    return CriterionResult(2, "mass conservation on a periodic dam break", ok,
                           f"relative drift={drift:.2e} over {result.summary['steps']} "
                           f"steps (<=1e-12)")


# --- 3: partition refinement collapses to the single-layer scheme ----------

def _collapse_scenario(n_layers: int) -> Scenario:
    H = 1.0 + 0.1 * np.sin(2.0 * np.pi * ((np.arange(100) + 0.5) / 100))
    init = InitSpec(kind="table", H_values=tuple(H), u_values=(0.2,) * (100 * n_layers))
    return _scenario(100, 0.25, init, layers=n_layers)


def criterion_3() -> CriterionResult:
    res4 = run(_collapse_scenario(4))
    res1 = run(_collapse_scenario(1))
    du = float(np.abs(res4.snapshots[-1][1].u - res1.snapshots[-1][1].u[0]).max())
    dH = float(np.abs(res4.final.H - res1.final.H).max())
    ok = du <= 1e-10 and dH <= 1e-10
    return CriterionResult(3, "four equal layers collapse to one", ok,
                           f"max|u_a-u|={du:.2e}, max|H4-H1|={dH:.2e} (<=1e-10)")


# --- 4: convergence to the closed-form dam break on a dry bed --------------

def ritter_profile(x: np.ndarray, t: float, g: float, H_left: float):
    """Exact similarity solution for a dam break onto a dry bed."""
    c0 = np.sqrt(g * H_left)
    xi = x / t
    H = np.where(xi <= -c0, H_left,
                 np.where(xi >= 2.0 * c0, 0.0, (2.0 * c0 - xi) ** 2 / (9.0 * g)))
    u = np.where((xi > -c0) & (xi < 2.0 * c0), 2.0 / 3.0 * (xi + c0), 0.0)
    return H, u


def _ritter_error(n_cells: int) -> float:
    # forward Euler at CFL 0.9 reaches the asymptotic range by 200 cells;
    # the two-stage integrator needs roughly 800 for the same window
    t_end = 0.6
    scn = _scenario(n_cells, t_end, InitSpec(kind="dam_break", eta_l=1.0),
                    mesh=MeshSpec(-5.0, 5.0, n_cells), boundary="transmissive",
                    controls=ControlsSpec(t_end=t_end, integrator=FORWARD_EULER))
    result = run(scn)
    H_ref, _ = ritter_profile(scn.mesh.x, t_end, scn.g, 1.0)
    return float(np.abs(result.final.H - H_ref).sum() * scn.mesh.dx)


def criterion_4() -> CriterionResult:
    t0 = time.perf_counter()
    e200 = _ritter_error(200)
    e400 = _ritter_error(400)
    order = float(np.log2(e200 / e400))
    wall = time.perf_counter() - t0
    ok = e400 < e200 and order >= 0.7 and wall < 30.0
    return CriterionResult(4, "dry dam break converges to the exact profile", ok,
                           f"L1 errors {e200:.3e} -> {e400:.3e}, order={order:.2f} "
                           f"(>=0.7), wall={wall:.1f}s (<30s)")


# --- 5: discrete energy decays across shocks --------------------------------

def criterion_5() -> CriterionResult:
    result = run(_scenario(150, 0.4, _DAM, layers=3))
    E = result.E_total
    growth = float((np.diff(E) / np.abs(E[:-1])).max())
    dg_max = float(result.D_G.max())
    ok = growth <= 1e-12 and dg_max <= 0.0
    return CriterionResult(5, "energy is non-increasing step by step", ok,
                           f"max relative step growth={growth:.2e} (<=1e-12), "
                           f"max D_G={dg_max:.2e} (<=0)")


# --- 6: the applied viscous operator does the compact dissipation's work --

def criterion_6() -> CriterionResult:
    rng = np.random.default_rng(60325)
    worst = 0.0
    sign_ok = True
    for trial in range(1000):
        N = int(rng.integers(2, 6))
        n = int(rng.integers(12, 25))
        bc = "periodic" if trial % 2 == 0 else "transmissive"
        dx = 1.0 / n
        zb = 0.3 * rng.standard_normal(n) * 0.3
        H = rng.uniform(0.5, 2.0, n)
        u = rng.standard_normal((N, n))
        physics = PhysicsSpec(mu=10.0 ** rng.uniform(-3, 0), k_l=float(rng.uniform(0, 1)),
                              k_t=float(rng.uniform(0, 1)))
        geom = build_geometry(H, make_bathymetry(zb, dx, bc), LayerPartition.uniform(N))
        S = stress_closure(physics, H, u, geom)
        stress, fric = energy_mod.newtonian_dissipation(S, geom, physics.mu, u)
        work = float((u * viscous_rhs(S, geom)).sum() * dx)
        rel = abs(stress + fric - work) / max(1.0, abs(stress + fric))
        worst = max(worst, rel)
        if stress > 0.0 or fric > 0.0:
            sign_ok = False
    ok = worst <= 1e-12 and sign_ok
    return CriterionResult(6, "viscous work equals the compact dissipation", ok,
                           f"worst relative gap={worst:.2e} over 1000 states "
                           f"(<=1e-12), signs nonpositive={sign_ok}")


# --- 7: layer mean of the affine vertical profile ---------------------------

def criterion_7() -> CriterionResult:
    rng = np.random.default_rng(70417)
    worst = 0.0
    for N in (2, 3, 5):
        for trial in range(20):
            n = 48
            bc = "periodic" if trial % 2 == 0 else "transmissive"
            dx = 1.0 / n
            x = (np.arange(n) + 0.5) * dx
            zb = 0.2 * np.sin(2 * np.pi * x + rng.uniform(0, 7))
            H = 1.0 + 0.4 * np.sin(2 * np.pi * x + rng.uniform(0, 7))
            u = np.array([np.cos(2 * np.pi * x + rng.uniform(0, 7))
                          * rng.uniform(0.3, 1.0) for _ in range(N)])
            part = LayerPartition.uniform(N)
            geom = build_geometry(H, make_bathymetry(zb, dx, bc), part)
            w, dudx = reconstruct_w(u, geom)
            k = what_coefficients(u, geom)
            mean = k - geom.z_mid * dudx
            gap = float(np.abs(geom.h * mean - geom.h * w).max())
            worst = max(worst, gap)
    ok = worst <= 1e-12
    return CriterionResult(7, "affine vertical profile averages to w", ok,
                           f"worst |int(what) - h w|={worst:.2e} for N in 2,3,5 "
                           f"(<=1e-12)")


# --- 8: vertical shear relaxation against a matrix-exponential oracle ------

def _shear_column(u: np.ndarray, mu: float, t_end: float, every: float,
                  k_l: float = 0.0) -> Scenario:
    """An x-uniform shear flow of len(u) equal layers over a flat periodic
    bed, depth 1: vertical diffusion and the wall law alone act on it."""
    return _scenario(8, t_end, InitSpec(kind="shear", eta0=0.5, u=tuple(u)), layers=len(u),
                     bathymetry=BathymetrySpec(z0=-0.5),
                     physics=PhysicsSpec(g=9.81, mu=mu, k_l=k_l),
                     output=OutputSpec(snapshot_every=every))


def criterion_8() -> CriterionResult:
    t0 = time.perf_counter()
    N = 8
    mu = 0.01
    u_amp = 0.3 * np.cos(np.pi * (np.arange(N) + 0.5) / N)
    frames = run(_shear_column(u_amp, mu, 6.0, 1e-12)).snapshots  # a frame per step
    times = np.array([t for t, _, _ in frames])
    spreads = np.array([float(d.u.max() - d.u.min()) for _, d, _ in frames])
    monotone = bool((spreads[1:] <= spreads[:-1] * (1.0 + 1e-12) + 1e-15).all())

    # oracle: the same initial profile under the tridiagonal diffusion ODE,
    # whose symmetric matrix L = V diag(lam) V^T gives expm(L t) = V diag(e^(lam t)) V^T
    ones = np.ones(N - 1)
    L = (mu * N * N) * (np.diag(ones, 1) + np.diag(ones, -1)
                        - np.diag(np.r_[1.0, 2.0 * ones[1:], 1.0]))
    lam, vecs = np.linalg.eigh(L)
    i1 = int(np.searchsorted(times, 1.5))
    i2 = int(np.searchsorted(times, 5.5))
    t1, t2 = times[i1], times[i2]

    def ode_spread(tt: float) -> float:
        v = vecs @ (np.exp(lam * tt) * (vecs.T @ u_amp))
        return float(v.max() - v.min())

    rate_pde = float(np.log(spreads[i1] / spreads[i2]) / (t2 - t1))
    rate_ode = float(np.log(ode_spread(t1) / ode_spread(t2)) / (t2 - t1))
    rel = abs(rate_pde / rate_ode - 1.0)
    wall = time.perf_counter() - t0
    ok = monotone and rel <= 0.10 and wall < 10.0
    return CriterionResult(8, "shear relaxes at the diffusion-oracle rate", ok,
                           f"monotone={monotone}, rate={rate_pde:.5f} vs "
                           f"oracle {rate_ode:.5f} (gap {rel:.1%}, <=10%), "
                           f"wall={wall:.1f}s (<10s)")


# --- 9: the multilayer solver at N=1 matches the standalone reference ------

def criterion_9() -> CriterionResult:
    n, bc = 24, "periodic"
    dx = 1.0 / n
    x = (np.arange(n) + 0.5) * dx
    zb = -0.45 + 0.1 * np.sin(2 * np.pi * x)
    H = 0.9 + 0.05 * np.cos(2 * np.pi * x)
    u = 0.3 + 0.2 * np.sin(4 * np.pi * x)
    init = InitSpec(kind="table", H_values=tuple(H), u_values=tuple(u))
    scn = _scenario(n, 10.0, init,  # t_end not reached: 100 steps end near t = 1.10
                    bathymetry=BathymetrySpec(kind="table", values=tuple(zb)),
                    physics=PhysicsSpec(g=9.81, mu=0.01, k_l=0.05, k_t=0.02),
                    output=OutputSpec(snapshot_every=1e-12))  # a frame per step

    # one right-hand side, both pipelines: the multilayer one on the checked scenario
    (bathy, H0, q0), part, p = scn.built, scn.partition, scn.physics
    geom = build_geometry(H0, bathy, part)
    dH, dq, _ = euler_rhs(H0, q0, bathy, part, p.g)
    S = stress_closure(p, H0, velocities(H0, q0, part), geom)
    dq_ml = dq + viscous_rhs(S, geom)
    dH_ref, dq_ref = sv_rhs(H, H * u, zb, p.g, p.mu, p.k_l, p.k_t, dx, bc)
    scale_H = max(1.0, float(np.abs(dH_ref).max()))
    scale_q = max(1.0, float(np.abs(dq_ref).max()))
    gap_rhs = max(float(np.abs(dH - dH_ref).max()) / scale_H,
                  float(np.abs(dq_ml[0] - dq_ref).max()) / scale_q)

    # 100-step trajectories: the stepping loop picks each step size, and the
    # reference takes the same one through the shared stepper, its transport
    # from sv_rhs and its stage on sv_viscous
    def rhsB(s: LayerState) -> RhsEval:
        dH, dq = sv_rhs(s.H, s.q[0], zb, p.g, 0.0, 0.0, 0.0, dx, bc)
        return RhsEval(dH, dq[None], (0, n))

    def stageB(s: LayerState, dt: float):  # the wall law frozen at u*, as in viscous_stage
        u = sv_velocity(s.H, s.q[0])
        k = p.k_l + p.k_t * s.H * np.abs(u)
        V, drag = sv_viscous(s.H, u, zb, p.mu, k, dx, bc)
        s.q += s.H * trapezoidal_increment(
            s.H, dt * V[None], lambda v: sv_viscous(s.H, v[0], zb, p.mu, k, dx, bc)[0][None],
            (s.H + 0.5 * dt * drag)[None], np.empty((0, n)), dt)

    frames = [frame for _, frame in itertools.islice(accepted_steps(scn), 101)]
    sA, sB = frames[-1][2], frames[0][2].copy()
    for _, d, _ in frames[:-1]:
        sB = step(sB, d.dt, rhsB(sB), rhsB)
        stageB(sB, d.dt)
    scale = max(1.0, float(np.abs(sA.H).max()), float(np.abs(sA.q).max()))
    gap_traj = max(float(np.abs(sA.H - sB.H).max()),
                   float(np.abs(sA.q - sB.q).max())) / scale
    ok = gap_rhs <= 1e-14 and gap_traj <= 1e-12
    return CriterionResult(9, "N=1 pipeline matches the reference solver", ok,
                           f"rhs gap={gap_rhs:.2e} (<=1e-14), trajectory gap after "
                           f"100 steps={gap_traj:.2e} (<=1e-12)")


# --- 10: energy optimality of the upwind interface velocity ----------------

def criterion_10() -> CriterionResult:
    rng = np.random.default_rng(101001)
    m = 200000
    u_lo = rng.standard_normal(m)
    u_hi = rng.standard_normal(m)
    G = rng.standard_normal(m)
    scale = 1.0 + np.abs(G) * (u_lo * u_lo + u_hi * u_hi)

    # the stepper's donor rule, and on the reversed layers the other donor
    G3 = np.pad(G[None], ((1, 1), (0, 0)))
    u_up = interface_velocities(np.stack([u_lo, u_hi]), G3)[1]
    T_up = energy_mod.interface_energy_term(u_lo, u_hi, u_up, G)
    up_ok = bool((T_up <= 1e-15 * scale).all())
    closed = -0.5 * (u_hi - u_lo) ** 2 * np.abs(G)
    form_ok = bool((np.abs(T_up - closed) <= 1e-13 * scale).all())

    u_wrong = interface_velocities(np.stack([u_hi, u_lo]), G3)[1]
    T_wrong = energy_mod.interface_energy_term(u_lo, u_hi, u_wrong, G)
    witness = float(T_wrong.max())
    ok = up_ok and form_ok and witness > 1e-6
    return CriterionResult(10, "only the upwind interface velocity dissipates", ok,
                           f"upwind terms nonpositive={up_ok}, match closed "
                           f"form={form_ok}, anti-upwind witness={witness:.3f} (>0)")


# --- 11: the layered shear column converges in N to the continuous mode ----

def _mode_errors(N: int, lam: float, mu: float, k_l: float) -> tuple[float, float]:
    """Relative errors of the decay rate and of the L2 profile at t = 2 of
    the layer means of cos(lam (1 - z')), z' above the bed, which decays
    at rate mu lam^2 under u_t = mu u_zz with mu u_z = k_l u at the bed."""
    z = np.arange(N + 1) / N
    mode = np.diff(-np.sin(lam * (1.0 - z))) * N / lam  # layer means
    frames = run(_shear_column(0.3 * mode, mu, 2.0, 0.5, k_l)).snapshots
    (t1, d1, _), (t2, d2, _) = frames[1], frames[-1]
    amp1, amp2 = (float(d.u[:, 0] @ mode / (mode @ mode)) for d in (d1, d2))
    rate = np.log(amp1 / amp2) / (t2 - t1)
    exact = 0.3 * mode * np.exp(-mu * lam * lam * t2)
    profile = np.linalg.norm(d2.u[:, 0] - exact) / np.linalg.norm(exact)
    return abs(rate / (mu * lam * lam) - 1.0), float(profile)


def criterion_11() -> CriterionResult:
    t0 = time.perf_counter()
    mu, Ns = 0.01, (4, 8, 16, 32)
    ok, parts = True, []
    # lam tan(lam) = k_l / mu on a depth of 1: the slowest decaying mode
    # without friction (lam = pi), and the slowest mode for k_l = mu lam tan(lam)
    for lam, k_l in ((np.pi, 0.0), (0.86, mu * 0.86 * float(np.tan(0.86)))):
        rate, profile = np.array([_mode_errors(N, lam, mu, k_l) for N in Ns]).T
        orders = np.log2(rate[-2] / rate[-1]), np.log2(profile[-2] / profile[-1])
        ok = ok and min(orders) >= 1.8
        parts.append(f"k_l={k_l:.3g}: rate error {rate[0]:.1e} -> {rate[-1]:.1e} "
                     f"(order {orders[0]:.2f}), profile error {profile[0]:.1e} -> "
                     f"{profile[-1]:.1e} (order {orders[1]:.2f})")
    wall = time.perf_counter() - t0
    ok = ok and wall < 10.0
    return CriterionResult(11, "the shear column converges in N to the exact mode", ok,
                           "; ".join(parts) + f" for N=4..32, orders from N=16 to 32 "
                           f"(>=1.8), wall={wall:.1f}s (<10s)")


ALL_CRITERIA: list[tuple[int, Callable[[], CriterionResult]]] = [
    (1, criterion_1), (2, criterion_2), (3, criterion_3), (4, criterion_4),
    (5, criterion_5), (6, criterion_6), (7, criterion_7), (8, criterion_8),
    (9, criterion_9), (10, criterion_10), (11, criterion_11),
]


def run_acceptance(ids: Optional[list[int]] = None) -> list[CriterionResult]:
    wanted = set(ids) if ids else None
    results = []
    for cid, fn in ALL_CRITERIA:
        if wanted is None or cid in wanted:
            results.append(fn())
    return results
