"""Adaptive stepping, stage clipping and the audited run loop."""
import gc
import types

import numpy as np
import pytest

from layerflow.errors import ConfigError, SolverAbort
from layerflow.euler import euler_rhs, wet_window
from layerflow.geometry import (InterfaceGeometry, LayerPartition,
                                build_geometry, make_bathymetry)
from layerflow.gridops import Grid, ddx
from layerflow.rheology import FrictionLaw, RheologyModel
from layerflow.scenario import (BathymetrySpec, ControlsSpec, InitSpec,
                                LayersSpec, MeshSpec, OutputSpec, PhysicsSpec,
                                Scenario, parse_scenario)
from layerflow.state import H_DRY, LayerState, max_wave_speed, velocities
from layerflow import cli, output, rheology, timeloop
from layerflow.timeloop import (RhsEval, SimContext, make_context, make_rhs,
                                next_snapshot_time, run, stable_dt, step)


def _ctx(n=10, dx=0.5, g=1.0, mu=0.0, k_l=0.0, k_t=0.0, N=2,
         cfl=0.5):
    grid = Grid(0.0, n * dx, n)
    part = LayerPartition.uniform(N)
    bathy = make_bathymetry(np.zeros(n), dx, "periodic")
    return SimContext(grid=grid, part=part, bathy=bathy, g=g,
                      model=RheologyModel(mu=mu),
                      friction=FrictionLaw(k_l=k_l, k_t=k_t),
                      controls=ControlsSpec(t_end=1.0, cfl=cfl))


def _geom(ctx, H):
    return build_geometry(H, ctx.bathy, ctx.part)


def test_stable_dt_advective_bound():
    ctx = _ctx(g=1.0, cfl=0.5)
    H = np.ones(10)
    u = np.zeros((2, 10))
    dt = stable_dt(H, u, _geom(ctx, H), ctx)
    assert np.isclose(dt, 0.5 * ctx.dx / 1.0)


def test_stable_dt_vertical_viscous_bound():
    # large dx keeps the horizontal bounds out of the way; the bed gap
    # h/2 = 0.25 then sets dt = 0.25 gap^2 / mu
    ctx = _ctx(dx=50.0, g=1e-6, mu=2.0, N=2)
    H = np.ones(10)
    u = np.zeros((2, 10))
    dt = stable_dt(H, u, _geom(ctx, H), ctx)
    assert np.isclose(dt, 0.5 * 0.25**2 / 4.0)


def test_stable_dt_friction_bound():
    ctx = _ctx(dx=50.0, g=1e-6, k_l=100.0, N=2)
    H = np.ones(10)
    u = np.ones((2, 10))
    dt = stable_dt(H, u, _geom(ctx, H), ctx)
    # h_1 = 0.5, cos = 1, kappa = 100
    assert np.isclose(dt, 0.5 * 0.5 / 100.0)


def test_stable_dt_survives_a_dry_domain():
    ctx = _ctx()
    H = np.zeros(10)
    u = np.zeros((2, 10))
    dt = stable_dt(H, u, _geom(ctx, H), ctx)
    assert np.isfinite(dt) and dt > 0.0


def _decay_rhs(state):
    return RhsEval(dH=-state.H, dq=-state.q)


def test_make_context_validates_the_scenario():
    scn = Scenario(mesh=MeshSpec(0.0, 1.0, 10),
                   init=InitSpec(kind="lake_at_rest", eta0=1.0),
                   physics=PhysicsSpec(g=9.81),
                   controls=ControlsSpec(cfl=1.5))
    with pytest.raises(ConfigError) as err:
        make_context(scn)
    assert any(p.startswith("controls.cfl:") for p in err.value.problems)


def test_step_forward_euler_and_rk2_on_linear_decay():
    H = np.full(5, 2.0)
    q = np.full((1, 5), 1.0)
    dt = 0.125
    fe = step(LayerState(H.copy(), q.copy()), dt, _decay_rhs, "forward-euler")
    assert np.allclose(fe.H, 2.0 * (1.0 - dt), rtol=0, atol=0)
    rk = step(LayerState(H.copy(), q.copy()), dt, _decay_rhs, "ssp-rk2")
    factor = 1.0 - dt + 0.5 * dt * dt
    assert np.allclose(rk.H, 2.0 * factor, rtol=1e-15)
    assert np.allclose(rk.q, 1.0 * factor, rtol=1e-15)


def test_step_clips_roundoff_negatives():
    H = np.array([1e-14, 1.0])
    q = np.array([[0.5, 0.5]])

    def rhs(state):
        return RhsEval(dH=np.array([-2e-2, 0.0]), dq=np.zeros((1, 2)))

    out = step(LayerState(H, q), 1e-12, rhs, "forward-euler")
    assert out.H[0] == 0.0
    assert out.q[0, 0] == 0.0
    assert out.H[1] == 1.0


def test_step_aborts_on_real_negatives_with_cell_context():
    H = np.array([1.0, 1.0, 0.5])
    q = np.zeros((1, 3))

    def rhs(state):
        return RhsEval(dH=np.array([0.0, 0.0, -10.0]), dq=np.zeros((1, 3)))

    with pytest.raises(SolverAbort) as err:
        step(LayerState(H, q), 0.1, rhs, "forward-euler", step_no=7, t=0.25)
    msg = str(err.value)
    assert "cell 2" in msg and "step 7" in msg


def test_step_aborts_on_nonfinite_updates():
    H = np.ones(3)
    q = np.zeros((1, 3))

    def rhs(state):
        return RhsEval(dH=np.array([0.0, np.nan, 0.0]), dq=np.zeros((1, 3)))

    with pytest.raises(SolverAbort):
        step(LayerState(H, q), 0.1, rhs, "forward-euler")


def _smooth_scenario(**over):
    base = dict(
        mesh=MeshSpec(0.0, 1.0, 48),
        boundary="periodic",
        layers=LayersSpec(n=2),
        init=InitSpec(kind="dam_break", eta_l=1.0, eta_r=0.8, x0=0.5),
        physics=PhysicsSpec(g=9.81),
        controls=ControlsSpec(t_end=0.1),
        output=OutputSpec(snapshot_every=0.025),
    )
    base.update(over)
    return Scenario(**base)


def test_run_reaches_t_end_and_records_every_step():
    result = run(_smooth_scenario())
    assert abs(result.times[-1] - 0.1) < 1e-12
    assert (np.diff(result.times) > 0.0).all()
    assert result.times.size == result.summary["steps"] + 1
    assert result.E_total.size == result.times.size
    assert result.residuals.size == result.times.size - 1


def test_run_snapshot_cadence():
    result = run(_smooth_scenario())
    t_snaps = [s[0] for s in result.snapshots]
    assert t_snaps[0] == 0.0
    assert abs(t_snaps[-1] - 0.1) < 1e-12
    assert len(t_snaps) >= 4
    assert (np.diff(t_snaps) > 0.0).all()


def test_snapshot_times_are_multiples_of_the_cadence():
    assert next_snapshot_time(0.0, 0.025) == 0.025
    assert next_snapshot_time(0.0301, 0.025) == 2 * 0.025
    # a step that lands within the relative slack counts as on time
    assert next_snapshot_time(0.05 * (1.0 - 1e-13), 0.025) == 3 * 0.025
    assert next_snapshot_time(0.05, 0.025) == 3 * 0.025
    assert next_snapshot_time(7.3, 0.0) == np.inf


def test_snapshot_time_advances_for_a_cadence_below_resolution():
    # t + every == t here, so a running sum would never pass t
    t = 0.05
    assert t + 1e-300 == t
    nxt = next_snapshot_time(t, 1e-300)
    assert np.isfinite(nxt)
    # the very next step is at least one ulp later and takes a snapshot
    assert np.nextafter(t * (1.0 + 1e-12), np.inf) >= nxt * (1.0 - 1e-12)


def _record_geometry(monkeypatch):
    """(bed, geometry) of every timeloop.build_geometry call from now on."""
    built = []
    real = timeloop.build_geometry
    monkeypatch.setattr(timeloop, "build_geometry",
                        lambda *a: built.append((a[1], real(*a))) or built[-1][1])
    return built


def test_inviscid_tendencies_leave_geometry_to_accepted_states(monkeypatch):
    # make_rhs builds the dry bed's geometry once; count from there
    state, rhs, ctx = make_rhs(_smooth_scenario())
    built = _record_geometry(monkeypatch)
    r = rhs(state)
    assert built == []
    d = r.diag
    assert len(built) == 1
    assert r.diag is d and len(built) == 1
    assert (built[0][1].h.sum(axis=0) == state.H).all()


def _count_reconstruct_w(monkeypatch, module):
    calls = []
    real = module.reconstruct_w
    monkeypatch.setattr(module, "reconstruct_w",
                        lambda *a, **k: calls.append(real(*a, **k)) or calls[-1])
    return calls


def test_inviscid_audit_reconstructs_no_w(monkeypatch):
    # no audit term reads w without a stress field; snapshots rebuild it
    # once per frame
    in_closure = _count_reconstruct_w(monkeypatch, rheology)
    in_output = _count_reconstruct_w(monkeypatch, output)
    scn = _smooth_scenario(boundary="wall")
    state, rhs, ctx = make_rhs(scn)
    d = rhs(state).diag
    assert np.isfinite(d.influx)
    assert in_closure == []
    output.snapshot_frame(0.0, state.H, d, ctx)
    assert len(in_output) == 1
    run(scn)
    assert in_closure == []


def test_viscous_evaluation_reconstructs_w_once(monkeypatch):
    # the stress closure reconstructs w and the audit reads it from the
    # stress field; the snapshot, which keeps none, rebuilds the same w
    # bit for bit
    assert not hasattr(timeloop, "reconstruct_w")
    in_closure = _count_reconstruct_w(monkeypatch, rheology)
    in_output = _count_reconstruct_w(monkeypatch, output)
    scn = _smooth_scenario(boundary="wall",
                           physics=PhysicsSpec(g=9.81, mu=1e-3, k_l=0.01))
    state, rhs, ctx = make_rhs(scn)
    d = rhs(state).diag
    assert (len(in_closure), in_output) == (1, [])
    snap = output.snapshot_frame(0.0, state.H, d, ctx)
    assert (len(in_closure), len(in_output)) == (1, 1)
    w = in_closure[0][0]
    assert snap.w is not w and snap.w.tobytes() == w.tobytes()
    assert np.isfinite(d.influx)


def _record_slope_reads(monkeypatch):
    reads = []
    for name in ("dz_if_dx", "dz_mid_dx"):
        real = InterfaceGeometry.__dict__[name]
        monkeypatch.setattr(InterfaceGeometry, name, property(
            lambda self, name=name, real=real:
            reads.append(name) or real.__get__(self, InterfaceGeometry)))
    return reads


@pytest.mark.parametrize("bc", ["periodic", "wall", "transmissive"])
def test_inviscid_run_and_snapshots_compute_no_slope_fields(monkeypatch, bc):
    # only the stresses and the friction read interface or midpoint slopes
    reads = _record_slope_reads(monkeypatch)
    scn = _smooth_scenario(boundary=bc, bathymetry=BathymetrySpec(
        kind="bump", a=0.1, x0=0.3, width=0.1))
    result = run(scn)
    ctx = make_context(scn)
    for t, d, state in result.snapshots:
        output.snapshot_frame(t, state.H, d, ctx)
    assert len(result.snapshots) > 2 and reads == []


def test_viscous_evaluation_computes_each_slope_field_once(monkeypatch):
    reads = _record_slope_reads(monkeypatch)
    scn = _smooth_scenario(boundary="wall",
                           physics=PhysicsSpec(g=9.81, mu=1e-3, k_l=0.01))
    state, rhs, ctx = make_rhs(scn)
    built = _record_geometry(monkeypatch)
    rhs(state)
    ((_, geom),) = built
    assert set(reads) == {"dz_if_dx", "dz_mid_dx"}
    slope = geom.dz_if_dx
    assert geom.dz_if_dx is slope
    assert np.array_equal(slope, ddx(geom.z_if, ctx.dx, ctx.bathy.bc))


def test_run_is_deterministic():
    a = run(_smooth_scenario())
    b = run(_smooth_scenario())
    assert (a.final.H == b.final.H).all()
    assert (a.final.q == b.final.q).all()
    assert (a.E_total == b.E_total).all()


def test_run_honors_step_budget():
    with pytest.raises(SolverAbort):
        run(_smooth_scenario(), max_steps=3)


@pytest.mark.parametrize("integrator", ["forward-euler", "ssp-rk2"])
def test_run_keeps_the_states_it_took_unchanged(integrator):
    # the frames hold the loop's own states, which no later step mutates
    scn = _smooth_scenario(controls=ControlsSpec(t_end=0.1, integrator=integrator))
    state0, _, _ = make_rhs(scn)
    result = run(scn)
    first = result.snapshots[0][2]
    assert first.H.tobytes() == state0.H.tobytes()
    assert first.q.tobytes() == state0.q.tobytes()
    assert result.snapshots[-1][2] is result.final
    states = [s for _, _, s in result.snapshots]
    assert len({id(s.H) for s in states}) == len(states) > 2


def _arrays_reached(obj):
    """Every numpy array reachable from obj through attributes, containers
    and array bases."""
    found, todo, seen = [], [obj], set()
    while todo:
        o = todo.pop()
        if id(o) in seen or isinstance(o, (type, types.ModuleType, types.FunctionType)):
            continue
        seen.add(id(o))
        if isinstance(o, np.ndarray):
            found.append(o)
            todo.append(o.base)
        else:
            todo.extend(gc.get_referents(o))
    return found


@pytest.mark.parametrize("physics,eta_r", [(PhysicsSpec(g=9.81), 0.0),
                                           (PhysicsSpec(g=9.81, mu=1e-3, k_l=0.01), 0.8)],
                         ids=["inviscid", "viscous"])
def test_a_retained_frame_keeps_only_its_window_u_and_G(physics, eta_r):
    # geometry, layer energies and w follow from the depth and u, so a
    # frame keeps none of them; the inviscid run starts on a dry stretch
    scn = _smooth_scenario(boundary="wall", physics=physics,
                           init=InitSpec(kind="dam_break", eta_l=1.0, eta_r=eta_r, x0=0.5))
    result = run(scn)
    N, n = scn.layers.n, scn.mesh.n_cells
    windows = set()
    for _, d, _ in result.snapshots:
        a, b = d.window
        windows.add(b - a)
        assert d.u.shape == (N, b - a) and d.G.shape == (N + 1, b - a)
        reached = _arrays_reached(d)
        assert {id(x) for x in reached} == {id(d.u), id(d.G)}
        assert sum(x.nbytes for x in reached) == d.u.nbytes + d.G.nbytes
    assert (min(windows) < n) == (not physics.mu)


def test_the_windowed_audit_builds_its_geometry_on_the_window_bed(monkeypatch):
    built = _record_geometry(monkeypatch)
    scn = _smooth_scenario(boundary="wall", bathymetry=BathymetrySpec(
        kind="bump", a=0.1, x0=0.3, width=0.1),
        init=InitSpec(kind="dam_break", eta_l=1.0, eta_r=0.0, x0=0.5))
    state, rhs, ctx = make_rhs(scn)
    built.clear()
    r = rhs(state)
    r.diag
    (a, b), ((bed, geom),) = r.window, built
    assert b < ctx.grid.n_cells
    for name, stop in (("zb", b), ("cos", b),
                       ("zb_l", b + 1), ("zb_r", b + 1), ("z_edge", b + 1)):
        field = getattr(bed, name)
        assert field.shape == (stop - a,), name
        assert field.tobytes() == getattr(ctx.bathy, name)[a:stop].tobytes(), name
    assert geom.cos_b.tobytes() == ctx.bathy.cos[a:b].tobytes()
    assert (geom.z_if[0] == ctx.bathy.zb[a:b]).all()


@pytest.mark.parametrize("physics,eta_r", [(PhysicsSpec(g=9.81), 0.0),
                                           (PhysicsSpec(g=9.81, mu=1e-3, k_l=0.01), 0.8)],
                         ids=["inviscid", "viscous"])
def test_each_step_is_the_stable_step_of_the_state_it_starts_from(monkeypatch, physics, eta_r):
    # a frame per step: frame k holds the state step k starts from; the
    # inviscid run starts on a dry stretch
    taken = []
    real = timeloop.step
    monkeypatch.setattr(timeloop, "step", lambda state, dt, *a, **k:
                        taken.append((state, dt)) or real(state, dt, *a, **k))
    scn = _smooth_scenario(boundary="wall", physics=physics,
                           init=InitSpec(kind="dam_break", eta_l=1.0, eta_r=eta_r, x0=0.5),
                           output=OutputSpec(snapshot_every=1e-12))
    result = run(scn)
    ctx = result.ctx
    assert len(result.snapshots) == len(taken) + 1 == result.summary["steps"] + 1 > 2
    for k, ((t, d, state), (start, dt)) in enumerate(zip(result.snapshots, taken)):
        assert start is state
        a, b = d.window
        H = state.H[a:b]
        geom = build_geometry(H, ctx.bathy.cells(a, b), ctx.part)
        assert stable_dt(H, d.u, geom, ctx) == d.dt
        if k + 1 < len(taken):
            assert dt == d.dt, k
        else:  # clamped to t_end
            assert dt == scn.controls.t_end - t and dt <= d.dt
    widths = [d.window[1] - d.window[0] for _, d, _ in result.snapshots]
    assert (min(widths) < scn.mesh.n_cells) == (not physics.mu)


def test_rk2_is_second_order_in_time():
    # freeze the spatial operator and halve a fixed dt repeatedly
    scn = _smooth_scenario(
        init=InitSpec(kind="table",
                      H_values=tuple(1.0 + 0.1 * np.sin(
                          2 * np.pi * (np.arange(48) + 0.5) / 48)),
                      u_values=tuple(np.tile(np.full(48, 0.3), 2))))
    state0, rhs, ctx = make_rhs(scn)

    def advance(dt, steps):
        s = state0
        for k in range(steps):
            s = step(s, dt, rhs, "ssp-rk2")
        return s

    T = 0.04
    sols = [advance(T / m, m) for m in (8, 16, 32)]
    e1 = np.abs(sols[0].H - sols[1].H).max()
    e2 = np.abs(sols[1].H - sols[2].H).max()
    order = np.log2(e1 / e2)
    assert order > 1.6


def _clip_whole_domain(state, neg_tol):
    """The stage clip over every cell, for states that pass it."""
    H, q = state.H, state.q
    assert np.isfinite(H).all() and np.isfinite(q).all() and H.min() >= -neg_tol
    if H.min() < 0.0:
        np.maximum(H, 0.0, out=H)
    dry = H <= H_DRY
    if dry.any():
        q[:, dry] = 0.0
    return state


def _step_whole_domain(state, dt, rhs, integrator, neg_tol):
    """The step over every cell, before the wet window.

    Kept as the oracle that the windowed step must match bit for bit,
    signed zeros included; `rhs` returns tendencies of every cell.
    """
    r1 = rhs(state)
    s1 = _clip_whole_domain(LayerState(state.H + dt * r1.dH, state.q + dt * r1.dq), neg_tol)
    if integrator == "forward-euler":
        return s1
    r2 = rhs(s1)
    return _clip_whole_domain(LayerState(0.5 * (state.H + s1.H + dt * r2.dH),
                                         0.5 * (state.q + s1.q + dt * r2.dq)), neg_tol)


def _assert_same_state(a, b):
    assert a.H.tobytes() == b.H.tobytes()
    assert a.q.tobytes() == b.q.tobytes()


def _recording(rhs, windows):
    def recorded(state):
        r = rhs(state)
        windows.append(r.window)
        return r
    return recorded


STEP_N = 40


def _stretch_state(rng, N, bc):
    """Water on a random stretch (across the seam if periodic) with dry
    gaps and films, moving either way; +0.0 on bare cells."""
    start, length = rng.integers(0, STEP_N), rng.integers(3, STEP_N // 2)
    cells = np.arange(start, start + length)
    cells = cells % STEP_N if bc == "periodic" else cells[cells < STEP_N]
    H = np.zeros(STEP_N)
    H[cells] = rng.uniform(0.05, 1.0, cells.size)
    H[cells[rng.random(cells.size) < 0.15]] = 0.0
    H[cells[rng.random(cells.size) < 0.1]] = 0.5 * H_DRY
    part = LayerPartition.uniform(N)
    q = part.fractions[:, None] * H * rng.uniform(-1.0, 1.0, (N, STEP_N))
    q[:, H <= H_DRY] = 0.0
    return H, q


@pytest.mark.parametrize("integrator", ["forward-euler", "ssp-rk2"])
@pytest.mark.parametrize("N", [1, 3, 12])
@pytest.mark.parametrize("bc", ["wall", "transmissive", "periodic"])
def test_windowed_step_matches_the_whole_domain_bitwise(bc, N, integrator):
    rng = np.random.default_rng([N, len(bc), len(integrator)])
    zb = 0.1 * rng.standard_normal(STEP_N)
    scn = Scenario(mesh=MeshSpec(0.0, 1.0, STEP_N), boundary=bc, layers=LayersSpec(n=N),
                   bathymetry=BathymetrySpec(kind="table", values=tuple(zb)),
                   init=InitSpec(kind="lake_at_rest"), physics=PhysicsSpec(g=9.81))
    _, rhs, ctx = make_rhs(scn)

    def whole_rhs(state):
        ev = euler_rhs(state.H, state.q, ctx.bathy, ctx.part, ctx.g)
        return RhsEval(ev.dH, ev.dq)

    grew = 0
    for trial in range(20):
        H, q = _stretch_state(rng, N, bc)
        state = LayerState(H, q)
        speed = max_wave_speed(H, velocities(H, q, ctx.part), ctx.g)
        dt = 0.45 * ctx.dx / speed if speed > 0.0 else 1e-3
        windows = []
        got = step(state, dt, _recording(rhs, windows), integrator)
        _assert_same_state(state, LayerState(H, q))  # the input is left as it was
        assert windows[0] != (0, STEP_N) or bc == "periodic"
        want = _step_whole_domain(state.copy(), dt, whole_rhs, integrator, 1e-10)
        _assert_same_state(got, want)
        if len(windows) == 2:
            (a, b), (c, d) = windows
            grew += c < a or d > b
    assert integrator == "forward-euler" or grew > 0


def _fixed_rhs(dH, dq, windowed):
    """The tendencies dH, dq on a state's wet window and a dry bed's
    elsewhere: on the window's cells, or on every cell."""
    n = dH.size

    def rhs(state):
        a, b = wet_window(state.H, state.q, "wall")
        if windowed:
            return RhsEval(dH[a:b].copy(), dq[:, a:b].copy(), (a, b))
        full_H, full_q = np.full(n, -0.0), np.zeros_like(dq)
        full_H[a:b], full_q[:, a:b] = dH[a:b], dq[:, a:b]
        return RhsEval(full_H, full_q)
    return rhs


@pytest.mark.parametrize("change", ["shrink", "grow"])
def test_rk2_combination_covers_both_stage_windows(change):
    rng = np.random.default_rng(11)
    n, N, dt = 30, 3, 0.01
    H = np.zeros(n)
    H[10:20] = rng.uniform(0.5, 1.0, 10)
    q = np.zeros((N, n))
    q[:, 10:20] = 0.1 * rng.standard_normal((N, 10))
    dH = 0.1 * rng.standard_normal(n)
    dq = 0.1 * rng.standard_normal((N, n))
    dH[[9, 20, 21]] = 0.0
    dq[:, [9, 20, 21]] = 0.0
    if change == "shrink":
        # stage 1 takes the last two wet cells a round-off below zero,
        # and the clip dries them
        dH[18:20] = -(H[18:20] + 1e-12) / dt
        changed, windows_want, cell = "shrink", [(9, 21), (9, 19)], 19
    else:
        # stage 1 wets the cell past the water, stage 2 the one beyond
        dH[20:22], dq[:, 20:22] = 0.5, 0.2
        changed, windows_want, cell = "grow", [(9, 21), (9, 22)], 21
    windows = []
    got = step(LayerState(H, q), dt, _recording(_fixed_rhs(dH, dq, True), windows), "ssp-rk2")
    want = _step_whole_domain(LayerState(H, q), dt, _fixed_rhs(dH, dq, False), "ssp-rk2", 1e-10)
    assert windows == windows_want, changed
    _assert_same_state(got, want)
    assert got.H[cell] > 0.0  # a cell outside one of the two windows


@pytest.mark.parametrize("integrator", ["forward-euler", "ssp-rk2"])
@pytest.mark.parametrize("bad", [np.nan, -20.0])
def test_step_names_the_domain_cell_of_a_failed_update_in_a_window(bad, integrator):
    H = np.zeros(30)
    H[10:20] = 1.0
    q = np.zeros((2, 30))

    def rhs(state):
        a, b = wet_window(state.H, state.q, "wall")
        dH = np.zeros(b - a)
        dH[13 - a] = bad
        return RhsEval(dH, np.zeros((2, b - a)), (a, b))

    with pytest.raises(SolverAbort) as err:
        step(LayerState(H, q), 0.1, rhs, integrator, step_no=7, t=0.25)
    assert err.value.cell == 13 and err.value.step == 7
    assert "cell 13" in str(err.value)


# the seed-0 configs of the dam_bump_wall and viscous_shear benchmark workloads
DAM_BUMP_WALL = """mesh.x_min = 0
mesh.x_max = 1
mesh.n_cells = 800
boundary.kind = wall
layers.n = 3
bathymetry.kind = bump
bathymetry.a = 0.1
bathymetry.x0 = 0.3
bathymetry.width = 0.05
init.kind = dam_break
init.eta_l = 1.0
init.eta_r = 0.5
init.x0 = 0.5
physics.g = 9.81
controls.t_end = 0.12
controls.integrator = ssp-rk2
output.snapshot_every = 0.006
"""

VISCOUS_SHEAR = """mesh.x_min = 0
mesh.x_max = 1
mesh.n_cells = 100
boundary.kind = periodic
layers.n = 8
bathymetry.kind = flat
bathymetry.z0 = -0.5
init.kind = shear
init.eta0 = 0.5
init.u = 0.0, 0.05, 0.1, 0.15000000000000002, 0.2, 0.25, 0.30000000000000004, 0.35000000000000003
physics.g = 9.81
physics.mu = 1e-3
physics.k_l = 0.01
physics.k_t = 0.01
controls.t_end = 0.012
controls.integrator = ssp-rk2
output.snapshot_every = 0
"""


def test_a_run_over_the_step_budget_aborts_before_its_first_step(tmp_path, capsys, monkeypatch):
    # dt0 is about 2e-13 here: 6e10 steps, hours of work before the
    # 10M-step budget would run out
    def no_step(*args, **kwargs):
        raise AssertionError("the run took a step")
    monkeypatch.setattr(timeloop, "step", no_step)
    cfg = tmp_path / "case.cfg"
    cfg.write_text(VISCOUS_SHEAR.replace("physics.mu = 1e-3", "physics.mu = 1e5"))
    assert cli.main(["run", str(cfg), "--output", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert "dt0=" in err and "budget of 10000000" in err and "(step 0, t=0)" in err


def test_a_step_clamped_to_t_end_is_not_a_collapse():
    # the stable step is about 2e-4, far above the collapse floor
    result = run(parse_scenario(DAM_BUMP_WALL.replace("t_end = 0.12", "t_end = 5e-14")))
    assert result.summary["steps"] == 1 and result.times[-1] == 5e-14


def test_a_stable_step_below_the_floor_collapses():
    # g = 1e20 gives a stable step of 6.25e-14
    with pytest.raises(SolverAbort, match="time step collapsed") as err:
        run(parse_scenario(DAM_BUMP_WALL.replace("physics.g = 9.81", "physics.g = 1e20")))
    assert err.value.step == 0
