"""Adaptive stepping, stage clipping and the audited run loop."""
import ast
import gc
import itertools
import re
import types
import warnings
import weakref
from pathlib import Path

import numpy as np
import pytest

from layerflow.errors import ConfigError, SolverAbort
from layerflow.euler import euler_rhs, wet_window
from layerflow.geometry import (InterfaceGeometry, LayerPartition, build_geometry,
                                layer_thicknesses)
from layerflow.gridops import ddx
from layerflow.scenario import (BathymetrySpec, ControlsSpec, InitSpec,
                                LayersSpec, MeshSpec, OutputSpec, PhysicsSpec,
                                Scenario, parse_scenario)
from layerflow.state import H_DRY, LayerState, velocities
from layerflow import cli, output, rheology, timeloop
from layerflow.timeloop import (RhsEval, make_context, make_rhs,
                                next_snapshot_time, run, stable_dt, step)


def _ctx(n=10, dx=0.5, g=1.0, mu=0.0, k_l=0.0, k_t=0.0, N=2,
         cfl=0.5):
    # a flat periodic lake, whose checked scenario is the kernels' context
    return Scenario(mesh=MeshSpec(0.0, n * dx, n), layers=LayersSpec(n=N),
                    init=InitSpec(kind="lake_at_rest", eta0=1.0),
                    physics=PhysicsSpec(g=g, mu=mu, k_l=k_l, k_t=k_t),
                    controls=ControlsSpec(t_end=1.0, cfl=cfl))


def _geom(ctx, H):
    return build_geometry(H, ctx.bed, ctx.partition)


def test_stable_dt_advective_bound():
    # viscosity and friction bound nothing: the viscous stage is implicit
    for ctx in (_ctx(g=1.0, cfl=0.5), _ctx(g=1.0, cfl=0.5, mu=2.0, k_l=100.0, k_t=1.0)):
        H = np.ones(10)
        u = np.zeros((2, 10))
        dt = stable_dt(H, u, _geom(ctx, H), ctx)
        assert np.isclose(dt, 0.5 * ctx.dx / 1.0)


def test_stable_dt_survives_a_dry_domain():
    ctx = _ctx()
    H = np.zeros(10)
    u = np.zeros((2, 10))
    dt = stable_dt(H, u, _geom(ctx, H), ctx)
    assert np.isfinite(dt) and dt > 0.0


def _max_wave_speed(H, u, g):
    """The fastest |u_a| + sqrt(g H) over the wet columns, 0 when all are
    dry: the formula that stable_dt evaluates, kept as its reference."""
    wet = H > H_DRY
    if not np.any(wet):
        return 0.0
    speed = np.abs(u).max(axis=0) + np.sqrt(g * np.maximum(H, 0.0))
    return float(speed[wet].max())


def test_stable_dt_is_the_step_of_the_fastest_wet_wave_bitwise():
    # windows with films (0 < H <= H_DRY), which bound nothing whatever
    # their velocity, exactly dry cells, and no wet cell at all
    rng = np.random.default_rng(31)
    seen = set()  # (a wet cell, a film) per window
    for trial in range(60):
        m = int(rng.integers(3, 30))
        ctx = _ctx(n=m, g=9.81, cfl=0.8)
        H = rng.uniform(0.0, 2.0, m)
        kind = rng.integers(0, 4, m) if trial % 10 else np.zeros(m, dtype=int)
        H[kind == 0] = 0.0
        H[kind == 1] = rng.uniform(0.0, H_DRY, m)[kind == 1]
        H[kind == 2] = H_DRY
        u = 3.0 * rng.standard_normal((2, m))
        dt = stable_dt(H, u, _geom(ctx, H), ctx)
        speed = _max_wave_speed(H, u, ctx.g) if (H > H_DRY).any() else np.sqrt(ctx.g * H_DRY)
        assert dt == ctx.controls.cfl * ctx.dx / speed, trial
        seen.add(((H > H_DRY).any(), ((H > 0.0) & (H <= H_DRY)).any()))
    assert (True, True) in seen and (False, False) in seen


def test_a_fully_wet_window_takes_the_masked_velocities_and_wave_step_bitwise():
    # with every column wet, velocities divides without a mask and stable_dt
    # maximizes without a boolean index; both must agree with the masked
    # formulas, down to windows of one cell and depths just above H_DRY
    rng = np.random.default_rng(37)
    for trial in range(40):
        m, N = int(rng.integers(1, 30)), int(rng.integers(1, 6))
        ctx = _ctx(g=9.81, N=N, cfl=0.9)  # its g, dx and CFL; stable_dt reads no geometry
        H = rng.uniform(0.0, 2.0, m) + 2.0 * H_DRY
        if trial % 4 == 0:
            H[rng.integers(0, m)] = np.nextafter(H_DRY, 1.0)
        q = rng.standard_normal((N, m))
        h = layer_thicknesses(H, ctx.partition)
        u = velocities(H, q, ctx.partition)
        assert u.tobytes() == np.divide(q, h, out=np.zeros_like(q), where=H > H_DRY).tobytes()
        dt = stable_dt(H, u, None, ctx)
        ref = ctx.controls.cfl * ctx.dx / _max_wave_speed(H, u, ctx.g)
        assert np.float64(dt).tobytes() == np.float64(ref).tobytes(), trial


def test_stable_dt_of_a_dry_window_is_unbounded_where_its_wave_speed_underflows():
    # sqrt(g H_DRY) rounds to 0 for a subnormal g: no wave, no bound, no warning
    ctx = _ctx(g=5e-324)
    H = np.zeros(10)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert stable_dt(H, np.zeros((2, 10)), _geom(ctx, H), ctx) == np.inf


def test_stable_dt_of_an_underflowing_step_is_zero():
    # cfl dx / speed rounds to 0; run's collapse check, which names the
    # step and the time, aborts on it
    ctx = _ctx(dx=1e-300)
    H = np.ones(10)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert stable_dt(H, np.full((2, 10), 1e300), _geom(ctx, H), ctx) == 0.0


@pytest.mark.parametrize("key, kappa", [("k_l", 5e-324), ("k_t", 1e-310)])
def test_a_subnormal_friction_coefficient_bounds_nothing(key, kappa):
    # the squared norm of the viscous stage's right-hand side rounds to zero,
    # so the stage leaves the discharges as they were, without a warning
    twin = run(_smooth_scenario())
    result = run(_smooth_scenario(physics=PhysicsSpec(g=9.81, **{key: kappa})))
    assert result.summary["steps"] == twin.summary["steps"]
    assert np.array_equal(result.times, twin.times)


def _decay_rhs(state):
    return RhsEval(dH=-state.H, dq=-state.q, window=(0, state.H.size))


def test_make_context_validates_the_scenario():
    scn = Scenario(mesh=MeshSpec(0.0, 1.0, 10),
                   init=InitSpec(kind="lake_at_rest", eta0=1.0),
                   physics=PhysicsSpec(g=9.81),
                   controls=ControlsSpec(cfl=1.5))
    with pytest.raises(ConfigError) as err:
        make_context(scn)
    assert any(p.startswith("controls.cfl:") for p in err.value.problems)


def test_make_context_holds_the_scenarios_own_specs():
    # the checked scenario is the context: make_context and make_rhs hand it back
    scn = _smooth_scenario(physics=PhysicsSpec(g=9.81, mu=1e-3, k_l=0.01))
    assert make_context(scn) is scn
    assert make_rhs(scn)[2] is scn
    assert (scn.dx, scn.g, scn.h_dry) == (scn.mesh.dx, scn.physics.g, H_DRY)
    assert scn.bed is scn.built[0] and scn.bed.dx == scn.dx


def test_step_forward_euler_and_rk2_on_linear_decay():
    H = np.full(5, 2.0)
    q = np.full((1, 5), 1.0)
    dt = 0.125
    state = LayerState(H, q)  # step leaves its input as it was
    fe = step(state, dt, _decay_rhs(state), _decay_rhs, "forward-euler")
    assert np.allclose(fe.H, 2.0 * (1.0 - dt), rtol=0, atol=0)
    rk = step(state, dt, _decay_rhs(state), _decay_rhs, "ssp-rk2")
    factor = 1.0 - dt + 0.5 * dt * dt
    assert np.allclose(rk.H, 2.0 * factor, rtol=1e-15)
    assert np.allclose(rk.q, 1.0 * factor, rtol=1e-15)


def test_step_clips_roundoff_negatives():
    H = np.array([1e-14, 1.0])
    q = np.array([[0.5, 0.5]])

    def rhs(state):
        return RhsEval(dH=np.array([-2e-2, 0.0]), dq=np.zeros((1, 2)), window=(0, 2))

    state = LayerState(H, q)
    out = step(state, 1e-12, rhs(state), rhs, "forward-euler")
    assert out.H[0] == 0.0
    assert out.q[0, 0] == 0.0
    assert out.H[1] == 1.0


def test_the_clip_tolerance_scales_with_the_deepest_cell():
    # beside a column 1e4 deep, -5e-8 is round-off: the clip, which owns
    # its tolerance, snaps it to 0 and drops the cell's momentum; an
    # absolute 1e-10 would abort here
    H = np.array([1e4, 1e-8])
    q = np.array([[1.0, 1e-9], [2.0, -1e-9]])

    def rhs(state):
        return RhsEval(dH=np.array([0.0, -6e-8]), dq=np.zeros((2, 2)), window=(0, 2))

    assert 1e-8 - 6e-8 < -1e-10  # the update leaves -5e-8 in the second cell
    state = LayerState(H, q)
    out = step(state, 1.0, rhs(state), rhs, "forward-euler")
    assert out.H.tolist() == [1e4, 0.0] and not np.signbit(out.H[1])
    assert out.q.tolist() == [[1.0, 0.0], [2.0, 0.0]]


def test_step_aborts_on_real_negatives_with_cell_context():
    H = np.array([1.0, 1.0, 0.5])
    q = np.zeros((1, 3))

    def rhs(state):
        return RhsEval(dH=np.array([0.0, 0.0, -10.0]), dq=np.zeros((1, 3)), window=(0, 3))

    state = LayerState(H, q)
    with pytest.raises(SolverAbort) as err:
        step(state, 0.1, rhs(state), rhs, "forward-euler")
    # the kernel names the cell; the stepping loop alone adds step and time
    assert err.value.cell == 2 and err.value.step is None and err.value.time is None
    assert str(err.value).endswith(" (cell 2)")


def test_step_aborts_on_nonfinite_updates():
    H = np.ones(3)
    q = np.zeros((1, 3))

    def rhs(state):
        return RhsEval(dH=np.array([0.0, np.nan, 0.0]), dq=np.zeros((1, 3)), window=(0, 3))

    state = LayerState(H, q)
    with pytest.raises(SolverAbort):
        step(state, 0.1, rhs(state), rhs, "forward-euler")


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


def test_an_evaluation_and_its_audit_build_no_geometry(monkeypatch):
    # the audit reads the energy and the influx from (H, q, z_b) alone
    state, rhs, ctx = make_rhs(_smooth_scenario(boundary="transmissive"))
    built = _record_geometry(monkeypatch)
    d = rhs(state).diagnose()
    assert np.isfinite(d.energy) and np.isfinite(d.influx) and built == []


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
    d = rhs(state).diagnose()
    assert np.isfinite(d.influx)
    assert in_closure == []
    output.snapshot_frame(0.0, state.H, d, ctx)
    assert len(in_output) == 1
    run(scn)
    assert in_closure == []


def _moving_viscous_scenario():
    return _smooth_scenario(boundary="wall", physics=PhysicsSpec(g=9.81, mu=1e-3, k_l=0.01),
                            init=InitSpec(kind="dam_break", eta_l=1.0, eta_r=0.8, x0=0.5,
                                          u=(0.1, 0.3)))


def test_viscous_evaluation_reconstructs_w_once(monkeypatch):
    # the transport and the audit reconstruct no w; the viscous stage
    # reconstructs it once per application of its operator, in the stress
    # closure, and the snapshot of the stage's starting state rebuilds the
    # first application's w bit for bit
    assert not hasattr(timeloop, "reconstruct_w")
    in_closure = _count_reconstruct_w(monkeypatch, rheology)
    in_output = _count_reconstruct_w(monkeypatch, output)
    state, rhs, ctx = make_rhs(_moving_viscous_scenario())
    d = rhs(state).diagnose()
    assert np.isfinite(d.influx) and (in_closure, in_output) == ([], [])
    closures = []
    real = timeloop.stress_closure
    monkeypatch.setattr(timeloop, "stress_closure",
                        lambda *a: closures.append(a) or real(*a))
    timeloop.viscous_stage(state.copy(), d.dt, ctx)
    assert len(in_closure) == len(closures) >= 2 and in_output == []
    _, table = output.snapshot_frame(0.0, state.H, d, ctx)
    assert (len(in_closure), len(in_output)) == (len(closures), 1)
    w = in_closure[0][0]
    names = output.snapshot_header(w.shape[0])
    assert table[names.index("w_1"):names.index("w_1") + w.shape[0]].tobytes() == w.tobytes()


def _record_slope_reads(monkeypatch):
    # the fields a geometry builds on first access
    reads = []
    for name in ("h_half", "dz_if_dx", "dz_mid_dx"):
        real = InterfaceGeometry.__dict__[name]
        monkeypatch.setattr(InterfaceGeometry, name, property(
            lambda self, name=name, real=real:
            reads.append(name) or real.__get__(self, InterfaceGeometry)))
    return reads


@pytest.mark.parametrize("bc", ["periodic", "wall", "transmissive"])
def test_inviscid_run_and_snapshots_compute_no_slope_fields(monkeypatch, bc):
    # only the stresses read interface or midpoint slopes or midpoint gaps
    reads = _record_slope_reads(monkeypatch)
    scn = _smooth_scenario(boundary=bc, bathymetry=BathymetrySpec(
        kind="bump", a=0.1, x0=0.3, width=0.1))
    result = run(scn)
    ctx = make_context(scn)
    for t, d, state in result.snapshots:
        output.snapshot_frame(t, state.H, d, ctx)
    assert len(result.snapshots) > 2 and reads == []


def test_viscous_evaluation_computes_each_slope_field_once(monkeypatch):
    # the stage builds one geometry, whose slope fields every application
    # of its operator reads, each computed once; the audit of the state it
    # leaves builds none and reads no slope field
    reads = _record_slope_reads(monkeypatch)
    state, rhs, ctx = make_rhs(_moving_viscous_scenario())
    dt = rhs(state).diagnose().dt
    built = _record_geometry(monkeypatch)
    assert reads == []
    timeloop.viscous_stage(state, dt, ctx)
    ((_, geom),) = built
    assert set(reads) == {"h_half", "dz_if_dx", "dz_mid_dx"}
    assert all(name in vars(geom) for name in ("h_half", "dz_if_dx", "dz_mid_dx"))
    slope = geom.dz_if_dx
    assert geom.dz_if_dx is slope
    assert np.array_equal(slope, ddx(geom.z_if, ctx.dx, ctx.bed.bc))
    reads.clear()
    rhs(state).diagnose()
    assert len(built) == 1 and reads == []


def test_run_is_deterministic():
    a = run(_smooth_scenario())
    b = run(_smooth_scenario())
    assert (a.final.H == b.final.H).all()
    assert (a.final.q == b.final.q).all()
    assert (a.E_total == b.E_total).all()


def test_run_honors_step_budget(monkeypatch):
    monkeypatch.setattr(timeloop, "MAX_STEPS", 3)
    with pytest.raises(SolverAbort):
        run(_smooth_scenario())


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


def test_the_windowed_evaluation_hands_euler_rhs_the_window_bed(monkeypatch):
    beds = []
    real = timeloop.euler_rhs
    monkeypatch.setattr(timeloop, "euler_rhs",
                        lambda H, q, bed, *a, **k: beds.append(bed) or real(H, q, bed, *a, **k))
    scn = _smooth_scenario(boundary="wall", bathymetry=BathymetrySpec(
        kind="bump", a=0.1, x0=0.3, width=0.1),
        init=InitSpec(kind="dam_break", eta_l=1.0, eta_r=0.0, x0=0.5))
    state, rhs, ctx = make_rhs(scn)
    r = rhs(state)
    r.diagnose()
    (a, b), (bed,) = r.window, beds
    assert b < ctx.mesh.n_cells
    for name in ("zb", "cos3"):
        field = getattr(bed, name)
        assert field.shape == (b - a,), name
        assert field.tobytes() == getattr(ctx.bed, name)[a:b].tobytes(), name


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
    assert len(result.snapshots) == len(taken) + 1 == result.summary["steps"] + 1 > 2
    for k, ((t, d, state), (start, dt)) in enumerate(zip(result.snapshots, taken)):
        assert start is state
        a, b = d.window
        assert stable_dt(state.H[a:b], d.u, None, scn) == d.dt
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
            s = step(s, dt, rhs(s), rhs, "ssp-rk2")
        return s

    T = 0.04
    sols = [advance(T / m, m) for m in (8, 16, 32)]
    e1 = np.abs(sols[0].H - sols[1].H).max()
    e2 = np.abs(sols[1].H - sols[2].H).max()
    order = np.log2(e1 / e2)
    assert order > 1.6


def _clip_whole_domain(state):
    """The stage clip over every cell, for states that pass it."""
    H, q = state.H, state.q
    assert np.isfinite(H).all() and np.isfinite(q).all()
    assert H.min() >= -1e-10 * max(1.0, H.max())
    if H.min() < 0.0:
        np.maximum(H, 0.0, out=H)
    dry = H <= H_DRY
    if dry.any():
        q[:, dry] = 0.0
    return state


def _step_whole_domain(state, dt, rhs, integrator):
    """The step over every cell, before the wet window.

    Kept as the oracle that the windowed step must match bit for bit,
    signed zeros included; `rhs` returns tendencies of every cell.
    """
    r1 = rhs(state)
    s1 = _clip_whole_domain(LayerState(state.H + dt * r1.dH, state.q + dt * r1.dq))
    if integrator == "forward-euler":
        return s1
    r2 = rhs(s1)
    return _clip_whole_domain(LayerState(0.5 * (state.H + s1.H + dt * r2.dH),
                                         0.5 * (state.q + s1.q + dt * r2.dq)))


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
        dH, dq, _ = euler_rhs(state.H, state.q, ctx.bed, ctx.partition, ctx.g)
        return RhsEval(dH, dq, (0, STEP_N))

    grew = 0
    for trial in range(20):
        H, q = _stretch_state(rng, N, bc)
        state = LayerState(H, q)
        speed = _max_wave_speed(H, velocities(H, q, ctx.partition), ctx.g)
        dt = 0.45 * ctx.dx / speed if speed > 0.0 else 1e-3
        windows = []
        recorded = _recording(rhs, windows)
        got = step(state, dt, recorded(state), recorded, integrator)
        _assert_same_state(state, LayerState(H, q))  # the input is left as it was
        assert windows[0] != (0, STEP_N) or bc == "periodic"
        want = _step_whole_domain(state.copy(), dt, whole_rhs, integrator)
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
        return RhsEval(full_H, full_q, (0, n))
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
    windows, state = [], LayerState(H, q)
    recorded = _recording(_fixed_rhs(dH, dq, True), windows)
    got = step(state, dt, recorded(state), recorded, "ssp-rk2")
    want = _step_whole_domain(LayerState(H, q), dt, _fixed_rhs(dH, dq, False), "ssp-rk2")
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

    state = LayerState(H, q)
    with pytest.raises(SolverAbort) as err:
        step(state, 0.1, rhs(state), rhs, integrator)
    assert err.value.cell == 13 and err.value.step is None
    assert str(err.value).endswith(" (cell 13)")


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
    # the advective step dt is about 2.3e-3 here: 4.4e7 steps to t_end = 1e5,
    # hours of work before the 10M-step budget would run out
    def no_step(*args, **kwargs):
        raise AssertionError("the run took a step")
    monkeypatch.setattr(timeloop, "step", no_step)
    cfg = tmp_path / "case.cfg"
    cfg.write_text(VISCOUS_SHEAR.replace("controls.t_end = 0.012", "controls.t_end = 1e5"))
    assert cli.main(["run", str(cfg), "--output", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert "dt=" in err and "budget of 10000000" in err and "(step 0, t=0)" in err


@pytest.mark.parametrize("failing_call, clip, rows", [(7, None, 3), (8, None, 4), (7, 600, 4)],
                         ids=["first-stage", "second-stage", "clip"])
def test_a_kernel_abort_is_located_at_the_step_being_taken(failing_call, clip, rows, tmp_path,
                                                          capsys, monkeypatch):
    # SSP-RK2 evaluates twice a step: calls 7 and 8 are the two stages of
    # step 3, which starts from the fourth state; a first stage that
    # returns audits that state, so energy.csv keeps three rows or four.
    # A kernel raises at the failing call, or its tendency drives cell
    # `clip` (the window is the whole domain) negative, which the clip names
    states = itertools.islice(timeloop.accepted_steps(parse_scenario(DAM_BUMP_WALL)), 4)
    t3 = [row[0] for row, _ in states][3]
    calls = []

    def fail_later(*args, **kwargs):
        calls.append(None)
        if len(calls) == failing_call and clip is None:
            raise SolverAbort("non-finite edge trace in flux evaluation")
        dH, dq, G = euler_rhs(*args, **kwargs)
        if len(calls) == failing_call:
            dH[clip] = -1e6
        return dH, dq, G
    monkeypatch.setattr(timeloop, "euler_rhs", fail_later)
    cfg, out = tmp_path / "case.cfg", tmp_path / "out"
    cfg.write_text(DAM_BUMP_WALL)
    assert cli.main(["run", str(cfg), "--output", str(out)]) == 2
    err = capsys.readouterr().err
    reason = ("non-finite edge trace in flux evaluation" if clip is None
              else r"depth fell to -\d\.\d{3}e\+\d\d, beyond the clipping tolerance")
    cell = "" if clip is None else f", cell {clip}"
    assert re.fullmatch(rf"solver abort: {reason} \(step 3, t={t3:.6g}{cell}\)\n", err), err
    assert len((out / "energy.csv").read_text().splitlines()) == 1 + rows


def test_only_the_stepping_loop_gives_an_abort_its_step_and_time():
    # every SolverAbort(...) in the package passes at most a reason and a
    # cell, save one in an except of accepted_steps, which locates them all
    located = []
    for path in sorted(Path(timeloop.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        parents = {child: node for node in ast.walk(tree) for child in ast.iter_child_nodes(node)}
        for call in ast.walk(tree):
            func = getattr(call, "func", None)  # only a call has one
            if "SolverAbort" not in (getattr(func, "id", None), getattr(func, "attr", None)):
                continue
            # a step or a time: a second or starred argument, or a keyword
            if (len(call.args) < 2 and not any(isinstance(a, ast.Starred) for a in call.args)
                    and all(k.arg not in ("step", "time", None) for k in call.keywords)):
                continue
            node, handler = call, False
            while not isinstance(node, (ast.FunctionDef, ast.Module)):
                handler |= isinstance(node, ast.ExceptHandler)
                node = parents[node]
            located.append((path.name, getattr(node, "name", None), handler, call.lineno))
    assert [where[:3] for where in located] == [("timeloop.py", "accepted_steps", True)], located


def test_only_the_stepping_loop_steps_a_scenario():
    # a hand-written loop elsewhere would be checked in place of the one the
    # program runs: outside timeloop.py no call reaches make_rhs or
    # viscous_stage, and none audits an evaluation, so the loop alone
    # calls diagnose
    found = []
    for path in sorted(Path(timeloop.__file__).parent.glob("*.py")):
        if path.name == "timeloop.py":
            continue
        for call in ast.walk(ast.parse(path.read_text(), str(path))):
            if not isinstance(call, ast.Call):
                continue
            name = getattr(call.func, "id", None) or getattr(call.func, "attr", None)
            if name in ("make_rhs", "viscous_stage", "diagnose"):
                found.append((path.name, call.lineno, name))
    assert found == []


def test_an_aborted_run_leaves_its_frames_and_energy_rows(tmp_path, capsys, monkeypatch):
    # a kernel aborts in the second stage of step 340 of 383, past the
    # 18th frame: the frames and rows before the abort are the finished
    # run's, and the closing row books no stage and no residual.  A budget
    # of 340 stops the run at step 1: its first step projects about 334
    # steps, but the second projects past the budget
    cfg, full, cut = tmp_path / "case.cfg", tmp_path / "full", tmp_path / "cut"
    cfg.write_text(DAM_BUMP_WALL)
    assert cli.main(["run", str(cfg), "--output", str(full)]) == 0
    calls = []

    def fail_later(*args, **kwargs):
        calls.append(None)
        if len(calls) == 2 * 340 + 2:
            raise SolverAbort("non-finite edge trace in flux evaluation")
        return euler_rhs(*args, **kwargs)
    monkeypatch.setattr(timeloop, "euler_rhs", fail_later)
    assert cli.main(["run", str(cfg), "--output", str(cut)]) == 2
    assert "solver abort: non-finite edge trace in flux evaluation (step 340, t=" in (
        capsys.readouterr().err)
    frames = [f"snapshot_{i:04d}.csv" for i in range(18)]
    assert sorted(p.name for p in cut.iterdir()) == ["energy.csv"] + frames
    assert len(list(full.glob("snapshot_*.csv"))) > len(frames)
    for name in frames:
        assert (cut / name).read_bytes() == (full / name).read_bytes(), name
    rows, done = ((d / "energy.csv").read_text().splitlines() for d in (cut, full))
    assert len(rows) == 1 + 341 and rows[:-1] == done[:341]
    t, E, D_G, R_E, friction, residual, mass = rows[-1].split(",")
    reached = done[341].split(",")
    assert [t, E, D_G, mass] == [reached[0], reached[1], reached[2], reached[6]]
    assert (R_E, friction, residual) == ("0", "0", "nan")
    monkeypatch.setattr(timeloop, "euler_rhs", euler_rhs)
    monkeypatch.setattr(timeloop, "MAX_STEPS", 340)
    assert cli.main(["run", str(cfg), "--output", str(tmp_path / "budget")]) == 2
    assert re.fullmatch(r"solver abort: stable step dt=\d\.\d{3}e-04 needs about \d+ more steps, "
                        r"over the budget of 340 \(step 1, t=[^,()]+\)\n",
                        capsys.readouterr().err)
    assert len((tmp_path / "budget" / "energy.csv").read_text().splitlines()) == 1 + 2


@pytest.mark.parametrize("physics", ["physics.g = 9.81", "physics.g = 9.81\nphysics.mu = 1e-3"],
                         ids=["inviscid", "viscous"])
def test_layerflow_run_keeps_no_frame_it_wrote(physics, tmp_path, monkeypatch):
    # a frame per step; each frame's depths die once the next frame is written
    taken = []
    real_frame, real_write = cli.snapshot_frame, cli.write_snapshot

    def frame(t, H, diag, scn):
        taken.append(weakref.ref(H))
        return real_frame(t, H, diag, scn)

    def write(path, snap):
        real_write(path, snap)
        assert [ref() for ref in taken[:-1]] == [None] * (len(taken) - 1)
    monkeypatch.setattr(cli, "snapshot_frame", frame)
    monkeypatch.setattr(cli, "write_snapshot", write)
    cfg = tmp_path / "case.cfg"
    cfg.write_text(DAM_BUMP_WALL.replace("mesh.n_cells = 800", "mesh.n_cells = 40")
                   .replace("physics.g = 9.81", physics)
                   .replace("controls.t_end = 0.12", "controls.t_end = 0.02")
                   .replace("output.snapshot_every = 0.006", "output.snapshot_every = 1e-12"))
    assert cli.main(["run", str(cfg), "--output", str(tmp_path / "out")]) == 0
    assert len(taken) == len(list((tmp_path / "out").glob("snapshot_*.csv"))) > 3


def test_progress_lines_report_the_energy_rows(tmp_path, capsys):
    cfg, out = tmp_path / "case.cfg", tmp_path / "out"
    cfg.write_text(DAM_BUMP_WALL.replace("mesh.n_cells = 800", "mesh.n_cells = 40")
                   .replace("controls.t_end = 0.12", "controls.t_end = 0.1"))
    assert cli.main(["run", str(cfg), "--output", str(out), "--progress", "2"]) == 0
    captured = capsys.readouterr()
    steps = int(re.search(r"finished: (\d+) steps", captured.out).group(1))
    rows = [[float(v) for v in line.split(",")]
            for line in (out / "energy.csv").read_text().splitlines()[1:]]
    lines = captured.err.splitlines()
    assert len(lines) == steps // 2 > 2
    for k, line in zip(range(2, steps + 1, 2), lines):
        t, E, mass = rows[k][0], rows[k][1], rows[k][6]
        assert line == (f"step={k} t={t:.6g} dt={t - rows[k - 1][0]:.3e} "
                        f"mass={mass:.12g} energy={E:.12g}")


def test_a_step_clamped_to_t_end_is_not_a_collapse():
    # the stable step is about 2e-4, far above the collapse floor
    result = run(parse_scenario(DAM_BUMP_WALL.replace("t_end = 0.12", "t_end = 5e-14")))
    assert result.summary["steps"] == 1 and result.times[-1] == 5e-14


def test_a_stable_step_below_the_floor_collapses():
    # g = 1e23 gives a stable step of 3.56e-15 at the default CFL of 0.9,
    # below the floor of 1e-13 t_end = 1.2e-14 at any CFL the config accepts
    with pytest.raises(SolverAbort, match="time step collapsed") as err:
        run(parse_scenario(DAM_BUMP_WALL.replace("physics.g = 9.81", "physics.g = 1e23")))
    assert err.value.step == 0


def test_a_viscous_stage_over_the_iteration_cap_aborts_located():
    # mu = 1e5 on 160 cells: the z-weighted cross terms make the stage's
    # system so stiff in x that conjugate gradients, preconditioned with
    # the columns' vertical coupling alone, need more than CG_MAX_ITER
    # iterations.  The dam break starts at rest and its first stage
    # converges; the second step's aborts, naming the step and its start
    scn = _smooth_scenario(mesh=MeshSpec(0.0, 1.0, 160), boundary="wall",
                           physics=PhysicsSpec(g=9.81, mu=1e5, k_l=0.01))
    state, rhs, _ = make_rhs(scn)
    first_dt = rhs(state).diagnose().dt
    with pytest.raises(SolverAbort, match=f"did not converge: .* after {timeloop.CG_MAX_ITER} "
                       "iterations") as err:
        run(scn)
    assert (err.value.step, err.value.time) == (1, first_dt)
    assert f"(step 1, t={first_dt:.6g})" in str(err.value)


VISCOUS_LAKE_AT_REST = """mesh.x_min = 0
mesh.x_max = 1
mesh.n_cells = 30
boundary.kind = wall
layers.n = 3
bathymetry.z0 = -0.5
init.kind = lake_at_rest
init.eta0 = 0.5
physics.g = 9.81
physics.mu = 1e-3
physics.k_l = 0.01
physics.k_t = 0.01
controls.t_end = 0.05
output.snapshot_every = 0.02
"""


def test_a_viscous_lake_at_rest_stays_at_rest_and_books_positive_zero_work(tmp_path):
    # the stage's right-hand side is exactly zero, so conjugate gradients
    # return their zero start: every frame holds the initial state, and the
    # stress and friction power read 0, not the -0 of a negated zero sum
    cfg, out = tmp_path / "lake.cfg", tmp_path / "out"
    cfg.write_text(VISCOUS_LAKE_AT_REST)
    assert cli.main(["run", str(cfg), "--output", str(out)]) == 0
    rows = [line.split(",") for line in (out / "energy.csv").read_text().splitlines()]
    assert rows[0][3:5] == ["R_E", "friction"] and len(rows) == 8  # 6 steps
    assert {value for row in rows[1:] for value in row[3:5]} == {"0"}
    frames = [p.read_text().split("\n", 1) for p in sorted(out.glob("snapshot_*.csv"))]
    assert len(frames) == 4 and len({table for _, table in frames}) == 1


def _dry_left_wall_dam_break(mu):
    return Scenario(mesh=MeshSpec(0.0, 1.0, 40), boundary="wall", layers=LayersSpec(n=3),
                    init=InitSpec(kind="dam_break", eta_l=0.0, eta_r=1.0, x0=0.5),
                    physics=PhysicsSpec(g=9.81, mu=mu), controls=ControlsSpec(t_end=0.01))


@pytest.mark.parametrize("viscous, inviscid", [
    (_smooth_scenario(boundary="wall", physics=PhysicsSpec(g=9.81, mu=1e-3, k_l=0.01),
                      init=InitSpec(kind="dam_break", eta_l=1.0, eta_r=0.0, x0=0.5)),
     _smooth_scenario(boundary="wall", init=InitSpec(kind="dam_break", eta_l=1.0, eta_r=0.0,
                                                     x0=0.5))),
    (_dry_left_wall_dam_break(1e-3), _dry_left_wall_dam_break(0.0)),
], ids=["wall_dam_break_onto_dry_right", "wall_dam_break_onto_dry_left"])
def test_a_viscous_dry_front_takes_about_the_steps_of_its_inviscid_twin(viscous, inviscid):
    # films just above H_DRY at the front once set explicit viscous steps of
    # about 1e-13: these runs stalled (223 205 steps, then a collapsed step;
    # 20 001 steps to t = 0.0028 of 0.01).  The implicit stage bounds nothing
    result, twin = run(viscous), run(inviscid)
    assert result.times[-1] == viscous.controls.t_end
    assert result.summary["steps"] <= 10 * twin.summary["steps"]



@pytest.mark.parametrize("x0", [0.297, 0.3, 0.305])
def test_the_layers_of_a_front_onto_a_dry_slope_move_together(x0):
    # forward Euler at CFL 0.9 on 12 layers.  A newly wetted cell once
    # traded its inflow between layers at its own zero velocity, which
    # doubled a difference of layer velocities at each cell the front
    # entered: from round-off it grew to a spread of 5.6 to 8.5 here (181
    # steps), and on the benchmark's 2000 cells to films 8 times the bulk
    # speed that set the step, so the step count varied with x0
    scn = Scenario(mesh=MeshSpec(0.0, 1.0, 200), boundary="transmissive",
                   layers=LayersSpec(n=12),
                   bathymetry=BathymetrySpec(kind="slope", z0=0.0, s=0.1),
                   init=InitSpec(kind="dam_break", eta_l=1.0, eta_r=0.0, x0=x0),
                   physics=PhysicsSpec(g=9.81),
                   controls=ControlsSpec(t_end=0.15, cfl=0.9, integrator="forward-euler"),
                   output=OutputSpec(snapshot_every=0.005))
    result = run(scn)
    spread = max(float(np.ptp(d.u, axis=0).max()) for _, d, _ in result.snapshots)
    assert spread < 1e-10
    assert result.summary["steps"] == 176


def _refinement_errors(make):
    """Largest |H| and |q| gaps at t_end of runs at CFL 0.8, 0.4, 0.2 and
    0.1 against a run at CFL 0.0125 on the same mesh."""
    ref = run(make(0.0125)).final
    errors = []
    for cfl in (0.8, 0.4, 0.2, 0.1):
        final = run(make(cfl)).final
        errors.append(max(np.abs(final.H - ref.H).max(), np.abs(final.q - ref.q).max()))
    return np.array(errors)


def test_the_viscous_stage_is_second_order_in_time_on_a_shear_column():
    # an x-uniform shear column with a linear wall law: the transport is
    # silent and the trapezoidal stage alone acts (errors fall 3.85, 4.01,
    # 4.04 times per halving)
    def column(cfl):
        u = 0.3 * np.cos(np.pi * (np.arange(8) + 0.5) / 8)
        return Scenario(mesh=MeshSpec(0.0, 1.0, 8), layers=LayersSpec(n=8),
                        bathymetry=BathymetrySpec(kind="flat", z0=-0.5),
                        init=InitSpec(kind="shear", eta0=0.5, u=tuple(u)),
                        physics=PhysicsSpec(g=9.81, mu=0.01, k_l=0.05),
                        controls=ControlsSpec(t_end=0.25, cfl=cfl))
    errors = _refinement_errors(column)
    assert (errors[:-1] / errors[1:] >= 3.5).all(), errors


def test_a_coupled_viscous_flow_is_first_order_in_time():
    # a smooth periodic flow over a bump with shear, viscosity and both wall
    # law terms: transport and stage follow one another, a first-order
    # splitting (errors fall 1.95, 2.03, 2.13 times per halving)
    def coupled(cfl):
        n = 32
        x = (np.arange(n) + 0.5) / n
        u = np.concatenate([a * (0.1 * np.cos(2 * np.pi * x) + 0.05) for a in (1, 2, 3)])
        return Scenario(mesh=MeshSpec(0.0, 1.0, n), layers=LayersSpec(n=3),
                        bathymetry=BathymetrySpec(kind="bump", z0=-0.5, a=0.05, x0=0.5,
                                                  width=0.2),
                        init=InitSpec(kind="table", u_values=tuple(u),
                                      H_values=tuple(1.0 + 0.05 * np.sin(2 * np.pi * x))),
                        physics=PhysicsSpec(g=9.81, mu=0.01, k_l=0.05, k_t=0.02),
                        controls=ControlsSpec(t_end=0.05, cfl=cfl))
    errors = _refinement_errors(coupled)
    assert (errors[:-1] / errors[1:] >= 1.8).all(), errors
