"""Hyperbolic transport core: HLL edge fluxes and the layered update."""
import numpy as np
import pytest

from layerflow import output, timeloop
from layerflow.energy import exchange_dissipation, layer_energies
from layerflow.errors import SolverAbort
from layerflow.euler import euler_rhs, hll_fluxes, wet_window
from layerflow.geometry import (LayerPartition, build_geometry, layer_thicknesses,
                                make_bathymetry)
from layerflow.gridops import pad_cells, widen
from layerflow.kinematics import reconstruct_w
from layerflow.scenario import (BathymetrySpec, InitSpec, LayersSpec, MeshSpec,
                                PhysicsSpec, Scenario)
from layerflow.state import (H_DRY, LayerState, exchange_fluxes, hydrostatic_pressures,
                             interface_velocities, velocities)


def _hll_reference(hl, ul, hr, ur, g):
    """Scalar textbook HLL flux with dry-front wave speeds.

    Independent reimplementation used as the oracle for the vectorized
    layered version at N=1.
    """
    dry_l, dry_r = hl <= H_DRY, hr <= H_DRY
    if dry_l and dry_r:
        return 0.0, 0.0
    cl = np.sqrt(g * max(hl, 0.0))
    cr = np.sqrt(g * max(hr, 0.0))
    if dry_l:
        sl, sr = ur - 2.0 * cr, ur + cr
    elif dry_r:
        sl, sr = ul - cl, ul + 2.0 * cl
    else:
        sl = min(ul - cl, ur - cr)
        sr = max(ul + cl, ur + cr)
    fl = (hl * ul, hl * ul * ul + 0.5 * g * hl * hl)
    fr = (hr * ur, hr * ur * ur + 0.5 * g * hr * hr)
    if sl >= 0.0:
        return fl
    if sr <= 0.0:
        return fr
    span = sr - sl
    f_mass = (sr * fl[0] - sl * fr[0] + sl * sr * (hr - hl)) / span
    f_mom = (sr * fl[1] - sl * fr[1] + sl * sr * (hr * ur - hl * ul)) / span
    return f_mass, f_mom


def test_hll_matches_scalar_reference():
    rng = np.random.default_rng(11)
    part = LayerPartition.uniform(1)
    g = 9.81
    m = 500
    H_l = rng.uniform(0.0, 3.0, m)
    H_r = rng.uniform(0.0, 3.0, m)
    # sprinkle exact dry states and supersonic velocities
    H_l[rng.random(m) < 0.15] = 0.0
    H_r[rng.random(m) < 0.15] = 0.0
    u_l = rng.standard_normal((1, m)) * 4.0
    u_r = rng.standard_normal((1, m)) * 4.0
    f_mass, f_mom = hll_fluxes(H_l, u_l, H_r, u_r, part, g)
    for j in range(m):
        ref_mass, ref_mom = _hll_reference(H_l[j], u_l[0, j], H_r[j], u_r[0, j], g)
        scale = max(1.0, abs(ref_mass), abs(ref_mom))
        assert abs(f_mass[0, j] - ref_mass) <= 1e-12 * scale
        assert abs(f_mom[0, j] - ref_mom) <= 1e-12 * scale


def test_hll_identical_traces_give_physical_flux():
    part = LayerPartition.uniform(2)
    H = np.array([1.3])
    u = np.array([[0.7], [-0.2]])
    f_mass, f_mom = hll_fluxes(H, u, H.copy(), u.copy(), part, 9.81)
    h = 0.5 * H[0]
    assert f_mass[0, 0] == h * 0.7
    assert f_mass[1, 0] == h * -0.2
    assert np.allclose(f_mom[:, 0],
                       [h * 0.49 + 0.5 * 9.81 * h * H[0],
                        h * 0.04 + 0.5 * 9.81 * h * H[0]])


def test_hll_proportional_layers_split_single_layer_flux():
    # equal layer velocities make each layer carry its fraction of the
    # single-layer flux because the wave fan is shared
    rng = np.random.default_rng(13)
    m = 200
    H_l = rng.uniform(0.05, 2.0, m)
    H_r = rng.uniform(0.05, 2.0, m)
    u = rng.standard_normal((1, m))
    v = rng.standard_normal((1, m))
    one_mass, one_mom = hll_fluxes(H_l, u, H_r, v, LayerPartition.uniform(1), 9.81)
    part3 = LayerPartition(np.array([0.2, 0.5, 0.3]))
    three_mass, three_mom = hll_fluxes(H_l, np.repeat(u, 3, axis=0), H_r,
                                       np.repeat(v, 3, axis=0), part3, 9.81)
    for a, frac in enumerate(part3.fractions):
        assert np.allclose(three_mass[a], frac * one_mass[0], atol=1e-13)
        assert np.allclose(three_mom[a], frac * one_mom[0], atol=1e-13)


def test_hll_rejects_nonfinite_traces():
    part = LayerPartition.uniform(1)
    with pytest.raises(SolverAbort):
        hll_fluxes(np.array([np.nan]), np.zeros((1, 1)),
                   np.array([1.0]), np.zeros((1, 1)), part, 9.81)


def _hll_where_chains(H_l, u_l, H_r, u_r, part, g):
    """The layered HLL flux written with whole-array temporaries and
    nested np.where selections, operation for operation as the solver
    first evaluated it; hll_fluxes must reproduce it bit for bit."""
    h_l = layer_thicknesses(H_l, part)
    h_r = layer_thicknesses(H_r, part)
    q_l = h_l * u_l
    q_r = h_r * u_r
    f_mom_l = q_l * u_l + 0.5 * g * h_l * H_l
    f_mom_r = q_r * u_r + 0.5 * g * h_r * H_r
    c_l = np.sqrt(g * H_l)
    c_r = np.sqrt(g * H_r)
    umin_l, umax_l = u_l.min(axis=0), u_l.max(axis=0)
    umin_r, umax_r = u_r.min(axis=0), u_r.max(axis=0)
    s_l = np.minimum(umin_l - c_l, umin_r - c_r)
    s_r = np.maximum(umax_l + c_l, umax_r + c_r)
    dry_l = H_l <= H_DRY
    dry_r = H_r <= H_DRY
    wet_to_dry = dry_r & ~dry_l
    s_l = np.where(wet_to_dry, umin_l - c_l, s_l)
    s_r = np.where(wet_to_dry, umax_l + 2.0 * c_l, s_r)
    dry_to_wet = dry_l & ~dry_r
    s_l = np.where(dry_to_wet, umin_r - 2.0 * c_r, s_l)
    s_r = np.where(dry_to_wet, umax_r + c_r, s_r)
    span = s_r - s_l
    safe = np.where(span > 0.0, span, 1.0)
    f_mass = (s_r * q_l - s_l * q_r + s_l * s_r * (h_r - h_l)) / safe
    f_mom = (s_r * f_mom_l - s_l * f_mom_r + s_l * s_r * (q_r - q_l)) / safe
    f_mass = np.where(s_l >= 0.0, q_l, np.where(s_r <= 0.0, q_r, f_mass))
    f_mom = np.where(s_l >= 0.0, f_mom_l, np.where(s_r <= 0.0, f_mom_r, f_mom))
    same = (h_l == h_r) & (q_l == q_r)
    f_mass = np.where(same, q_l, f_mass)
    f_mom = np.where(same, f_mom_l, f_mom)
    both_dry = dry_l & dry_r
    f_mass[:, both_dry] = 0.0
    f_mom[:, both_dry] = 0.0
    return f_mass, f_mom


def _edge_kinds(rng, m, N):
    """Random multilayer traces with every kind of edge in them."""
    H_l = rng.uniform(0.0, 2.0, m)
    H_r = rng.uniform(0.0, 2.0, m)
    u_l = rng.standard_normal((N, m))
    u_r = rng.standard_normal((N, m))
    kind = rng.integers(0, 6, m)
    H_r[kind == 0] = 0.0                        # wet -> dry
    H_l[kind == 1] = 0.0                        # dry -> wet
    H_l[kind == 2] = H_r[kind == 2] = 0.0       # both dry
    H_r[kind == 3] = H_l[kind == 3]             # identical traces
    u_r[:, kind == 3] = u_l[:, kind == 3]
    u_l[:, kind == 4] += 20.0                   # both supersonic, rightward
    u_r[:, kind == 4] += 20.0
    u_l[:, kind == 5] -= 20.0                   # both supersonic, leftward
    u_r[:, kind == 5] -= 20.0
    H_l[rng.random(m) < 0.05] = 0.5 * H_DRY     # damp but below the dry depth
    return H_l, u_l, H_r, u_r


@pytest.mark.parametrize("N", [1, 2, 5])
def test_hll_matches_where_chains_bitwise(N):
    rng = np.random.default_rng(100 + N)
    part = LayerPartition(rng.dirichlet(np.ones(N)) if N > 1 else np.ones(1))
    H_l, u_l, H_r, u_r = _edge_kinds(rng, 600, N)
    f_mass, f_mom = hll_fluxes(H_l, u_l, H_r, u_r, part, 9.81)
    ref_mass, ref_mom = _hll_where_chains(H_l, u_l, H_r, u_r, part, 9.81)
    assert f_mass.tobytes() == ref_mass.tobytes()
    assert f_mom.tobytes() == ref_mom.tobytes()
    # every kind of edge is present
    dry_l, dry_r = H_l <= H_DRY, H_r <= H_DRY
    assert (dry_r & ~dry_l).any() and (dry_l & ~dry_r).any() and (dry_l & dry_r).any()
    assert ((H_l == H_r) & (u_l == u_r).all(axis=0) & ~dry_l).any()
    assert (u_l.min(axis=0) > 10.0).any() and (u_l.max(axis=0) < -10.0).any()


@pytest.mark.parametrize("only", ["none", "upwind_left", "upwind_right", "subsonic",
                                  "wet_mixed"])
def test_hll_matches_where_chains_when_a_mask_is_empty(only):
    # the kernel skips a selection no edge needs; the result must not care.
    # Every trace is wet, so no dry-side or both-dry mask is built; under
    # wet_mixed, edges supersonic each way sit next to subsonic ones
    rng = np.random.default_rng(7)
    N, m = 3, 50
    part = LayerPartition.uniform(N)
    H_l = rng.uniform(0.5, 1.0, m)
    H_r = rng.uniform(0.5, 1.0, m)
    shift = {"none": 0.0, "upwind_left": 30.0, "upwind_right": -30.0, "subsonic": 0.0,
             "wet_mixed": rng.choice([-30.0, 0.0, 30.0], m)}[only]
    u_l = 0.1 * rng.standard_normal((N, m)) + shift
    u_r = 0.1 * rng.standard_normal((N, m)) + shift
    if only == "none":
        H_r, u_r = H_l.copy(), u_l.copy()
    if only == "wet_mixed":
        assert (u_l.min(axis=0) > 10.0).any() and (u_l.max(axis=0) < -10.0).any()
        assert (np.abs(u_l).max(axis=0) < 1.0).any()
    f_mass, f_mom = hll_fluxes(H_l, u_l, H_r, u_r, part, 9.81)
    ref_mass, ref_mom = _hll_where_chains(H_l, u_l, H_r, u_r, part, 9.81)
    assert f_mass.tobytes() == ref_mass.tobytes()
    assert f_mom.tobytes() == ref_mom.tobytes()


@pytest.mark.parametrize("side,value", [("u_l", np.nan), ("u_r", np.inf),
                                        ("u_l", -np.inf), ("H_r", np.inf)])
def test_hll_rejects_a_nonfinite_value_in_any_trace(side, value):
    rng = np.random.default_rng(3)
    part = LayerPartition.uniform(3)
    tr = {"H_l": rng.uniform(0.5, 1.0, 8), "u_l": rng.standard_normal((3, 8)),
          "H_r": rng.uniform(0.5, 1.0, 8), "u_r": rng.standard_normal((3, 8))}
    tr[side][..., 5] = value
    with pytest.raises(SolverAbort):
        hll_fluxes(tr["H_l"], tr["u_l"], tr["H_r"], tr["u_r"], part, 9.81)


def _lake_setup(bc, n=64, N=3, seed=2):
    rng = np.random.default_rng(seed)
    dx = 1.0 / n
    x = (np.arange(n) + 0.5) * dx
    zb = 0.3 * np.exp(-((x - 0.5) / 0.12) ** 2) + 0.02 * rng.standard_normal(n)
    part = LayerPartition.uniform(N)
    bathy = make_bathymetry(zb, dx, bc)
    H = 1.0 - zb
    q = np.zeros((N, n))
    return H, q, bathy, part, dx


def test_still_lake_is_balanced_for_all_boundaries():
    for bc in ("periodic", "wall", "transmissive"):
        H, q, bathy, part, dx = _lake_setup(bc)
        dH, dq, G = euler_rhs(H, q, bathy, part, 9.81)
        assert np.abs(dH).max() < 1e-13
        assert np.abs(dq).max() < 1e-12
        assert np.abs(G).max() < 1e-13


def test_flat_periodic_conserves_mass_and_momentum():
    rng = np.random.default_rng(17)
    n, N = 50, 3
    dx = 0.02
    part = LayerPartition.uniform(N)
    bathy = make_bathymetry(np.zeros(n), dx, "periodic")
    H = rng.uniform(0.2, 2.0, n)
    q = rng.standard_normal((N, n))
    dH, dq, _ = euler_rhs(H, q, bathy, part, 9.81)
    assert abs(dH.sum() * dx) < 1e-13
    assert abs(dq.sum() * dx) < 1e-12


def test_wall_keeps_mass_in_the_box():
    rng = np.random.default_rng(19)
    n, N = 40, 2
    dx = 0.025
    part = LayerPartition.uniform(N)
    bathy = make_bathymetry(np.zeros(n), dx, "wall")
    H = rng.uniform(0.2, 2.0, n)
    q = rng.standard_normal((N, n))
    dH, _, _ = euler_rhs(H, q, bathy, part, 9.81)
    assert abs(dH.sum() * dx) < 1e-13


def test_depth_update_is_total_layer_divergence():
    rng = np.random.default_rng(23)
    n, N = 30, 4
    dx = 0.1
    part = LayerPartition.uniform(N)
    bathy = make_bathymetry(rng.standard_normal(n) * 0.1, dx, "periodic")
    H = rng.uniform(0.5, 1.5, n)
    q = rng.standard_normal((N, n)) * 0.3
    dH, _, G = euler_rhs(H, q, bathy, part, 9.81)
    _, _, f_mass, _ = _edge_fluxes(H, velocities(H, q, part), bathy, part, 9.81)
    div = np.diff(f_mass, axis=1) / dx
    assert np.allclose(dH, -div.sum(axis=0), rtol=0, atol=1e-14)
    assert (G[0] == 0.0).all()
    assert (G[-1] == 0.0).all()


def test_one_step_positivity_near_dry_fronts():
    rng = np.random.default_rng(29)
    n, N = 80, 2
    dx = 1.0 / n
    part = LayerPartition.uniform(N)
    bathy = make_bathymetry(np.zeros(n), dx, "transmissive")
    for _ in range(20):
        H = rng.uniform(0.0, 1.5, n)
        H[rng.random(n) < 0.3] = 0.0
        u = rng.standard_normal((N, n))
        u[:, H <= H_DRY] = 0.0
        q = part.fractions[:, None] * H[None, :] * u
        dH, _, _ = euler_rhs(H, q, bathy, part, 9.81)
        speed = np.abs(velocities(H, q, part)).max(axis=0) + np.sqrt(9.81 * H)
        dt = 0.45 * dx / speed.max()
        assert (H + dt * dH).min() > -1e-12



@pytest.mark.parametrize("N", [2, 4, 12])
@pytest.mark.parametrize("s", [0.0, 0.02])
def test_a_newly_wetted_cell_keeps_the_spread_of_its_inflows_layer_velocities(s, N):
    # a shallow supercritical column whose layers move at 4 -/+ 0.1 runs
    # onto dry bed; one forward-Euler step at CFL 0.9 puts water in the
    # first dry cell.  Traded between layers at that cell's zero velocity,
    # it came out with twice the spread of the inflow
    n = 8
    dx = 1.0 / n
    part = LayerPartition.uniform(N)
    bathy = make_bathymetry(s * dx * np.arange(n), dx, "transmissive")
    H = np.where(np.arange(n) < 4, 0.01, 0.0)
    du = np.linspace(-0.1, 0.1, N)
    q = part.fractions[:, None] * H * np.where(H > 0.0, 4.0 + du[:, None], 0.0)
    dH, dq, _ = euler_rhs(H, q, bathy, part, 9.81)
    dt = 0.9 * dx / (4.1 + np.sqrt(9.81 * 0.01))
    u_new = dq[:, 4] / (part.fractions * dH[4])  # dt cancels
    assert dH[4] > 0.0
    assert np.ptp(u_new) <= np.ptp(du) * (1.0 + 1e-12)
    assert dt * dH[4] < 0.01


def _edge_fluxes(H, u, bathy, part, g):
    """Hydrostatically reconstructed depths on both sides of every edge,
    and the HLL mass and momentum fluxes between them."""
    Hp = pad_cells(H, bathy.bc)
    up = pad_cells(u, bathy.bc, sign=-1.0)
    zbp = pad_cells(bathy.zb, bathy.bc)
    H_l, H_r = Hp[:-1], Hp[1:]
    u_l, u_r = up[:, :-1], up[:, 1:]
    zb_l, zb_r = zbp[:-1], zbp[1:]
    z_edge = np.maximum(zb_l, zb_r)
    H_ls = np.add(H_l, zb_l)
    H_ls -= z_edge
    np.maximum(H_ls, 0.0, out=H_ls)
    H_rs = np.add(H_r, zb_r)
    H_rs -= z_edge
    np.maximum(H_rs, 0.0, out=H_rs)
    return H_ls, H_rs, *hll_fluxes(H_ls, u_l, H_rs, u_r, part, g)


def _euler_rhs_whole_domain(H, q, bathy, part, g):
    """The tendency evaluation over every cell, before the wet window.

    Kept as the oracle that the windowed evaluation must match bit for
    bit, signed zeros included.
    """
    dx = bathy.dx
    u = velocities(H, q, part)
    H_ls, H_rs, f_mass, f_mom = _edge_fluxes(H, u, bathy, part, g)
    HH = H * H
    g_frac = (0.5 * g) * part.fractions[:, None]
    dq = np.multiply(g_frac, HH - H_ls[1:] * H_ls[1:])
    dq += f_mom[:, 1:]
    tmp = np.multiply(g_frac, HH - H_rs[:-1] * H_rs[:-1])
    tmp += f_mom[:, :-1]
    dq -= tmp
    np.negative(dq, out=dq)
    dq /= dx
    div = np.subtract(f_mass[:, 1:], f_mass[:, :-1])
    div /= dx
    dH = -div.sum(axis=0)
    G = exchange_fluxes(div, part)
    dry = H <= H_DRY
    u[:, dry] = np.divide(dq[:, dry], -div[:, dry], out=np.zeros_like(div[:, dry]),
                          where=div[:, dry] < 0.0)
    u_if = interface_velocities(u, G)
    np.multiply(u_if[1:], G[1:], out=tmp)
    tmp -= u_if[:-1] * G[:-1]
    dq += tmp
    return dH, dq, G


WINDOW_N = 40
# cells holding water: a stretch against the left or the right end, one
# inside the domain, one across the periodic seam, a stretch ending in
# films (0 < H <= H_DRY), one beside negative zeros, and none
WATER = {
    "left": lambda rng: np.arange(rng.integers(1, 25)),
    "right": lambda rng: np.arange(rng.integers(15, 39), WINDOW_N),
    "interior": lambda rng: np.arange(rng.integers(2, 15), rng.integers(16, 38)),
    "seam": lambda rng: np.r_[0:rng.integers(1, 12), rng.integers(28, 39):WINDOW_N],
    "film": lambda rng: np.arange(rng.integers(2, 15), rng.integers(16, 38)),
    "negative_zero": lambda rng: np.arange(rng.integers(8, 15), rng.integers(16, 30)),
    "dry": lambda rng: np.arange(0),
}


def _dry_stretch_state(rng, N, kind):
    """A state that holds water on WATER[kind] and exact zeros elsewhere."""
    n = WINDOW_N
    cells = WATER[kind](rng)
    H = np.zeros(n)
    H[cells] = rng.uniform(0.1, 1.5, cells.size)
    inner = cells[1:-1]
    H[inner[rng.random(inner.size) < 0.15]] = 0.0  # dry gaps in the water
    if kind == "film":
        H[cells[[0, -1]]] = rng.uniform(0.1, 1.0, 2) * H_DRY
        H[cells[rng.random(cells.size) < 0.2]] = 0.5 * H_DRY
    part = LayerPartition.uniform(N)
    q = layer_thicknesses(H, part) * rng.standard_normal((N, n))
    q[:, H == 0.0] = 0.0  # a bare cell carries +0.0, as the stepper leaves it
    if kind == "film":  # momentum on a film or a bare cell is never carried
        q[:, cells[0]] = 1e-9
        q[:, cells[-1] + 2] = -1e-9
    if kind == "negative_zero":
        H[[1, cells[0] - 2, cells[-1] + 3]] = -0.0
        q[-1, cells[-1] + 5] = -0.0  # past the last -0.0 depth
    return H, q


def _held(H, q):
    """Cells whose H or q is not +0.0."""
    def not_plus_zero(f):
        return (f != 0.0) | np.signbit(f)
    return np.flatnonzero(not_plus_zero(H) | not_plus_zero(q).any(axis=0))


@pytest.mark.parametrize("kind", sorted(WATER))
@pytest.mark.parametrize("N", [1, 3, 12])
@pytest.mark.parametrize("bc", ["wall", "transmissive", "periodic"])
def test_wet_window_tendencies_match_the_whole_domain_bitwise(bc, N, kind):
    rng = np.random.default_rng([N, len(kind), len(bc)])
    n, dx, g = WINDOW_N, 1.0 / WINDOW_N, 9.81
    part = LayerPartition.uniform(N)
    for trial in range(15):
        bathy = make_bathymetry(0.2 * rng.standard_normal(n), dx, bc)
        H, q = _dry_stretch_state(rng, N, kind)
        a, b = wet_window(H, q, bc)
        ev = euler_rhs(H[a:b], q[:, a:b], bathy.cells(a, b), part, g)
        whole = euler_rhs(H, q, bathy, part, g)
        ref = _euler_rhs_whole_domain(H, q, bathy, part, g)
        # outside the window the tendencies are a dry bed's
        for name, dry, got_ev, got_whole, want in zip(("dH", "dq", "G"), (-0.0, 0.0, 0.0),
                                                       ev, whole, ref):
            for got in (widen(got_ev, a, n, dry), got_whole):
                assert got.shape == want.shape and got.tobytes() == want.tobytes(), (name, trial)
        held = _held(H, q)
        if kind == "dry":
            assert (a, b) == (0, 1)
        elif bc == "periodic" and kind in ("left", "right", "seam"):
            assert (a, b) == (0, n)
        else:
            assert (a, b) == (max(held[0] - 1, 0), min(held[-1] + 2, n))
        assert kind != "interior" or 0 < a < b < n
        assert kind != "left" or a == 0
        assert kind != "right" or b == n


def _window_scenario(bc, N, zb):
    return Scenario(mesh=MeshSpec(0.0, 1.0, zb.size), boundary=bc,
                    layers=LayersSpec(n=N),
                    bathymetry=BathymetrySpec(kind="table", values=tuple(zb)),
                    init=InitSpec(kind="lake_at_rest"), physics=PhysicsSpec(g=9.81))


@pytest.mark.parametrize("kind", sorted(WATER))
@pytest.mark.parametrize("N", [1, 3, 12])
@pytest.mark.parametrize("bc", ["wall", "transmissive", "periodic"])
def test_wet_window_diagnostics_match_the_whole_domain_bitwise(bc, N, kind):
    # beds on both sides of the datum give dry cells layer energies of
    # both signs of zero
    rng = np.random.default_rng([N, len(kind), len(bc), 1])
    _, rhs, ctx = timeloop.make_rhs(_window_scenario(bc, N, 0.2 * rng.standard_normal(WINDOW_N)))
    g, part = ctx.g, ctx.partition
    for trial in range(15):
        H, q = _dry_stretch_state(rng, N, kind)
        d = rhs(LayerState(H, q)).diagnose()
        _, table = output.snapshot_frame(0.0, H, d, ctx)
        names = output.snapshot_header(N)
        frame = {c: table[[i for i, name in enumerate(names) if name.startswith(c)]]
                 for c in ("eta", "u_", "w_", "G_", "p_", "E_")}
        # the same fields evaluated over every cell
        u = velocities(H, q, part)
        geom = build_geometry(H, ctx.bed, part)
        _, _, G = _euler_rhs_whole_domain(H, q, ctx.bed, part, g)
        E = layer_energies(u, geom, g)
        p_mid, _ = hydrostatic_pressures(geom.h, g)
        # the audit's closed forms, their layers added in row order from
        # +0.0 (Python's sum over the rows)
        zb = ctx.bed.zb
        cell = 0.5 * sum(q * u) + g * H * (zb + 0.5 * H)
        influx = 0.0
        if bc == "transmissive":  # no water crosses a wall
            flux = sum(q * (0.5 * u * u + g * (zb + H)))
            influx = float(flux[0] - flux[-1])  # in at the left end, out at the right
            # the pressure form sum_a u_a (E_a + h_a p_mid,a) of the snapshot's fields
            p_flux = (frame["u_"] * (frame["E_"] + geom.h * frame["p_"])).sum(axis=0)
            scale = abs(p_flux[0]) + abs(p_flux[-1])
            assert abs(d.influx - (p_flux[0] - p_flux[-1])) <= 1e-13 * scale, trial
        # the snapshot's layer energies sum to the audited energy
        assert abs(frame["E_"].sum() * ctx.dx - d.energy) <= 1e-13 * abs(d.energy), trial
        want = {"energy": float(cell.sum() * ctx.dx), "influx": influx,
                "diss_exchange": exchange_dissipation(u, G, ctx.dx),
                "eta": geom.z_if[-1], "u": u, "w": reconstruct_w(u, geom)[0],
                "G": G[1:-1], "p": p_mid, "E": E}
        got = {"energy": d.energy, "influx": d.influx, "diss_exchange": d.diss_exchange,
               "eta": frame["eta"][0], "u": frame["u_"], "w": frame["w_"], "G": frame["G_"],
               "p": frame["p_"], "E": frame["E_"]}
        for name, ref in want.items():
            a, b = np.asarray(got[name]), np.asarray(ref)
            assert a.shape == b.shape and a.tobytes() == b.tobytes(), (name, trial)
