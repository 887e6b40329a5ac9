"""Column state helpers: velocities, pressures and interface exchange."""
import numpy as np
import pytest

from layerflow.errors import SolverAbort
from layerflow.geometry import LayerPartition, build_geometry, make_bathymetry
from layerflow.state import (LayerState, exchange_fluxes, hydrostatic_pressures,
                             interface_velocities, velocities)
from layerflow.sv import sv_rhs
from layerflow.timeloop import RhsEval, step


def test_velocities_mask_dry_columns():
    part = LayerPartition.uniform(2)
    H = np.array([2.0, 0.0, 1e-12])
    q = np.array([[1.0, 3.0, 5.0], [2.0, 4.0, 6.0]])
    u = velocities(H, q, part)  # the dry threshold is H_DRY = 1e-8
    assert np.allclose(u[:, 0], [1.0, 2.0])
    assert (u[:, 1:] == 0.0).all()


def test_hydrostatic_pressures_match_loop():
    rng = np.random.default_rng(3)
    g = 9.81
    h = rng.uniform(0.1, 2.0, size=(4, 7))
    p_mid, p_if = hydrostatic_pressures(h, g)
    N, n = h.shape
    for i in range(n):
        for k in range(N + 1):
            ref = g * h[k:, i].sum()
            assert abs(p_if[k, i] - ref) < 1e-12 * max(1.0, ref)
        for a in range(N):
            ref = g * (h[a + 1:, i].sum() + 0.5 * h[a, i])
            assert abs(p_mid[a, i] - ref) < 1e-12 * max(1.0, ref)
    assert (p_if[-1] == 0.0).all()
    assert np.allclose(p_if[0], g * h.sum(axis=0))


def test_exchange_fluxes_vanish_at_bed_and_surface():
    rng = np.random.default_rng(5)
    part = LayerPartition(np.array([0.2, 0.3, 0.5]))
    div = rng.standard_normal((3, 11))
    G = exchange_fluxes(div, part)
    assert (G[0] == 0.0).all()
    assert (G[-1] == 0.0).all()


def test_exchange_fluxes_match_loop():
    rng = np.random.default_rng(6)
    part = LayerPartition(np.array([0.4, 0.1, 0.5]))
    div = rng.standard_normal((3, 9))
    G = exchange_fluxes(div, part)
    c = np.concatenate([[0.0], np.cumsum(part.fractions)])
    for i in range(9):
        total = div[:, i].sum()
        for k in range(4):
            ref = div[:k, i].sum() - c[k] * total
            assert abs(G[k, i] - ref) < 1e-13


def test_proportional_divergence_exchanges_nothing():
    # when every layer drains in proportion to its fraction the interfaces
    # move with the column and no mass crosses them
    part = LayerPartition(np.array([0.25, 0.35, 0.4]))
    D = np.array([1.7, -0.3, 0.0, 2.2])
    div = part.fractions[:, None] * D[None, :]
    G = exchange_fluxes(div, part)
    assert np.abs(G).max() < 1e-14


def test_single_layer_has_no_exchange():
    part = LayerPartition.uniform(1)
    div = np.array([[1.0, -2.0, 3.0]])
    G = exchange_fluxes(div, part)
    assert G.shape == (2, 3)
    assert (G == 0.0).all()


def test_interface_velocity_takes_donor_side():
    # G > 0 sends mass downward, so the layer above the interface donates
    u = np.array([[1.0, 1.0], [2.0, 2.0]])
    G = np.array([[0.0, 0.0], [0.5, -0.5], [0.0, 0.0]])
    u_if = interface_velocities(u, G)
    assert u_if[1, 0] == 2.0
    assert u_if[1, 1] == 1.0
    # bed and surface rows carry the adjacent layer velocity
    assert (u_if[0] == u[0]).all()
    assert (u_if[-1] == u[-1]).all()


@pytest.mark.parametrize("N", [1, 2, 12])
def test_layer_sums_match_the_cumsum_formulas_bitwise(N):
    rng = np.random.default_rng(40 + N)
    part = LayerPartition(rng.dirichlet(np.ones(N)) if N > 1 else np.ones(1))
    h = rng.uniform(0.0, 2.0, (N, 33))
    div = rng.standard_normal((N, 33))
    p_mid, p_if = hydrostatic_pressures(h, 9.81)
    ref_if = np.zeros((N + 1, 33))
    ref_if[:-1] = 9.81 * np.cumsum(h[::-1], axis=0)[::-1]
    assert p_if.tobytes() == ref_if.tobytes()
    assert p_mid.tobytes() == (ref_if[1:] + 0.5 * 9.81 * h).tobytes()
    G = exchange_fluxes(div, part)
    ref_G = np.zeros((N + 1, 33))
    if N > 1:
        dcum = np.cumsum(div, axis=0)
        ref_G[1:-1] = dcum[:-1] - part.cumulative[:-1, None] * dcum[-1]
    assert G.tobytes() == ref_G.tobytes()


PART2 = LayerPartition.uniform(2)
BED3 = make_bathymetry(np.zeros(3), 1.0, "periodic")
STILL3 = LayerState(np.ones(3), np.zeros((1, 3)))
REST3 = RhsEval(np.zeros(3), np.zeros((1, 3)), (0, 3))  # STILL3's tendencies


@pytest.mark.parametrize("call, error, message", [
    (lambda: LayerPartition.uniform(0), ValueError, "need at least one layer"),
    (lambda: make_bathymetry(np.array([0.0, np.nan, 0.0]), 1.0, "periodic"),
     ValueError, "bed elevation must be finite"),
    (lambda: build_geometry(np.array([1.0, np.nan, 1.0]), BED3, PART2),
     ValueError, "depth field must be finite"),
    (lambda: build_geometry(np.ones(4), BED3, PART2),
     ValueError, "depth and bathymetry shapes differ"),
    (lambda: LayerState(np.ones(3), np.zeros((2, 4))),
     ValueError, "H and q disagree on the number of cells"),
    (lambda: velocities(np.ones(3), np.zeros((3, 3)), PART2),
     ValueError, "3 discharge rows for 2 layers"),
    (lambda: exchange_fluxes(np.zeros((3, 3)), PART2),
     ValueError, "3 divergence rows for 2 layers"),
    (lambda: step(STILL3, 0.1, REST3, lambda s: REST3, "leapfrog"),
     ValueError, "unknown integrator 'leapfrog'"),
    (lambda: sv_rhs(np.array([1.0, np.inf, 1.0]), np.zeros(3), np.zeros(3), 9.81,
                    0.0, 0.0, 0.0, 1.0, "periodic"),
     SolverAbort, "non-finite state in reference solver"),
], ids=["no_layers", "nan_bed", "nan_depth", "shapes", "state_cells", "discharge_rows",
        "divergence_rows", "integrator", "reference_state"])
def test_library_entry_points_refuse_malformed_inputs(call, error, message):
    # each names what is wrong; unchecked, LayerPartition.uniform(0) would divide 1.0 by 0
    with pytest.raises(error) as err:
        call()
    assert str(err.value) == message
