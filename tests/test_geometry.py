"""Layer partitions, interface levels and the derived column geometry."""
import inspect

import numpy as np
import pytest

from layerflow import energy, euler, geometry, kinematics, rheology, state, sv, timeloop
from layerflow.geometry import (Bathymetry, LayerPartition, build_geometry,
                                layer_thicknesses, make_bathymetry)
from layerflow.gridops import ddx, pad_cells


def test_uniform_partition():
    p = LayerPartition.uniform(4)
    assert p.n_layers == 4
    assert np.allclose(p.fractions, 0.25)
    assert np.allclose(p.cumulative, [0.25, 0.5, 0.75, 1.0])


@pytest.mark.parametrize("N", [1, 3, 12])
def test_a_partition_keeps_the_partial_sums_of_its_fractions(N):
    # computed once, when the partition is made, with the bits of np.cumsum
    p = LayerPartition(np.random.default_rng(N).dirichlet(np.ones(N)))
    assert p.cumulative is p.cumulative
    assert p.cumulative.tobytes() == np.cumsum(p.fractions).tobytes()


def test_a_partition_is_read_only():
    # the partial sums are kept, so neither they nor the fractions may change
    given = np.array([0.25, 0.75])
    p = LayerPartition(given)
    given[0] = 0.5  # the partition holds a copy
    assert list(p.fractions) == [0.25, 0.75]
    for name in ("fractions", "cumulative"):
        with pytest.raises(AttributeError):
            setattr(p, name, np.array([0.5, 0.5]))
        with pytest.raises(ValueError):
            getattr(p, name)[0] = 0.5


def test_partition_rejects_bad_fractions():
    with pytest.raises(ValueError):
        LayerPartition(np.array([0.5, 0.6]))
    with pytest.raises(ValueError):
        LayerPartition(np.array([1.2, -0.2]))
    with pytest.raises(ValueError):
        LayerPartition(np.array([]))


def test_thicknesses_sum_exactly_to_depth():
    # the top layer absorbs rounding so the column never leaks mass
    rng = np.random.default_rng(7)
    part = LayerPartition(np.array([0.17, 0.26, 0.31, 0.26]))
    H = rng.uniform(1e-6, 5.0, 300)
    h = layer_thicknesses(H, part)
    assert (h.sum(axis=0) == H).all()
    for a in range(3):
        assert np.allclose(h[a], part.fractions[a] * H, rtol=1e-15)


def test_thicknesses_match_cumsum_closure_bitwise():
    # reference: the top layer closed with a cumulative sum along the layers
    rng = np.random.default_rng(19)
    for N in (1, 2, 3, 8, 12):
        fr = rng.uniform(0.2, 1.0, N)
        part = LayerPartition(fr / fr.sum())
        H = rng.uniform(0.0, 5.0, 257)
        ref = part.fractions[:, None] * H
        ref[-1] = H - np.cumsum(ref[:-1], axis=0)[-1] if N > 1 else H
        assert np.array_equal(layer_thicknesses(H, part), ref)


def test_interface_levels_half_half_column():
    part = LayerPartition(np.array([0.5, 0.5]))
    H = np.array([1.0, 1.0, 1.0])
    bathy = make_bathymetry(np.zeros(3), 1.0, "transmissive")
    geom = build_geometry(H, bathy, part)
    assert np.allclose(geom.z_if[:, 0], [0.0, 0.5, 1.0])
    assert np.allclose(geom.z_mid[:, 0], [0.25, 0.75])
    # boundary gaps span half the adjacent layer
    assert np.allclose(geom.h_half[:, 0], [0.25, 0.5, 0.25])


def test_geometry_on_random_columns():
    rng = np.random.default_rng(21)
    part = LayerPartition.uniform(5)
    n = 40
    zb = rng.standard_normal(n) * 0.2
    H = rng.uniform(0.1, 3.0, n)
    bathy = make_bathymetry(zb, 0.1, "periodic")
    geom = build_geometry(H, bathy, part)
    assert np.allclose(geom.z_if[0], zb)
    assert np.allclose(geom.z_if[-1], zb + H)
    assert (np.diff(geom.z_if, axis=0) >= 0.0).all()
    assert (geom.z_mid > geom.z_if[:-1] - 1e-15).all()
    assert (geom.z_mid < geom.z_if[1:] + 1e-15).all()
    mids = 0.5 * (geom.h[1:] + geom.h[:-1])
    assert np.allclose(geom.h_half[1:-1], mids)
    assert np.allclose(geom.h_half[0], 0.5 * geom.h[0])
    assert np.allclose(geom.h_half[-1], 0.5 * geom.h[-1])


def test_bathymetry_slope_and_cosine():
    n, dx = 30, 0.05
    x = np.arange(n) * dx
    zb = 0.3 * x
    b = make_bathymetry(zb, dx, "transmissive")
    assert np.allclose(b.cos3, (1.0 / np.sqrt(1.0 + 0.09)) ** 3, atol=1e-12)


def test_geometry_rejects_negative_depth():
    part = LayerPartition.uniform(2)
    bathy = make_bathymetry(np.zeros(4), 1.0, "periodic")
    with pytest.raises(ValueError):
        build_geometry(np.array([1.0, -0.1, 1.0, 1.0]), bathy, part)


@pytest.mark.parametrize("bc", ["periodic", "wall", "transmissive"])
def test_bathymetry_edges_take_the_ghost_cells_of_the_boundary(bc):
    # the bed holds its cells only; euler_rhs pads it as here, with the
    # default sign, so a wall mirrors the bed and does not negate it
    zb = np.array([0.4, 0.1, 0.3, 0.2])
    b = make_bathymetry(zb, 0.25, bc)
    assert set(Bathymetry._fields) == {"zb", "cos3", "dx", "bc"}
    lo, hi = (zb[-1], zb[0]) if bc == "periodic" else (zb[0], zb[-1])
    assert list(pad_cells(b.zb, b.bc)) == [lo, 0.4, 0.1, 0.3, 0.2, hi]


def test_the_interface_stack_closes_on_the_free_surface():
    # on the layer thicknesses, whose running sums give the interfaces and
    # the midpoints the formulas state
    rng = np.random.default_rng(5)
    part = LayerPartition(np.array([0.1, 0.2, 0.3, 0.4]))
    H = rng.uniform(0.0, 2.0, 30)
    bathy = make_bathymetry(rng.standard_normal(30), 0.1, "wall")
    a = build_geometry(H, bathy, part)
    assert a.h.tobytes() == layer_thicknesses(H, part).tobytes()
    z = np.vstack([bathy.zb, bathy.zb + np.cumsum(a.h, axis=0)])
    assert a.z_if.tobytes() == z.tobytes()
    assert a.z_mid.tobytes() == (0.5 * (z[:-1] + z[1:])).tobytes()


@pytest.mark.parametrize("bc", ["periodic", "wall", "transmissive"])
def test_the_bed_cosine_is_the_cosine_of_the_bed_interface_bitwise(bc):
    # the friction reads the cube of the bed's cosine; the interface-0
    # slope the stresses see is the bed's own slope, so its cube is the same
    rng = np.random.default_rng([len(bc), 7])
    for trial in range(100):
        n, N = int(rng.integers(3, 40)), int(rng.integers(1, 9))
        zb = 10.0 ** rng.uniform(-3, 1) * rng.standard_normal(n)
        bathy = make_bathymetry(zb, 10.0 ** rng.uniform(-3, 0), bc)
        geom = build_geometry(rng.uniform(0.0, 2.0, n), bathy, LayerPartition.uniform(N))
        s = ddx(geom.z_if, bathy.dx, bc)[0]
        c = 1.0 / np.sqrt(1.0 + s * s)
        assert geom.cos3_b is bathy.cos3
        assert (c * c * c).tobytes() == bathy.cos3.tobytes(), trial


@pytest.mark.parametrize("module", [euler, geometry, state, kinematics, rheology,
                                    energy, timeloop, sv], ids=lambda m: m.__name__)
def test_mesh_spacing_boundary_and_dry_threshold_have_one_owner(module):
    # the bed holds dx and the boundary kind, a geometry carries the bed's,
    # and the dry threshold is the constant H_DRY: no kernel restates them
    public = [f for name, f in vars(module).items() if inspect.isfunction(f)
              and f.__module__ == module.__name__ and not name.startswith("_")]
    assert public
    for f in public:
        params = inspect.signature(f).parameters
        assert "h_dry" not in params, f.__name__
        if "bathy" in params or "geom" in params:
            assert not {"dx", "bc"} & set(params), f.__name__
    for dx in (0.25, 1e-3):
        assert make_bathymetry(np.zeros(4), dx, "wall").dx == dx
