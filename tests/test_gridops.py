"""Derivative stencils, layer sums and ghost padding."""
import numpy as np
import pytest

from layerflow.gridops import cumsum_layers, ddx, ddx_adjoint, pad_cells


def test_ddx_exact_on_linear_fields():
    # one-sided end stencils keep linear fields exact for open boundaries
    n, dx = 17, 0.3
    x = np.arange(n) * dx
    f = 2.0 - 1.5 * x
    for bc in ("transmissive", "wall"):
        assert np.allclose(ddx(f, dx, bc), -1.5, atol=1e-13)


def test_ddx_periodic_second_order():
    errs = []
    for n in (32, 64):
        dx = 1.0 / n
        x = (np.arange(n) + 0.5) * dx
        f = np.sin(2 * np.pi * x)
        d = ddx(f, dx, "periodic")
        errs.append(np.abs(d - 2 * np.pi * np.cos(2 * np.pi * x)).max())
    order = np.log2(errs[0] / errs[1])
    assert order > 1.9


@pytest.mark.parametrize("shape", [(3,), (4, 3), (2, 4, 3), (100,), (4, 100), (2, 4, 100)])
def test_periodic_ddx_and_its_adjoint_are_the_wrapped_stencil_bitwise(shape):
    # (f[i+1] - f[i-1]) / (2 dx) with the neighbours wrapped, one subtraction
    # and one division a cell, along the last axis behind any leading axes
    rng = np.random.default_rng(shape)
    f = rng.standard_normal(shape) * 10.0 ** rng.integers(-8, 8, shape)
    dx = 0.37
    want = (np.roll(f, -1, axis=-1) - np.roll(f, 1, axis=-1)) / (2.0 * dx)
    got = ddx(f, dx, "periodic")
    assert got.shape == f.shape and got.tobytes() == want.tobytes()
    assert ddx_adjoint(f, dx, "periodic").tobytes() == (-want).tobytes()


@pytest.mark.parametrize("bc", ["periodic", "wall", "transmissive"])
@pytest.mark.parametrize("n", [3, 4, 5, 8])
def test_ddx_adjoint_is_the_transpose_of_ddx(n, bc):
    # column j of each matrix is the operator applied to the unit vector e_j;
    # at n = 3 both one-sided end rows of ddx reach the middle cell
    dx = 0.3
    eye = np.eye(n)
    D = np.array([ddx(e, dx, bc) for e in eye]).T
    Dt = np.array([ddx_adjoint(e, dx, bc) for e in eye]).T
    assert np.abs(Dt - D.T).max() <= 1e-15 * np.abs(D).max()
    # and along the last axis of a stack of rows, as the layers use it
    rng = np.random.default_rng(n)
    f, g = rng.standard_normal((2, 3, n))
    rows = np.array([ddx_adjoint(r, dx, bc) for r in g])
    assert ddx_adjoint(g, dx, bc).tobytes() == rows.tobytes()
    assert abs((f * ddx(g, dx, bc)).sum() - (ddx_adjoint(f, dx, bc) * g).sum()) < 1e-12


def test_pad_cells_periodic_wraps():
    f = np.array([1.0, 2.0, 3.0])
    p = pad_cells(f, "periodic")
    assert list(p) == [3.0, 1.0, 2.0, 3.0, 1.0]


def test_pad_cells_transmissive_copies_edges():
    f = np.array([1.0, 2.0, 3.0])
    p = pad_cells(f, "transmissive")
    assert list(p) == [1.0, 1.0, 2.0, 3.0, 3.0]


def test_pad_cells_wall_flips_sign():
    f = np.array([1.0, 2.0, 3.0])
    p = pad_cells(f, "wall", sign=-1.0)
    assert list(p) == [-1.0, 1.0, 2.0, 3.0, -3.0]
    # depth-like fields keep their sign at walls
    p2 = pad_cells(f, "wall")
    assert list(p2) == [1.0, 1.0, 2.0, 3.0, 3.0]


def test_unknown_boundary_rejected():
    f = np.zeros(4)
    with pytest.raises(ValueError):
        ddx(f, 0.1, "open")
    with pytest.raises(ValueError):
        pad_cells(f, "open")


@pytest.mark.parametrize("N", [1, 2, 12])
def test_cumsum_layers_matches_numpy_cumsum_bitwise(N):
    rng = np.random.default_rng(N)
    f = rng.standard_normal((N, 257)) * 10.0 ** rng.integers(-8, 8, (N, 257))
    fwd = cumsum_layers(f)
    top = cumsum_layers(f, from_top=True)
    assert fwd.tobytes() == np.cumsum(f, axis=0).tobytes()
    assert top.tobytes() == np.cumsum(f[::-1], axis=0)[::-1].tobytes()
    # into a given array, which may be the input itself
    out = np.empty((N + 1, 257))
    cumsum_layers(f, from_top=True, out=out[:-1])
    assert out[:-1].tobytes() == top.tobytes()
    g = f.copy()
    assert cumsum_layers(g, out=g) is g and g.tobytes() == fwd.tobytes()


@pytest.mark.parametrize("shape", [(3,), (40,), (4, 40)])
def test_periodic_stencils_match_roll_formulas_bitwise(shape):
    rng = np.random.default_rng(sum(shape))
    f = rng.standard_normal(shape) * 10.0 ** rng.integers(-6, 6, shape)
    dx = 0.37
    d1 = (np.roll(f, -1, axis=-1) - np.roll(f, 1, axis=-1)) / (2.0 * dx)
    assert ddx(f, dx, "periodic").tobytes() == d1.tobytes()
    # the periodic transpose is -ddx
    assert ddx_adjoint(f, dx, "periodic").tobytes() == (-d1).tobytes()
