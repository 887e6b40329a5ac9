"""Reference kernel that measures the host's current speed.

A frozen single-layer shallow-water solver (HLL fluxes, hydrostatic
reconstruction over a bump, SSP-RK2) on 800 cells: the same mix of small
numpy operations, temporaries and Python calls that a layerflow step
makes, but none of layerflow's code, so a change to the program leaves
it alone.  Its time swings with the host's speed much as the program's
does; the runner scales phase times by it.  Do not change it: every
scaled time measured so far depends on it.
"""
from __future__ import annotations

import time

import numpy as np

N_CELLS = 800
STEPS = 12
REPEATS = 7
G = 9.81


def _pad(f):
    return np.concatenate([f[..., :1], f, f[..., -1:]], axis=-1)


def _hll(h_l, u_l, h_r, u_r):
    c_l, c_r = np.sqrt(G * h_l), np.sqrt(G * h_r)
    s_l = np.minimum(u_l - c_l, u_r - c_r)
    s_r = np.maximum(u_l + c_l, u_r + c_r)
    f_l = np.stack([h_l * u_l, h_l * u_l * u_l + 0.5 * G * h_l * h_l])
    f_r = np.stack([h_r * u_r, h_r * u_r * u_r + 0.5 * G * h_r * h_r])
    q_l, q_r = np.stack([h_l, h_l * u_l]), np.stack([h_r, h_r * u_r])
    den = np.where(s_r - s_l > 1e-12, s_r - s_l, 1.0)
    hll = (s_r * f_l - s_l * f_r + s_l * s_r * (q_r - q_l)) / den
    flux = np.where(s_l >= 0, f_l, np.where(s_r <= 0, f_r, hll))
    return flux, float(np.max(np.abs(s_l) + np.abs(s_r)))


def _rhs(h, m, zb, dx):
    u = np.where(h > 1e-8, m / np.maximum(h, 1e-8), 0.0)
    hp, up, zp = _pad(h), _pad(u), _pad(zb)
    eta = hp + zp
    zf = np.maximum(zp[:-1], zp[1:])
    h_l, h_r = np.maximum(eta[:-1] - zf, 0.0), np.maximum(eta[1:] - zf, 0.0)
    f, smax = _hll(h_l, up[:-1], h_r, up[1:])
    dh = -(f[0, 1:] - f[0, :-1]) / dx
    dm = -(f[1, 1:] - f[1, :-1]) / dx + 0.5 * G * (h_l[1:] ** 2 - h_r[:-1] ** 2) / dx
    return dh, dm, smax


def _solve():
    x = (np.arange(N_CELLS) + 0.5) / N_CELLS
    zb = 0.1 * np.exp(-(((x - 0.3) / 0.05) ** 2))
    h = np.maximum(np.where(x < 0.5, 1.0, 0.5) - zb, 0.0)
    m = np.zeros(N_CELLS)
    dx = 1.0 / N_CELLS
    for _ in range(STEPS):
        dh, dm, smax = _rhs(h, m, zb, dx)
        dt = 0.4 * dx / smax
        h1, m1 = h + dt * dh, m + dt * dm
        dh, dm, _ = _rhs(h1, m1, zb, dx)
        h, m = 0.5 * (h + h1 + dt * dh), 0.5 * (m + m1 + dt * dm)
    return h


def reference_s() -> float:
    """Median wall time of REPEATS runs of the kernel."""
    times = []
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        _solve()
        times.append(time.perf_counter() - t0)
    return sorted(times)[REPEATS // 2]
