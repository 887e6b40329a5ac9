"""Two budgets of the transport, read from the evaluations the stepper makes.

A step's stages each evaluate the tendencies of one state; SSP-RK2 averages
two, forward Euler takes one.  So the water that crosses a transmissive
end in a step, and the transport's own energy rate over it, are the stage
means of what each evaluation computes, not the values at the step's
start.  The stepping loop owns its evaluations, so these tests record
them by wrapping the closure that `make_rhs` hands the loop.
"""
import numpy as np
import pytest

from layerflow import timeloop
from layerflow.scenario import parse_scenario
from layerflow.state import velocities
from layerflow.timeloop import run
from test_golden import GOLDEN


def _record_evaluations(monkeypatch, book):
    """book(state, r) of every evaluation the stepping loop makes from now
    on, in order: the accepted states' and, under SSP-RK2, the second
    stages'.  `book` reads the state when the evaluation runs, since
    `step` overwrites its first stage's state in place."""
    booked = []
    real = timeloop.make_rhs

    def make_rhs(scn):
        state0, rhs, ctx = real(scn)

        def recorded(state, geom=None):
            r = rhs(state, geom)
            booked.append(book(state, r))
            return r
        return state0, recorded, ctx

    monkeypatch.setattr(timeloop, "make_rhs", make_rhs)
    return booked


def _stage_means(booked, result):
    """(dt, stage mean of the booked values) of each step of a run."""
    dt = np.diff(result.times)
    stages = (len(booked) - 1) // dt.size  # the last state is evaluated, never stepped
    assert len(booked) == stages * dt.size + 1 and stages in (1, 2)
    per_stage = np.array(booked[:-1]).reshape(dt.size, stages)
    return dt, per_stage.mean(axis=1)


@pytest.mark.parametrize("name", ["viscous_interface_transmissive_rk2",
                                  "inviscid_receding_transmissive_rk2",
                                  "dry_front_transmissive_euler"])
def test_mass_crosses_a_transmissive_end_as_the_stage_mean_end_discharge(monkeypatch, name):
    # a zero-gradient end's HLL flux is the end cell's own discharge, so a
    # step's mass change is dt times the stage mean of the discharge in at
    # the first cell less the discharge out at the last; booking the first
    # stage alone misses by 7.3e-7 and 4.5e-5 of M0 on the SSP-RK2 cases
    booked = _record_evaluations(
        monkeypatch, lambda state, r: float(state.q[:, 0].sum()) - float(state.q[:, -1].sum()))
    result = run(parse_scenario(GOLDEN[name][0]))
    dt, net_in = _stage_means(booked, result)
    gap = np.abs(np.diff(result.mass) - dt * net_in)
    assert result.summary["steps"] > 0 and gap.max() <= 1e-15 * result.mass[0]


def _transport_energy_rate(scn):
    """The energy rate of the transport an evaluation applies, over its
    window: P = sum[(g eta - 1/2 sum_a l_a u_a^2) dH + sum_a u_a dq_a] dx,
    with eta = z_b + H, since E = sum[sum_a q_a^2 / (2 l_a H) + g (H z_b
    + H^2 / 2)] dx."""
    part, g, zb, dx = scn.partition, scn.g, scn.bed.zb, scn.dx
    l = part.fractions[:, None]

    def rate(state, r):
        a, b = r.window
        H, q = state.H[a:b], state.q[:, a:b]
        u = velocities(H, q, part)
        head = g * (zb[a:b] + H) - 0.5 * (l * u * u).sum(axis=0)
        return float(((head * r.dH).sum() + (u * r.dq).sum()) * dx)
    return rate


def test_the_stage_mean_energy_rate_closes_the_energy_change_at_second_order(monkeypatch):
    # what the transport's stage-mean rate leaves of each step's energy
    # change is SSP-RK2's own time error, shown as a share of the run's
    # integrated residual: 1.61e-2, 1.67e-3 and 2.13e-4 at CFL 0.5, 0.25
    # and 0.125.  The rate at the step's start leaves 0.121, 0.057 and
    # 0.027, a first-order rule
    config = GOLDEN["inviscid_periodic_bump_rk2"][0]
    shares = []
    for cfl in (0.5, 0.25, 0.125):
        scn = parse_scenario(config.replace("controls.cfl = 0.5\n", f"controls.cfl = {cfl}\n"))
        assert scn.controls.cfl == cfl
        booked = _record_evaluations(monkeypatch, _transport_energy_rate(scn))
        result = run(scn)
        dt, P = _stage_means(booked, result)
        remainder = np.diff(result.E_total) - dt * P
        shares.append(abs(remainder.sum()) / abs((result.residuals * dt).sum()))
    assert shares[0] < 0.05
    assert shares[0] >= 3.0 * shares[1] and shares[1] >= 3.0 * shares[2], shares
