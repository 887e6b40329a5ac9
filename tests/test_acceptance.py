"""End-to-end acceptance gate.

One test per built-in criterion; each prints its pass/fail line so a
plain `pytest -v -s tests/test_acceptance.py` doubles as the report.

Each criterion's figures are pinned: its detail text, with wall times
masked, must read as recorded below, so a change to the solver or to the
way a criterion drives it cannot move a figure silently.  A change that
moves one on purpose re-records it and explains the new value.
"""
import re

from layerflow import acceptance, energy

# criteria 1, 2, 3, 5 and 9 run at the default CFL; re-recorded when it
# rose from 0.8 to 0.9 (max|u| 1.85e-15, drift 4.44e-16 over 560 steps,
# 1.55e-15 / 8.88e-16, step growth -1.39e-04 and trajectory gap 4.16e-16 before)
DETAILS = {
    # the lake's bump bed takes an exp of exact IEEE operations, within
    # 1 ulp of np.exp: 1.83e-15 before
    1: "max|u|=1.94e-15 (<=1e-12), max|eta-eta0|=6.66e-16 (<=1e-12), wall=…s (<5s)",
    2: "relative drift=1.48e-16 over 498 steps (<=1e-12)",
    3: "max|u_a-u|=1.23e-15, max|H4-H1|=4.44e-16 (<=1e-10)",
    4: "L1 errors 6.254e-02 -> 3.656e-02, order=0.77 (>=0.7), wall=…s (<30s)",
    5: "max relative step growth=-1.60e-04 (<=1e-12), max D_G=-0.00e+00 (<=0)",
    6: "worst relative gap=6.90e-16 over 1000 states (<=1e-12), signs nonpositive=True",
    7: "worst |int(what) - h w|=9.31e-15 for N in 2,3,5 (<=1e-12)",
    8: "monotone=True, rate=0.09743 vs oracle 0.09743 (gap 0.0%, <=10%), wall=…s (<10s)",
    # both trajectories pass their viscous operators through the implicit
    # stage, whose conjugate-gradient sums round differently: 2.22e-16 at
    # CFL 0.8 before that stage; 5.83e-16 while those sums were OpenBLAS's
    # and the bed's cos^3 was `** 3`
    9: "rhs gap=3.68e-16 (<=1e-14), trajectory gap after 100 steps=6.66e-16 (<=1e-12)",
    10: "upwind terms nonpositive=True, match closed form=True, "
        "anti-upwind witness=39.254 (>0)",
    11: "k_l=0: rate error 5.0e-02 -> 8.0e-04 (order 2.00), profile error 1.0e-02 -> "
        "1.6e-04 (order 2.00); k_l=0.00999: rate error 6.6e-03 -> 1.0e-04 (order 2.00), "
        "profile error 1.2e-04 -> 2.2e-06 (order 1.99) for N=4..32, orders from N=16 "
        "to 32 (>=1.8), wall=…s (<10s)",
}


def _check(fn):
    res = fn()
    print(res.line())
    assert res.passed, res.detail
    assert re.sub(r"wall=[0-9.]+s", "wall=…s", res.detail) == DETAILS[res.cid]


def test_criterion_01_lake_at_rest():
    _check(acceptance.criterion_1)


def test_criterion_02_mass_conservation():
    _check(acceptance.criterion_2)


def test_criterion_03_layer_collapse():
    _check(acceptance.criterion_3)


def test_criterion_04_dry_dam_break_convergence():
    _check(acceptance.criterion_4)


def test_criterion_05_energy_monotonicity():
    _check(acceptance.criterion_5)


def test_criterion_06_dissipation_identity():
    _check(acceptance.criterion_6)


def test_criterion_07_profile_mean_identity():
    _check(acceptance.criterion_7)


def test_criterion_08_shear_relaxation_rate():
    _check(acceptance.criterion_8)


def test_criterion_09_single_layer_equivalence():
    _check(acceptance.criterion_9)


def test_criterion_10_upwind_energy_optimality():
    _check(acceptance.criterion_10)


def test_criterion_11_convergence_in_the_layer_count():
    _check(acceptance.criterion_11)


def test_criterion_06_fails_when_the_stress_part_turns_positive(monkeypatch):
    """Moving dissipation from friction into a positive stress part keeps
    their sum, and so the work identity: only the sign check fails."""
    true_dissipation = energy.newtonian_dissipation

    def shifted(*args):
        stress, fric = true_dissipation(*args)
        return 1.0 - stress, fric + 2.0 * stress - 1.0

    monkeypatch.setattr(energy, "newtonian_dissipation", shifted)
    res = acceptance.criterion_6()
    assert not res.passed
    assert res.detail.endswith("signs nonpositive=False")
    assert float(re.search(r"gap=(\S+)", res.detail).group(1)) <= 1e-12
