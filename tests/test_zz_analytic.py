import math

import numpy as np
import pytest

from collide_qfi.channels import ModelParams
from collide_qfi.fisher import thermal_fi_nbar
from collide_qfi.zz_analytic import zz_delta, zz_f1, zz_fn, zz_probs


def test_zz_probs_values():
    p = zz_probs(1.0, 0.5)
    assert abs(p.p_g - 2.0 / 3.0) < 1e-15
    assert abs(p.p_e - 1.0 / 3.0) < 1e-15
    decay = 1.0 - math.exp(-1.5)
    assert abs(p.p_gg - (1.0 - decay / 3.0)) < 1e-15
    assert abs(p.p_eg - decay * 2.0 / 3.0) < 1e-15


def test_zz_probs_limits():
    # no bath window: no transitions
    p = zz_probs(1.0, 0.0)
    assert p.p_gg == 1.0 and p.p_eg == 0.0
    # long window: transitions relax to the Gibbs populations
    p = zz_probs(1.0, 100.0)
    assert abs(p.p_gg - p.p_g) < 1e-12
    assert abs(p.p_eg - p.p_g) < 1e-12


def test_zz_probs_validation():
    with pytest.raises(ValueError):
        zz_probs(-1.0, 0.5)


def test_zz_f1_angle_dependence():
    fth = thermal_fi_nbar(1.0)
    assert abs(zz_f1(1.0, 0.0)) < 1e-15
    assert abs(zz_f1(1.0, math.pi / 4) - 0.5 * fth) < 1e-15
    assert abs(zz_f1(1.0, math.pi / 2) - fth) < 1e-15


def test_zz_delta_matches_finite_difference():
    # rebuild Delta from numerically differentiated transition probabilities
    h = 1e-7
    for nbar in (0.3, 1.0, 5.0):
        for gt in (0.1, 0.8, 2.0):
            p = zz_probs(nbar, gt)
            pp = zz_probs(nbar + h, gt)
            pm = zz_probs(nbar - h, gt)
            dp_gg = (pp.p_gg - pm.p_gg) / (2 * h)
            dp_eg = (pp.p_eg - pm.p_eg) / (2 * h)
            expect = (p.p_g / (p.p_gg * (1 - p.p_gg)) * dp_gg ** 2
                      + p.p_e / (p.p_eg * (1 - p.p_eg)) * dp_eg ** 2)
            got = zz_delta(nbar, gt)
            assert abs(got - expect) < 1e-6 * expect


def test_zz_delta_matches_high_precision_reference():
    # 60-digit references from the same formulas (mpmath): at small nbar and
    # small gamma_tau, 1 - p_g, 1 - e^-Gamma and 1 - p_gg cancel unless each
    # is formed directly
    for nbar, gt, ref in ((1e-8, 1e-3, 99950.015661001696386),
                          (1e-8, 0.5, 39346933.248861390799),
                          (1e-6, 1e-3, 999.49916512884110041),
                          (1e-6, 1e-10, 0.000099999899995299992469),
                          (1.0, 1e-8, 8.3333331083333357577e-9),
                          (1.0, 1e-10, 8.3333333310833336372e-11)):
        assert abs(zz_delta(nbar, gt) - ref) <= 2e-15 * ref, (nbar, gt)


def test_zz_delta_validation():
    with pytest.raises(ValueError):
        zz_delta(0.0, 0.5)
    with pytest.raises(ValueError):
        zz_delta(1.0, 0.0)


def test_zz_fn_progression_is_arithmetic():
    f1 = zz_fn(1.0, 0.5, 1)
    d = zz_delta(1.0, 0.5)
    for n in range(2, 6):
        assert abs(zz_fn(1.0, 0.5, n) - (f1 + (n - 1) * d)) < 1e-15
    assert abs(f1 - zz_f1(1.0, math.pi / 2)) < 1e-15
    with pytest.raises(ValueError):
        zz_fn(1.0, 0.5, 0)
    for n in (1, 2):
        with pytest.raises(ValueError, match="nonnegative"):
            zz_fn(1.0, -1.0, n)


def test_zz_fn_takes_the_chains_ancilla_counts():
    # a count is an integer, as in the chain: 2.5 read 0.197928 and True
    # read F_1; a numpy integer is a count, and N has no upper cap here
    for bad in (2.5, 2.0, True):
        with pytest.raises(ValueError,
                           match=f"n_measured must be an integer, got {bad!r}"):
            zz_fn(1.0, 0.5, bad)
    assert zz_fn(1.0, 0.5, np.int64(2)) == zz_fn(1.0, 0.5, 2)
    assert math.isfinite(zz_fn(1.0, 0.5, 5))
    with pytest.raises(ValueError, match="n_measured must be >= 1"):
        zz_fn(1.0, 0.5, 0)


def test_closed_forms_reject_what_the_chain_rejects():
    # the closed forms check their point with the chain's rule: no value
    # past NBAR_MAX (zz_delta read 0.0 at 1e100 and raised OverflowError at
    # 1e200), and none where 2 gamma_tau (2nbar+1) overflows (nan)
    closed_forms = (zz_probs, zz_delta, lambda nbar, gt: zz_fn(nbar, gt, 1),
                    lambda nbar, gt: zz_fn(nbar, gt, 2))
    for nbar, gamma_tau, message in ((1e100, 0.5, "nbar must be in"),
                                     (1e200, 0.5, "nbar must be in"),
                                     (1.0, 1e308, "must be finite"),
                                     (1e10, 1e300, "must be finite"),
                                     (math.nan, 0.5, "must be finite"),
                                     (1.0, -1.0, "nonnegative")):
        with pytest.raises(ValueError, match=message):
            ModelParams(nbar=nbar, gamma_tau_se=gamma_tau)
        for f in closed_forms:
            with pytest.raises(ValueError, match=message):
                f(nbar, gamma_tau)
            # numpy scalars too, without an overflow warning
            with pytest.raises(ValueError, match=message):
                f(np.float64(nbar), np.float64(gamma_tau))
    # just inside the bound every closed form has a finite value
    assert math.isfinite(zz_probs(1.0, 1e307).p_eg)
    for f in closed_forms[1:]:
        assert math.isfinite(f(1.0, 1e307))
