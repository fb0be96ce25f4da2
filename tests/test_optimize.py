import math

import numpy as np
import pytest
from scipy.optimize import minimize

from collide_qfi import optimize, qmat
from collide_qfi.channels import Interaction, ModelParams
from collide_qfi.collision import AncillaBlock
from collide_qfi.fisher import fisher_for
from collide_qfi.optimize import (BlochAngles, SchmidtParams, bloch_state,
                                  optimize_b1, optimize_b2, schmidt_state)


def test_bloch_angles_validation():
    with pytest.raises(ValueError):
        BlochAngles(theta=-0.1)
    with pytest.raises(ValueError):
        BlochAngles(theta=1.0, phi=7.0)


def test_bloch_state_poles_and_equator():
    assert np.allclose(bloch_state(BlochAngles(0.0)), qmat.KET_G)
    assert np.allclose(bloch_state(BlochAngles(math.pi)), qmat.KET_E, atol=1e-15)
    assert np.allclose(bloch_state(BlochAngles(math.pi / 2)), qmat.KET_PLUS_X)
    psi = bloch_state(BlochAngles(1.2, 2.3))
    assert abs(np.vdot(psi, psi) - 1.0) < 1e-12


def test_schmidt_params_validation():
    with pytest.raises(ValueError):
        SchmidtParams(r=0.4, theta_m=0.0, theta_n=0.0, phi_n=0.0, alpha=0.0)
    with pytest.raises(ValueError):
        SchmidtParams(r=0.8, theta_m=4.0, theta_n=0.0, phi_n=0.0, alpha=0.0)
    with pytest.raises(ValueError):
        SchmidtParams(r=0.8, theta_m=0.0, theta_n=0.0, phi_n=0.0, alpha=7.0)


def test_schmidt_state_product_limit():
    # r = 1 collapses to the product |+m> (x) |+n>
    p = SchmidtParams(r=1.0, theta_m=math.pi / 2, theta_n=0.0, phi_n=0.0, alpha=0.0)
    psi = schmidt_state(p)
    expect = np.kron(qmat.KET_PLUS_X, qmat.KET_G)
    assert np.allclose(psi, expect, atol=1e-15)


def test_schmidt_state_bell_limit():
    p = SchmidtParams(r=0.5, theta_m=0.0, theta_n=0.0, phi_n=0.0, alpha=0.0)
    psi = schmidt_state(p)
    # equal weights on |gg> and |ee> up to the local-frame signs
    probs = np.abs(psi) ** 2
    assert abs(probs[0] - 0.5) < 1e-12
    assert abs(probs[3] - 0.5) < 1e-12


def test_schmidt_state_normalized_and_weights():
    rng = np.random.default_rng(0)
    for _ in range(10):
        p = SchmidtParams(r=0.5 + 0.5 * rng.random(),
                          theta_m=rng.random() * math.pi,
                          theta_n=rng.random() * math.pi,
                          phi_n=rng.random() * 2 * math.pi,
                          alpha=rng.random() * 2 * math.pi)
        psi = schmidt_state(p)
        assert abs(np.vdot(psi, psi) - 1.0) < 1e-12
        # Schmidt coefficients of the vector are sqrt(r), sqrt(1-r)
        s = np.linalg.svd(psi.reshape(2, 2), compute_uv=False)
        assert abs(s[0] ** 2 - max(p.r, 1 - p.r)) < 1e-12


def test_optimize_b1_requires_exchange():
    params = ModelParams(nbar=1.0, gamma_tau_se=0.5, interaction=Interaction.ZZ)
    with pytest.raises(ValueError):
        optimize_b1(params, 1)
    pe = ModelParams(nbar=1.0, gamma_tau_se=0.5, interaction=Interaction.EXCHANGE)
    with pytest.raises(ValueError):
        optimize_b1(pe, 5)


def test_optimize_b1_beats_grid_and_reproduces_argmax():
    params = ModelParams(nbar=1.0, gamma_tau_se=0.5,
                         interaction=Interaction.EXCHANGE)
    opt = optimize_b1(params, 1)
    assert 0.0 <= opt.argmax.theta <= math.pi
    assert opt.evaluations > 181
    # optimum dominates a coarse independent scan
    for theta in np.linspace(0.0, math.pi, 25):
        block = AncillaBlock(b=1, psi=bloch_state(BlochAngles(float(theta))))
        assert fisher_for(params, block, 1).value_nbar <= opt.value_nbar + 1e-9
    # and re-evaluating the reported argmax reproduces the reported value
    block = AncillaBlock(b=1, psi=bloch_state(opt.argmax))
    assert abs(fisher_for(params, block, 1).value_nbar - opt.value_nbar) < 1e-10


def test_optimize_b2_validation():
    params = ModelParams(nbar=1.0, gamma_tau_se=0.5, interaction=Interaction.ZZ)
    with pytest.raises(ValueError):
        optimize_b2(params, 2)
    pe = ModelParams(nbar=1.0, gamma_tau_se=0.5, interaction=Interaction.EXCHANGE)
    with pytest.raises(ValueError):
        optimize_b2(pe, 3)


def test_optimize_b2_dominates_seeded_corners():
    params = ModelParams(nbar=1.0, gamma_tau_se=0.5,
                         interaction=Interaction.EXCHANGE)
    opt = optimize_b2(params, 2, seed=0, n_random_starts=2)
    assert 0.5 <= opt.argmax.r <= 1.0
    assert opt.evaluations > 0
    corners = [
        np.kron(qmat.KET_G, qmat.KET_G),
        np.kron(qmat.KET_G, qmat.KET_PLUS_X),
        np.kron(qmat.KET_PLUS_X, qmat.KET_G),
        np.kron(qmat.KET_PLUS_X, qmat.KET_PLUS_X),
    ]
    for psi in corners:
        block = AncillaBlock(b=2, psi=psi)
        assert fisher_for(params, block, 2).value_nbar <= opt.value_nbar + 1e-9
    # re-evaluating the reported argmax reproduces the reported value
    block = AncillaBlock(b=2, psi=schmidt_state(opt.argmax))
    assert abs(fisher_for(params, block, 2).value_nbar - opt.value_nbar) < 1e-9


def test_optimize_b2_deterministic_for_fixed_seed():
    params = ModelParams(nbar=1.0, gamma_tau_se=0.5,
                         interaction=Interaction.EXCHANGE)
    a = optimize_b2(params, 2, seed=3, n_random_starts=2)
    b = optimize_b2(params, 2, seed=3, n_random_starts=2)
    assert a.value_nbar == b.value_nbar
    assert a.argmax == b.argmax
    assert a == b


def scipy_nelder_mead(g, x0, maxfev):
    """scipy's bounded Nelder-Mead with the options optimize_b2 uses, plus
    the number of loop passes it ended without completing."""
    passes = []
    res = minimize(g, x0, method="Nelder-Mead", bounds=optimize._B2_BOUNDS,
                   callback=lambda intermediate_result: passes.append(1),
                   options={"xatol": 1e-7, "fatol": 1e-7,
                            "maxiter": maxfev, "maxfev": maxfev})
    # The callback runs after every loop pass; nit - 1 counts the completed
    # ones, so the difference is a pass cut short by the evaluation limit.
    return res, len(passes) - (res.nit - 1)


def assert_matches_scipy(g, starts, maxfev):
    xs, funs, nfev = optimize._nelder_mead(
        lambda x: np.array([g(row) for row in x]), np.array(starts))
    cut = 0
    for x0, x, fun, count in zip(starts, xs, funs, nfev):
        res, unfinished = scipy_nelder_mead(g, x0, maxfev)
        assert np.array_equal(x, res.x)
        assert fun == res.fun
        assert count == res.nfev
        cut += unfinished
    return nfev, cut


def test_lockstep_nelder_mead_equals_scipy():
    # the lock-step search must take each start through the same points as
    # scipy, so one deterministic scalar objective drives both
    params = ModelParams(nbar=10.0, gamma_tau_se=1.0,
                         interaction=Interaction.EXCHANGE)

    def g(x):
        block = AncillaBlock(b=2, psi=schmidt_state(
            optimize._schmidt_from_vector(x)))
        return -fisher_for(params, block, 2).value_nbar

    rng = np.random.default_rng(0)
    randoms = [optimize._B2_LO + rng.random(5) * (optimize._B2_HI - optimize._B2_LO)
               for _ in range(30)]
    # the seeds put r = 1 on its upper bound, where the initial simplex step
    # reflects into the interior; random start 29 runs into the evaluation
    # limit inside an iteration
    starts = [np.array(s) for s in optimize._B2_SEEDS] + [randoms[29]]
    nfev, cut = assert_matches_scipy(g, starts, optimize._NM_MAXFEV)
    assert nfev[-1] == optimize._NM_MAXFEV
    assert cut >= 1


def test_lockstep_nelder_mead_stops_like_scipy(monkeypatch):
    # a rough objective with a low evaluation limit ends many starts inside
    # an iteration, both before an expansion or contraction and in a shrink
    weights = np.array([12.9898, 78.233, 37.719, 4.581, 91.17])

    def g(x):
        return float(np.sin(x @ weights) * 43758.5453 % 1.0)

    limit = 30
    monkeypatch.setattr(optimize, "_NM_MAXFEV", limit)
    monkeypatch.setattr(optimize, "_NM_MAXITER", limit)
    rng = np.random.default_rng(1)
    starts = [optimize._B2_LO + rng.random(5) * (optimize._B2_HI - optimize._B2_LO)
              for _ in range(40)]
    nfev, cut = assert_matches_scipy(g, starts, limit)
    assert np.all(nfev == limit)
    assert cut >= 10


def test_schmidt_states_clip_like_schmidt_from_vector():
    # the stacked parameterization clips each row into the bounds exactly as
    # the single-state path that reports the argmax does
    rng = np.random.default_rng(2)
    x = rng.uniform(-1.0, 7.0, size=(20, 5))
    x[0] = (1.0, 0.0, 0.0, 2 * math.pi, 2 * math.pi)
    stacked = optimize._schmidt_states(x)
    for row, psi in zip(x, stacked):
        assert np.array_equal(
            psi, schmidt_state(optimize._schmidt_from_vector(row)))
