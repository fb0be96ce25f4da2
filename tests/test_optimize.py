import itertools
import json
import math
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from collide_qfi import optimize, qmat
from collide_qfi.channels import Interaction, ModelParams
from collide_qfi.collision import AncillaBlock
from collide_qfi.fisher import (RankChangeError, fisher_for, qfi_values,
                                thermal_fi_nbar)
from collide_qfi.optimize import (BlochAngles, SchmidtParams, bloch_state,
                                  optimize_b1, optimize_b2, schmidt_state)
from collide_qfi.zz_analytic import zz_fn
from oracles import KET_E


def test_bloch_angles_validation():
    with pytest.raises(ValueError):
        BlochAngles(theta=-0.1)


def test_bloch_state_poles_and_equator():
    assert np.allclose(bloch_state(BlochAngles(0.0)), qmat.KET_G)
    assert np.allclose(bloch_state(BlochAngles(math.pi)), KET_E, atol=1e-15)
    assert np.allclose(bloch_state(BlochAngles(math.pi / 2)), qmat.KET_PLUS_X)
    psi = bloch_state(BlochAngles(1.2))
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


@settings(max_examples=50, derandomize=True, deadline=None)
@given(interaction=st.sampled_from(list(Interaction)),
       b=st.sampled_from([1, 2]), copies=st.sampled_from([1, 2]),
       nbar=st.floats(0.1, 5.0), gamma_tau=st.floats(0.05, 2.0),
       g_tau=st.floats(0.2, 1.5), phi=st.floats(0.0, 2 * math.pi),
       seed=st.integers(0, 2 ** 32 - 1))
def test_qfi_is_invariant_under_collective_z_rotation(interaction, b, copies,
                                                      nbar, gamma_tau, g_tau,
                                                      phi, seed):
    # the premise of optimize_b1's one-angle report and of the Schmidt form
    # of optimize_b2's optimum: R = Rz(phi) on every qubit of the block
    # leaves the QFI of N = b or 2b outgoing ancillas unchanged
    params = ModelParams(nbar=nbar, gamma_tau_se=gamma_tau, g_tau_sa=g_tau,
                         interaction=interaction)
    rng = np.random.default_rng(seed)
    psi = rng.normal(size=2 ** b) + 1j * rng.normal(size=2 ** b)
    psi /= np.linalg.norm(psi)
    rz = np.array([1.0, np.exp(1j * phi)])
    rotated = rz if b == 1 else np.kron(rz, rz)
    plain, turned = qfi_values(params, np.array([psi, rotated * psi]),
                               copies * b)
    assert abs(turned - plain) <= 1e-12 * plain


def test_optimize_b1_zz_optimum_is_plusx():
    # under zz the ascent finds Seah et al.'s |+x> (theta = pi/2), whose QFI
    # is the closed form zz_fn
    for nbar in (0.1, 0.5, 2.0, 10.0):
        for gamma_tau in (0.05, 0.3, 1.0, 3.0):
            params = ModelParams(nbar=nbar, gamma_tau_se=gamma_tau,
                                 interaction=Interaction.ZZ)
            for n in range(1, 5):
                opt = optimize_b1(params, n)
                closed = zz_fn(nbar, gamma_tau, n)
                assert abs(opt.argmax.theta - math.pi / 2) <= 1e-6
                assert abs(opt.value_nbar - closed) <= 1e-12 * closed
    pe = ModelParams(nbar=1.0, gamma_tau_se=0.5, interaction=Interaction.EXCHANGE)
    with pytest.raises(ValueError):
        optimize_b1(pe, 5)


def test_optimize_b1_beats_grid_and_reproduces_argmax(monkeypatch):
    # at N = 1, 2, 4 under both interactions the optimum reaches the best
    # point of a stacked 181-angle scan, and evaluations counts the state
    # rows of the optimizer's qfi_and_gradient calls. From three starts
    # (theta = 0, pi/2, pi) the exchange optimum at nbar=10, gamma_tau=0.3,
    # N=4 reads 47% below the scan.
    calls = spy_on_evaluations(monkeypatch)
    thetas = np.linspace(0.0, math.pi, 181)
    psi = np.array([bloch_state(BlochAngles(float(t))) for t in thetas])
    for interaction, (nbar, gamma_tau), n in itertools.product(
            Interaction, ((1.0, 0.5), (10.0, 0.3)), (1, 2, 4)):
        params = ModelParams(nbar=nbar, gamma_tau_se=gamma_tau,
                             interaction=interaction)
        calls.clear()
        opt = optimize_b1(params, n)
        assert 0.0 <= opt.argmax.theta <= math.pi
        assert opt.evaluations == sum(len(c) for c in calls) > 0
        scan = qfi_values(params, psi, n)
        assert opt.value_nbar >= scan.max() * (1 - 1e-12)
        # re-evaluating the reported argmax reproduces the reported value
        block = AncillaBlock(b=1, psi=bloch_state(opt.argmax))
        value = fisher_for(params, block, n).value_nbar
        assert abs(value - opt.value_nbar) <= 1e-10 * opt.value_nbar
    # a rounding-level weight of |e> (theta ~ 1.8e-10 here) reads as
    # theta = 0 exactly, the rule of the Schmidt form
    params = ModelParams(nbar=0.1, gamma_tau_se=0.26,
                         interaction=Interaction.EXCHANGE)
    assert optimize_b1(params, 2).argmax.theta == 0.0


def test_optimize_b1_ties_are_relative():
    # at nbar=10, gamma_tau=0.5, N=4 the QFI is ~8.8e-5, so an absolute
    # tolerance of 1e-9 there is 1e-5 relative; the ascent stops on the QFI
    # scaled by N F_th, and its optimum must beat every point of a dense
    # local scan to 1e-12 relative
    params = ModelParams(nbar=10.0, gamma_tau_se=0.5,
                         interaction=Interaction.EXCHANGE)
    opt = optimize_b1(params, 4)
    theta = opt.argmax.theta
    thetas = np.clip(np.linspace(theta - 0.02, theta + 0.02, 4001),
                     0.0, math.pi)
    psi = np.array([bloch_state(BlochAngles(float(t))) for t in thetas])
    best = qfi_values(params, psi, 4).max()
    assert opt.value_nbar >= best * (1 - 1e-12)


def test_optimize_b2_validation():
    params = ModelParams(nbar=1.0, gamma_tau_se=0.5, interaction=Interaction.ZZ)
    with pytest.raises(ValueError):
        optimize_b2(params, 3)
    pe = ModelParams(nbar=1.0, gamma_tau_se=0.5, interaction=Interaction.EXCHANGE)
    with pytest.raises(ValueError):
        optimize_b2(pe, 3)


def test_optimize_b2_zz_optimum_is_the_plusx_pair():
    # under zz the b=2 optimum is the product |+x>|+x>, whose QFI is the
    # closed form zz_fn. At these four points and N=2 a central-difference
    # gradient is radial at the Bell start and its first step lands on
    # psi = 0; the exact gradient is tangent.
    for nbar, gamma_tau in ((0.1, 0.05), (0.1, 1.0), (2.0, 0.05),
                            (10.0, 0.05)):
        params = ModelParams(nbar=nbar, gamma_tau_se=gamma_tau,
                             interaction=Interaction.ZZ)
        for n in (2, 4):
            opt = optimize_b2(params, n)
            closed = zz_fn(nbar, gamma_tau, n)
            assert abs(opt.value_nbar - closed) <= 1e-12 * closed
            assert opt.argmax.r >= 0.9999


def test_optimize_b2_seed_and_start_count_are_integers_of_at_least_zero():
    params = ModelParams(nbar=1.0, gamma_tau_se=0.3, interaction="exchange")
    for seed in (True, 1.5, -1, None):
        with pytest.raises(ValueError, match="seed must be an integer >= 0"):
            optimize_b2(params, 2, seed=seed)
    for starts in (-1, 2.0, True):
        with pytest.raises(ValueError,
                           match="n_random_starts must be an integer >= 0"):
            optimize_b2(params, 2, n_random_starts=starts)
    assert optimize_b2(params, 2, seed=1).value_nbar == 0.2736430288611737


def test_optimize_b2_dominates_seeded_corners():
    # the default starts reach the best final of a search that adds the
    # |g,e>, |e,g> and Bell corners and 8 random starts. At the second
    # point, on the default exchange grid, 2 random starts end 4.7e-4 below.
    g, x = qmat.KET_G, qmat.KET_PLUS_X
    corners = [np.kron(g, g), np.kron(g, x), np.kron(x, g), np.kron(x, x)]
    dropped = [np.kron(g, KET_E), np.kron(KET_E, g),
               (np.kron(g, g) + np.kron(KET_E, KET_E)) / math.sqrt(2)]
    wide = np.vstack([dropped, optimize._b2_starts(0, 8)])
    for nbar, gamma_tau in ((1.0, 0.5),
                            (0.15848931924611134, 2.601316665886944)):
        params = ModelParams(nbar=nbar, gamma_tau_se=gamma_tau,
                             interaction=Interaction.EXCHANGE)
        opt = optimize_b2(params, 2)
        assert 0.5 <= opt.argmax.r <= 1.0
        assert opt.evaluations > 0
        best = optimize._ascend(params, 2, wide)[1].max()
        assert opt.value_nbar >= best * (1 - 1e-12)
        for psi in corners:
            block = AncillaBlock(b=2, psi=psi)
            value = fisher_for(params, block, 2).value_nbar
            assert value <= opt.value_nbar + 1e-9
        # re-evaluating the reported argmax reproduces the reported value
        block = AncillaBlock(b=2, psi=schmidt_state(opt.argmax))
        value = fisher_for(params, block, 2).value_nbar
        assert abs(value - opt.value_nbar) < 1e-9


def test_optimize_b2_deterministic_for_fixed_seed():
    params = ModelParams(nbar=1.0, gamma_tau_se=0.5,
                         interaction=Interaction.EXCHANGE)
    for n, starts in ((2, 2), (4, 8)):
        a = optimize_b2(params, n, seed=3, n_random_starts=starts)
        b = optimize_b2(params, n, seed=3, n_random_starts=starts)
        assert a.value_nbar == b.value_nbar
        assert a.argmax == b.argmax
        assert a == b


def test_optimize_b2_dominates_dense_scan():
    # the search beats every state of a seeded random scan of CP^3 and every
    # product corner
    params = ModelParams(nbar=1.0, gamma_tau_se=0.5,
                         interaction=Interaction.EXCHANGE)
    opt = optimize_b2(params, 2)
    rng = np.random.default_rng(5)
    z = rng.standard_normal((2000, 2, 4))
    psi = z[:, 0] + 1j * z[:, 1]
    psi /= np.linalg.norm(psi, axis=1, keepdims=True)
    g, x = qmat.KET_G, qmat.KET_PLUS_X
    corners = [np.kron(g, g), np.kron(g, x), np.kron(x, g), np.kron(x, x)]
    scan = qfi_values(params, np.vstack([psi, corners]), 2)
    assert scan.max() <= opt.value_nbar * (1 + 1e-12)


def test_optimize_b2_ties_are_relative():
    # at nbar=10, gamma_tau=1 the QFI is ~4e-5 and the |g,g> corner lies
    # 1.8e-5 relative below the optimum, inside an absolute TIE_TOL; being
    # a product state it would still win such a tie on r
    params = ModelParams(nbar=10.0, gamma_tau_se=1.0,
                         interaction=Interaction.EXCHANGE)
    opt = optimize_b2(params, 2, n_random_starts=2)
    gg = np.kron(qmat.KET_G, qmat.KET_G)
    corner = qfi_values(params, gg[None], 2)[0]
    assert opt.value_nbar > corner * (1 + 1e-5)
    assert opt.value_nbar - corner < optimize.TIE_TOL


def test_optimize_b2_n4_beats_best_product():
    params = ModelParams(nbar=1.0, gamma_tau_se=1.0,
                         interaction=Interaction.EXCHANGE)
    opt = optimize_b2(params, 4)
    g, x = qmat.KET_G, qmat.KET_PLUS_X
    products = [np.kron(g, g), np.kron(g, x), np.kron(x, g), np.kron(x, x)]
    assert qfi_values(params, np.array(products), 4).max() <= opt.value_nbar
    assert 0.9999 <= opt.argmax.r <= 1.0


def test_schmidt_params_round_trip():
    # psi -> SchmidtParams -> schmidt_state keeps the QFI: the two states
    # differ by a collective Z rotation and a global phase
    params = ModelParams(nbar=1.0, gamma_tau_se=0.5,
                         interaction=Interaction.EXCHANGE)
    rng = np.random.default_rng(4)
    z = rng.standard_normal((20, 2, 4))
    states = list(z[:, 0] + 1j * z[:, 1])
    g, e, x = qmat.KET_G, KET_E, qmat.KET_PLUS_X
    bell = (np.kron(g, g) + np.kron(e, e)) / math.sqrt(2)
    eg, product = np.kron(e, g), np.kron(x, g)
    states += [bell, eg, product]
    psi = np.array([s / np.linalg.norm(s) for s in states])
    found = [optimize._schmidt_params(s) for s in psi]
    for p in found:
        assert 0.5 <= p.r <= 1.0
        assert 0.0 <= p.theta_m <= math.pi and 0.0 <= p.theta_n <= math.pi
        assert 0.0 <= p.phi_n < 2 * math.pi and 0.0 <= p.alpha < 2 * math.pi
    assert found[-3].r == 0.5
    assert found[-2].theta_m == math.pi and found[-2].r == 1.0
    assert found[-1].alpha == 0.0 and found[-1].r == 1.0
    before = qfi_values(params, psi, 2)
    after = qfi_values(params, np.array([schmidt_state(p) for p in found]), 2)
    assert np.all(np.abs(after - before) <= 1e-12 * before)


def test_schmidt_params_ignore_rounding_level_components():
    # a product state with one qubit at a pole, plus components of weight
    # ~1e-16 along its Schmidt partner and along the pole qubit's other
    # level, under global phases and collective Z rotations, reports the
    # same five numbers, with alpha and phi_n exactly 0
    rng = np.random.default_rng(9)
    g, x = qmat.KET_G, qmat.KET_PLUS_X
    tilted = np.array([math.cos(0.45), np.exp(0.7j) * math.sin(0.45)])
    for a, b, pole in ((bloch_state(BlochAngles(1.1)), g, 1),
                       (g, tilted, 0), (x, KET_E, 1), (KET_E, x, 0)):
        a_perp = np.array([-a[1].conjugate(), a[0].conjugate()])
        b_perp = np.array([-b[1].conjugate(), b[0].conjugate()])
        tilt = np.kron(a, b_perp) if pole else np.kron(a_perp, b)
        found = []
        for k in range(8):
            eps = rng.uniform(0.5, 2.0, 2) * 1e-8 * (k > 0)
            phases = np.exp(2j * math.pi * rng.random(4))
            psi = (np.kron(a, b) + eps[0] * phases[0] * np.kron(a_perp, b_perp)
                   + eps[1] * phases[1] * tilt)
            rz = np.array([1.0, phases[2]])
            psi = phases[3] * np.kron(rz, rz) * psi / np.linalg.norm(psi)
            p = optimize._schmidt_params(psi)
            assert p.alpha == 0.0 and p.phi_n == 0.0
            found.append([p.r, p.theta_m, p.theta_n, p.phi_n, p.alpha])
        assert np.all(np.abs(np.array(found) - found[0]) <= 1e-9)


def test_schmidt_params_of_a_gg_ee_pair_read_alpha_zero():
    # cos|gg> + e^(i beta) sin|ee> with both qubits at one pole: a collective
    # Z rotation moves alpha freely, so it reads 0 whatever the phases of
    # beta, of components of weight ~1e-18 on |ge> and |eg>, and globally
    rng = np.random.default_rng(10)
    gg, ee = np.kron(qmat.KET_G, qmat.KET_G), np.kron(KET_E, KET_E)
    ge, eg = np.kron(qmat.KET_G, KET_E), np.kron(KET_E, qmat.KET_G)
    for angle in (0.4, 1.2):
        found = []
        for _ in range(4):
            phases = np.exp(2j * math.pi * rng.random(4))
            psi = phases[3] * (math.cos(angle) * gg
                               + phases[2] * math.sin(angle) * ee
                               + 1e-9 * (phases[0] * ge + phases[1] * eg))
            p = optimize._schmidt_params(psi / np.linalg.norm(psi))
            assert p.alpha == 0.0
            found.append([p.r, p.theta_m, p.theta_n, p.phi_n, p.alpha])
        assert np.all(np.abs(np.array(found) - found[0]) <= 1e-9)


def spy_on_evaluations(monkeypatch):
    """Record the values of each ``qfi_and_gradient`` call the optimizer
    makes, one array per call."""
    calls = []
    real = optimize.qfi_and_gradient

    def counted(params, psi, n_measured):
        values, grad = real(params, psi, n_measured)
        calls.append(values)
        return values, grad

    monkeypatch.setattr(optimize, "qfi_and_gradient", counted)
    return calls


def test_optimize_b2_every_start_climbs(monkeypatch):
    # the first stacked call holds every start, one row each; each start
    # ends at or above its start value, and from a random start it climbs
    calls = spy_on_evaluations(monkeypatch)
    finals = []
    real = optimize._ascend

    def recorded(*args):
        out = real(*args)
        finals.append(out[1])
        return out

    monkeypatch.setattr(optimize, "_ascend", recorded)
    params = ModelParams(nbar=1.0, gamma_tau_se=0.5,
                         interaction=Interaction.EXCHANGE)
    opt = optimize_b2(params, 2, n_random_starts=3)
    seeds = len(optimize._B2_SEEDS)
    assert len(calls[0]) == seeds + 3
    assert max(len(c) for c in calls) == seeds + 3
    assert opt.evaluations == sum(len(c) for c in calls)
    gains = (finals[0] - calls[0]) / (2 * thermal_fi_nbar(params.nbar))
    assert min(gains) >= 0.0
    assert min(gains[seeds:]) > 1e-3


# (params, N, seed) of optimize_b2 runs with four random starts
B2_CASES = [(ModelParams(nbar=nbar, gamma_tau_se=gamma_tau,
                         interaction=interaction), n, seed)
            for nbar, gamma_tau, interaction, n, seed in (
                (1.0, 0.5, Interaction.EXCHANGE, 2, 0),
                (10.0, 0.3, Interaction.EXCHANGE, 2, 7),
                (0.5, 1.0, Interaction.EXCHANGE, 4, 1),
                (0.1, 0.3, Interaction.ZZ, 2, 2))]


def test_optimize_b2_stacking_does_not_change_the_answer(monkeypatch):
    # the same ascent run one start at a time, through the same tie rule,
    # finds the same optimum, bit for bit: final states, values and the
    # evaluation count. The step maps take one one-row product per row
    # whatever the stack's height, so a b=2 row never reads other last bits
    # alone than among other starts (test_stacked_rows_match_each_row_alone
    # in test_fisher.py).
    real = optimize._ascend
    stacked = [(optimize_b2(p, n, seed=seed, n_random_starts=4),
                real(p, n, optimize._b2_starts(seed, 4)))
               for p, n, seed in B2_CASES]

    def one_at_a_time(params, n_measured, psi0):
        runs = [real(params, n_measured, psi0[j:j + 1])
                for j in range(len(psi0))]
        return (np.concatenate([r[0] for r in runs]),
                np.concatenate([r[1] for r in runs]), sum(r[2] for r in runs))

    monkeypatch.setattr(optimize, "_ascend", one_at_a_time)
    for (p, n, seed), (opt, (psi, values, evaluations)) in zip(B2_CASES,
                                                              stacked):
        alone = one_at_a_time(p, n, optimize._b2_starts(seed, 4))
        assert alone[0].tobytes() == psi.tobytes()
        assert alone[1].tobytes() == values.tobytes()
        assert alone[2] == evaluations
        assert optimize_b2(p, n, seed=seed, n_random_starts=4) == opt


def test_ascend_b1_stack_matches_each_start_alone():
    # Stacking the five Bloch starts changes no row's arithmetic: each final
    # state and value, and the evaluation count, equal those of the starts
    # run one at a time, bit for bit. A tracer reads each stacked round's
    # acceptance mask ``ok``, so the cases are known to reach both kinds of
    # round: one that accepts every row and one that accepts some rows and
    # rejects others.
    starts = np.array([bloch_state(BlochAngles(t))
                       for t in np.linspace(0, math.pi, 5)])
    rounds = []

    def trace(frame, event, arg):
        if frame.f_code is optimize._ascend.__code__:
            return read_ok
        return None

    def read_ok(frame, event, arg):
        ok = frame.f_locals.get("ok")
        if ok is not None and (not rounds or rounds[-1][0] is not ok):
            rounds.append((ok, np.count_nonzero(ok)))
        return read_ok

    for nbar in (0.3, 10.0):
        params = ModelParams(nbar=nbar, gamma_tau_se=0.26,
                             interaction=Interaction.EXCHANGE)
        for n in (1, 2, 4):
            sys.settrace(trace)
            try:
                psi, values, evaluations = optimize._ascend(params, n, starts)
            finally:
                sys.settrace(None)
            alone = [optimize._ascend(params, n, start[None]) for start in starts]
            assert psi.tobytes() == np.concatenate([a[0] for a in alone]).tobytes()
            assert values.tobytes() == np.concatenate([a[1] for a in alone]).tobytes()
            assert evaluations == sum(a[2] for a in alone)
    sizes = [(len(ok), accepted) for ok, accepted in rounds]
    assert any(0 < accepted < rows for rows, accepted in sizes)
    assert any(accepted == rows > 1 for rows, accepted in sizes)


def test_optimize_b2_puts_only_tied_states_in_schmidt_form(monkeypatch):
    # a final state goes to Schmidt form only where the tie rule compares
    # its r, so at most (number of ties + 1) times, and the report is bit
    # for bit that of the rule run on every final state in Schmidt form
    real_ascend, real_form = optimize._ascend, optimize._schmidt_params
    runs, converted = [], []

    def ascend(*args):
        runs.append(real_ascend(*args))
        return runs[-1]

    def form(psi):
        converted.append(psi)
        return real_form(psi)

    monkeypatch.setattr(optimize, "_ascend", ascend)
    monkeypatch.setattr(optimize, "_schmidt_params", form)
    untied = []
    for p, n, seed in B2_CASES + [(ModelParams(
            nbar=10.0, gamma_tau_se=1.0, interaction=Interaction.EXCHANGE),
            2, 0)]:
        runs.clear()
        converted.clear()
        opt = optimize_b2(p, n, seed=seed, n_random_starts=4)
        finals, values, evaluations = runs[0]
        every = [real_form(psi) for psi in finals]
        tied = [i for i, v in enumerate(values)
                if v >= values.max() * (1.0 - optimize.TIE_TOL)]
        r_max = max(every[i].r for i in tied)
        winner = max((i for i in tied
                      if every[i].r >= r_max - optimize.TIE_TOL),
                     key=lambda i: values[i])
        assert opt == optimize.Optimum(argmax=every[winner],
                                       value_nbar=float(values[winner]),
                                       evaluations=evaluations)
        # len(tied) - 1 ties
        assert len(converted) <= len(tied)
        untied.append(len(finals) - len(tied))
    # in some case not every final state ties, so the rule skips a state
    assert max(untied) > 0


def test_optimize_b2_r_ties_go_to_the_larger_value(monkeypatch):
    # at this point of the default exchange grid the |g,+x> corner's row
    # stops 1.7e-11 short with r = 1 exactly, while the rows that reach the
    # optimum end with r = 1 - 6e-16 .. 1 - 4e-14: r agrees within TIE_TOL,
    # so the larger value wins and the report is the best row's
    real_ascend = optimize._ascend
    runs = []

    def ascend(*args):
        runs.append(real_ascend(*args))
        return runs[-1]

    monkeypatch.setattr(optimize, "_ascend", ascend)
    params = ModelParams(nbar=0.5623413251903491,
                         gamma_tau_se=0.03608712486526497,
                         interaction=Interaction.EXCHANGE)
    opt = optimize_b2(params, 2, seed=0)
    best = runs[0][1].max()
    assert abs(opt.value_nbar - best) <= 1e-12 * best
    assert opt.argmax.r >= 1.0 - optimize.TIE_TOL


def test_ascend_keeps_the_last_finite_point_and_passes_errors_on(monkeypatch):
    # from the fourth call on every value is NaN: each row stops at its
    # last finite point, the state and value of its last accepted step;
    # a RankChangeError from any call propagates out of optimize_b2
    params = ModelParams(nbar=1.0, gamma_tau_se=0.5,
                         interaction=Interaction.EXCHANGE)
    starts = optimize._b2_starts(0, 2)
    calls = []
    real = optimize.qfi_and_gradient

    def poisoned(p, psi, n_measured):
        values, grad = real(p, psi, n_measured)
        calls.append(values.copy())
        if len(calls) > 3:
            values[:] = math.nan
        return values, grad

    monkeypatch.setattr(optimize, "qfi_and_gradient", poisoned)
    psi, values, evaluations = optimize._ascend(params, 2, starts)
    assert len(calls) == 4
    assert evaluations == sum(len(c) for c in calls)
    assert set(values) <= set(np.concatenate(calls[:3]))
    assert np.all(values >= calls[0])
    assert np.all(np.abs(real(params, psi, 2)[0] - values) <= 1e-12 * values)

    rounds = []

    def failing(p, psi, n_measured):
        rounds.append(len(psi))
        if len(rounds) == 2:
            raise RankChangeError(1e-3)
        return real(p, psi, n_measured)

    monkeypatch.setattr(optimize, "qfi_and_gradient", failing)
    with pytest.raises(RankChangeError):
        optimize_b2(params, 2)
    assert len(rounds) == 2


SRC = Path(__file__).resolve().parents[1] / "src"


def run_fresh(code: str, *args):
    """Run ``code`` in a fresh interpreter that imports the package from
    src/, and return the JSON value of its last line of output."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", textwrap.dedent(code), *args],
                          env=env, capture_output=True, text=True, timeout=120,
                          check=True)
    return json.loads(proc.stdout.splitlines()[-1])


# Every command of the CLI and both optimizer sweep specs, at small sizes.
# The sweeps print JSON, whose numbers keep every bit.
SCIPY_FREE_COMMANDS = [
    ["fisher", "--nbar", "1", "--gamma-tau", "0.5", "--interaction", "zz",
     "--block", "plusx", "--n", "2"],
    ["zz-closed", "--nbar", "1", "--gamma-tau", "0.5", "--n", "2"],
    ["thermal-fi", "--nbar", "1"],
    ["sweep", "--block", "plusx", "--n", "2", "--nbar-grid", "0.5,1",
     "--gamma-tau-grid", "0.1,1", "--format", "json"],
    ["sweep", "--block", "optimize-b1", "--n", "2", "--interaction",
     "exchange", "--nbar-grid", "0.5,1", "--gamma-tau-grid", "0.1,1",
     "--quantities", "qfi,theta_opt", "--format", "json"],
    ["sweep", "--block", "optimize-b2", "--n", "2", "--interaction",
     "exchange", "--nbar-grid", "0.5,1", "--gamma-tau-grid", "0.1,1",
     "--quantities", "qfi,schmidt_r", "--format", "json"],
    ["optimize", "--nbar", "1", "--gamma-tau", "0.5", "--b", "1",
     "--n", "1"],
    ["optimize", "--nbar", "1", "--gamma-tau", "0.5", "--b", "2",
     "--n", "2"],
]


def test_no_command_or_claim_imports_scipy_optimize():
    # the package runs on numpy alone: with every import of scipy made to
    # fail before the package is imported, every command and a claim that
    # runs the b=1 optimizer and the 1-D maximizer exit 0 and print what
    # they print with scipy importable, and no import of scipy is tried
    code = """
        import contextlib, io, json, sys
        tried = []
        if sys.argv[1] == "blocked":
            class NoScipy:
                def find_spec(self, name, path=None, target=None):
                    if name.split(".")[0] == "scipy":
                        tried.append(name)
                        raise ImportError(f"no {name} here")
            sys.meta_path.insert(0, NoScipy())
        from collide_qfi import cli, sweeps
        seen = []
        for argv in json.loads(sys.argv[2]):
            with contextlib.redirect_stdout(io.StringIO()) as out:
                code = cli.main(argv)
            seen.append([argv[0], code, out.getvalue()])
        claims = sweeps._claims_exchange_collective()
        seen.append(["claim", sum(bool(c.passed) for c in claims),
                     [repr(c) for c in claims]])
        print(json.dumps([tried, sorted(m for m in sys.modules
                                        if m.split(".")[0] == "scipy"), seen]))
        """
    commands = json.dumps(SCIPY_FREE_COMMANDS)
    blocked = run_fresh(code, "blocked", commands)
    free = run_fresh(code, "free", commands)
    assert blocked[:2] == free[:2] == [[], []]
    assert blocked[2] == free[2]
    names = [argv[0] for argv in SCIPY_FREE_COMMANDS]
    assert [[name, code] for name, code, _ in blocked[2]] == (
        [[name, 0] for name in names] + [["claim", 3]])
    assert all(out for _, _, out in blocked[2])


def test_optimize_b2_rejects_a_float_count_before_any_search(monkeypatch):
    # the count rule comes first: no state is evaluated, and in a fresh
    # interpreter scipy.optimize stays unloaded
    calls = spy_on_evaluations(monkeypatch)
    params = ModelParams(nbar=1.0, gamma_tau_se=0.3,
                         interaction=Interaction.EXCHANGE)
    for bad in (2.0, np.float64(4.0)):
        with pytest.raises(ValueError, match="n_measured must be an integer"):
            optimize_b2(params, bad)
    assert len(calls) == 0
    seen = run_fresh("""
        import json, sys
        import numpy as np
        from collide_qfi import ModelParams, optimize_b2
        p = ModelParams(nbar=1.0, gamma_tau_se=0.3, interaction="exchange")
        seen = []
        for bad in (2.0, np.float64(4.0)):
            try:
                optimize_b2(p, bad)
            except ValueError as exc:
                seen.append(str(exc))
        print(json.dumps([seen, "scipy.optimize" in sys.modules]))
        """)
    texts, loaded = seen
    assert len(texts) == 2 and not loaded
    assert all(t.startswith("n_measured must be an integer") for t in texts)


def test_optimizers_do_not_depend_on_when_scipy_is_imported():
    # scipy brings a second OpenBLAS pool; the optimizers and the fixed-block
    # sweep rows of the sweep_grid benchmark (zz |+x> N=2, exchange |gg>
    # N=4) keep their bits whether it is loaded before the package or never
    code = """
        import json, sys
        if sys.argv[1] == "early":
            import scipy.optimize
        from collide_qfi import ModelParams, optimize_b1, optimize_b2
        from collide_qfi.sweeps import SweepConfig, run_sweep
        before = "scipy.optimize" in sys.modules
        p = ModelParams(nbar=1.0, gamma_tau_se=0.3, interaction="exchange")
        seen = [before, repr(optimize_b1(p, 2)),
                repr(optimize_b2(p, 2, seed=1, n_random_starts=1))]
        for interaction, block, n in (("zz", "plusx", 2),
                                      ("exchange", "gg", 4)):
            config = SweepConfig(
                nbar_grid=(0.5, 3.0), gamma_tau_grid=(0.01, 0.1, 1.0, 3.0),
                interaction=interaction, block=block, n_measured=n,
                quantities=("qfi",))
            seen += [[r.nbar, r.gamma_tau, r.values["qfi"].hex(), r.status]
                     for r in run_sweep(config)]
        print(json.dumps(seen))
        """
    early, late = run_fresh(code, "early"), run_fresh(code, "late")
    assert early[0] and not late[0]
    assert len(early) == 3 + 2 * 8
    assert early[1:] == late[1:]
