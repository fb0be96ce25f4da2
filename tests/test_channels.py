import math
from functools import reduce

import numpy as np
import pytest

from collide_qfi import qmat
from collide_qfi.channels import (THERMAL_BASIS, Interaction, KrausChannel,
                                  ModelParams, collision_unitary, embed_op,
                                  exchange_unitary, thermal_coefficients,
                                  thermal_kraus, thermal_monomials,
                                  zz_unitary)
from collide_qfi.collision import _projectors, _step_map_tensor
from oracles import (apply_kraus_on, apply_unitary_on, default_rk4_steps,
                     gibbs_state, lindblad_rk4, partial_trace, random_density)


def test_model_params_validation():
    with pytest.raises(ValueError):
        ModelParams(nbar=-0.1, gamma_tau_se=1.0)
    # the thermal FI underflows past ~5.8e76, so the chain has no value there
    for huge in (1e100, 1e200):
        with pytest.raises(ValueError, match="nbar must be in"):
            ModelParams(nbar=huge, gamma_tau_se=1.0)
    assert ModelParams(nbar=0.0, gamma_tau_se=1.0).nbar == 0.0
    with pytest.raises(ValueError):
        ModelParams(nbar=1.0, gamma_tau_se=-1.0)
    for bad in (math.nan, math.inf, -math.inf):
        for field in ("nbar", "gamma_tau_se", "g_tau_sa"):
            kwargs = dict(nbar=1.0, gamma_tau_se=0.5, g_tau_sa=1.0)
            kwargs[field] = bad
            with pytest.raises(ValueError, match="finite"):
                ModelParams(**kwargs)


def test_model_params_interaction_takes_a_member_or_its_value():
    # a value becomes its member, so a string and a member give one key of
    # every cache keyed by ModelParams; anything else is rejected
    for member in Interaction:
        by_value = ModelParams(nbar=1.0, gamma_tau_se=0.5,
                               interaction=member.value)
        by_member = ModelParams(nbar=1.0, gamma_tau_se=0.5, interaction=member)
        assert by_value.interaction is member
        assert by_value == by_member and hash(by_value) == hash(by_member)
        assert _step_map_tensor(by_value, 1, False) is _step_map_tensor(
            by_member, 1, False)
    for bad in ("swap", "ZZ", 0, None):
        with pytest.raises(ValueError):
            ModelParams(nbar=1.0, gamma_tau_se=0.5, interaction=bad)


def test_kraus_channel_rejects_incomplete():
    with pytest.raises(ValueError):
        KrausChannel((0.5 * np.eye(2),))
    with pytest.raises(ValueError):
        KrausChannel(())


def test_gibbs_state_populations():
    rho = gibbs_state(1.0)
    assert abs(rho[0, 0] - 2.0 / 3.0) < 1e-15
    assert abs(rho[1, 1] - 1.0 / 3.0) < 1e-15
    assert np.allclose(gibbs_state(0.0), np.diag([1.0, 0.0]))


def test_thermal_kraus_fixed_point_is_gibbs():
    for nbar in (0.0, 0.3, 1.0, 10.0):
        ch = thermal_kraus(nbar, 0.7)
        g = gibbs_state(nbar)
        assert np.allclose(ch.apply(g), g, atol=1e-12)


def test_thermal_kraus_coherence_decay():
    nbar, gt = 1.5, 0.4
    big_gamma = gt * (2 * nbar + 1)
    rho = _projectors(qmat.KET_PLUS_X[None])[0]
    out = thermal_kraus(nbar, gt).apply(rho)
    assert abs(out[0, 1] - 0.5 * math.exp(-big_gamma / 2.0)) < 1e-12


def test_thermal_kraus_zero_time_is_identity():
    ch = thermal_kraus(1.0, 0.0)
    rng = np.random.default_rng(0)
    rho = random_density(rng)
    assert np.allclose(ch.apply(rho), rho)


def test_thermal_kraus_full_relaxation():
    # Gamma >> 1 sends every input to the Gibbs state
    ch = thermal_kraus(0.8, 50.0)
    rng = np.random.default_rng(1)
    for _ in range(5):
        out = ch.apply(random_density(rng))
        assert np.allclose(out, gibbs_state(0.8), atol=1e-10)


def test_thermal_kraus_matches_rk4_oracle():
    # the nine cases run as one stack through the oracle, each with its own
    # step count
    rng = np.random.default_rng(2)
    cases = [(nbar, gt, random_density(rng))
             for nbar, gt in [(0.2, 0.3), (1.0, 0.5), (3.0, 0.2)]
             for _ in range(3)]
    nbars, gts, rhos = (np.array(c) for c in zip(*cases))
    steps = [default_rk4_steps(gt * (2 * nbar + 1)) for nbar, gt, _ in cases]
    refs = lindblad_rk4(rhos, nbars, gts, steps)
    for (nbar, gt, rho), ref in zip(cases, refs):
        assert np.max(np.abs(thermal_kraus(nbar, gt).apply(rho) - ref)) < 1e-8


def _kraus_superop(nbar, gt):
    return sum(np.kron(k, k.conj()) for k in thermal_kraus(nbar, gt).operators)


def _thermal_superop(nbar, gt):
    """T = sum_e c_e B_e and dT = sum_e dc_e B_e, each (R, 4, 4), with c
    from thermal_coefficients for 1-d arrays of nbar and gamma_tau."""
    basis = np.zeros((4, 16))
    basis[THERMAL_BASIS[:2]] = THERMAL_BASIS[2]
    t = (thermal_coefficients(nbar, gt, 1) @ basis).reshape(-1, 2, 4, 4)
    return t[:, 0], t[:, 1]


def test_thermal_superop_matches_kraus_set():
    # T = sum_e c_e B_e is the sum of K (x) K* over the Kraus set, and dT =
    # sum_e dc_e B_e its nbar-derivative. The Kraus set forms sqrt(1 - eta)
    # by cancellation, so the coherences agree to 1e-13 at large Gamma, not
    # to rounding.
    h = 1e-6
    for nbar in (0.0, 0.3, 1.0, 10.0):
        for gt in (0.0, 0.01, 0.5, 3.0):
            t, dt = (a[0] for a in _thermal_superop(np.array([nbar]),
                                                    np.array([gt])))
            assert np.max(np.abs(t - _kraus_superop(nbar, gt))) < 1e-13
            if nbar > 0:
                fd = (_kraus_superop(nbar + h, gt)
                      - _kraus_superop(nbar - h, gt)) / (2 * h)
            else:  # one-sided, second order
                fd = (-3 * _kraus_superop(0.0, gt) + 4 * _kraus_superop(h, gt)
                      - _kraus_superop(2 * h, gt)) / (2 * h)
            assert np.max(np.abs(dt - fd)) < 1e-8
    t, dt = _thermal_superop(np.array([2.0]), np.array([0.0]))
    assert np.array_equal(t[0], np.eye(4)) and not np.any(dt)


def test_thermal_coefficients_rebuild_the_thermal_superop():
    # c = (1, up, down, coh - 1) with derivative (0, ...), so c @ basis is T
    # and dT; the degree-2 monomials are the products c_e c_f and their
    # nbar-derivatives dc_e c_f + c_e dc_f
    nbar = np.array([0.0, 1e-6, 0.3, 10.0, 20.0])
    gt = np.array([0.5, 1e-12, 0.0, 3.0, 4.0])
    c = thermal_coefficients(nbar, gt, 1)
    assert c.shape == (5, 2, 4) and np.all(c[:, :, 0] == (1.0, 0.0))
    assert list(zip(*thermal_monomials(1))) == [(0,), (1,), (2,), (3,)]
    # the degree-2 monomials in the order the b=2 polynomial's rows take
    assert thermal_monomials(2) == ((0, 0, 1, 0, 1, 2, 0, 1, 2, 3),
                                    (0, 1, 1, 2, 2, 2, 3, 3, 3, 3))
    e, f = np.array(thermal_monomials(2))
    c2 = thermal_coefficients(nbar, gt, 2)
    assert np.array_equal(c2[:, 0], c[:, 0, e] * c[:, 0, f])
    assert np.array_equal(c2[:, 1], c[:, 1, e] * c[:, 0, f] + c[:, 0, e] * c[:, 1, f])
    # degree 3, which no chain reads yet, takes one more factor the same way
    e1, e2, e3 = np.array(thermal_monomials(3))
    assert np.all((e1 <= e2) & (e2 <= e3)) and len(set(zip(e1, e2, e3))) == 20
    c3 = thermal_coefficients(nbar, gt, 3)
    p = c[:, 0, e1] * c[:, 0, e2]
    dp = c[:, 1, e1] * c[:, 0, e2] + c[:, 0, e1] * c[:, 1, e2]
    assert np.array_equal(c3[:, 0], p * c[:, 0, e3])
    assert np.array_equal(c3[:, 1], dp * c[:, 0, e3] + p * c[:, 1, e3])


def test_thermal_coefficients_array_matches_scalar():
    # np.exp on an array and on one element may differ in the last bit, so
    # compare to 1e-15 absolute rather than bit for bit
    rng = np.random.default_rng(5)
    nbar = np.concatenate([[0.0, 1e-6], 10.0 ** rng.uniform(-2, 1, 40)])
    gt = np.concatenate([[0.5, 0.0], 10.0 ** rng.uniform(-3, 0.5, 40)])
    c = thermal_coefficients(nbar, gt, 1)
    assert c.shape == (42, 2, 4)
    for i in range(len(nbar)):
        c1 = thermal_coefficients(nbar[i:i + 1], gt[i:i + 1], 1)
        assert np.max(np.abs(c[i] - c1[0])) <= 1e-15
    # a scalar nbar broadcasts against a gamma_tau row
    c = thermal_coefficients(2.0, gt[:5], 1)
    assert c.shape == (5, 2, 4)
    assert np.max(np.abs(
        c[3] - thermal_coefficients(2.0, gt[3:4], 1)[0])) <= 1e-15


def test_thermal_coefficients_reject_negative_inputs():
    # finite from 0 to extreme nbar and gamma_tau, and a negative entry of
    # either array is rejected
    nbar, gt = (a.ravel() for a in np.meshgrid([0.0, 1e-300, 1.0, 1e6],
                                               [0.0, 1e-12, 1.0, 700.0]))
    assert np.all(np.isfinite(thermal_coefficients(nbar, gt, 2)))
    for bad in ((np.array([-1.0]), np.array([0.5])),
                (np.array([1.0]), np.array([-0.5])),
                (np.array([1.0, 2.0]), np.array([0.5, -0.1]))):
        for degree in (1, 2):
            with pytest.raises(ValueError, match="nonnegative"):
                thermal_coefficients(*bad, degree)


def test_lindblad_rk4_validates_steps():
    with pytest.raises(ValueError):
        lindblad_rk4(np.eye(2) / 2, 1.0, 0.1, 0)


def test_zz_unitary_diagonal_phases():
    gt = 0.7
    u = zz_unitary(gt)
    phases = np.exp(-1j * (gt / 2.0) * np.array([1, -1, -1, 1]))
    assert np.allclose(u, np.diag(phases))
    assert np.allclose(u @ u.conj().T, np.eye(4), atol=1e-12)


def test_exchange_unitary_blocks():
    u = exchange_unitary(0.9)
    assert u[0, 0] == 1.0 and u[3, 3] == 1.0
    c, s = math.cos(0.9), math.sin(0.9)
    assert abs(u[1, 1] - c) < 1e-15 and abs(u[1, 2] + 1j * s) < 1e-15
    assert np.allclose(u @ u.conj().T, np.eye(4), atol=1e-12)


def test_exchange_full_swap():
    # at g_tau = pi/2 the system state is transferred onto the ancilla
    u = exchange_unitary(math.pi / 2.0)
    rng = np.random.default_rng(3)
    rho_s = random_density(rng)
    joint = np.kron(rho_s, _projectors(qmat.KET_G[None])[0])
    out = u @ joint @ u.conj().T
    anc = partial_trace(out, [1], [2, 2])
    assert np.allclose(np.diag(anc), np.diag(rho_s), atol=1e-12)


def test_collision_unitary_dispatch():
    pz = ModelParams(nbar=1.0, gamma_tau_se=0.1, g_tau_sa=0.3,
                     interaction=Interaction.ZZ)
    pe = ModelParams(nbar=1.0, gamma_tau_se=0.1, g_tau_sa=0.3,
                     interaction=Interaction.EXCHANGE)
    assert np.allclose(collision_unitary(pz.interaction, pz.g_tau_sa),
                       zz_unitary(0.3))
    assert np.allclose(collision_unitary(pe.interaction, pe.g_tau_sa),
                       exchange_unitary(0.3))


def kron_all(*ops):
    return reduce(np.kron, ops)


def test_embed_op_single_target():
    rng = np.random.default_rng(4)
    op = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    dims = [2, 2, 2]
    assert np.allclose(embed_op(op, [0], dims), kron_all(op, np.eye(2), np.eye(2)))
    assert np.allclose(embed_op(op, [1], dims), kron_all(np.eye(2), op, np.eye(2)))
    assert np.allclose(embed_op(op, [2], dims), kron_all(np.eye(2), np.eye(2), op))


def test_embed_op_two_targets_nonadjacent():
    rng = np.random.default_rng(5)
    a = rng.normal(size=(2, 2))
    b = rng.normal(size=(2, 2))
    op = np.kron(a, b)
    got = embed_op(op, [0, 2], [2, 2, 2])
    assert np.allclose(got, kron_all(a, np.eye(2), b))


def test_apply_unitary_on_matches_embedding():
    rng = np.random.default_rng(6)
    rho = random_density(rng, 8)
    u = exchange_unitary(0.4)
    out = apply_unitary_on(u, rho, [0, 2], [2, 2, 2])
    uf = embed_op(u, [0, 2], [2, 2, 2])
    assert np.allclose(out, uf @ rho @ uf.conj().T)
    assert abs(np.trace(out) - 1.0) < 1e-12


def test_apply_kraus_on_marginals():
    rng = np.random.default_rng(7)
    rho_a, rho_b = random_density(rng), random_density(rng)
    joint = np.kron(rho_a, rho_b)
    ch = thermal_kraus(1.0, 0.5)
    out = apply_kraus_on(ch, joint, 0, [2, 2])
    # channel on subsystem 0 leaves subsystem 1 untouched
    assert np.allclose(partial_trace(out, [1], [2, 2]), rho_b, atol=1e-12)
    assert np.allclose(partial_trace(out, [0], [2, 2]), ch.apply(rho_a),
                       atol=1e-12)
    with pytest.raises(ValueError):
        apply_kraus_on(ch, joint, 0, [4, 1])
