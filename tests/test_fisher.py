import math

import numpy as np
import pytest

from collide_qfi import qmat
from collide_qfi.channels import Interaction, ModelParams, gibbs_state
from collide_qfi.collision import AncillaBlock
from collide_qfi.fisher import (Povm, RankChangeError, cfi, default_step,
                                dnbar_dT, fisher_for, joint_state_builder,
                                qfi, qfi_values, state_derivative,
                                thermal_fi_nbar)
from collide_qfi.zz_analytic import zz_fn


def test_thermal_fi_matches_binomial_oracle():
    # the Gibbs populations are a Bernoulli family in nbar; its Fisher
    # information must equal the closed form
    for nbar in (0.1, 1.0, 7.0):
        p_e = nbar / (2 * nbar + 1)
        dp = 1.0 / (2 * nbar + 1) ** 2
        fi = dp * dp / (p_e * (1 - p_e))
        assert abs(thermal_fi_nbar(nbar) - fi) < 1e-14 * fi


def test_thermal_fi_rejects_nonpositive():
    with pytest.raises(ValueError):
        thermal_fi_nbar(0.0)


def test_dnbar_dT():
    # compare against a central difference of 1/(exp(w/T)-1)
    def nbar(t, w=1.3):
        return 1.0 / (math.exp(w / t) - 1.0)

    h = 1e-6
    num = (nbar(2.0 + h) - nbar(2.0 - h)) / (2 * h)
    assert abs(dnbar_dT(2.0, 1.3) - num) < 1e-8
    with pytest.raises(ValueError):
        dnbar_dT(-1.0, 1.0)
    with pytest.raises(ValueError):
        dnbar_dT(1.0, 0.0)


def test_default_step():
    assert default_step(0.01) == 1e-6
    assert abs(default_step(10.0) - 1e-5) < 1e-20


def test_state_derivative_linear_family():
    def build(x):
        return np.array([[1 - x, 0], [0, x]], dtype=complex)

    d = state_derivative(build, 0.3, 1e-4)
    assert np.allclose(d, np.diag([-1.0, 1.0]), atol=1e-10)
    with pytest.raises(ValueError):
        state_derivative(build, 0.3, 0.0)


def test_qfi_gibbs_family_equals_thermal():
    for nbar in (0.5, 2.0):
        h = default_step(nbar)
        rho = gibbs_state(nbar)
        drho = state_derivative(gibbs_state, nbar, h)
        assert abs(qfi(rho, drho) - thermal_fi_nbar(nbar)) < 1e-8 * thermal_fi_nbar(nbar)


def test_qfi_rotating_pure_state_is_one():
    # |psi(x)> = cos(x/2)|g> + sin(x/2)|e> has QFI exactly 1
    def build(x):
        v = np.array([math.cos(x / 2), math.sin(x / 2)], dtype=complex)
        return np.outer(v, v.conj())

    rho = build(0.8)
    drho = state_derivative(build, 0.8, 1e-6)
    assert abs(qfi(rho, drho) - 1.0) < 1e-8


def test_qfi_raises_on_kernel_leak():
    rho = np.diag([1.0, 0.0]).astype(complex)
    drho = np.diag([-1.0, 1.0]).astype(complex)
    with pytest.raises(RankChangeError):
        qfi(rho, drho)


def test_povm_validation():
    z = Povm(effects=(np.diag([1.0, 0.0]), np.diag([0.0, 1.0])))
    assert z.dim == 2
    with pytest.raises(ValueError, match="identity"):
        Povm(effects=(np.diag([1.0, 0.0]),))
    with pytest.raises(ValueError, match="PSD"):
        Povm(effects=(np.diag([1.5, 1.0]), np.diag([-0.5, 0.0])))


def test_cfi_z_basis_on_gibbs_equals_qfi():
    z = Povm(effects=(np.diag([1.0, 0.0]), np.diag([0.0, 1.0])))
    for nbar in (0.5, 3.0):
        c = cfi(gibbs_state, z, nbar)
        assert abs(c - thermal_fi_nbar(nbar)) < 1e-8 * thermal_fi_nbar(nbar)


def test_cfi_never_exceeds_qfi():
    rng = np.random.default_rng(0)
    params = ModelParams(nbar=1.0, gamma_tau_se=0.5,
                         interaction=Interaction.EXCHANGE)
    block = AncillaBlock(b=1, psi=qmat.KET_PLUS_X)
    build = joint_state_builder(params, block, 1)
    value = fisher_for(params, block, 1).value_nbar
    for _ in range(10):
        a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        e1 = a @ a.conj().T
        e1 = e1 / np.linalg.eigvalsh(e1).max() * rng.random()
        povm = Povm(effects=(e1, np.eye(2) - e1))
        assert cfi(build, povm, 1.0) <= value + 1e-9


def test_cfi_dimension_mismatch():
    z4 = Povm(effects=(np.eye(4),))
    with pytest.raises(ValueError):
        cfi(gibbs_state, z4, 1.0)


def test_fisher_for_matches_closed_form():
    params = ModelParams(nbar=2.0, gamma_tau_se=0.7, interaction=Interaction.ZZ)
    block = AncillaBlock(b=1, psi=qmat.KET_PLUS_X)
    res = fisher_for(params, block, 3)
    expect = zz_fn(2.0, 0.7, 3)
    assert abs(res.value_nbar - expect) < 1e-6 * expect
    assert res.n_measured == 3
    assert res.block_b == 1
    assert abs(res.ratio_thermal - res.value_nbar / (3 * thermal_fi_nbar(2.0))) < 1e-12


def test_exact_derivative_matches_zz_closed_form():
    block = AncillaBlock(b=1, psi=qmat.KET_PLUS_X)
    worst = 0.0
    # the zz-progression claim's 12-point grid, plus a small nbar
    for nbar in (0.2, 1.0, 5.0, 10.0, 1e-3):
        for gt in (0.1, 0.5, 2.0):
            params = ModelParams(nbar=nbar, gamma_tau_se=gt,
                                 interaction=Interaction.ZZ)
            for n in range(1, 5):
                closed = zz_fn(nbar, gt, n)
                value = fisher_for(params, block, n).value_nbar
                worst = max(worst, abs(value - closed) / closed)
    assert worst <= 1e-10


def five_point_qfi(params, block, n, h):
    """QFI with a fourth-order central difference of the state in nbar."""
    build = joint_state_builder(params, block, n)
    x = params.nbar
    drho = (-build(x + 2 * h) + 8 * build(x + h) - 8 * build(x - h)
            + build(x - 2 * h)) / (12 * h)
    return qfi(build(x), drho)


def test_exact_derivative_matches_finite_differences():
    # The oracle is a five-point difference at the first step whose halving
    # moves the QFI by less than 1e-8. The three-point difference cannot get
    # there where the QFI is ~1e-9: rounding in the state sets its floor.
    blocks = [AncillaBlock(b=1, psi=qmat.KET_PLUS_X),
              AncillaBlock(b=2, psi=np.kron(qmat.KET_PLUS_X, qmat.KET_PLUS_Y))]
    worst = 0.0
    for interaction in Interaction:
        for nbar in (0.1, 1.0, 10.0):
            for gt in (0.01, 0.3, 3.0):
                params = ModelParams(nbar=nbar, gamma_tau_se=gt, g_tau_sa=0.9,
                                     interaction=interaction)
                for block in blocks:
                    for n in range(block.b, 5, block.b):
                        value = fisher_for(params, block, n).value_nbar
                        if value <= 1e-12:
                            continue
                        for h in (4e-2 * nbar, 4e-3 * nbar, 4e-4 * nbar):
                            full = five_point_qfi(params, block, n, h)
                            half = five_point_qfi(params, block, n, h / 2)
                            if abs(full - half) < 1e-8 * half:
                                break
                        else:
                            pytest.fail(f"no converged step at {params}, N={n}")
                        worst = max(worst, abs(value - half) / half)
    assert worst <= 1e-6


def test_fisher_for_degenerate_fixed_point():
    # no bath contact and no collision: Phi = I, every state is fixed and
    # nothing depends on nbar, so the QFI is 0 on both paths
    params = ModelParams(nbar=1.0, gamma_tau_se=0.0, g_tau_sa=0.0,
                         interaction=Interaction.EXCHANGE)
    for block in (AncillaBlock(b=1, psi=qmat.KET_PLUS_X),
                  AncillaBlock(b=2, psi=np.kron(qmat.KET_G, qmat.KET_PLUS_X))):
        assert fisher_for(params, block, 2).value_nbar == 0.0
        assert fisher_for(params, block, 2, step=1e-4).value_nbar == 0.0


def test_rank_change_message_names_the_step_only_when_given():
    exact = RankChangeError(3.1e-8)
    assert "max kernel element 3.100e-08" in str(exact)
    assert "step" not in str(exact)
    assert "reduce the step" in str(RankChangeError(3.1e-8, step=1e-6))
    # on the exact path a kernel leak is a real rank change of the state
    params = ModelParams(nbar=1e-6, gamma_tau_se=1.0, interaction=Interaction.ZZ)
    with pytest.raises(RankChangeError) as info:
        fisher_for(params, AncillaBlock(b=1, psi=qmat.KET_PLUS_X), 4)
    assert info.value.step is None and "step" not in str(info.value)


def random_states(rng, count, dim):
    psi = rng.normal(size=(count, dim)) + 1j * rng.normal(size=(count, dim))
    return psi / np.linalg.norm(psi, axis=1, keepdims=True)


def test_qfi_values_match_fisher_for():
    # each row of one stacked call against the one-row evaluation of its state
    rng = np.random.default_rng(11)
    named = {1: [qmat.KET_PLUS_X, qmat.KET_G, qmat.KET_PLUS_Y],
             2: [np.kron(qmat.KET_G, qmat.KET_PLUS_X),
                 (np.kron(qmat.KET_G, qmat.KET_G)
                  + np.kron(qmat.KET_E, qmat.KET_E)) / math.sqrt(2)]}
    worst = 0.0
    for interaction in Interaction:
        for nbar, gt in ((0.3, 0.05), (2.0, 0.6), (10.0, 0.3)):
            params = ModelParams(nbar=nbar, gamma_tau_se=gt, g_tau_sa=1.1,
                                 interaction=interaction)
            for b in (1, 2):
                psi = np.vstack([named[b], random_states(rng, 5, 2 ** b)])
                for n in range(b, 5, b):
                    if n == 3:
                        continue
                    values = qfi_values(params, b, psi, n)
                    assert values.shape == (len(psi),)
                    for row, value in zip(psi, values):
                        ref = fisher_for(params, AncillaBlock(b=b, psi=row),
                                         n).value_nbar
                        if ref == 0.0:
                            assert value == 0.0
                        else:
                            worst = max(worst, abs(value - ref) / ref)
    assert worst <= 1e-12


def test_qfi_values_raise_rank_change_in_a_batch():
    # one rank-changing row fails the whole stacked call, as the one-row
    # call on that state does
    params = ModelParams(nbar=1e-6, gamma_tau_se=1.0, interaction=Interaction.ZZ)
    psi = np.array([qmat.KET_G, qmat.KET_PLUS_X, qmat.KET_E])
    with pytest.raises(RankChangeError) as batch:
        qfi_values(params, 1, psi, 4)
    with pytest.raises(RankChangeError) as single:
        fisher_for(params, AncillaBlock(b=1, psi=qmat.KET_PLUS_X), 4)
    assert batch.value.max_kernel_element == pytest.approx(
        single.value.max_kernel_element, rel=1e-6)
    assert batch.value.step is None
    # without that row the same point evaluates
    values = qfi_values(params, 1, psi[[0, 2]], 4)
    assert np.all(np.isfinite(values))


def test_qfi_values_degenerate_fixed_point():
    # Phi = I for every block state: each row takes the least-squares branch
    # and returns the one-row value
    params = ModelParams(nbar=1.0, gamma_tau_se=0.0, g_tau_sa=0.0,
                         interaction=Interaction.EXCHANGE)
    rng = np.random.default_rng(12)
    for b in (1, 2):
        psi = random_states(rng, 3, 2 ** b)
        values = qfi_values(params, b, psi, 2)
        for row, value in zip(psi, values):
            assert value == fisher_for(params, AncillaBlock(b=b, psi=row),
                                       2).value_nbar


def test_qfi_values_validation():
    params = ModelParams(nbar=1.0, gamma_tau_se=0.5)
    with pytest.raises(ValueError):
        qfi_values(params, 1, np.array([qmat.KET_G, [1.0, 1.0]]), 1)
    with pytest.raises(ValueError):
        qfi_values(params, 1, np.array([[np.nan, 0.0]]), 1)
    with pytest.raises(ValueError):
        qfi_values(params, 2, np.array([qmat.KET_G]), 2)
    with pytest.raises(ValueError):
        qfi_values(params, 2, np.array([np.kron(qmat.KET_G, qmat.KET_G)]), 3)
