import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from collide_qfi import qmat
from collide_qfi.channels import Interaction, ModelParams
from collide_qfi.collision import (AncillaBlock, outgoing_with_derivative,
                                   step_maps)
from collide_qfi.fisher import (RankChangeError, fisher_for, qfi,
                                qfi_and_gradient, qfi_values, thermal_fi_nbar)
from collide_qfi.zz_analytic import zz_fn
from fd_oracle import (default_step, fd_qfi, joint_state_builder,
                       psi_gradient, state_derivative, state_pair)
from oracles import (KET_E, KET_PLUS_Y, Povm, bures_qfi, cfi, dnbar_dT,
                     gibbs_state, sld, sld_qfi)


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
    # an FI that overflows (1e-320) or underflows, to 0 (1e100) or through
    # an overflowing square (1e200), is no normal float
    for nbar in (1e-320, 1e100, 1e200):
        with pytest.raises(ValueError, match="not a normal float"):
            thermal_fi_nbar(nbar)
    for nbar in (1e-300, 0.5, 1e70):
        assert thermal_fi_nbar(nbar) == 1.0 / (
            nbar * (nbar + 1.0) * (2.0 * nbar + 1.0) ** 2)


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
        c = cfi(*state_pair(gibbs_state, nbar), z)
        assert abs(c - thermal_fi_nbar(nbar)) < 1e-8 * thermal_fi_nbar(nbar)


def test_cfi_never_exceeds_qfi():
    rng = np.random.default_rng(0)
    params = ModelParams(nbar=1.0, gamma_tau_se=0.5,
                         interaction=Interaction.EXCHANGE)
    block = AncillaBlock(b=1, psi=qmat.KET_PLUS_X)
    pair = state_pair(joint_state_builder(params, block, 1), 1.0)
    value = fisher_for(params, block, 1).value_nbar
    for _ in range(10):
        a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        e1 = a @ a.conj().T
        e1 = e1 / np.linalg.eigvalsh(e1).max() * rng.random()
        povm = Povm(effects=(e1, np.eye(2) - e1))
        assert cfi(*pair, povm) <= value + 1e-9


def test_step_larger_than_nbar_is_rejected():
    # nbar - step would cross nbar = 0: the thermal family would be
    # differentiated through unphysical states, the model one not at all
    with pytest.raises(ValueError, match=r"step 1e-06 exceeds nbar = 1e-07"):
        state_pair(gibbs_state, 1e-7)
    with pytest.raises(ValueError, match="exceeds nbar"):
        state_derivative(gibbs_state, 0.5, 0.6)
    # a step equal to nbar reaches nbar = 0 and no further
    drho = state_derivative(gibbs_state, 0.5, 0.5)
    assert np.allclose(drho, (gibbs_state(1.0) - gibbs_state(0.0)) / 1.0)


def test_cfi_dimension_mismatch():
    z4 = Povm(effects=(np.eye(4),))
    with pytest.raises(ValueError):
        cfi(*state_pair(gibbs_state, 1.0), z4)


def test_fisher_for_matches_closed_form():
    params = ModelParams(nbar=2.0, gamma_tau_se=0.7, interaction=Interaction.ZZ)
    block = AncillaBlock(b=1, psi=qmat.KET_PLUS_X)
    res = fisher_for(params, block, 3)
    expect = zz_fn(2.0, 0.7, 3)
    assert abs(res.value_nbar - expect) < 1e-6 * expect
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


def test_fixed_point_keeps_its_digits_at_small_gamma_tau():
    # the block map's Phi[0, 0] = 1 - up rounds at small gamma_tau, so the
    # fixed point takes Phi - I's corner from trace preservation. N=1 then
    # meets the closed form to rounding; for N <= 4 the Sylvester solve on
    # the chain's (rho, drho) does too (the eigen path's error at N >= 2 is
    # the eigensolver's, on two nearly equal eigenvalues)
    block = AncillaBlock(b=1, psi=qmat.KET_PLUS_X)
    for nbar, gt in itertools.product((0.1, 1.0, 10.0), (1e-4, 1e-8, 1e-12)):
        params = ModelParams(nbar=nbar, gamma_tau_se=gt,
                             interaction=Interaction.ZZ)
        closed = zz_fn(nbar, gt, 1)
        value = fisher_for(params, block, 1).value_nbar
        assert abs(value - closed) <= 1e-13 * closed
        for n in range(1, 5):
            rho, drho, _ = outgoing_with_derivative(
                step_maps([params], block.psi[None], n), n)
            closed = zz_fn(nbar, gt, n)
            assert abs(sld_qfi(rho[0], drho[0]) - closed) <= 2e-13 * closed


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
              AncillaBlock(b=2, psi=np.kron(qmat.KET_PLUS_X, KET_PLUS_Y))]
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
    # nothing depends on nbar, so the QFI is 0 on the exact path and the
    # finite-difference oracle
    params = ModelParams(nbar=1.0, gamma_tau_se=0.0, g_tau_sa=0.0,
                         interaction=Interaction.EXCHANGE)
    for block in (AncillaBlock(b=1, psi=qmat.KET_PLUS_X),
                  AncillaBlock(b=2, psi=np.kron(qmat.KET_G, qmat.KET_PLUS_X))):
        assert fisher_for(params, block, 2).value_nbar == 0.0
        assert fd_qfi(params, block, 2, 1e-4) == 0.0


def test_rank_change_message_names_the_step_only_when_given():
    exact = RankChangeError(3.1e-8)
    assert "max kernel element 3.100e-08" in str(exact)
    assert "step" not in str(exact)
    # on the exact path a kernel leak is a real rank change of the state
    params = ModelParams(nbar=1e-6, gamma_tau_se=1.0, interaction=Interaction.ZZ)
    with pytest.raises(RankChangeError) as info:
        fisher_for(params, AncillaBlock(b=1, psi=qmat.KET_PLUS_X), 4)
    assert "step" not in str(info.value)


def random_states(rng, count, dim):
    psi = rng.normal(size=(count, dim)) + 1j * rng.normal(size=(count, dim))
    return psi / np.linalg.norm(psi, axis=1, keepdims=True)


def test_qfi_values_match_fisher_for():
    # each row of one stacked call against the one-row evaluation of its state
    rng = np.random.default_rng(11)
    named = {1: [qmat.KET_PLUS_X, qmat.KET_G, KET_PLUS_Y],
             2: [np.kron(qmat.KET_G, qmat.KET_PLUS_X),
                 (np.kron(qmat.KET_G, qmat.KET_G)
                  + np.kron(KET_E, KET_E)) / math.sqrt(2)]}
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
                    values = qfi_values(params, psi, n)
                    assert values.shape == (len(psi),)
                    for row, value in zip(psi, values):
                        ref = fisher_for(params, AncillaBlock(b=b, psi=row),
                                         n).value_nbar
                        if ref == 0.0:
                            assert value == 0.0
                        else:
                            worst = max(worst, abs(value - ref) / ref)
    assert worst <= 1e-12


def test_one_block_fisher_for_reads_zero_without_coupling():
    # at g_tau_sa=0 no collision touches the system, so nothing of nbar
    # reaches the ancillas: the block state's polynomial gives derivative L
    # rows of exact zeros, and a b=2 one-block QFI reads exactly 0
    rng = np.random.default_rng(29)
    for interaction in Interaction:
        for nbar in (0.05, 1.3, 1e-6):
            params = ModelParams(nbar=nbar, gamma_tau_se=0.5, g_tau_sa=0.0,
                                 interaction=interaction)
            for psi in random_states(rng, 3, 4):
                block = AncillaBlock(b=2, psi=psi)
                assert fisher_for(params, block, 2).value_nbar == 0.0


def test_qfi_values_of_a_sweep_row_peak_below_the_maps_and_four_rows():
    # a 21-point exchange |gg> N=4 row: past the step-map stack, the chain
    # and the QFI hold at most four arrays of the outgoing state's size
    points = [ModelParams(nbar=1.3, gamma_tau_se=gt,
                          interaction=Interaction.EXCHANGE)
              for gt in np.geomspace(0.01, 3.0, 21)]
    psi = np.kron(qmat.KET_G, qmat.KET_G)[None]
    qfi_values(points, psi, 4)  # fills the cached polynomial
    bound = step_maps(points, psi, 4).nbytes + 4 * 21 * 16 * 16 * 16
    assert bound == 569_856
    tracemalloc.start()
    try:
        qfi_values(points, psi, 4)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= bound


@settings(max_examples=60, derandomize=True, deadline=None)
@given(b_n=st.sampled_from([(1, 1), (1, 2), (1, 3), (1, 4), (2, 2), (2, 4)]),
       interaction=st.sampled_from(list(Interaction)),
       nbar=st.floats(0.1, 10.0), gamma_tau=st.floats(0.01, 3.2),
       g_tau=st.floats(0.3, 1.5), seed=st.integers(0, 2 ** 32 - 1))
def test_qfi_values_match_sylvester_oracle(b_n, interaction, nbar, gamma_tau,
                                           g_tau, seed):
    # the eigenbasis formula against L from rho L + L rho = 2 drho, for a
    # random block state
    b, n = b_n
    params = ModelParams(nbar=nbar, gamma_tau_se=gamma_tau, g_tau_sa=g_tau,
                         interaction=interaction)
    psi = random_states(np.random.default_rng(seed), 1, 2 ** b)
    rho, drho, _ = outgoing_with_derivative(step_maps(params, psi, n), n)
    ref = sld_qfi(rho[0], drho[0])
    assert abs(qfi_values(params, psi, n)[0] - ref) <= 1e-10 * ref


def test_qfi_values_match_bures_oracle_near_rank_deficiency():
    # at nbar = 1e-3 rho is near rank deficient (cond 1.5e7 for gg N=2,
    # 2e14 for N=4), where the Sylvester system is ill-posed; the fidelity
    # form converges to the QFI as O(h^2) over h = nbar / 4 ... nbar / 256
    nbar = 1e-3
    gg = AncillaBlock(b=2, psi=np.kron(qmat.KET_G, qmat.KET_G))
    plusx = AncillaBlock(b=1, psi=qmat.KET_PLUS_X)
    cases = [(Interaction.EXCHANGE, gg, n, 0.3) for n in (2, 4)]
    cases += [(Interaction.ZZ, plusx, n, 0.5) for n in (1, 2)]
    for interaction, block, n, gamma_tau in cases:
        params = ModelParams(nbar=nbar, gamma_tau_se=gamma_tau,
                             interaction=interaction)
        value = qfi_values(params, block.psi[None], n)[0]
        build = joint_state_builder(params, block, n)
        errors = [abs(bures_qfi(build, nbar, nbar * 2.0 ** -k) - value) / value
                  for k in range(2, 9)]
        assert min(errors) <= 1e-4, (interaction, n, errors)
        for coarse, fine in zip(errors[:4], errors[1:5]):
            assert fine <= coarse / 3.0, (interaction, n, errors)


def test_qfi_values_raise_rank_change_in_a_batch():
    # one rank-changing row fails the whole stacked call, as the one-row
    # call on that state does
    params = ModelParams(nbar=1e-6, gamma_tau_se=1.0, interaction=Interaction.ZZ)
    psi = np.array([qmat.KET_G, qmat.KET_PLUS_X, KET_E])
    with pytest.raises(RankChangeError) as batch:
        qfi_values(params, psi, 4)
    with pytest.raises(RankChangeError) as single:
        fisher_for(params, AncillaBlock(b=1, psi=qmat.KET_PLUS_X), 4)
    assert batch.value.max_kernel_element == pytest.approx(
        single.value.max_kernel_element, rel=1e-6)
    # without that row the same point evaluates
    values = qfi_values(params, psi[[0, 2]], 4)
    assert np.all(np.isfinite(values))
    # the error carries every row's value, NaN on the leaking row; the rows
    # left are the values of the call without it, bit for bit
    assert np.isnan(batch.value.values[1])
    np.testing.assert_array_equal(batch.value.values[[0, 2]], values)
    # the same for a sweep row of nonzero QFIs (exchange |gg>, N=4), whose
    # three middle points change rank
    points = [ModelParams(nbar=1e-6, gamma_tau_se=gt,
                          interaction=Interaction.EXCHANGE)
              for gt in (0.01, 0.1, 0.3, 1.0, 3.0)]
    gg = np.kron(qmat.KET_G, qmat.KET_G)[None]
    with pytest.raises(RankChangeError) as row:
        qfi_values(points, gg, 4)
    assert np.isnan(row.value.values).tolist() == [False, True, True, True,
                                                   False]
    ends = qfi_values([points[0], points[-1]], gg, 4)
    assert np.all(ends > 0.0)
    np.testing.assert_array_equal(row.value.values[[0, -1]], ends)
    # raised without values, the error says that no row has one
    assert RankChangeError(1.0).values is None


def test_qfi_values_degenerate_fixed_point():
    # Phi = I for every block state: each row takes the least-squares branch
    # and returns the one-row value
    params = ModelParams(nbar=1.0, gamma_tau_se=0.0, g_tau_sa=0.0,
                         interaction=Interaction.EXCHANGE)
    rng = np.random.default_rng(12)
    for b in (1, 2):
        psi = random_states(rng, 3, 2 ** b)
        values = qfi_values(params, psi, 2)
        for row, value in zip(psi, values):
            assert value == fisher_for(params, AncillaBlock(b=b, psi=row),
                                       2).value_nbar


def test_qfi_values_validation():
    params = ModelParams(nbar=1.0, gamma_tau_se=0.5)
    gg = np.kron(qmat.KET_G, qmat.KET_G)
    with pytest.raises(ValueError):
        qfi_values(params, np.array([qmat.KET_G, [1.0, 1.0]]), 1)
    with pytest.raises(ValueError):
        qfi_values(params, np.array([[np.nan, 0.0]]), 1)
    with pytest.raises(ValueError):
        qfi_values(params, np.array([gg]), 3)
    with pytest.raises(ValueError, match="block size"):
        qfi_values(params, np.eye(8)[:1], 3)
    # a sequence of parameter points, one point included, takes one block
    # state, and its points must share the collision unitary
    row = [params, ModelParams(nbar=2.0, gamma_tau_se=0.5)]
    with pytest.raises(ValueError):
        qfi_values(row, np.array([qmat.KET_G, KET_E]), 1)
    with pytest.raises(ValueError, match="takes one block state, got 2"):
        step_maps([params], np.array([qmat.KET_G, KET_E]), 1)
    mixed = [params, ModelParams(nbar=1.0, gamma_tau_se=0.5, g_tau_sa=1.0)]
    with pytest.raises(ValueError):
        qfi_values(mixed, qmat.KET_G[None], 1)
    with pytest.raises(ValueError, match="empty parameter sequence"):
        qfi_values([], qmat.KET_G[None], 1)


def tangent(psi, grad):
    """The part of a gradient in psi that moves the state: the radial part,
    which only rescales psi, is removed."""
    return grad - np.vdot(psi, grad).real * psi


def normalized_qfi(params, n):
    """psi -> QFI of the state psi / |psi|."""
    return lambda z: qfi_values(params, (z / np.linalg.norm(z))[None], n)[0]


GRADIENT_CASES = [(b, n, interaction)
                  for b, n in ((1, 1), (1, 2), (2, 2), (2, 4))
                  for interaction in Interaction]


def test_qfi_gradient_matches_finite_differences():
    # the exact gradient of each row of a stack against central differences
    # of the QFI of the normalized state in every real coordinate of psi
    rng = np.random.default_rng(21)
    for b, n, interaction in GRADIENT_CASES:
        params = ModelParams(nbar=0.8, gamma_tau_se=0.4, g_tau_sa=1.1,
                             interaction=interaction)
        psi = random_states(rng, 3, 2 ** b)
        values, g = qfi_and_gradient(params, psi, n)
        np.testing.assert_array_equal(values, qfi_values(params, psi, n))
        for row, gk in zip(psi, g):
            assert np.max(np.abs(gk - gk.conj().T)) == 0.0
            grad = tangent(row, 2.0 * gk @ row)
            fd = psi_gradient(normalized_qfi(params, n), row, 1e-6)
            assert np.max(np.abs(grad - fd)) <= 1e-6 * np.max(np.abs(grad)), (
                b, n, interaction)


def test_qfi_gradient_matches_sylvester_sld():
    # dF = 2 tr(L d(drho)) - tr(L^2 d(rho)) with L from the oracle's
    # Sylvester solve and the moves of (rho, drho) taken by central
    # differences of the forward chain, one real coordinate of psi at a time
    rng = np.random.default_rng(22)
    h = 1e-6
    for b, n, interaction in GRADIENT_CASES:
        params = ModelParams(nbar=1.7, gamma_tau_se=0.6, g_tau_sa=0.8,
                             interaction=interaction)
        psi = random_states(rng, 1, 2 ** b)[0]

        def state(z):
            z = z / np.linalg.norm(z)
            return outgoing_with_derivative(step_maps(params, z[None], n), n)[:2]

        rho, drho = state(psi)
        L = sld(rho[0], drho[0])
        grad = tangent(psi, 2.0 * qfi_and_gradient(params, psi[None], n)[1][0]
                       @ psi)
        for k in range(2 ** b):
            for unit in (1.0, 1j):
                e = np.zeros(2 ** b, dtype=complex)
                e[k] = unit * h
                (rp, dp), (rm, dm) = state(psi + e), state(psi - e)
                move = (2.0 * np.trace(L @ (dp - dm)[0])
                        - np.trace(L @ L @ (rp - rm)[0])).real / (2.0 * h)
                assert abs(np.vdot(grad, e / h).real - move) <= (
                    1e-6 * np.max(np.abs(grad))), (b, n, interaction, k, unit)


def test_stacked_rows_match_each_row_alone():
    # each row of a 6-row stack reads the same step maps, QFI and gradient as
    # that row run alone, bit for bit, so the starts of an ascent never move
    # each other's paths
    rng = np.random.default_rng(23)
    for b, n in ((1, 1), (1, 2), (1, 4), (2, 2), (2, 4)):
        for interaction in Interaction:
            params = ModelParams(nbar=1.3, gamma_tau_se=0.4, g_tau_sa=1.1,
                                 interaction=interaction)
            psi = random_states(rng, 6, 2 ** b)
            maps = step_maps(params, psi, n)
            values, g = qfi_and_gradient(params, psi, n)
            for k in range(6):
                row = psi[k:k + 1]
                assert (step_maps(params, row, n).tobytes()
                        == maps[k:k + 1].tobytes()), (b, n, interaction, k)
                value, gk = qfi_and_gradient(params, row, n)
                assert value.tobytes() == values[k:k + 1].tobytes()
                assert gk.tobytes() == g[k:k + 1].tobytes()


# Z (x) I + I (x) Z: the generator of a collective Z rotation of the block
Z_COLL = np.diag([2.0, 0.0, 0.0, -2.0])


@settings(max_examples=40, derandomize=True, deadline=None)
@given(interaction=st.sampled_from(list(Interaction)),
       n=st.sampled_from([2, 4]), nbar=st.floats(0.1, 10.0),
       gamma_tau=st.floats(0.01, 3.0), g_tau=st.floats(0.3, 1.5),
       seed=st.integers(0, 2 ** 32 - 1))
def test_qfi_gradient_is_blind_to_phase_and_collective_z(interaction, n, nbar,
                                                         gamma_tau, g_tau,
                                                         seed):
    # the QFI does not change under a global phase or a collective Z
    # rotation of the block, so its gradient has no part along either move
    params = ModelParams(nbar=nbar, gamma_tau_se=gamma_tau, g_tau_sa=g_tau,
                         interaction=interaction)
    psi = random_states(np.random.default_rng(seed), 1, 4)[0]
    grad = 2.0 * qfi_and_gradient(params, psi[None], n)[1][0] @ psi
    for move in (1j * psi, 1j * Z_COLL @ psi):
        assert abs(np.vdot(grad, move).real) <= 1e-12 * np.linalg.norm(grad)


def test_qfi_gradient_raises_rank_change_as_qfi_values_does():
    # exchange |g,g> without a bath occupation leaves a pure state whose
    # derivative leaks into its kernel
    params = ModelParams(nbar=0.0, gamma_tau_se=0.5,
                         interaction=Interaction.EXCHANGE)
    gg = np.kron(qmat.KET_G, qmat.KET_G)[None]
    with pytest.raises(RankChangeError) as value_path:
        qfi_values(params, gg, 2)
    with pytest.raises(RankChangeError) as gradient_path:
        qfi_and_gradient(params, gg, 2)
    assert str(gradient_path.value) == str(value_path.value)
