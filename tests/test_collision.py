import math

import numpy as np
import pytest

from collide_qfi import qmat
from collide_qfi.channels import (Interaction, ModelParams, apply_kraus_on,
                                  apply_unitary_on, collision_unitary, embed_op,
                                  gibbs_state, thermal_kraus)
from collide_qfi.collision import (AncillaBlock, FixedPointError,
                                   _block_trace, _fixed_point_pair,
                                   _step_map_tensor, block_collision_superop,
                                   block_map_superop, outgoing_joint_state,
                                   steady_state, steady_state_for, step_maps,
                                   step_maps_over_params)


def random_density(rng, d=2):
    a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    rho = a @ a.conj().T
    return rho / np.trace(rho).real


def power_iteration_fixed_point(superop, rho0, max_steps=500, tol=1e-12):
    """Iterate the block map from rho0; cross-check for steady_state."""
    rho = np.asarray(rho0, dtype=complex)
    for _ in range(max_steps):
        nxt = (superop @ rho.reshape(-1)).reshape(2, 2)
        if qmat.trace_norm(nxt - rho) < tol:
            return nxt
        rho = nxt
    return rho


def plusx_block():
    return AncillaBlock(b=1, psi=qmat.KET_PLUS_X)


def ground_block():
    return AncillaBlock(b=1, psi=qmat.KET_G)


def test_ancilla_block_validation():
    with pytest.raises(ValueError):
        AncillaBlock(b=3, psi=np.ones(8) / math.sqrt(8))
    with pytest.raises(ValueError):
        AncillaBlock(b=2, psi=qmat.KET_G)
    with pytest.raises(ValueError):
        AncillaBlock(b=1, psi=np.array([1.0, 1.0]))
    blk = AncillaBlock(b=2, psi=np.kron(qmat.KET_G, qmat.KET_PLUS_X))
    assert blk.projector.shape == (4, 4)


def test_block_map_matches_direct_construction():
    params = ModelParams(nbar=1.3, gamma_tau_se=0.6, g_tau_sa=0.8,
                         interaction=Interaction.EXCHANGE)
    block = AncillaBlock(b=2, psi=np.kron(qmat.KET_PLUS_X, qmat.KET_G))
    s = block_map_superop(params, block)

    rng = np.random.default_rng(0)
    u = collision_unitary(params)
    thermal = thermal_kraus(params.nbar, params.gamma_tau_se)
    dims = [2, 2, 2]
    for _ in range(5):
        rho_s = random_density(rng)
        joint = np.kron(rho_s, block.projector)
        for i in (1, 2):
            joint = apply_unitary_on(u, joint, [0, i], dims)
            joint = apply_kraus_on(thermal, joint, 0, dims)
        expect = qmat.partial_trace(joint, [0], dims)
        got = (s @ rho_s.reshape(-1)).reshape(2, 2)
        assert np.max(np.abs(got - expect)) < 1e-12


def test_block_map_is_cptp():
    rng = np.random.default_rng(1)
    for interaction in Interaction:
        params = ModelParams(nbar=0.7, gamma_tau_se=0.4, g_tau_sa=1.1,
                             interaction=interaction)
        s = block_map_superop(params, plusx_block())
        for _ in range(10):
            out = (s @ random_density(rng).reshape(-1)).reshape(2, 2)
            assert abs(np.trace(out) - 1.0) < 1e-12
            assert qmat.is_hermitian(out, 1e-12)
            assert np.linalg.eigvalsh(out).min() > -1e-12


def test_zz_steady_state_is_gibbs():
    # the ZZ collision is diagonal, so the bath alone sets the populations
    params = ModelParams(nbar=2.0, gamma_tau_se=0.8, interaction=Interaction.ZZ)
    res = steady_state_for(params, plusx_block())
    assert res.unique
    assert res.residual < 1e-12
    assert np.allclose(res.rho_s_star, gibbs_state(2.0), atol=1e-12)


def test_full_swap_steady_state_closed_form():
    # collision then bath: a full swap pins the system to the ancilla state,
    # so the fixed point is the thermal map applied to |g><g|
    nbar, gt = 1.5, 0.7
    params = ModelParams(nbar=nbar, gamma_tau_se=gt,
                         interaction=Interaction.EXCHANGE)
    res = steady_state_for(params, ground_block())
    expect = thermal_kraus(nbar, gt).apply(qmat.projector(qmat.KET_G))
    assert res.residual < 1e-12
    assert np.allclose(res.rho_s_star, expect, atol=1e-12)


def test_steady_state_agrees_with_power_iteration():
    params = ModelParams(nbar=0.4, gamma_tau_se=0.3, g_tau_sa=0.9,
                         interaction=Interaction.EXCHANGE)
    s = block_map_superop(params, plusx_block())
    res = steady_state(s)
    iterated = power_iteration_fixed_point(s, gibbs_state(0.4))
    assert np.max(np.abs(res.rho_s_star - iterated)) < 1e-10


def test_steady_state_flags_non_unique():
    # no bath contact and no collision: every state is fixed
    params = ModelParams(nbar=1.0, gamma_tau_se=0.0, g_tau_sa=0.0,
                         interaction=Interaction.EXCHANGE)
    res = steady_state_for(params, ground_block())
    assert not res.unique


def test_steady_state_rejects_contraction():
    with pytest.raises(FixedPointError):
        steady_state(0.5 * np.eye(4))
    # singular bordered system and no eigenvalue 1: the fallback row of the
    # stacked solver must raise, not hand back a pseudo-inverse solution
    phi = np.diag([2.0, 0.5, 0.5, 0.5]).astype(complex)
    phi[0, 3] = 1.0
    with pytest.raises(FixedPointError):
        steady_state(phi)
    with pytest.raises(FixedPointError):
        _fixed_point_pair(phi[None], np.zeros((1, 4, 4), dtype=complex))


def test_outgoing_joint_state_validation():
    params = ModelParams(nbar=1.0, gamma_tau_se=0.5,
                         interaction=Interaction.ZZ)
    with pytest.raises(ValueError):
        outgoing_joint_state(params, plusx_block(), 0)
    with pytest.raises(ValueError):
        outgoing_joint_state(params, plusx_block(), 5)
    blk2 = AncillaBlock(b=2, psi=np.kron(qmat.KET_G, qmat.KET_G))
    with pytest.raises(ValueError):
        outgoing_joint_state(params, blk2, 3)


def test_outgoing_joint_state_is_density_matrix():
    for interaction in Interaction:
        params = ModelParams(nbar=1.2, gamma_tau_se=0.6, g_tau_sa=0.7,
                             interaction=interaction)
        for n in (1, 2, 3, 4):
            rho = outgoing_joint_state(params, plusx_block(), n)
            assert rho.shape == (2 ** n, 2 ** n)
            qmat.check_density_matrix(rho)


def test_outgoing_marginals_consistent():
    # later collisions cannot disturb earlier outgoing ancillas
    params = ModelParams(nbar=0.9, gamma_tau_se=0.4,
                         interaction=Interaction.EXCHANGE)
    blk = plusx_block()
    for n in (1, 2, 3):
        big = outgoing_joint_state(params, blk, n + 1)
        small = outgoing_joint_state(params, blk, n)
        reduced = qmat.partial_trace(big, list(range(n)), [2] * (n + 1))
        assert np.max(np.abs(reduced - small)) < 1e-12


def test_outgoing_b2_single_block_matches_two_singles_for_product():
    # a b=2 product block with identical halves gives the same 2-ancilla
    # window as the b=1 stream prepared in that half
    params = ModelParams(nbar=1.1, gamma_tau_se=0.5,
                         interaction=Interaction.EXCHANGE)
    blk1 = plusx_block()
    blk2 = AncillaBlock(b=2, psi=np.kron(qmat.KET_PLUS_X, qmat.KET_PLUS_X))
    rho1 = outgoing_joint_state(params, blk1, 2)
    rho2 = outgoing_joint_state(params, blk2, 2)
    assert np.max(np.abs(rho1 - rho2)) < 1e-12


def test_full_swap_outgoing_ancilla_excitation():
    # after a full swap the outgoing ancilla carries the pre-collision system
    # state; its excited population has the closed form q = nbar(1-e^-G)/(2nbar+1)
    nbar, gt = 2.0, 0.9
    params = ModelParams(nbar=nbar, gamma_tau_se=gt,
                         interaction=Interaction.EXCHANGE)
    rho = outgoing_joint_state(params, ground_block(), 1)
    big_gamma = gt * (2 * nbar + 1)
    q = nbar * (1.0 - math.exp(-big_gamma)) / (2 * nbar + 1)
    assert abs(rho[1, 1].real - q) < 1e-12


def kraus_chain_state(params, block, n):
    """Outgoing state by the direct route: rho_S* (x) Psi^(x)N/b, then per
    ancilla the embedded collision unitary and the thermal Kraus set on S."""
    dims = [2] * (1 + n)
    u = collision_unitary(params)
    thermal = thermal_kraus(params.nbar, params.gamma_tau_se)
    joint = steady_state_for(params, block).rho_s_star
    for _ in range(n // block.b):
        joint = np.kron(joint, block.projector)
    for i in range(1, n + 1):
        joint = apply_unitary_on(u, joint, [0, i], dims)
        joint = apply_kraus_on(thermal, joint, 0, dims)
    return qmat.partial_trace(joint, list(range(1, n + 1)), dims)


def test_outgoing_joint_state_matches_kraus_chain():
    blocks = [plusx_block(), ground_block(),
              AncillaBlock(b=2, psi=np.kron(qmat.KET_PLUS_X, qmat.KET_PLUS_Y)),
              AncillaBlock(b=2, psi=(np.kron(qmat.KET_G, qmat.KET_G)
                                     + np.kron(qmat.KET_E, qmat.KET_E))
                           / math.sqrt(2))]
    worst = 0.0
    for interaction in Interaction:
        for nbar, gt in ((0.1, 0.01), (1.0, 0.3), (10.0, 3.0)):
            params = ModelParams(nbar=nbar, gamma_tau_se=gt, g_tau_sa=0.9,
                                 interaction=interaction)
            for blk in blocks:
                for n in range(blk.b, 5, blk.b):
                    got = outgoing_joint_state(params, blk, n)
                    ref = kraus_chain_state(params, blk, n)
                    worst = max(worst, float(np.max(np.abs(got - ref))))
    assert worst < 1e-12


def test_block_collision_superop_pair():
    # S against the product of embedded unitary and Kraus superoperators,
    # dS against a central difference of S; the cached pair is read-only
    def direct(params, b):
        dims = [2] * (1 + b)
        u = collision_unitary(params)
        kraus = thermal_kraus(params.nbar, params.gamma_tau_se).operators
        s_t = sum(np.kron(k, k.conj())
                  for k in (embed_op(k, [0], dims) for k in kraus))
        s = np.eye(4 ** (1 + b), dtype=complex)
        for i in range(1, b + 1):
            uf = embed_op(u, [0, i], dims)
            s = s_t @ np.kron(uf, uf.conj()) @ s
        return s

    h = 1e-5
    for interaction in Interaction:
        for b in (1, 2):
            params = ModelParams(nbar=0.8, gamma_tau_se=0.4, g_tau_sa=1.1,
                                 interaction=interaction)
            s, ds = block_collision_superop(params, b)
            assert np.max(np.abs(s - direct(params, b))) < 1e-14
            up = direct(ModelParams(nbar=0.8 + h, gamma_tau_se=0.4,
                                    g_tau_sa=1.1, interaction=interaction), b)
            down = direct(ModelParams(nbar=0.8 - h, gamma_tau_se=0.4,
                                      g_tau_sa=1.1, interaction=interaction), b)
            assert np.max(np.abs(ds - (up - down) / (2 * h))) < 1e-8
            with pytest.raises(ValueError):
                s[0, 0] = 0.0


def test_step_maps_match_block_collision_superop():
    # E rho_S = S (rho_S (x) Psi) and dE rho_S = dS (rho_S (x) Psi), from the
    # cached tensor (shared parameters, stacked states) and from the
    # per-ancilla builder (stacked parameters, one state)
    rng = np.random.default_rng(11)
    worst = 0.0
    for interaction in Interaction:
        grid = [ModelParams(nbar=nbar, gamma_tau_se=gt, g_tau_sa=1.1,
                            interaction=interaction)
                for nbar, gt in ((0.1, 0.01), (0.8, 0.4), (10.0, 3.0))]
        for b in (1, 2):
            d = 2 ** b
            psi = rng.normal(size=(3, d)) + 1j * rng.normal(size=(3, d))
            psi /= np.linalg.norm(psi, axis=1, keepdims=True)
            over_params = step_maps_over_params(grid, psi[0])
            for i, params in enumerate(grid):
                pair = block_collision_superop(params, b)
                shared = step_maps(params, b, psi)
                for maps, state in ((shared[0], psi[0]), (shared[2], psi[2]),
                                    (over_params[i], psi[0])):
                    for _ in range(2):
                        rho_s = random_density(rng)
                        joint = np.kron(rho_s, np.outer(state, state.conj()))
                        for k in (0, 1):
                            want = (pair[k] @ joint.reshape(-1)).reshape(
                                2, d, 2, d).transpose(0, 2, 1, 3).reshape(-1)
                            got = maps[k] @ rho_s.reshape(-1)
                            worst = max(worst, float(np.max(np.abs(got - want))))
    assert worst <= 1e-13


def test_step_map_tensor_is_read_only():
    # lru_cache hands the same array to every caller: a write must fail
    # rather than corrupt later evaluations with the same (params, b)
    params = ModelParams(nbar=0.8, gamma_tau_se=0.4,
                         interaction=Interaction.EXCHANGE)
    for b in (1, 2):
        tensor = _step_map_tensor(params, b)
        with pytest.raises(ValueError):
            tensor[0, 0] = 0.0
        with pytest.raises(ValueError):
            tensor *= 2.0


def test_step_maps_do_not_build_block_collision_superop():
    # the block pair is a reference layout only: new parameters fill the
    # step-map tensor cache and leave the pair's cache untouched
    before = block_collision_superop.cache_info().misses
    for b in (1, 2):
        params = ModelParams(nbar=0.123457 + b, gamma_tau_se=0.345679,
                             g_tau_sa=0.987654, interaction=Interaction.EXCHANGE)
        misses = _step_map_tensor.cache_info().misses
        step_maps(params, b, np.eye(2 ** b, dtype=complex))
        assert _step_map_tensor.cache_info().misses == misses + 1
    assert block_collision_superop.cache_info().misses == before


def test_fixed_point_pair_stack_mixes_degenerate_rows():
    # a row with a degenerate fixed space (Phi = I) takes the pseudo-inverse
    # alone; every row equals the one-row result for its map
    maps = []
    for interaction in Interaction:
        params = ModelParams(nbar=0.9, gamma_tau_se=0.3, g_tau_sa=1.2,
                             interaction=interaction)
        for block in (plusx_block(),
                      AncillaBlock(b=2, psi=np.kron(qmat.KET_G, qmat.KET_PLUS_Y))):
            maps.append(_block_trace(step_maps(params, block.b,
                                               block.psi[None]))[0])
    identity = (np.eye(4, dtype=complex), np.zeros((4, 4), dtype=complex))
    maps.insert(2, identity)
    phi = np.array([m[0] for m in maps])
    dphi = np.array([m[1] for m in maps])
    rho, drho = _fixed_point_pair(phi, dphi)
    for i, (p, dp) in enumerate(maps):
        rho_1, drho_1 = _fixed_point_pair(p[None], dp[None])
        assert np.max(np.abs(rho[i] - rho_1[0])) < 1e-14
        assert np.max(np.abs(drho[i] - drho_1[0])) < 1e-12
    # the degenerate row keeps the minimum-norm fixed point I/2
    assert np.max(np.abs(rho[2] - np.eye(2) / 2)) < 1e-15
    assert np.max(np.abs(drho[2])) == 0.0
