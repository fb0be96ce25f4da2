import itertools
import math
import tracemalloc

import numpy as np
import pytest

from collide_qfi import qmat
from collide_qfi.channels import (Interaction, ModelParams, collision_unitary,
                                  embed_op, thermal_coefficients, thermal_kraus)
from collide_qfi.collision import (AncillaBlock, FixedPointError,
                                   _basis_collisions, _fixed_point_pair,
                                   _projectors, _step_map_poly,
                                   _step_map_tensor,
                                   block_collision_superop, block_map_superop,
                                   outgoing_joint_state,
                                   outgoing_with_derivative, steady_state,
                                   step_maps, step_maps_pullback)
from collide_qfi.fisher import qfi_values
from oracles import (KET_E, KET_PLUS_Y, apply_kraus_on, apply_unitary_on,
                     check_density_matrix, gibbs_state, is_hermitian,
                     partial_trace, random_density, trace_norm)


def power_iteration_fixed_point(superop, rho0, max_steps=500, tol=1e-12):
    """Iterate the block map from rho0; cross-check for steady_state."""
    rho = np.asarray(rho0, dtype=complex)
    for _ in range(max_steps):
        nxt = (superop @ rho.reshape(-1)).reshape(2, 2)
        if trace_norm(nxt - rho) < tol:
            return nxt
        rho = nxt
    return rho


def fixed_point_residual(superop, rho):
    """|Phi vec(rho) - vec(rho)|, the Euclidean norm on vectorized rho."""
    return float(np.linalg.norm(superop @ rho.reshape(-1) - rho.reshape(-1)))


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
    assert _projectors(blk.psi[None])[0].shape == (4, 4)


def test_block_map_matches_direct_construction():
    params = ModelParams(nbar=1.3, gamma_tau_se=0.6, g_tau_sa=0.8,
                         interaction=Interaction.EXCHANGE)
    block = AncillaBlock(b=2, psi=np.kron(qmat.KET_PLUS_X, qmat.KET_G))
    s = block_map_superop(params, block)

    rng = np.random.default_rng(0)
    u = collision_unitary(params.interaction, params.g_tau_sa)
    thermal = thermal_kraus(params.nbar, params.gamma_tau_se)
    dims = [2, 2, 2]
    for _ in range(5):
        rho_s = random_density(rng)
        joint = np.kron(rho_s, _projectors(block.psi[None])[0])
        for i in (1, 2):
            joint = apply_unitary_on(u, joint, [0, i], dims)
            joint = apply_kraus_on(thermal, joint, 0, dims)
        expect = partial_trace(joint, [0], dims)
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
            assert is_hermitian(out, 1e-12)
            assert np.linalg.eigvalsh(out).min() > -1e-12


def test_zz_steady_state_is_gibbs():
    # the ZZ collision is diagonal, so the bath alone sets the populations
    params = ModelParams(nbar=2.0, gamma_tau_se=0.8, interaction=Interaction.ZZ)
    s = block_map_superop(params, plusx_block())
    rho = steady_state(s)
    assert fixed_point_residual(s, rho) < 1e-12
    assert np.allclose(rho, gibbs_state(2.0), atol=1e-12)


def test_full_swap_steady_state_closed_form():
    # collision then bath: a full swap pins the system to the ancilla state,
    # so the fixed point is the thermal map applied to |g><g|
    nbar, gt = 1.5, 0.7
    params = ModelParams(nbar=nbar, gamma_tau_se=gt,
                         interaction=Interaction.EXCHANGE)
    s = block_map_superop(params, ground_block())
    rho = steady_state(s)
    expect = thermal_kraus(nbar, gt).apply(_projectors(qmat.KET_G[None])[0])
    assert fixed_point_residual(s, rho) < 1e-12
    assert np.allclose(rho, expect, atol=1e-12)


def test_steady_state_agrees_with_power_iteration():
    params = ModelParams(nbar=0.4, gamma_tau_se=0.3, g_tau_sa=0.9,
                         interaction=Interaction.EXCHANGE)
    s = block_map_superop(params, plusx_block())
    rho = steady_state(s)
    iterated = power_iteration_fixed_point(s, gibbs_state(0.4))
    assert np.max(np.abs(rho - iterated)) < 1e-10


def test_steady_state_of_identity_is_minimum_norm():
    # no bath contact and no collision: every state is fixed, and the
    # minimum-norm one is I/2
    params = ModelParams(nbar=1.0, gamma_tau_se=0.0, g_tau_sa=0.0,
                         interaction=Interaction.EXCHANGE)
    s = block_map_superop(params, ground_block())
    assert np.allclose(s, np.eye(4))
    assert np.allclose(steady_state(s), np.eye(2) / 2.0, atol=1e-12)
    # a |+x> block's map rounds Phi[0, 0] to 1 - 2^-52, as (1/sqrt 2)^2
    # rounds below 1/2; Phi - I takes that corner from trace preservation,
    # so the fixed space stays degenerate and the fixed point exactly I/2.
    # With no bath a zz collision only dephases, so gtau = pi/2 is the same.
    for interaction, g_tau_sa in ((Interaction.ZZ, 0.0),
                                  (Interaction.ZZ, math.pi / 2),
                                  (Interaction.EXCHANGE, 0.0)):
        params = ModelParams(nbar=1.0, gamma_tau_se=0.0, g_tau_sa=g_tau_sa,
                             interaction=interaction)
        s = block_map_superop(params, plusx_block())
        assert np.array_equal(steady_state(s), np.eye(2) / 2.0)


def test_steady_state_rejects_contraction():
    with pytest.raises(FixedPointError, match="trace"):
        steady_state(0.5 * np.eye(4))
    # invertible bordered system, but the map does not preserve trace: the
    # stacked solver must raise, not hand back diag(0, 1)
    with pytest.raises(FixedPointError, match="trace"):
        _fixed_point_pair(0.5 * np.eye(4, dtype=complex)[None],
                          np.zeros((1, 4, 4), dtype=complex))
    # singular bordered system and no eigenvalue 1: the stacked solver must
    # raise, not hand back a pseudo-inverse solution
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
            check_density_matrix(rho)


def test_outgoing_marginals_consistent():
    # later collisions cannot disturb earlier outgoing ancillas
    params = ModelParams(nbar=0.9, gamma_tau_se=0.4,
                         interaction=Interaction.EXCHANGE)
    blk = plusx_block()
    for n in (1, 2, 3):
        big = outgoing_joint_state(params, blk, n + 1)
        small = outgoing_joint_state(params, blk, n)
        reduced = partial_trace(big, list(range(n)), [2] * (n + 1))
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
    u = collision_unitary(params.interaction, params.g_tau_sa)
    thermal = thermal_kraus(params.nbar, params.gamma_tau_se)
    joint = steady_state(block_map_superop(params, block))
    for _ in range(n // block.b):
        joint = np.kron(joint, _projectors(block.psi[None])[0])
    for i in range(1, n + 1):
        joint = apply_unitary_on(u, joint, [0, i], dims)
        joint = apply_kraus_on(thermal, joint, 0, dims)
    return partial_trace(joint, list(range(1, n + 1)), dims)


def test_outgoing_joint_state_matches_kraus_chain():
    blocks = [plusx_block(), ground_block(),
              AncillaBlock(b=2, psi=np.kron(qmat.KET_PLUS_X, KET_PLUS_Y)),
              AncillaBlock(b=2, psi=(np.kron(qmat.KET_G, qmat.KET_G)
                                     + np.kron(KET_E, KET_E))
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
        u = collision_unitary(params.interaction, params.g_tau_sa)
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
        for b in (1, 2, 3):
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
    # cached tensor (shared parameters, stacked states) and from the cached
    # polynomial (stacked parameters, one state); the Phi and L rows
    # are tr_A and tr_S of the same output
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
            over_params = step_maps(grid, psi[:1], 2 * b)
            for i, params in enumerate(grid):
                pair = block_collision_superop(params, b)
                shared = step_maps(params, psi, 2 * b)
                for maps, state in ((shared[0], psi[0]), (shared[2], psi[2]),
                                    (over_params[i], psi[0])):
                    assert maps.shape == (2, 4 + 5 * d * d, 4)
                    for _ in range(2):
                        rho_s = random_density(rng)
                        joint = np.kron(rho_s, np.outer(state, state.conj()))
                        for k in (0, 1):
                            out = (pair[k] @ joint.reshape(-1)).reshape(
                                2, d, 2, d)
                            # E rows: (iS, jS), then each ancilla's (row,
                            # column), latest first
                            e = out.reshape(2, *[2] * b, 2, *[2] * b)
                            e = e.transpose(0, b + 1, *[
                                i for a in reversed(range(b))
                                for i in (1 + a, b + 2 + a)])
                            want = np.concatenate([
                                np.einsum('iaja->ij', out).reshape(-1),
                                np.einsum('iaib->ab', out).reshape(-1),
                                e.reshape(-1)])
                            got = maps[k] @ rho_s.reshape(-1)
                            worst = max(worst, float(np.max(np.abs(got - want))))
    assert worst <= 1e-13


def _worst_block_error(got, want, b):
    """The largest error of the Phi, L and E rows of a (2, rows, 4) pair of
    maps and derivatives, each against its largest entry; a block that is
    zero must read zero."""
    worst = 0.0
    d2 = 4 ** b
    for rows in (slice(0, 4), slice(4, 4 + d2), slice(4 + d2, None)):
        for k in (0, 1):
            if want[k, rows].size:
                diff = np.abs(got[k, rows] - want[k, rows])
                scale = np.abs(want[k, rows]).max()
                worst = max(worst, float(diff.max() / (scale if scale else 1.0)))
    return worst


def test_step_map_builders_agree_row_for_row():
    # the cached tensor and the polynomial of a parameter sequence give
    # every Phi, L and E row alike, with and without the E rows, also with
    # no coupling, no bath contact and at small nbar; at b=3, which
    # block_size does not take yet, the polynomial's monomials of degree 3
    # sum to the tensor's maps too
    rng = np.random.default_rng(12)
    worst = 0.0
    points = {0.7: ((0.05, 0.02), (1.3, 0.5), (20.0, 4.0), (1e-6, 1e-12)),
              0.0: ((1e-6, 0.0), (1e-6, 1e-12), (1e-6, 3.0))}
    for interaction, (g_tau_sa, row) in itertools.product(Interaction,
                                                          points.items()):
        grid = [ModelParams(nbar=nbar, gamma_tau_se=gt, g_tau_sa=g_tau_sa,
                            interaction=interaction) for nbar, gt in row]
        for b in (1, 2):
            psi = rng.normal(size=(1, 2 ** b)) + 1j * rng.normal(size=(1, 2 ** b))
            psi /= np.linalg.norm(psi)
            for n in (b, 2 * b):
                over_params = step_maps(grid, psi, n)
                for i, params in enumerate(grid):
                    worst = max(worst, _worst_block_error(
                        over_params[i], step_maps(params, psi, n)[0], b))
    for interaction, (nbar, gt, g_tau_sa) in itertools.product(
            Interaction, ((0.4, 0.3, 0.9), (2.0, 1.1, math.pi / 2))):
        params = ModelParams(nbar=nbar, gamma_tau_se=gt, g_tau_sa=g_tau_sa,
                             interaction=interaction)
        psi = rng.normal(size=8) + 1j * rng.normal(size=8)
        psi /= np.linalg.norm(psi)
        c = thermal_coefficients(np.array([nbar]), np.array([gt]), 3)[0]
        poly = _step_map_poly(interaction, g_tau_sa, psi.tobytes())
        over_poly = (c @ poly).view(complex).reshape(2, -1, 4)
        tensor = _step_map_tensor(params, 3, True)
        p = _projectors(psi[None]).reshape(-1)
        shared = ((p.real + p.imag) @ tensor).view(complex).reshape(2, -1, 4)
        worst = max(worst, _worst_block_error(over_poly, shared, 3))
    assert worst <= 1e-15


def test_one_block_chain_forms_no_e_rows():
    # a chain of one block reads Phi and L only, so neither path hands it
    # the 4*4^b E rows (the polynomial's prefix, a tensor kept to [Phi; L]);
    # a chain of two blocks has them, and a one-block stack cannot be run
    # as a longer chain
    params = ModelParams(nbar=0.8, gamma_tau_se=0.4,
                         interaction=Interaction.EXCHANGE)
    for b in (1, 2):
        d2 = 4 ** b
        psi = np.eye(2 ** b, dtype=complex)[:1]
        for n, rows in ((b, 4 + d2), (2 * b, 4 + 5 * d2)):
            assert step_maps(params, psi, n).shape == (1, 2, rows, 4)
            assert step_maps([params, params], psi, n).shape == (2, 2, rows, 4)
            assert _step_map_tensor(params, b, n > b).shape == (d2, 16 * rows)
        with pytest.raises(ValueError, match="E rows"):
            outgoing_with_derivative(step_maps(params, psi, b), 2 * b)


def test_fresh_b2_step_map_fills_keep_their_traced_peak():
    # a fill composes one collision order at a time: the tensor takes one
    # builder call for its maps and one for their derivative, the
    # polynomial one per monomial, so no fill holds the partial products
    # of all its orders at once. Fresh b=2 fills, the tensor with its E
    # rows and the polynomial, keep their traced peaks under these bounds.
    params = ModelParams(nbar=10.0, gamma_tau_se=0.3,
                         interaction=Interaction.EXCHANGE)
    _basis_collisions(params.interaction, params.g_tau_sa)
    psi = np.array([1.0, 1j]) @ np.random.default_rng(37).normal(size=(2, 4))
    psi /= np.linalg.norm(psi)
    fills = ((lambda: _step_map_tensor(params, 2, True), 450_000),
             (lambda: _step_map_poly(params.interaction, params.g_tau_sa,
                                     psi.tobytes()), 200_000))
    for fill, bound in fills:
        _step_map_tensor.cache_clear()
        tracemalloc.start()
        try:
            fill()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= bound


def test_stacked_step_maps_and_their_pullback_keep_their_traced_peak():
    # at one point, a stack of block states takes one real product per row
    # of real coordinates against the warm tensor, and the pullback one per
    # row of the cotangent against its transpose, so step_maps holds little
    # beyond its output and the pullback little beyond the (R, 4, 4) G
    params = ModelParams(nbar=1.3, gamma_tau_se=0.4, g_tau_sa=1.1,
                         interaction=Interaction.EXCHANGE)
    rng = np.random.default_rng(38)
    psi = rng.normal(size=(64, 4)) + 1j * rng.normal(size=(64, 4))
    psi /= np.linalg.norm(psi, axis=1, keepdims=True)
    maps = step_maps(params, psi, 4)
    maps_bar = np.ones(maps.shape, dtype=complex)
    step_maps_pullback(params, maps_bar)
    for run, bound in ((lambda: step_maps(params, psi, 4), 1.25 * maps.nbytes),
                       (lambda: step_maps_pullback(params, maps_bar),
                        0.25 * maps_bar.nbytes)):
        tracemalloc.start()
        try:
            run()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= bound


def test_step_map_tensor_is_read_only():
    # lru_cache hands the same array to every caller: a write must fail
    # rather than corrupt later evaluations with the same (params, b,
    # with_e), (interaction, g_tau_sa, state) or (interaction, g_tau_sa);
    # the basis collisions feed both step-map caches
    params = ModelParams(nbar=0.8, gamma_tau_se=0.4,
                         interaction=Interaction.EXCHANGE)
    cached = [_basis_collisions(params.interaction, params.g_tau_sa)]
    for b in (1, 2):
        psi = np.eye(2 ** b, dtype=complex)[0]
        cached.append(_step_map_poly(params.interaction, params.g_tau_sa,
                                     psi.tobytes()))
        for with_e in (False, True):
            cached.append(_step_map_tensor(params, b, with_e))
    for tensor in cached:
        with pytest.raises(ValueError):
            tensor[0, 0] = 0.0
        with pytest.raises(ValueError):
            tensor *= 2.0


def test_step_maps_do_not_build_block_collision_superop():
    # the block pair is a reference layout only: new parameters fill the
    # step-map tensor cache and leave the pair's cache untouched. The input
    # type picks the builder: a parameter sequence reads its state's
    # polynomial and forms no tensor, one parameter point forms exactly one.
    before = block_collision_superop.cache_info().misses
    for b in (1, 2):
        params = ModelParams(nbar=0.123457 + b, gamma_tau_se=0.345679,
                             g_tau_sa=0.987654, interaction=Interaction.EXCHANGE)
        row = [params, ModelParams(nbar=0.234568 + b, gamma_tau_se=0.456789,
                                   g_tau_sa=0.987654,
                                   interaction=Interaction.EXCHANGE)]
        psi = np.eye(2 ** b, dtype=complex)
        misses = _step_map_tensor.cache_info().misses
        qfi_values(row, psi[:1], b)
        assert _step_map_tensor.cache_info().misses == misses
        qfi_values(params, psi, b)
        assert _step_map_tensor.cache_info().misses == misses + 1
        step_maps(params, psi, b)
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
                      AncillaBlock(b=2, psi=np.kron(qmat.KET_G, KET_PLUS_Y))):
            maps.append(step_maps(params, block.psi[None], block.b)[0, :, :4])
    identity = (np.eye(4, dtype=complex), np.zeros((4, 4), dtype=complex))
    maps.insert(2, identity)
    phi = np.array([m[0] for m in maps])
    dphi = np.array([m[1] for m in maps])
    rho, drho, _ = _fixed_point_pair(phi, dphi)
    for i, (p, dp) in enumerate(maps):
        rho_1, drho_1, _ = _fixed_point_pair(p[None], dp[None])
        assert np.max(np.abs(rho[i] - rho_1[0])) < 1e-14
        assert np.max(np.abs(drho[i] - drho_1[0])) < 1e-12
    # the degenerate row keeps the minimum-norm fixed point I/2
    assert np.max(np.abs(rho[2] - np.eye(2) / 2)) < 1e-15
    assert np.max(np.abs(drho[2])) == 0.0
