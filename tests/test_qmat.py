from functools import reduce

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from collide_qfi import qmat
from collide_qfi.collision import _projectors
from oracles import (KET_E, KET_PLUS_Y, SIGMA_MINUS, SIGMA_PLUS,
                     check_density_matrix, partial_trace, random_density,
                     trace_norm)


def test_partial_trace_rejects_nonsquare():
    with pytest.raises(ValueError):
        partial_trace(np.zeros((2, 3)), [0], [2])


def test_check_density_matrix_accepts_valid():
    rng = np.random.default_rng(2)
    rho = random_density(rng, 4)
    out = check_density_matrix(rho)
    assert np.allclose(out, rho)


def test_check_density_matrix_rejects():
    with pytest.raises(ValueError, match="Hermitian"):
        check_density_matrix(np.array([[0.5, 1.0], [0.0, 0.5]]))
    with pytest.raises(ValueError, match="trace"):
        check_density_matrix(np.eye(2))
    with pytest.raises(ValueError, match="PSD"):
        check_density_matrix(np.diag([1.5, -0.5]))


def test_pure_state_normalization():
    psi = qmat.pure_states([1 / np.sqrt(2), 1j / np.sqrt(2)])
    assert abs(np.vdot(psi, psi) - 1.0) < 1e-12
    with pytest.raises(ValueError):
        qmat.pure_states([1.0, 1.0])


def test_projector_idempotent():
    p = _projectors(KET_PLUS_Y[None])[0]
    assert np.allclose(p @ p, p)
    assert abs(np.trace(p) - 1.0) < 1e-12


@settings(max_examples=50, deadline=None)
@given(st.integers(min_value=0, max_value=2), st.integers(min_value=0, max_value=99))
def test_partial_trace_of_product_state(keep, seed):
    rng = np.random.default_rng(seed)
    parts = [random_density(rng, 2) for _ in range(3)]
    joint = reduce(np.kron, parts)
    reduced = partial_trace(joint, [keep], [2, 2, 2])
    assert np.allclose(reduced, parts[keep], atol=1e-12)


def test_partial_trace_preserves_trace():
    rng = np.random.default_rng(3)
    rho = random_density(rng, 8)
    for keep in ([0], [1], [0, 2], [0, 1, 2]):
        red = partial_trace(rho, keep, [2, 2, 2])
        assert abs(np.trace(red) - 1.0) < 1e-12


def test_partial_trace_validates_args():
    rho = np.eye(4) / 4
    with pytest.raises(ValueError):
        partial_trace(rho, [0], [2, 2, 2])
    with pytest.raises(ValueError):
        partial_trace(rho, [5], [2, 2])


def test_herm_eigen_reconstructs():
    rng = np.random.default_rng(4)
    h = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
    h = h + h.conj().T
    w, v = qmat.herm_eigen(h)
    assert np.all(np.diff(w) >= 0)
    assert np.allclose(v @ np.diag(w) @ v.conj().T, h, atol=1e-10)


def test_herm_eigen_rejects_nonhermitian():
    with pytest.raises(ValueError):
        qmat.herm_eigen(np.array([[0.0, 1.0], [0.0, 0.0]]))
    # neither a vector nor a stack of non-square matrices is an input
    for shape in ((3,), (2, 3), (4, 2, 3)):
        with pytest.raises(ValueError, match="expected square matrices"):
            qmat.herm_eigen(np.zeros(shape))


def test_herm_eigen_stack_matches_each_matrix():
    rng = np.random.default_rng(6)
    h = rng.normal(size=(5, 4, 4)) + 1j * rng.normal(size=(5, 4, 4))
    h = h + h.conj().transpose(0, 2, 1)
    w, v = qmat.herm_eigen(h)
    for i in range(5):
        wi, vi = qmat.herm_eigen(h[i])
        assert np.allclose(w[i], wi, atol=1e-12)
        assert np.allclose(v[i] @ np.diag(w[i]) @ v[i].conj().T, h[i],
                           atol=1e-10)
    # one non-Hermitian matrix in the stack fails the call
    h[3, 0, 1] += 1.0
    with pytest.raises(ValueError):
        qmat.herm_eigen(h)


def test_pure_states_checks_each_row():
    good = np.array([qmat.KET_G, qmat.KET_PLUS_X])
    assert np.array_equal(qmat.pure_states(good), good)
    with pytest.raises(ValueError):
        qmat.pure_states(np.array([qmat.KET_G, [1.0, 1.0]]))
    with pytest.raises(ValueError):
        qmat.pure_states(np.array([[np.nan, 0.0]]))
    with pytest.raises(ValueError):
        qmat.pure_states([np.nan, 0.0])


def test_trace_norm():
    assert abs(trace_norm(np.diag([1.0, -2.0])) - 3.0) < 1e-12
    rng = np.random.default_rng(5)
    a = rng.normal(size=(3, 3))
    assert trace_norm(a) >= abs(np.trace(a)) - 1e-12


def test_qubit_constants():
    assert np.allclose(SIGMA_MINUS @ KET_E, qmat.KET_G)
    assert np.allclose(SIGMA_PLUS @ qmat.KET_G, KET_E)
    assert np.allclose(qmat.SIGMA_Z @ qmat.KET_G, qmat.KET_G)
    assert np.allclose(qmat.SIGMA_Z @ KET_E, -KET_E)
