import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from collide_qfi import qmat


def random_density(rng, d):
    a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    rho = a @ a.conj().T
    return rho / np.trace(rho).real


def test_kron_matches_numpy():
    rng = np.random.default_rng(0)
    a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    b = rng.normal(size=(4, 4))
    assert np.allclose(qmat.kron(a, b), np.kron(a, b))


def test_kron_capacity_cap():
    big = np.eye(8)
    with pytest.raises(qmat.CapacityError):
        qmat.kron(big, big)
    # 8 * 4 = 32 is still allowed
    assert qmat.kron(big, np.eye(4)).shape == (32, 32)


def test_kron_all_associates():
    rng = np.random.default_rng(1)
    ops = [rng.normal(size=(2, 2)) for _ in range(3)]
    expect = np.kron(np.kron(ops[0], ops[1]), ops[2])
    assert np.allclose(qmat.kron_all(*ops), expect)


def test_kron_rejects_nonsquare():
    with pytest.raises(ValueError):
        qmat.kron(np.zeros((2, 3)), np.eye(2))


def test_check_density_matrix_accepts_valid():
    rng = np.random.default_rng(2)
    rho = random_density(rng, 4)
    out = qmat.check_density_matrix(rho)
    assert np.allclose(out, rho)


def test_check_density_matrix_rejects():
    with pytest.raises(ValueError, match="Hermitian"):
        qmat.check_density_matrix(np.array([[0.5, 1.0], [0.0, 0.5]]))
    with pytest.raises(ValueError, match="trace"):
        qmat.check_density_matrix(np.eye(2))
    with pytest.raises(ValueError, match="PSD"):
        qmat.check_density_matrix(np.diag([1.5, -0.5]))


def test_pure_state_normalization():
    psi = qmat.pure_state([1 / np.sqrt(2), 1j / np.sqrt(2)])
    assert abs(np.vdot(psi, psi) - 1.0) < 1e-12
    with pytest.raises(ValueError):
        qmat.pure_state([1.0, 1.0])


def test_projector_idempotent():
    p = qmat.projector(qmat.KET_PLUS_Y)
    assert np.allclose(p @ p, p)
    assert abs(np.trace(p) - 1.0) < 1e-12


@settings(max_examples=50, deadline=None)
@given(st.integers(min_value=0, max_value=2), st.integers(min_value=0, max_value=99))
def test_partial_trace_of_product_state(keep, seed):
    rng = np.random.default_rng(seed)
    parts = [random_density(rng, 2) for _ in range(3)]
    joint = qmat.kron_all(*parts)
    reduced = qmat.partial_trace(joint, [keep], [2, 2, 2])
    assert np.allclose(reduced, parts[keep], atol=1e-12)


def test_partial_trace_preserves_trace():
    rng = np.random.default_rng(3)
    rho = random_density(rng, 8)
    for keep in ([0], [1], [0, 2], [0, 1, 2]):
        red = qmat.partial_trace(rho, keep, [2, 2, 2])
        assert abs(np.trace(red) - 1.0) < 1e-12


def test_partial_trace_validates_args():
    rho = np.eye(4) / 4
    with pytest.raises(ValueError):
        qmat.partial_trace(rho, [0], [2, 2, 2])
    with pytest.raises(ValueError):
        qmat.partial_trace(rho, [5], [2, 2])


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
        qmat.pure_state([np.nan, 0.0])


def test_trace_norm():
    assert abs(qmat.trace_norm(np.diag([1.0, -2.0])) - 3.0) < 1e-12
    rng = np.random.default_rng(5)
    a = rng.normal(size=(3, 3))
    assert qmat.trace_norm(a) >= abs(np.trace(a)) - 1e-12


def test_qubit_constants():
    assert np.allclose(qmat.SIGMA_MINUS @ qmat.KET_E, qmat.KET_G)
    assert np.allclose(qmat.SIGMA_PLUS @ qmat.KET_G, qmat.KET_E)
    assert np.allclose(qmat.SIGMA_Z @ qmat.KET_G, qmat.KET_G)
    assert np.allclose(qmat.SIGMA_Z @ qmat.KET_E, -qmat.KET_E)
