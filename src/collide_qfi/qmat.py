"""Dense complex linear algebra for multi-qubit operators."""

from __future__ import annotations

import numpy as np

# Centralized tolerances; every validity check in the package goes through these.
HERM_TOL = 1e-12
PSD_TOL = 1e-10
EIG_TOL = 1e-10


def _as_matrix(a) -> np.ndarray:
    a = np.asarray(a, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    return a


def is_hermitian(a, tol: float = HERM_TOL) -> bool:
    a = _as_matrix(a)
    return float(np.max(np.abs(a - a.conj().T))) <= tol


def check_density_matrix(rho, herm_tol: float = HERM_TOL,
                         trace_tol: float = HERM_TOL,
                         psd_tol: float = PSD_TOL) -> np.ndarray:
    """Validate Hermiticity, unit trace, and positivity of a density matrix."""
    rho = _as_matrix(rho)
    herm = float(np.max(np.abs(rho - rho.conj().T)))
    if herm > herm_tol:
        raise ValueError(f"not Hermitian: max |rho - rho^dag| = {herm:.3e}")
    tr = complex(np.trace(rho))
    if abs(tr - 1.0) > trace_tol:
        raise ValueError(f"trace {tr} differs from 1 beyond {trace_tol}")
    lam_min = float(np.linalg.eigvalsh((rho + rho.conj().T) / 2).min())
    if lam_min < -psd_tol:
        raise ValueError(f"not PSD: min eigenvalue {lam_min:.3e}")
    return rho


def pure_states(amplitudes) -> np.ndarray:
    """Validate and return a stack of normalized state vectors, one per row
    of the last axis."""
    psi = np.asarray(amplitudes, dtype=complex)
    nrm2 = np.sum(psi.real ** 2 + psi.imag ** 2, axis=-1)
    bad = np.flatnonzero(~(np.abs(nrm2 - 1.0) <= HERM_TOL))
    if bad.size:
        raise ValueError(f"state norm^2 = {nrm2.flat[bad[0]]} differs from 1")
    return psi


def pure_state(amplitudes) -> np.ndarray:
    """Validate and return a normalized state vector."""
    return pure_states(np.asarray(amplitudes, dtype=complex).reshape(-1))


def projector(psi) -> np.ndarray:
    psi = np.asarray(psi, dtype=complex).reshape(-1)
    return np.outer(psi, psi.conj())


def partial_trace(rho, keep, dims) -> np.ndarray:
    """Trace out all subsystems not in ``keep``.

    ``dims`` lists the subsystem dimensions in tensor order; ``keep`` is an
    iterable of subsystem indices to retain (order preserved ascending).
    """
    rho = _as_matrix(rho)
    dims = list(dims)
    n = len(dims)
    if int(np.prod(dims)) != rho.shape[0]:
        raise ValueError(f"dims {dims} do not multiply to {rho.shape[0]}")
    keep = sorted(set(keep))
    if any(k < 0 or k >= n for k in keep):
        raise ValueError(f"keep indices {keep} out of range for {n} subsystems")

    t = rho.reshape(dims + dims)
    # Pair up bra/ket axes of traced subsystems, leave kept ones free.
    ket = list(range(n))
    bra = list(range(n, 2 * n))
    letters = [chr(ord('a') + i) for i in range(2 * n)]
    sub = letters[:]
    for i in range(n):
        if i not in keep:
            sub[bra[i]] = sub[ket[i]]
    out = [sub[i] for i in keep] + [sub[n + i] for i in keep]
    t = np.einsum(''.join(sub) + '->' + ''.join(out), t)
    d_keep = int(np.prod([dims[i] for i in keep])) if keep else 1
    return t.reshape(d_keep, d_keep)


def herm_eigen(h, tol: float = EIG_TOL):
    """Eigendecomposition of a Hermitian matrix, or of each matrix in a stack
    along the leading axes.

    Returns (eigenvalues ascending, eigenvector matrix V) with h = V diag(w) V^dag.
    """
    h = np.asarray(h, dtype=complex)
    if h.ndim < 2 or h.shape[-1] != h.shape[-2]:
        raise ValueError(f"expected square matrices, got shape {h.shape}")
    h_dag = h.conj().swapaxes(-1, -2)
    if not float(np.max(np.abs(h - h_dag))) <= tol:
        raise ValueError("input is not Hermitian within tolerance")
    return np.linalg.eigh((h + h_dag) / 2)


def trace_norm(a) -> float:
    """Sum of singular values."""
    return float(np.linalg.svd(_as_matrix(a), compute_uv=False).sum())


# Fixed qubit operators, basis ordering |g> = e0, |e> = e1.
I2 = np.eye(2, dtype=complex)
SIGMA_Z = np.diag([1.0, -1.0]).astype(complex)
SIGMA_MINUS = np.array([[0, 1], [0, 0]], dtype=complex)  # |e> -> |g>
SIGMA_PLUS = SIGMA_MINUS.conj().T

KET_G = np.array([1, 0], dtype=complex)
KET_E = np.array([0, 1], dtype=complex)
KET_PLUS_X = np.array([1, 1], dtype=complex) / np.sqrt(2)
KET_PLUS_Y = np.array([1, 1j], dtype=complex) / np.sqrt(2)
