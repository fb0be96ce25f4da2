"""State checks, a stacked Hermitian eigensolver, and the fixed qubit operators."""

from __future__ import annotations

import numpy as np

# Tolerances of the norm check in pure_states and the Hermiticity check in
# herm_eigen. A weight at or below HERM_TOL is also what the Schmidt form of
# an optimum reads as rounding.
HERM_TOL = 1e-12
EIG_TOL = 1e-10


def pure_states(amplitudes) -> np.ndarray:
    """Validate and return a stack of normalized state vectors, one per row
    of the last axis."""
    psi = np.asarray(amplitudes, dtype=complex)
    nrm2 = (psi.real ** 2 + psi.imag ** 2).sum(axis=-1)
    ok = np.abs(nrm2 - 1.0) <= HERM_TOL
    if np.count_nonzero(ok) < ok.size:
        bad = np.flatnonzero(~ok)[0]
        raise ValueError(f"state norm^2 = {nrm2.flat[bad]} differs from 1")
    return psi


def herm_eigen(h):
    """Eigendecomposition of a Hermitian matrix, or of each matrix in a stack
    along the leading axes.

    Returns (eigenvalues ascending, eigenvector matrix V) with h = V diag(w) V^dag.
    """
    h = np.asarray(h, dtype=complex)
    if h.ndim < 2 or h.shape[-1] != h.shape[-2]:
        raise ValueError(f"expected square matrices, got shape {h.shape}")
    h_dag = h.conj().swapaxes(-1, -2)
    if not float(np.abs(h - h_dag).max()) <= EIG_TOL:
        raise ValueError("input is not Hermitian within tolerance")
    return np.linalg.eigh((h + h_dag) / 2)


# Fixed qubit operators, basis ordering |g> = e0, |e> = e1.
I2 = np.eye(2, dtype=complex)
SIGMA_Z = np.diag([1.0, -1.0]).astype(complex)

KET_G = np.array([1, 0], dtype=complex)
KET_PLUS_X = np.array([1, 1], dtype=complex) / np.sqrt(2)
