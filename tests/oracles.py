"""Brute-force reference code that the tests check the package against.

The package builds every map in closed form or through the per-block step
map. These helpers do the same physics the long way: an RK4 integration of
the Lindblad dissipator, operators embedded in the full tensor-product
space, an explicit partial trace, the Gibbs state and density-matrix
checks. The QFI from a Sylvester solve for the symmetric logarithmic
derivative checks the package's eigenbasis formula, the QFI from the Bures
fidelity of two nearby states checks it where rho is near rank deficient,
and the classical Fisher information of a POVM bounds it from below.
"""

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import solve_sylvester

from collide_qfi.channels import embed_op
from collide_qfi.qmat import HERM_TOL

PSD_TOL = 1e-10
PROB_CUTOFF = 1e-14
# Qubit operators and states that only the tests use; basis |g> = e0, |e> = e1.
SIGMA_MINUS = np.array([[0, 1], [0, 0]], dtype=complex)  # |e> -> |g>
SIGMA_PLUS = SIGMA_MINUS.conj().T
KET_E = np.array([0, 1], dtype=complex)
KET_PLUS_Y = np.array([1, 1j], dtype=complex) / np.sqrt(2)


def gibbs_state(nbar: float) -> np.ndarray:
    """Thermal qubit state diag(p_g, p_e), p_g = (nbar+1)/(2nbar+1)."""
    p_g = (nbar + 1.0) / (2.0 * nbar + 1.0)
    return np.diag([p_g, 1.0 - p_g]).astype(complex)


def dnbar_dT(temperature: float, omega: float) -> float:
    """d nbar / dT for nbar = 1/(exp(omega/T) - 1), in hbar = k_B = 1 units:
    the factor whose square turns a Fisher information in nbar into one in T."""
    if temperature <= 0 or omega <= 0:
        raise ValueError("temperature and omega must be > 0")
    x = omega / temperature
    return (omega / temperature ** 2) * math.exp(x) / (math.exp(x) - 1.0) ** 2


def random_density(rng, d=2):
    a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    rho = a @ a.conj().T
    return rho / np.trace(rho).real


def _dissipator(L: np.ndarray, rho: np.ndarray) -> np.ndarray:
    LdL = L.conj().T @ L
    return L @ rho @ L.conj().T - 0.5 * (LdL @ rho + rho @ LdL)


def _superop(L: np.ndarray) -> np.ndarray:
    """4x4 matrix of rho -> D[L] rho on row-major vectorized rho, built by
    applying the dissipator to the operator basis."""
    basis = np.eye(4, dtype=complex).reshape(4, 2, 2)
    return np.array([_dissipator(L, e).reshape(-1) for e in basis]).T


def lindblad_rk4(rho0, nbar, gamma_t, steps) -> np.ndarray:
    """RK4 integration of the interaction-picture qubit dissipator.

    Integrates d rho/dt = (nbar+1) D[sigma-] rho + nbar D[sigma+] rho over
    dimensionless time gamma_t. ``rho0`` may be a stack (..., 2, 2) of
    cases; ``nbar``, ``gamma_t`` and ``steps`` broadcast against its leading
    axes, so each case has its own step dt = gamma_t / steps. A case stops
    once it has taken its steps: its increment is scaled by 0 from then on.
    """
    rho = np.array(rho0, dtype=complex)
    batch = rho.shape[:-2]
    steps = np.broadcast_to(np.asarray(steps), batch).reshape(-1, 1)
    if np.any(steps < 1):
        raise ValueError("steps must be >= 1")
    nbar = np.broadcast_to(np.asarray(nbar, dtype=float), batch).reshape(-1, 1)
    dt = np.broadcast_to(np.asarray(gamma_t, dtype=float),
                         batch).reshape(-1, 1) / steps
    down, up = _superop(SIGMA_MINUS).T, _superop(SIGMA_PLUS).T
    v = rho.reshape(-1, 4)

    def rhs(x):
        return (nbar + 1.0) * (x @ down) + nbar * (x @ up)

    for i in range(int(steps.max())):
        h = np.where(steps > i, dt, 0.0)
        k1 = rhs(v)
        k2 = rhs(v + 0.5 * h * k1)
        k3 = rhs(v + 0.5 * h * k2)
        k4 = rhs(v + h * k3)
        v = v + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
    return v.reshape(rho.shape)


def default_rk4_steps(big_gamma) -> int:
    return int(math.ceil(big_gamma * 1000)) + 100


def apply_unitary_on(u: np.ndarray, rho: np.ndarray, targets, dims) -> np.ndarray:
    uf = embed_op(u, targets, dims)
    return uf @ rho @ uf.conj().T


def apply_kraus_on(channel, rho: np.ndarray, target: int, dims) -> np.ndarray:
    """Apply a Kraus channel to one subsystem of a joint state."""
    dims = list(dims)
    dim = channel.operators[0].shape[0]
    if dim != dims[target]:
        raise ValueError(
            f"channel dim {dim} does not match subsystem dim {dims[target]}")
    out = np.zeros_like(np.asarray(rho, dtype=complex))
    for k in channel.operators:
        kf = embed_op(k, [target], dims)
        out += kf @ rho @ kf.conj().T
    return out


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


def trace_norm(a) -> float:
    """Sum of singular values."""
    return float(np.linalg.svd(_as_matrix(a), compute_uv=False).sum())


@dataclass(frozen=True)
class Povm:
    effects: tuple

    def __post_init__(self):
        effects = tuple(np.asarray(e, dtype=complex) for e in self.effects)
        object.__setattr__(self, "effects", effects)
        d = effects[0].shape[0]
        for e in effects:
            if float(np.linalg.eigvalsh((e + e.conj().T) / 2).min()) < -1e-10:
                raise ValueError("POVM effect is not PSD")
        comp = sum(effects)
        if float(np.max(np.abs(comp - np.eye(d)))) > 1e-10:
            raise ValueError("POVM effects do not sum to identity")

    @property
    def dim(self) -> int:
        return self.effects[0].shape[0]


def cfi(rho: np.ndarray, drho: np.ndarray, povm: Povm) -> float:
    """Classical Fisher information of a POVM on a state rho with parameter
    derivative drho: sum over outcomes of (d p)^2 / p, skipping p ~ 0."""
    if povm.dim != rho.shape[0]:
        raise ValueError("POVM dimension does not match the state")
    total = 0.0
    for e in povm.effects:
        p = float(np.trace(e @ rho).real)
        if p > PROB_CUTOFF:
            dp = float(np.trace(e @ drho).real)
            total += dp * dp / p
    return total


def sld(rho: np.ndarray, drho: np.ndarray) -> np.ndarray:
    """The symmetric logarithmic derivative L, solved from rho L + L rho =
    2 drho as a Sylvester equation, without the eigenbasis of rho. rho must
    have full rank."""
    return solve_sylvester(rho, rho, 2.0 * drho)


def sld_qfi(rho: np.ndarray, drho: np.ndarray) -> float:
    """QFI tr(rho L^2) with the Sylvester L of ``sld``."""
    L = sld(rho, drho)
    return float(np.trace(rho @ L @ L).real)


def _psd_sqrt(a: np.ndarray) -> np.ndarray:
    """Square root of a Hermitian PSD matrix from its clipped eigenvalues."""
    w, v = np.linalg.eigh(a)
    return (v * np.sqrt(np.clip(w, 0.0, None))) @ v.conj().T


def bures_qfi(build, nbar: float, step: float) -> float:
    """QFI at nbar from the fidelity of the states at nbar -+ step/2,
    8 (1 - sqrt(Fid)) / step^2 with Fid = (tr sqrt(sqrt(rho) sigma
    sqrt(rho)))^2 (Braunstein & Caves, PRL 72, 3439 (1994)). ``build`` maps
    nbar to a density matrix. It needs neither the derivative nor the inverse
    of rho, so it holds where rho is near rank deficient; its error is
    O(step^2)."""
    root = _psd_sqrt(build(nbar - step / 2.0))
    inner = np.linalg.eigvalsh(root @ build(nbar + step / 2.0) @ root)
    sqrt_fid = float(np.sqrt(np.clip(inner, 0.0, None)).sum())
    return 8.0 * (1.0 - sqrt_fid) / step ** 2
