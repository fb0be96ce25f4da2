"""The benchmark's workloads: seed-derived task inputs, the task call, and its
output check.

A task is one call a user waits for. Inputs come only from the workload seed
and the task index, so the same seed gives the same inputs; the package
receives nothing but those inputs. Every call goes through the module
attribute at call time, so the traced run sees the wrappers it installs.
Checks use the package's own oracles and the claim-suite tolerances, and run
outside the timed call.
"""

from __future__ import annotations

import hashlib
import math

import numpy as np

GRID_POINTS = 21
NBAR_RANGE = (0.1, 10.0)
GAMMA_TAU_RANGE = (0.01, 3.0)
# Grid points move by at most this share of a log step, so every jittered
# grid stays strictly increasing.
GRID_JITTER = 0.4

ZZ_REL_TOL = 1e-5          # claim suite: zz-progression
ADDITIVITY_REL_TOL = 1e-6  # claim suite: exchange-ground-additivity
R_MIN = 0.9999             # claim suite: b2-optimum-uncorrelated
PRODUCT_FRACTION = 0.90    # claim suite: b2-product-near-optimal
# The b=2 search starts from the product corners, so its optimum is at least
# their value up to rounding in the state vector.
ROUNDING_REL_TOL = 1e-9
COLLECTIVE_GAMMA_TAU = 0.26
COLLECTIVE_RATIO = 1.65    # claim suite: exchange-collective-ratio
COLLECTIVE_REL_TOL = 0.02

B2_NBAR, B2_GAMMA_TAU, B2_N = 10.0, 0.3, 2
B2_RANDOM_STARTS = 1
B1_NBAR, B1_NS = 10.0, (1, 2, 4)
B1_GAMMA_TAU_RANGE = (0.1, 0.6)


def task_rng(seed: int, index: int) -> np.random.Generator:
    return np.random.default_rng([seed, index])


def jittered_log_grid(rng: np.random.Generator, lo: float, hi: float,
                      count: int) -> tuple:
    """Log-spaced grid with each point moved log-uniformly within its step."""
    a, b = math.log10(lo), math.log10(hi)
    step = (b - a) / (count - 1)
    logs = a + step * (np.arange(count)
                       + rng.uniform(-GRID_JITTER, GRID_JITTER, count))
    return tuple(float(x) for x in 10.0 ** np.clip(logs, a, b))


def _rel_dev(value: float, reference: float) -> float:
    return abs(value - reference) / abs(reference)


class Workload:
    """Base of the workloads. Each defines ``inputs(k)``, the inputs of task
    k; ``call(inputs)``, the timed part; ``check(inputs, result)``, a list of
    problems; and ``outputs(result)``, the flat values ``digest`` covers."""

    name = ""

    def __init__(self, pkg, seed: int):
        self.pkg = pkg
        self.seed = seed

    def digest(self, result) -> str:
        """Bit-exact fingerprint of a task's outputs."""
        text = ";".join(v.hex() if isinstance(v, float) else str(v)
                        for v in self.outputs(result))
        return hashlib.sha256(text.encode()).hexdigest()[:16]

    def _exchange(self, nbar: float, gamma_tau: float):
        return self.pkg.ModelParams(nbar=nbar, gamma_tau_se=gamma_tau,
                                    interaction=self.pkg.Interaction.EXCHANGE)

    def _ground_f1(self, params) -> float:
        block = self.pkg.AncillaBlock(b=1, psi=self.pkg.qmat.KET_G)
        return self.pkg.fisher.fisher_for(params, block, 1).value_nbar


class SweepGrid(Workload):
    """One nbar row of a jittered 21x21 log grid, swept for zz |+x> N=2 and
    exchange |gg> N=4. Every point is new, so every cache misses."""

    name = "sweep_grid"

    def __init__(self, pkg, seed):
        super().__init__(pkg, seed)
        zz, ex = pkg.Interaction.ZZ, pkg.Interaction.EXCHANGE
        qm = pkg.qmat
        self.configs = (
            ("zz", zz, pkg.AncillaBlock(b=1, psi=qm.KET_PLUS_X), 2),
            ("gg", ex, pkg.AncillaBlock(b=2, psi=np.kron(qm.KET_G, qm.KET_G)), 4),
        )
        self._grids = {}

    def _grid(self, sweep_pass: int):
        if sweep_pass not in self._grids:
            rng = task_rng(self.seed, sweep_pass)
            self._grids = {sweep_pass: (
                jittered_log_grid(rng, *NBAR_RANGE, GRID_POINTS),
                jittered_log_grid(rng, *GAMMA_TAU_RANGE, GRID_POINTS))}
        return self._grids[sweep_pass]

    def inputs(self, k):
        nbar_grid, gamma_tau_grid = self._grid(k // GRID_POINTS)
        return nbar_grid[k % GRID_POINTS], gamma_tau_grid

    def call(self, inputs):
        nbar, gamma_tau_grid = inputs
        sweeps = self.pkg.sweeps
        out = []
        for _, interaction, block, n in self.configs:
            config = sweeps.SweepConfig(
                nbar_grid=(nbar,), gamma_tau_grid=gamma_tau_grid,
                interaction=interaction, block=block, n_measured=n,
                quantities=("qfi",))
            out.append(sweeps.run_sweep(config))
        return out

    def check(self, inputs, result):
        pkg = self.pkg
        problems = []
        for (label, _, _, n), rows in zip(self.configs, result):
            for row in rows:
                where = f"{label} nbar={row.nbar!r} gamma_tau={row.gamma_tau!r}"
                if row.status != "ok":
                    problems.append(f"{where}: status {row.status}")
                    continue
                value = row.values["qfi"]
                if label == "zz":
                    ref, tol = pkg.zz_fn(row.nbar, row.gamma_tau, n), ZZ_REL_TOL
                else:
                    ref = n * self._ground_f1(self._exchange(row.nbar, row.gamma_tau))
                    tol = ADDITIVITY_REL_TOL
                if not _rel_dev(value, ref) <= tol:
                    problems.append(f"{where}: qfi {value!r} vs {ref!r}")
        return problems

    def outputs(self, result):
        return [v for rows in result for row in rows
                for v in (row.nbar, row.gamma_tau, row.values["qfi"], row.status)]


class OptimizeB2(Workload):
    """optimize_b2 for exchange at nbar=10, gamma_tau=0.3, N=2 with a
    seed-derived RNG seed. The parameters repeat, so the caches stay warm."""

    name = "optimize_b2"

    def __init__(self, pkg, seed):
        super().__init__(pkg, seed)
        self.params = self._exchange(B2_NBAR, B2_GAMMA_TAU)
        self._best_product = None

    def best_product(self) -> float:
        if self._best_product is None:
            qm = self.pkg.qmat
            states = (np.kron(qm.KET_G, qm.KET_G), np.kron(qm.KET_PLUS_X, qm.KET_G),
                      np.kron(qm.KET_G, qm.KET_PLUS_X))
            self._best_product = max(
                self.pkg.fisher.fisher_for(
                    self.params, self.pkg.AncillaBlock(b=2, psi=p), B2_N).value_nbar
                for p in states)
        return self._best_product

    def inputs(self, k):
        return int(task_rng(self.seed, k).integers(2 ** 31))

    def call(self, rng_seed):
        return self.pkg.optimize.optimize_b2(self.params, B2_N, seed=rng_seed,
                                             n_random_starts=B2_RANDOM_STARTS)

    def check(self, rng_seed, opt):
        problems = []
        if not opt.argmax.r >= R_MIN:
            problems.append(f"seed {rng_seed}: Schmidt weight r={opt.argmax.r!r}")
        best = self.best_product()
        if not opt.value_nbar >= best * (1.0 - ROUNDING_REL_TOL):
            problems.append(f"seed {rng_seed}: optimum {opt.value_nbar!r} "
                            f"below best product {best!r}")
        if not best >= PRODUCT_FRACTION * opt.value_nbar:
            problems.append(f"seed {rng_seed}: best product {best!r} under "
                            f"{PRODUCT_FRACTION} of optimum {opt.value_nbar!r}")
        return problems

    def outputs(self, opt):
        a = opt.argmax
        return [a.r, a.theta_m, a.theta_n, a.phi_n, a.alpha, opt.value_nbar,
                opt.evaluations]


class ScanB1(Workload):
    """optimize_b1 for exchange at nbar=10 and N=1, 2, 4 at one gamma_tau.
    Task 0 sits at gamma_tau=0.26, where the N=2 collective advantage peaks."""

    name = "scan_b1"

    def inputs(self, k):
        if k == 0:
            return COLLECTIVE_GAMMA_TAU
        return float(task_rng(self.seed, k).uniform(*B1_GAMMA_TAU_RANGE))

    def call(self, gamma_tau):
        params = self._exchange(B1_NBAR, gamma_tau)
        return [self.pkg.optimize.optimize_b1(params, n) for n in B1_NS]

    def check(self, gamma_tau, opts):
        problems = []
        f1_ground = self._ground_f1(self._exchange(B1_NBAR, gamma_tau))
        for n, opt in zip(B1_NS, opts):
            floor = n * f1_ground * (1.0 - ADDITIVITY_REL_TOL)
            if not opt.value_nbar >= floor:
                problems.append(f"gamma_tau={gamma_tau!r} N={n}: F_opt "
                                f"{opt.value_nbar!r} below N*F1(g) {floor!r}")
        if gamma_tau == COLLECTIVE_GAMMA_TAU:
            ratio = opts[1].value_nbar / (2.0 * opts[0].value_nbar)
            if not _rel_dev(ratio, COLLECTIVE_RATIO) <= COLLECTIVE_REL_TOL:
                problems.append(f"F_opt(2)/2F_opt(1) = {ratio!r} at "
                                f"gamma_tau={gamma_tau}, expected {COLLECTIVE_RATIO}")
        return problems

    def outputs(self, opts):
        return [v for opt in opts
                for v in (opt.argmax.theta, opt.value_nbar, opt.evaluations)]


WORKLOADS = {w.name: w for w in (SweepGrid, OptimizeB2, ScanB1)}
