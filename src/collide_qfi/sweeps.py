"""Grid evaluation over (nbar, gamma_tau_se) and the scalar claim suite."""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import qmat
from .channels import Interaction, ModelParams
from .collision import AncillaBlock, block_size, check_count, check_measured
from .fisher import qfi_values, thermal_fi_nbar
# Bound here as well for callers that look it up through this module, such
# as the span wrappers of perfbench/spans.py.
from .fisher import fisher_for  # noqa: F401
from .optimize import (BlochAngles, SchmidtParams, bloch_state, optimize_b1,
                       optimize_b2, schmidt_state)
from .zz_analytic import zz_delta, zz_fn

QUANTITIES = ("qfi", "ratio_thermal", "ratio_per_copy", "theta_opt",
              "schmidt_r", "delta_zz")


def parse_block(spec: str) -> AncillaBlock:
    """Map a block shorthand or theta:/schmidt: form to an AncillaBlock."""
    named = {
        "g": qmat.KET_G,
        "plusx": qmat.KET_PLUS_X,
        "gg": np.kron(qmat.KET_G, qmat.KET_G),
        "g-plusx": np.kron(qmat.KET_G, qmat.KET_PLUS_X),
        "plusx-g": np.kron(qmat.KET_PLUS_X, qmat.KET_G),
    }
    if spec in named:
        psi = named[spec]
        return AncillaBlock(b=block_size(psi[None].shape), psi=psi)
    if spec.startswith("theta:"):
        theta = float(spec.split(":", 1)[1])
        return AncillaBlock(b=1, psi=bloch_state(BlochAngles(theta=theta)))
    if spec.startswith("schmidt:"):
        parts = [float(x) for x in spec.split(":", 1)[1].split(",")]
        if len(parts) != 5:
            raise ValueError("schmidt: form needs 5 comma-separated values")
        return AncillaBlock(b=2, psi=schmidt_state(SchmidtParams(*parts)))
    raise ValueError(f"unknown block spec {spec!r}")


@dataclass(frozen=True)
class SweepConfig:
    nbar_grid: tuple
    gamma_tau_grid: tuple
    interaction: Interaction
    block: object  # AncillaBlock, parse_block spec, optimize-b1 or optimize-b2
    n_measured: int
    quantities: tuple
    g_tau_sa: float = math.pi / 2

    def __post_init__(self):
        if not isinstance(self.block, AncillaBlock):
            if not isinstance(self.block, str):
                raise ValueError("block must be an AncillaBlock or a spec "
                                 f"string, got {self.block!r}")
            if self.block not in ("optimize-b1", "optimize-b2"):
                object.__setattr__(self, "block", parse_block(self.block))
        object.__setattr__(self, "interaction", Interaction(self.interaction))
        for name in ("nbar_grid", "gamma_tau_grid"):
            grid = tuple(float(x) for x in getattr(self, name))
            if not grid:
                raise ValueError(f"{name} is empty")
            if not all(math.isfinite(x) for x in grid):
                raise ValueError(f"{name} has a non-finite point")
            if any(b <= a for a, b in zip(grid, grid[1:])):
                raise ValueError(f"{name} must be strictly increasing")
            object.__setattr__(self, name, grid)
        if not math.isfinite(self.g_tau_sa):
            raise ValueError(f"g_tau_sa must be finite, got {self.g_tau_sa}")
        if isinstance(self.quantities, str):
            raise ValueError("quantities must be a sequence of names, got "
                             f"{self.quantities!r}")
        object.__setattr__(self, "quantities", tuple(self.quantities))
        for q in self.quantities:
            if q not in QUANTITIES:
                raise ValueError(f"unknown quantity {q!r}")
            if self.quantities.count(q) > 1:
                raise ValueError(f"quantity {q!r} is repeated")
        b = (self.block.b if isinstance(self.block, AncillaBlock)
             else 2 if self.block == "optimize-b2" else 1)
        check_measured(self.n_measured, b)
        for q, spec in (("theta_opt", "optimize-b1"), ("schmidt_r", "optimize-b2")):
            if q in self.quantities and self.block != spec:
                raise ValueError(f"{q} is defined for the {spec} block only")


@dataclass(frozen=True)
class SweepRow:
    nbar: float
    gamma_tau: float
    values: dict
    status: str = "ok"


def _rows(config: SweepConfig, nbar: float, seed: int) -> list:
    """Finished rows of one nbar value at each gamma_tau, for any block spec.

    The QFI at m ancillas is one stacked ``qfi_values`` call over the row for
    a fixed block, and one optimizer call per point for ``optimize-b1`` and
    ``optimize-b2``. ``ratio_per_copy`` divides by the QFI of one block of
    size b (NaN where that is 0); ``theta_opt`` and ``schmidt_r`` come from
    the optima. A request for closed-form quantities only computes no QFI.
    Each point is evaluated once. Its status is the class name of the first
    error it meets; later steps skip it, and it reads NaN in every column. A
    stacked call that raises fails each point whose value it does not carry.
    """
    block, n, gamma_taus = config.block, config.n_measured, config.gamma_tau_grid
    status = ["ok"] * len(gamma_taus)

    def each(call, args):
        """call(arg) at each point that has not failed, NaN at the others."""
        out = [math.nan] * len(args)
        for i, arg in enumerate(args):
            if status[i] == "ok":
                try:
                    out[i] = call(arg)
                except (ValueError, RuntimeError) as exc:
                    status[i] = type(exc).__name__
        return out

    columns = {}
    if not set(config.quantities) <= {"delta_zz"}:
        points = each(lambda gt: ModelParams(
            nbar=nbar, gamma_tau_se=gt, g_tau_sa=config.g_tau_sa,
            interaction=config.interaction), gamma_taus)
        if isinstance(block, AncillaBlock):
            b, optimize = block.b, None
        elif block == "optimize-b1":
            b, optimize = 1, optimize_b1
        else:
            b, optimize = 2, functools.partial(optimize_b2, seed=seed)

        def qfi_at(m):
            """The QFI at m ancillas of each point, and the optima behind it."""
            if optimize is not None:
                optima = each(lambda p: optimize(p, m), points)
                return np.array(each(lambda o: o.value_nbar, optima)), optima
            live = [i for i, s in enumerate(status) if s == "ok"]
            qfi = np.full(len(points), math.nan)
            try:
                if live:
                    qfi[live] = qfi_values([points[i] for i in live],
                                           block.psi[None], m)
            except (ValueError, RuntimeError) as exc:
                if getattr(exc, "values", None) is not None:
                    qfi[live] = exc.values
                for i in live:
                    if math.isnan(qfi[i]):
                        status[i] = type(exc).__name__
            return qfi, None

        qfi, optima = qfi_at(n)
        columns["qfi"] = qfi
        if "ratio_per_copy" in config.quantities:
            base = qfi if n == b else qfi_at(b)[0]
            columns["ratio_per_copy"] = np.divide(
                qfi, n // b * base, out=np.full(len(qfi), math.nan),
                where=base != 0.0)
        if "theta_opt" in config.quantities:
            columns["theta_opt"] = each(lambda o: o.argmax.theta, optima)
        if "schmidt_r" in config.quantities:
            columns["schmidt_r"] = each(lambda o: o.argmax.r, optima)
    if {"ratio_thermal", "delta_zz"} & set(config.quantities):
        f_th = np.array(each(lambda gt: thermal_fi_nbar(nbar), gamma_taus))
    if "ratio_thermal" in config.quantities:
        columns["ratio_thermal"] = columns["qfi"] / (n * f_th)
    if "delta_zz" in config.quantities:
        columns["delta_zz"] = np.array(
            each(lambda gt: zz_delta(nbar, gt), gamma_taus)) / f_th
    # one tolist() per column gives each cell as a Python float
    cells = {q: np.asarray(columns[q], dtype=float).tolist()
             for q in config.quantities}
    rows = []
    for i, gt in enumerate(gamma_taus):
        values = {q: cells[q][i] if status[i] == "ok" else math.nan
                  for q in config.quantities}
        # A one-block QFI of 0 (e.g. no system-ancilla coupling) leaves the
        # per-copy ratio without a value.
        if status[i] == "ok" and math.isnan(values.get("ratio_per_copy", 0.0)):
            status[i] = "undefined"
        rows.append(SweepRow(nbar=nbar, gamma_tau=gt, values=values,
                             status=status[i]))
    return rows


def run_sweep(config: SweepConfig, seed: int = 0):
    """Evaluate every grid point, nbar outer and gamma_tau inner, serially
    (measured faster than a thread pool), one ``_rows`` call per nbar row."""
    check_count(seed, "seed")
    rows = []
    for nbar in config.nbar_grid:
        rows += _rows(config, nbar, seed)
    return rows


# ---------------------------------------------------------------------------
# Scalar claim suite
# ---------------------------------------------------------------------------

# Pass rule of each comparison, as f(measured, expected, tolerance). NaN
# never passes.
_VERDICTS = {
    "abs": lambda m, e, tol: abs(m - e) <= tol,
    "rel": lambda m, e, tol: abs(m - e) <= tol * abs(e),
    "lower-bound": lambda m, e, tol: m >= e - tol,
    "upper-bound": lambda m, e, tol: m <= e + tol,
}


@dataclass(frozen=True)
class ClaimResult:
    name: str
    description: str
    expected: float
    measured: float
    tolerance: float
    comparison: str = "abs"  # abs | rel | lower-bound | upper-bound

    @property
    def passed(self) -> bool:
        return _VERDICTS[self.comparison](self.measured, self.expected,
                                          self.tolerance)


def _sweep_values(block, n: int, quantities: tuple, nbars: tuple,
                  gamma_taus: tuple, interaction=Interaction.EXCHANGE,
                  g_tau_sa: float = math.pi / 2) -> list:
    """Each row's values of one sweep, nbar outer and gamma_tau inner: the
    numbers ``collide-qfi sweep`` prints, NaN at a point that fails."""
    config = SweepConfig(nbar_grid=nbars, gamma_tau_grid=gamma_taus,
                         interaction=interaction, block=block, n_measured=n,
                         quantities=quantities, g_tau_sa=g_tau_sa)
    return [row.values for row in run_sweep(config)]


def _maximize_1d(rows, quantity: str, xs, tol: float):
    """Deterministic 1-D maximization of one quantity of sweep rows, where
    ``rows(points)`` returns the rows' values at a tuple of points: the best
    point of the grid ``xs``, all read in one call, and its grid neighbours
    bracket the peak; each later call reads one point, a golden section
    (Kiefer 1953) into the wider side of the bracket. The best point moves
    only on a strictly larger value, and the search stops when the bracket
    is narrower than ``tol``. Returns (x, row at x), or (nan, the grid's
    first NaN row) when the grid holds a NaN: no maximum was found, and
    ``rows`` is not called again."""
    xs = tuple(float(x) for x in xs)
    grid = rows(xs)
    i = int(np.argmax([v[quantity] for v in grid]))  # the first NaN, if any
    x, best = xs[i], grid[i]
    if math.isnan(best[quantity]):
        return math.nan, best
    a, b = xs[max(i - 1, 0)], xs[min(i + 1, len(xs) - 1)]
    while b - a >= tol:
        right = b - x > x - a
        t = x + (3.0 - math.sqrt(5.0)) / 2.0 * ((b if right else a) - x)
        [row] = rows((t,))
        if row[quantity] > best[quantity]:
            a, b, x, best = (x, b, t, row) if right else (a, x, t, row)
        else:
            a, b = (a, t) if right else (t, b)
    return x, best


def _claims_zz_angle():
    expected = {0.0: 0.0, math.pi / 4: 0.5, math.pi / 2: 1.0}
    out = []
    for i, (g_tau, exp) in enumerate(expected.items()):
        [values] = _sweep_values("plusx", 1, ("ratio_thermal",), (1.0,), (0.5,),
                                 Interaction.ZZ, g_tau_sa=g_tau)
        out.append(ClaimResult(
            f"zz-angle-{i}",
            f"single-ancilla |+x> FI ratio at collision angle {g_tau:.6g}",
            exp, values["ratio_thermal"], 1e-6))
    return out


def _claims_zz_progression():
    nbars, gts = (0.2, 1.0, 5.0, 10.0), (0.1, 0.5, 2.0)
    deviations = []
    for n in range(1, 5):
        rows = _sweep_values("plusx", n, ("qfi",), nbars, gts, Interaction.ZZ)
        closed = [zz_fn(nbar, gt, n) for nbar in nbars for gt in gts]
        deviations += [abs(v["qfi"] - c) / c for v, c in zip(rows, closed)]
    return [ClaimResult(
        "zz-progression",
        "numeric N-ancilla QFI vs arithmetic-progression closed form, "
        "worst relative deviation over a 12-point grid, N=1..4",
        0.0, np.max(deviations), 1e-5, "upper-bound")]


def _claims_zz_delta_max():
    _, row = _maximize_1d(
        lambda gts: _sweep_values("plusx", 1, ("delta_zz",), (10.0,), gts,
                                  Interaction.ZZ),
        "delta_zz", np.logspace(-3, math.log10(5.0), 25), 1e-4)
    return [ClaimResult("zz-delta-max",
                        "max over gamma_tau of Delta/F_th at nbar=10",
                        71.8, row["delta_zz"], 0.01, "rel")]


def _claims_exchange_opt11():
    _, row = _maximize_1d(
        lambda gts: _sweep_values("optimize-b1", 1, ("ratio_thermal",),
                                  (10.0,), gts),
        "ratio_thermal", np.logspace(-2, math.log10(3.0), 21), 1e-3)
    return [ClaimResult("exchange-opt-1-1",
                        "max over gamma_tau of single-ancilla optimal QFI "
                        "ratio at nbar=10",
                        77.3, row["ratio_thermal"], 0.01, "rel")]


def _ground_swap_ratio(nbar: float, gamma_tau: float) -> float:
    """Closed-form F/F_th of one |g> ancilla under a full exchange swap.

    The swap resets the system to |g> at every collision, so the outgoing
    ancilla is the thermally relaxed |g>: diagonal, with excited population
    p = nbar/(2 nbar+1) (1 - e^{-x}), x = (2 nbar+1) gamma_tau. Its Fisher
    information is (dp/dnbar)^2 / (p (1-p)).
    """
    d = 2.0 * nbar + 1.0
    x = d * gamma_tau
    relaxed = -math.expm1(-x)
    p = nbar / d * relaxed
    dp = relaxed / d ** 2 + 2.0 * gamma_tau * nbar / d * math.exp(-x)
    return dp * dp / (p * (1.0 - p)) / thermal_fi_nbar(nbar)


def _claims_ground_small_gt():
    nbar, gt = 10.0, 0.04
    [values] = _sweep_values("g", 1, ("ratio_thermal",), (nbar,), (gt,))
    return [ClaimResult("exchange-ground-small-coupling",
                        "|g>-ancilla FI ratio at nbar=10, gamma_tau=0.04 vs "
                        "its full-swap closed form",
                        _ground_swap_ratio(nbar, gt), values["ratio_thermal"],
                        1e-6, "rel")]


def _claims_exchange_collective():
    gt_star, row = _maximize_1d(
        lambda gts: _sweep_values("optimize-b1", 2,
                                  ("ratio_per_copy", "ratio_thermal"),
                                  (10.0,), gts),
        "ratio_per_copy", np.linspace(0.1, 0.6, 11), 1e-3)
    # a grid without a maximum has no peak to read the thermal ratio at
    thermal = row["ratio_thermal"] if math.isfinite(gt_star) else math.nan
    return [
        ClaimResult("exchange-collective-ratio",
                    "max over gamma_tau of F_opt(2,1)/2F_opt(1,1) at nbar=10",
                    1.65, row["ratio_per_copy"], 0.02, "rel"),
        ClaimResult("exchange-collective-location",
                    "gamma_tau at which the N=2 collective advantage peaks",
                    0.26, gt_star, 0.05),
        ClaimResult("exchange-collective-thermal",
                    "F_opt(2,1)/2F_th at the collective-advantage peak",
                    3.6, thermal, 0.03, "rel"),
    ]


def _claims_ground_additivity():
    ratios = [values["ratio_per_copy"] for n in (2, 3, 4)
              for values in _sweep_values("g", n, ("ratio_per_copy",),
                                          (0.5, 2.0, 10.0), (0.1, 1.0))]
    return [ClaimResult(
        "exchange-ground-additivity",
        "F_N = N*F_1 for |g> ancillas, worst relative deviation over 6 points, "
        "N=2..4",
        0.0, np.max(np.abs(np.subtract(ratios, 1.0))), 1e-6, "upper-bound")]


def _claims_b2_products():
    grid = ((1.0, 10.0 ** 0.5, 10.0), (0.1, 10.0 ** -0.5, 1.0))
    optima = _sweep_values("optimize-b2", 2, ("qfi", "schmidt_r"), *grid)
    # np.max keeps a point's NaN, so a failing product fails its fraction
    best = np.max([[v["qfi"] for v in _sweep_values(blk, 2, ("qfi",), *grid)]
                   for blk in ("gg", "plusx-g", "g-plusx")], axis=0)
    fractions = best / [v["qfi"] for v in optima]
    weights = [v["schmidt_r"] for v in optima]
    return [
        ClaimResult("b2-product-near-optimal",
                    "worst best-product-state fraction of the b=2 optimum "
                    "over a 9-point grid",
                    0.90, np.min(fractions), 0.0, "lower-bound"),
        ClaimResult("b2-optimum-uncorrelated",
                    "smallest Schmidt weight r of the b=2 optimum over the "
                    "same grid",
                    0.9999, np.min(weights), 0.0, "lower-bound"),
    ]


def _claims_low_temperature_threshold():
    def excess(nbar):
        return _sweep_values("optimize-b2", 2, ("ratio_thermal",), (nbar,),
                             (1.0,))[0]["ratio_thermal"] - 1.0

    # Four halvings of the 0.12-wide bracket put the midpoint within ~2%
    # of the crossing, inside the 5% tolerance. A bracket that holds no
    # crossing measures NaN.
    lo, hi = 0.14, 0.26
    threshold = math.nan
    if excess(lo) < 0 < excess(hi):
        for _ in range(4):
            mid = 0.5 * (lo + hi)
            if excess(mid) < 0:
                lo = mid
            else:
                hi = mid
        threshold = 0.5 * (lo + hi)
    return [ClaimResult("b2-low-temperature-threshold",
                        "nbar threshold where the b=N=2 optimum meets twice "
                        "the thermal FI at gamma_tau=1",
                        0.189, threshold, 0.05, "rel")]


def claim_suite() -> tuple:
    """Run every scalar regression check: a tuple of ``ClaimResult``s."""
    results = []
    results += _claims_zz_angle()
    results += _claims_zz_progression()
    results += _claims_zz_delta_max()
    results += _claims_exchange_opt11()
    results += _claims_ground_small_gt()
    results += _claims_exchange_collective()
    results += _claims_ground_additivity()
    results += _claims_b2_products()
    results += _claims_low_temperature_threshold()
    return tuple(results)


def render_report(results: tuple) -> str:
    lines = []
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        lines.append(
            f"[{status}] {r.name}: expected {r.expected:.12g} "
            f"measured {r.measured:.12g} tol {r.tolerance:.12g} "
            f"({r.comparison}) -- {r.description}")
    n_pass = sum(r.passed for r in results)
    lines.append(f"{n_pass}/{len(results)} checks passed")
    return "\n".join(lines) + "\n"
