"""Command-line front end: subcommands, config parsing, CSV/JSON output."""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

import numpy as np

from . import qmat
from .channels import Interaction, ModelParams
from .collision import AncillaBlock, FixedPointError
from .fisher import fisher_for, thermal_fi_nbar
from .optimize import (BlochAngles, SchmidtParams, bloch_state, optimize_b1,
                       optimize_b2, schmidt_state)
from .sweeps import (SweepConfig, claim_suite, default_grids, render_report,
                     run_sweep)
from .zz_analytic import zz_delta, zz_fn

THREADS_ENV = "COLLIDE_QFI_THREADS"


def _fmt(x: float) -> str:
    return f"{x:.12g}"


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
        return AncillaBlock(b=1 if psi.shape[0] == 2 else 2, psi=psi)
    if spec.startswith("theta:"):
        theta = float(spec.split(":", 1)[1])
        return AncillaBlock(b=1, psi=bloch_state(BlochAngles(theta=theta)))
    if spec.startswith("schmidt:"):
        parts = [float(x) for x in spec.split(":", 1)[1].split(",")]
        if len(parts) != 5:
            raise ValueError("schmidt: form needs 5 comma-separated values")
        p = SchmidtParams(r=parts[0], theta_m=parts[1], theta_n=parts[2],
                          phi_n=parts[3], alpha=parts[4])
        return AncillaBlock(b=2, psi=schmidt_state(p))
    raise ValueError(f"unknown block spec {spec!r}")


def parse_grid(spec: str):
    """Grid syntax start:stop:count:log|lin, or a comma-separated list."""
    if ":" in spec:
        parts = spec.split(":")
        if len(parts) != 4 or parts[3] not in ("log", "lin"):
            raise ValueError(f"bad grid spec {spec!r}; want start:stop:count:log|lin")
        start, stop, count = float(parts[0]), float(parts[1]), int(parts[2])
        if count < 1:
            raise ValueError("grid count must be >= 1")
        if parts[3] == "log":
            if start <= 0 or stop <= 0:
                raise ValueError("log grid endpoints must be positive")
            return tuple(np.logspace(math.log10(start), math.log10(stop), count))
        return tuple(np.linspace(start, stop, count))
    return tuple(float(x) for x in spec.split(","))


def parse_config_file(path: str) -> dict:
    """Flat key = value file; '#' starts a comment."""
    out = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected 'key = value'")
            key, value = (s.strip() for s in line.split("=", 1))
            out[key] = value
    return out


def write_output(rows, quantities, fmt: str, path: str | None):
    header = ["nbar", "gamma_tau", *quantities, "status"]
    if fmt == "csv":
        lines = [",".join(header)]
        for row in rows:
            cells = [_fmt(row.nbar), _fmt(row.gamma_tau)]
            cells += [_fmt(row.values[q]) for q in quantities]
            cells.append(row.status)
            lines.append(",".join(cells))
        text = "\n".join(lines) + "\n"
    else:
        objs = []
        for row in rows:
            obj = {"nbar": row.nbar, "gamma_tau": row.gamma_tau}
            obj.update({q: row.values[q] for q in quantities})
            obj["status"] = row.status
            objs.append(obj)
        text = json.dumps(objs, indent=2) + "\n"
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)


def _model_params(args) -> ModelParams:
    return ModelParams(nbar=args.nbar, gamma_tau_se=args.gamma_tau,
                       g_tau_sa=args.g_tau_sa,
                       interaction=Interaction(args.interaction))


def _add_point_args(p, interaction=True):
    p.add_argument("--nbar", type=float, required=True)
    p.add_argument("--gamma-tau", type=float, required=True)
    p.add_argument("--g-tau-sa", type=float, default=math.pi / 2)
    if interaction:
        p.add_argument("--interaction", choices=["zz", "exchange"], required=True)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="collide-qfi",
        description="Collisional quantum thermometry: Fisher information of "
                    "outgoing ancilla streams")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("thermal-fi", help="thermal Fisher information (nbar units)")
    p.add_argument("--nbar", type=float, required=True)

    p = sub.add_parser("fisher", help="QFI of N outgoing ancillas for a given block")
    _add_point_args(p)
    p.add_argument("--block", required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--fd-step", type=float, default=None,
                   help="take the nbar-derivative as a central difference with "
                        "this step, the oracle for the default exact derivative")

    p = sub.add_parser("optimize", help="maximize QFI over ancilla input states")
    _add_point_args(p, interaction=False)
    p.add_argument("--b", type=int, choices=[1, 2], required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("sweep", help="grid evaluation, CSV/JSON output")
    p.add_argument("--config", default=None)
    p.add_argument("--nbar-grid", default=None)
    p.add_argument("--gamma-tau-grid", default=None)
    p.add_argument("--interaction", choices=["zz", "exchange"], default=None)
    p.add_argument("--block", default=None)
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--quantities", default=None)
    p.add_argument("--g-tau-sa", type=float, default=None)
    p.add_argument("--output", default=None)
    p.add_argument("--format", choices=["csv", "json"], default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--threads", type=int, default=None,
                   help="accepted for compatibility and checked to be an "
                        f"integer >= 1 (also from {THREADS_ENV}); it no longer "
                        "changes anything, since a sweep runs in one thread")

    p = sub.add_parser("claims", help="run the scalar claim suite")
    p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("zz-closed", help="closed-form ZZ Fisher information")
    p.add_argument("--nbar", type=float, required=True)
    p.add_argument("--gamma-tau", type=float, required=True)
    p.add_argument("--n", type=int, required=True)

    return parser


_SWEEP_DEFAULTS = {
    "interaction": "zz",
    "block": "plusx",
    "n": "1",
    "quantities": "qfi,ratio_thermal",
    "format": "csv",
    "seed": "0",
    "output": None,
    "threads": None,
    "g_tau_sa": None,
    "nbar_grid": None,
    "gamma_tau_grid": None,
}


def _sweep_settings(args) -> dict:
    """Merge flags over config-file values over built-in defaults."""
    settings = dict(_SWEEP_DEFAULTS)
    if args.config:
        file_vals = parse_config_file(args.config)
        for key, value in file_vals.items():
            norm = key.replace("-", "_")
            if norm not in settings:
                raise ValueError(f"unknown config key {key!r}")
            settings[norm] = value
    for key in settings:
        flag = getattr(args, key, None)
        if flag is not None:
            settings[key] = str(flag) if not isinstance(flag, str) else flag
    return settings


def _threads(settings) -> int:
    """Worker count from --threads or the config file, else the environment;
    anything but an integer >= 1 is rejected."""
    raw, source = settings["threads"], "threads"
    if raw is None:
        raw, source = os.environ.get(THREADS_ENV, "1"), THREADS_ENV
    try:
        threads = int(raw)
    except ValueError:
        threads = 0
    if threads < 1:
        raise ValueError(f"{source} must be an integer >= 1, got {raw!r}")
    return threads


def cmd_sweep(args) -> int:
    settings = _sweep_settings(args)
    nbar_grid = (parse_grid(settings["nbar_grid"])
                 if settings["nbar_grid"] else default_grids()[0])
    gt_grid = (parse_grid(settings["gamma_tau_grid"])
               if settings["gamma_tau_grid"] else default_grids()[1])
    block = settings["block"]
    if block not in ("optimize-b1", "optimize-b2"):
        block = parse_block(block)
    quantities = tuple(q.strip() for q in settings["quantities"].split(","))
    config = SweepConfig(
        nbar_grid=nbar_grid, gamma_tau_grid=gt_grid,
        interaction=Interaction(settings["interaction"]),
        block=block, n_measured=int(settings["n"]),
        quantities=quantities,
        g_tau_sa=float(settings["g_tau_sa"]) if settings["g_tau_sa"] else math.pi / 2)
    rows = run_sweep(config, seed=int(settings["seed"]),
                     threads=_threads(settings))
    write_output(rows, quantities, settings["format"], settings["output"])
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "thermal-fi":
            print(_fmt(thermal_fi_nbar(args.nbar)))
            return 0
        if args.command == "fisher":
            params = _model_params(args)
            block = parse_block(args.block)
            result = fisher_for(params, block, args.n, step=args.fd_step)
            print(f"value_nbar = {_fmt(result.value_nbar)}")
            print(f"ratio_thermal = {_fmt(result.ratio_thermal)}")
            return 0
        if args.command == "optimize":
            params = ModelParams(nbar=args.nbar, gamma_tau_se=args.gamma_tau,
                                 g_tau_sa=args.g_tau_sa,
                                 interaction=Interaction.EXCHANGE)
            if args.b == 1:
                opt = optimize_b1(params, args.n)
                print(f"theta_opt = {_fmt(opt.argmax.theta)}")
            else:
                opt = optimize_b2(params, args.n, seed=args.seed)
                a = opt.argmax
                print(f"r = {_fmt(a.r)}")
                print(f"theta_m = {_fmt(a.theta_m)}")
                print(f"theta_n = {_fmt(a.theta_n)}")
                print(f"phi_n = {_fmt(a.phi_n)}")
                print(f"alpha = {_fmt(a.alpha)}")
            print(f"value_nbar = {_fmt(opt.value_nbar)}")
            print(f"evaluations = {opt.evaluations}")
            return 0
        if args.command == "sweep":
            return cmd_sweep(args)
        if args.command == "claims":
            report = claim_suite(seed=args.seed)
            sys.stdout.write(render_report(report))
            return 0 if report.passed else 1
        if args.command == "zz-closed":
            value = zz_fn(args.nbar, args.gamma_tau, args.n)
            fth = thermal_fi_nbar(args.nbar)
            print(f"value_nbar = {_fmt(value)}")
            if args.n > 1:
                print(f"delta = {_fmt(zz_delta(args.nbar, args.gamma_tau))}")
            print(f"ratio_thermal = {_fmt(value / (args.n * fth))}")
            return 0
        parser.error(f"unknown command {args.command!r}")
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (FixedPointError, RuntimeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 2


if __name__ == "__main__":
    sys.exit(main())
