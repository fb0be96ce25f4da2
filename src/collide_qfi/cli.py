"""Command-line front end: subcommands, config parsing, CSV/JSON output."""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import sys

import numpy as np

from .channels import ModelParams
from .collision import check_count
from .fisher import fisher_for, thermal_fi_nbar
from .optimize import optimize_b1, optimize_b2
from .sweeps import (SweepConfig, claim_suite, parse_block, render_report,
                     run_sweep)
from .zz_analytic import zz_delta, zz_fn


def _fmt(x: float) -> str:
    return f"{x:.12g}"


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
    """Flat key = value file; '#' starts a comment. A key may appear once,
    with '-' and '_' counted the same."""
    out, seen = {}, set()
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected 'key = value'")
            key, value = (s.strip() for s in line.split("=", 1))
            norm = key.replace("-", "_")
            if norm in seen:
                raise ValueError(f"{path}:{lineno}: config key {key!r} is "
                                 "repeated")
            seen.add(norm)
            out[key] = value
    return out


def write_output(rows, quantities, fmt: str, out):
    header = ["nbar", "gamma_tau", *quantities, "status"]
    records = [([row.nbar, row.gamma_tau, *(row.values[q] for q in quantities)],
                row.status) for row in rows]
    if fmt == "csv":
        lines = [",".join(header)]
        for numbers, status in records:
            lines.append(",".join([*map(_fmt, numbers), status]))
        text = "\n".join(lines) + "\n"
    else:
        objs = []
        for numbers, status in records:
            # JSON has no number for NaN or inf: those values become null
            cells = [x if math.isfinite(x) else None for x in numbers]
            objs.append(dict(zip(header, cells + [status])))
        text = json.dumps(objs, indent=2, allow_nan=False) + "\n"
    out.write(text)


def _model_params(args) -> ModelParams:
    return ModelParams(nbar=args.nbar, gamma_tau_se=args.gamma_tau,
                       g_tau_sa=args.g_tau_sa, interaction=args.interaction)


def _seed(text: str) -> int:
    """A --seed value, by the rule of ``check_count``."""
    try:
        return check_count(int(text), "seed")
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"must be an integer >= 0, got {text!r}") from None


def _add_point_args(p):
    p.add_argument("--nbar", type=float, required=True)
    p.add_argument("--gamma-tau", type=float, required=True)
    p.add_argument("--g-tau-sa", type=float, default=math.pi / 2)


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
    p.add_argument("--interaction", choices=["zz", "exchange"], required=True)
    p.add_argument("--block", required=True)
    p.add_argument("--n", type=int, required=True)

    p = sub.add_parser("optimize", help="maximize QFI over ancilla input states")
    _add_point_args(p)
    p.add_argument("--b", type=int, choices=[1, 2], required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--seed", type=_seed, default=0)
    p.set_defaults(interaction="exchange")

    p = sub.add_parser("sweep", help="grid evaluation, CSV/JSON output")
    p.add_argument("--config", default=None)
    p.add_argument("--nbar-grid", default="0.1:10:41:log")
    p.add_argument("--gamma-tau-grid", default="0.01:3:41:log")
    p.add_argument("--interaction", choices=["zz", "exchange"], default="zz")
    p.add_argument("--block", default="plusx")
    p.add_argument("--n", type=int, default=1)
    p.add_argument("--quantities", default="qfi,ratio_thermal",
                   help="comma list of columns; delta_zz is the zz closed "
                        "form Delta/F_th at g_tau_sa = pi/2, whatever "
                        "--interaction, --block and --g-tau-sa say")
    p.add_argument("--g-tau-sa", type=float, default=math.pi / 2)
    p.add_argument("--output", default=None)
    p.add_argument("--format", choices=["csv", "json"], default="csv")
    p.add_argument("--seed", type=_seed, default=0)

    sub.add_parser("claims", help="run the scalar claim suite")

    p = sub.add_parser("zz-closed", help="closed-form ZZ Fisher information")
    p.add_argument("--nbar", type=float, required=True)
    p.add_argument("--gamma-tau", type=float, required=True)
    p.add_argument("--n", type=int, required=True)

    return parser


def _config_flags(path: str, keys) -> list:
    """The lines of a sweep config file as --key=value tokens. A key must name
    one of the sweep's flags other than --config."""
    flags = []
    for key, value in parse_config_file(path).items():
        norm = key.replace("-", "_")
        if norm not in keys or norm in ("command", "config"):
            raise ValueError(f"unknown config key {key!r}")
        flags.append(f"--{norm.replace('_', '-')}={value}")
    return flags


def cmd_sweep(args) -> int:
    quantities = tuple(q.strip() for q in args.quantities.split(","))
    config = SweepConfig(
        nbar_grid=parse_grid(args.nbar_grid),
        gamma_tau_grid=parse_grid(args.gamma_tau_grid),
        interaction=args.interaction, block=args.block, n_measured=args.n,
        quantities=quantities, g_tau_sa=args.g_tau_sa)
    # Opened before the sweep runs, so a bad path costs no sweep.
    out = (contextlib.nullcontext(sys.stdout) if args.output in (None, "-")
           else open(args.output, "w", encoding="utf-8", newline="\n"))
    with out as fh:
        rows = run_sweep(config, seed=args.seed)
        write_output(rows, quantities, args.format, fh)
    return 0


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "sweep" and args.config:
            # File values go in right after the subcommand, so the same
            # parser checks them and the command line's own flags win.
            at = argv.index("sweep") + 1
            args = parser.parse_args(
                argv[:at] + _config_flags(args.config, vars(args)) + argv[at:])
        if args.command == "thermal-fi":
            print(_fmt(thermal_fi_nbar(args.nbar)))
            return 0
        if args.command == "fisher":
            params = _model_params(args)
            result = fisher_for(params, parse_block(args.block), args.n)
            print(f"value_nbar = {_fmt(result.value_nbar)}")
            print(f"ratio_thermal = {_fmt(result.ratio_thermal)}")
            return 0
        if args.command == "optimize":
            params = _model_params(args)
            if args.b == 1:
                opt = optimize_b1(params, args.n)
                print(f"theta_opt = {_fmt(opt.argmax.theta)}")
            else:
                opt = optimize_b2(params, args.n, seed=args.seed)
                for name, value in vars(opt.argmax).items():
                    print(f"{name} = {_fmt(value)}")
            print(f"value_nbar = {_fmt(opt.value_nbar)}")
            print(f"evaluations = {opt.evaluations}")
            return 0
        if args.command == "sweep":
            return cmd_sweep(args)
        if args.command == "claims":
            results = claim_suite()
            sys.stdout.write(render_report(results))
            return 0 if all(r.passed for r in results) else 1
        # zz-closed, the last subcommand
        value = zz_fn(args.nbar, args.gamma_tau, args.n)
        fth = thermal_fi_nbar(args.nbar)
        print(f"value_nbar = {_fmt(value)}")
        if args.n > 1:
            print(f"delta = {_fmt(zz_delta(args.nbar, args.gamma_tau))}")
        print(f"ratio_thermal = {_fmt(value / (args.n * fth))}")
        return 0
    except (ValueError, RuntimeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2 if isinstance(exc, ValueError) else 1


if __name__ == "__main__":
    sys.exit(main())
