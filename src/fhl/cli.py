"""Command-line entry point, configuration, run persistence, reports.

Configs are flat key=value text ('#' comments, UTF-8); duplicate keys take
the last value and leave a warning record in the echo.  All numeric output
is printed with 12 significant digits.  Replays are deterministic: the same
config and version produce an identical report.json apart from the
wall-time fields.
"""

from __future__ import annotations

import argparse
import csv
import itertools
import json
import os
import sys
import time

import numpy as np

from . import __version__, bubbles, constants, diagnostics, riesz, solver, spectral
from .errors import (MissingRequired, NumericalError, OutOfRange, UnknownKey,
                     ValidationError, WrongType)
from .grids import interval, rectangle
from .model import Regime, make_params
from .solver import Seed, SolveOptions

_FMT = "%.12g"

_SCHEMA = {
    # key: (type, required, default)
    "regime": (str, True, None),
    "n": (int, True, None),
    "s": (float, True, None),
    "mu": (float, True, None),
    "eps": (float, False, None),
    "eps_list": (str, False, None),
    "domain.kind": (str, True, None),
    "domain.a": (float, False, 0.0),
    "domain.b": (float, False, 1.0),
    "domain.ax": (float, False, 0.0),
    "domain.bx": (float, False, 1.0),
    "domain.ay": (float, False, 0.0),
    "domain.by": (float, False, 1.0),
    "grid": (int, False, 1024),
    "modes": (int, False, 256),
    "theta": (float, False, 0.5),
    "tol": (float, False, 1e-8),
    "max_iter": (int, False, 2000),
    "seed": (str, False, "first_eigenfunction"),
    "window": (float, False, 3.0),
    "strip_cells": (int, False, 10),
}


def parse_config(text):
    """Parse flat key=value config text into a typed dict.

    Returns (config, warnings); raises UnknownKey / WrongType / MissingRequired.
    """
    raw = {}
    warnings = []
    for lineno, line in enumerate(text.splitlines(), 1):
        body = line.split("#", 1)[0].strip()
        if not body:
            continue
        if "=" not in body:
            raise WrongType(f"line {lineno}: expected key=value, got {body!r}")
        key, value = (part.strip() for part in body.split("=", 1))
        if key not in _SCHEMA:
            raise UnknownKey(f"unknown config key {key!r} (line {lineno})")
        if key in raw:
            warnings.append(f"duplicate key {key!r}: last value wins")
        raw[key] = value
    cfg = {}
    for key, (typ, required, default) in _SCHEMA.items():
        if key in raw:
            try:
                cfg[key] = typ(raw[key])
            except (TypeError, ValueError):
                raise WrongType(f"config key {key!r}: cannot read "
                                f"{raw[key]!r} as {typ.__name__}")
        elif required:
            raise MissingRequired(f"config key {key!r} is required")
        else:
            cfg[key] = default
    return cfg, warnings


def serialize_config(cfg):
    lines = []
    for key in _SCHEMA:
        val = cfg.get(key)
        if val is None:
            continue
        lines.append(f"{key}={val}")
    return "\n".join(lines) + "\n"


def _domain_from_config(cfg):
    if cfg["domain.kind"] == "interval":
        return interval(cfg["domain.a"], cfg["domain.b"], cfg["grid"])
    if cfg["domain.kind"] == "rectangle":
        return rectangle(cfg["domain.ax"], cfg["domain.bx"],
                         cfg["domain.ay"], cfg["domain.by"], cfg["grid"])
    raise WrongType(f"domain.kind must be interval or rectangle, "
                    f"got {cfg['domain.kind']!r}")


def _seed_from_config(cfg):
    spec = cfg["seed"]
    if spec == "first_eigenfunction":
        return Seed.first_eigenfunction()
    if spec.startswith("bubble_cap:"):
        try:
            lam0 = float(spec.split(":", 1)[1])
        except ValueError:
            raise WrongType(f"config key 'seed': cannot read the scale of {spec!r}")
        return Seed.bubble_cap(lam0)
    raise WrongType(f"unknown seed spec {spec!r}")


def _solve_setup(cfg, eps):
    """(params, domain, basis, weights, opts) of a config solved at eps."""
    params = make_params(cfg["n"], cfg["s"], cfg["mu"], eps, cfg["regime"])
    domain = _domain_from_config(cfg)
    basis = spectral.build_basis(domain, cfg["modes"])
    weights = riesz.build_weights(domain, solver.kernel_exponent(params))
    opts = SolveOptions(theta=cfg["theta"], max_iter=cfg["max_iter"],
                        residual_tol=cfg["tol"], seed=_seed_from_config(cfg))
    return params, domain, basis, weights, opts


def _read_config(path):
    """(config, warnings) of the config file at path."""
    with open(path) as fh:
        return parse_config(fh.read())


def _write_archive(out_dir, name, cfg, warnings, key, value, wall):
    """Make out_dir and write {config, config_warnings, version, key: value,
    wall_time_s} to out_dir/name.json; the replay contract compares these
    files apart from wall_time_s."""
    os.makedirs(out_dir, exist_ok=True)
    payload = {"config": {k: v for k, v in cfg.items() if v is not None},
               "config_warnings": warnings, "version": __version__,
               key: value, "wall_time_s": wall}
    with open(os.path.join(out_dir, f"{name}.json"), "w") as fh:
        json.dump(payload, fh, sort_keys=True, indent=2)
        fh.write("\n")


def _write_solution_csv(path, record):
    """x[,y],u rows as csv.writer writes them (no %g field needs quoting),
    streamed rather than joined so the file never sits in memory whole."""
    dom = record.grid.domain
    nodes = itertools.product(*(x.tolist() for x in dom.axes()))   # row-major
    row = ",".join([_FMT] * (dom.dim + 1)) + "\r\n"
    with open(path, "w", newline="") as fh:
        fh.write(",".join(["x", "y"][:dom.dim] + ["u"]) + "\r\n")
        fh.writelines(row % (*node, u) for node, u in
                      zip(nodes, record.grid.values.ravel().tolist()))


# --------------------------------------------------------------------------
# SVG line charts (static artifacts only)
# --------------------------------------------------------------------------

def _svg_chart(path, series, title):
    """One polyline per (label, xs, ys) triple on log-free axes."""
    width, height, pad = 640, 400, 50.0
    xs_all = [x for _, xs, _ in series for x in xs]
    ys_all = [y for _, _, ys in series for y in ys]
    if not xs_all:
        xs_all = ys_all = [0.0, 1.0]
    x0, x1 = min(xs_all), max(xs_all)
    y0, y1 = min(ys_all), max(ys_all)
    if x1 == x0:
        x1 = x0 + 1.0
    if y1 == y0:
        y1 = y0 + 1.0

    def sx(x):
        return pad + (x - x0) / (x1 - x0) * (width - 2 * pad)

    def sy(y):
        return height - pad - (y - y0) / (y1 - y0) * (height - 2 * pad)

    colors = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd")
    parts = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
             f'height="{height}">',
             f'<text x="{width/2}" y="20" text-anchor="middle" '
             f'font-size="14">{title}</text>',
             f'<rect x="{pad}" y="{pad}" width="{width-2*pad}" '
             f'height="{height-2*pad}" fill="none" stroke="#888"/>']
    for idx, (label, xs, ys) in enumerate(series):
        pts = " ".join(f"{sx(x):.2f},{sy(y):.2f}" for x, y in zip(xs, ys))
        color = colors[idx % len(colors)]
        parts.append(f'<polyline points="{pts}" fill="none" stroke="{color}" '
                     f'stroke-width="1.5"/>')
        parts.append(f'<text x="{pad+4}" y="{pad+16*(idx+1)}" fill="{color}" '
                     f'font-size="12">{label}</text>')
    parts.append(f'<text x="{pad}" y="{height-18}" font-size="11">'
                 f'x: [{_FMT % x0}, {_FMT % x1}]  y: [{_FMT % y0}, {_FMT % y1}]</text>')
    parts.append("</svg>")
    with open(path, "w") as fh:
        fh.write("\n".join(parts) + "\n")


# --------------------------------------------------------------------------
# commands
# --------------------------------------------------------------------------

def _cmd_constants(args):
    params = make_params(args.n, args.s, args.mu, 0.0, Regime.FREE_SPACE)
    values = constants.all_constants(params)
    if args.json:
        print(json.dumps(values, sort_keys=True))
    else:
        for key in sorted(values):
            print(f"{key:16s} {_FMT % values[key]}")
    return 0


def _cmd_bubble(args):
    params = make_params(args.n, args.s, args.mu, 0.0, Regime.FREE_SPACE)
    bub = bubbles.Bubble(bubbles.BubbleFamily.HARTREE_W,
                         (0.0,) * params.n, 1.0, params)
    if args.action == "quotient":
        print(f"quotient {_FMT % bubbles.hls_quotient(bub)}")
        return 0
    if args.points < 0:
        raise OutOfRange(f"--points must be >= 0, got {args.points}")
    writer = csv.writer(sys.stdout)
    writer.writerow(["x", "lhs", "rhs", "residual"])
    for rho in np.linspace(0.0, 10.0, args.points):
        x = (float(rho),) + (0.0,) * (params.n - 1)
        lhs, rhs = bubbles.convolution_identity_lhs_rhs(bub, x)
        writer.writerow([_FMT % rho, _FMT % lhs, _FMT % rhs,
                         _FMT % abs(lhs / rhs - 1.0)])
    return 0


def _cmd_robin(args):
    if args.samples < 0:
        raise OutOfRange(f"--samples must be >= 0, got {args.samples}")
    # the Green and Robin sums read the modes and the interval, never the
    # nodes: build_basis's smallest grid for the mode count
    dom = interval(args.a, args.b, max(16, 2 * args.modes))
    basis = spectral.build_basis(dom, args.modes)
    # sample away from the boundary, where the singularity subtraction is
    # resolvable at the configured mode count
    margin = 0.05 * (args.b - args.a)
    xs = np.linspace(args.a + margin, args.b - margin, args.samples)
    rows = []
    for x in xs:
        val, spread, _ = spectral.robin_detail(basis, args.s, (float(x),))
        _, tail = spectral.green_detail(basis, args.s, (float(x),),
                                        (float(x) + (args.b - args.a) * 0.01,))
        rows.append((x, val, tail, spread))
    with open(args.out, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["x", "phi", "tail_estimate", "extrapolation_spread"])
        for row in rows:
            writer.writerow([_FMT % v for v in row])
    print(f"wrote {args.out} ({len(rows)} rows)")
    return 0


def _cmd_solve(args):
    cfg, warnings = _read_config(args.config)
    if cfg["eps"] is None:
        raise MissingRequired("config key 'eps' is required by solve")
    setup = _solve_setup(cfg, cfg["eps"])
    t0 = time.perf_counter()
    record = solver.solve(*setup)
    out_dir = args.out or "."
    _write_archive(out_dir, "solve", cfg, warnings, "record", record.to_dict(),
                   time.perf_counter() - t0)
    _write_solution_csv(os.path.join(out_dir, "solution.csv"), record)
    print(json.dumps(record.to_dict(), sort_keys=True))
    return 0


def _cmd_continuation(args):
    cfg, warnings = _read_config(args.config)
    if args.eps:
        text, key = args.eps, "--eps"
    elif cfg["eps_list"]:
        text, key = cfg["eps_list"], "config key 'eps_list'"
    else:
        raise MissingRequired("an eps list is required (--eps or eps_list=)")
    try:
        eps_list = [float(v) for v in text.split(",")]
    except ValueError:
        raise WrongType(f"{key}: cannot read {text!r} as comma-separated floats")
    params, domain, basis, weights, opts = _solve_setup(cfg, eps_list[0])
    t0 = time.perf_counter()
    report = diagnostics.continuation(params, domain, eps_list, opts,
                                      basis=basis, weights=weights,
                                      window=cfg["window"],
                                      strip_cells=cfg["strip_cells"])
    out_dir = args.out or "run"
    _write_archive(out_dir, "report", cfg, warnings, "report", report.to_dict(),
                   time.perf_counter() - t0)
    with open(os.path.join(out_dir, "config.echo.cfg"), "w") as fh:
        fh.write(serialize_config(cfg))
    _write_summary_csv(os.path.join(out_dir, "summary.csv"), report.derived)
    for rec in report.records:
        _write_solution_csv(
            os.path.join(out_dir, f"solution_eps_{rec.eps:g}.csv"), rec)
    print(f"wrote {out_dir}/report.json and summary.csv "
          f"({len(report.records)} records)")
    return 0


# The scalar series of report.derived: (summary.csv header, fhl report file
# name, derived key).  summary.csv puts eps first and x_eps after the first
# two series.
_SERIES = (("mu_eps", "mu_eps", "mu_eps"),
           ("mu_eps_pow_eps", "mu_power", "mu_eps_pow_eps"),
           ("profile_dist", "profile_distance", "profile_distance"),
           ("rate_lhs", "rate_lhs", "rate_lhs"),
           ("boundary_sup", "boundary_sup", "boundary_strip_sup"),
           ("interior_L1", "interior_l1", "interior_l1"))


def _write_summary_csv(path, derived):
    heads = [head for head, _, _ in _SERIES]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["eps", *heads[:2], "x_eps", *heads[2:]])
        for d in derived:
            vals = [_FMT % d[key] for _, _, key in _SERIES]
            writer.writerow([_FMT % d["eps"], *vals[:2],
                             "/".join(_FMT % v for v in d["x_eps"]), *vals[2:]])


def _cmd_report(args):
    with open(args.inp) as fh:
        try:
            derived = json.load(fh)["report"]["derived"]
        except (ValueError, LookupError, TypeError):
            raise WrongType(f"{args.inp} is not JSON with a 'report' key holding "
                            "'derived', as fhl continuation writes") from None
    os.makedirs(args.out, exist_ok=True)
    eps = [d["eps"] for d in derived]
    for _, name, key in _SERIES:
        ys = [d[key] for d in derived]
        with open(os.path.join(args.out, f"{name}.csv"), "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["eps", key])
            writer.writerows([_FMT % e, _FMT % y] for e, y in zip(eps, ys))
        _svg_chart(os.path.join(args.out, f"{name}.svg"), [(key, eps, ys)], name)
    print(f"wrote {len(_SERIES)} series to {args.out}/")
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="fhl", description="fractional Hartree blow-up laboratory")
    sub = parser.add_subparsers(dest="command", required=True)
    free_space = argparse.ArgumentParser(add_help=False)
    for flag, typ in (("--n", int), ("--s", float), ("--mu", float)):
        free_space.add_argument(flag, type=typ, required=True)

    p = sub.add_parser("constants", parents=[free_space],
                       help="print closed-form constants")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_constants)

    p = sub.add_parser("bubble", parents=[free_space], help="bubble identity checks")
    p.add_argument("action", choices=("check", "quotient"))
    p.add_argument("--points", type=int, default=16)
    p.set_defaults(func=_cmd_bubble)

    p = sub.add_parser("robin", help="Robin function table on an interval")
    p.add_argument("--a", type=float, default=0.0)
    p.add_argument("--b", type=float, default=1.0)
    p.add_argument("--s", type=float, required=True)
    p.add_argument("--modes", type=int, default=20000)
    p.add_argument("--samples", type=int, default=33)
    p.add_argument("--out", default="robin.csv")
    p.set_defaults(func=_cmd_robin)

    p = sub.add_parser("solve", help="one solve from a config file")
    p.add_argument("--config", required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("continuation", help="eps sweep with diagnostics")
    p.add_argument("--config", required=True)
    p.add_argument("--eps", default=None, help="comma-separated decreasing list")
    p.add_argument("--out", default="run")
    p.set_defaults(func=_cmd_continuation)

    p = sub.add_parser("report", help="emit CSV/SVG series from report.json")
    p.add_argument("--in", dest="inp", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_report)

    return parser


def run_command(argv):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except (ValidationError, NumericalError, OSError) as exc:
        # config errors are ValidationErrors, and exit 1 with them
        sys.stderr.write(json.dumps(
            {"error": type(exc).__name__, "message": str(exc)}) + "\n")
        return 2 if isinstance(exc, NumericalError) else 1


def main():
    sys.exit(run_command(sys.argv[1:]))


if __name__ == "__main__":
    main()
