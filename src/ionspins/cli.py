"""Command-line front end for the trapped-ion Ising pipeline.

Subcommands: modes, couplings, phase-table, scan2d, gap, check.  Each accepts
--config plus the flags (``--name``) and config keys (``name=value``) of only
the settings it reads, listed per command in ``_COMMANDS`` (``out`` for all,
``check`` for all but check); any other flag or key is an invalid request.
Precedence is command line > config file (--config, key=value lines) > the
command's defaults; every output file carries the settings that ran, so any
artifact can be reproduced byte for byte.  ``--check`` re-verifies the files
the command wrote; ``check`` re-verifies every artifact in --out.

Exit codes: 0 success, 2 invalid request (any ValueError or OSError), 3 valid
request without a trustworthy result (any ``errors.NumericalFailure``).
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import Callable, NamedTuple

import numpy as np

from . import fileio
from .chain import TrapConfig, equilibrium_positions, transverse_modes
from .couplings import bond_graph, coupling_from_trap
from .errors import NoConvergence, NumericalFailure
from .phases import fit_alpha, linear_fit, phase_table, scan_2d


class _Setting(NamedTuple):
    type: Callable
    default: object
    help: str
    choices: tuple | None = None


def _truthy(text):
    word = text.strip().lower()
    if word not in ("1", "true", "yes", "0", "false", "no"):
        raise ValueError(f"expected 1/true/yes or 0/false/no, got {text!r}")
    return word in ("1", "true", "yes")


# Every run setting, declared once; the flag of ``name`` is ``--name`` with
# '-' for '_'.  A bool default makes a switch on the command line.
_SETTINGS = {
    "n": _Setting(int, 7, "ion count (default 7)"),
    "n_list": _Setting(str, "", "comma-separated ion counts"),
    "beta": _Setting(float, 10.0, "trap aspect ratio wx/wz (default 10)"),
    "mu_tilde": _Setting(float, None, "rescaled detuning"),
    "mu_range": _Setting(str, "", "detuning range lo:hi"),
    "b_range": _Setting(str, "", "field lo:hi, B/Jbar (scan2d), B/(N Jbar) (gap)"),
    "samples": _Setting(str, "", "grid samples (N or NxM)"),
    "tol": _Setting(float, None, "solver/refinement tolerance"),
    "out": _Setting(str, "ionspins_out", "output directory (default ionspins_out)"),
    "format": _Setting(str, "both", "csv, or csv and json", ("csv", "both")),
    "check": _Setting(_truthy, False, "re-verify the written files"),
}


def _read_config_file(path, command, reads):
    values = {}
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ValueError(f"config file line without '=': {line!r}")
            key, _, val = line.partition("=")
            key = key.strip().replace("-", "_")
            if key not in reads:
                raise ValueError(f"config key {key!r} is not read by {command}")
            setting = _SETTINGS[key]
            values[key] = setting.type(val.strip())
            if setting.choices and values[key] not in setting.choices:
                raise ValueError(f"config key {key!r} must be one of {setting.choices}")
    return values


def _resolve(args):
    """The settings the command reads: defaults < config file < flags."""
    _, reads, defaults = _COMMANDS[args.command]
    values = {key: defaults.get(key, _SETTINGS[key].default) for key in reads}
    if args.config:
        values.update(_read_config_file(args.config, args.command, reads))
    for key in reads:
        if getattr(args, key) is not None:
            values[key] = getattr(args, key)
    return argparse.Namespace(command=args.command, **values)


def _parse_range(text, name):
    try:
        lo, _, hi = text.partition(":")
        lo, hi = float(lo), float(hi)
    except ValueError:
        raise ValueError(f"--{name} expects lo:hi, got {text!r}") from None
    if not (np.isfinite(lo) and np.isfinite(hi)):
        raise ValueError(f"--{name} needs finite bounds, got {text!r}")
    if not hi > lo:
        raise ValueError(f"--{name} needs hi > lo, got {text!r}")
    return lo, hi


def _parse_resolution(text):
    parts = text.lower().split("x")
    if len(parts) > 2:
        raise ValueError(f"--samples expects N or NxM, got {text!r}")
    return int(parts[0]), int(parts[-1])


def _write(cfg, files):
    """Write each ``name: data`` into cfg.out under the run's settings; return the names.

    ``data`` is ``(columns, rows)`` for a ``.csv`` name and a JSON payload otherwise.
    """
    os.makedirs(cfg.out, exist_ok=True)
    for name, data in files.items():
        path = os.path.join(cfg.out, name)
        if name.endswith(".csv"):
            fileio.write_csv(path, *data, vars(cfg))
        else:
            fileio.write_json(path, data, vars(cfg))
    return list(files)


def cmd_modes(cfg):
    chain = equilibrium_positions(TrapConfig(n_ions=cfg.n, aspect_ratio=cfg.beta), tol=cfg.tol)
    spec = transverse_modes(chain)
    return _write(cfg, {
        "positions.csv": (["n", "u"], [(i + 1, chain.positions[i]) for i in range(cfg.n)]),
        "modes.csv": (
            ["k", "omega"] + [f"b_{i + 1}" for i in range(cfg.n)],
            [(k + 1, spec.frequencies[k], *spec.mode_matrix[:, k]) for k in range(cfg.n)],
        ),
    })


def cmd_couplings(cfg):
    if cfg.mu_tilde is None:
        raise ValueError("couplings requires --mu-tilde")
    coupling = coupling_from_trap(cfg.n, cfg.beta, cfg.mu_tilde, tol=cfg.tol)
    edges = bond_graph(coupling)
    return _write(cfg, {
        "couplings.csv": (
            ["m", "n", "j"],
            [(e.m, e.n, e.coupling) for e in sorted(edges, key=lambda e: (e.m, e.n))],
        ),
        "bond_graph.json": {
            "n_ions": cfg.n,
            "beta": cfg.beta,
            "mu_tilde": coupling.detuning.rescaled,
            "mu": coupling.detuning.resolved,
            "jbar": coupling.jbar,
            "nodes": list(range(1, cfg.n + 1)),
            "edges": [
                {"m": e.m, "n": e.n, "weight": e.weight, "sign": e.sign, "j": e.coupling}
                for e in edges
            ],
        },
    })


def cmd_phase_table(cfg):
    table = phase_table(cfg.n, cfg.beta, samples_per_interval=int(cfg.samples), refine_tol=cfg.tol)
    return _write(cfg, {
        "phase_table.json": {"table": table.to_dict(), "transition_count": table.transition_count}
    })


def cmd_scan2d(cfg):
    if not cfg.mu_range or not cfg.b_range:
        raise ValueError("scan2d requires --mu-range and --b-range")
    mu_range = _parse_range(cfg.mu_range, "mu-range")
    b_range = _parse_range(cfg.b_range, "b-range")
    resolution = _parse_resolution(cfg.samples)
    grid = scan_2d(cfg.n, cfg.beta, mu_range, b_range, resolution=resolution)
    files = {
        "scan2d.csv": (
            ["mu_tilde", "B_over_Jbar", "order_parameter", "polarization", "E0", "E1"],
            grid.rows(),
        )
    }
    if cfg.format == "both":
        files["scan2d.json"] = {
            "n_ions": grid.n_ions,
            "beta": grid.beta,
            "mu_values": [float(x) for x in grid.mu_values],
            "b_over_jbar_values": [float(x) for x in grid.b_values],
            "order_parameter": [[fileio.fmt(v) for v in row] for row in grid.order_parameter],
            "polarization": [[fileio.fmt(v) for v in row] for row in grid.polarization],
            "failures": grid.failures,
        }
    written = _write(cfg, files)
    n_points = grid.order_parameter.size
    if len(grid.failures) > 0.01 * n_points:
        raise NoConvergence(f"{len(grid.failures)} of {n_points} grid points failed")
    return written


def cmd_gap(cfg):
    if cfg.n_list:
        n_values = [int(x) for x in cfg.n_list.split(",") if x.strip()]
        if not n_values:
            raise ValueError(f"--n-list {cfg.n_list!r} names no ion count")
    else:
        n_values = [cfg.n]
    lo, hi = _parse_range(cfg.b_range, "b-range")
    if not lo > 0.0:
        raise ValueError(f"--b-range needs lo > 0 for a geometric field grid, got {cfg.b_range!r}")
    b_values = np.geomspace(lo, hi, int(cfg.samples))
    fits = [fit_alpha(n, cfg.beta, b_values) for n in n_values]
    payload = {
        "alphas": [
            {"n_ions": f.n_ions, "alpha": f.alpha, "residual": f.residual} for f in fits
        ]
    }
    if len(fits) >= 2:
        slope, intercept, rms = linear_fit([f.n_ions for f in fits], [f.alpha for f in fits])
        payload["fit"] = {"slope": slope, "intercept": intercept, "residual": rms}
    return _write(cfg, {
        "gap_scaling.csv": (
            ["N", "B_over_NJbar", "delta_E", "mu_star"],
            [(f.n_ions, p.b_over_njbar, p.gap, p.mu_star) for f in fits for p in f.points],
        ),
        "alpha_fit.json": payload,
    })


def cmd_check(cfg):
    """Writes nothing; ``main`` then re-verifies every artifact in cfg.out."""


class _Command(NamedTuple):
    run: Callable
    reads: tuple
    defaults: dict = {}


# Each command's handler, the settings it reads and the defaults it overrides;
# its flags, the config keys it accepts and its artifact header are exactly
# the settings it reads.
_COMMANDS = {
    "modes": _Command(cmd_modes, ("n", "beta", "tol", "out", "check"), {"tol": 1e-12}),
    "couplings": _Command(
        cmd_couplings, ("n", "beta", "mu_tilde", "tol", "out", "check"), {"tol": 1e-12}
    ),
    "phase-table": _Command(
        cmd_phase_table,
        ("n", "beta", "samples", "tol", "out", "check"),
        {"samples": "64", "tol": 1e-6},
    ),
    "scan2d": _Command(
        cmd_scan2d,
        ("n", "beta", "mu_range", "b_range", "samples", "format", "out", "check"),
        {"samples": "128x64"},
    ),
    "gap": _Command(
        cmd_gap,
        ("n", "n_list", "beta", "b_range", "samples", "out", "check"),
        {"samples": "8", "b_range": "0.01:0.1"},
    ),
    "check": _Command(cmd_check, ("out",)),
}


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="ionspins",
        description="Trapped-ion frustrated Ising pipeline: modes, couplings, phase diagrams",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, command in _COMMANDS.items():
        p = sub.add_parser(name)
        p.add_argument("--config", help="key=value config file (flags take precedence)")
        for key in command.reads:
            setting = _SETTINGS[key]
            flag = "--" + key.replace("_", "-")
            if isinstance(setting.default, bool):
                p.add_argument(flag, action="store_const", const=True, help=setting.help)
            else:
                p.add_argument(
                    flag, type=setting.type, choices=setting.choices, help=setting.help
                )
    return parser


def main(argv=None):
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = _resolve(args)
        written = _COMMANDS[cfg.command].run(cfg)
        if cfg.command == "check" or cfg.check:
            for message in fileio.check_directory(cfg.out, written):
                print(message)
    except NumericalFailure as exc:
        print(f"ionspins: numerical failure: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3
    except (ValueError, OSError) as exc:
        print(f"ionspins: configuration error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
