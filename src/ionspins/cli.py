"""Command-line front end for the trapped-ion Ising pipeline.

Subcommands: modes, couplings, phase-table, scan2d, gap, check.  Each accepts
--config plus the flags (``--name``) and config keys (``name=value``) of only
the settings it reads, listed per command in ``_COMMANDS`` (``out`` for all);
any other flag or key is an invalid request.  Precedence is command line >
config file (--config, key=value lines) > the command's defaults; every
output file carries the settings that ran, all but ``out``, so any artifact
can be reproduced byte for byte.  Each command re-verifies the files it wrote
before it returns (``fileio.check_directory``); ``check`` re-verifies every
artifact in --out.

Exit codes (``exit_code``, shared by the scripts in scripts/, which drive
``run_command``): 0 success, 2 invalid request (any ValueError or OSError),
3 valid request without a trustworthy result (any ``errors.NumericalFailure``).
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import asdict
from typing import Callable, NamedTuple

import numpy as np

from . import fileio
from .chain import TrapConfig, equilibrium_positions, transverse_modes
from .couplings import bond_graph, coupling_from_trap
from .errors import NumericalFailure
from .phases import fit_alpha, linear_fit, phase_table, scan_2d


class _Setting(NamedTuple):
    type: Callable
    default: object
    help: str


# Every run setting, declared once; the flag of ``name`` is ``--name`` with
# '-' for '_'.
_SETTINGS = {
    "n": _Setting(int, 7, "ion count (default 7; gap has none)"),
    "n_list": _Setting(str, "", "comma-separated ion counts"),
    "beta": _Setting(float, 10.0, "trap aspect ratio wx/wz (default 10)"),
    "mu_tilde": _Setting(float, None, "rescaled detuning"),
    "mu_range": _Setting(str, "", "detuning range lo:hi"),
    "b_range": _Setting(str, "", "field lo:hi, B/Jbar (scan2d), B/(N Jbar) (gap)"),
    "samples": _Setting(str, "", "grid samples (N or NxM)"),
    "out": _Setting(str, "ionspins_out", "output directory (default ionspins_out)"),
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
            values[key] = _SETTINGS[key].type(val.strip())
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
    """Write each ``name: data`` into cfg.out under the run's settings, then re-verify them.

    ``data`` is ``(columns, table)`` for a ``.csv`` name, ``table`` holding
    one row of numbers per line, and a JSON payload otherwise.  A file that
    fails its check stays on disk for inspection.
    """
    os.makedirs(cfg.out, exist_ok=True)
    for name, data in files.items():
        path = os.path.join(cfg.out, name)
        if name.endswith(".csv"):
            fileio.write_csv(path, *data, vars(cfg))
        else:
            fileio.write_json(path, data, vars(cfg))
    fileio.check_directory(cfg.out, list(files))


def cmd_modes(cfg):
    chain = equilibrium_positions(TrapConfig(n_ions=cfg.n, aspect_ratio=cfg.beta))
    spec = transverse_modes(chain)
    labels = np.arange(1, cfg.n + 1)
    _write(cfg, {
        "positions.csv": (["n", "u"], np.column_stack((labels, chain.positions))),
        "modes.csv": (
            ["k", "omega"] + [f"b_{i + 1}" for i in range(cfg.n)],
            np.column_stack((labels, spec.frequencies, spec.mode_matrix.T)),
        ),
    })


def cmd_couplings(cfg):
    if cfg.mu_tilde is None:
        raise ValueError("couplings requires --mu-tilde")
    coupling = coupling_from_trap(cfg.n, cfg.beta, cfg.mu_tilde)
    m, p = np.triu_indices(cfg.n, 1)
    _write(cfg, {
        "couplings.csv": (["m", "n", "j"], np.column_stack((m + 1, p + 1, coupling.j[m, p]))),
        "bond_graph.json": {
            "n_ions": cfg.n,
            "beta": cfg.beta,
            "mu_tilde": coupling.detuning.rescaled,
            "mu": coupling.detuning.resolved,
            "jbar": coupling.jbar,
            "nodes": list(range(1, cfg.n + 1)),
            "edges": [asdict(e) for e in bond_graph(coupling)],
        },
    })
    return coupling


def cmd_phase_table(cfg):
    table = phase_table(cfg.n, cfg.beta, samples_per_interval=int(cfg.samples))
    _write(cfg, {
        "phase_table.json": {"table": table.to_dict(), "transition_count": table.transition_count}
    })
    return table


def cmd_scan2d(cfg):
    if not cfg.mu_range or not cfg.b_range:
        raise ValueError("scan2d requires --mu-range and --b-range")
    mu_range = _parse_range(cfg.mu_range, "mu-range")
    b_range = _parse_range(cfg.b_range, "b-range")
    resolution = _parse_resolution(cfg.samples)
    grid = scan_2d(cfg.n, cfg.beta, mu_range, b_range, resolution=resolution)
    mu, b = np.meshgrid(grid.mu_values, grid.b_values, indexing="ij")
    values = (mu, b, grid.order_parameter, grid.polarization, grid.e0, grid.e1)
    _write(cfg, {
        "scan2d.csv": (
            ["mu_tilde", "B_over_Jbar", "order_parameter", "polarization", "E0", "E1"],
            np.column_stack([v.ravel() for v in values]),
        ),
        "scan2d.json": {"failures": grid.failures},
    })
    n_points = grid.order_parameter.size
    if len(grid.failures) > 0.01 * n_points:
        raise NumericalFailure(f"{len(grid.failures)} of {n_points} grid points failed")


def cmd_gap(cfg):
    if (cfg.n is not None) == bool(cfg.n_list):
        raise ValueError("gap needs exactly one of --n and --n-list")
    if cfg.n_list:
        entries = cfg.n_list.split(",")
        if not all(x.strip() for x in entries):
            raise ValueError(f"--n-list {cfg.n_list!r} has an empty entry")
        n_values = [int(x) for x in entries]
        if len(set(n_values)) != len(n_values):
            raise ValueError(f"--n-list {cfg.n_list!r} names an ion count twice")
    else:
        n_values = [cfg.n]
    lo, hi = _parse_range(cfg.b_range, "b-range")
    if not lo > 0.0:
        raise ValueError(f"--b-range needs lo > 0 for a geometric field grid, got {cfg.b_range!r}")
    b_values = np.geomspace(lo, hi, int(cfg.samples))
    fits = [fit_alpha(n, cfg.beta, b_values) for n in n_values]
    payload = {
        "alphas": [
            {"n_ions": f.n_ions, "alpha": f.alpha, "residual": f.residual, "skipped": f.skipped}
            for f in fits
        ]
    }
    if len(fits) >= 2:
        slope, intercept, rms = linear_fit([f.n_ions for f in fits], [f.alpha for f in fits])
        payload["fit"] = {"slope": slope, "intercept": intercept, "residual": rms}
    points = [p for f in fits for p in f.points]
    _write(cfg, {
        "gap_scaling.csv": (
            ["N", "B_over_NJbar", "delta_E", "mu_star"],
            np.column_stack((
                [p.n_ions for p in points],
                [p.b_over_njbar for p in points],
                [p.gap for p in points],
                [p.mu_star for p in points],
            )),
        ),
        "alpha_fit.json": payload,
    })


def cmd_check(cfg):
    """Re-verify every artifact in cfg.out and print one line per file."""
    for message in fileio.check_directory(cfg.out):
        print(message)


class _Command(NamedTuple):
    run: Callable
    reads: tuple
    defaults: dict = {}


# Each command's handler, the settings it reads and the defaults it overrides;
# its flags and the config keys it accepts are exactly the settings it reads,
# and its artifact header is all of them but ``out``.
_COMMANDS = {
    "modes": _Command(cmd_modes, ("n", "beta", "out")),
    "couplings": _Command(cmd_couplings, ("n", "beta", "mu_tilde", "out")),
    "phase-table": _Command(cmd_phase_table, ("n", "beta", "samples", "out"), {"samples": "64"}),
    "scan2d": _Command(
        cmd_scan2d, ("n", "beta", "mu_range", "b_range", "samples", "out"), {"samples": "128x64"}
    ),
    "gap": _Command(
        cmd_gap,
        ("n", "n_list", "beta", "b_range", "samples", "out"),
        {"n": None, "samples": "8", "b_range": "0.01:0.1"},
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
            p.add_argument("--" + key.replace("_", "-"), type=setting.type, help=setting.help)
    return parser


def exit_code(prog, run, *args):
    """Call ``run(*args)`` and return 0, or print its error on one line and return its code.

    3 for a ``NumericalFailure``, 2 for a ``ValueError`` or ``OSError``; others propagate.
    """
    try:
        run(*args)
    except NumericalFailure as exc:
        print(f"{prog}: numerical failure: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3
    except (ValueError, OSError) as exc:
        print(f"{prog}: configuration error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    return 0


def run_command(argv=None):
    """Run one ``ionspins`` command line; errors propagate (``main`` maps them to exit codes).

    Returns the ``PhaseTable`` of ``phase-table``, the ``CouplingMatrix`` of ``couplings``, else None.
    """
    cfg = _resolve(_build_parser().parse_args(argv))
    return _COMMANDS[cfg.command].run(cfg)


def main(argv=None):
    return exit_code("ionspins", run_command, argv)


if __name__ == "__main__":
    sys.exit(main())
