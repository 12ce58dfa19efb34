"""Deterministic CSV/JSON emission and the invariant re-checks of every artifact.

CSV dialect: '#'-prefixed metadata lines carrying the resolved run
configuration but the output directory, one header row of column names, then
a numeric table: one number per column on every row, comma separated, '.'
decimal point, 17 significant digits.  ``write_csv`` and ``read_csv`` are the
only code that formats or parses these rows; the reader refuses a row of any
other width.  Nothing time-dependent is ever written, so repeated runs with
the same configuration produce byte-identical files in any directory.  Every
CLI command re-verifies the files it writes through ``check_directory``, and
``check`` re-verifies a whole output directory, from the files alone.  The
checks hold each file to the library's own rules rather than restating them:
a bond graph must be ``couplings.bond_graph`` of the written matrix, orders
and degeneracies ``spins.canonical_configs`` and ``orbit_sizes``, and a file
whose header names its chain must be what the pipeline computes from it.
"""

from __future__ import annotations

import json
import os
import warnings
from dataclasses import asdict

import numpy as np

from .chain import IonChain, TrapConfig, potential_gradient, transverse_modes
from .couplings import CouplingMatrix, bond_graph, coupling_from_trap
from .errors import CheckFailure
from .phases import linear_fit, power_law_fit
from .spins import bits_to_index, canonical_configs, orbit_sizes


def _header(config):
    """The run settings a file records, sorted by key; not ``out``, which says where it went."""
    return {k: v for k, v in sorted(config.items()) if k != "out"}


def write_csv(path, columns, table, config):
    """Write the header lines, the column line and ``table``, one row of numbers per line."""
    lines = [f"# {k}={'' if v is None else v}" for k, v in _header(config).items()]
    lines.append(",".join(columns))
    with open(path, "w", newline="") as fh:
        fh.write("\n".join(lines) + "\n")
        np.savetxt(fh, np.asarray(table, float), fmt="%.17g", delimiter=",")


def write_json(path, payload, config):
    doc = {"config": _header(config)}
    doc.update(payload)
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


def read_csv(path):
    """Returns (config dict, column names, float array of the rows, one column each).

    Raises ValueError if the file has no column line or a row does not hold
    exactly one number per column.
    """
    config = {}
    with open(path) as fh:
        for line in fh:
            line = line.rstrip("\n")
            if line.startswith("#"):
                key, eq, val = line[1:].partition("=")
                if eq:
                    config[key.strip()] = val.strip()
            elif line:
                columns = line.split(",")
                break
        else:
            raise ValueError(f"{path}: no column line")
        with warnings.catch_warnings():
            # an empty body is an empty table
            warnings.filterwarnings("ignore", "loadtxt: input contained no data")
            rows = np.loadtxt(fh, delimiter=",", ndmin=2)
    if not rows.size:
        rows = rows.reshape(0, len(columns))
    if rows.shape[1] != len(columns):
        raise ValueError(f"{path}: {rows.shape[1]} values per row for {len(columns)} columns")
    return config, columns, rows


def _require(cond, message):
    if not cond:
        raise CheckFailure(message)


def _refit(written, fitted):
    """True when written values agree with a fresh fit's up to 1e-12 relative.

    A fit repeated on another numpy or LAPACK build can differ in its last
    bits, so a file is held to the fit only up to that rounding.
    """
    return all(abs(w - f) <= 1e-12 * max(1.0, abs(f)) for w, f in zip(written, fitted))


def _require_labels(path, name, labels):
    n = len(labels)
    _require(
        np.array_equal(labels, np.arange(1, n + 1)), f"{path}: labels {name} do not read 1 ... {n}"
    )


def check_positions(path):
    config, cols, rows = read_csv(path)
    _require(cols == ["n", "u"], f"{path}: unexpected columns {cols}")
    _require_labels(path, "n", rows[:, 0])
    u = rows[:, 1]
    _require(np.all(np.diff(u) > 0), f"{path}: positions not strictly ascending")
    _require(
        float(np.max(np.abs(u + u[::-1]))) <= 1e-10,
        f"{path}: positions not odd-symmetric about the origin",
    )
    # Newton stops at a gradient of 1e-12; written files read about 1e-14
    residual = float(np.max(np.abs(potential_gradient(u))))
    _require(residual <= 1e-10, f"{path}: positions not in equilibrium (gradient {residual:.3e})")
    _require(int(config.get("n", len(u))) == len(u), f"{path}: header n={config.get('n')} for {len(u)} positions")
    return f"{path}: {len(u)} positions labelled, ascending, odd-symmetric and in equilibrium"


def check_modes(path, positions_path):
    config, cols, rows = read_csv(path)
    n = len(rows)
    _require(cols[:2] == ["k", "omega"], f"{path}: unexpected columns {cols}")
    _require(len(cols) == 2 + n, f"{path}: mode matrix block is not {n}x{n}")
    _require_labels(path, "k", rows[:, 0])
    omega = rows[:, 1]
    b = rows[:, 2:].T  # column k = mode k
    _require(np.all(np.diff(omega) > 0), f"{path}: frequencies not ascending")
    gram = b.T @ b - np.eye(n)
    _require(
        float(np.max(np.abs(gram))) <= 1e-10, f"{path}: mode matrix not orthonormal"
    )
    messages = [f"{path}: {n} modes labelled, orthonormal and ascending"]
    beta = config.get("beta")
    if beta is not None:
        _require(
            abs(omega[-1] - float(beta)) <= 1e-10,
            f"{path}: stiffest mode is not the center-of-mass mode at beta",
        )
        if os.path.exists(positions_path):
            # a rerun of the pipeline from the written positions gives the written modes;
            # each up to its sign, which rounding picks where two mirror ions share the
            # largest amplitude (a LAPACK build may pick the other)
            u = read_csv(positions_path)[2][:, 1]
            _require(len(u) == n, f"{path}: {n} modes for the {len(u)} ions of {positions_path}")
            spec = transverse_modes(IonChain(TrapConfig(n, float(beta)), u))
            off = np.minimum(
                np.max(np.abs(spec.mode_matrix - b), axis=0), np.max(np.abs(spec.mode_matrix + b), axis=0)
            )
            _require(
                np.all(np.abs(spec.frequencies - omega) <= 1e-12 * omega) and np.all(off <= 1e-12),
                f"{path}: modes are not those of the chain in {positions_path}",
            )
            messages.append(f"{path}: reproduced from {positions_path}")
    _require(cols == ["k", "omega"] + [f"b_{i}" for i in range(1, n + 1)], f"{path}: unexpected columns {cols}")
    _require(int(config.get("n", n)) == n, f"{path}: header n={config.get('n')} for {n} modes")
    return "; ".join(messages)


def check_couplings(csv_path, json_path):
    config, cols, rows = read_csv(csv_path)
    _require(cols == ["m", "n", "j"], f"{csv_path}: unexpected columns {cols}")
    n = int(np.sqrt(2 * len(rows))) + 1  # the N with N(N-1)/2 rows, if there is one
    m, p = np.triu_indices(n, 1)
    _require(
        len(rows) and np.array_equal(rows[:, :2], np.column_stack((m, p)) + 1),
        f"{csv_path}: expected one row per pair m<n, in order",
    )
    j = np.zeros((n, n))
    j[m, p] = j[p, m] = rows[:, 2]
    _require(
        float(np.max(np.abs(j - j[::-1, ::-1]))) <= 1e-10,
        f"{csv_path}: couplings not reflection-symmetric",
    )
    coupling = CouplingMatrix.from_matrix(j)
    messages = [f"{csv_path}: {len(rows)} bonds reflection-symmetric"]
    if {"n", "beta", "mu_tilde"} <= set(config):
        # a rerun of the pipeline from the header gives the written couplings
        rerun = coupling_from_trap(int(config["n"]), float(config["beta"]), float(config["mu_tilde"])).j
        _require(
            rerun.shape == j.shape and np.all(np.abs(j - rerun) <= 1e-12 * np.maximum(1.0, np.abs(j))),
            f"{csv_path}: couplings are not those of the chain in its header",
        )
        messages.append(f"{csv_path}: reproduced from its header")
    if os.path.exists(json_path):
        with open(json_path) as fh:
            doc = json.load(fh)
        _require(
            abs(doc["jbar"] - coupling.jbar) <= 1e-12 * max(1.0, coupling.jbar),
            f"{json_path}: header Jbar does not match the written matrix",
        )
        _require(
            doc["edges"] == [asdict(e) for e in bond_graph(coupling)],
            f"{json_path}: edges are not couplings.bond_graph of {csv_path}",
        )
        messages.append(f"{json_path}: Jbar and edges those of {csv_path}")
    return "; ".join(messages)


def check_phase_table(path):
    with open(path) as fh:
        doc = json.load(fh)
    table = doc["table"]
    n = table["n_ions"]
    refine = float(table["refine_tol"])
    intervals = table["intervals"]
    _require(
        [iv["lower_mode"] for iv in intervals] == list(range(1, n)),
        f"{path}: intervals are not (1,2) ... (N-1,N) for N={n}",
    )
    listed = sum(len(iv["transitions"]) for iv in intervals)
    _require(
        doc["transition_count"] == listed,
        f"{path}: transition_count {doc['transition_count']} for {listed} transitions listed",
    )
    table_subs = [sub for iv in intervals for sub in iv["subintervals"]]
    orders = [sub["order"] for sub in table_subs] + [
        o for iv in intervals for t in iv["transitions"] for o in (t["left_order"], t["right_order"])
    ]
    for o in orders:
        # spins holds a configuration in an int64
        _require(
            len(o) == n <= 62 and set(o) <= {"0", "1"},
            f"{path}: order {o!r} is not a canonical {n}-bit order",
        )
    configs = np.array([bits_to_index(o) for o in orders], dtype=np.int64)
    for o, canonical in zip(orders, canonical_configs(configs, n) == configs):
        _require(canonical, f"{path}: order {o!r} is not a canonical {n}-bit order")
    for sub, size in zip(table_subs, orbit_sizes(configs[: len(table_subs)], n).tolist()):
        _require(
            sub["degeneracy"] == size,
            f"{path}: degeneracy {sub['degeneracy']} of {sub['order']} is not its orbit size",
        )
    for iv in intervals:
        k = iv["lower_mode"]
        subs, transitions = iv["subintervals"], iv["transitions"]
        _require(subs, f"{path}: interval ({k},{k + 1}) has no subintervals")
        _require(
            len(subs) == len(transitions) + 1,
            f"{path}: interval ({k},{k + 1}) has {len(subs)} subintervals for "
            f"{len(transitions)} transitions",
        )
        _require(subs[0]["lo"] == k, f"{path}: interval ({k},{k + 1}) does not start at {k}")
        _require(
            subs[-1]["hi"] == k + 1, f"{path}: interval ({k},{k + 1}) does not end at {k + 1}"
        )
        for a, b in zip(subs[:-1], subs[1:]):
            _require(
                a["hi"] == b["lo"],
                f"{path}: gap or overlap between subintervals in ({k},{k + 1})",
            )
            _require(
                a["order"] != b["order"],
                f"{path}: adjacent subintervals share the order {a['order']}",
            )
        for t, left, right in zip(transitions, subs[:-1], subs[1:]):
            _require(
                t["uncertainty"] <= refine,
                f"{path}: transition at {t['mu_tilde']} not bracketed to {refine}",
            )
            _require(
                (t["left_order"], t["right_order"]) == (left["order"], right["order"]),
                f"{path}: transition at {t['mu_tilde']} does not join the orders of its subintervals",
            )
            _require(
                t["mu_tilde"] == left["hi"],
                f"{path}: transition at {t['mu_tilde']} is not the edge {left['hi']} of its subintervals",
            )
    return f"{path}: tiling contiguous, orders canonical, adjacent orders distinct"


def check_scan2d(path, json_path):
    _, cols, rows = read_csv(path)
    _require(
        cols == ["mu_tilde", "B_over_Jbar", "order_parameter", "polarization", "E0", "E1"],
        f"{path}: unexpected columns {cols}",
    )
    mu, b, op, pol, e0, e1 = rows.T
    finite = np.isfinite(op)
    _require(
        np.all(np.abs(op[finite]) <= 1.0 + 1e-12), f"{path}: order parameter outside [-1, 1]"
    )
    _require(
        np.all(np.abs(pol[np.isfinite(pol)]) <= 1.0 + 1e-12),
        f"{path}: polarization outside [-1, 1]",
    )
    both = np.isfinite(e0) & np.isfinite(e1)
    _require(np.all(e0[both] <= e1[both]), f"{path}: E0 above E1")
    # every (mu_tilde, B) pair of the grid once, row-major, as scan2d writes it
    mu_values, b_values = np.unique(mu), np.unique(b)
    _require(
        np.array_equal(mu, np.repeat(mu_values, len(b_values)))
        and np.array_equal(b, np.tile(b_values, len(mu_values))),
        f"{path}: rows are not the full (mu_tilde, B_over_Jbar) grid",
    )
    messages = [f"{path}: {len(rows)} grid rows within bounds, E0 <= E1"]
    if os.path.exists(json_path):
        with open(json_path) as fh:
            failed = sorted((i, l) for i, l, _ in json.load(fh)["failures"])
        # row r of the row-major grid is the point (i, l) = divmod(r, len(B))
        _require(
            failed == [divmod(r, len(b_values)) for r in np.flatnonzero(~finite).tolist()],
            f"{json_path}: failures are not the rows of {path} without an order parameter, once each",
        )
        messages.append(f"{json_path}: {len(failed)} failures, the unsolved rows of {path}")
    return "; ".join(messages)


def check_gap_files(csv_path, json_path):
    _, cols, rows = read_csv(csv_path)
    _require(
        cols == ["N", "B_over_NJbar", "delta_E", "mu_star"],
        f"{csv_path}: unexpected columns {cols}",
    )
    _require(len(rows), f"{csv_path}: no gap samples")
    n, fields, gaps, mu_star = rows.T
    _require(np.all(fields > 0), f"{csv_path}: non-positive B_over_NJbar recorded")
    _require(np.all(gaps > 0), f"{csv_path}: non-positive gap recorded")
    _require(
        np.all((n - 2 < mu_star) & (mu_star < n - 1)), f"{csv_path}: mu_star outside (N-2, N-1)"
    )
    messages = [f"{csv_path}: {len(rows)} gap samples positive, mu_star in (N-2, N-1)"]
    if os.path.exists(json_path):
        with open(json_path) as fh:
            doc = json.load(fh)
        alphas = doc["alphas"]
        n_ions = [entry["n_ions"] for entry in alphas]
        _require(
            len(set(n_ions)) == len(n_ions) and set(n_ions) == set(n.tolist()),
            f"{json_path}: alphas for N={n_ions}, not one for each N of {csv_path}",
        )
        for entry in alphas:
            at_n = n == entry["n_ions"]
            _require(entry["alpha"] > 0, f"{json_path}: non-positive exponent")
            alpha, rms = power_law_fit(fields[at_n], gaps[at_n])
            _require(
                _refit((entry["alpha"], entry["residual"]), (alpha, rms)),
                f"{json_path}: N={entry['n_ions']} alpha or residual is not the fit of {csv_path}",
            )
            _require(
                not np.isin(entry["skipped"], fields[at_n]).any(),
                f"{json_path}: N={entry['n_ions']} skips a field that {csv_path} holds",
            )
        fit, keys = doc.get("fit"), ("slope", "intercept", "residual")
        if len(alphas) >= 2:
            line = linear_fit(n_ions, [entry["alpha"] for entry in alphas])
            fitted = fit is not None and set(fit) == set(keys)
            fitted = fitted and _refit([fit[k] for k in keys], line)
        else:
            fitted = fit is None
        _require(fitted, f"{json_path}: fit is not the line through its (N, alpha)")
        messages.append(f"{json_path}: exponents positive, the fits of {csv_path}")
    return "; ".join(messages)


# artifact -> (its checker, the companion files the checker also reads)
_CHECKS = {
    "positions.csv": (check_positions,),
    "modes.csv": (check_modes, "positions.csv"),
    "couplings.csv": (check_couplings, "bond_graph.json"),
    "phase_table.json": (check_phase_table,),
    "scan2d.csv": (check_scan2d, "scan2d.json"),
    "gap_scaling.csv": (check_gap_files, "alpha_fit.json"),
}


def check_directory(directory, names=None):
    """Re-verify every recognized artifact in a directory from the files alone.

    ``names`` limits the check to those artifacts (with the companion files
    their checkers read); by default every recognized artifact present is
    checked.  Returns a list of per-file messages; raises CheckFailure on the
    first violated invariant or malformed file and FileNotFoundError if
    nothing checkable is present.
    """
    messages = []
    for name, (checker, *companions) in _CHECKS.items():
        paths = [os.path.join(directory, f) for f in (name, *companions)]
        if (names is None or name in names) and os.path.exists(paths[0]):
            try:
                messages.append(checker(*paths))
            except (LookupError, TypeError, AttributeError, ValueError) as exc:  # malformed file
                where = " or ".join(p for p in paths if os.path.exists(p))
                raise CheckFailure(f"{where}: malformed ({type(exc).__name__}: {exc})") from exc
    if not messages:
        raise FileNotFoundError(f"no checkable artifacts found in {directory}")
    return messages
