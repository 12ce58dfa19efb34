"""Deterministic CSV/JSON emission and the invariant re-checks of every artifact.

CSV dialect: comma separated, '.' decimal point, 17 significant digits,
one header row, and '#'-prefixed metadata lines carrying the resolved run
configuration but the output directory.  Nothing time-dependent is ever written,
so repeated runs with the same configuration produce byte-identical files in any
directory.  Every CLI command re-verifies the files it writes through
``check_directory``, and ``check`` re-verifies a whole output directory, from
the files alone.
"""

from __future__ import annotations

import json
import os
import warnings

import numpy as np

from .errors import CheckFailure


def fmt(x):
    """17-significant-digit decimal form (round-trips IEEE doubles)."""
    if isinstance(x, (float, np.floating)):
        return format(float(x), ".17g")
    return str(x)


def _header(config):
    """The run settings a file records, sorted by key; not ``out``, which says where it went."""
    return {k: v for k, v in sorted(config.items()) if k != "out"}


def write_csv(path, columns, rows, config):
    lines = [f"# {k}={'' if v is None else v}" for k, v in _header(config).items()]
    lines.append(",".join(columns))
    for row in rows:
        lines.append(",".join(fmt(x) for x in row))
    with open(path, "w", newline="") as fh:
        fh.write("\n".join(lines) + "\n")


def write_json(path, payload, config):
    doc = {"config": _header(config)}
    doc.update(payload)
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


def read_csv(path):
    """Returns (config dict, column names, list of string rows)."""
    config = {}
    columns = None
    rows = []
    with open(path) as fh:
        for line in fh:
            line = line.rstrip("\n")
            if not line:
                continue
            if line.startswith("#"):
                body = line[1:].strip()
                if "=" in body:
                    key, _, val = body.partition("=")
                    config[key.strip()] = val.strip()
                continue
            if columns is None:
                columns = line.split(",")
            else:
                rows.append(line.split(","))
    return config, columns, rows


def _require(cond, message):
    if not cond:
        raise CheckFailure(message)


def check_positions(path):
    _, cols, rows = read_csv(path)
    _require(cols == ["n", "u"], f"{path}: unexpected columns {cols}")
    u = np.array([float(r[1]) for r in rows])
    _require(np.all(np.diff(u) > 0), f"{path}: positions not strictly ascending")
    _require(
        float(np.max(np.abs(u + u[::-1]))) <= 1e-10,
        f"{path}: positions not odd-symmetric about the origin",
    )
    return f"{path}: {len(u)} positions ascending and odd-symmetric"


def check_modes(path):
    config, cols, rows = read_csv(path)
    n = len(rows)
    _require(cols[:2] == ["k", "omega"], f"{path}: unexpected columns {cols}")
    _require(len(cols) == 2 + n, f"{path}: mode matrix block is not {n}x{n}")
    omega = np.array([float(r[1]) for r in rows])
    b = np.array([[float(x) for x in r[2:]] for r in rows]).T  # column k = mode k
    _require(np.all(np.diff(omega) > 0), f"{path}: frequencies not ascending")
    gram = b.T @ b - np.eye(n)
    _require(
        float(np.max(np.abs(gram))) <= 1e-10, f"{path}: mode matrix not orthonormal"
    )
    beta = config.get("beta")
    if beta is not None:
        _require(
            abs(omega[-1] - float(beta)) <= 1e-10,
            f"{path}: stiffest mode is not the center-of-mass mode at beta",
        )
    return f"{path}: {n} modes orthonormal and ascending"


def check_couplings(csv_path, json_path):
    config, cols, rows = read_csv(csv_path)
    _require(cols == ["m", "n", "j"], f"{csv_path}: unexpected columns {cols}")
    pairs = [(int(r[0]), int(r[1]), float(r[2])) for r in rows]
    n = max(max(m, p) for m, p, _ in pairs)
    _require(len(pairs) == n * (n - 1) // 2, f"{csv_path}: expected one row per pair m<n")
    j = np.zeros((n, n))
    for m, p, val in pairs:
        j[m - 1, p - 1] = j[p - 1, m - 1] = val
    refl = j[::-1, ::-1]
    _require(
        float(np.max(np.abs(j - refl))) <= 1e-10,
        f"{csv_path}: couplings not reflection-symmetric",
    )
    jbar = float(np.sqrt(np.sum(j * j) / (n * (n - 1))))
    messages = [f"{csv_path}: {len(pairs)} bonds reflection-symmetric"]
    if os.path.exists(json_path):
        with open(json_path) as fh:
            doc = json.load(fh)
        _require(
            abs(doc["jbar"] - jbar) <= 1e-12 * max(1.0, jbar),
            f"{json_path}: header Jbar does not match the written matrix",
        )
        _require(
            len(doc["edges"]) == n * (n - 1) // 2, f"{json_path}: wrong edge count"
        )
        weights = [e["weight"] for e in doc["edges"]]
        _require(
            all(a >= b for a, b in zip(weights, weights[1:])),
            f"{json_path}: edges not sorted by descending magnitude",
        )
        messages.append(f"{json_path}: Jbar and edge ordering consistent")
    return "; ".join(messages)


def check_phase_table(path):
    with open(path) as fh:
        doc = json.load(fh)
    table = doc["table"]
    refine = float(table["refine_tol"])
    for iv in table["intervals"]:
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
    return f"{path}: tiling contiguous, adjacent orders distinct"


def check_scan2d(path):
    with open(path) as fh:
        # the header is the first line that is neither blank nor a comment;
        # np.loadtxt parses the rest straight into floats, never held as text
        header = next((line for line in fh if line.rstrip("\n") and not line.startswith("#")), None)
        cols = None if header is None else header.rstrip("\n").split(",")
        _require(
            cols == ["mu_tilde", "B_over_Jbar", "order_parameter", "polarization", "E0", "E1"],
            f"{path}: unexpected columns {cols}",
        )
        with warnings.catch_warnings():
            # an empty body is a (0, 6) array, an empty grid
            warnings.filterwarnings("ignore", "loadtxt: input contained no data")
            values = np.loadtxt(fh, delimiter=",", usecols=range(6), ndmin=2)
    mu, b, op, pol, e0, e1 = values.T
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
    n_mu = len(set(mu.tolist()))
    n_b = len(set(b.tolist()))
    _require(len(values) == n_mu * n_b, f"{path}: incomplete grid")
    return f"{path}: {len(values)} grid rows within bounds, E0 <= E1"


def check_gap_files(csv_path, json_path):
    _, cols, rows = read_csv(csv_path)
    _require(
        cols == ["N", "B_over_NJbar", "delta_E", "mu_star"],
        f"{csv_path}: unexpected columns {cols}",
    )
    _require(rows, f"{csv_path}: no gap samples")
    gaps = np.array([float(r[2]) for r in rows])
    _require(np.all(gaps > 0), f"{csv_path}: non-positive gap recorded")
    messages = [f"{csv_path}: {len(rows)} gap samples positive"]
    if os.path.exists(json_path):
        with open(json_path) as fh:
            doc = json.load(fh)
        for entry in doc["alphas"]:
            _require(entry["alpha"] > 0, f"{json_path}: non-positive exponent")
        messages.append(f"{json_path}: exponents positive")
    return "; ".join(messages)


# artifact -> (its checker, the companion files the checker also reads)
_CHECKS = {
    "positions.csv": (check_positions,),
    "modes.csv": (check_modes,),
    "couplings.csv": (check_couplings, "bond_graph.json"),
    "phase_table.json": (check_phase_table,),
    "scan2d.csv": (check_scan2d,),
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
