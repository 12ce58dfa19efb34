"""A catalogue of edits to written artifacts, run through ``ionspins check``.

Each artifact kind is written once by a small CLI run.  Every caught edit
changes one value that the files determine; ``check`` must exit 3 with a
message that names the edited file and the invariant it broke.  Every blind
edit is one that ``check`` cannot see, listed with the reason; it must exit
0, so that a check added for it shows up here as a failing case to move.
"""

import json
import os
import shutil

import numpy as np
import pytest

from ionspins.cli import main
from ionspins.fileio import read_csv, write_csv

ARTIFACTS = {
    "modes": ("modes", "--n", "7"),
    "couplings": ("couplings", "--n", "7", "--mu-tilde", "5.1"),
    "phase-table": ("phase-table", "--n", "5", "--samples", "16"),
    "scan2d": ("scan2d", "--n", "5", "--mu-range", "3.1:3.4", "--b-range", "0:0.4", "--samples", "4x3"),
    "gap": ("gap", "--n-list", "3", "--samples", "5"),
}

# the fields of one bond_graph.json edge; each has a caught edit below
EDGE_FIELDS = ("j", "m", "n", "sign", "weight")


@pytest.fixture(scope="module")
def written(tmp_path_factory):
    root = tmp_path_factory.mktemp("artifacts")
    for kind, argv in ARTIFACTS.items():
        assert main([*argv, "--out", str(root / kind)]) == 0
    return root


def _rows(change):
    """Rewrite a CSV artifact with ``change(rows)`` in place of its rows."""

    def edit(path):
        config, columns, rows = read_csv(path)
        write_csv(path, columns, change(rows.copy()), config)

    return edit


def _columns(change):
    def edit(path):
        config, columns, rows = read_csv(path)
        write_csv(path, change(list(columns)), rows, config)

    return edit


def _header(key, value):
    def edit(path):
        config, columns, rows = read_csv(path)
        write_csv(path, columns, rows, {**config, key: value})

    return edit


def _doc(change):
    """Rewrite a JSON artifact after ``change(doc)`` edits it in place."""

    def edit(path):
        with open(path) as fh:
            doc = json.load(fh)
        change(doc)
        with open(path, "w") as fh:
            json.dump(doc, fh)

    return edit


def _set(index, value):
    """rows with ``rows[index] = value``; a callable value maps the old entry."""

    def change(rows):
        rows[index] = value(rows[index]) if callable(value) else value
        return rows

    return change


def _swap(a, b, axis=0):
    def change(rows):
        order = np.arange(rows.shape[axis])
        order[[a, b]] = order[[b, a]]
        return np.take(rows, order, axis=axis)

    return change


def _edge(field, value):
    return _doc(lambda doc: doc["edges"][0].update({field: value(doc["edges"][0][field])}))


def _sub(i, **fields):
    return _doc(lambda doc: doc["table"]["intervals"][0]["subintervals"][i].update(fields))


def _transition(i, **fields):
    return _doc(lambda doc: doc["table"]["intervals"][0]["transitions"][i].update(fields))


def _alpha(**fields):
    return _doc(lambda doc: doc["alphas"][0].update(fields))


def _scale(factor):
    return lambda x: factor * x


def _same_order_as_left(doc):
    subs = doc["table"]["intervals"][0]["subintervals"]
    subs[1].update(order=subs[0]["order"], degeneracy=subs[0]["degeneracy"])


def _move_first_transition(doc):
    """The first order change moved by 1e-3, its subinterval edge and transition alike."""
    interval = doc["table"]["intervals"][0]
    left, right = interval["subintervals"][:2]
    left["hi"] = right["lo"] = interval["transitions"][0]["mu_tilde"] = left["hi"] + 1e-3


def _drop_transition(doc):
    """The last order change of the first interval deleted, and the count kept in step."""
    doc["table"]["intervals"][0]["transitions"].pop()
    doc["transition_count"] -= 1


def _unsolved(rows):
    rows[1, 2:] = np.nan
    return rows


# (kind, file, edit, a fragment of the message); N = 7 for modes and couplings,
# 5 for the table and the map, 3 for the gap
CAUGHT = {
    "positions-columns": ("modes", "positions.csv", _columns(lambda c: ["n", "x"]), "unexpected columns"),
    "positions-label": ("modes", "positions.csv", _rows(_set((0, 0), 0.0)), "labels n"),
    "positions-descending": ("modes", "positions.csv", _rows(lambda r: r * [1, -1]), "not strictly ascending"),
    "positions-shifted": ("modes", "positions.csv", _rows(lambda r: r + [0, 1e-6]), "not odd-symmetric"),
    "positions-stretched": ("modes", "positions.csv", _rows(lambda r: r * [1, 1.001]), "not in equilibrium"),
    "positions-header-n": ("modes", "positions.csv", _header("n", "9"), "header n=9 for 7 positions"),
    "modes-columns": ("modes", "modes.csv", _columns(lambda c: ["k", "w", *c[2:]]), "unexpected columns"),
    "modes-row-dropped": ("modes", "modes.csv", _rows(lambda r: r[:-1]), "is not 6x6"),
    "modes-label": ("modes", "modes.csv", _rows(_set((0, 0), 2.0)), "labels k"),
    "modes-omega-order": (
        "modes", "modes.csv", _rows(_set((np.s_[:2], 1), lambda w: w[::-1].copy())), "not ascending"
    ),
    "modes-entry": ("modes", "modes.csv", _rows(_set((0, 2), _scale(1.01))), "not orthonormal"),
    "modes-header-beta": ("modes", "modes.csv", _header("beta", "10.5"), "center-of-mass mode"),
    "modes-omega-nudged": (
        "modes", "modes.csv", _rows(_set((3, 1), lambda w: w + 1e-9)), "not those of the chain"
    ),
    "modes-ions-swapped": ("modes", "modes.csv", _rows(_swap(2, 3, axis=1)), "not those of the chain"),
    "modes-column-renamed": ("modes", "modes.csv", _columns(lambda c: [*c[:3], "zz", *c[4:]]), "unexpected columns"),
    "modes-header-n": ("modes", "modes.csv", _header("n", "9"), "header n=9 for 7 modes"),
    "couplings-columns": ("couplings", "couplings.csv", _columns(lambda c: ["m", "n", "J"]), "unexpected columns"),
    "couplings-pair-dropped": ("couplings", "couplings.csv", _rows(lambda r: r[:-1]), "one row per pair"),
    "couplings-pairs-swapped": ("couplings", "couplings.csv", _rows(_swap(0, 1)), "one row per pair"),
    "couplings-asymmetric": ("couplings", "couplings.csv", _rows(_set((0, 2), 1.5)), "not reflection-symmetric"),
    "couplings-mirror-pair": (
        "couplings", "couplings.csv", _rows(_set((np.s_[::20], 2), 1.5)), "not those of the chain"
    ),
    "couplings-header-n": ("couplings", "couplings.csv", _header("n", "6"), "not those of the chain"),
    "couplings-header-beta": ("couplings", "couplings.csv", _header("beta", "11.0"), "not those of the chain"),
    "couplings-header-mu_tilde": (
        "couplings", "couplings.csv", _header("mu_tilde", "5.3"), "not those of the chain"
    ),
    "bond-jbar": ("couplings", "bond_graph.json", _doc(lambda d: d.update(jbar=1.01 * d["jbar"])), "Jbar"),
    "bond-jbar-missing": ("couplings", "bond_graph.json", _doc(lambda d: d.pop("jbar")), "malformed"),
    "bond-edge-j": ("couplings", "bond_graph.json", _edge("j", _scale(1.01)), "edges"),
    "bond-edge-m": ("couplings", "bond_graph.json", _edge("m", lambda m: m + 1), "edges"),
    "bond-edge-n": ("couplings", "bond_graph.json", _edge("n", lambda n: n - 1), "edges"),
    "bond-edge-sign": ("couplings", "bond_graph.json", _edge("sign", lambda s: "FM"), "edges"),
    "bond-edge-weight": ("couplings", "bond_graph.json", _edge("weight", _scale(1.01)), "edges"),
    "bond-edge-order": ("couplings", "bond_graph.json", _doc(lambda d: d["edges"].reverse()), "edges"),
    "bond-edge-dropped": ("couplings", "bond_graph.json", _doc(lambda d: d["edges"].pop()), "edges"),
    "table-lower-mode": (
        "phase-table", "phase_table.json",
        _doc(lambda d: d["table"]["intervals"][0].update(lower_mode=2)), "intervals are not",
    ),
    "table-transition-count": (
        "phase-table", "phase_table.json",
        _doc(lambda d: d.update(transition_count=d["transition_count"] + 1)), "transition_count",
    ),
    "table-order-flipped": ("phase-table", "phase_table.json", _sub(0, order="11111"), "not a canonical"),
    "table-order-short": ("phase-table", "phase_table.json", _sub(0, order="0000"), "not a canonical"),
    "table-degeneracy": ("phase-table", "phase_table.json", _sub(0, degeneracy=4), "orbit size"),
    "table-transition-dropped": ("phase-table", "phase_table.json", _doc(_drop_transition), "subintervals for"),
    "table-start": ("phase-table", "phase_table.json", _sub(0, lo=1.01), "does not start"),
    "table-end": ("phase-table", "phase_table.json", _sub(-1, hi=1.99), "does not end"),
    "table-overlap": ("phase-table", "phase_table.json", _sub(0, hi=1.1), "gap or overlap"),
    "table-same-order": ("phase-table", "phase_table.json", _doc(_same_order_as_left), "share the order"),
    "table-uncertainty": ("phase-table", "phase_table.json", _transition(0, uncertainty=1e-3), "not bracketed"),
    "table-transition-orders": (
        "phase-table", "phase_table.json", _transition(0, left_order="00110"), "does not join",
    ),
    "table-transition-off-its-edge": (
        "phase-table", "phase_table.json", _transition(0, mu_tilde=1.5), "is not the edge",
    ),
    "scan-columns": ("scan2d", "scan2d.csv", _columns(lambda c: [*c[:4], "E_0", "E1"]), "unexpected columns"),
    "scan-order-parameter": ("scan2d", "scan2d.csv", _rows(_set((1, 2), 1.5)), "order parameter outside"),
    "scan-polarization": ("scan2d", "scan2d.csv", _rows(_set((1, 3), -1.5)), "polarization outside"),
    "scan-energies-swapped": ("scan2d", "scan2d.csv", _rows(_swap(4, 5, axis=1)), "E0 above E1"),
    "scan-row-dropped": ("scan2d", "scan2d.csv", _rows(lambda r: r[:-1]), "full (mu_tilde, B_over_Jbar) grid"),
    "scan-rows-swapped": ("scan2d", "scan2d.csv", _rows(_swap(0, 1)), "full (mu_tilde, B_over_Jbar) grid"),
    "scan-row-unsolved": ("scan2d", "scan2d.csv", _rows(_unsolved), "without an order parameter"),
    "scan-failure-invented": (
        "scan2d", "scan2d.json",
        _doc(lambda d: d["failures"].append([0, 1, "NoConvergence: invented"])), "without an order parameter",
    ),
    "gap-columns": ("gap", "gap_scaling.csv", _columns(lambda c: [*c[:2], "gap", c[3]]), "unexpected columns"),
    "gap-empty": ("gap", "gap_scaling.csv", _rows(lambda r: r[:0]), "no gap samples"),
    "gap-field": ("gap", "gap_scaling.csv", _rows(_set((0, 1), 0.0)), "non-positive B_over_NJbar"),
    "gap-negative": ("gap", "gap_scaling.csv", _rows(_set((0, 2), -1e-3)), "non-positive gap"),
    "gap-mu-star": ("gap", "gap_scaling.csv", _rows(_set((0, 3), 2.5)), "mu_star outside"),
    "gap-one-gap": ("gap", "gap_scaling.csv", _rows(_set((0, 2), _scale(1.1))), "not the fit"),
    "alpha-value": ("gap", "alpha_fit.json", _alpha(alpha=1.01), "not the fit"),
    "alpha-residual": (
        "gap", "alpha_fit.json",
        _doc(lambda d: d["alphas"][0].update(residual=1.01 * d["alphas"][0]["residual"])), "not the fit",
    ),
    "alpha-negative": ("gap", "alpha_fit.json", _alpha(alpha=-1.0), "non-positive exponent"),
    "alpha-n": ("gap", "alpha_fit.json", _alpha(n_ions=5), "not one for each N"),
    "alpha-skipped": ("gap", "alpha_fit.json", _alpha(skipped=[0.01]), "skips a field"),
    "alpha-fit-added": (
        "gap", "alpha_fit.json",
        _doc(lambda d: d.update(fit={"slope": 0.0, "intercept": 1.0, "residual": 0.0})), "fit is not the line",
    ),
}

# (kind, file, edit, why check cannot see it)
BLIND = {
    "scan-e0-far-below": (
        "scan2d", "scan2d.csv", _rows(_set((1, 4), -1e9)),
        "E0 is bounded only by E1 of its row; the energies are not re-solved",
    ),
    "scan-uniform-order-parameter": (
        "scan2d", "scan2d.csv", _rows(_set((slice(None), 2), 0.25)),
        "0.25 lies in [-1, 1]; only a re-solve of each point could tell",
    ),
    "bond-config-mu_tilde": (
        "couplings", "bond_graph.json", _doc(lambda d: d["config"].update(mu_tilde=5.3)),
        "no JSON header is read; couplings.csv's header is the one that pins the chain",
    ),
    "table-config-n": (
        "phase-table", "phase_table.json", _doc(lambda d: d["config"].update(n=7)),
        "no JSON header is read; the table's own n_ions sets the intervals",
    ),
    "scan-config-samples": (
        "scan2d", "scan2d.json", _doc(lambda d: d["config"].update(samples="8x8")),
        "no JSON header is read",
    ),
    "alpha-config-n_list": (
        "gap", "alpha_fit.json", _doc(lambda d: d["config"].update(n_list="5")),
        "no JSON header is read; the alphas are held to gap_scaling.csv's rows",
    ),
    "table-beta": (
        "phase-table", "phase_table.json", _doc(lambda d: d["table"].update(beta=20.0)),
        "the table is not recomputed, and no invariant of the tiling involves beta",
    ),
    "table-samples": (
        "phase-table", "phase_table.json", _doc(lambda d: d["table"].update(samples_per_interval=64)),
        "the table is not recomputed, and no invariant of the tiling involves the sampling",
    ),
    "table-transition-moved": (
        "phase-table", "phase_table.json", _doc(_move_first_transition),
        "the tiling stays contiguous; only a recomputed table could place the change",
    ),
    "table-exact-crossing": (
        "phase-table", "phase_table.json", _transition(0, exact_crossing=True),
        "exact ties are not recomputed",
    ),
    "scan-header-mu_range": (
        "scan2d", "scan2d.csv", _header("mu_range", "3.0:3.5"),
        "the grid is held to its own rows, not to the header's ranges",
    ),
    "gap-header-b_range": (
        "gap", "gap_scaling.csv", _header("b_range", "0.02:0.2"),
        "the fields are held to positivity, not to the header's range",
    ),
    "gap-all-doubled": (
        "gap", "gap_scaling.csv", _rows(_set((slice(None), 2), _scale(2.0))),
        "a power law's exponent and log residual do not change with its scale; no gap is re-solved",
    ),
    "gap-mu-star-moved": (
        "gap", "gap_scaling.csv", _rows(_set((0, 3), 1.5)),
        "mu_star is held only to (N - 2, N - 1); no gap is re-solved",
    ),
}


def _check_edited(written, tmp_path, capsys, kind, name, edit):
    out = tmp_path / kind
    shutil.copytree(written / kind, out)
    edit(str(out / name))
    capsys.readouterr()
    code = main(["check", "--out", str(out)])
    return code, capsys.readouterr().err, os.path.join(str(out), name)


def test_written_artifacts_pass_check(written):
    for kind in ARTIFACTS:
        assert main(["check", "--out", str(written / kind)]) == 0


def test_rewriting_a_csv_unchanged_keeps_its_bytes(written, tmp_path):
    for kind, name in (("modes", "modes.csv"), ("gap", "gap_scaling.csv"), ("scan2d", "scan2d.csv")):
        path = tmp_path / name
        shutil.copy(written / kind / name, path)
        _rows(lambda r: r)(str(path))
        assert path.read_bytes() == (written / kind / name).read_bytes()


def test_every_bond_graph_value_has_a_caught_edit(written):
    with open(written / "couplings" / "bond_graph.json") as fh:
        doc = json.load(fh)
    assert sorted(doc) == ["config", "edges", "jbar"]
    assert all(sorted(edge) == list(EDGE_FIELDS) for edge in doc["edges"])
    caught = {case for case, (_, name, *_) in CAUGHT.items() if name == "bond_graph.json"}
    assert {"bond-jbar"} | {f"bond-edge-{field}" for field in EDGE_FIELDS} <= caught


@pytest.mark.parametrize("case", list(CAUGHT))
def test_check_catches_edit(written, tmp_path, capsys, case):
    kind, name, edit, fragment = CAUGHT[case]
    code, err, path = _check_edited(written, tmp_path, capsys, kind, name, edit)
    assert code == 3, err
    assert "CheckFailure" in err and path in err and fragment in err, err


@pytest.mark.parametrize("case", list(BLIND))
def test_check_is_blind_to_edit(written, tmp_path, capsys, case):
    kind, name, edit, reason = BLIND[case]
    assert reason
    code, err, _ = _check_edited(written, tmp_path, capsys, kind, name, edit)
    assert code == 0, err
