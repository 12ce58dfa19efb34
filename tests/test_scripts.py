"""Smoke tests of the experiment scripts in scripts/: each runs the CLI, every directory
it writes passes ``check``, and an invalid request exits 2 with the one-line message the
CLI prints."""

import importlib.util
import json
import os
import sys

import pytest

from ionspins.fileio import check_directory, read_csv

SCRIPTS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "scripts")


def run_script(monkeypatch, name, *args):
    """Load scripts/<name>.py and call its main() with the given command line."""
    spec = importlib.util.spec_from_file_location(name, os.path.join(SCRIPTS, f"{name}.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    monkeypatch.setattr(sys, "argv", [f"{name}.py", *args])
    return module.main()


def test_phase_census(tmp_path, monkeypatch, capsys):
    args = ("--n-list", "3,5", "--samples", "16", "--out", str(tmp_path))
    assert run_script(monkeypatch, "phase_census", *args) == 0
    assert sorted(os.listdir(tmp_path)) == ["n3", "n5"]
    lines = capsys.readouterr().out.splitlines()
    for n, line in zip((3, 5), lines, strict=True):
        out = tmp_path / f"n{n}"
        assert os.listdir(out) == ["phase_table.json"]
        check_directory(out)
        doc = json.loads((out / "phase_table.json").read_text())
        assert doc["config"] == {"beta": 10.0, "command": "phase-table", "n": n, "samples": "16"}
        assert line == f"{out}: {doc['transition_count']} transitions; flagged intervals: none"


def test_order_maps(tmp_path, monkeypatch):
    assert run_script(monkeypatch, "order_maps", "--n", "3", "--samples", "4x3", "--out", str(tmp_path)) == 0
    assert sorted(os.listdir(tmp_path)) == ["scan2d.csv", "scan2d.json"]
    check_directory(tmp_path)
    _, _, rows = read_csv(tmp_path / "scan2d.csv")
    assert len(rows) == 12


def test_bond_graphs(tmp_path, monkeypatch, capsys):
    assert run_script(monkeypatch, "bond_graphs", "--out", str(tmp_path)) == 0
    assert sorted(os.listdir(tmp_path)) == ["mu5.1", "mu5.3"]
    lines = capsys.readouterr().out.splitlines()
    orders = (("5.1", "0000000 (x2)"), ("5.3", "0000111 (x4)"))
    for (mu, order), line in zip(orders, lines, strict=True):
        out = tmp_path / f"mu{mu}"
        assert sorted(os.listdir(out)) == ["bond_graph.json", "couplings.csv"]
        check_directory(out)
        doc = json.loads((out / "bond_graph.json").read_text())
        assert doc["config"] == {"beta": 10.0, "command": "couplings", "mu_tilde": float(mu), "n": 7}
        first = doc["edges"][0]
        assert line.startswith(f"{out}: order {order}, E0 ")
        assert line.endswith(f"strongest edge ({first['m']},{first['n']}) {first['sign']}")


@pytest.mark.parametrize(
    "name, args, error",
    [
        ("phase_census", ("--n-list", "3", "--samples", "8"), "ValueError"),
        ("bond_graphs", ("--detunings", "5"), "ResonanceError"),
        ("order_maps", ("--n", "4"), "ValueError"),
    ],
    ids=["phase_census", "bond_graphs", "order_maps"],
)
def test_invalid_request_exits_2(tmp_path, monkeypatch, capsys, name, args, error):
    assert run_script(monkeypatch, name, *args, "--out", str(tmp_path)) == 2
    (line,) = capsys.readouterr().err.splitlines()
    assert line.startswith(f"{name}.py: configuration error: {error}: ")
