"""Smoke tests of the experiment scripts in scripts/: each runs and writes its files,
and an invalid request exits 2 with the one-line message the CLI prints."""

import importlib.util
import json
import os
import sys

import pytest

from ionspins.fileio import read_csv

SCRIPTS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "scripts")


def run_script(monkeypatch, name, *args):
    """Load scripts/<name>.py and call its main() with the given command line."""
    spec = importlib.util.spec_from_file_location(name, os.path.join(SCRIPTS, f"{name}.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    monkeypatch.setattr(sys, "argv", [f"{name}.py", *args])
    return module.main()


def test_phase_census(tmp_path, monkeypatch):
    assert run_script(monkeypatch, "phase_census", "--n-list", "3,5", "--samples", "16", "--out", str(tmp_path)) == 0
    assert sorted(os.listdir(tmp_path)) == ["phases_n3.json", "phases_n5.json"]
    for n in (3, 5):
        doc = json.loads((tmp_path / f"phases_n{n}.json").read_text())
        assert doc["config"] == {"beta": 10.0, "n_list": "3,5", "samples": 16}
        assert doc["n_ions"] == n and doc["samples_per_interval"] == 16
        assert len(doc["intervals"]) == len(doc["interval_reports"]) == n - 1
        assert doc["transition_count"] == sum(len(iv["transitions"]) for iv in doc["intervals"])
        assert [r["lower_mode"] for r in doc["interval_reports"]] == list(range(1, n))
        assert [r["n_transitions"] for r in doc["interval_reports"]] == [
            len(iv["transitions"]) for iv in doc["intervals"]
        ]


def test_order_maps(tmp_path, monkeypatch):
    assert run_script(monkeypatch, "order_maps", "--n", "3", "--samples", "4x3", "--out", str(tmp_path)) == 0
    assert sorted(os.listdir(tmp_path)) == ["scan2d.csv", "scan2d.json"]
    _, _, rows = read_csv(tmp_path / "scan2d.csv")
    assert len(rows) == 12


def test_bond_graphs(tmp_path, monkeypatch):
    assert run_script(monkeypatch, "bond_graphs", "--out", str(tmp_path)) == 0
    assert sorted(os.listdir(tmp_path)) == ["bonds_mu5.1.json", "bonds_mu5.3.json"]
    for mu, order in (("5.1", "0000000"), ("5.3", "0000111")):
        doc = json.loads((tmp_path / f"bonds_mu{mu}.json").read_text())
        assert doc["config"]["detunings"] == "5.1,5.3"
        assert doc["ground_order"] == order
        assert len(doc["edges"]) == 21
        assert sorted(doc["edges"][0]) == ["j", "m", "n", "sign", "weight"]


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
