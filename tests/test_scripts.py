"""Smoke tests of the experiment scripts in scripts/: each runs and writes its files."""

import importlib.util
import json
import os
import sys

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
    assert run_script(monkeypatch, "phase_census", "--n-list", "3,5", "--samples", "16", "--out", str(tmp_path)) is None
    assert sorted(os.listdir(tmp_path)) == ["phases_n3.json", "phases_n5.json"]
    for n in (3, 5):
        doc = json.loads((tmp_path / f"phases_n{n}.json").read_text())
        assert doc["n_ions"] == n and doc["samples_per_interval"] == 16
        assert len(doc["intervals"]) == len(doc["interval_reports"]) == n - 1
        assert doc["transition_count"] == sum(len(iv["transitions"]) for iv in doc["intervals"])


def test_order_maps(tmp_path, monkeypatch):
    assert run_script(monkeypatch, "order_maps", "--n", "3", "--samples", "4x3", "--out", str(tmp_path)) == 0
    assert sorted(os.listdir(tmp_path)) == ["scan2d.csv", "scan2d.json"]
    _, _, rows = read_csv(tmp_path / "scan2d.csv")
    assert len(rows) == 12


def test_bond_graphs(tmp_path, monkeypatch):
    assert run_script(monkeypatch, "bond_graphs", "--out", str(tmp_path)) is None
    assert sorted(os.listdir(tmp_path)) == ["bonds_mu5.1.json", "bonds_mu5.3.json"]
    for mu, order in (("5.1", "0000000"), ("5.3", "0000111")):
        doc = json.loads((tmp_path / f"bonds_mu{mu}.json").read_text())
        assert doc["ground_order"] == order
        assert len(doc["edges"]) == 21
