"""Command-line interface tests: files, headers, exit codes, reproducibility."""

import filecmp
import json
import math
import os
from dataclasses import asdict

import numpy as np
import pytest

from ionspins import cli, phases, spins
from ionspins.chain import TrapConfig, equilibrium_positions
from ionspins.cli import main
from ionspins.couplings import CouplingMatrix, bond_graph, coupling_from_trap
from ionspins.fileio import read_csv


def run(*argv):
    return main(list(argv))


def test_modes_two_ions(tmp_path):
    out = str(tmp_path)
    assert run("modes", "--n", "2", "--beta", "10", "--out", out) == 0
    _, cols, rows = read_csv(os.path.join(out, "modes.csv"))
    assert cols == ["k", "omega", "b_1", "b_2"]
    omegas = [float(r[1]) for r in rows]
    assert omegas[0] == pytest.approx(math.sqrt(99.0), abs=1e-12)
    assert omegas[1] == pytest.approx(10.0, abs=1e-12)


def test_modes_orthogonality_via_check_flag(tmp_path, capsys):
    out = str(tmp_path)
    assert run("modes", "--n", "7", "--out", out) == 0
    assert capsys.readouterr().out == ""
    assert run("check", "--out", out) == 0
    assert "orthonormal" in capsys.readouterr().out
    _, cols, rows = read_csv(os.path.join(out, "modes.csv"))
    assert len(rows) == 7


def test_check_flags_modes_not_of_the_written_positions(tmp_path, capsys):
    """The softest frequency moved by 1e-9 relative: orthonormal and ascending still, not the chain's."""
    out = str(tmp_path)
    assert run("modes", "--n", "7", "--beta", "6", "--out", out) == 0
    assert run("check", "--out", out) == 0
    assert "reproduced from" in capsys.readouterr().out

    def nudge(lines):
        k, omega, *b = lines[-7].split(",")
        return lines[:-7] + [",".join([k, repr(float(omega) * (1 + 1e-9)), *b])] + lines[-6:]

    _edit_lines(os.path.join(out, "modes.csv"), nudge)
    assert run("check", "--out", out) == 3
    err = capsys.readouterr().err
    assert "CheckFailure" in err and "modes.csv" in err and "positions.csv" in err
    os.remove(os.path.join(out, "positions.csv"))  # the modes alone cannot tell
    assert run("check", "--out", out) == 0


def test_modes_unstable_chain_exits_3(tmp_path, capsys):
    assert run("modes", "--n", "2", "--beta", "0.9", "--out", str(tmp_path)) == 3
    assert "ZigzagInstability" in capsys.readouterr().err
    assert not os.path.exists(os.path.join(str(tmp_path), "modes.csv"))


@pytest.mark.parametrize("beta", ["inf", "1e308", "nan"])
@pytest.mark.parametrize(
    "argv",
    [
        ("modes", "--n", "3"),
        ("couplings", "--n", "5", "--mu-tilde", "3.4"),
        ("phase-table", "--n", "5", "--samples", "16"),
        ("scan2d", "--n", "5", "--mu-range", "3.1:3.3", "--b-range", "0:1", "--samples", "3x2"),
        ("gap", "--n", "5"),
    ],
    ids=lambda argv: argv[0],
)
def test_non_finite_or_overflowing_beta_exits_2(tmp_path, capsys, argv, beta):
    # inf gave NaN frequencies or a KeyError, 1e308 an OverflowError on beta^2
    assert run(*argv, "--beta", beta, "--out", str(tmp_path)) == 2
    assert "aspect_ratio must be positive with a finite square" in capsys.readouterr().err
    assert not os.listdir(tmp_path)


def test_couplings_two_ions_closed_form(tmp_path):
    out = str(tmp_path)
    assert run("couplings", "--n", "2", "--mu-tilde", "1.5", "--out", out) == 0
    _, cols, rows = read_csv(os.path.join(out, "couplings.csv"))
    assert cols == ["m", "n", "j"]
    assert len(rows) == 1
    mu = 0.5 * (math.sqrt(99.0) + 10.0)
    expected = 0.5 * (1.0 / (mu**2 - 100.0) - 1.0 / (mu**2 - 99.0))
    assert float(rows[0][2]) == pytest.approx(expected, abs=1e-14)


def test_couplings_bond_graph_top_edges(tmp_path):
    out = str(tmp_path)
    assert run("couplings", "--n", "7", "--mu-tilde", "5.1", "--out", out) == 0
    with open(os.path.join(out, "bond_graph.json")) as fh:
        doc = json.load(fh)
    assert sorted(doc) == ["config", "edges", "jbar"]
    top3 = {(e["m"], e["n"]): e["sign"] for e in doc["edges"][:3]}
    assert top3.get((1, 7)) == "AFM"
    assert len(doc["edges"]) == 21
    assert doc["jbar"] > 0


def test_run_command_returns_what_it_computed(tmp_path):
    out = str(tmp_path)
    table = cli.run_command(["phase-table", "--n", "3", "--samples", "16", "--out", out])
    assert isinstance(table, phases.PhaseTable)
    with open(os.path.join(out, "phase_table.json")) as fh:
        assert json.load(fh)["table"] == json.loads(json.dumps(table.to_dict()))
    coupling = cli.run_command(["couplings", "--n", "5", "--mu-tilde", "3.4", "--out", out])
    assert isinstance(coupling, CouplingMatrix)
    assert np.array_equal(coupling.j, coupling_from_trap(5, 10.0, 3.4).j)
    assert cli.run_command(["modes", "--n", "3", "--out", out]) is None


def test_couplings_on_mode_exits_2(tmp_path):
    assert run("couplings", "--n", "7", "--mu-tilde", "5.0", "--out", str(tmp_path)) == 2


def test_couplings_out_of_range_detuning_exits_2(tmp_path, capsys):
    assert run("couplings", "--n", "5", "--mu-tilde", "7", "--out", str(tmp_path)) == 2
    err = capsys.readouterr().err
    assert "outside the open interval (1, 5)" in err and "phonon mode" not in err


def test_couplings_requires_detuning(tmp_path):
    assert run("couplings", "--n", "7", "--out", str(tmp_path)) == 2


def test_phase_table_three_ions(tmp_path):
    out = str(tmp_path)
    assert run("phase-table", "--n", "3", "--out", out) == 0
    with open(os.path.join(out, "phase_table.json")) as fh:
        doc = json.load(fh)
    assert doc["transition_count"] == 1
    assert run("check", "--out", out) == 0


def test_scan2d_files_and_check(tmp_path):
    out = str(tmp_path)
    assert (
        run(
            "scan2d",
            "--n",
            "5",
            "--mu-range",
            "3.05:3.45",
            "--b-range",
            "0:0.5",
            "--samples",
            "5x3",
            "--out",
            out,
        )
        == 0
    )
    _, cols, rows = read_csv(os.path.join(out, "scan2d.csv"))
    assert cols == ["mu_tilde", "B_over_Jbar", "order_parameter", "polarization", "E0", "E1"]
    assert rows.shape == (15, 6)
    # mu-major: each detuning's 3 fields in a block, ascending in B within it
    mu, b = rows[:, 0].reshape(5, 3), rows[:, 1].reshape(5, 3)
    assert np.all(mu == mu[:, :1]) and np.all(np.diff(mu[:, 0]) > 0)
    assert np.all(np.diff(b, axis=1) > 0)
    with open(os.path.join(out, "scan2d.json")) as fh:
        doc = json.load(fh)
    # the run's settings and its failure log; the grid values are the CSV's alone
    assert sorted(doc) == ["config", "failures"] and doc["failures"] == []
    assert run("check", "--out", out) == 0


def test_scan2d_failure_log_is_the_unsolved_rows(tmp_path, capsys):
    out = str(tmp_path)
    # the mu~ = 4 column sits on a phonon mode: 2 of 6 points fail
    argv = ("scan2d", "--n", "5", "--mu-range", "3.5:4.5", "--b-range", "0:1", "--samples", "3x2")
    assert run(*argv, "--out", out) == 3
    assert "2 of 6 grid points failed" in capsys.readouterr().err
    _, _, rows = read_csv(os.path.join(out, "scan2d.csv"))
    assert np.flatnonzero(np.isnan(rows[:, 2])).tolist() == [2, 3]
    with open(os.path.join(out, "scan2d.json")) as fh:
        failures = json.load(fh)["failures"]
    assert [(i, l) for i, l, _ in failures] == [(1, 0), (1, 1)]
    assert all(msg.startswith("ResonanceError: ") for _, _, msg in failures)
    assert run("check", "--out", out) == 0
    assert "scan2d.json: 2 failures" in capsys.readouterr().out


def test_scan2d_range_too_narrow_to_sample_exits_2_before_any_solve(tmp_path, capsys, monkeypatch):
    def no_solve(*args, **kwargs):
        raise AssertionError("a grid point was solved")

    monkeypatch.setattr(phases, "field_spectra", no_solve)
    # the 4 samples of a 2-ulp range cannot all differ
    argv = ("scan2d", "--n", "3", "--mu-range", "1.5:1.5000000000000004", "--b-range", "0:0.3")
    assert run(*argv, "--samples", "4x2", "--out", str(tmp_path)) == 2
    assert "detuning range is too narrow" in capsys.readouterr().err
    assert not os.listdir(tmp_path)


def test_scan2d_requires_ranges(tmp_path, capsys):
    assert run("scan2d", "--n", "5", "--out", str(tmp_path)) == 2
    assert run("scan2d", "--n", "5", "--mu-range", "oops", "--b-range", "0:1", "--out", str(tmp_path)) == 2
    assert run("scan2d", "--n", "5", "--mu-range", "3.4:3.1", "--b-range", "0:1", "--out", str(tmp_path)) == 2
    assert "needs hi > lo" in capsys.readouterr().err


def test_scan2d_non_finite_range_is_configuration_error(tmp_path, capsys):
    argv = ("scan2d", "--n", "5", "--mu-range", "3.1:3.3", "--b-range", "0:inf", "--samples", "3x2")
    assert run(*argv, "--out", str(tmp_path)) == 2
    assert "finite" in capsys.readouterr().err
    assert not os.listdir(tmp_path)


def test_scan2d_detuning_outside_chain_is_configuration_error(tmp_path):
    argv = ("scan2d", "--n", "5", "--mu-range", "0.5:1.5", "--b-range", "0:1", "--samples", "4x2")
    assert run(*argv, "--out", str(tmp_path)) == 2


def test_gap_outputs(tmp_path):
    out = str(tmp_path)
    assert run("gap", "--n-list", "3,5", "--out", out) == 0
    _, cols, rows = read_csv(os.path.join(out, "gap_scaling.csv"))
    assert cols == ["N", "B_over_NJbar", "delta_E", "mu_star"]
    assert len(rows) == 16
    with open(os.path.join(out, "alpha_fit.json")) as fh:
        doc = json.load(fh)
    alphas = {a["n_ions"]: a["alpha"] for a in doc["alphas"]}
    assert abs(alphas[3] - 1.0) <= 0.2
    assert abs(alphas[5] - 2.0) <= 0.4
    assert "slope" in doc["fit"]
    assert run("check", "--out", out) == 0


@pytest.mark.parametrize("counts", [("--n", "5", "--n-list", "3"), ()], ids=["both", "neither"])
def test_gap_needs_exactly_one_of_n_and_n_list(tmp_path, capsys, counts):
    assert run("gap", *counts, "--samples", "5", "--out", str(tmp_path)) == 2
    assert "exactly one of --n and --n-list" in capsys.readouterr().err
    assert not os.listdir(tmp_path)


def test_gap_empty_n_list_exits_2(tmp_path, capsys, monkeypatch):
    def no_fit(*args):
        raise AssertionError("fit_alpha ran")

    monkeypatch.setattr(cli, "fit_alpha", no_fit)
    for n_list in (",", "3,,5"):
        assert run("gap", "--n-list", n_list, "--out", str(tmp_path)) == 2
        assert "has an empty entry" in capsys.readouterr().err
        assert not os.listdir(tmp_path)


def test_gap_repeated_n_exits_2_before_any_fit(tmp_path, capsys, monkeypatch):
    def no_fit(*args):
        raise AssertionError("fit_alpha ran")

    monkeypatch.setattr(cli, "fit_alpha", no_fit)
    assert run("gap", "--n-list", "3,3", "--samples", "5", "--out", str(tmp_path)) == 2
    assert "names an ion count twice" in capsys.readouterr().err
    assert not os.listdir(tmp_path)


def test_gap_non_positive_field_range_exits_2(tmp_path, capsys):
    assert run("gap", "--n", "5", "--b-range=-0.05:0.05", "--samples", "5", "--out", str(tmp_path)) == 2
    assert "lo > 0" in capsys.readouterr().err
    assert not os.listdir(tmp_path)


def test_check_rejects_empty_gap_table(tmp_path, capsys):
    (tmp_path / "gap_scaling.csv").write_text("N,B_over_NJbar,delta_E,mu_star\n")
    assert run("check", "--out", str(tmp_path)) == 3
    assert "no gap samples" in capsys.readouterr().err


def test_reruns_are_byte_identical(tmp_path):
    out = tmp_path / "run"
    snap = tmp_path / "snap"
    snap.mkdir()
    args = ("couplings", "--n", "5", "--mu-tilde", "3.4", "--out", str(out))
    assert run(*args) == 0
    for name in ("couplings.csv", "bond_graph.json"):
        (snap / name).write_bytes((out / name).read_bytes())
    for name in ("couplings.csv", "bond_graph.json"):
        (out / name).unlink()
    assert run(*args) == 0
    for name in ("couplings.csv", "bond_graph.json"):
        assert filecmp.cmp(str(snap / name), str(out / name), shallow=False)


def test_config_file_and_flag_precedence(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("n=5\nbeta=10.0\nmu_tilde=3.4\n# comment line\n")
    out1 = tmp_path / "a"
    assert run("couplings", "--config", str(cfg), "--out", str(out1)) == 0
    with open(out1 / "bond_graph.json") as fh:
        assert json.load(fh)["config"]["n"] == 5
    out2 = tmp_path / "b"
    assert (
        run("couplings", "--config", str(cfg), "--n", "3", "--mu-tilde", "1.5", "--out", str(out2))
        == 0
    )
    with open(out2 / "bond_graph.json") as fh:
        assert json.load(fh)["config"]["n"] == 3


@pytest.mark.parametrize("word", ["on", "maybe", "Yes", "no"])
def test_config_file_with_check_key_is_rejected(tmp_path, word):
    # check is no setting: every command verifies what it writes, so whatever the word, exit 2
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"n=3\ncheck={word}\n")
    out = tmp_path / "out"
    assert run("modes", "--config", str(cfg), "--out", str(out)) == 2
    assert not out.exists()


def test_scan2d_past_the_eigensolve_budget_exits_2(tmp_path, capsys, monkeypatch):
    def no_operator(coupling):
        raise AssertionError("a spin operator was built for N = 41")

    monkeypatch.setattr(spins, "_SpinOperator", no_operator)
    argv = ("scan2d", "--n", "41", "--beta", "100", "--mu-range", "39.2:39.4", "--b-range", "0:1")
    assert run(*argv, "--samples", "1x1", "--out", str(tmp_path)) == 2
    assert "N <= 24" in capsys.readouterr().err
    assert not os.listdir(tmp_path)


def test_config_file_rejects_unknown_keys(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("unknown_key=1\n")
    assert run("modes", "--config", str(cfg), "--out", str(tmp_path)) == 2
    cfg.write_text("n 5\n")
    assert run("modes", "--config", str(cfg), "--out", str(tmp_path)) == 2
    assert "line without '='" in capsys.readouterr().err


def test_header_carries_resolved_config(tmp_path):
    scan2d = ("scan2d", "--n", "3", "--mu-range", "1.2:1.8", "--b-range", "0:0.3", "--samples", "3x2")
    for argv, artifact, expected in (
        (("modes", "--n", "4", "--beta", "12.5"), "positions.csv", {"n": "4", "beta": "12.5"}),
        (scan2d, "scan2d.csv", {"n": "3", "samples": "3x2"}),
    ):
        out = str(tmp_path / argv[0])
        assert run(*argv, "--out", out) == 0
        config, _, _ = read_csv(os.path.join(out, artifact))
        assert config["command"] == argv[0]
        assert {key: config[key] for key in expected} == expected
        assert "tol" not in config and "format" not in config and "threads" not in config
        assert "check" not in config and "out" not in config


@pytest.mark.parametrize(
    "argv",
    [
        ("modes", "--n", "3", "--mu-tilde", "1.5"),
        ("modes", "--n", "5", "--tol", "1e-300"),
        ("modes", "--n", "3", "--check"),
        ("couplings", "--n", "3", "--mu-tilde", "1.5", "--samples", "16"),
        ("couplings", "--n", "5", "--mu-tilde", "3.4", "--tol", "1e-17"),
        ("phase-table", "--n", "3", "--format", "csv"),
        ("phase-table", "--n", "3", "--tol", "1e-6"),
        ("scan2d", "--n", "3", "--mu-range", "1.2:1.8", "--b-range", "0:0.3", "--tol", "1e-9"),
        ("scan2d", "--n", "3", "--mu-range", "1.2:1.8", "--b-range", "0:0.3", "--format", "csv"),
        ("gap", "--n", "3", "--format", "csv"),
        ("gap", "--n", "3", "--check"),
        ("check", "--n", "3"),
        ("check", "--check"),
    ],
    ids=[
        "modes --mu-tilde",
        "modes --tol",
        "modes --check",
        "couplings --samples",
        "couplings --tol",
        "phase-table --format",
        "phase-table --tol",
        "scan2d --tol",
        "scan2d --format",
        "gap --format",
        "gap --check",
        "check --n",
        "check --check",
    ],
)
def test_unread_flag_exits_2(tmp_path, argv):
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--out", str(tmp_path)])
    assert exc.value.code == 2
    assert not os.listdir(tmp_path)


def test_config_file_rejects_unread_keys(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    out = tmp_path / "out"
    for command, key in (
        ("modes", "format=csv"),
        ("modes", "tol=1e-12"),
        ("modes", "check=1"),
        ("phase-table", "tol=1e-6"),
    ):
        cfg.write_text(f"n=3\n{key}\n")
        assert run(command, "--config", str(cfg), "--out", str(out)) == 2
        err = capsys.readouterr().err
        assert f"'{key.partition('=')[0]}'" in err and command in err
    assert not out.exists()


def test_scan2d_rejects_threads(tmp_path):
    argv = ("scan2d", "--n", "3", "--mu-range", "1.2:1.8", "--b-range", "0:0.3", "--samples", "3x2")
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--threads", "2", "--out", str(tmp_path / "flag")])
    assert exc.value.code == 2
    cfg = tmp_path / "run.cfg"
    cfg.write_text("threads=2\n")
    assert run(*argv, "--config", str(cfg), "--out", str(tmp_path / "key")) == 2
    assert os.listdir(tmp_path) == ["run.cfg"]


def test_phase_table_tol_inside_tie_window_exits_3(tmp_path, capsys, monkeypatch):
    # a tie window this wide holds all three sidesteps of some tied probe, so the tie is raised
    monkeypatch.setattr(spins, "_TIE_RTOL", 1e-4)
    assert run("phase-table", "--n", "5", "--samples", "16", "--out", str(tmp_path)) == 3
    assert "AmbiguousGround" in capsys.readouterr().err
    assert not os.path.exists(os.path.join(str(tmp_path), "phase_table.json"))


@pytest.mark.parametrize(
    "size",
    [("--samples", "0x3"), ("--samples", "3x0"), ("--samples", "2x2x2")],
    ids=["samples", "fields", "three-axes"],
)
def test_scan2d_bad_sizes_exit_2(tmp_path, size):
    argv = ("scan2d", "--n", "5", "--mu-range", "3.05:3.45", "--b-range", "0:1")
    assert run(*argv, *size, "--out", str(tmp_path)) == 2
    assert not os.path.exists(os.path.join(str(tmp_path), "scan2d.csv"))


def test_check_empty_directory_exits_2(tmp_path):
    assert run("check", "--out", str(tmp_path)) == 2


def test_check_flags_corrupted_file(tmp_path):
    out = str(tmp_path)
    assert run("modes", "--n", "3", "--out", out) == 0
    path = os.path.join(out, "positions.csv")
    with open(path) as fh:
        lines = fh.read().splitlines()
    lines[-1] = lines[-1].replace(lines[-1].split(",")[1], "99.9")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
    assert run("check", "--out", out) == 3


def _edit_lines(path, edit):
    with open(path) as fh:
        lines = fh.read().splitlines()
    with open(path, "w") as fh:
        fh.write("\n".join(edit(lines)) + "\n")


def _lower_e1(line):
    """One scan2d row with its E1 moved below its E0."""
    cells = line.split(",")
    cells[5] = repr(float(cells[4]) - 1.0)
    return ",".join(cells)


def test_check_flags_scan2d_levels_out_of_order(tmp_path, capsys):
    out = str(tmp_path)
    argv = ("scan2d", "--n", "5", "--mu-range", "3.05:3.45", "--b-range", "0:0.5", "--samples", "3x2")
    assert run(*argv, "--out", out) == 0
    _edit_lines(os.path.join(out, "scan2d.csv"), lambda ls: ls[:-1] + [_lower_e1(ls[-1])])
    assert run("check", "--out", out) == 3
    err = capsys.readouterr().err
    assert "CheckFailure" in err and "E0 above E1" in err


def test_data_command_verifies_the_files_it_wrote(tmp_path, capsys, monkeypatch):
    def levels_out_of_order(*args, **kwargs):
        grid = phases.scan_2d(*args, **kwargs)
        grid.e0[-1, -1] = grid.e1[-1, -1] + 1.0
        return grid

    monkeypatch.setattr(cli, "scan_2d", levels_out_of_order)
    out = str(tmp_path)
    argv = ("scan2d", "--n", "5", "--mu-range", "3.05:3.45", "--b-range", "0:0.5", "--samples", "3x2")
    assert run(*argv, "--out", out) == 3
    err = capsys.readouterr().err
    assert "CheckFailure" in err and "E0 above E1" in err
    assert os.path.exists(os.path.join(out, "scan2d.csv"))  # kept for inspection


def _edit_json(path, edit):
    with open(path) as fh:
        doc = json.load(fh)
    edit(doc)
    with open(path, "w") as fh:
        json.dump(doc, fh)


def _asymmetric(out):
    """J_12 no longer equals its mirror image J_45."""
    _edit_lines(
        os.path.join(out, "couplings.csv"),
        lambda lines: ["1,2,1.5" if line.startswith("1,2,") else line for line in lines],
    )


_COUPLING_CORRUPTIONS = {
    "asymmetric": _asymmetric,
    "missing-pair": lambda out: _edit_lines(os.path.join(out, "couplings.csv"), lambda ls: ls[:-1]),
    "jbar": lambda out: _edit_json(
        os.path.join(out, "bond_graph.json"), lambda doc: doc.update(jbar=1.01 * doc["jbar"])
    ),
    "edge-order": lambda out: _edit_json(
        os.path.join(out, "bond_graph.json"), lambda doc: doc["edges"].reverse()
    ),
}


@pytest.mark.parametrize("corrupt", list(_COUPLING_CORRUPTIONS), ids=list(_COUPLING_CORRUPTIONS))
def test_check_flags_corrupted_couplings(tmp_path, capsys, corrupt):
    out = str(tmp_path)
    assert run("couplings", "--n", "5", "--mu-tilde", "3.4", "--out", out) == 0
    assert capsys.readouterr().out == ""
    assert run("check", "--out", out) == 0
    assert "reflection-symmetric" in capsys.readouterr().out
    _COUPLING_CORRUPTIONS[corrupt](out)
    assert run("check", "--out", out) == 3
    assert "CheckFailure" in capsys.readouterr().err


def test_check_flag_verifies_only_the_files_written(tmp_path, capsys):
    out = str(tmp_path)
    assert run("couplings", "--n", "5", "--mu-tilde", "3.4", "--out", out) == 0
    _asymmetric(out)
    assert run("modes", "--n", "5", "--out", out) == 0
    assert capsys.readouterr().out == ""
    assert run("check", "--out", out) == 3
    assert "couplings.csv" in capsys.readouterr().err


def test_check_flags_transition_disagreeing_with_its_subinterval(tmp_path, capsys):
    out = str(tmp_path)
    assert run("phase-table", "--n", "3", "--samples", "16", "--out", out) == 0

    def relabel(doc):
        (t,) = [t for iv in doc["table"]["intervals"] for t in iv["transitions"]]
        t["left_order"] = t["right_order"]

    _edit_json(os.path.join(out, "phase_table.json"), relabel)
    assert run("check", "--out", out) == 3
    err = capsys.readouterr().err
    assert "CheckFailure" in err and "does not join the orders of its subintervals" in err


def _cut_to_first_interval(doc):
    doc["table"]["intervals"] = doc["table"]["intervals"][:1]
    doc["transition_count"] = len(doc["table"]["intervals"][0]["transitions"])


@pytest.mark.parametrize(
    "edit, message",
    [
        (_cut_to_first_interval, "intervals are not (1,2) ... (N-1,N)"),
        (lambda doc: doc.update(transition_count=99), "transition_count 99 for"),
    ],
    ids=["missing-intervals", "transition-count"],
)
def test_check_flags_phase_table_structure(tmp_path, capsys, edit, message):
    out = str(tmp_path)
    assert run("phase-table", "--n", "5", "--samples", "16", "--out", out) == 0
    _edit_json(os.path.join(out, "phase_table.json"), edit)
    assert run("check", "--out", out) == 3
    err = capsys.readouterr().err
    assert "CheckFailure" in err and message in err


def test_check_flags_alpha_fit_disagreeing_with_gap_table(tmp_path, capsys):
    out = str(tmp_path)
    assert run("gap", "--n-list", "3,5", "--samples", "5", "--out", out) == 0
    path = os.path.join(out, "alpha_fit.json")
    with open(path) as fh:
        written = fh.read()
    alphas = json.loads(written)["alphas"]
    _, _, rows = read_csv(os.path.join(out, "gap_scaling.csv"))
    n3_field = float(rows[rows[:, 0] == 3, 1][0])
    for edit, message in (
        # N = 11, which the table lacks, for N = 3 and 5
        (lambda doc: doc.update(alphas=[dict(alphas[0], n_ions=11)]), "not one for each N"),
        (lambda doc: doc.update(alphas=[alphas[0]]), "not one for each N"),  # N = 5 has no entry
        (lambda doc: doc.update(alphas=[alphas[0], alphas[1], alphas[1]]), "not one for each N"),
        (lambda doc: doc["alphas"][0].update(alpha=99.0), "alpha or residual is not the fit"),
        (lambda doc: doc["alphas"][1].update(residual=alphas[1]["residual"] + 1e-3), "not the fit"),
        (lambda doc: doc["alphas"][0].update(skipped=[n3_field]), "skips a field"),
        (lambda doc: doc["fit"].update(slope=-7.0), "fit is not the line"),
        (lambda doc: doc.pop("fit"), "fit is not the line"),
    ):
        with open(path, "w") as fh:
            fh.write(written)
        _edit_json(path, edit)
        assert run("check", "--out", out) == 3
        err = capsys.readouterr().err
        assert "CheckFailure" in err and message in err
    # a fit repeated on another numpy or LAPACK build may differ in its last bits
    with open(path, "w") as fh:
        fh.write(written)
    _edit_json(path, lambda doc: doc["alphas"][0].update(alpha=alphas[0]["alpha"] * (1 + 1e-14)))
    _edit_json(path, lambda doc: doc["fit"].update(slope=doc["fit"]["slope"] * (1 - 1e-14)))
    assert run("check", "--out", out) == 0


SCAN2D_HEADER = "mu_tilde,B_over_Jbar,order_parameter,polarization,E0,E1\n"


def _phase_table_text(order, degeneracy):
    """An N = 3 ``phase_table.json`` with one transition in (1,2) and ``order`` across (2,3)."""

    def sub(lo, hi, o, g):
        return {"lo": lo, "hi": hi, "order": o, "degeneracy": g}

    change = {"mu_tilde": 1.5, "uncertainty": 5e-7, "left_order": "000", "right_order": "001"}
    intervals = [
        {
            "lower_mode": 1,
            "subintervals": [sub(1.0, 1.5, "000", 2), sub(1.5, 2.0, "001", 4)],
            "transitions": [dict(change, exact_crossing=False)],
        },
        {"lower_mode": 2, "subintervals": [sub(2.0, 3.0, order, degeneracy)], "transitions": []},
    ]
    table = {"n_ions": 3, "beta": 10.0, "samples_per_interval": 16, "refine_tol": 1e-6}
    return json.dumps({"table": dict(table, intervals=intervals), "transition_count": 1})


def _doubled_positions_text():
    """The ``modes --n 5`` positions, each doubled: ascending and odd-symmetric, off equilibrium."""
    u = 2.0 * equilibrium_positions(TrapConfig(n_ions=5)).positions
    return "n,u\n" + "".join(f"{n},{x!r}\n" for n, x in enumerate(u.tolist(), 1))


def _scan2d_files(failures):
    """A 3 x 2 ``scan2d.csv`` whose mu~ = 4 rows (i = 1) are unsolved, and ``failures`` as its log."""
    csv = SCAN2D_HEADER + "".join(
        f"{mu},{b},{'nan,nan,nan,nan' if mu == 4 else '1,0,-1,0'}\n"
        for mu in (3.5, 4, 4.5)
        for b in (0, 1)
    )
    log = [[i, l, "ResonanceError: on a mode"] for i, l in failures]
    return {"scan2d.csv": csv, "scan2d.json": json.dumps({"failures": log})}


def _coupling_files(scale):
    """The files ``couplings --n 5 --mu-tilde 3.4`` writes, with every j, |j| and Jbar times ``scale``."""
    coupling = CouplingMatrix.from_matrix(scale * coupling_from_trap(5, 10.0, 3.4).j)
    m, p = np.triu_indices(5, 1)
    rows = "".join(f"{a + 1},{b + 1},{x!r}\n" for a, b, x in zip(m, p, coupling.j[m, p].tolist()))
    doc = {"jbar": coupling.jbar, "edges": [asdict(e) for e in bond_graph(coupling)]}
    csv = "# beta=10.0\n# mu_tilde=3.4\n# n=5\nm,n,j\n" + rows
    return {"couplings.csv": csv, "bond_graph.json": json.dumps(doc)}


def _bond_graph_files(edit=lambda edges: None):
    """N = 3 couplings and their bond graph, ``edit`` applied to its edges."""
    edges = [
        {"m": 1, "n": 2, "weight": 0.5, "sign": "FM", "j": -0.5},
        {"m": 2, "n": 3, "weight": 0.5, "sign": "FM", "j": -0.5},
        {"m": 1, "n": 3, "weight": 0.25, "sign": "AFM", "j": 0.25},
    ]
    edit(edges)
    doc = {"jbar": math.sqrt(1.125 / 6), "edges": edges}
    csv = "m,n,j\n1,2,-0.5\n1,3,0.25\n2,3,-0.5\n"
    return {"couplings.csv": csv, "bond_graph.json": json.dumps(doc)}


def test_check_accepts_the_unedited_companions(tmp_path):
    for name, text in {**_scan2d_files([(1, 0), (1, 1)]), **_bond_graph_files()}.items():
        (tmp_path / name).write_text(text)
    assert run("check", "--out", str(tmp_path)) == 0


def test_check_reproduces_couplings_from_their_header(tmp_path, capsys):
    for name, text in _coupling_files(1.0).items():
        (tmp_path / name).write_text(text)
    assert run("check", "--out", str(tmp_path)) == 0
    assert "couplings.csv: reproduced from its header" in capsys.readouterr().out


@pytest.mark.parametrize(
    "name, text",
    [
        ("phase_table.json", "{}\n"),  # KeyError
        ("positions.csv", "n,u\n1\n"),  # IndexError
        ("positions.csv", "# n_ions=2\n"),  # no column line
        ("phase_table.json", "not json\n"),  # JSONDecodeError
        ("phase_table.json", "[]\n"),  # AttributeError
        ("phase_table.json", '{"table": 5}\n'),  # TypeError
        ("scan2d.csv", SCAN2D_HEADER + "3.1,0,0.5\n"),  # too few values per row
        ("scan2d.csv", SCAN2D_HEADER + "3.1,0,x,0,-1,0\n"),  # not a number
        # otherwise valid files whose every row holds one value too many
        ("positions.csv", "n,u\n1,-1,0\n2,1,0\n"),
        ("couplings.csv", "m,n,j\n1,2,0.5,0\n"),
        ("scan2d.csv", SCAN2D_HEADER + "3.1,0,0.5,0.5,-1,0,7\n"),
        ("gap_scaling.csv", "N,B_over_NJbar,delta_E,mu_star\n5,0.01,0.1,3.5,0\n"),
        ("couplings.csv", "m,n,j\n1.5,2,0.5\n"),  # an ion label that is no integer
        # well-formed files that break an invariant: labels 1 ... N, B > 0, N-2 < mu_star < N-1
        ("positions.csv", "n,u\n7,-1\n7,1\n"),
        ("modes.csv", "k,omega,b_1,b_2\n9,0.5,1,0\n9,1,0,1\n"),
        ("gap_scaling.csv", "N,B_over_NJbar,delta_E,mu_star\n5,-0.01,0.1,3.5\n"),
        ("gap_scaling.csv", "N,B_over_NJbar,delta_E,mu_star\n5,0.01,0.1,42\n"),
        # each order canonical, each degeneracy its orbit size
        ("phase_table.json", _phase_table_text("000", 3)),
        ("phase_table.json", _phase_table_text("111", 2)),  # the global flip of 000
        ("positions.csv", _doubled_positions_text()),  # no longer an equilibrium
        # 3 x 2 distinct values in 6 rows, but the (1.5, 0.3) row is a copy of the (1.2, 0) row
        ("scan2d.csv", SCAN2D_HEADER + "".join(
            f"{mu},{b},1,0,-1,0\n" for mu in (1.2, 1.5, 1.8) for b in (0, 0.3)
        ).replace("1.5,0.3,", "1.2,0,")),
        # a failure log that is not the unsolved rows (1, 0) and (1, 1), once each
        ("scan2d.json", _scan2d_files([(1, 0)])),
        ("scan2d.json", _scan2d_files([(1, 0), (1, 1), (2, 1)])),
        ("scan2d.json", _scan2d_files([(1, 0), (1, 1), (1, 1)])),
        ("scan2d.json", _scan2d_files([(1, 0), (0, 3)])),  # row 0*2 + 3 is (1, 1)
        # an edge that is not its couplings.csv pair
        ("bond_graph.json", _bond_graph_files(lambda edges: edges[2].update(j=-0.25, sign="FM"))),
        ("bond_graph.json", _bond_graph_files(lambda edges: edges[1].update(m=1, n=3))),
        # ties in |j| out of (m, n) order
        ("bond_graph.json", _bond_graph_files(lambda edges: edges.insert(0, edges.pop(1)))),
        ("phase_table.json", _phase_table_text("100", 4)),  # the reflection of 001
        ("phase_table.json", _phase_table_text("010", 4)),  # a palindrome: orbit size 2
        # couplings and bond graph scaled alike: not the chain the header names
        ("couplings.csv", _coupling_files(1.5)),
    ],
    ids=[
        "missing-key", "short-row", "no-column-line", "not-json", "json-list", "wrong-type", "scan2d-short-row",
        "scan2d-not-a-number", "positions-long-row", "couplings-long-row", "scan2d-long-row",
        "gap-long-row", "couplings-fractional-label", "positions-labels", "modes-labels",
        "gap-non-positive-field", "gap-mu-star-outside", "phase-table-degeneracy",
        "phase-table-flipped-order", "positions-off-equilibrium", "scan2d-off-the-grid",
        "scan2d-failure-dropped", "scan2d-failure-of-a-solved-row", "scan2d-failure-twice",
        "scan2d-failure-outside-the-grid", "bond-graph-edge-negated", "bond-graph-pair-twice",
        "bond-graph-tie-out-of-order", "phase-table-reflected-order",
        "phase-table-palindrome-degeneracy", "couplings-not-the-header-chain",
    ],
)
def test_check_malformed_artifact_exits_3(tmp_path, capsys, name, text):
    # a dict holds the artifact and its companion files
    for path, content in (text if isinstance(text, dict) else {name: text}).items():
        (tmp_path / path).write_text(content)
    assert run("check", "--out", str(tmp_path)) == 3
    err = capsys.readouterr().err
    assert "CheckFailure" in err and name in err


def test_gap_without_fm_kink_transition_exits_3(tmp_path, capsys, without_fm_kink_transition):
    assert run("gap", "--n", "5", "--out", str(tmp_path)) == 3
    assert "TransitionLost" in capsys.readouterr().err
