"""Command-line interface tests: files, headers, exit codes, reproducibility."""

import filecmp
import json
import math
import os

import pytest

from ionspins import spins
from ionspins.cli import main
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
    assert run("modes", "--n", "7", "--out", out, "--check") == 0
    printed = capsys.readouterr().out
    assert "orthonormal" in printed
    _, cols, rows = read_csv(os.path.join(out, "modes.csv"))
    assert len(rows) == 7


def test_modes_unstable_chain_exits_3(tmp_path, capsys):
    assert run("modes", "--n", "2", "--beta", "0.9", "--out", str(tmp_path)) == 3
    assert "ZigzagInstability" in capsys.readouterr().err
    assert not os.path.exists(os.path.join(str(tmp_path), "modes.csv"))


@pytest.mark.parametrize("tol", ["inf", "nan"])
def test_modes_non_finite_tol_exits_2(tmp_path, capsys, tol):
    # inf would accept the starting guess as the equilibrium, nan would end in a Newton stall
    assert run("modes", "--n", "5", "--tol", tol, "--out", str(tmp_path)) == 2
    assert "finite and positive" in capsys.readouterr().err
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
    top3 = {(e["m"], e["n"]): e["sign"] for e in doc["edges"][:3]}
    assert top3.get((1, 7)) == "AFM"
    assert len(doc["edges"]) == 21
    assert doc["jbar"] > 0


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
    assert len(rows) == 15
    assert os.path.exists(os.path.join(out, "scan2d.json"))
    assert run("check", "--out", out) == 0


def test_scan2d_csv_only_format(tmp_path):
    out = str(tmp_path)
    assert (
        run(
            "scan2d",
            "--n",
            "3",
            "--mu-range",
            "1.2:1.8",
            "--b-range",
            "0:0.3",
            "--samples",
            "3x2",
            "--format",
            "csv",
            "--out",
            out,
        )
        == 0
    )
    assert not os.path.exists(os.path.join(out, "scan2d.json"))


def test_scan2d_requires_ranges(tmp_path):
    assert run("scan2d", "--n", "5", "--out", str(tmp_path)) == 2
    assert run("scan2d", "--n", "5", "--mu-range", "oops", "--b-range", "0:1", "--out", str(tmp_path)) == 2


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


def test_gap_empty_n_list_exits_2(tmp_path):
    assert run("gap", "--n-list", ",", "--out", str(tmp_path)) == 2
    assert not os.path.exists(os.path.join(str(tmp_path), "gap_scaling.csv"))


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
        assert json.load(fh)["n_ions"] == 5
    out2 = tmp_path / "b"
    assert (
        run("couplings", "--config", str(cfg), "--n", "3", "--mu-tilde", "1.5", "--out", str(out2))
        == 0
    )
    with open(out2 / "bond_graph.json") as fh:
        assert json.load(fh)["n_ions"] == 3


@pytest.mark.parametrize("word, code", [("on", 2), ("maybe", 2), ("Yes", 0), ("no", 0)])
def test_config_check_accepts_only_switch_words(tmp_path, word, code):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"n=3\ncheck={word}\n")
    out = tmp_path / "out"
    assert run("modes", "--config", str(cfg), "--out", str(out)) == code
    if code:
        assert not out.exists()
    else:
        config, _, _ = read_csv(str(out / "modes.csv"))
        assert config["check"] == str(word.lower() == "yes")


def test_scan2d_past_the_eigensolve_budget_exits_2(tmp_path, capsys, monkeypatch):
    def no_operator(coupling):
        raise AssertionError("a spin operator was built for N = 41")

    monkeypatch.setattr(spins, "_SpinOperator", no_operator)
    argv = ("scan2d", "--n", "41", "--beta", "100", "--mu-range", "39.2:39.4", "--b-range", "0:1")
    assert run(*argv, "--samples", "1x1", "--out", str(tmp_path)) == 2
    assert "N <= 24" in capsys.readouterr().err
    assert not os.listdir(tmp_path)


def test_config_file_rejects_unknown_keys(tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("unknown_key=1\n")
    assert run("modes", "--config", str(cfg), "--out", str(tmp_path)) == 2


def test_header_carries_resolved_config(tmp_path):
    out = str(tmp_path)
    assert run("modes", "--n", "4", "--beta", "12.5", "--out", out) == 0
    config, _, _ = read_csv(os.path.join(out, "positions.csv"))
    assert config["n"] == "4"
    assert config["beta"] == "12.5"
    assert config["command"] == "modes"
    assert config["tol"] == "1e-12"
    assert "format" not in config


@pytest.mark.parametrize(
    "argv",
    [
        ("modes", "--n", "3", "--mu-tilde", "1.5"),
        ("couplings", "--n", "3", "--mu-tilde", "1.5", "--samples", "16"),
        ("phase-table", "--n", "3", "--format", "csv"),
        ("scan2d", "--n", "3", "--mu-range", "1.2:1.8", "--b-range", "0:0.3", "--tol", "1e-9"),
        ("gap", "--n", "3", "--format", "csv"),
        ("check", "--n", "3"),
        ("check", "--check"),
    ],
    ids=[
        "modes --mu-tilde",
        "couplings --samples",
        "phase-table --format",
        "scan2d --tol",
        "gap --format",
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
    cfg.write_text("n=3\nformat=csv\n")
    out = tmp_path / "out"
    assert run("modes", "--config", str(cfg), "--out", str(out)) == 2
    err = capsys.readouterr().err
    assert "'format'" in err and "modes" in err
    assert not out.exists()


def test_scan2d_header_carries_format(tmp_path):
    out = str(tmp_path)
    argv = ("scan2d", "--n", "3", "--mu-range", "1.2:1.8", "--b-range", "0:0.3", "--samples", "3x2")
    assert run(*argv, "--format", "csv", "--out", out) == 0
    config, _, _ = read_csv(os.path.join(out, "scan2d.csv"))
    assert config["format"] == "csv"
    assert "tol" not in config and "threads" not in config


def test_scan2d_rejects_threads(tmp_path):
    argv = ("scan2d", "--n", "3", "--mu-range", "1.2:1.8", "--b-range", "0:0.3", "--samples", "3x2")
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--threads", "2", "--out", str(tmp_path / "flag")])
    assert exc.value.code == 2
    cfg = tmp_path / "run.cfg"
    cfg.write_text("threads=2\n")
    assert run(*argv, "--config", str(cfg), "--out", str(tmp_path / "key")) == 2
    assert os.listdir(tmp_path) == ["run.cfg"]


@pytest.mark.parametrize("tol", ["0", "-1"])
def test_phase_table_non_positive_tol_exits_2(tmp_path, tol):
    assert run("phase-table", "--n", "5", "--samples", "16", f"--tol={tol}", "--out", str(tmp_path)) == 2
    assert not os.path.exists(os.path.join(str(tmp_path), "phase_table.json"))


def test_phase_table_unreachable_tol_exits_2(tmp_path):
    assert run("phase-table", "--n", "5", "--samples", "16", "--tol", "1e-17", "--out", str(tmp_path)) == 2
    assert not os.path.exists(os.path.join(str(tmp_path), "phase_table.json"))


def test_phase_table_tol_inside_tie_window_exits_3(tmp_path, capsys):
    # above the float floor, but a bracket that narrow falls inside an exact crossing's tie window
    assert run("phase-table", "--n", "5", "--samples", "16", "--tol", "1e-11", "--out", str(tmp_path)) == 3
    assert "AmbiguousGround" in capsys.readouterr().err
    assert not os.path.exists(os.path.join(str(tmp_path), "phase_table.json"))


def test_scan2d_json_format_exits_2(tmp_path):
    argv = ("scan2d", "--n", "3", "--mu-range", "1.2:1.8", "--b-range", "0:0.3", "--samples", "3x2")
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--format", "json", "--out", str(tmp_path / "flag")])
    assert exc.value.code == 2
    cfg = tmp_path / "run.cfg"
    cfg.write_text("format=json\n")
    assert run(*argv, "--config", str(cfg), "--out", str(tmp_path / "key")) == 2
    assert os.listdir(tmp_path) == ["run.cfg"]


@pytest.mark.parametrize(
    "size",
    [("--samples", "0x3"), ("--samples", "3x0")],
    ids=["samples", "fields"],
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
    assert run(*argv, "--format", "csv", "--out", out, "--check") == 0
    _edit_lines(os.path.join(out, "scan2d.csv"), lambda ls: ls[:-1] + [_lower_e1(ls[-1])])
    assert run("check", "--out", out) == 3
    err = capsys.readouterr().err
    assert "CheckFailure" in err and "E0 above E1" in err


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
    assert run("couplings", "--n", "5", "--mu-tilde", "3.4", "--out", out, "--check") == 0
    assert "reflection-symmetric" in capsys.readouterr().out
    _COUPLING_CORRUPTIONS[corrupt](out)
    assert run("check", "--out", out) == 3
    assert "CheckFailure" in capsys.readouterr().err


def test_check_flag_verifies_only_the_files_written(tmp_path, capsys):
    out = str(tmp_path)
    assert run("couplings", "--n", "5", "--mu-tilde", "3.4", "--out", out) == 0
    _asymmetric(out)
    assert run("modes", "--n", "5", "--out", out, "--check") == 0
    printed = capsys.readouterr().out
    assert "modes.csv" in printed and "couplings.csv" not in printed
    assert run("check", "--out", out) == 3


@pytest.mark.parametrize(
    "name, text",
    [
        ("phase_table.json", "{}\n"),  # KeyError
        ("positions.csv", "n,u\n1\n"),  # IndexError
        ("phase_table.json", "not json\n"),  # JSONDecodeError
        ("phase_table.json", "[]\n"),  # AttributeError
        ("phase_table.json", '{"table": 5}\n'),  # TypeError
    ],
    ids=["missing-key", "short-row", "not-json", "json-list", "wrong-type"],
)
def test_check_malformed_artifact_exits_3(tmp_path, capsys, name, text):
    (tmp_path / name).write_text(text)
    assert run("check", "--out", str(tmp_path)) == 3
    err = capsys.readouterr().err
    assert "CheckFailure" in err and name in err


def test_gap_without_fm_kink_transition_exits_3(tmp_path, capsys, without_fm_kink_transition):
    assert run("gap", "--n", "5", "--out", str(tmp_path)) == 3
    assert "TransitionLost" in capsys.readouterr().err
