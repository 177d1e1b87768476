"""Command line interface: CSV shape, frozen small spectra, determinism,
and exit codes."""

import math
import warnings

import numpy as np
import pytest

from qdimer.cli import main


def run(capsys, argv):
    rc = main(argv)
    out = capsys.readouterr().out
    return rc, out


def parse_rows(text):
    """Data rows of a CSV dump: skip # comments, split the header off."""
    lines = [ln for ln in text.splitlines() if ln and not ln.startswith("#")]
    header = lines[0].split(",")
    rows = [ln.split(",") for ln in lines[1:]]
    return header, rows


def test_spectrum_al_three_level(capsys):
    rc, out = run(capsys, ["spectrum", "--model", "al", "--two-j", "2", "--gamma", "2"])
    assert rc == 0
    header, rows = parse_rows(out)
    assert header == ["index", "eigenvalue", "norm_constant"]
    evs = np.array([float(r[1]) for r in rows])
    top = math.sqrt(3.0 * math.sqrt(2.0))
    assert np.max(np.abs(evs - np.array([-top, 0.0, top]))) < 1e-10
    assert abs(float(rows[1][2]) - 1.0 / math.sqrt(2.0)) < 1e-10


def test_spectrum_linear_ladder(capsys):
    rc, out = run(capsys, ["spectrum", "--two-j", "2", "--gamma", "0"])
    assert rc == 0
    _, rows = parse_rows(out)
    evs = np.array([float(r[1]) for r in rows])
    assert np.max(np.abs(evs - np.array([-2.0, 0.0, 2.0]))) < 1e-12


def test_spectrum_two_level(capsys):
    rc, out = run(capsys, ["spectrum", "--two-j", "1", "--gamma", "4"])
    assert rc == 0
    _, rows = parse_rows(out)
    evs = np.array([float(r[1]) for r in rows])
    assert np.max(np.abs(evs - np.array([-0.5, 1.5]))) < 1e-12


def test_echo_line(capsys):
    _, out = run(capsys, ["spectrum", "--two-j", "3", "--gamma", "2.5"])
    first = out.splitlines()[0]
    assert first.startswith("# command=spectrum")
    assert "model=dnls" in first
    assert "gamma=2.5" in first
    assert "version=" in first
    # reproducible header: no clocks, hosts, or paths
    assert "time" not in first and "date" not in first


@pytest.mark.parametrize("argv", [
    ["spectrum", "--model", "al", "--two-j", "2", "--gamma", "2"],
    ["spectrum", "--two-j", "12", "--gamma", "8"],
    ["sweep", "--two-j", "4", "--steps", "5"],
    ["sweep", "--model", "al", "--two-j", "6", "--steps", "4", "--scale", "linear"],
    ["gaps", "--two-j", "6", "--gamma-min", "2", "--gamma-max", "10", "--steps", "6"],
    ["quanta-scan", "--two-j-max", "5"],
])
def test_stdout_byte_determinism(capsys, argv):
    rc1, out1 = run(capsys, argv)
    rc2, out2 = run(capsys, argv)
    assert rc1 == rc2 == 0
    assert out1 == out2


def test_file_output_determinism(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    for path in (a, b):
        rc = main(["sweep", "--model", "al", "--two-j", "5", "--steps", "6",
                   "--out", str(path)])
        assert rc == 0
    ba, bb = a.read_bytes(), b.read_bytes()
    assert ba == bb
    assert b"\r" not in ba
    assert ba.endswith(b"\n")


def test_out_file_matches_stdout(capsys, tmp_path):
    argv = ["spectrum", "--two-j", "4", "--gamma", "3"]
    _, out = run(capsys, argv)
    path = tmp_path / "s.csv"
    main(argv + ["--out", str(path)])
    assert path.read_text() == out


@pytest.mark.parametrize("argv", [
    ["spectrum", "--gamma", "2"],
    ["spectrum", "--two-j", "2", "--gamma", "2", "--model", "xxz"],
    ["spectrum", "--model", "al", "--two-j", "2", "--gamma", "2", "--epsilon", "0.5"],
    ["sweep", "--two-j", "2", "--gamma-min", "5", "--gamma-max", "2"],
    ["sweep", "--two-j", "2", "--gamma-min", "0", "--scale", "log"],
    ["sweep", "--two-j", "2", "--steps", "1"],
    ["gaps", "--two-j", "3", "--pairs", "9"],
    ["nosuchcmd"],
])
def test_usage_errors_exit_2(argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2


def test_negative_gamma_rejected():
    with pytest.raises(SystemExit) as exc:
        main(["spectrum", "--model", "al", "--two-j", "2", "--gamma", "-1"])
    assert exc.value.code == 2


def test_verify_conservation_passes(capsys):
    rc, out = run(capsys, ["verify", "--suite", "conservation", "--m-max", "3"])
    assert rc == 0
    lines = out.splitlines()
    assert lines
    for ln in lines:
        word, name, value, tol = ln.split()
        assert word == "PASS"
        assert value.startswith("value=")
        assert tol.startswith("tol=")


def test_verify_self_test_fail(capsys):
    rc, out = run(capsys, ["verify", "--suite", "conservation", "--m-max", "2",
                           "--self-test-fail"])
    assert rc == 1
    assert any(ln.startswith("FAIL self_test.forced_failure") for ln in out.splitlines())


def test_verify_algebra_suite(capsys):
    rc, out = run(capsys, ["verify", "--suite", "algebra", "--m-max", "3"])
    assert rc == 0
    assert all(ln.startswith("PASS") for ln in out.splitlines())


def test_sweep_table_shape(capsys):
    rc, out = run(capsys, ["sweep", "--model", "al", "--two-j", "3",
                           "--gamma-min", "1", "--gamma-max", "4", "--steps", "3"])
    assert rc == 0
    header, rows = parse_rows(out)
    assert header == ["gamma", "energy_scale", "energy_shift", "ev_0", "ev_1", "ev_2", "ev_3"]
    assert len(rows) == 3
    gammas = [float(r[0]) for r in rows]
    assert gammas == sorted(gammas)
    assert abs(gammas[0] - 1.0) < 1e-15 and abs(gammas[-1] - 4.0) < 1e-12
    for r in rows:
        evs = [float(x) for x in r[3:]]
        assert evs == sorted(evs)


def test_gaps_structure(capsys):
    rc, out = run(capsys, ["gaps", "--model", "dnls", "--two-j", "6",
                           "--gamma-min", "2", "--gamma-max", "10",
                           "--steps", "5", "--pairs", "2"])
    assert rc == 0
    lines = out.splitlines()
    header, rows = parse_rows(out)
    assert header == ["gamma", "ln_gamma", "gap_1", "ln_gap_1", "slope_1",
                      "gap_2", "ln_gap_2", "slope_2"]
    assert len(rows) == 5
    # centered-difference slope is undefined at the grid ends
    assert rows[0][4] == "nan" and rows[-1][4] == "nan"
    assert rows[1][4] != "nan"
    gaps = [float(r[2]) for r in rows]
    assert all(g > 0.0 for g in gaps)
    tail = [ln for ln in lines if ln.startswith("# steepest_change")]
    assert len(tail) == 2
    assert "pair=1" in tail[0] and "pair=2" in tail[1]
    for ln in tail:
        assert "gamma=" in ln


def test_quanta_scan_nan_padding(capsys):
    rc, out = run(capsys, ["quanta-scan", "--two-j-max", "4", "--levels", "4"])
    assert rc == 0
    header, rows = parse_rows(out)
    assert header == ["two_j", "dim", "level_1", "level_2", "level_3", "level_4"]
    assert len(rows) == 4
    # sectors smaller than the requested level count pad with nan
    assert rows[0][:2] == ["1", "2"]
    assert rows[0][4] == "nan" and rows[0][5] == "nan"
    assert rows[3][5] != "nan"
    # levels are physical energies in ascending order where defined
    for r in rows:
        vals = [float(x) for x in r[2:] if x != "nan"]
        assert vals == sorted(vals)


def test_gaps_collapsed_pair_no_warnings(capsys):
    # an exactly collapsed pair gives ln_gap = -inf; its nan cells come out
    # without RuntimeWarnings
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        main(["gaps", "--model", "dnls", "--two-j", "40", "--steps", "8",
              "--gamma-min", "2", "--gamma-max", "10"])
    assert ",-inf," in capsys.readouterr().out
