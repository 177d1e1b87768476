"""Command line interface: CSV shape, frozen small spectra, determinism,
and exit codes."""

import argparse
import math
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from scipy.linalg import eigvalsh_tridiagonal

import qdimer
from qdimer import build_dimer, cli, eigenvalues_bisection
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


@pytest.mark.parametrize("argv", [
    ["spectrum", "--model", "al", "--two-j", "1200", "--gamma", "9"],
    ["sweep", "--two-j", "4", "--gamma-min", "1e308", "--gamma-max", "1.7e308", "--steps", "3"],
    ["verify", "--suite", "algebra", "--m-max", "2000"],
    ["verify", "--suite", "conservation", "--m-max", "445"],
    ["quanta-scan", "--model", "al", "--gamma", "30", "--two-j-max", "900", "--levels", "1"],
    ["quanta-scan", "--epsilon", "0.5"],
    ["sweep", "--model", "al", "--two-j", "3", "--scale", "linear", "--gamma-min", "-1"],
    ["spectrum", "--two-j", "4", "--gamma", "2", "--tol", "1e-9"],
    ["spectrum", "--two-j", "4", "--gamma", "8e307"],
])
def test_refusals_are_usage_errors(capsys, argv):
    # the library's refusals too: exit 2, one error line, no traceback or warning
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(SystemExit) as exc:
            main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert len([ln for ln in err.splitlines() if "error:" in ln]) == 1, err
    assert "Traceback" not in err and "Warning" not in err
    assert not caught, [str(w.message) for w in caught]


@pytest.mark.parametrize("argv,message", [
    (["sweep", "--two-j", "4", "--tol", "0"], "argument --tol: must be positive and finite"),
    (["gaps", "--two-j", "4", "--tol", "-1"], "argument --tol: must be positive and finite"),
    (["quanta-scan", "--tol", "-0.5"], "argument --tol: must be positive and finite"),
    (["spectrum", "--gamma", "2", "--two-j", "-1"], "argument --two-j: must be >= 0"),
    (["sweep", "--two-j", "-1"], "argument --two-j: must be >= 0"),
    (["spectrum", "--two-j", "2", "--gamma", "nan"], "argument --gamma: must be finite"),
    (["sweep", "--two-j", "2", "--gamma-max", "inf"], "argument --gamma-max: must be finite"),
    (["verify", "--suite", "spectral", "--two-j-max", "0"],
     "argument --two-j-max: must be >= 1"),
    (["verify", "--suite", "algebra", "--m-max", "-1"], "argument --m-max: must be >= 0"),
    (["verify", "--suite", "spectral", "--cases", "0"], "argument --cases: must be >= 1"),
    (["verify", "--suite", "spectral", "--cases", "-5"], "argument --cases: must be >= 1"),
])
def test_bad_values_are_usage_errors(capsys, argv, message):
    # refused by the parser with one error line, before any solve
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    errors = [ln for ln in capsys.readouterr().err.splitlines() if "error:" in ln]
    assert len(errors) == 1 and errors[0].endswith(f"error: {message}, got {argv[-1]}")


def test_spectrum_rejects_loose_tol(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["spectrum", "--two-j", "4", "--gamma", "2", "--tol", "1e-9"])
    assert exc.value.code == 2
    assert "tol must be in (0, 1e-10] for eigenvectors, got 1e-09" in capsys.readouterr().err
    rc, out = run(capsys, ["spectrum", "--two-j", "4", "--gamma", "2", "--tol", "1e-10"])
    assert rc == 0 and "tol=1e-10" in out
    for argv in (["sweep", "--two-j", "4", "--steps", "3"],
                 ["gaps", "--two-j", "4", "--steps", "3"],
                 ["quanta-scan", "--two-j-max", "4"]):
        rc, out = run(capsys, argv + ["--tol", "1e-3"])
        assert rc == 0 and "tol=0.001" in out


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


def test_verify_self_test_fail(capsys, monkeypatch):
    suite = cli.conservation_suite

    def failing(*args):
        rep = suite(*args)
        rep.add("forced_failure", 1.0, 0.0)
        return rep

    monkeypatch.setattr(cli, "conservation_suite", failing)
    rc, out = run(capsys, ["verify", "--suite", "conservation", "--m-max", "2"])
    assert rc == 1
    assert any(ln.startswith("FAIL conservation.") and ".forced_failure " in ln
               for ln in out.splitlines())


def test_verify_algebra_suite(capsys):
    rc, out = run(capsys, ["verify", "--suite", "algebra", "--m-max", "3"])
    assert rc == 0
    assert all(ln.startswith("PASS") for ln in out.splitlines())


def test_verify_runs_each_suq_relation_once(capsys):
    # the su_q(n) Chevalley and Serre relations are printed once, by the
    # algebra suite at the conservation suite's couplings, with the
    # residual the check returns; the conservation suite prints none
    rc, out = run(capsys, ["verify", "--suite", "all", "--m-max", "3", "--cases", "5"])
    assert rc == 0
    values = {}
    for ln in out.splitlines():
        word, name, value, tol = ln.split()
        assert name not in values, name
        values[name] = value
    relations = sorted(name for name in values if ".suq" in name)
    expect = []
    for gamma in (0.5, 2.0, 8.0):
        for n_sites in (2, 3):
            gens = qdimer.suq_n_generators(qdimer.build_sector_basis(n_sites, 3),
                                           qdimer.q_from_gamma(gamma).q)
            reports = [("chevalley", qdimer.verify_chevalley(gens))]
            reports += [("serre", qdimer.verify_serre(gens))] if n_sites == 3 else []
            for kind, rep in reports:
                name = f"algebra.{kind}.suq{n_sites}.M3.g{gamma:g}"
                expect.append(name)
                assert values[name] == f"value={rep.max_residual:.3e}", name
    assert relations == sorted(expect)
    labels = {name.rsplit(".", 1)[1] for name in values if name.startswith("conservation.")}
    assert labels == {"dnls_c2", "dnls_c4", "dnls_total_number", "al_cq", "al_total_number"}


def test_verify_suite_wall_times_on_stderr(capsys, tmp_path):
    argv = ["verify", "--suite", "all", "--m-max", "2", "--cases", "5"]
    assert main(argv) == 0
    captured = capsys.readouterr()
    suites = []
    for ln in captured.err.splitlines():
        suite, wall = ln.removeprefix("# ").split()
        suites.append(suite.removeprefix("suite="))
        assert float(wall.removeprefix("wall_s=")) >= 0.0
    assert suites == ["algebra", "spectral", "conservation"]
    assert not any(ln.startswith("#") for ln in captured.out.splitlines())
    path = tmp_path / "verify.txt"
    assert main(argv + ["--out", str(path)]) == 0
    assert path.read_text() == captured.out
    assert capsys.readouterr().err.count("# suite=") == 3


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


@pytest.mark.parametrize("argv, nan_rows", [
    # ln_gamma is -inf at gamma 0: the slope at 0.5 once read -0
    (["--scale", "linear", "--gamma-min", "0", "--gamma-max", "2", "--steps", "5",
      "--two-j", "4"], [0, 1, 4]),
    # the pair collapses from gamma 1.825 on: its slope there once read -inf
    (["--two-j", "20", "--gamma-min", "1.5", "--gamma-max", "4", "--steps", "6"],
     [0, 1, 2, 3, 4, 5]),
])
def test_gaps_slopes_next_to_a_non_finite_log(capsys, argv, nan_rows):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc, out = run(capsys, ["gaps", "--pairs", "1", *argv])
    assert rc == 0
    _, rows = parse_rows(out)
    assert [i for i, r in enumerate(rows) if r[4] == "nan"] == nan_rows
    steepest = out.splitlines()[-1]
    ln_g = [float(r[1]) for r in rows]
    ln_gap = [float(r[3]) for r in rows]
    # steepest_change names a point whose whole stencil is finite, or nan
    g = steepest.split("gamma=")[1]
    if g != "nan":
        i = [r[0] for r in rows].index(g)
        assert all(map(math.isfinite, ln_g[i - 1 : i + 2] + ln_gap[i - 1 : i + 2]))


def _lapack_levels(model, two_j, gamma):
    H = build_dimer(model, two_j, gamma)
    return np.sort(H.to_physical(eigvalsh_tridiagonal(H.diag, H.off)))


def test_gaps_ground_pair_digits(capsys):
    # the ground-pair gap (3e-5 among levels near 50 at gamma 10) keeps the
    # digits float64 gives it at the default --tol
    _, out = run(capsys, ["gaps", "--model", "dnls", "--two-j", "6", "--pairs", "3",
                          "--gamma-min", "2", "--gamma-max", "10", "--steps", "9"])
    header, rows = parse_rows(out)
    table = np.array(rows, dtype=float)
    levels = np.array([_lapack_levels("dnls", 6, g) for g in table[:, 0]])
    np.testing.assert_allclose(table[:, header.index("gap_1")], levels[:, 1] - levels[:, 0],
                               rtol=1e-9, atol=0)


@pytest.mark.parametrize("model,two_j,pairs", [("dnls", 6, 3), ("al", 7, 4)])
def test_gaps_values_match_lapack(capsys, monkeypatch, model, two_j, pairs):
    argv = ["gaps", "--model", model, "--two-j", str(two_j), "--pairs", str(pairs),
            "--gamma-min", "2", "--gamma-max", "10", "--steps", "9"]
    _, out = run(capsys, argv)
    # The table arithmetic is compared on the LAPACK spectrum itself: a gap of
    # 3e-5 among levels of size 50 (dnls, gamma 10) resolves only to about
    # 4e-10 relative in float64, whichever solver computes it.
    # full spectra, whatever top the command passes
    monkeypatch.setattr(cli, "eigenvalues_batch", lambda Hs, tol, top=None:
                        [eigvalsh_tridiagonal(H.diag, H.off) for H in Hs])
    _, lapack_out = run(capsys, argv)
    assert parse_rows(lapack_out)[0] == parse_rows(out)[0]

    table = np.array([[float(c) for c in r] for r in parse_rows(lapack_out)[1]])
    grid = table[:, 0]
    levels = np.array([_lapack_levels(model, two_j, g) for g in grid])
    x = np.log(grid)
    assert np.array_equal(table[:, 1], x)
    steepest = [ln for ln in lapack_out.splitlines() if ln.startswith("# steepest_change")]
    for k in range(pairs):
        gap = levels[:, 2 * k + 1] - levels[:, 2 * k]
        y = np.log(gap)
        slope = [(y[i + 1] - y[i - 1]) / (x[i + 1] - x[i - 1]) for i in range(1, grid.size - 1)]
        cols = table[:, 2 + 3 * k: 5 + 3 * k]
        np.testing.assert_allclose(cols[:, 0], gap, rtol=1e-10, atol=0)
        np.testing.assert_allclose(cols[:, 1], y, rtol=1e-10, atol=0)
        np.testing.assert_allclose(cols[1:-1, 2], slope, rtol=1e-10, atol=0)
        assert np.isnan(cols[0, 2]) and np.isnan(cols[-1, 2])
        d2 = [2.0 * ((y[i + 1] - y[i]) / (x[i + 1] - x[i]) - (y[i] - y[i - 1]) / (x[i] - x[i - 1]))
              / (x[i + 1] - x[i - 1]) for i in range(1, grid.size - 1)]
        best = 1 + int(np.argmax(np.abs(d2)))
        pair, gamma = steepest[k].removeprefix("# steepest_change ").split()
        assert pair == f"pair={k + 1}" and float(gamma.removeprefix("gamma=")) == grid[best]

    # the bisection table agrees with LAPACK's within the criterion-1 bound
    table = np.array([[float(c) for c in r] for r in parse_rows(out)[1]])
    scale = np.max(np.abs(levels))
    assert np.max(np.abs(table[:, 2::3] - (levels[:, 1:2 * pairs:2] - levels[:, :2 * pairs:2]))) \
        <= 1e-10 * scale


@pytest.mark.parametrize("argv", [
    ["sweep", "--model", "dnls", "--two-j", "40"],
    ["sweep", "--model", "al", "--two-j", "41"],
    ["gaps", "--model", "dnls", "--two-j", "40"],
    ["gaps", "--model", "al", "--two-j", "41"],
])
def test_batched_levels_match_per_matrix(capsys, monkeypatch, argv):
    # one stacked bisection over the grid, of only the levels gaps prints,
    # prints what one full bisection per gamma prints
    argv = argv + ["--gamma-min", "0.5", "--gamma-max", "10", "--steps", "9"]
    _, out = run(capsys, argv)
    monkeypatch.setattr(cli, "eigenvalues_batch", lambda Hs, tol, top=None:
                        [eigenvalues_bisection(H, tol) for H in Hs])
    _, single = run(capsys, argv)
    assert out == single


@pytest.mark.parametrize("argv,model,gamma", [
    (["quanta-scan"], "al", 2.0),
    (["quanta-scan", "--model", "dnls", "--two-j-max", "9", "--levels", "6", "--gamma", "3"],
     "dnls", 3.0),
])
def test_quanta_scan_levels_match_lapack(capsys, argv, model, gamma):
    rc, out = run(capsys, argv)
    assert rc == 0
    header, rows = parse_rows(out)
    n_levels = len(header) - 2
    assert [int(r[0]) for r in rows] == list(range(1, len(rows) + 1))
    for r in rows:
        two_j, dim = int(r[0]), int(r[1])
        ref = _lapack_levels(model, two_j, gamma)[:n_levels]
        assert dim == two_j + 1
        got = np.array([float(c) for c in r[2:]])
        np.testing.assert_allclose(got[:ref.size], ref, rtol=1e-10, atol=0)
        assert np.all(np.isnan(got[ref.size:]))


@pytest.mark.parametrize("argv,keys", [
    (["spectrum", "--two-j", "3", "--gamma", "2"],
     "command model two_j gamma epsilon tol energy_scale energy_shift version"),
    (["sweep", "--two-j", "3", "--steps", "3"],
     "command model two_j gamma_min gamma_max steps scale epsilon tol version"),
    (["gaps", "--two-j", "3", "--steps", "3"],
     "command model two_j pairs gamma_min gamma_max steps scale epsilon tol version"),
    (["quanta-scan", "--two-j-max", "2"],
     "command model gamma epsilon two_j_max levels tol version"),
])
def test_echo_key_order(capsys, argv, keys):
    _, out = run(capsys, argv)
    first = out.splitlines()[0]
    assert first.startswith("# ")
    assert [kv.split("=")[0] for kv in first[2:].split(" ")] == keys.split()
    assert f"command={argv[0]} " in first


README = Path(__file__).resolve().parents[1] / "README.md"


def _readme_blocks():
    """The fenced blocks of README.md as (info string, text) pairs."""
    return re.findall(r"^```(\w*)\n(.*?)^```", README.read_text(), re.S | re.M)


def test_readme_examples_run(capsys):
    # every qdimer line of the command block exits 0 with output, and the
    # library quick start runs as written
    lines = [ln for _, text in _readme_blocks() for ln in text.splitlines()
             if ln.startswith("qdimer ")]
    assert len(lines) >= 5
    for line in lines:
        rc, out = run(capsys, line.split()[1:])
        assert rc == 0 and out, line
    (code,) = [text for info, text in _readme_blocks() if info == "python"]
    exec(compile(code, str(README), "exec"), {})
    assert capsys.readouterr().out


def test_import_loads_neither_scipy_nor_mpmath():
    # the command line starts without them: scipy and mpmath are imported
    # where the dense oracle, the sparse matrices and the mp referee use them
    src = str(Path(qdimer.__file__).resolve().parents[1])
    code = "import sys, qdimer.cli; print(sorted({m.split('.')[0] for m in sys.modules}))"
    env = dict(os.environ, PYTHONPATH=src)
    loaded = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                            text=True, check=True).stdout
    assert "'qdimer'" in loaded and "'scipy'" not in loaded and "'mpmath'" not in loaded


def test_one_parser_per_process(capsys, monkeypatch):
    # main builds its argparse tree (one parser and five subcommands) once
    # per process, where it once built all six on every call; the cmd_*
    # functions look the library's names up when they run, so a name
    # patched on cli after an earlier main() still takes effect
    built = []
    init = argparse.ArgumentParser.__init__

    def counted(self, *args, **kwargs):
        built.append(1)
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
    argv = ["sweep", "--two-j", "4", "--steps", "3"]
    _, out = run(capsys, argv)
    assert len(built) in (0, 6)
    built.clear()
    assert run(capsys, argv)[1] == out
    assert built == []
    monkeypatch.setattr(cli, "eigenvalues_batch", lambda Hs, tol, top=None:
                        [np.full(H.dim, 7.0) for H in Hs])
    _, rows = parse_rows(run(capsys, argv)[1])
    assert all(r[3:] == ["7"] * 5 for r in rows) and len(rows) == 3
    assert built == []
