"""Acceptance gate: one test per shipped guarantee, each printing a single
PASS/FAIL line with the measured value against its pinned tolerance.

Criterion 4 carries a known red clause: the minimum eigenvalue gap of the
nonlinear dimer genuinely collapses below 1e-8 at strong coupling (pairs
merge toward degeneracy), so the "all gaps above 1e-8" part fails by honest
measurement while the orthonormality and completeness budgets hold.
"""

import math
import time

import numpy as np

from qdimer import (
    al_oscillator_ops,
    build_dimer,
    build_qal_chain,
    build_qal_dimer,
    build_qdnls_chain,
    build_qdnls_dimer,
    build_sector_basis,
    completeness_check,
    conservation_suite,
    dense_oracle,
    df_orthonormality_check,
    eigenvalues_bisection,
    parity_structure_check,
    q_from_gamma,
    solve_spectrum,
    su_n_generators,
    suq_n_generators,
    verify_al_relations,
    verify_chevalley,
    verify_serre,
)
from qdimer.cli import main


def report(num, ok, detail):
    line = f"{'PASS' if ok else 'FAIL'} criterion_{num}: {detail}"
    print(line)
    return line


def test_criterion_1_oracle_equivalence():
    rng = np.random.default_rng(1729)
    t0 = time.perf_counter()
    worst = 0.0
    for _ in range(200):
        two_j = int(rng.integers(1, 41))
        gamma = float(rng.uniform(0.0, 10.0))
        model = ("dnls", "al")[int(rng.integers(2))]
        H = build_dimer(model, two_j, gamma)
        evs = eigenvalues_bisection(H)
        ref = dense_oracle(H).eigenvalues
        scale = max(1.0, float(np.max(np.abs(ref))))
        worst = max(worst, float(np.max(np.abs(evs - ref))) / scale)
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-10 and elapsed < 10.0
    line = report(1, ok, f"bisection vs dense eigensolver, 200 random dimers, "
                         f"worst |dlam|/max(1,|lam|_max)={worst:.3e} "
                         f"(tol 1e-10) in {elapsed:.2f}s (budget 10s)")
    assert ok, line


def test_criterion_2_linear_limit():
    worst = 0.0
    for two_j in (1, 2, 3, 4, 6, 8, 12, 16, 20):
        m = np.arange(two_j + 1) - 0.5 * two_j
        for model, eps in (("dnls", 1.0), ("dnls", 0.7), ("al", 1.0)):
            H = build_dimer(model, two_j, 0.0, eps)
            evs = solve_spectrum(H).eigenvalues
            worst = max(worst, float(np.max(np.abs(evs - 2.0 * eps * m))))
    ok = worst <= 1e-12
    line = report(2, ok, f"gamma=0 ladder 2*m*eps, worst abs err={worst:.3e} (tol 1e-12)")
    assert ok, line


def test_criterion_3_parity_structure():
    # the solver mirrors each chiral twin exactly, so the dense oracle's
    # independent spectrum is checked too
    worst = 0.0
    ok = True
    for two_j in range(1, 13):
        for gamma in (0.5, 2.0, 8.0):
            H = build_qal_dimer(two_j, gamma)
            for spec in (solve_spectrum(H), dense_oracle(H)):
                rep = parity_structure_check(spec)
                worst = max(worst, rep.max_pair_residual)
                want_zero = 1 if two_j % 2 == 0 else 0
                if not rep.passed or rep.zero_count != want_zero:
                    ok = False
    line = report(3, ok, f"antisymmetric spectra with zero mode iff integer spin, "
                         f"two_j 1..12, gamma {{0.5,2,8}}, worst pair residual="
                         f"{worst:.3e} (tol 1e-10)")
    assert ok, line


def test_criterion_4_orthonormality_completeness_gaps():
    worst_df = worst_comp = 0.0
    min_gap = math.inf
    where = None
    for model in ("dnls", "al"):
        for gamma in (0.0, 2.0, 8.0):
            for two_j in range(1, 31):
                H = build_dimer(model, two_j, gamma)
                s = solve_spectrum(H)
                worst_df = max(worst_df, df_orthonormality_check(H) / s.dim)
                worst_comp = max(worst_comp, completeness_check(s) / s.dim)
                if s.dim > 1:
                    g = float(np.min(np.diff(s.eigenvalues)))
                    if g < min_gap:
                        min_gap, where = g, (model, two_j, gamma)
    ok_df = worst_df <= 1e-9
    ok_comp = worst_comp <= 1e-9
    ok_gap = min_gap > 1e-8
    ok = ok_df and ok_comp and ok_gap
    line = report(4, ok, f"orthonormality worst={worst_df:.3e}/dim "
                         f"({'ok' if ok_df else 'over'} 1e-9), completeness "
                         f"worst={worst_comp:.3e}/dim ({'ok' if ok_comp else 'over'} 1e-9), "
                         f"min gap={min_gap:.3e} at {where} "
                         f"({'ok' if ok_gap else 'below'} 1e-8 floor)")
    assert ok, line


def test_criterion_5_algebra_relations():
    worst = 0.0
    worst_deg = 0.0
    ok = True
    for M in range(1, 5):
        basis = build_sector_basis(3, M)
        budget = 1e-12 * basis.dim
        packs = [su_n_generators(basis)]
        for q in (q_from_gamma(2.0).q, q_from_gamma(8.0).q, 0.5):
            packs.append(suq_n_generators(basis, q))
        for gens in packs:
            chev = verify_chevalley(gens)
            worst = max(worst, chev.max_residual / basis.dim)
            if chev.max_residual > budget:
                ok = False
            serre = verify_serre(gens)
            if not serre.vacuous:
                worst = max(worst, serre.max_residual / basis.dim)
                if serre.max_residual > budget:
                    ok = False
        classical = su_n_generators(basis)
        limit = suq_n_generators(basis, 1.0)
        for a, b in zip(classical.e + classical.f + classical.h,
                        limit.e + limit.f + limit.h):
            worst_deg = max(worst_deg, float(np.max(np.abs(a.matrix - b.matrix))))
    if worst_deg > 1e-14:
        ok = False
    line = report(5, ok, f"Chevalley/Serre/q-Serre on 3 sites M<=4, worst residual="
                         f"{worst:.3e}/dim (tol 1e-12), q->1 degeneration worst entry="
                         f"{worst_deg:.3e} (tol 1e-14)")
    assert ok, line


def test_criterion_6_casimir_conservation():
    ok = True
    failed = []
    for gamma in (0.5, 2.0, 8.0):
        for n_sites, m_top in ((3, 4), (2, 8)):
            for M in range(1, m_top + 1):
                rep = conservation_suite(n_sites, M, gamma)
                for label, norm, tol, passed in rep.pairs:
                    if not passed:
                        ok = False
                        failed.append(f"{rep.context}.{label} value={norm:.3e} tol={tol:.1e}")
    detail = ("quadratic 1e-10*dim, quartic 1e-8*dim, deformed quadratic 1e-10*dim, "
              "total-number commutator exactly zero; sectors (3,M<=4) and (2,M<=8), "
              "gamma {0.5,2,8}")
    if failed:
        detail += " offending: " + "; ".join(failed[:3])
    line = report(6, ok, detail)
    assert ok, line


def test_criterion_7_deformed_oscillator():
    worst = 0.0
    for gamma in (0.0, 2.0, 8.0):
        b, bd, n_op = al_oscillator_ops(20, gamma)
        rep = verify_al_relations(b, bd, n_op, gamma, 20)
        worst = max(worst, rep.max_residual)
    ok = worst <= 1e-10
    line = report(7, ok, f"commutation closure and number map, n_max=20, "
                         f"gamma {{0,2,8}}, worst relative residual={worst:.3e} (tol 1e-10)")
    assert ok, line


def test_criterion_8_chain_vs_dimer_spectra():
    worst = 0.0
    for model, gammas in (("dnls", (0.0, 2.0, 5.0)), ("al", (0.0, 0.5, 2.0))):
        for M in range(1, 13):
            basis = build_sector_basis(2, M)
            for gamma in gammas:
                if model == "dnls":
                    Hc = build_qdnls_chain(basis, gamma / 2.0, 1.0)
                    Hd = build_qdnls_dimer(M, gamma)
                else:
                    Hc = build_qal_chain(basis, gamma)
                    Hd = build_qal_dimer(M, gamma)
                chain_evs = np.linalg.eigvalsh(Hc.toarray())
                phys = np.sort(Hd.to_physical(solve_spectrum(Hd, tol=1e-14).eigenvalues))
                worst = max(worst, float(np.max(np.abs(chain_evs - phys))))
    ok = worst <= 1e-12
    line = report(8, ok, f"two-site sector spectra vs rescaled dimer spectra, M<=12, "
                         f"moderate coupling, worst abs err={worst:.3e} (tol 1e-12)")
    assert ok, line


def test_criterion_9_level_repulsion():
    gaps = []
    for gamma in (0.5, 1.0, 2.0, 4.0, 8.0):
        evs = solve_spectrum(build_qal_dimer(8, gamma)).eigenvalues
        gaps.append(float(np.min(np.diff(evs))))
    ok = all(b >= a for a, b in zip(gaps, gaps[1:]))
    line = report(9, ok, "deformed dimer two_j=8 min gap nondecreasing in gamma: "
                         + ", ".join(f"{g:.4f}" for g in gaps))
    assert ok, line


def lowest_pair_gap(gamma):
    H = build_qdnls_dimer(6, gamma)
    phys = np.sort(H.to_physical(solve_spectrum(H).eigenvalues))
    return float(phys[1] - phys[0])


def test_criterion_10_level_clustering():
    grid = np.geomspace(2.0, 10.0, 20)
    deltas = [lowest_pair_gap(g) for g in grid]
    ok_dec = all(b < a for a, b in zip(deltas, deltas[1:]))

    def log_slope(gamma, h=0.05):
        up = lowest_pair_gap(gamma * math.exp(h))
        dn = lowest_pair_gap(gamma * math.exp(-h))
        return (math.log(up) - math.log(dn)) / (2.0 * h)

    s_small, s_large = log_slope(0.5), log_slope(8.0)
    ok_slope = abs(s_large) > abs(s_small)
    ok = ok_dec and ok_slope
    line = report(10, ok, f"nonlinear dimer two_j=6 ground pair gap strictly "
                          f"decreasing over gamma in [2,10] ({'yes' if ok_dec else 'no'}); "
                          f"log-log slope {s_small:.3f} at gamma=0.5 vs {s_large:.3f} "
                          f"at gamma=8")
    assert ok, line


def test_criterion_11_cli_determinism(capsys, tmp_path):
    ok = True
    for argv in (["spectrum", "--model", "al", "--two-j", "12", "--gamma", "6"],
                 ["sweep", "--two-j", "6", "--steps", "8"],
                 ["gaps", "--model", "dnls", "--two-j", "6",
                  "--gamma-min", "2", "--gamma-max", "10", "--steps", "7"],
                 ["quanta-scan", "--two-j-max", "6"]):
        main(argv)
        first = capsys.readouterr().out
        main(argv)
        if capsys.readouterr().out != first:
            ok = False
    blobs = []
    for name in ("a.csv", "b.csv"):
        path = tmp_path / name
        main(["sweep", "--model", "al", "--two-j", "8", "--steps", "6",
              "--out", str(path)])
        blobs.append(path.read_bytes())
    if blobs[0] != blobs[1]:
        ok = False
    line = report(11, ok, "repeated invocations byte-identical on stdout and files "
                          "(spectrum, sweep, gaps, quanta-scan)")
    assert ok, line
