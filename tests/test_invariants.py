"""Chain builders on fixed-quanta sectors, dimer reduction, and the
conservation suite."""

import numpy as np
import pytest

from qdimer import (
    ConservationReport,
    build_qal_chain,
    build_qal_dimer,
    build_qdnls_chain,
    build_qdnls_dimer,
    build_sector_basis,
    check_commutes,
    conservation_suite,
    number_operator,
)


def test_one_quantum_two_sites():
    basis = build_sector_basis(2, 1)
    H = build_qdnls_chain(basis, 0.0).toarray()
    assert np.array_equal(H, np.array([[0.0, -1.0], [-1.0, 0.0]]))
    Hq = build_qal_chain(basis, 0.0).toarray()
    # zero hop amplitude is the same, constant shift 2M = 2
    assert np.array_equal(Hq, np.array([[2.0, -1.0], [-1.0, 2.0]]))


def test_chain_matrices_symmetric():
    for M in (3, 6):
        basis = build_sector_basis(3, M)
        H = build_qdnls_chain(basis, 2.0, 0.7).toarray()
        assert np.array_equal(H, H.T)
        Hq = build_qal_chain(basis, 2.0).toarray()
        assert np.max(np.abs(Hq - Hq.T)) < 1e-13


def test_dnls_chain_reduces_to_dimer():
    # two-site sector with chain nonlinearity gamma/2 equals the rescaled
    # dimer matrix: H_chain = scale * H_dimer + shift * I
    for M in range(1, 13):
        for gamma in (0.0, 2.0, 5.0):
            basis = build_sector_basis(2, M)
            Hc = build_qdnls_chain(basis, gamma / 2.0, 1.0)
            Hd = build_qdnls_dimer(M, gamma)
            lhs = Hd.energy_scale * Hd.to_dense() + Hd.energy_shift * np.eye(M + 1)
            assert np.max(np.abs(Hc.toarray() - lhs)) < 1e-12, (M, gamma)


def test_al_chain_reduces_to_dimer():
    for M in range(1, 13):
        for gamma in (0.0, 0.5, 2.0):
            basis = build_sector_basis(2, M)
            Hc = build_qal_chain(basis, gamma)
            Hd = build_qal_dimer(M, gamma)
            lhs = Hd.energy_scale * Hd.to_dense() + Hd.energy_shift * np.eye(M + 1)
            assert np.max(np.abs(Hc.toarray() - lhs)) < 1e-12, (M, gamma)


def test_al_chain_reduces_to_dimer_strong_coupling():
    # entries grow with gamma, so compare relative to the largest entry
    for M in (4, 8, 12):
        basis = build_sector_basis(2, M)
        Hc = build_qal_chain(basis, 8.0)
        Hd = build_qal_dimer(M, 8.0)
        lhs = Hd.energy_scale * Hd.to_dense() + Hd.energy_shift * np.eye(M + 1)
        scale = np.max(np.abs(Hc))
        assert np.max(np.abs(Hc.toarray() - lhs)) < 1e-13 * scale


def test_sector_blocks_of_independent_full_space():
    # build the two-site chain on the full truncated Fock space with plain
    # kron operators, then check each fixed-quanta block matches the sector
    # builder and nothing couples across blocks
    n_max = 5
    d1 = n_max + 1
    b = np.diag(np.sqrt(np.arange(1.0, d1)), 1)
    num = np.diag(np.arange(d1, dtype=float))
    eye = np.eye(d1)
    gamma, eps = 3.0, 0.8
    hop = np.kron(b.T, b) + np.kron(b, b.T)
    well = np.kron(num @ num, eye) + np.kron(eye, num @ num)
    Hfull = -eps * hop - 0.5 * gamma * well
    Ntot = np.kron(num, eye) + np.kron(eye, num)
    assert np.max(np.abs(Hfull @ Ntot - Ntot @ Hfull)) == 0.0
    for M in (2, 4, 5):
        basis = build_sector_basis(2, M)
        idx = [s[0] * d1 + s[1] for s in basis.states]
        block = Hfull[np.ix_(idx, idx)]
        Hc = build_qdnls_chain(basis, gamma, eps)
        assert np.max(np.abs(block - Hc.toarray())) < 1e-14
        others = [i for i in range(d1 * d1)
                  if i not in idx and (i // d1 + i % d1) <= n_max]
        assert np.max(np.abs(Hfull[np.ix_(idx, others)])) == 0.0


def test_total_number_commutes_exactly():
    for n_sites, M in ((2, 6), (3, 4)):
        basis = build_sector_basis(n_sites, M)
        Ntot = sum(number_operator(basis, i).matrix for i in range(1, n_sites + 1))
        for gamma in (0.0, 2.0, 8.0):
            H = build_qdnls_chain(basis, gamma)
            norm, ok = check_commutes(H, Ntot, 0.0)
            assert norm == 0.0 and ok
            Hq = build_qal_chain(basis, gamma)
            norm, ok = check_commutes(Hq, Ntot, 0.0)
            assert norm == 0.0 and ok


def test_check_commutes_shape_mismatch():
    with pytest.raises(ValueError):
        check_commutes(np.zeros((2, 2)), np.zeros((3, 3)), 1e-10)


def test_conservation_suite_passes():
    for gamma in (0.5, 2.0, 8.0):
        for n_sites, M in ((3, 4), (2, 8)):
            rep = conservation_suite(n_sites, M, gamma)
            assert rep.passed, rep.lines()
            labels = [label for (label, _, _, _) in rep.pairs]
            assert "dnls_c2" in labels
            assert "dnls_c4" in labels
            assert "dnls_total_number" in labels
            assert "al_total_number" in labels
            if n_sites == 2:
                assert "al_cq" in labels
            else:
                assert "al_chevalley" in labels


def test_conservation_report_lines():
    rep = ConservationReport(context="demo", pairs=[])
    rep.add("good", 1e-12, 1e-10)
    rep.add("bad", 1.0, 1e-10)
    assert not rep.passed
    lines = rep.lines()
    assert lines[0].startswith("PASS demo.good")
    assert lines[1].startswith("FAIL demo.bad")
