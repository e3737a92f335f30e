import pytest

from cayleycert import picard
from cayleycert.errors import PreconditionError, StructureError
from cayleycert.matrices import mat_mul
from cayleycert.picard import (CANONICAL, IDENTITY, LedgerStep, fixes,
                               galois_matrix, integer_kernel, inter,
                               invariant_sublattice, invariants_certificate,
                               lattice_certificate, lattice_span_equal,
                               ledger_certificate, ledger_run, line_classes,
                               lines_certificate, mat_apply, preserves_form,
                               row_hermite, s3_matrices, standard_actions)


def test_canonical_self_intersection_is_six():
    assert inter(CANONICAL, CANONICAL) == 6


def test_basis_squares():
    assert inter((0, 1, 0, 0), (0, 1, 0, 0)) == -1
    assert inter((1, 0, 0, 0), (1, 0, 0, 0)) == 1
    assert inter((0, 1, 0, 0), (1, -1, 0, -1)) == 1   # e1 . f2 = 0 - (-1) - 0


def test_inter_arity():
    with pytest.raises(StructureError):
        inter((1, 2, 3), (1, 2, 3, 4))


def test_galois_matrix_involution_and_images():
    g = galois_matrix()
    assert mat_mul(g, g) == IDENTITY
    assert mat_apply(g, (1, 0, 0, 0)) == (2, -1, -1, -1)
    # e1 -> e0 - e2 - e3 = f1
    assert mat_apply(g, (0, 1, 0, 0)) == (1, 0, -1, -1)
    for i in (1, 2, 3):
        v = tuple(1 if j == 0 else (-1 if j == i else 0) for j in range(4))
        assert fixes(g, v), f"e0 - e{i} must be fixed"


def test_all_standard_actions_preserve_form_and_K():
    for label, m in standard_actions():
        assert preserves_form(m), label
        assert fixes(m, CANONICAL), label


def test_invariant_sublattice_full_group_is_ZK():
    basis = invariant_sublattice([m for _, m in standard_actions()])
    assert len(basis) == 1
    assert lattice_span_equal(basis, [CANONICAL])


def test_invariant_sublattice_s3_only():
    basis = invariant_sublattice([m for _, m in s3_matrices()])
    assert len(basis) == 2
    assert lattice_span_equal(basis, [(1, 0, 0, 0), (0, 1, 1, 1)])


def test_invariant_sublattice_no_generators():
    assert len(invariant_sublattice([])) == 4


def test_integer_kernel_saturated():
    # kernel of (2 4) is spanned by the primitive (2, -1)
    basis = integer_kernel(((2, 4),))
    assert len(basis) == 1
    v = basis[0]
    assert 2 * v[0] + 4 * v[1] == 0
    assert abs(v[0]) == 2 and abs(v[1]) == 1


def test_row_hermite_unimodular():
    mat = ((2, 4, 4), (-6, 6, 12), (10, -4, -16))
    H, U = row_hermite(mat)
    prod = tuple(tuple(sum(U[i][k] * mat[k][j] for k in range(3))
                       for j in range(3)) for i in range(3))
    assert prod == H
    # echelon: below-diagonal block of leading entries vanishes
    assert H[1][0] == 0 and H[2][0] == 0


@pytest.mark.parametrize("a, b, equal", [
    ([(1, 0, 0, 0), (0, 1, 1, 1)], [(1, 1, 1, 1), (0, 1, 1, 1)], True),
    ([(1, 2, 0, 0), (0, 3, 0, 0)], [(1, -1, 0, 0), (0, 3, 0, 0)], True),
    ([(1, 0, 0, 0), (0, 1, 1, 1)], [(1, 0, 0, 0), (0, 2, 2, 2)], False),
], ids=["pivot-above", "entry-above-pivot", "index-2-sublattice"])
def test_lattice_span_equal_decides_equal_bases(a, b, equal):
    # the Hermite form reduces each entry above a pivot into [0, pivot),
    # so two bases of one lattice reach the same form
    assert lattice_span_equal(a, b) is equal
    assert lattice_span_equal(b, a) is equal


def test_row_hermite_reduces_above_pivots():
    mat = ((1, 5, 0, 0), (0, 3, 0, 0), (1, -1, 5, 0))
    H, U = row_hermite(mat)
    assert H == ((1, 2, 0, 0), (0, 3, 0, 0), (0, 0, 5, 0))
    assert mat_mul(U, mat) == H


def test_line_classes_table():
    labels, classes = line_classes()
    assert len(classes) == 6
    for c in classes:
        assert inter(c, c) == -1
        assert inter(CANONICAL, c) == -1
    e = classes[:3]
    f = classes[3:]
    for i in range(3):
        assert inter(e[i], f[i]) == 0
        for j in range(3):
            if i != j:
                assert inter(e[i], f[j]) == 1
                assert inter(e[i], e[j]) == 0
                assert inter(f[i], f[j]) == 0


def test_galois_swaps_line_pairs():
    g = galois_matrix()
    labels, classes = line_classes()
    for i in range(3):
        assert mat_apply(g, classes[i]) == classes[i + 3]
        assert mat_apply(g, classes[i + 3]) == classes[i]


def test_ledger_reproduces_degree_sequence():
    values, warnings = ledger_run(6, [LedgerStep("blowup", 1),
                                      LedgerStep("blowdown", 3)])
    assert values == [6, 5, 8]
    assert warnings == []


def test_ledger_quadric_link_consistency():
    values, warnings = ledger_run(8, [LedgerStep("blowup", 5),
                                      LedgerStep("blowdown", 2)])
    assert values == [8, 3, 5]


def test_ledger_empty():
    assert ledger_run(6, []) == ([6], [])


def test_ledger_warns_outside_range():
    values, warnings = ledger_run(6, [LedgerStep("blowup", 6)])
    assert values == [6, 0]
    assert warnings


def test_ledger_step_validation():
    with pytest.raises(StructureError):
        LedgerStep("contract", 1)
    with pytest.raises(PreconditionError):
        LedgerStep("blowup", 0)


def test_lines_form_one_orbit_under_the_full_action():
    orbits = {v.name: v for v in lines_certificate().verdicts}["orbits"]
    assert (orbits.status, orbits.detail) == ("pass", "1 orbit(s) under the full action")


def test_orbits_fail_without_the_galois_action(monkeypatch):
    # the symmetric group alone keeps the e lines and the f lines apart
    monkeypatch.setattr(picard, "standard_actions", s3_matrices)
    orbits = {v.name: v for v in lines_certificate().verdicts}["orbits"]
    assert (orbits.status, orbits.detail) == ("fail", "2 orbit(s) under the full action")


def test_certificates_green():
    for fn in (lattice_certificate, invariants_certificate, lines_certificate,
               ledger_certificate):
        cert = fn()
        assert cert.ok, (cert.construction, [v.name for v in cert.failing()])
