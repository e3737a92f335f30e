"""Acceptance suite: one test per criterion, each printing a verdict line.

Every check is exact; the only tolerances are the two wall-clock budgets,
which are asserted as stated.  Run with ``pytest tests/test_acceptance.py -v -s``
to see the per-criterion lines.
"""

import json
import time

from cayleycert.catalog import MUTATION_IDS, run_construction
from cayleycert.classical import (classical_certificate, orthogonal_alg,
                                  pgl_certificate, pgl_scalar_invariance,
                                  symplectic_alg, unitary_alg)
from cayleycert.cli import main as cli_main
from cayleycert.matrices import mat_mul
from cayleycert.picard import (CANONICAL, IDENTITY, LedgerStep, fixes,
                               galois_matrix, inter, invariant_sublattice,
                               lattice_span_equal, ledger_run, line_classes,
                               lines_certificate, preserves_form,
                               standard_actions)
from cayleycert.rank2 import pgu3_differential, pgu3_torus_map, twist_certificate
from cayleycert.su3 import chain_certificate, link_certificate, link_phi
from cayleycert.surfaces import (conic_certificate, x_membership_certificate,
                                 y_singular_certificate)

GENERATORS = ("(1 2)", "(1 2 3)", "gamma")
LINKS = ("su3.quotient", "su3.phi", "su3.segre", "su3.stereo", "su3.linear")


def report(num, ok, text):
    print(f"{'PASS' if ok else 'FAIL'} criterion {num}: {text}")
    assert ok, f"criterion {num}: {text}"


def test_criterion_1_su3_chain():
    t0 = time.perf_counter()
    cert = chain_certificate(seed=42, trials=100)
    elapsed = time.perf_counter() - t0
    names = {v.name: v.status for v in cert.verdicts}
    ok = cert.ok
    for link in LINKS:
        for gen in GENERATORS:
            ok = ok and names.get(f"{link}.fwd.equivariance[{gen}]") == "pass"
        ok = ok and names.get(f"{link}.round-trip[source]") == "pass"
        ok = ok and names.get(f"{link}.round-trip[target]") == "pass"
    for gen in GENERATORS:
        ok = ok and names.get(f"end-to-end.equivariance[{gen}]") == "pass"
    ok = ok and names.get("end-to-end.round-trip[source]") == "pass"
    ok = ok and names.get("end-to-end.round-trip[target]") == "pass"
    ok = ok and elapsed < 30
    report(1, ok, f"five links + end-to-end certified exactly in {elapsed:.1f}s (< 30s)")


def test_criterion_2_phi_inverse():
    cert = link_certificate(link_phi(), seed=42, trials=100)
    names = {v.name: v for v in cert.verdicts}
    ok = cert.ok
    ok = ok and names["round-trip[source]"].status == "pass"
    ok = ok and names["round-trip[target]"].status == "pass"
    spot = names["spot-check[100 points]"]
    ok = ok and spot.status == "pass"
    report(2, ok, f"psi o phi = id and phi o psi = id exactly; 100-point check: "
                  f"{spot.detail}")


def test_criterion_3_classical_transforms():
    t0 = time.perf_counter()
    grid = []
    for n in (2, 4):
        grid.append((f"symplectic n={n}", symplectic_alg(n)))
    for n in (2, 3, 4):
        grid.append((f"transpose-form n={n}", orthogonal_alg(n)))
    for n in (2, 3, 4):
        grid.append((f"hermitian(-3) n={n}", unitary_alg(n, -3)))
    for n in (2, 3, 4):
        grid.append((f"hermitian(-1) n={n}", unitary_alg(n, -1)))
    ok = True
    for name, alg in grid:
        cert = classical_certificate(name, alg, seed=42, trials=100)
        ok = ok and cert.ok
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 20
    report(3, ok, f"{len(grid)} algebras: skewness, round trips and equivariance "
                  f"exact from the anti-automorphism, tied to the form exactly, "
                  f"plus a 100-point spot check, in {elapsed:.1f}s (< 20s)")


def test_criterion_4_pgl_map():
    ok = pgl_scalar_invariance(2) and pgl_scalar_invariance(3)
    for n in (2, 3):
        cert = pgl_certificate(n, seed=42, trials=100)
        ok = ok and cert.ok
    report(4, ok, "scalar invariance symbolic; round trips exact for n in {2, 3}")


def test_criterion_5_twisted_suite():
    tw = twist_certificate(seed=42)
    names = {v.name: v.status for v in tw.verdicts}
    ok = tw.ok
    ok = ok and names.get("twisted-action-table[torus:gamma]") == "pass"
    ok = ok and names.get("twisted-action-table[lie:gamma]") == "pass"
    p = link_certificate(pgu3_torus_map(), seed=42, trials=100)
    d = link_certificate(pgu3_differential(), seed=42, trials=100)
    ok = ok and p.ok and d.ok
    report(5, ok, "twisted action matches the conjugate-inverse form; "
                  "quotient-torus map and differential certified with exact inverses")


def test_criterion_6_conic():
    cert = conic_certificate()
    names = {v.name: v.status for v in cert.verdicts}
    ok = cert.ok
    ok = ok and names.get("parameterization-on-conic") == "pass"
    ok = ok and names.get("homomorphism-identity") == "pass"
    ok = ok and names.get("identity-element") == "pass"
    ok = ok and names.get("inverse-law") == "pass"
    report(6, ok, "parameterization and homomorphism hold as exact polynomial "
                  "identities in 4 variables; identity and inverse laws verified")


def test_criterion_7_surfaces():
    x = x_membership_certificate()
    y = y_singular_certificate()
    names = {v.name: v for v in y.verdicts}
    ok = x.ok and y.ok
    ok = ok and names["three-singular-points"].status == "pass"
    ok = ok and names["smooth-on-chart[t0=1]"].status == "pass"
    report(7, ok, "X's equation vanishes on generic torus triples; "
                  "exactly three singular candidates on Y, smooth on the chart t0 = 1")


def test_criterion_8_picard_suite():
    ok = inter(CANONICAL, CANONICAL) == 6
    g = galois_matrix()
    ok = ok and mat_mul(g, g) == IDENTITY and preserves_form(g)
    ok = ok and fixes(g, CANONICAL)
    for i in (1, 2, 3):
        v = tuple(1 if j == 0 else (-1 if j == i else 0) for j in range(4))
        ok = ok and fixes(g, v)
    basis = invariant_sublattice([m for _, m in standard_actions()])
    ok = ok and len(basis) == 1 and lattice_span_equal(basis, [CANONICAL])
    labels, classes = line_classes()
    ok = ok and len(classes) == 6
    ok = ok and all(inter(c, c) == -1 for c in classes)
    ok = ok and lines_certificate().ok
    report(8, ok, "K.K = 6; Galois matrix is a form-preserving involution fixing "
                  "K and each e0 - ei; invariant lattice = ZK; hexagon verified")


def test_criterion_9_ledger():
    values, _ = ledger_run(6, [LedgerStep("blowup", 1), LedgerStep("blowdown", 3)])
    ok = values == [6, 5, 8]
    report(9, ok, "ledger run [6, blowup 1, blowdown 3] -> [6, 5, 8]")


def test_criterion_10_mutation_sensitivity():
    ok = True
    details = []
    for mid in MUTATION_IDS:
        cert = run_construction(mid, seed=42, trials=10)
        failing = [v.name for v in cert.failing()]
        ok = ok and (not cert.ok) and bool(failing)
        details.append(f"{mid} -> {failing[0] if failing else 'NOT REJECTED'}")
    report(10, ok, f"all {len(MUTATION_IDS)} broken fixtures rejected: " + "; ".join(details))


def test_criterion_11_determinism(tmp_path, capsys):
    argv = ["verify", "--only",
            "su3.phi,rank2.pgu3,picard.lines,mutation.swapped-components",
            "--seed", "42", "--trials", "25"]
    code1 = cli_main(argv)
    out1 = capsys.readouterr().out
    code2 = cli_main(argv)
    out2 = capsys.readouterr().out

    def strip(text):
        rep = json.loads(text)
        for r in rep["results"]:
            r.pop("ms", None)
        return rep

    ok = code1 == code2 == 1 and strip(out1) == strip(out2)
    report(11, ok, "two runs with identical seed/config give identical verdicts "
                   "and witnesses")
