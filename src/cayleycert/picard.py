"""The rank-4 lattice of divisor classes on the degree-6 del Pezzo surface.

Classes are integer 4-vectors in the basis e0, e1, e2, e3 with the
signature (1,3) pairing e0^2 = 1, ei^2 = -1, mixed products 0.  The
canonical class is K = (-3, 1, 1, 1), of self-intersection 6.  The
symmetric group permutes e1, e2, e3 and the conjugation isometry sends
e0 to 2e0 - e1 - e2 - e3 and ei to e0 - ej - ek; the lattice of classes
fixed by all of these is computed by exact integer elimination in
Hermite style, and the six line classes with their hexagon adjacency are
tabulated and verified from the pairing alone.

The self-intersection ledger is plain arithmetic: blowing up an invariant
subscheme of degree d drops K^2 by d, blowing one down raises it by d.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import PreconditionError, StructureError
from .matrices import identity, mat_mul, mat_sub, transpose
from .ratmap import Certificate

RANK = 4
CANONICAL = (-3, 1, 1, 1)
_FORM = (1, -1, -1, -1)
_GRAM = tuple(tuple(s if i == j else 0 for j, s in enumerate(_FORM)) for i in range(RANK))
IDENTITY = identity(RANK, 1)


def inter(u, v) -> int:
    """Intersection pairing: u0 v0 - u1 v1 - u2 v2 - u3 v3."""
    if len(u) != RANK or len(v) != RANK:
        raise StructureError("classes are integer 4-vectors")
    return sum(s * a * b for s, a, b in zip(_FORM, u, v))


def mat_apply(m, v):
    return tuple(sum(m[i][j] * v[j] for j in range(RANK)) for i in range(RANK))


def preserves_form(m) -> bool:
    """m^T G m = G for the Gram matrix G = diag(1, -1, -1, -1)."""
    return mat_mul(transpose(m), mat_mul(_GRAM, m)) == _GRAM


def fixes(m, v) -> bool:
    return mat_apply(m, v) == tuple(v)


def s3_matrices():
    """Permutation matrices on e1, e2, e3 for a transposition and a 3-cycle."""
    def perm_matrix(p):
        m = [[0] * RANK for _ in range(RANK)]
        m[0][0] = 1
        for i, j in enumerate(p):
            m[j + 1][i + 1] = 1
        return tuple(map(tuple, m))
    swap12 = perm_matrix((1, 0, 2))
    cycle123 = perm_matrix((1, 2, 0))
    return [("s3:(1 2)", swap12), ("s3:(1 2 3)", cycle123)]


def galois_matrix():
    """e0 -> 2e0 - e1 - e2 - e3 and ei -> e0 - ej - ek, as columns."""
    return transpose([(2, -1, -1, -1), (1, 0, -1, -1), (1, -1, 0, -1), (1, -1, -1, 0)])


def standard_actions():
    """Labelled generators of the full symmetry action on the lattice."""
    return s3_matrices() + [("galois", galois_matrix())]


def line_classes():
    """The six (-1)-classes: e1, e2, e3 and fi = e0 - ej - ek."""
    e = [(0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)]
    f = [(1, 0, -1, -1), (1, -1, 0, -1), (1, -1, -1, 0)]
    labels = ["e1", "e2", "e3", "f1", "f2", "f3"]
    return labels, e + f


# -- integer kernels in Hermite style ---------------------------------------

def row_hermite(mat):
    """Row Hermite form with a unimodular transform: returns (H, U) with
    U @ mat = H, U integer with determinant +-1, H in row echelon form with
    positive pivots and every entry above a pivot in [0, pivot).  That
    form is canonical: two matrices have the same nonzero rows of H
    exactly when their rows span the same lattice."""
    rows = [list(r) for r in mat]
    n = len(rows)
    m = len(rows[0]) if rows else 0
    U = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    r = 0
    for c in range(m):
        piv = None
        for i in range(r, n):
            if rows[i][c]:
                if piv is None or abs(rows[i][c]) < abs(rows[piv][c]):
                    piv = i
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        U[r], U[piv] = U[piv], U[r]
        while True:
            done = True
            for i in range(r + 1, n):
                if rows[i][c]:
                    q = rows[i][c] // rows[r][c]
                    rows[i] = [a - q * b for a, b in zip(rows[i], rows[r])]
                    U[i] = [a - q * b for a, b in zip(U[i], U[r])]
                    if rows[i][c]:
                        rows[r], rows[i] = rows[i], rows[r]
                        U[r], U[i] = U[i], U[r]
                        done = False
            if done:
                break
        if rows[r][c] < 0:
            rows[r] = [-a for a in rows[r]]
            U[r] = [-a for a in U[r]]
        for i in range(r):
            q = rows[i][c] // rows[r][c]
            rows[i] = [a - q * b for a, b in zip(rows[i], rows[r])]
            U[i] = [a - q * b for a, b in zip(U[i], U[r])]
        r += 1
        if r == n:
            break
    return tuple(map(tuple, rows)), tuple(map(tuple, U))


def integer_kernel(mat):
    """Primitive basis of {v : mat @ v = 0} over the integers.

    Works through the left kernel of the transpose: the unimodular rows
    that reduce it to zero rows span the saturated kernel lattice.
    """
    if not mat:
        return list(IDENTITY)
    H, U = row_hermite(transpose(mat))
    return [u for h, u in zip(H, U) if not any(h)]


def invariant_sublattice(gens):
    """Primitive integer basis of the classes fixed by every generator."""
    return integer_kernel([row for m in gens for row in mat_sub(m, IDENTITY)])


def lattice_span_equal(basis_a, basis_b) -> bool:
    """Two integer bases span the same lattice iff their Hermite forms match."""
    ha, _ = row_hermite(tuple(basis_a))
    hb, _ = row_hermite(tuple(basis_b))
    ha = tuple(r for r in ha if any(r))
    hb = tuple(r for r in hb if any(r))
    return ha == hb


@dataclass(frozen=True)
class LedgerStep:
    kind: str        # "blowup" | "blowdown"
    degree: int

    def __post_init__(self):
        if self.kind not in ("blowup", "blowdown"):
            raise StructureError(f"unknown ledger step {self.kind!r}")
        if self.degree < 1:
            raise PreconditionError("step degree must be at least 1")


def ledger_run(start_k2: int, steps):
    """Sequence of self-intersection numbers along the blow-up ledger.

    Pure arithmetic, with warnings collected whenever a value leaves the
    del Pezzo range [1, 9].  Returns (values, warnings).
    """
    values = [start_k2]
    warnings = []
    if not 1 <= start_k2 <= 9:
        warnings.append(f"start {start_k2} outside [1, 9]")
    for step in steps:
        delta = -step.degree if step.kind == "blowup" else step.degree
        values.append(values[-1] + delta)
        if not 1 <= values[-1] <= 9:
            warnings.append(f"{step.kind} {step.degree} -> {values[-1]} outside [1, 9]")
    return values, warnings


# -- certificates -------------------------------------------------------------

def lattice_certificate() -> Certificate:
    cert = Certificate(construction="picard.lattice")
    cert.add("K-self-intersection", "pass" if inter(CANONICAL, CANONICAL) == 6 else "fail",
             "K.K = 6 for K = (-3, 1, 1, 1)")
    g = galois_matrix()
    cert.add("galois-involution", "pass" if mat_mul(g, g) == IDENTITY else "fail")
    for label, m in standard_actions():
        cert.add(f"form-preserved[{label}]", "pass" if preserves_form(m) else "fail")
        cert.add(f"K-fixed[{label}]", "pass" if fixes(m, CANONICAL) else "fail")
    conic_classes = [(1, -1, 0, 0), (1, 0, -1, 0), (1, 0, 0, -1)]
    ok = all(fixes(g, c) for c in conic_classes)
    cert.add("galois-fixes-conic-pencils", "pass" if ok else "fail",
             "e0 - ei is fixed, so the conic pencils are defined over the base")
    return cert


def invariants_certificate() -> Certificate:
    cert = Certificate(construction="picard.invariants")
    gens = [m for _, m in standard_actions()]
    basis = invariant_sublattice(gens)
    rank_ok = len(basis) == 1
    cert.add("invariant-rank", "pass" if rank_ok else "fail",
             f"rank {len(basis)}")
    span_ok = rank_ok and lattice_span_equal(basis, [CANONICAL])
    cert.add("invariant-span-is-ZK", "pass" if span_ok else "fail",
             "fixed lattice of the full action is spanned by K")
    refixed = all(fixes(m, v) for m in gens for v in basis)
    cert.add("basis-refixed", "pass" if refixed else "fail")

    s3_only = invariant_sublattice([m for _, m in s3_matrices()])
    s3_ok = len(s3_only) == 2 and lattice_span_equal(
        s3_only, [(1, 0, 0, 0), (0, 1, 1, 1)])
    cert.add("s3-invariants", "pass" if s3_ok else "fail",
             "rank 2, spanned by e0 and e1 + e2 + e3")
    empty = invariant_sublattice([])
    cert.add("empty-generators", "pass" if len(empty) == RANK else "fail",
             "no constraints leave the full rank-4 lattice")
    return cert


def lines_certificate() -> Certificate:
    cert = Certificate(construction="picard.lines")
    labels, classes = line_classes()
    self_ok = all(inter(c, c) == -1 for c in classes)
    cert.add("self-intersection", "pass" if self_ok else "fail",
             "all six classes square to -1")
    k_ok = all(inter(CANONICAL, c) == -1 for c in classes)
    cert.add("K-degree", "pass" if k_ok else "fail", "K.l = -1 for every line")

    n = len(classes)
    adj = [[inter(classes[i], classes[j]) for j in range(n)] for i in range(n)]
    meets = [(i, j) for i in range(n) for j in range(n) if i != j and adj[i][j] == 1]
    deg_ok = all(sum(1 for i, _ in meets if i == k) == 2 for k in range(n))
    opposite_ok = all(adj[i][i + 3] == 0 for i in range(3))
    # a 2-regular graph on six vertices is the hexagon iff it is connected
    hexagon = deg_ok and _component_count(n, meets) == 1
    cert.add("hexagon-adjacency", "pass" if hexagon else "fail",
             "each line meets exactly two others, forming one 6-cycle")
    cert.add("opposite-pairs-disjoint", "pass" if opposite_ok else "fail",
             "ei and fi do not meet")

    g = galois_matrix()
    pairs_ok = all(mat_apply(g, classes[i]) == classes[i + 3] and
                   mat_apply(g, classes[i + 3]) == classes[i] for i in range(3))
    cert.add("galois-pairs-opposites", "pass" if pairs_ok else "fail",
             "conjugation exchanges ei and fi")
    index = {c: i for i, c in enumerate(classes)}
    moves = [(i, index[img]) for _, m in standard_actions() for i, c in enumerate(classes)
             if (img := mat_apply(m, c)) in index]
    orbit_count = _component_count(n, moves)
    cert.add("orbits", "pass" if orbit_count == 1 else "fail",
             f"{orbit_count} orbit(s) under the full action")
    return cert


def _component_count(n: int, edges) -> int:
    """Connected components of the graph on 0..n-1 with these edges."""
    parent = list(range(n))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i, j in edges:
        parent[find(i)] = find(j)
    return len({find(i) for i in range(n)})


def ledger_certificate() -> Certificate:
    cert = Certificate(construction="picard.ledger")
    values, warnings = ledger_run(6, [LedgerStep("blowup", 1), LedgerStep("blowdown", 3)])
    cert.add("degree-6-link", "pass" if values == [6, 5, 8] else "fail",
             "blow up a point, blow down three conics: 6 -> 5 -> 8")
    values, warnings = ledger_run(8, [LedgerStep("blowup", 5), LedgerStep("blowdown", 2)])
    cert.add("quadric-to-degree-5-link", "pass" if values == [8, 3, 5] else "fail",
             "degree-5 subscheme up, degree-2 down; 8 - 5 = 5 - 2 checks out")
    values, warnings = ledger_run(6, [])
    cert.add("empty-ledger", "pass" if values == [6] else "fail")
    return cert
