import json
import random
import re
from dataclasses import fields, replace
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from cayleycert import classical, cli
from cayleycert.classical import (MatrixAlg, cayley_conjugation_equivariance,
                                  cayley_transform, cayley_transform_of_skew,
                                  classical_certificate, full_linear_certificate,
                                  generic_matrices, orthogonal_alg, pgl_cayley,
                                  pgl_certificate, pgl_scalar_invariance,
                                  symplectic_alg, unitary_alg)
from cayleycert.errors import DegenerateError, PreconditionError, StructureError
from cayleycert.field import QuadField
from cayleycert.poly import RatFunc
from cayleycert.ratmap import MapPair
from cayleycert.matrices import (_IntMat, conj_transpose, identity, mat_add, mat_eq,
                                 mat_inverse, mat_mul, mat_str, mat_sub, trace, transpose)

F = QuadField(-3)
ZETA = F.zeta()


def test_identity_maps_to_zero():
    alg = symplectic_alg(2)
    x = cayley_transform(alg, identity(2))
    assert all(not v for row in x for v in row)


def test_symplectic_rotation_example():
    alg = symplectic_alg(2)
    a = ((Fraction(0), Fraction(1)), (Fraction(-1), Fraction(0)))
    x = cayley_transform(alg, a)
    assert x == ((Fraction(0), Fraction(-1)), (Fraction(1), Fraction(0)))
    assert trace(x) == 0


def test_hermitian_diagonal_example():
    alg = unitary_alg(3)
    a = ((ZETA, F.zero, F.zero), (F.zero, ZETA ** 2, F.zero),
         (F.zero, F.zero, F.one))
    assert alg.is_group_point(a)
    x = cayley_transform(alg, a)
    assert alg.is_skew(x)
    assert mat_eq(cayley_transform_of_skew(alg, x), a)


def test_non_group_point_rejected():
    alg = symplectic_alg(2)
    a = ((Fraction(2), Fraction(0)), (Fraction(0), Fraction(2)))
    with pytest.raises(PreconditionError):
        cayley_transform(alg, a)


def test_exceptional_locus_named():
    alg = orthogonal_alg(2)
    a = ((Fraction(-1), Fraction(0)), (Fraction(0), Fraction(-1)))
    assert alg.is_group_point(a)
    with pytest.raises(DegenerateError):
        cayley_transform(alg, a)


def random_matrix(alg, rng):
    """A square matrix of the entries the sampled suite draws: r/s with r in
    [-3, 3] and s in {1, 2}, and a + b*sqrt(d) with such a, b over a field."""
    def entry():
        if alg.field is not None:
            return alg.field.of(Fraction(rng.randint(-3, 3), rng.randint(1, 2)),
                                Fraction(rng.randint(-3, 3), rng.randint(1, 2)))
        return Fraction(rng.randint(-3, 3), rng.randint(1, 2))
    return tuple(tuple(entry() for _ in range(alg.n)) for _ in range(alg.n))


def mat_scale(c, a):
    return tuple(tuple(c * x for x in r) for r in a)


def involute(alg, a):
    """iota(a) for a scalar matrix a: the integer gather of the sampled suite."""
    return alg._involute_int(*alg._int(a)).scalars()


def random_skew(alg, rng):
    """(r - iota(r))/2 for a random r: skew for any r."""
    r = random_matrix(alg, rng)
    return mat_scale(Fraction(1, 2), mat_sub(r, involute(alg, r)))


def test_transform_involutive_on_samples():
    rng = random.Random(23)
    for alg in (symplectic_alg(2), orthogonal_alg(3), unitary_alg(2),
                symplectic_alg(4), unitary_alg(4, -1)):
        for _ in range(10):
            x = random_skew(alg, rng)
            try:
                a = cayley_transform_of_skew(alg, x)
            except DegenerateError:
                continue
            assert alg.is_group_point(a)
            assert mat_eq(cayley_transform(alg, a), x)


def test_conjugation_equivariance_samples():
    rng = random.Random(29)
    alg = unitary_alg(3)
    for _ in range(10):
        a = alg.random_group_point(rng)
        g = alg.random_group_point(rng)
        assert cayley_conjugation_equivariance(alg, a, g)


def test_involution_is_antiautomorphism():
    rng = random.Random(31)
    for alg in (symplectic_alg(2), orthogonal_alg(3, (1, 1, -1)),
                unitary_alg(3, -3, (1, 1, -1))):
        for _ in range(10):
            a = random_matrix(alg, rng)
            b = random_matrix(alg, rng)
            lhs = involute(alg, tuple(tuple(sum(a[i][k] * b[k][j]
                                                for k in range(alg.n))
                                            for j in range(alg.n))
                                      for i in range(alg.n)))
            rhs_parts = involute(alg, b), involute(alg, a)
            rhs = tuple(tuple(sum(rhs_parts[0][i][k] * rhs_parts[1][k][j]
                                  for k in range(alg.n))
                              for j in range(alg.n))
                        for i in range(alg.n))
            assert mat_eq(lhs, rhs)
            assert mat_eq(involute(alg, involute(alg, a)), a)


def test_symplectic_needs_even_size():
    with pytest.raises(StructureError):
        symplectic_alg(3)


def test_certificates_pass_for_all_involution_kinds():
    for name, alg in (("sp2", symplectic_alg(2)),
                      ("so3", orthogonal_alg(3)),
                      ("su3", unitary_alg(3)),
                      ("u3gauss", unitary_alg(3, -1))):
        cert = classical_certificate(name, alg, seed=7, trials=15)
        assert cert.ok, [v.name for v in cert.failing()]


def test_certificate_takes_one_trial():
    cert = classical_certificate("so3", orthogonal_alg(3), seed=7, trials=1)
    assert cert.ok
    assert [(v.status, v.detail) for v in cert.verdicts[1:]] == [("pass", "1 samples")] * 3


@pytest.mark.parametrize("trials", [0, -3])
def test_certificate_refuses_a_non_positive_trial_count(trials):
    with pytest.raises(StructureError, match=f"trials must be positive: {trials}"):
        classical_certificate("so3", orthogonal_alg(3), seed=7, trials=trials)


def test_transform_verdicts_fail_without_a_sample(monkeypatch):
    def degenerate(self, rng):
        raise DegenerateError("every draw is degenerate")
    monkeypatch.setattr(MatrixAlg, "_random_point", degenerate)
    cert = classical_certificate("so3", orthogonal_alg(3), seed=7, trials=5)
    assert [(v.name, v.status, v.detail) for v in cert.verdicts[1:]] == [
        ("image-skewness", "fail", "0 samples"),
        ("round-trip", "fail", "0 samples"),
        ("conjugation-equivariance", "fail", "0 samples")]


@pytest.mark.parametrize("build", [
    lambda: orthogonal_alg(3),
    lambda: unitary_alg(3),
    lambda: symplectic_alg(4),
])
def test_negated_transform_fails_the_suite_at_the_first_point(monkeypatch, build):
    # -x is still skew, so the round trip is what catches it, at point one
    to_skew = classical._to_skew
    monkeypatch.setattr(classical, "_to_skew", lambda alg, a: -to_skew(alg, a))
    cert = classical_certificate("negated", build(), seed=7, trials=5)
    first = mat_str(build().random_group_point(random.Random(7)))
    assert [(v.name, v.status, v.witness) for v in cert.verdicts] == [
        ("involution-anti-automorphism", "pass", None),
        ("transform-suite", "fail", first)]


def test_a_broken_transform_fails_verify_with_a_report(monkeypatch, capsys):
    # 2 transform(x) is no group point: the suite reports the first drawn
    # point as its witness instead of raising PreconditionError
    transform = classical._transform

    def doubled(a):
        t = transform(a)
        return t @ _IntMat.of(identity(len(t.p), 2), t.d)
    monkeypatch.setattr(classical, "_transform", doubled)
    code = cli.main(["verify", "--only", "classical.so3", "--seed", "7", "--trials", "5"])
    [record] = json.loads(capsys.readouterr().out)["results"]
    assert code == 1
    assert [(v["name"], v["status"]) for v in record["verdicts"]] == [
        ("involution-anti-automorphism", "pass"), ("transform-suite", "fail")]
    first = orthogonal_alg(3).random_group_point(random.Random(record["seed"]))
    assert not orthogonal_alg(3).is_group_point(first)
    assert record["verdicts"][1]["witness"] == mat_str(first)


def test_a_non_skew_draw_fails_the_suite_with_a_report():
    # an off-diagonal integer factor flipped alone: the symbolic gather, and
    # so the anti-automorphism, is unchanged, but the integer gather is no
    # involution and the first drawn skew is not skew
    alg = orthogonal_alg(3)
    rows = [list(r) for r in alg._gather]
    q, p, f, s, u, v = rows[0][1]
    rows[0][1] = (q, p, f, s, -u, -v)
    alg._gather = tuple(map(tuple, rows))
    cert = classical_certificate("flipped", alg, seed=7, trials=5)
    assert [(v.name, v.status) for v in cert.verdicts] == [
        ("involution-anti-automorphism", "pass"), ("transform-suite", "fail")]
    assert cert.verdicts[1].witness.startswith("drawn skew is not skew: [")


@pytest.mark.parametrize("build, cell", [
    (lambda: orthogonal_alg(3), (0, 0)),
    (lambda: orthogonal_alg(3, (1, 2, -3)), (0, 2)),
    (lambda: symplectic_alg(4), (1, 3)),
    (lambda: unitary_alg(3), (2, 2)),
    (lambda: unitary_alg(4, -1), (0, 1)),
])
def test_flipped_gather_sign_fails_anti_automorphism(build, cell):
    # a flipped diagonal cell keeps iota^2 = id; only the product rule sees it
    alg = build()
    rows = [list(r) for r in alg._gather]
    i, j = cell
    q, p, f, s, u, v = rows[i][j]
    rows[i][j] = (q, p, -f, -s, -u, -v)
    alg._gather = tuple(map(tuple, rows))
    cert = classical_certificate("flipped", alg, seed=7, trials=5)
    assert [(v.name, v.status) for v in cert.verdicts] == [
        ("involution-anti-automorphism", "fail")]


def test_gl_certificate():
    cert = full_linear_certificate(3)
    assert cert.ok
    assert cert.verdicts[0].detail.startswith("exact on generic a, g")


def test_pgl_scalar_invariance():
    assert pgl_scalar_invariance(2)
    assert pgl_scalar_invariance(3)


def test_pgl_scalar_invariance_checks_the_map_it_names(monkeypatch):
    # a forward map a -> a is not invariant under a -> lambda a
    real = pgl_cayley(2)
    plain = replace(real.forward, components=RatFunc.variables(real.forward.source.coords))
    monkeypatch.setattr(classical, "pgl_cayley", lambda n: MapPair(plain, real.inverse))
    assert not pgl_scalar_invariance(2)


def test_pgl_forward_example():
    pair = pgl_cayley(3)
    pt = [Fraction(0)] * 9
    pt[0], pt[4], pt[8] = Fraction(2), Fraction(1), Fraction(1)
    img = [c.eval(tuple(pt)) for c in pair.forward.components]
    assert img[0] == Fraction(1, 2)
    assert img[4] == Fraction(-1, 4) and img[8] == Fraction(-1, 4)
    assert img[0] + img[4] + img[8] == 0


def test_pgl_identity_maps_to_zero():
    pair = pgl_cayley(2)
    pt = (Fraction(1), Fraction(0), Fraction(0), Fraction(1))
    img = [c.eval(pt) for c in pair.forward.components]
    assert img == [0, 0, 0, 0]


def test_pgl_round_trips_exact():
    for n in (2, 3):
        cert = pgl_certificate(n, seed=13, trials=40)
        assert cert.ok, [v.name for v in cert.failing()]


def test_pgl_zero_trace_is_exceptional():
    pair = pgl_cayley(2)
    pt = (Fraction(1), Fraction(0), Fraction(0), Fraction(-1))
    with pytest.raises(DegenerateError):
        pair.forward.components[0].eval(pt)


# -- oracle for the gathered involution and the one-inverse transform -------
#
# The involution is checked against H^-1 core(a) H multiplied out, and the
# transform against (1 - a)(1 + a)^-1 with its two matrix products, both
# written here; values and entry types must agree.

DISCRIMINANTS = (-3, -1, 2, 5)
rationals = st.builds(Fraction, st.integers(-4, 4), st.integers(1, 3))
nonzero_rationals = rationals.filter(bool)


def oracle_involute(alg, a):
    core = conj_transpose(a) if alg.involution == "hermitian-form" else transpose(a)
    return mat_mul(mat_inverse(alg.form), mat_mul(core, alg.form))


def oracle_transform(alg, a):
    try:
        inv = mat_inverse(mat_add(alg.one, a))
    except DegenerateError:
        raise DegenerateError("1 + a is singular (exceptional locus)")
    return mat_mul(mat_sub(alg.one, a), inv)


def entry_types(m):
    return [(type(x), getattr(x, "d", None)) for r in m for x in r]


def assert_same(got, want):
    assert got == want
    assert entry_types(got) == entry_types(want)


def swap_form(n, c, c_mirror, zero):
    """Monomial form pairing coordinates 2k and 2k+1 through c (and c_mirror
    below the diagonal); with n odd the last coordinate pairs with itself."""
    H = [[zero] * n for _ in range(n)]
    for k in range(0, n - 1, 2):
        H[k][k + 1], H[k + 1][k] = c, c_mirror
    if n % 2:
        H[n - 1][n - 1] = c * c_mirror
    return tuple(map(tuple, H))


@st.composite
def algebras(draw):
    kind = draw(st.sampled_from(("symplectic", "orthogonal", "unitary",
                                 "split", "hermitian-swap")))
    if kind == "symplectic":
        return symplectic_alg(draw(st.sampled_from((2, 4, 6))))
    n = draw(st.integers(1, 4))
    signs = st.sampled_from((1, -1, 2, -3, Fraction(1, 2)))
    if kind == "orthogonal":
        return orthogonal_alg(n, tuple(draw(signs) for _ in range(n)))
    d = draw(st.sampled_from(DISCRIMINANTS))
    if kind == "unitary":
        return unitary_alg(n, d, tuple(draw(signs) for _ in range(n)))
    n = max(n, 2)
    c = draw(nonzero_rationals)
    if kind == "split":
        return MatrixAlg(n=n, involution="transpose-form",
                         form=swap_form(n, c, c, Fraction(0)))
    K = QuadField(d)
    c = K.of(c, draw(rationals))
    return MatrixAlg(n=n, involution="hermitian-form",
                     form=swap_form(n, c, c.conj(), K.zero))


def native_entries(alg):
    if alg.field is None:
        return rationals
    return st.builds(alg.field.of, rationals, rationals)


@st.composite
def algebra_and_matrix(draw, mixed=False):
    """An algebra and a square matrix over its scalars; ``mixed`` also
    draws ints, and Fractions for a Hermitian algebra."""
    alg = draw(algebras())
    entries = native_entries(alg)
    if mixed:
        entries = st.one_of(entries, st.integers(-3, 3), rationals)
    row = st.tuples(*[entries] * alg.n)
    return alg, draw(st.tuples(*[row] * alg.n))


@pytest.mark.parametrize("build", [
    lambda: symplectic_alg(4),
    lambda: orthogonal_alg(3, (1, 1, -1)),                 # so21
    lambda: orthogonal_alg(3, (1, 2, -3)),
    lambda: unitary_alg(3, -3, (1, 1, -1)),                # su21
    lambda: unitary_alg(2, -1, (2, Fraction(1, 2))),
])
def test_symbolic_gather_matches_multiplied_out_form(build):
    # iota(ab) = iota(b) iota(a) holds for any transpose-like gather, whatever
    # its signs and factors, and the sampled suite reads the integer gather:
    # only this pins the symbolic one
    alg = build()
    a, = generic_matrices(alg.n, "a", alg.field.sqrt if alg.field else None)
    assert alg.involute(a) == oracle_involute(alg, a)


@settings(max_examples=300, deadline=None)
@given(st.one_of(algebra_and_matrix(), algebra_and_matrix(mixed=True)))
def test_involute_matches_multiplied_out_form(case):
    alg, a = case
    assert_same(involute(alg, a), oracle_involute(alg, a))


@settings(max_examples=150, deadline=None)
@given(algebra_and_matrix())
def test_transform_matches_two_product_formula(case):
    alg, r = case
    x = mat_scale(Fraction(1, 2), mat_sub(r, oracle_involute(alg, r)))
    try:
        want = oracle_transform(alg, x)
    except DegenerateError as exc:
        with pytest.raises(DegenerateError, match=re.escape(str(exc))):
            cayley_transform_of_skew(alg, x)
        return
    a = cayley_transform_of_skew(alg, x)
    assert_same(a, want)
    assert_same(cayley_transform(alg, a), oracle_transform(alg, a))


def test_transform_of_int_entries_matches_two_product_formula():
    alg = symplectic_alg(2)
    a = ((0, 1), (-1, 0))
    assert_same(cayley_transform(alg, a), oracle_transform(alg, a))
    x = ((1, 2), (3, -1))
    assert_same(cayley_transform_of_skew(alg, x), oracle_transform(alg, x))


K2 = QuadField(2)


@pytest.mark.parametrize("alg, a, skew", [
    (orthogonal_alg(2), ((Fraction(-1), Fraction(0)), (Fraction(0), Fraction(-1))), False),
    (symplectic_alg(2), ((Fraction(-1), Fraction(0)), (Fraction(0), Fraction(1))), True),
    (unitary_alg(2, 2, (1, -1)), ((K2.zero, K2.one), (K2.one, K2.zero)), True),
    (unitary_alg(2, 2), ((-K2.one, K2.zero), (K2.zero, -K2.one)), False),
])
def test_singular_one_plus_a_is_named(alg, a, skew):
    with pytest.raises(DegenerateError, match=r"^1 \+ a is singular \(exceptional locus\)$"):
        oracle_transform(alg, a)
    fn = cayley_transform_of_skew if skew else cayley_transform
    with pytest.raises(DegenerateError, match=r"^1 \+ a is singular \(exceptional locus\)$"):
        fn(alg, a)


def test_non_unit_signs_keep_working():
    alg = orthogonal_alg(3, (1, 2, -3))
    rng = random.Random(3)
    for _ in range(5):
        a = alg.random_group_point(rng)
        assert alg.is_group_point(a)
        assert mat_eq(cayley_transform_of_skew(alg, cayley_transform(alg, a)), a)


# -- forms ------------------------------------------------------------------

@pytest.mark.parametrize("involution, form", [
    ("transpose-form", ((1, 1), (1, 2))),
    ("transpose-form", ((1, 0), (0, 0))),
    ("symplectic", ((0, 1, 1), (-1, 0, 0), (-1, 0, 0))),
    ("hermitian-form", ((F.one, F.sqrt), (-F.sqrt, F.one))),
])
def test_form_must_be_monomial(involution, form):
    with pytest.raises(StructureError, match="monomial") as info:
        MatrixAlg(n=len(form), involution=involution, form=form)
    assert "congruent to a diagonal one" in str(info.value)


def test_form_must_be_n_by_n():
    with pytest.raises(StructureError, match="form must be 3x3"):
        MatrixAlg(n=3, involution="transpose-form", form=identity(2))
    with pytest.raises(StructureError, match="form must be 2x2"):
        MatrixAlg(n=2, involution="transpose-form", form=((1, 0), (0,)))


def test_form_kind_still_checked_first():
    with pytest.raises(StructureError, match="symmetric"):
        MatrixAlg(n=2, involution="transpose-form", form=((1, 2), (3, 1)))
    with pytest.raises(StructureError, match="antisymmetric"):
        MatrixAlg(n=2, involution="symplectic", form=((0, 1), (1, 0)))
    with pytest.raises(StructureError, match="Hermitian"):
        MatrixAlg(n=1, involution="hermitian-form", form=((F.sqrt,),))


def test_a_hermitian_form_over_q_is_refused():
    with pytest.raises(StructureError, match="quadratic field"):
        MatrixAlg(n=2, involution="hermitian-form", form=identity(2))


def test_the_algebras_field_is_its_forms():
    # the identity over Q(sqrt(-3)) as a symmetric form: the exact check and
    # the sampled suite both run over Q(sqrt(-3)), and group points are drawn
    # with irrational entries
    assert [f.name for f in fields(MatrixAlg)] == ["n", "involution", "form"]
    alg = MatrixAlg(n=2, involution="transpose-form", form=identity(2, F.one))
    assert alg.field.d == -3
    assert orthogonal_alg(2).field is None and unitary_alg(2, -1).field.d == -1
    cert = classical_certificate("so2-over-q-sqrt-3", alg, seed=7, trials=10)
    assert cert.ok, [v.name for v in cert.failing()]
    assert mat_str(alg.random_group_point(random.Random(7))) == (
        "[-12/13+2/13*sqrt(-3), 8/13+3/13*sqrt(-3); "
        "-8/13-3/13*sqrt(-3), -12/13+2/13*sqrt(-3)]")


@pytest.mark.parametrize("build, message", [
    (lambda: symplectic_alg(0), "size must be at least 1: 0"),
    (lambda: symplectic_alg(-2), "size must be at least 1: -2"),
    (lambda: orthogonal_alg(0), "size must be at least 1: 0"),
    (lambda: orthogonal_alg(3, (1, 1)), "2 signs for size 3"),
    (lambda: orthogonal_alg(2, (1, 1, -1)), "3 signs for size 2"),
    (lambda: unitary_alg(3, -3, (1, 1)), "2 signs for size 3"),
    (lambda: unitary_alg(1, -1, (1, -1)), "2 signs for size 1"),
    (lambda: MatrixAlg(n=0, involution="transpose-form", form=()), "at least 1"),
])
def test_constructors_refuse_bad_sizes(build, message):
    with pytest.raises(StructureError, match=re.escape(message)):
        build()


def test_one_is_built_once_over_the_algebras_scalars():
    alg = unitary_alg(2, -1)
    assert alg.one is alg.one
    assert_same(alg.one, identity(2, QuadField(-1).one))
    assert_same(symplectic_alg(2).one, identity(2))


# -- pinned reports -----------------------------------------------------------
#
# The ms-stripped reports and the first sampled group point of seven classical
# algebras at seed 7, as the two-product formulas gave them.  A speedup that
# moves a byte of either fails here by name.

PINNED_GROUP_POINTS = {
    "sp4": "[-8671/13295, -8552/13295, 12448/13295, -13488/13295; "
           "-712/2659, -1747/2659, -2800/2659, 1120/2659; "
           "-7008/13295, -2496/13295, -7871/13295, -6424/13295; "
           "192/2659, -1680/2659, -440/2659, -2483/2659]",
    "so3": "[3/5, -4/5, 0; -1, -3/4, -3/4; -3/5, -9/20, -5/4]",
    "su3": "[-64674/73717+6038/73717*sqrt(-3), -4059/73717-5653/73717*sqrt(-3), "
           "-19723/147434+35261/147434*sqrt(-3); "
           "-13107/73717-5287/73717*sqrt(-3), -60701/73717+18636/73717*sqrt(-3), "
           "6651/73717-11659/73717*sqrt(-3); "
           "42745/147434+23935/147434*sqrt(-3), -23007/73717-4691/73717*sqrt(-3), "
           "-61590/73717+7282/73717*sqrt(-3)]",
    "u3gauss": "[-129363/156361+21968/156361*sqrt(-1), -2524/156361-7660/156361*sqrt(-1), "
               "-43314/156361+72734/156361*sqrt(-1); "
               "-36652/156361-10132/156361*sqrt(-1), -118185/156361+80176/156361*sqrt(-1), "
               "35636/156361-36564/156361*sqrt(-1); "
               "64110/156361+40930/156361*sqrt(-1), -62612/156361+8220/156361*sqrt(-1), "
               "-117229/156361+30544/156361*sqrt(-1)]",
    # the largest sizes of the benchmark's grid
    "so4": "[1/55, 16/55, -8/55, -52/55; 4/11, -2/11, -10/11, 1/11; "
           "-32/55, 38/55, -19/55, 14/55; 8/11, 7/11, 2/11, 2/11]",
    "su4": "[-990895435/1225654059-97441776/408551353*sqrt(-3), "
           "598680/408551353+148690048/1225654059*sqrt(-3), "
           "1028048/175093437+23374240/175093437*sqrt(-3), "
           "-57538928/1225654059+194923648/1225654059*sqrt(-3); "
           "-23356056/408551353+138303488/1225654059*sqrt(-3), "
           "-368757849/408551353-51316672/408551353*sqrt(-3), "
           "499328/58364479-2137144/175093437*sqrt(-3), "
           "-13137136/408551353+218065096/1225654059*sqrt(-3); "
           "-116486576/1225654059+106966816/1225654059*sqrt(-3), "
           "59928256/408551353+45904760/1225654059*sqrt(-3), "
           "-127639805/175093437-17786048/58364479*sqrt(-3), "
           "-187902832/1225654059+233491432/1225654059*sqrt(-3); "
           "-176259344/1225654059+67422528/408551353*sqrt(-3), "
           "-57650640/408551353+155347784/1225654059*sqrt(-3), "
           "-40410416/175093437+29071448/175093437*sqrt(-3), "
           "-807936235/1225654059-360137872/1225654059*sqrt(-3)]",
    "u4gauss": "[-12428213/21899477-11558960/21899477*sqrt(-1), "
               "-1378536/109497385+33780352/109497385*sqrt(-1), "
               "-6954608/109497385+44042656/109497385*sqrt(-1), "
               "-436624/21899477+8129024/21899477*sqrt(-1); "
               "-3257912/21899477+6419200/21899477*sqrt(-1), "
               "-80712521/109497385-35512128/109497385*sqrt(-1), "
               "3915552/109497385-4673864/109497385*sqrt(-1), "
               "-2044368/21899477+10539240/21899477*sqrt(-1); "
               "-4630096/21899477+3487200/21899477*sqrt(-1), "
               "6114336/21899477+5364312/21899477*sqrt(-1), "
               "-8670613/21899477-14608192/21899477*sqrt(-1), "
               "-5695728/21899477+7668616/21899477*sqrt(-1); "
               "-6780656/21899477+7753792/21899477*sqrt(-1), "
               "-5417072/21899477+5228392/21899477*sqrt(-1), "
               "-8806352/21899477+5696008/21899477*sqrt(-1), "
               "-7960213/21899477-11976912/21899477*sqrt(-1)]",
}
PINNED_ALGEBRAS = {
    "sp4": lambda: symplectic_alg(4),
    "so3": lambda: orthogonal_alg(3, (1, 1, -1)),
    "su3": lambda: unitary_alg(3),
    "u3gauss": lambda: unitary_alg(3, -1),
    "so4": lambda: orthogonal_alg(4),
    "su4": lambda: unitary_alg(4),
    "u4gauss": lambda: unitary_alg(4, -1),
}


ANTI_AUTOMORPHISM = "exact on generic a, b: iota(ab) = iota(b) iota(a), iota(iota(a)) = a"


def pinned_report(name):
    return {"id": name, "ok": True, "seed": 7, "term_stats": {}, "verdicts": [
        {"name": "involution-anti-automorphism", "status": "pass",
         "detail": ANTI_AUTOMORPHISM},
        {"name": "image-skewness", "status": "pass", "detail": "15 samples"},
        {"name": "round-trip", "status": "pass", "detail": "15 samples"},
        {"name": "conjugation-equivariance", "status": "pass", "detail": "15 samples"},
    ]}


@pytest.mark.parametrize("name", sorted(PINNED_ALGEBRAS))
def test_classical_report_is_pinned(name):
    alg = PINNED_ALGEBRAS[name]()
    report = classical_certificate(name, alg, seed=7, trials=15).to_dict()
    report.pop("ms")
    assert report == pinned_report(name)
    assert mat_str(alg.random_group_point(random.Random(7))) == PINNED_GROUP_POINTS[name]
