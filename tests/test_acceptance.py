"""One check per acceptance criterion, in order.  Run with -v to get a
single pass/fail line for each.  Everything is exact normal-form
equality; nothing here is numerical."""

from fractions import Fraction

import pytest

from jacobi_bfv.scalar import Chart, ScalarExpr
from jacobi_bfv.ghost import GhostMonomial, GradedFunction, Section, ONE_MONO
from jacobi_bfv.multideriv import (
    M, d_letter, e_letter, f_letter, MultiDerivation, evaluate, sj_bracket,
    build_G, is_jacobi, jacobi_from_pair)
from jacobi_bfv.contraction import (
    ConnectionSpec, BrstContraction, imm_i_nabla, proj_p, homotopy_H_nabla,
    hpl_deform)
from jacobi_bfv.solver import (
    ObstructionError, lift_jacobi, lifting_problem, gauge_intertwine,
    brst_charge, brst_problem, exp_ad, omega_section, coisotropy_residual,
    mc_check, bfv_assemble, _generator_sections, derived_brackets)
from jacobi_bfv.models import t5_contact
from oracles import (gerstenhaber_eval_oracle, is_flat_trivial, koszul_dif,
                     tau, to_section)
from conftest import (t5_chart, rng_for, random_connection, random_plain_md,
                      random_md, random_hom_md, random_ghost_fun,
                      random_homogeneous, random_base_scalar)

MODEL = t5_contact()
CH = MODEL.chart
RANK = MODEL.rank
J = MODEL.J
FLAT = MODEL.conn

ONE = ScalarExpr.one(CH)
S3 = ScalarExpr.sin(CH, "phi3")
C3 = ScalarExpr.cos(CH, "phi3")
Y1 = ScalarExpr.coord(CH, "y1")
Y2 = ScalarExpr.coord(CH, "y2")


def mono(g=(), a=()):
    return GhostMonomial(tuple(g), tuple(a))


def test_criterion_1_golden_lifting():
    # the flat lift of the contact five-torus structure, written out
    # term group by term group
    golden = MultiDerivation(CH, RANK, {
        # bivector part touching phi3
        (ONE_MONO, (d_letter("phi3"), d_letter("phi4")), 1): C3,
        (ONE_MONO, (d_letter("phi3"), d_letter("phi5")), 1): -S3,
        # fiber scaling along the Reeb direction
        (ONE_MONO, (d_letter("phi4"), d_letter("y1")), 1): S3 * Y1,
        (ONE_MONO, (d_letter("phi4"), d_letter("y2")), 1): S3 * Y2,
        (ONE_MONO, (d_letter("phi5"), d_letter("y1")), 1): C3 * Y1,
        (ONE_MONO, (d_letter("phi5"), d_letter("y2")), 1): C3 * Y2,
        # the two transversal pairings
        (ONE_MONO, (d_letter("phi1"), d_letter("y1")), 1): -ONE,
        (ONE_MONO, (d_letter("phi2"), d_letter("y2")), 1): -ONE,
        # vector part
        (ONE_MONO, (M, d_letter("phi4")), 1): S3,
        (ONE_MONO, (M, d_letter("phi5")), 1): C3,
        # ghost corrections along the Reeb direction
        (mono(g=(0,)), (d_letter("phi4"), e_letter(0)), 1): -S3,
        (mono(g=(1,)), (d_letter("phi4"), e_letter(1)), 1): -S3,
        (mono(g=(0,)), (d_letter("phi5"), e_letter(0)), 1): -C3,
        (mono(g=(1,)), (d_letter("phi5"), e_letter(1)), 1): -C3,
        # tautological ghost pairing
        (ONE_MONO, (e_letter(0), f_letter(0)), 1): ONE,
        (ONE_MONO, (e_letter(1), f_letter(1)), 1): ONE,
    })
    Q, trace = lift_jacobi(J, FLAT)
    assert Q == golden
    assert trace == []


def test_criterion_2_golden_charge():
    Jhat, _ = lift_jacobi(J, FLAT)
    om, trace = brst_charge(Jhat, (0, 0))
    mu = Section.frame(CH, RANK)
    omega_E = Section(GradedFunction.ghost(CH, RANK, 0).ghost_mul(
        mu.fun.scale(Y1)) + GradedFunction.ghost(CH, RANK, 1).ghost_mul(
        mu.fun.scale(Y2)))
    assert om == omega_E
    assert trace == []


def test_criterion_3_golden_differential():
    bfv = bfv_assemble(J, FLAT)
    golden_op = MultiDerivation(CH, RANK, {
        (mono(g=(0,)), (d_letter("phi1"),), 1): ONE,
        (mono(g=(1,)), (d_letter("phi2"),), 1): ONE,
        (mono(g=(0,)), (d_letter("phi4"),), 1): -S3 * Y1,
        (mono(g=(1,)), (d_letter("phi4"),), 1): -S3 * Y2,
        (mono(g=(0,)), (d_letter("phi5"),), 1): -C3 * Y1,
        (mono(g=(1,)), (d_letter("phi5"),), 1): -C3 * Y2,
        (ONE_MONO, (f_letter(0),), 1): Y1,
        (ONE_MONO, (f_letter(1),), 1): Y2,
    })
    assert bfv.op == golden_op

    mu = Section.frame(CH, RANK)
    xi = [GradedFunction.ghost(CH, RANK, A) for A in range(RANK)]
    axi = [GradedFunction.antighost(CH, RANK, A) for A in range(RANK)]

    def scal(e):
        return Section(mu.fun.scale(e))

    zero = Section.zero(CH, RANK)
    table = [
        (mu, zero),
        (scal(ScalarExpr.coord(CH, "phi1")), Section(xi[0].ghost_mul(mu.fun))),
        (scal(ScalarExpr.coord(CH, "phi2")), Section(xi[1].ghost_mul(mu.fun))),
        (scal(ScalarExpr.coord(CH, "phi3")), zero),
        (scal(ScalarExpr.coord(CH, "phi4")),
         Section(xi[0].ghost_mul(mu.fun).scale(-S3 * Y1)
                 + xi[1].ghost_mul(mu.fun).scale(-S3 * Y2))),
        (scal(ScalarExpr.coord(CH, "phi5")),
         Section(xi[0].ghost_mul(mu.fun).scale(-C3 * Y1)
                 + xi[1].ghost_mul(mu.fun).scale(-C3 * Y2))),
        (scal(Y1), zero),
        (scal(Y2), zero),
        (Section(xi[0]), zero),
        (Section(xi[1]), zero),
        (Section(axi[0].ghost_mul(mu.fun)), scal(Y1)),
        (Section(axi[1].ghost_mul(mu.fun)), scal(Y2)),
    ]
    for probe, expect in table:
        assert bfv.dif(probe) == expect

    rng = rng_for("acc-3")
    for trial in range(30):
        lam = Section(random_ghost_fun(rng, CH, RANK))
        assert bfv.dif(bfv.dif(lam)).is_zero()


def test_criterion_4_residual_pde():
    ab = t5_chart(abstract=True)
    s3, c3 = ScalarExpr.sin(ab, "phi3"), ScalarExpr.cos(ab, "phi3")
    y1, y2 = ScalarExpr.coord(ab, "y1"), ScalarExpr.coord(ab, "y2")
    biv = {("phi3", "phi4"): c3, ("phi3", "phi5"): -s3,
           ("phi4", "y1"): y1 * s3, ("phi4", "y2"): y2 * s3,
           ("phi5", "y1"): y1 * c3, ("phi5", "y2"): y2 * c3,
           ("phi1", "y1"): ScalarExpr.number(ab, -1),
           ("phi2", "y2"): ScalarExpr.number(ab, -1)}
    Jab = jacobi_from_pair(ab, RANK, biv, {"phi4": s3, "phi5": c3})
    Jhat, _ = lift_jacobi(Jab, ConnectionSpec(ab, RANK))
    f1 = ScalarExpr.func(ab, "f1")
    f2 = ScalarExpr.func(ab, "f2")
    res = coisotropy_residual(Jhat, (f1, f2))

    red = ab.reduced()
    f1r, f2r = ScalarExpr.func(red, "f1"), ScalarExpr.func(red, "f2")
    sr, cr = ScalarExpr.sin(red, "phi3"), ScalarExpr.cos(red, "phi3")

    def X(f):
        return cr * f.partial("phi4") - sr * f.partial("phi5")

    def Y(f):
        return sr * f.partial("phi4") + cr * f.partial("phi5")

    pde = (f1r.partial("phi3") * X(f2r) - f2r.partial("phi3") * X(f1r)
           + f1r.partial("phi2") - f2r.partial("phi1")
           + f1r * Y(f2r) - f2r * Y(f1r))
    mur = Section.frame(red, RANK)
    expect = Section(GradedFunction.ghost(red, RANK, 0)
                     .ghost_mul(GradedFunction.ghost(red, RANK, 1))
                     .ghost_mul(mur.fun).scale(pde.scale(2)))
    assert not res.is_zero()
    assert res == expect


def test_criterion_5_contraction_suites():
    G = build_G(CH, RANK)

    def d_G(D):
        return sj_bracket(G, D)

    rng = rng_for("acc-5")
    for trial in range(50):
        conn = random_connection(rng, CH, RANK)

        def H(X):
            return homotopy_H_nabla(X, conn)

        P = random_plain_md(rng, CH, RANK, rng.randint(1, 2))
        lifted = imm_i_nabla(P, conn)
        assert proj_p(lifted) == P
        assert d_G(lifted).is_zero()
        assert H(lifted).is_zero()

        D = random_md(rng, CH, RANK, rng.randint(1, 2))
        assert imm_i_nabla(proj_p(D), conn) - D == d_G(H(D)) + H(d_G(D))
        assert H(H(D)).is_zero()
        assert proj_p(H(D)).is_zero()

        s = tuple(random_base_scalar(rng, CH, 2) for _ in range(RANK))
        con = BrstContraction(CH, RANK, s)
        dop = koszul_dif(con)

        def d(lam):
            return evaluate(dop, [lam])

        lam = Section(random_ghost_fun(rng, CH, RANK))
        assert con.imm(con.proj(lam)) - lam == \
            d(con.homotopy(lam)) + con.homotopy(d(lam))
        assert con.homotopy(con.homotopy(lam)).is_zero()
        assert con.proj(con.homotopy(lam)).is_zero()
        red = con.proj(lam)
        assert con.homotopy(con.imm(red)).is_zero()
        assert con.proj(con.imm(red)) == red


def test_criterion_6_hpl_transfers():
    Jhat, _ = lift_jacobi(J, FLAT)
    hpl1 = hpl_deform(lambda X: imm_i_nabla(X, FLAT), proj_p,
                      lambda X: homotopy_H_nabla(X, FLAT),
                      lambda X: sj_bracket(Jhat - build_G(CH, RANK), X))
    mu = Section.frame(CH, RANK)
    probes = [MultiDerivation.from_section(mu)]
    for nm in CH.coords:
        probes.append(MultiDerivation.from_section(
            Section(mu.fun.scale(ScalarExpr.coord(CH, nm)))))
    probes.append(MultiDerivation.from_section(
        Section(mu.fun.scale(ScalarExpr.sin(CH, "phi2")))))
    for P in probes:
        assert hpl1.dif(P) == sj_bracket(J, P)

    bfv = bfv_assemble(J, FLAT)
    d0 = koszul_dif(bfv.con)
    hpl2 = hpl_deform(bfv.con.imm, bfv.con.proj, bfv.con.homotopy,
                      lambda lam: bfv.dif(lam) - evaluate(d0, [lam]))
    dR = derived_brackets(J, 1)[1]
    m = derived_brackets(Jhat, 1)
    for g in _generator_sections(CH, RANK):
        want = dR(g)
        assert hpl2.dif(g) == want
        assert m[1](g) == want


def test_criterion_7_obstruction_uniqueness():
    cp = Chart(["x1", "x2", "x3", "y1", "y2"], angular=[],
               fiber=["y1", "y2"])
    one = ScalarExpr.one(cp)
    biv = {("x1", "x2"): one, ("x2", "y1"): one, ("x3", "y2"): one.scale(2)}
    Jc = jacobi_from_pair(cp, RANK, biv, {})
    assert is_jacobi(Jc)

    # a bounded search for a connection whose lift needs corrections, so
    # an engine fault fails here instead of hanging; the seeded draws
    # find one at the second try
    rng = rng_for("acceptance-7")
    trace = None
    for _ in range(20):
        conn = random_connection(rng, cp, RANK, max_entries=2)
        if is_flat_trivial(conn):
            continue
        try:
            Q1, trace = lift_jacobi(Jc, conn, 16)
        except ValueError:
            continue
        if trace:
            break
    assert trace, "no corrected lift in 20 seeded connections"
    assert sj_bracket(Q1, Q1).is_zero()
    for rec in trace:
        for (m, word, fr) in rec["correction"].terms:
            ne = sum(1 for ell in word if ell[0] == "e")
            nf = sum(1 for ell in word if ell[0] == "f")
            ng, na = len(m.g) - ne, len(m.a) - nf
            assert ng == na and 1 <= ng <= RANK

    flat = ConnectionSpec(cp, RANK)
    Q0, _ = lift_jacobi(Jc, flat, 16)
    prob = lifting_problem(Jc, flat)
    phi = gauge_intertwine(Q0, Q1, prob, 16)
    assert phi(Q0) == Q1

    om0, _ = brst_charge(Q1, (0, 0), 16)
    bprob = brst_problem(Q1, (0, 0))
    gen = GradedFunction.one(cp, RANK)
    for A in range(RANK):
        gen = gen.ghost_mul(GradedFunction.ghost(cp, RANK, A))
    for A in range(RANK):
        gen = gen.ghost_mul(GradedFunction.antighost(cp, RANK, A))
    gen = gen.scale(ScalarExpr.coord(cp, "x1"))
    om1 = exp_ad(Section(gen), om0, bprob.bracket)
    assert om0 != om1
    psi = gauge_intertwine(om0, om1, bprob, 16)
    assert psi(om0) == om1


def test_criterion_8_coisotropy_family():
    Jhat, _ = lift_jacobi(J, FLAT)
    for consts in ((Fraction(1, 2), -2), (3, 0)):
        sec = tuple(ScalarExpr.number(CH, c) for c in consts)
        assert coisotropy_residual(Jhat, sec).is_zero()
        om, _ = brst_charge(Jhat, sec)
        assert mc_check(om, Jhat)[0]
        assert om.pr_bidegree(1, 0) == omega_section(CH, RANK, sec)

    bad = (ScalarExpr.sin(CH, "phi2"), ScalarExpr.zero(CH))
    red = CH.reduced()
    mur = Section.frame(red, RANK)
    pair = GradedFunction.ghost(red, RANK, 0).ghost_mul(
        GradedFunction.ghost(red, RANK, 1)).ghost_mul(mur.fun)
    expect = Section(pair.scale(ScalarExpr.cos(red, "phi2").scale(2)))
    assert coisotropy_residual(Jhat, bad) == expect
    with pytest.raises(ObstructionError) as info:
        brst_charge(Jhat, bad)
    assert info.value.obstruction == expect


def test_criterion_9_bracket_axioms():
    rng = rng_for("acc-9")
    tested = 0
    while tested < 100:
        F = random_hom_md(rng, CH, RANK, rng.randint(0, 2))
        G = random_hom_md(rng, CH, RANK, rng.randint(0, 2))
        H = random_hom_md(rng, CH, RANK, rng.randint(0, 2))
        if F is None or G is None or H is None:
            continue
        tested += 1
        flip = (-1) ** ((tau(F) - 1) * (tau(G) - 1))
        assert sj_bracket(F, G) == sj_bracket(G, F).scale(-flip)
        lhs = sj_bracket(F, sj_bracket(G, H))
        rhs = sj_bracket(sj_bracket(F, G), H) + \
            sj_bracket(G, sj_bracket(F, H)).scale(flip)
        assert lhs == rhs

    tested = 0
    while tested < 30:
        nD, nE = rng.randint(1, 2), rng.randint(1, 2)
        D = random_hom_md(rng, CH, RANK, nD)
        E = random_hom_md(rng, CH, RANK, nE)
        if D is None or E is None:
            continue
        tested += 1
        args = [Section(random_homogeneous(rng, CH, rank=RANK))
                for _ in range(nD + nE - 1)]
        B = sj_bracket(D, E)
        lhs = evaluate(B, args) if not B.is_zero() else Section.zero(CH, RANK)
        assert lhs == gerstenhaber_eval_oracle(D, E, args)

    for trial in range(30):
        arity = rng.randint(1, 3)
        D = random_md(rng, CH, RANK, arity)
        if D.is_zero():
            continue
        args = [Section(random_ghost_fun(rng, CH, RANK, max_terms=2))
                for _ in range(arity)]
        cur = D
        for lam in args:
            cur = sj_bracket(cur, MultiDerivation.from_section(lam))
        assert to_section(cur) == evaluate(D, args)
