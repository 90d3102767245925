from fractions import Fraction
import json
import os
import random
import sys

import pytest

from jacobi_bfv.scalar import Chart, ScalarExpr
from jacobi_bfv.ghost import (GhostMonomial, GradedFunction, Section, ONE_MONO,
                              mono_mul)
from jacobi_bfv.multideriv import (
    M, d_letter, e_letter, f_letter, letter_odd, sort_word, MultiDerivation,
    evaluate, sj_bracket, build_G)
from jacobi_bfv import contraction
from jacobi_bfv.contraction import (
    ConnectionSpec, imm_i_nabla, to_twisted, proj_p,
    _h_twist, homotopy_H_nabla, BrstContraction, hpl_deform)
from jacobi_bfv.models import t5_contact
from jacobi_bfv.cli import parse_scenario
from jacobi_bfv.solver import lift_jacobi
from oracles import (twisted_weight_parts, twist_by_occurrence,
                     _conn_image_by_pair, hpl_dif_by_series, koszul_dif)
from conftest import (t5_chart, random_scalar, rng_for, random_ghost_fun,
                      random_md, random_connection, random_plain_md,
                      random_base_scalar, random_reduced_section, _same_terms)

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "perfbench"))

CH = t5_chart()
RANK = 2
G = build_G(CH, RANK)
FLAT = ConnectionSpec(CH, RANK)
MODEL = t5_contact()


def d_G(D):
    return sj_bracket(G, D)


def Jhat():
    return G + imm_i_nabla(MODEL.J, FLAT)


def test_flat_image_of_m():
    one = ScalarExpr.number(CH, 1)
    D = MultiDerivation(CH, RANK, {(ONE_MONO, (M,), 1): one})
    expect = D
    for A in range(RANK):
        expect = expect + MultiDerivation(CH, RANK, {
            (GhostMonomial((A,), ()), (e_letter(A),), 1): -one})
    assert imm_i_nabla(D, FLAT) == expect
    # coordinate letters are untouched by the flat trivial connection
    E = MultiDerivation(CH, RANK, {(ONE_MONO, (d_letter("phi2"),), 1): one})
    assert imm_i_nabla(E, FLAT) == E


def test_connection_terms_of_m():
    # one vertical entry: the frame letter picks up a ghost/e term with
    # the entry itself and an antighost/f term with transposed indices
    one = ScalarExpr.number(CH, 1)
    w = ScalarExpr.sin(CH, "phi3")
    conn = ConnectionSpec(CH, RANK, vert={(0, 1): w})
    D = MultiDerivation(CH, RANK, {(ONE_MONO, (M,), 1): one})
    expect = imm_i_nabla(D, FLAT) \
        + MultiDerivation(CH, RANK, {
            (GhostMonomial((1,), ()), (e_letter(0),), 1): w}) \
        + MultiDerivation(CH, RANK, {
            (GhostMonomial((), (0,)), (f_letter(1),), 1): -w})
    assert imm_i_nabla(D, conn) == expect


def test_twist_roundtrip():
    rng = rng_for("contr-roundtrip")
    for trial in range(12):
        conn = random_connection(rng, CH, RANK)
        D = random_md(rng, CH, RANK, rng.randint(1, 2))
        assert imm_i_nabla(to_twisted(D, conn), conn) == D
        assert to_twisted(imm_i_nabla(D, conn), conn) == D


def seeded_connection(rng, unit_diagonal):
    """A connection with vert and coef entries; with unit_diagonal one
    vert entry (A, A) is 1, so the m image loses its g^A e_A term."""
    vert, coef = {}, {}
    for _ in range(rng.randint(1, 3)):
        vert[(rng.randrange(RANK), rng.randrange(RANK))] = \
            random_scalar(rng, CH, max_terms=2)
    if unit_diagonal:
        vert[(rng.randrange(RANK),) * 2] = 1
    for _ in range(rng.randint(1, 4)):
        key = (rng.choice(["phi1", "phi3", "y1"]), rng.randrange(RANK),
               rng.randrange(RANK))
        coef[key] = random_scalar(rng, CH, max_terms=2)
    return ConnectionSpec(CH, RANK, vert, coef)


def repeated_letter_md(rng):
    """A random operator of arity 2-3 over a few letters, so that letters
    recur within a word and across terms."""
    letters = [M, d_letter("phi1"), d_letter("phi3"), d_letter("y1"),
               e_letter(0), e_letter(1), f_letter(0), f_letter(1)]
    fr = rng.randint(0, 1)
    terms = {}
    for _ in range(rng.randint(3, 6)):
        sgn, word = sort_word(tuple(rng.choice(letters)
                                    for _ in range(rng.randint(2, 3))), CH)
        mono = GhostMonomial(
            tuple(sorted(rng.sample(range(RANK), rng.randint(0, 1)))),
            tuple(sorted(rng.sample(range(RANK), rng.randint(0, 1)))))
        c = random_scalar(rng, CH, max_terms=2)
        if sgn and not c.is_zero():
            terms[(mono, word, fr)] = c.scale(sgn)
    return MultiDerivation(CH, RANK, terms)


def test_twist_matches_occurrence_oracle():
    # one image per distinct letter, summed into one dict, gives the
    # operator the occurrence-by-occurrence substitution gives
    rng = rng_for("contr-twist-oracle")
    seen = {"unit-diagonal": 0, "coef-hit": 0, "repeat-in-word": 0,
            "repeat-across-terms": 0}
    nonzero = 0
    for trial in range(30):
        conn = seeded_connection(rng, unit_diagonal=trial % 2 == 0)
        D = repeated_letter_md(rng)
        got_imm, got_tw = imm_i_nabla(D, conn), to_twisted(D, conn)
        assert got_imm == twist_by_occurrence(D, conn, 1)
        assert got_tw == twist_by_occurrence(D, conn, -1)
        nonzero += not got_imm.is_zero()
        words = [w for (_, w, _) in D.terms]
        letters = [ell for w in words for ell in w]
        seen["unit-diagonal"] += any(A == B and c == 1
                                     for (A, B), c in conn.vert.items())
        seen["coef-hit"] += any(d_letter(i) in letters
                                for (i, _, _) in conn.coef)
        seen["repeat-in-word"] += any(len(set(w)) < len(w) for w in words)
        seen["repeat-across-terms"] += len(set(letters)) < len(letters)
    assert nonzero >= 20
    assert min(seen.values()) >= 5, seen


def test_twist_builds_each_letter_image_once(monkeypatch):
    # one image per distinct m or d_i letter per call; e and f letters
    # stay put, so none of theirs is built
    calls = []
    image = contraction._conn_image

    def counted(ell, conn, sign):
        calls.append(ell)
        return image(ell, conn, sign)

    monkeypatch.setattr(contraction, "_conn_image", counted)
    rng = rng_for("contr-twist-count")
    for trial in range(8):
        conn = seeded_connection(rng, unit_diagonal=True)
        D = repeated_letter_md(rng)
        letters = {ell for (_, w, _) in D.terms for ell in w
                   if ell[0] in ("m", "d")}
        for substitute in (imm_i_nabla, to_twisted):
            calls.clear()
            substitute(D, conn)
            assert sorted(calls) == sorted(letters)


# -- the direct expansion at rank 3 ---------------------------------

CH3 = Chart(["x1", "x2", "y1", "y2", "y3"], angular=["x1"],
            fiber=["y1", "y2", "y3"])
ODD3 = [M] + [d_letter(x) for x in CH3.coords]
EVEN3 = [e_letter(A) for A in range(3)] + [f_letter(A) for A in range(3)]


def colliding_connection(rng, unit_diagonal):
    """A rank-3 connection on CH3 whose m and d_i corrections share a
    hot ghost index, so that products of two corrections often repeat
    it; with unit_diagonal one vert entry (A, A) is 1."""
    hot = rng.randrange(3)
    vert = {(rng.randrange(3), hot): random_scalar(rng, CH3, max_terms=2)}
    coef = {}
    for x in rng.sample(CH3.coords, 3):
        coef[(x, rng.randrange(3), hot)] = random_scalar(rng, CH3, max_terms=2)
        coef[(x, hot, rng.randrange(3))] = random_scalar(rng, CH3, max_terms=2)
    if unit_diagonal:
        vert[(rng.randrange(3),) * 2] = 1
    return ConnectionSpec(CH3, 3, vert, coef)


def rank3_md(rng, fr):
    """Terms of up to 4 odd letters and up to 2 e/f letters, with ghost
    monomials of up to one ghost and one anti-ghost."""
    terms = {}
    for _ in range(rng.randint(2, 5)):
        odd = rng.sample(ODD3, rng.randint(0, 4))
        even = [rng.choice(EVEN3) for _ in range(rng.randint(0, 2))]
        sgn, word = sort_word(tuple(odd + even), CH3)
        mono = GhostMonomial(tuple(rng.sample(range(3), rng.randint(0, 1))),
                             tuple(rng.sample(range(3), rng.randint(0, 1))))
        c = random_scalar(rng, CH3, max_terms=2)
        if not c.is_zero():
            terms[(mono, word, fr)] = c.scale(sgn)
    return MultiDerivation(CH3, 3, terms)


def correction_choices(D, conn, sign):
    """(surviving, killed): over every term of D and every choice, letter
    by letter, of keeping an m or d_i letter or taking one of its
    corrections (from the oracle's by-pair images), the correction
    choices whose ghost monomial mono_mul keeps or kills."""
    survived = killed = 0
    for mono, word, _ in D.terms:
        monos = [mono]
        for ell in filter(letter_odd, word):
            image = _conn_image_by_pair(ell, conn, sign)
            gens = [g for g, w, _ in image.terms if w != (ell,)]
            grown = list(monos)
            for m in monos:
                for g in gens:
                    s, m2 = mono_mul(m, g)
                    if s:
                        survived += 1
                        grown.append(m2)
                    else:
                        killed += 1
            monos = grown
    return survived, killed


def test_direct_expansion_matches_occurrence_oracle_at_rank_3():
    # words of up to 4 odd letters plus e/f letters, both frame flags,
    # corrections that collide on a ghost index: the same terms and
    # stored coefficient types as the letter-by-letter products
    rng = rng_for("contr-rank3-oracle")
    seen = {"fr0": 0, "fr1": 0, "four-odd": 0, "killed": 0, "unit": 0,
            "nonzero": 0}
    for trial in range(24):
        fr = trial % 2
        conn = colliding_connection(rng, unit_diagonal=trial % 3 == 0)
        D = rank3_md(rng, fr)
        for substitute, sign in ((imm_i_nabla, 1), (to_twisted, -1)):
            got = substitute(D, conn)
            assert _same_terms(got, twist_by_occurrence(D, conn, sign))
        seen["fr%d" % fr] += 1
        seen["four-odd"] += any(sum(map(letter_odd, w)) == 4
                                for _, w, _ in D.terms)
        seen["killed"] += correction_choices(D, conn, 1)[1] > 0
        seen["unit"] += trial % 3 == 0
        seen["nonzero"] += not got.is_zero()
    assert min(seen.values()) >= 6, seen


def test_substitution_multiplies_only_chosen_corrections(monkeypatch):
    # one ring product per correction choice that survives mono_mul; a
    # kept letter, an e/f letter and a killed choice make none
    calls = []
    mul = ScalarExpr.__mul__

    def counted(self, other):
        calls.append(1)
        return mul(self, other)

    monkeypatch.setattr(ScalarExpr, "__mul__", counted)
    rng = rng_for("contr-rank3-products")
    flat = ConnectionSpec(CH3, 3)
    plain_d = MultiDerivation(CH3, 3, {
        (ONE_MONO, (d_letter("x1"), d_letter("y2"), e_letter(0)), 1):
        ScalarExpr.coord(CH3, "x2")})
    calls.clear()
    assert imm_i_nabla(plain_d, flat) == plain_d and not calls
    for trial in range(12):
        conn = colliding_connection(rng, unit_diagonal=trial % 2 == 0)
        D = rank3_md(rng, trial % 2)
        for substitute, sign in ((imm_i_nabla, 1), (to_twisted, -1)):
            expect, _ = correction_choices(D, conn, sign)
            calls.clear()
            substitute(D, conn)
            assert len(calls) == expect


def test_substitution_matches_oracle_on_lift_curved_inputs(tmp_path):
    # every R and every homotopy output of the lift-curved shapes at
    # value seed 1, the inputs of the benchmark workload, both ways
    import gen
    import workloads
    vals = random.Random(1)
    seen = 0
    for n, r, curved, sid in workloads.LIFT_CASES:
        label = "n%d-r%d-c%d/%d" % (n, r, curved, sid)
        doc = gen.poisson_lift(random.Random("lift/" + label), vals, n, r,
                               curved)
        path = tmp_path / (label.replace("/", "-") + ".json")
        path.write_text(json.dumps(doc))
        spec = parse_scenario(str(path))
        _, trace = lift_jacobi(spec.J, spec.conn, spec.max_iter)
        for step in trace:
            R = step["residual"]
            for X in (R, homotopy_H_nabla(R, spec.conn)):
                for substitute, sign in ((imm_i_nabla, 1), (to_twisted, -1)):
                    assert _same_terms(substitute(X, spec.conn),
                                       twist_by_occurrence(X, spec.conn, sign))
                seen += 1
    assert seen >= 30


def test_substitution_checks_its_connection_first():
    # a rank-1 operator with a rank-2 connection, a foreign operator and
    # a foreign connection are refused before any letter is substituted
    one1 = MultiDerivation(CH, 1, {(ONE_MONO, (M,), 1): ScalarExpr.one(CH)})
    conn = ConnectionSpec(CH, RANK, vert={(0, 1): 1})
    for substitute in (imm_i_nabla, to_twisted, homotopy_H_nabla):
        with pytest.raises(ValueError, match="rank of J, 1, got rank 2"):
            substitute(one1, conn)
        with pytest.raises(ValueError, match="J is a MultiDerivation"):
            substitute("x", conn)
        with pytest.raises(ValueError, match="is a ConnectionSpec"):
            substitute(MODEL.J, "flat")


def test_lift_section_and_closure():
    # proj_p recovers the plain operator and the lift is d_G-closed
    rng = rng_for("contr-lift")
    for trial in range(12):
        conn = random_connection(rng, CH, RANK)
        P = random_plain_md(rng, CH, RANK, rng.randint(1, 2))
        lifted = imm_i_nabla(P, conn)
        assert proj_p(lifted) == P
        assert d_G(lifted).is_zero()


def test_weight_commutator():
    # the unnormalized twist homotopy brackets with d_G to the weight
    # operator; this is what makes the 1/k normalization work
    def Htilde(D, conn):
        return imm_i_nabla(_h_twist(to_twisted(D, conn)), conn)

    def weight_op(D, conn):
        out = MultiDerivation.zero(CH, RANK)
        for k, part in twisted_weight_parts(to_twisted(D, conn)).items():
            out = out + imm_i_nabla(part, conn).scale(k)
        return out

    rng = rng_for("contr-weight")
    seen_nonzero = 0
    for trial in range(10):
        conn = random_connection(rng, CH, RANK)
        D = random_md(rng, CH, RANK, rng.randint(1, 2))
        lhs = d_G(Htilde(D, conn)) + Htilde(d_G(D), conn)
        rhs = weight_op(D, conn)
        assert lhs == rhs
        if not rhs.is_zero():
            seen_nonzero += 1
    assert seen_nonzero >= 3


def test_connection_homotopy_identity():
    rng = rng_for("contr-hom1")
    for trial in range(10):
        conn = random_connection(rng, CH, RANK)
        D = random_md(rng, CH, RANK, rng.randint(1, 2))

        def H(X):
            return homotopy_H_nabla(X, conn)

        assert imm_i_nabla(proj_p(D), conn) - D == d_G(H(D)) + H(d_G(D))
        # one pass equals the sum over weight parts, each scaled by -1/k
        parts = MultiDerivation.zero(CH, RANK)
        for k, part in twisted_weight_parts(to_twisted(D, conn)).items():
            if k:
                parts = parts + imm_i_nabla(_h_twist(part), conn).scale(
                    Fraction(-1, k))
        assert H(D) == parts
        assert H(H(D)).is_zero()
        assert proj_p(H(D)).is_zero()
        P = random_plain_md(rng, CH, RANK, rng.randint(1, 2))
        assert H(imm_i_nabla(P, conn)).is_zero()


def test_koszul_homotopy_values():
    con = BrstContraction(CH, RANK, (0, 0))
    mu = Section.frame(CH, RANK)
    y1 = ScalarExpr.coord(CH, "y1")
    got = con.homotopy(Section(mu.fun.scale(y1)))
    assert str(got) == "(-1) xi*_1 mu"
    got = con.homotopy(Section(
        GradedFunction.ghost(CH, RANK, 0).ghost_mul(mu.fun.scale(y1))))
    assert str(got) == "(1) xi^1 xi*_1 mu"


def test_koszul_homotopy_identity():
    rng = rng_for("contr-hom2")
    for trial in range(10):
        s = tuple(random_base_scalar(rng, CH, 2) for _ in range(RANK))
        con = BrstContraction(CH, RANK, s)
        dop = koszul_dif(con)

        def d(lam):
            return evaluate(dop, [lam])

        lam = Section(random_ghost_fun(rng, CH, RANK))
        lhs = con.imm(con.proj(lam)) - lam
        assert lhs == d(con.homotopy(lam)) + con.homotopy(d(lam))
        assert con.homotopy(con.homotopy(lam)).is_zero()
        assert con.proj(con.homotopy(lam)).is_zero()
        red = con.proj(lam)
        assert con.homotopy(con.imm(red)).is_zero()
        assert con.proj(con.imm(red)) == red
        assert d(d(lam)).is_zero()


def _taylor_homotopy(con, sec):
    """Reference Koszul homotopy: the Taylor series of dc/dy_A about the
    section, one multi-index alpha at a time, each term divided by
    alpha! (|alpha| + |T| + 1)."""
    from itertools import product
    from math import factorial
    chart, rank = con.chart, con.rank
    ymap = dict(zip(chart.fiber, con.section))
    out = Section.zero(chart, rank)
    for mono, c in sec.fun.terms.items():
        S, T = mono.g, mono.a
        for A in range(rank):
            if A in T:
                continue
            dfa = c.partial(chart.fiber[A])
            bound = dfa.max_degree(chart.fiber)
            total = ScalarExpr.zero(chart)
            for alpha in product(range(bound + 1), repeat=rank):
                if sum(alpha) > bound:
                    continue
                g, fact = dfa, 1
                poly = ScalarExpr.one(chart)
                for B in range(rank):
                    fact *= factorial(alpha[B])
                    for _ in range(alpha[B]):
                        g = g.partial(chart.fiber[B])
                    yB = ScalarExpr.coord(chart, chart.fiber[B]) \
                        - con.section[B]
                    poly = poly * yB ** alpha[B]
                total = total + (g.substitute(ymap) * poly).scale(
                    Fraction(1, (sum(alpha) + len(T) + 1) * fact))
            sgn = (-1) ** (len(S) + sum(1 for B in T if B < A))
            out = out + Section(GradedFunction(chart, rank, {
                GhostMonomial(S, tuple(sorted(T + (A,)))): total.scale(-sgn)}))
    return out


def test_koszul_homotopy_matches_taylor_series():
    abstract = t5_chart(abstract=True)
    rng = rng_for("contr-taylor")
    deep = 0
    for trial in range(16):
        chart = abstract if trial % 2 else CH
        s = (0,)
        while not all(s):
            s = tuple(random_base_scalar(rng, chart, 2) for _ in range(RANK))
        if chart.funcs:
            s = tuple(c + ScalarExpr.func(chart, f)
                      for c, f in zip(s, sorted(chart.funcs)))
        con = BrstContraction(chart, RANK, s)
        terms = {}
        for j in range(3):
            c = random_scalar(rng, chart, max_terms=3, max_pow=3,
                              allow_abstract=True)
            if j == 0:  # fiber degree >= 2 in at least one coefficient
                c = (c + 1) * ScalarExpr.coord(chart, rng.choice(chart.fiber)) \
                    * ScalarExpr.coord(chart, rng.choice(chart.fiber))
            mono = GhostMonomial(
                tuple(sorted(rng.sample(range(RANK), rng.randint(0, RANK)))),
                tuple(sorted(rng.sample(range(RANK), rng.randint(0, 1)))))
            if c:
                terms[mono] = terms[mono] + c if mono in terms else c
        lam = Section(GradedFunction(chart, RANK, terms))
        deep += any(c.max_degree(chart.fiber) >= 2
                    for c in lam.fun.terms.values())
        assert con.homotopy(lam) == _taylor_homotopy(con, lam)
    assert deep == 16


def test_section_must_be_basic():
    y1 = ScalarExpr.coord(CH, "y1")
    with pytest.raises(ValueError, match="functions on the base"):
        BrstContraction(CH, RANK, (y1, 0))
    with pytest.raises(ValueError, match="2 components, got 1"):
        BrstContraction(CH, RANK, (0,))


@pytest.mark.parametrize("vert, coef, match", [
    ({(0, 2): 1}, None, "out of range"),
    ({(-1, 0): 1}, None, "out of range"),
    (None, {("phi1", 0, 2): 1}, "out of range"),
    (None, {("zz", 0, 1): 1}, "unknown coordinate 'zz'"),
])
def test_connection_entries_are_checked(vert, coef, match):
    with pytest.raises(ValueError, match=match):
        ConnectionSpec(CH, RANK, vert, coef)


def test_hpl_recovers_plain_bracket():
    # perturbing the ghost pairing differential by the rest of the lift
    # transfers to bracketing with the original operator downstairs
    JH = Jhat()
    hpl = hpl_deform(lambda X: imm_i_nabla(X, FLAT), proj_p,
                     lambda X: homotopy_H_nabla(X, FLAT),
                     lambda X: sj_bracket(JH - G, X))
    mu = Section.frame(CH, RANK)
    probes = [MultiDerivation.from_section(mu)]
    for nm in ("phi1", "phi4", "y1"):
        probes.append(MultiDerivation.from_section(
            Section(GradedFunction.scalar(CH, RANK, ScalarExpr.coord(CH, nm)))))
    for P in probes:
        assert hpl.dif(P) == sj_bracket(MODEL.J, P)


def test_hpl_second_transfer():
    JH = Jhat()
    con = BrstContraction(CH, RANK, (0, 0))
    mu = Section.frame(CH, RANK)
    y1 = ScalarExpr.coord(CH, "y1")
    y2 = ScalarExpr.coord(CH, "y2")
    om = GradedFunction.ghost(CH, RANK, 0).scale(y1) + \
        GradedFunction.ghost(CH, RANK, 1).scale(y2)
    dbfv = sj_bracket(JH, MultiDerivation.from_section(Section(om)))
    d0 = koszul_dif(con)

    def dfull(lam):
        return evaluate(dbfv, [lam])

    hpl = hpl_deform(con.imm, con.proj, con.homotopy,
                     lambda lam: dfull(lam) - evaluate(d0, [lam]))

    red = CH.reduced()
    mur = Section.frame(red, RANK)
    f = ScalarExpr.coord(red, "phi1")
    assert hpl.dif(Section(mur.fun.scale(f))) == \
        Section(GradedFunction.ghost(red, RANK, 0).ghost_mul(mur.fun))
    s2 = ScalarExpr.sin(red, "phi2")
    c2 = ScalarExpr.cos(red, "phi2")
    assert hpl.dif(Section(mur.fun.scale(s2))) == \
        Section(GradedFunction.ghost(red, RANK, 1).ghost_mul(mur.fun).scale(c2))
    assert hpl.dif(Section(GradedFunction.ghost(red, RANK, 0))).is_zero()
    pair = GradedFunction.ghost(red, RANK, 0).ghost_mul(
        GradedFunction.ghost(red, RANK, 1))
    assert hpl.dif(Section(pair.ghost_mul(mur.fun))).is_zero()

    rng = rng_for("contr-hpl2")
    for trial in range(6):
        lam = Section(random_ghost_fun(rng, CH, RANK))
        r = con.proj(lam)
        assert hpl.dif(hpl.dif(r)).is_zero()
        lhs = hpl.imm(hpl.proj(lam)) - lam
        assert lhs == dfull(hpl.homotopy(lam)) + hpl.homotopy(dfull(lam))


def test_hpl_dif_matches_series_oracle():
    # a perturbation whose series reaches the reduced side: y1 d_phi1
    # adds fiber degree, the homotopy trades it for an anti-ghost, and
    # sin(phi2) f^1 takes the anti-ghost back off.  dif' runs the series
    # delta first; the oracle sums it homotopy first and applies delta
    # to the sum.
    con = BrstContraction(CH, RANK, (0, 0))
    P = MultiDerivation(CH, RANK, {
        (ONE_MONO, (d_letter("phi1"),), 1): ScalarExpr.coord(CH, "y1"),
        (ONE_MONO, (f_letter(0),), 1): ScalarExpr.sin(CH, "phi2")})

    def delta(lam):
        return evaluate(P, [lam])

    hpl = hpl_deform(con.imm, con.proj, con.homotopy, delta)
    rng = rng_for("contr-hpl-oracle")
    past_first = 0
    for trial in range(8):
        g = random_reduced_section(rng, CH.reduced(), RANK)
        want = hpl_dif_by_series(con.imm, con.proj, con.homotopy, delta, g)
        assert hpl.dif(g) == want
        past_first += want != con.proj(delta(con.imm(g)))
    assert past_first >= 3


def test_hpl_series_cap():
    con = BrstContraction(CH, RANK, (0, 0))
    mu = Section.frame(CH, RANK)
    stuck = Section(mu.fun.scale(ScalarExpr.coord(CH, "y1")))
    hpl = hpl_deform(con.imm, con.proj, con.homotopy,
                     lambda lam: stuck)
    red = CH.reduced()
    with pytest.raises(ValueError, match="did not terminate"):
        hpl.dif(Section.frame(red, RANK))
