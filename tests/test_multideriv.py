from fractions import Fraction
import hashlib
from itertools import combinations_with_replacement, product as iproduct
import json
import os
import random
import sys

import pytest

from jacobi_bfv.scalar import Chart, ScalarExpr, add_term
from jacobi_bfv.ghost import (GhostMonomial, GradedFunction, Section, ONE_MONO,
                              mono_mul, shifted_parity)
from jacobi_bfv.multideriv import (
    M, d_letter, e_letter, f_letter, sort_word, word_parity, _letter_key,
    _term_mul, _momenta, _dR_mom, _dL_gen, _letter_apply,
    MultiDerivation, md_mul, evaluate, sj_bracket,
    build_G, is_jacobi, jacobi_from_pair, jacobi_from_words, hamiltonian,
    jacobi_bracket)
from jacobi_bfv.solver import NotJacobiError, lift_jacobi
from jacobi_bfv.models import t5_contact
from jacobi_bfv.cli import parse_scenario
from oracles import (gerstenhaber_eval_oracle, reconstruct, arity, tau,
                     op_bidegrees, to_section, evaluate_by_term,
                     term_mul_by_sort, _peel)
from conftest import (t5_chart, random_scalar, rng_for, random_ghost_fun,
                      random_homogeneous, random_md, random_hom_md,
                      all_letters)

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "perfbench"))

CH = t5_chart()
RANK = 2
ONE = ScalarExpr.one(CH)


def scalar_section(expr):
    return Section(GradedFunction.one(CH, RANK).scale(expr))


def ghost_section(A):
    return Section(GradedFunction.ghost(CH, RANK, A))


def antighost_section(B):
    return Section(GradedFunction.antighost(CH, RANK, B))


def single(word, coeff=ONE, mono=ONE_MONO, fr=1):
    s, w = sort_word(word, CH)
    assert s
    return MultiDerivation(CH, RANK, {(mono, w, fr): coeff.scale(s)})


def t5_pair():
    sin3, cos3 = ScalarExpr.sin(CH, "phi3"), ScalarExpr.cos(CH, "phi3")
    y1, y2 = ScalarExpr.coord(CH, "y1"), ScalarExpr.coord(CH, "y2")
    biv = {
        ("phi3", "phi4"): cos3,
        ("phi3", "phi5"): -sin3,
        ("phi4", "y1"): y1 * sin3,
        ("phi4", "y2"): y2 * sin3,
        ("phi5", "y1"): y1 * cos3,
        ("phi5", "y2"): y2 * cos3,
        ("phi1", "y1"): ScalarExpr.number(CH, -1),
        ("phi2", "y2"): ScalarExpr.number(CH, -1),
    }
    vec = {"phi4": sin3, "phi5": cos3}
    return biv, vec


def test_sort_word():
    w = (f_letter(0), d_letter("phi2"), M, e_letter(1))
    s, canon = sort_word(w, CH)
    assert canon == (M, d_letter("phi2"), e_letter(1), f_letter(0))
    assert s == -1  # m crosses d_phi2; even letters move freely
    s, canon = sort_word((d_letter("phi2"), M), CH)
    assert s == -1 and canon == (M, d_letter("phi2"))
    s, canon = sort_word((d_letter("y1"), d_letter("y1")), CH)
    assert s == 0 and canon is None
    s, canon = sort_word((e_letter(0), e_letter(0)), CH)
    assert s == 1  # even letters may repeat


def test_md_mul_signs():
    da = single((d_letter("phi1"),))
    db = single((d_letter("phi2"),), fr=0)
    ab = md_mul(db, da)
    assert ab == single((d_letter("phi1"), d_letter("phi2")), coeff=-ONE)
    # odd word past an odd coefficient costs a sign
    xi = MultiDerivation(CH, RANK, {(GhostMonomial((0,), ()), (), 0): ONE})
    assert md_mul(da, xi) == single((d_letter("phi1"),),
                                    mono=GhostMonomial((0,), ()), coeff=-ONE)
    assert md_mul(xi, da) == single((d_letter("phi1"),),
                                    mono=GhostMonomial((0,), ()))
    with pytest.raises(ValueError, match="two frame-valued"):
        md_mul(da, da)  # two frame flags


def test_letter_actions():
    y1 = ScalarExpr.coord(CH, "y1")
    lam = Section(GradedFunction.ghost(CH, RANK, 0).scale(y1))
    assert evaluate(single((M,), fr=0), [lam]) == lam.fun
    assert evaluate(single((d_letter("y1"),), fr=0), [lam]) == \
        GradedFunction.ghost(CH, RANK, 0)
    assert evaluate(single((e_letter(0),), fr=0), [lam]) == \
        GradedFunction.one(CH, RANK).scale(y1)
    assert evaluate(single((f_letter(0),), fr=0), [lam]).is_zero()
    # anti-ghost derivative crosses the ghost block
    lam2 = Section(GradedFunction(CH, RANK,
                                  {GhostMonomial((0,), (1,)): ONE}))
    assert evaluate(single((f_letter(1),), fr=0), [lam2]) == \
        -GradedFunction.ghost(CH, RANK, 0)


def test_evaluate_koszul_signs():
    mu = Section(GradedFunction.one(CH, RANK))
    x = scalar_section(ScalarExpr.coord(CH, "phi1"))
    D = single((M, d_letter("phi1")))
    # both arguments are odd in the shifted module; swapping them flips
    assert evaluate(D, [mu, x]) == -mu
    assert evaluate(D, [x, mu]) == mu
    G = build_G(CH, RANK)
    assert evaluate(G, [ghost_section(0), antighost_section(0)]) == mu
    assert evaluate(G, [antighost_section(0), ghost_section(0)]) == mu
    assert evaluate(G, [ghost_section(0), antighost_section(1)]).is_zero()


def test_evaluate_graded_symmetry():
    rng = rng_for("md-symmetry")
    for _ in range(25):
        D = random_md(rng, CH, RANK, 2)
        l1 = Section(random_homogeneous(rng, CH, rank=RANK))
        l2 = Section(random_homogeneous(rng, CH, rank=RANK))
        s1 = shifted_parity(next(iter(l1.fun.terms)))
        s2 = shifted_parity(next(iter(l2.fun.terms)))
        assert evaluate(D, [l1, l2]) == \
            evaluate(D, [l2, l1]).scale((-1) ** (s1 * s2))


def test_ghost_pairing_table():
    G = build_G(CH, RANK)
    ident = single((M,))
    assert sj_bracket(G, ident) == G
    assert sj_bracket(G, G).is_zero()
    assert sj_bracket(ident, ident).is_zero()
    for A in range(RANK):
        up = sj_bracket(G, MultiDerivation.from_section(ghost_section(A)))
        assert up == single((f_letter(A),))
        down = sj_bracket(G, MultiDerivation.from_section(antighost_section(A)))
        assert down == single((e_letter(A),))


def test_bracket_against_coordinate_derivations():
    f = ScalarExpr.sin(CH, "phi3") * ScalarExpr.coord(CH, "y1")
    fmu = MultiDerivation.from_section(scalar_section(f))
    Di = single((d_letter("phi3"),))
    assert sj_bracket(Di, fmu) == \
        MultiDerivation.from_section(scalar_section(f.partial("phi3")))
    ident = single((M,))
    assert sj_bracket(ident, fmu) == fmu


def test_bracket_antisymmetry_and_jacobi():
    rng = rng_for("md-axioms")
    tested = 0
    while tested < 100:
        F = random_hom_md(rng, CH, RANK, rng.randint(0, 2))
        G = random_hom_md(rng, CH, RANK, rng.randint(0, 2))
        H = random_hom_md(rng, CH, RANK, rng.randint(0, 2))
        if F is None or G is None or H is None:
            continue
        tested += 1
        tF, tG = tau(F), tau(G)
        flip = (-1) ** ((tF - 1) * (tG - 1))
        assert sj_bracket(F, G) == sj_bracket(G, F).scale(-flip)
        lhs = sj_bracket(F, sj_bracket(G, H))
        rhs = sj_bracket(sj_bracket(F, G), H) + \
            sj_bracket(G, sj_bracket(F, H)).scale(flip)
        assert lhs == rhs


def test_bracket_matches_eval_oracle():
    rng = rng_for("md-oracle")
    tested = 0
    while tested < 40:
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


def test_evaluate_iterated_bracket_bridge():
    rng = rng_for("md-bridge")
    for _ in range(40):
        arity = rng.randint(1, 3)
        D = random_md(rng, CH, RANK, arity)
        if D.is_zero():
            continue
        args = [Section(random_ghost_fun(rng, CH, rank=RANK, max_terms=2))
                for _ in range(arity)]
        cur = D
        for lam in args:
            cur = sj_bracket(cur, MultiDerivation.from_section(lam))
        assert to_section(cur) == evaluate(D, args)


def test_t5_pair_is_jacobi():
    biv, vec = t5_pair()
    J = jacobi_from_pair(CH, RANK, biv, vec)
    assert is_jacobi(J)
    assert arity(J) == 2 and J.frame() == 1


def test_broken_pair_raises():
    # the builder brackets nothing; the lift rejects the pair with [[J, J]]
    biv, vec = t5_pair()
    biv[("phi3", "phi4")] = ScalarExpr.sin(CH, "phi3")
    J = jacobi_from_pair(CH, RANK, biv, vec)
    assert not is_jacobi(J)
    with pytest.raises(NotJacobiError) as err:
        lift_jacobi(J, t5_contact().conn)
    assert err.value.residual == sj_bracket(J, J)
    assert not err.value.residual.is_zero()


def test_jacobi_from_words_orders_signs_and_merges():
    # words in any order carry their Koszul sign, a repeated odd letter
    # drops the term, repeated words add up, and numbers are accepted
    biv, vec = t5_pair()
    want = jacobi_from_pair(CH, RANK, biv, vec)
    words = []
    for (i, j), c in biv.items():
        words.append(((d_letter(j), d_letter(i)), -c.scale(Fraction(1, 3))))
        words.append(((d_letter(i), d_letter(j)), c.scale(Fraction(2, 3))))
    for i, c in vec.items():
        words.append(((d_letter(i), M), -c))
    words += [((d_letter("phi1"), d_letter("phi1")), ONE),
              ((M, M), ScalarExpr.sin(CH, "phi2")),
              ((M, d_letter("phi2")), 3), ((d_letter("phi2"), M), 3)]
    assert jacobi_from_words(CH, RANK, reversed(words)) == want
    assert jacobi_from_words(CH, RANK, []).is_zero()


def test_jacobi_from_words_raises_with_the_bracket():
    biv, vec = t5_pair()
    words = [((d_letter(i), d_letter(j)), c) for (i, j), c in biv.items()]
    words.append(((M, d_letter("phi4")), ScalarExpr.sin(CH, "phi3")))
    words.append(((d_letter("phi5"), M), ScalarExpr.cos(CH, "phi1")))
    J = MultiDerivation(CH, RANK, {
        (ONE_MONO, w, 1): c for w, c in words[:-1]})
    J = J + single((M, d_letter("phi5")), -ScalarExpr.cos(CH, "phi1"))
    built = jacobi_from_words(CH, RANK, words)
    assert built == J and not is_jacobi(built)
    with pytest.raises(NotJacobiError) as err:
        lift_jacobi(built, t5_contact().conn)
    assert err.value.residual == sj_bracket(J, J)
    assert not err.value.residual.is_zero()


@pytest.mark.parametrize("key", [("phi3", "phi3"), ("phi4", "phi3"),
                                 ("zz", "phi1"), ("phi1", "zz")])
def test_pair_keys_must_be_ordered(key):
    with pytest.raises(ValueError, match="two distinct coordinates"):
        jacobi_from_pair(CH, RANK, {key: ScalarExpr.one(CH)}, {})


@pytest.mark.parametrize("letter", [e_letter(0), e_letter(7), f_letter(1),
                                    d_letter("zz"), ("q",), "m"])
def test_structure_letters_are_m_or_coordinates(letter):
    with pytest.raises(ValueError, match="structure letters"):
        jacobi_from_words(CH, RANK, [((d_letter("phi1"), letter), ONE)])
    with pytest.raises(ValueError, match="structure letters"):
        jacobi_from_words(CH, RANK, [((letter,), 1)])
    if letter[0] == "d":
        with pytest.raises(ValueError, match="structure letters"):
            jacobi_from_pair(CH, RANK, {}, {letter[1]: ONE})


@pytest.mark.parametrize("key, match", [
    ((ONE_MONO, (d_letter("phi1"),), 2), "frame flag"),
    ((ONE_MONO, (), -1), "frame flag"),
    ((GhostMonomial((5,), ()), (), 1), "ghost index 5"),
    ((GhostMonomial((0,), (2,)), (), 0), "ghost index 2"),
    ((ONE_MONO, (e_letter(5),), 1), "letter"),
    ((ONE_MONO, (f_letter(-1),), 1), "letter"),
    ((ONE_MONO, (d_letter("zz"),), 1), "letter"),
    ((ONE_MONO, (("q", 0),), 1), "letter"),
    ((ONE_MONO, (d_letter("phi2"), d_letter("phi1")), 1), "not canonical"),
    ((ONE_MONO, (M, M), 1), "not canonical"),
    ((ONE_MONO, (f_letter(0), e_letter(0)), 1), "not canonical"),
])
def test_constructor_rejects_bad_keys(key, match):
    with pytest.raises(ValueError, match=match):
        MultiDerivation(CH, RANK, {key: ONE})
    # a zero coefficient is dropped before any check
    assert MultiDerivation(CH, RANK, {key: ScalarExpr.zero(CH)}).is_zero()


def test_bracket_of_two_functions_is_rejected():
    D = single((d_letter("phi1"),), fr=0)
    E = single((), coeff=ScalarExpr.coord(CH, "phi1"), fr=0)
    with pytest.raises(ValueError, match="two function-valued operators"):
        sj_bracket(D, E)
    # with no term landing below frame flag 0 the bracket is allowed
    assert sj_bracket(single((), fr=0), E).is_zero()


def test_jacobi_bracket_values():
    biv, vec = t5_pair()
    J = jacobi_from_pair(CH, RANK, biv, vec)
    one = scalar_section(ONE)
    phi1 = scalar_section(ScalarExpr.coord(CH, "phi1"))
    y1s = scalar_section(ScalarExpr.coord(CH, "y1"))
    assert jacobi_bracket(phi1, y1s, J) == scalar_section(-ONE)
    # the bracket with the unit recovers the vector-field part
    g = scalar_section(ScalarExpr.sin(CH, "phi4"))
    assert jacobi_bracket(one, g, J) == \
        scalar_section(ScalarExpr.sin(CH, "phi3") * ScalarExpr.cos(CH, "phi4"))


def test_jacobi_bracket_matches_direct_formula():
    biv, vec = t5_pair()
    J = jacobi_from_pair(CH, RANK, biv, vec)
    rng = rng_for("md-pair-formula")
    for _ in range(20):
        f = random_scalar(rng, CH)
        g = random_scalar(rng, CH)
        want = ScalarExpr.zero(CH)
        for (i, j), lam in biv.items():
            want = want + lam * (f.partial(i) * g.partial(j)
                                 - f.partial(j) * g.partial(i))
        for i, gam in vec.items():
            want = want + f * (gam * g.partial(i)) - g * (gam * f.partial(i))
        got = jacobi_bracket(scalar_section(f), scalar_section(g), J)
        assert got == scalar_section(want)
        ham = hamiltonian(scalar_section(f), J)
        assert evaluate(ham, [scalar_section(g)]) == scalar_section(-want)


def test_reconstruct_round_trip():
    rng = rng_for("md-reconstruct")
    for _ in range(20):
        arity = rng.randint(0, 3)
        fr = rng.randint(0, 1)
        D = random_md(rng, CH, RANK, arity, fr=fr)
        rec = reconstruct(CH, RANK, arity, fr,
                          lambda T: evaluate(D, list(T)))
        assert rec == D


def test_reconstruct_rejects_bad_probe():
    s0 = scalar_section(ScalarExpr.coord(CH, "y1"))

    def constant_probe(T):
        return s0

    with pytest.raises(ValueError):
        reconstruct(CH, RANK, 1, 1, constant_probe)


def test_operator_bookkeeping():
    G = build_G(CH, RANK)
    assert op_bidegrees(G) == [(-1, -1)]
    assert tau(G) == 2
    D = single((d_letter("phi4"), e_letter(0)),
               coeff=-ScalarExpr.sin(CH, "phi3"),
               mono=GhostMonomial((0,), ()))
    assert op_bidegrees(D) == [(0, 0)]
    assert str(D) == "(-sin(phi3)) xi^1 d_phi4 e_1 [mu]"


# -- the bracket against the symbol-form reference -------------------
#
# The reference computes the bracket in the cotangent realization.  A
# term of frame flag fr, arity n and m-count eps becomes a symbol
# (odd, pg, pa, w): the odd generators in canonical order (ghosts,
# anti-ghosts, pi_t, then the odd coordinate momenta), the even ghost
# and anti-ghost momenta as sorted multisets, and the t-weight
# w = fr - n + eps.  Every (F-term, G-term) pair is scanned against
# every generator, and the result is read back off the momenta.

def _ref_odd_item_key(item, chart):
    tag = item[0]
    if tag == "G":
        return (0, item[1])
    if tag == "A":
        return (1, item[1])
    if tag == "T":
        return (2, 0)
    return (3, chart.axis(item[1]))


def _ref_symbol_mul(k1, c1, k2, c2, chart):
    odd1, pg1, pa1, w1 = k1
    odd2, pg2, pa2, w2 = k2
    if set(odd1) & set(odd2):
        return None, None
    inv = 0
    for it2 in odd2:
        key2 = _ref_odd_item_key(it2, chart)
        inv += sum(1 for it1 in odd1 if _ref_odd_item_key(it1, chart) > key2)
    odd = tuple(sorted(odd1 + odd2, key=lambda it: _ref_odd_item_key(it, chart)))
    c = c1 * c2
    if inv % 2:
        c = -c
    key = (odd, tuple(sorted(pg1 + pg2)), tuple(sorted(pa1 + pa2)), w1 + w2)
    return key, c


def _ref_to_symbols(D):
    out = {}
    for (mono, word, fr), c in D.terms.items():
        eps = 1 if M in word else 0
        odd = [("G", A) for A in mono.g] + [("A", B) for B in mono.a]
        if eps:
            odd.append(("T",))
        odd += [("X", ell[1]) for ell in word if ell[0] == "d"]
        pg = tuple(sorted(ell[1] for ell in word if ell[0] == "e"))
        pa = tuple(sorted(ell[1] for ell in word if ell[0] == "f"))
        add_term(out, (tuple(odd), pg, pa, fr - len(word) + eps), c)
    return out


def _ref_from_symbols(sym, chart, rank):
    terms = {}
    for (odd, pg, pa, w), c in sym.items():
        gs = tuple(it[1] for it in odd if it[0] == "G")
        as_ = tuple(it[1] for it in odd if it[0] == "A")
        eps = 1 if ("T",) in odd else 0
        word = ((M,) if eps else ()) \
            + tuple(d_letter(it[1]) for it in odd if it[0] == "X") \
            + tuple(e_letter(A) for A in pg) + tuple(f_letter(B) for B in pa)
        fr = w + len(word) - eps
        assert fr in (0, 1), "symbol with t-weight %d" % w
        add_term(terms, (GhostMonomial(gs, as_), word, fr), c)
    return MultiDerivation(chart, rank, terms)


def _ref_dR_oddmom(key, c, item):
    odd, pg, pa, w = key
    if item not in odd:
        return None
    pos = odd.index(item)
    c2 = -c if (len(odd) - pos - 1) % 2 else c
    return (odd[:pos] + odd[pos + 1:], pg, pa, w), c2


def _ref_dR_evenmom(key, c, A, which):
    odd, pg, pa, w = key
    bag = pg if which == "g" else pa
    k = bag.count(A)
    if not k:
        return None
    i = bag.index(A)
    bag2 = bag[:i] + bag[i + 1:]
    if which == "g":
        return (odd, bag2, pa, w), c.scale(k)
    return (odd, pg, bag2, w), c.scale(k)


def _ref_dL_oddgen(key, c, item):
    odd, pg, pa, w = key
    if item not in odd:
        return None
    pos = odd.index(item)
    return (odd[:pos] + odd[pos + 1:], pg, pa, w), (-c if pos % 2 else c)


def _ref_dL_t(key, c):
    odd, pg, pa, w = key
    if w == 0:
        return None
    return (odd, pg, pa, w - 1), c.scale(w)


def _ref_dL_coord(key, c, coord):
    c2 = c.partial(coord)
    return None if c2.is_zero() else (key, c2)


def _full_scan_half_bracket(F, G, chart, rank, out, sign):
    """Reference half-bracket: every (F-term, G-term) pair against every
    coordinate, pi_t and every ghost index, as a plain scan; each
    product, times sign, is added to out in turn."""
    pairs = []
    for kF, cF in F.items():
        for kG, cG in G.items():
            for coord in chart.coords:
                a = _ref_dR_oddmom(kF, cF, ("X", coord))
                if a:
                    b = _ref_dL_coord(kG, cG, coord)
                    if b:
                        pairs.append((a, b))
            a = _ref_dR_oddmom(kF, cF, ("T",))
            if a:
                b = _ref_dL_t(kG, cG)
                if b:
                    pairs.append((a, b))
            for A in range(rank):
                a = _ref_dR_evenmom(kF, cF, A, "g")
                if a:
                    b = _ref_dL_oddgen(kG, cG, ("G", A))
                    if b:
                        pairs.append((a, b))
                a = _ref_dR_evenmom(kF, cF, A, "a")
                if a:
                    b = _ref_dL_oddgen(kG, cG, ("A", A))
                    if b:
                        pairs.append((a, b))
    for (kA, cA), (kB, cB) in pairs:
        key, c = _ref_symbol_mul(kA, cA, kB, cB, chart)
        if key is not None:
            add_term(out, key, c.scale(sign))


def _full_scan_bracket(D, E):
    """Reference bracket: symbol parity groups, two half-brackets each,
    every product summed into one dict in sequence."""
    chart, rank = D.chart, D.rank
    groups = []
    for X in (D, E):
        parts = {}
        for key, c in _ref_to_symbols(X).items():
            parts.setdefault(len(key[0]) % 2, {})[key] = c
        groups.append(parts)
    out = {}
    for tD, FD in groups[0].items():
        for tE, FE in groups[1].items():
            flip = -1 if ((tD + 1) * (tE + 1)) % 2 else 1
            _full_scan_half_bracket(FD, FE, chart, rank, out, 1)
            _full_scan_half_bracket(FE, FD, chart, rank, out, -flip)
    return _ref_from_symbols(out, chart, rank)


def _same_terms(X, Y):
    # equal normal forms, and the terms were inserted in the same order
    return X == Y and list(X.terms.items()) == list(Y.terms.items())


def _t_weight(key):
    mono, word, fr = key
    return fr - len(word) + (M in word)


def test_indexed_bracket_matches_full_scan():
    rng = rng_for("indexed-bracket")
    abstract = t5_chart(abstract=True)
    seen = {"trig": 0, "func": 0, "ghost": 0, "antighost": 0, "m": 0,
            "m-weighted": 0}
    nonzero = 0
    for trial in range(80):
        chart = abstract if trial % 2 else CH
        D = random_md(rng, chart, RANK, rng.randint(0, 3), fr=1,
                      max_terms=5, allow_abstract=True)
        E = random_md(rng, chart, RANK, rng.randint(0, 3),
                      fr=rng.randint(0, 1), max_terms=5, allow_abstract=True)
        for X in (D, E):
            for (mono, word, fr), c in X.terms.items():
                text = str(c)
                seen["trig"] += "sin" in text or "cos" in text
                seen["func"] += "f1" in text or "f2" in text
                seen["ghost"] += bool(mono.g) or any(l[0] == "e" for l in word)
                seen["antighost"] += bool(mono.a) or any(l[0] == "f" for l in word)
                seen["m"] += M in word
                seen["m-weighted"] += M in word and _t_weight((mono, word, fr)) != 0
        got = sj_bracket(D, E)
        assert _same_terms(got, _full_scan_bracket(D, E))
        nonzero += not got.is_zero()
    assert nonzero >= 40
    assert all(n >= 10 for n in seen.values()), seen
    x1 = ScalarExpr.coord(CH, "phi1")
    y1 = ScalarExpr.coord(CH, "y1")
    xi = GhostMonomial((0,), (1,))
    pairs = [
        # repeated even letters: their momenta leave with a multiplicity
        (single((e_letter(0), e_letter(0), f_letter(1), f_letter(1)), coeff=x1),
         single((d_letter("phi1"),), mono=xi, coeff=x1)),
        # m letters at t-weight 1, -1 and -2 on both sides
        (single((M,), coeff=x1 * y1),
         single((M, d_letter("phi1"), e_letter(0)), mono=xi, coeff=y1)),
        (single((M, d_letter("y1")), coeff=x1, fr=0),
         single((d_letter("phi1"), f_letter(1)), coeff=y1 * y1)),
        (single((M, e_letter(1)), coeff=y1, mono=GhostMonomial((1,), ())),
         single((M, d_letter("phi1"), d_letter("y1")), coeff=x1, fr=0)),
    ]
    for D, E in pairs[1:]:
        assert any(M in w and _t_weight((m, w, fr)) != 0
                   for m, w, fr in list(D.terms) + list(E.terms))
    for D, E in pairs:
        for X, Y in ((D, E), (E, D)):
            got = sj_bracket(X, Y)
            assert not got.is_zero()
            assert _same_terms(got, _full_scan_bracket(X, Y))


def test_indexed_bracket_matches_full_scan_on_lifts():
    from jacobi_bfv.models import t5_contact
    from jacobi_bfv.contraction import ConnectionSpec
    from jacobi_bfv.solver import lift_jacobi
    model = t5_contact()
    sin3 = ScalarExpr.sin(model.chart, "phi3")
    sin4 = ScalarExpr.sin(model.chart, "phi4")
    conns = [
        ConnectionSpec(model.chart, model.rank, {(0, 1): sin3, (1, 0): sin4}),
        ConnectionSpec(model.chart, model.rank, None,
                       {("phi3", 0, 1): sin4, ("phi4", 1, 0): sin3}),
    ]
    for conn in conns:
        Jhat, trace = lift_jacobi(model.J, conn)
        assert trace  # curved: the lift carries a correction
        for rec in trace:
            c = rec["correction"]
            for D, E in ((Jhat, Jhat), (Jhat, c), (c, Jhat), (c, c)):
                assert _same_terms(sj_bracket(D, E), _full_scan_bracket(D, E))


def _crowded_md(rng, chart, fr):
    """Rank-3 operator whose terms carry up to two ghost and two
    anti-ghost indices, m and d letters on any axis, and e and f
    letters: many of its products with another one collide."""
    terms = {}
    for _ in range(rng.randint(2, 6)):
        mono = GhostMonomial(
            tuple(sorted(rng.sample(range(3), rng.randint(0, 2)))),
            tuple(sorted(rng.sample(range(3), rng.randint(0, 2)))))
        word = [M] * (rng.random() < 0.6)
        word += [d_letter(x) for x in rng.sample(chart.coords, rng.randint(0, 2))]
        word += [rng.choice((e_letter, f_letter))(rng.randrange(3))
                 for _ in range(rng.randint(0, 2))]
        sign, word = sort_word(word, chart)
        c = random_scalar(rng, chart, max_terms=2, allow_abstract=True)
        if sign and not c.is_zero():
            add_term(terms, (mono, word, fr), c.scale(sign))
    return MultiDerivation(chart, 3, terms)


def _skipped_products(F, G, seen):
    # count, by what the two factors share, the (F-term, G-term,
    # momentum) products that the half bracket skips by their masks
    for (mF, wF, _), cF in F.terms.items():
        for ell in _momenta(wF):
            (mA, wA), _, _ = _dR_mom(mF, wF, cF, ell)
            for (mG, wG, frG), cG in G.terms.items():
                b = _dL_gen(mG, wG, frG, cG, ell)
                if b is None:
                    continue
                (mB, wB), _, _ = b
                seen["ghost"] += bool(set(mA.g) & set(mB.g))
                seen["antighost"] += bool(set(mA.a) & set(mB.a))
                seen["m"] += M in wA and M in wB
                for x in wA:
                    if x[0] == "d" and x in wB:
                        seen["d"] += 1
                        seen["d-axes"].add(x[1])


def test_masked_bracket_matches_full_scan_when_crowded():
    rng = rng_for("crowded-bracket")
    abstract = t5_chart(abstract=True)
    seen = {"ghost": 0, "antighost": 0, "m": 0, "d": 0, "d-axes": set()}
    nonzero = 0
    for trial in range(60):
        chart = abstract if trial % 2 else CH
        D = _crowded_md(rng, chart, 1)
        E = _crowded_md(rng, chart, rng.randint(0, 1))
        for X, Y in ((D, D), (D, E), (E, D)):
            got = sj_bracket(X, Y)
            assert _same_terms(got, _full_scan_bracket(X, Y))
            nonzero += not got.is_zero()
        _skipped_products(D, E, seen)
        _skipped_products(E, D, seen)
    assert nonzero >= 60
    assert seen.pop("d-axes") == set(CH.coords)
    assert all(n >= 10 for n in seen.values()), seen


def test_bracket_key_that_cancels_moves_to_the_end():
    # d_phi1 and -d_phi2 both reach (phi1 + phi2 + phi4) d_phi3 and cancel
    # at d_phi3; -d_phi2 then reaches d_y1, and d_phi4 adds d_phi3 again,
    # after it
    coord = lambda x: ScalarExpr.coord(CH, x)
    D = single((d_letter("phi1"),)) - single((d_letter("phi2"),)) + \
        single((d_letter("phi4"),))
    E = single((d_letter("phi3"),), coeff=coord("phi1") + coord("phi2") +
               coord("phi4")) + \
        single((d_letter("y1"),), coeff=coord("phi2"))
    got = sj_bracket(D, E)
    assert [w for (_, w, _) in got.terms] == [(d_letter("y1"),),
                                              (d_letter("phi3"),)]
    assert _same_terms(got, _full_scan_bracket(D, E))


def test_bracket_products_of_cos_atoms_are_rewritten():
    # one-term products whose keys both lead with cos: cos^2 arises also
    # when the first atoms differ (cos phi1 cos phi3 times cos phi3)
    cos1, cos3 = (ScalarExpr.cos(CH, x) for x in ("phi1", "phi3"))
    sin1, sin3 = (ScalarExpr.sin(CH, x) for x in ("phi1", "phi3"))
    phi2 = ScalarExpr.coord(CH, "phi2")
    cases = [(cos3, cos3), (cos1 * cos3, cos3), (cos3, cos1 * cos3),
             (cos1, cos3), (cos1 * sin3, cos1), (sin1 * cos3, cos3 * sin1)]
    for a, b in cases:
        D = single((d_letter("phi2"), d_letter("phi4")), coeff=a)
        E = single((d_letter("phi5"),), coeff=phi2 * b)
        for X, Y in ((D, E), (E, D)):
            got = sj_bracket(X, Y)
            assert _same_terms(got, _full_scan_bracket(X, Y))
        coeffs = list(sj_bracket(D, E).terms.values())
        assert coeffs == [-(a * b)]
        assert all(e == 1 for k in coeffs[0].terms for atom, e in k
                   if atom[0] == "cos")


def test_bracket_of_function_coefficients_matches_full_scan():
    # f1 depends on phi1 and phi2, f2 on phi3 only: a d momentum's left
    # derivative is skipped only when the coefficient cannot depend on it
    chart = Chart(CH.coords, CH.angular, CH.fiber,
                  funcs={"f1": ("phi1", "phi2"), "f2": ("phi3",)})
    rng = rng_for("function-bracket")
    seen = {"fn": 0, "dfn": 0}
    nonzero = 0
    for trial in range(60):
        ops = []
        for fr in (1, rng.randint(0, 1)):
            X = random_md(rng, chart, RANK, rng.randint(1, 3), fr=fr,
                          max_terms=5, allow_abstract=True)
            # differentiate some coefficients, so dfn atoms appear
            terms = {}
            for key, c in X.terms.items():
                if rng.random() < 0.5:
                    c = c.partial(rng.choice(("phi1", "phi2", "phi3")))
                if not c.is_zero():
                    terms[key] = c
            ops.append(MultiDerivation(chart, RANK, terms))
            for c in terms.values():
                atoms = {atom[0] for k in c.terms for atom, _ in k}
                seen["fn"] += "fn" in atoms
                seen["dfn"] += "dfn" in atoms
        D, E = ops
        for X, Y in ((D, E), (E, D), (D, D)):
            got = sj_bracket(X, Y)
            assert _same_terms(got, _full_scan_bracket(X, Y))
            nonzero += not got.is_zero()
    assert nonzero >= 60
    assert all(n >= 20 for n in seen.values()), seen


def _generated_lift(tmp_path, n, rank, curved, sid, seed):
    "Lift perfbench's case lift/n<n>-r<rank>-c<curved>/<sid> at a value seed."
    import gen
    label = "n%d-r%d-c%d/%d" % (n, rank, curved, sid)
    doc = gen.poisson_lift(random.Random("lift/" + label), random.Random(seed),
                           n, rank, curved)
    path = tmp_path / "lift.json"
    path.write_text(json.dumps(doc))
    spec = parse_scenario(str(path))
    return lift_jacobi(spec.J, spec.conn, spec.max_iter)


def test_bracket_visits_only_surviving_products(tmp_path, monkeypatch):
    from jacobi_bfv import multideriv
    Jhat3, trace3 = _generated_lift(tmp_path, 3, 3, 3, 1, 1)
    assert Jhat3.rank == 3 and trace3
    plain = (multideriv._half_bracket, multideriv._term_mul,
             multideriv._dL_gen)
    signs, derived = [], []

    def half(*args):
        derived.append([])
        return plain[0](*args)

    def term_mul(*args):
        out = plain[1](*args)
        signs.append(out[0])
        return out

    def dL_gen(mono, word, fr, c, ell):
        derived[-1].append((mono, word, fr, ell))
        return plain[2](mono, word, fr, c, ell)

    monkeypatch.setattr(multideriv, "_half_bracket", half)
    monkeypatch.setattr(multideriv, "_term_mul", term_mul)
    monkeypatch.setattr(multideriv, "_dL_gen", dL_gen)
    for Jhat, c in (_curved_lift(), (Jhat3, trace3[0]["correction"])):
        for D, E in ((Jhat, Jhat), (Jhat, c), (c, Jhat)):
            del signs[:], derived[:]
            sj_bracket(D, E)
            assert signs and all(signs)
            for calls in derived:
                assert len(calls) == len(set(calls))


def test_large_generated_lift_is_pinned(tmp_path):
    # the n = 8, r = 4 lift with 6 curved entries, where most products
    # of the bracket collide
    Jhat, _ = _generated_lift(tmp_path, 8, 4, 6, 0, 1)
    assert len(Jhat.terms) == 738
    assert hashlib.sha256(str(Jhat).encode()).hexdigest()[:16] == \
        "129402e05b5723a0"


# -- self-brackets from the even half --------------------------------

def _bracket_or_rejected(D, E):
    try:
        return sj_bracket(D, E)
    except ValueError:
        return "rejected"


def _curved_lift():
    from jacobi_bfv.models import t5_contact
    from jacobi_bfv.contraction import ConnectionSpec
    from jacobi_bfv.solver import lift_jacobi
    model = t5_contact()
    conn = ConnectionSpec(model.chart, model.rank,
                          {(0, 1): ScalarExpr.sin(model.chart, "phi3")})
    Jhat, trace = lift_jacobi(model.J, conn)
    assert trace  # curved: the lift carries a correction
    return Jhat, trace[0]["correction"]


def test_self_bracket_matches_general_path(monkeypatch):
    from jacobi_bfv import multideriv
    rng = rng_for("md-self-bracket")
    ops = list(_curved_lift())
    for frs in [(0, 0), (1, 1), (1, 0)] * 20:  # (1, 0) mixes the flags
        ops.append(sum((random_md(rng, CH, RANK, rng.randint(1, 3), fr=fr,
                                  max_terms=8) for fr in frs),
                       MultiDerivation.zero(CH, RANK)))
    calls = []
    plain_half = multideriv._half_bracket

    def counted(*args):
        calls.append(1)
        return plain_half(*args)

    monkeypatch.setattr(multideriv, "_half_bracket", counted)
    seen = {"both-groups": 0, "ghosts": 0, "fr0": 0, "fr1": 0,
            "nonzero": 0, "rejected": 0}
    for D in ops:
        copy = MultiDerivation(D.chart, D.rank, dict(D.terms))
        assert copy is not D and copy == D
        del calls[:]
        got = _bracket_or_rejected(D, D)
        assert len(calls) == 1
        del calls[:]
        want = _bracket_or_rejected(D, copy)
        assert got == want
        parities = {(m.parity() + word_parity(w)) % 2 for m, w, _ in D.terms}
        both = parities == {0, 1}
        assert len(calls) == 2 * len(parities) ** 2
        seen["both-groups"] += both
        seen["ghosts"] += any(m.g or m.a for m, _, _ in D.terms)
        for fr in (0, 1):
            seen["fr%d" % fr] += any(f == fr for _, _, f in D.terms)
        seen["rejected"] += got == "rejected"
        seen["nonzero"] += got != "rejected" and not got.is_zero()
    assert all(n >= 10 for n in seen.values()), seen


def _ref_md_mul(D1, D2):
    "Reference graded product, with the signs applied one by one."
    chart, rank = D1.chart, D1.rank
    terms = {}
    for (m1, w1, fr1), c1 in D1.terms.items():
        pw1 = word_parity(w1)
        for (m2, w2, fr2), c2 in D2.terms.items():
            sgn = -1 if (pw1 * m2.parity()) % 2 else 1
            s_m, mono = mono_mul(m1, m2)
            if not s_m:
                continue
            s_w, word = sort_word(w1 + w2, chart)
            if not s_w:
                continue
            add_term(terms, (mono, word, fr1 + fr2),
                     (c1 * c2).scale(sgn * s_m * s_w))
    return MultiDerivation(chart, rank, terms)


def test_term_mul_matches_sorting_oracle_on_every_word_pair():
    # the merge of canonical words against sort_word of the concatenation,
    # on every pair of canonical words of up to 3 letters over the
    # t5-contact letters at rank 2; the monomial pairs cycle through
    # even and odd factors and a colliding pair
    chart = t5_contact().chart
    letters = sorted(all_letters(chart, 2),
                     key=lambda ell: _letter_key(ell, chart))
    words = []
    for k in range(4):
        for combo in combinations_with_replacement(letters, k):
            sign, word = sort_word(combo, chart)
            if sign:
                assert word == combo
                words.append(word)
    monos = [(ONE_MONO, ONE_MONO), (ONE_MONO, GhostMonomial((0,), ())),
             (GhostMonomial((1,), ()), GhostMonomial((), (0,))),
             (GhostMonomial((0,), (1,)), GhostMonomial((1,), (0,))),
             (GhostMonomial((), (1,)), GhostMonomial((0, 1), (1,)))]
    seen = {"killed-word": 0, "killed-mono": 0, "minus": 0, "plus": 0}
    for i, (w1, w2) in enumerate((w1, w2) for w1 in words for w2 in words):
        m1, m2 = monos[i % len(monos)]
        got = _term_mul((m1, w1), (m2, w2), chart)
        assert got == term_mul_by_sort((m1, w1), (m2, w2), chart), \
            (m1, w1, m2, w2)
        if got[0]:
            seen["minus" if got[0] < 0 else "plus"] += 1
            assert hash(got[1]) == hash(GhostMonomial(got[1].g, got[1].a))
        else:
            seen["killed-word" if mono_mul(m1, m2)[0] else "killed-mono"] += 1
    assert len(words) == 351
    assert min(seen.values()) >= 100, seen


def test_md_mul_matches_reference():
    rng = rng_for("md-mul-reference")
    abstract = t5_chart(abstract=True)
    nonzero = 0
    for trial in range(60):
        chart = abstract if trial % 2 else CH
        fr1 = rng.randint(0, 1)
        fr2 = rng.randint(0, 1 - fr1)
        D1 = random_md(rng, chart, RANK, rng.randint(0, 3), fr=fr1,
                       max_terms=5, allow_abstract=True)
        D2 = random_md(rng, chart, RANK, rng.randint(0, 3), fr=fr2,
                       max_terms=5, allow_abstract=True)
        got = md_mul(D1, D2)
        assert _same_terms(got, _ref_md_mul(D1, D2))
        nonzero += not got.is_zero()
    assert nonzero >= 30


# -- the one-pass section bracket against the per-monomial loop -------

def _piecewise_jacobi_bracket(l1, l2, J):
    "Reference: evaluate J once per monomial of l1, with its sign."
    out = Section.zero(l1.chart, l1.rank)
    for mono, c in l1.fun.terms.items():
        piece = Section(GradedFunction(l1.chart, l1.rank, {mono: c}))
        val = evaluate(J, [piece, l2])
        if shifted_parity(mono):
            val = -val
        out = out + val
    return out


def _mixed_section(rng):
    "At least 3 monomials, of both shifted parities."
    while True:
        fun = random_ghost_fun(rng, CH, RANK, max_terms=6)
        if len(fun.terms) >= 3 and \
                len({shifted_parity(m) for m in fun.terms}) == 2:
            return Section(fun)


def test_jacobi_bracket_matches_piecewise(monkeypatch):
    from jacobi_bfv import multideriv
    Jhat, _ = _curved_lift()
    rng = rng_for("md-jacobi-bracket")
    calls = []
    plain_evaluate = multideriv.evaluate

    def counted(*args):
        calls.append(1)
        return plain_evaluate(*args)

    nonzero = 0
    for trial in range(32):
        J = Jhat if trial % 2 else random_md(rng, CH, RANK, 2, fr=1)
        l1, l2 = _mixed_section(rng), _mixed_section(rng)
        want = _piecewise_jacobi_bracket(l1, l2, J)
        with monkeypatch.context() as mp:
            mp.setattr(multideriv, "evaluate", counted)
            del calls[:]
            got = jacobi_bracket(l1, l2, J)
            assert len(calls) == 1
        assert got == want
        nonzero += not got.is_zero()
    assert nonzero >= 24


MONOS = [ONE_MONO, GhostMonomial((0,), ()), GhostMonomial((), (1,)),
         GhostMonomial((0, 1), (0,))]


def _grouped_md(rng, n, fr):
    "Up to three words of length n, each with two ghost monomials."
    letters = all_letters(CH, RANK)
    terms = {}
    for _ in range(3):
        s, w = sort_word(tuple(rng.choice(letters) for _ in range(n)), CH)
        if not s:
            continue
        for mono in rng.sample(MONOS, 2):
            c = random_scalar(rng, CH, max_terms=2)
            terms[(mono, w, fr)] = c.scale(s)
    return MultiDerivation(CH, RANK, terms)


def test_evaluate_matches_peel_oracle():
    rng = rng_for("md-evaluate-by-word")
    shared_words = nonzero = 0
    for n in range(4):
        for fr in (0, 1):
            for trial in range(4):
                D = _grouped_md(rng, n, fr)
                args = [_mixed_section(rng) for _ in range(n)]
                if n and trial == 0:
                    args[rng.randrange(n)] = Section.zero(CH, RANK)
                want = evaluate_by_term(D, args)
                got = evaluate(D, args)
                assert type(got) is type(want) and got == want
                words = [w for (_, w, _) in D.terms]
                shared_words += len(words) > len(set(words))
                nonzero += not got.is_zero()
    assert shared_words >= 20 and nonzero >= 16


def test_evaluate_applies_each_letter_once_per_piece(monkeypatch):
    from jacobi_bfv import multideriv
    plain_apply = multideriv._letter_apply
    seen = []

    def counted(ell, fun):
        seen.append((ell, id(fun)))
        return plain_apply(ell, fun)

    monkeypatch.setattr(multideriv, "_letter_apply", counted)
    biv, vec = t5_pair()
    J = jacobi_from_pair(CH, RANK, biv, vec)
    rng = rng_for("md-evaluate-letter-cache")
    cases = [(J, [_mixed_section(rng), _mixed_section(rng)])]
    cases += [(_grouped_md(rng, 3, 1), [_mixed_section(rng) for _ in range(3)])
              for _ in range(4)]
    lam, kappa = _mixed_section(rng), _mixed_section(rng)
    cases += [(J, [lam, lam]), (J, [_shifted_odd_negated(lam), lam]),
              (_grouped_md(rng, 3, 1), [lam, -lam, kappa]),
              (_grouped_md(rng, 3, 1), [kappa, _copy(lam), lam])]
    for D, args in cases:
        del seen[:]
        got = evaluate(D, args)
        # each letter acts once on each piece, pieces equal up to sign
        # counting as one
        assert len(seen) == len(set(seen)) > 0
        assert len({piece for _, piece in seen}) <= _pieces_up_to_sign(args)
        assert got == evaluate_by_term(D, args)


def test_evaluate_rejects_bad_arguments():
    biv, vec = t5_pair()
    J = jacobi_from_pair(CH, RANK, biv, vec)
    x_mu = scalar_section(ScalarExpr.coord(CH, "phi1"))
    with pytest.raises(ValueError, match="arity mismatch"):
        evaluate(J, [x_mu])
    with pytest.raises(ValueError, match="Section arguments"):
        evaluate(J, [x_mu, x_mu.fun])
    mixed = single((M,), fr=0) + single((d_letter("phi1"),))
    with pytest.raises(ValueError, match="mixed frame flags"):
        mixed.frame()
    with pytest.raises(ValueError, match="mixed frame flags"):
        evaluate(mixed, [x_mu])


# -- repeated arguments ------------------------------------------------

def _copy(lam):
    "An equal section that is a distinct object."
    return Section(GradedFunction(lam.chart, lam.rank, dict(lam.fun.terms)))


def _shifted_odd_negated(lam):
    "The first argument jacobi_bracket passes for lam."
    return Section(GradedFunction(lam.chart, lam.rank, {
        m: -c if shifted_parity(m) else c for m, c in lam.fun.terms.items()}))


def _pieces_up_to_sign(args):
    "The number of distinct argument pieces, equal up to sign counting once."
    classes = []
    for lam in args:
        for par in (0, 1):
            sel = {m: c for m, c in lam.fun.terms.items()
                   if shifted_parity(m) == par}
            neg = {m: -c for m, c in sel.items()}
            if sel and sel not in classes and neg not in classes:
                classes.append(sel)
    return max(len(classes), 1)


def _odd_section(rng):
    "A section with a shifted-odd piece only."
    while True:
        fun = random_ghost_fun(rng, CH, RANK, max_terms=6)
        odd = {m: c for m, c in fun.terms.items() if shifted_parity(m)}
        if odd:
            return Section(GradedFunction(CH, RANK, odd))


def test_evaluate_shares_repeated_arguments():
    rng = rng_for("md-evaluate-repeated")
    Jhat, correction = _curved_lift()
    zero = Section.zero(CH, RANK)
    kinds = {}
    for trial in range(12):
        lam, kappa, odd = _mixed_section(rng), _mixed_section(rng), \
            _odd_section(rng)
        pairs = {"same": [lam, lam], "copy": [lam, _copy(lam)],
                 "negated": [lam, -lam],
                 "jacobi": [_shifted_odd_negated(lam), lam],
                 "odd-twice": [odd, odd], "odd-negated": [-odd, _copy(odd)],
                 "zero": [lam, zero], "zeros": [zero, zero]}
        triples = {"first-last": [lam, kappa, lam],
                   "leading": [lam, _copy(lam), kappa],
                   "negated-3": [kappa, lam, -lam],
                   "odd-3": [odd, kappa, odd]}
        for fr in (0, 1):
            ops = [(_grouped_md(rng, 2, fr), pairs)]
            ops += [(_grouped_md(rng, 3, fr), triples) for _ in range(3)]
            if fr:
                ops.append((Jhat if trial % 2 else correction, pairs))
            for D, cases in ops:
                for kind, args in cases.items():
                    want = evaluate_by_term(D, args)
                    got = evaluate(D, args)
                    assert type(got) is type(want) and got == want, kind
                    kinds[kind] = kinds.get(kind, 0) + (not got.is_zero())
    # a shifted-odd piece given twice peels to 0, and so does a zero
    for kind in ("odd-twice", "odd-negated", "odd-3", "zero", "zeros"):
        assert kinds.pop(kind) == 0
    assert all(n >= 8 for n in kinds.values()), sorted(kinds.items())


# -- coefficient-first evaluation ---------------------------------------

def _multi_term_scalar(rng):
    "A ring element of at least two terms."
    while True:
        c = random_scalar(rng, CH, max_terms=4)
        if len(c.terms) >= 2:
            return c


def _coeff_first_md(rng, n, fr):
    "Up to three words of length n, each with 2 or 3 ghost monomials."
    letters = all_letters(CH, RANK)
    terms = {}
    for _ in range(3):
        s, w = sort_word(tuple(rng.choice(letters) for _ in range(n)), CH)
        if not s:
            continue
        for mono in rng.sample(MONOS, rng.randint(2, 3)):
            terms[(mono, w, fr)] = _multi_term_scalar(rng).scale(s)
    return MultiDerivation(CH, RANK, terms)


ODD_MONOS = [GhostMonomial((0,), ()), GhostMonomial((1,), ()),
             GhostMonomial((), (0,)), GhostMonomial((), (1,)),
             GhostMonomial((0, 1), (1,))]


def _even_section(rng):
    """A section with a shifted-even piece only: three or four odd
    monomials, so that products of its copies can survive."""
    return Section(GradedFunction(CH, RANK, {
        m: _multi_term_scalar(rng)
        for m in rng.sample(ODD_MONOS, rng.randint(3, 4))}))


def _peel_kinds(D, args):
    """The evaluate paths that D takes on args, as a set of names:
    "dead-tail", a head acts nonzero on a piece of one argument while
    its tail peels to 0 on pieces of the others; "dead-head", a head
    letter acts as 0 on a nonzero piece; "shared-tail", two head
    products, of two words or of two pieces of one argument, multiply
    one nonzero tail value."""
    split = [[(GradedFunction(CH, RANK, {m: c for m, c in lam.terms.items()
                                         if shifted_parity(m) == par}), par)
              for par in (0, 1)] for lam in args]
    kinds, tails = set(), {}
    for (_, word, _) in D.terms:
        if len(word) < 2:
            continue
        for combo in iproduct(*split):
            for j, (fun, par) in enumerate(combo):
                if _letter_apply(word[0], fun).is_zero():
                    if not fun.is_zero():
                        kinds.add("dead-head")
                    continue
                rest = list(combo[:j] + combo[j + 1:])
                if _peel(word[1:], rest, CH, RANK).is_zero():
                    kinds.add("dead-tail")
                    continue
                others = tuple((i, p) for i, (_, p) in enumerate(combo)
                               if i != j)
                tails.setdefault((word[1:], others), set()).add((word[0], par))
    if any(len(heads) > 1 for heads in tails.values()):
        kinds.add("shared-tail")
    return kinds


def test_evaluate_coefficient_first_matches_term_oracle():
    # words carry 2 or 3 ghost monomials with multi-term coefficients;
    # the argument lists give repeated even pieces (count 2 and 3) and
    # multiset multiplicities 2 ([l, l]: the (even, odd) multiset) and
    # -1, -2 ([l, -l]: (even, even) and (even, odd))
    rng = rng_for("md-evaluate-coefficient-first")
    seen = {}
    for trial in range(6):
        lam, kappa, ev = _mixed_section(rng), _mixed_section(rng), \
            _even_section(rng)
        cases = {0: {"arity-0": []},
                 1: {"arity-1": [lam], "even-1": [ev]},
                 2: {"arity-2": [lam, kappa], "doubled": [lam, _copy(lam)],
                     "negated": [lam, -lam], "even-twice": [ev, _copy(ev)]},
                 3: {"arity-3": [lam, kappa, ev],
                     "even-thrice": [ev, ev, _copy(ev)],
                     "even-twice-3": [ev, kappa, ev],
                     "doubled-3": [kappa, lam, lam],
                     "negated-3": [lam, kappa, -lam]}}
        for n, named in cases.items():
            for fr in (0, 1):
                for _ in range(2):
                    D = _coeff_first_md(rng, n, fr)
                    for kind, args in named.items():
                        want = evaluate_by_term(D, args)
                        got = evaluate(D, args)
                        assert type(got) is type(want) and got == want, kind
                        if got.is_zero():
                            continue
                        for name in [kind] + sorted(_peel_kinds(D, args)):
                            seen[name] = seen.get(name, 0) + 1
    assert len(seen) == 15 and all(k >= 8 for k in seen.values()), \
        sorted(seen.items())


def _charge_structure(tmp_path):
    "The first charge-sweep structure, lifted, and its section."
    import gen
    import workloads
    from jacobi_bfv import cli
    params = workloads.CHARGE_STRUCTURES[0]
    vals = random.Random(22)
    st = gen.ChargeStructure(workloads.shape_rng("charge", params[:4],
                                                 params[4]),
                             vals, *params[:4])
    path = tmp_path / "charge.json"
    path.write_text(json.dumps(st.doc))
    spec = parse_scenario(str(path))
    Jhat, _ = lift_jacobi(spec.J, spec.conn, spec.max_iter)
    section = tuple(cli.parse_expr(s, spec.chart) for s in st.section(
        workloads.shape_rng("charge-section", params, 0), vals, True))
    return Jhat, section


def test_evaluate_calls_no_ghost_mul(tmp_path, monkeypatch):
    # the BRST brackets of a charge-sweep structure multiply plain term
    # dicts; GradedFunction.ghost_mul is never reached
    from jacobi_bfv import multideriv
    from jacobi_bfv.solver import brst_charge, brst_problem
    Jhat, section = _charge_structure(tmp_path)
    calls = []
    plain = multideriv.evaluate

    def counted(*args):
        calls.append(1)
        return plain(*args)

    def fail(*args):
        raise AssertionError("ghost_mul called inside evaluate")

    monkeypatch.setattr(multideriv, "evaluate", counted)
    monkeypatch.setattr(GradedFunction, "ghost_mul", fail)
    omega, trace = brst_charge(Jhat, section)
    assert brst_problem(Jhat, section).bracket(omega, omega).is_zero()
    assert trace and len(calls) > 2 * len(trace)


def test_evaluate_calls_no_ring_mul(tmp_path, monkeypatch):
    # evaluate sums every coefficient product into plain term dicts
    # (scalar.add_product): the BRST charge of a charge-sweep structure
    # calls ScalarExpr.__mul__ outside evaluate only
    from jacobi_bfv import multideriv
    from jacobi_bfv.solver import brst_charge
    Jhat, section = _charge_structure(tmp_path)
    inside, muls = [], {False: 0, True: 0}
    plain_evaluate, plain_mul = multideriv.evaluate, ScalarExpr.__mul__

    def counted_evaluate(*args):
        inside.append(1)
        try:
            return plain_evaluate(*args)
        finally:
            inside.pop()

    def counted_mul(a, b):
        muls[bool(inside)] += 1
        return plain_mul(a, b)

    monkeypatch.setattr(multideriv, "evaluate", counted_evaluate)
    monkeypatch.setattr(ScalarExpr, "__mul__", counted_mul)
    _, trace = brst_charge(Jhat, section)
    assert trace and muls[False] > 0 and muls[True] == 0, muls
