"""Independent references and degree bookkeeping that only the tests use.

The engine builds the lifted structure, the charge, the BFV
differential and its transfer; the functions here check those results
from another side:

- gerstenhaber_eval_oracle evaluates [[D, E]] on arguments as an
  alternating sum of unshuffle compositions, without forming the
  bracket;
- reconstruct recovers a word operator from its values on probe
  sections;
- evaluate_by_term evaluates an operator term by term, peeling each
  word afresh for every choice of argument pieces;
- eval_num evaluates a ring element at a floating-point point;
- md_mul is the graded product of word operators, and
  twist_by_occurrence substitutes the connection images letter by
  letter through it, rebuilding a letter's image at each occurrence
  from every (A, B) pair, where the engine expands each term directly;
  substitute_by_atom multiplies a ring element's atoms in one at a
  time;
- mul_by_reduce and partial_by_reduce are the ring product and
  derivative that normalise every result in full, through the public
  constructor, and cos_atoms lists the cos atoms of a normal form;
- mono_mul_by_sort multiplies ghost monomials by sorting the
  concatenated index tuples into a validated GhostMonomial, and
  term_mul_by_sort multiplies (mono, word) terms by sorting the
  concatenated word with sort_word;
- derived_brackets_unshared builds every m_k value from Jhat afresh,
  sharing no argument prefix and pruning no term;
- coisotropy_residual_full is the projected self-bracket of the
  candidate charge with all of Jhat evaluated;
- mc_series is the Maurer-Cartan series of the m_k at one element,
  sum_k (-1)^(k-1) m_k(sigma, ..., sigma)/k!, which -2 times is the
  coisotropy residual of the section sigma names;
- koszul_dif is the Koszul differential d[s] of a BRST contraction as
  an arity-1 operator;
- hpl_dif_by_series is the transferred differential summed homotopy
  first, proj (delta (sum_k (h delta)^k (imm x))), and
  reduced_dif_by_series applies it to the BFV transfer, with delta as
  the difference of two evaluations;
- conformal_pair is the conformal change J_a of a Jacobi pair by a
  base function a, the pair that Jacobi equivalence by the line-bundle
  automorphism a relates to J;
- hamiltonian_shear is the shift dh that the Hamiltonian flow of a
  base function h gives the fiber values of a section, the move that
  Hamiltonian equivalence by h makes;
- single builds a one-term operator;
- tau, arity, the bidegrees and the weight parts sort operators and
  functions by degree.
"""

from fractions import Fraction
from itertools import combinations, combinations_with_replacement
from itertools import product as iproduct
import math

from jacobi_bfv.scalar import ScalarExpr, add_term
from jacobi_bfv.ghost import (GhostMonomial, GradedFunction, Section, ONE_MONO,
                              shifted_parity)
from jacobi_bfv.multideriv import (M, d_letter, e_letter, f_letter,
                                   letter_odd, _letter_key, sort_word,
                                   word_parity, _letter_apply,
                                   _term_mul, MultiDerivation, evaluate,
                                   jacobi_from_pair)
from jacobi_bfv.contraction import _weight
from jacobi_bfv.solver import (sj_bracket, v_immersion, v_projection,
                               brst_problem)


# -- degrees ----------------------------------------------------------

def letter_degree(ell):
    return {"m": 1, "d": 1, "e": 0, "f": 2}[ell[0]]


def letter_bidegree(ell):
    if ell[0] == "e":
        return (-1, 0)
    if ell[0] == "f":
        return (0, -1)
    return (0, 0)


def ghost_number(mono):
    return len(mono.g) - len(mono.a)


def bidegrees(fun):
    "The sorted bidegrees of the monomials of a GradedFunction."
    return sorted({m.bidegree() for m in fun.terms})


def arity(D):
    ns = {len(w) for (_, w, _) in D.terms}
    assert len(ns) <= 1, "mixed arity: %r" % ns
    return ns.pop() if ns else None


def term_tau(key):
    mono, word, fr = key
    return ghost_number(mono) + sum(letter_degree(l) for l in word) - 1 + fr


def tau(D):
    ts = {term_tau(k) for k in D.terms}
    assert len(ts) <= 1, "not homogeneous: %r" % ts
    return ts.pop() if ts else None


def homogeneous_components(D):
    "Split an operator by total degree tau."
    parts = {}
    for k, c in D.terms.items():
        parts.setdefault(term_tau(k), {})[k] = c
    return {t: MultiDerivation(D.chart, D.rank, d)
            for t, d in sorted(parts.items())}


def term_bidegree(key):
    mono, word, fr = key
    h, k = mono.bidegree()
    for ell in word:
        dh, dk = letter_bidegree(ell)
        h += dh
        k += dk
    return (h, k)


def op_bidegrees(D):
    return sorted({term_bidegree(k) for k in D.terms})


def twisted_weight_parts(D):
    "Split a twisted-basis operator by connection weight."
    parts = {}
    for key, c in D.terms.items():
        parts.setdefault(_weight(key), {})[key] = c
    return {k: MultiDerivation._new(D.chart, D.rank, terms)
            for k, terms in sorted(parts.items())}


def is_flat_trivial(conn):
    return not conn.vert and not conn.coef


def to_section(D):
    "The section of an operator of arity 0 with the frame flag."
    out = {}
    for (mono, word, fr), c in D.terms.items():
        assert word == () and fr == 1, "not an arity-0 section term"
        out[mono] = c
    return Section(GradedFunction(D.chart, D.rank, out))


# -- numeric evaluation -----------------------------------------------

def eval_num(expr, point):
    "Value of a ring element at a point mapping coordinates to floats."
    total = 0.0
    for key, c in expr.terms.items():
        v = float(c)
        for atom, e in key:
            kind = atom[0]
            if kind == "x":
                v *= point[atom[1]] ** e
            elif kind == "sin":
                v *= math.sin(point[atom[1]]) ** e
            elif kind == "cos":
                v *= math.cos(point[atom[1]]) ** e
            else:
                raise ValueError("abstract symbol %r has no numeric value" % (atom,))
        total += v
    return total


# -- one-term operators ------------------------------------------------

def single(chart, rank, word, coeff=None, mono=ONE_MONO, fr=1):
    "The operator  coeff * mono word,  coeff 1 by default."
    coeff = ScalarExpr.one(chart) if coeff is None else coeff
    return MultiDerivation(chart, rank, {(mono, tuple(word), fr): coeff})


# -- term products by sorting ------------------------------------------

def mono_mul_by_sort(m1, m2):
    """(sign, GhostMonomial) or (0, None) of m1 m2: a shared index kills
    the product, the g2 block moves across a1 and each block pair counts
    its inversions; the result is validated by the public constructor."""
    if any(A in m1.g for A in m2.g) or any(B in m1.a for B in m2.a):
        return 0, None
    inv = len(m1.a) * len(m2.g)
    for left, right in ((m1.g, m2.g), (m1.a, m2.a)):
        inv += sum(1 for y in right for x in left if x > y)
    return (-1 if inv % 2 else 1), GhostMonomial(
        tuple(sorted(m1.g + m2.g)), tuple(sorted(m1.a + m2.a)))


def term_mul_by_sort(t1, t2, chart):
    """(sign, mono, word) of the product of two (mono, word) terms, sign
    0 and None otherwise: the concatenated word goes through sort_word,
    and the odd letters of w1 pass m2."""
    (m1, w1), (m2, w2) = t1, t2
    s_m, mono = mono_mul_by_sort(m1, m2)
    if not s_m:
        return 0, None, None
    s_w, word = sort_word(w1 + w2, chart)
    if not s_w:
        return 0, None, None
    if word_parity(w1) and m2.parity():
        s_w = -s_w
    return s_m * s_w, mono, word


# -- substitution, one occurrence at a time ----------------------------

def _conn_entry(conn, i, A, B):
    if i is None:
        return conn.vert.get((A, B))
    return conn.coef.get((i, A, B))


def md_mul(D1, D2):
    """Graded product of word operators of one chart and rank; at most
    one factor may carry the frame flag, else ValueError.

    Its coefficients multiply with the ring product *, not through
    scalar.add_product: they are mostly the constant 1 of a connection
    image (twist_by_occurrence), where * returns the other factor as
    it is, while add_product scales every coefficient into integer sums
    that wrap_sums divides back.  Routed through add_product and
    wrap_sums while the engine's letter substitution multiplied through
    it, a round of the lift-curved benchmark workload took about 9 %
    longer (calibrated median 0.062 -> 0.067 s, 4 alternating 8 s
    runs each, a 2-core x86-64 machine, Python 3.11)."""
    D1._check_like(D2)
    chart, rank = D1.chart, D1.rank
    terms = {}
    for (m1, w1, fr1), c1 in D1.terms.items():
        for (m2, w2, fr2), c2 in D2.terms.items():
            if fr1 + fr2 > 1:
                raise ValueError("the product of two frame-valued operators "
                                 "is not a word operator")
            sign, mono, word = _term_mul((m1, w1), (m2, w2), chart)
            if sign:
                c = c1 * c2
                add_term(terms, (mono, word, fr1 + fr2),
                         c if sign > 0 else -c)
    return MultiDerivation._new(chart, rank, terms)


def _ghost_term(chart, rank, A, B, coeff, kind):
    "coeff * g^B e_A  (kind 'e')  or  coeff * a_B f^A  (kind 'f')"
    if kind == "e":
        mono = GhostMonomial((B,), ())
        word = (e_letter(A),)
    else:
        mono = GhostMonomial((), (B,))
        word = (f_letter(A),)
    return MultiDerivation(chart, rank, {(mono, word, 0): coeff})


def _conn_image_by_pair(ell, conn, sign):
    # the image of one letter, visiting every (A, B) pair
    chart, rank = conn.chart, conn.rank
    out = MultiDerivation(chart, rank,
                          {(ONE_MONO, (ell,), 0): ScalarExpr.one(chart)})
    if ell[0] in ("e", "f"):
        return out
    i = None if ell[0] == "m" else ell[1]
    one = ScalarExpr.one(chart)
    for A in range(rank):
        for B in range(rank):
            c = _conn_entry(conn, i, A, B)
            if i is None and A == B:
                c = (c - one) if c is not None else -one
            if c is not None and not c.is_zero():
                out = out + _ghost_term(chart, rank, A, B, c.scale(sign), "e")
            ct = _conn_entry(conn, i, B, A)
            if ct is not None and not ct.is_zero():
                out = out + _ghost_term(chart, rank, A, B, ct.scale(-sign),
                                        "f")
    return out


def twist_by_occurrence(D, conn, sign):
    """imm_i_nabla (sign 1) or to_twisted (sign -1) of D, building the
    image of a letter afresh at each of its occurrences and summing the
    terms one operator at a time."""
    chart, rank = D.chart, D.rank
    out = MultiDerivation.zero(chart, rank)
    for (mono, word, fr), c in D.terms.items():
        cur = MultiDerivation._new(chart, rank, {(mono, (), fr): c})
        for ell in word:
            cur = md_mul(cur, _conn_image_by_pair(ell, conn, sign))
        out = out + cur
    return out


def substitute_by_atom(expr, mapping):
    """expr.substitute(mapping) with each atom of a term multiplied in
    as its own ring element, and the terms summed one at a time."""
    chart = expr.chart
    out = ScalarExpr.zero(chart)
    for key, c in expr.terms.items():
        term = ScalarExpr.number(chart, c)
        for atom, e in key:
            if atom[0] == "x" and atom[1] in mapping:
                term = term * (mapping[atom[1]] ** e)
            else:
                term = term * ScalarExpr(chart, {((atom, e),): 1})
        out = out + term
    return out


def _merge_keys(k1, k2):
    exps = dict(k1)
    for atom, e in k2:
        exps[atom] = exps.get(atom, 0) + e
    return tuple(sorted(exps.items()))


def cos_atoms(terms):
    "The cos atoms of a normal form; they lead each key, as cos sorts first."
    out = set()
    for key in terms:
        for atom, _ in key:
            if atom[0] != "cos":
                break
            out.add(atom)
    return out


def mul_by_reduce(a, b):
    "a * b with every term pair merged and the sum normalised in full."
    raw = {}
    for k1, c1 in a.terms.items():
        for k2, c2 in b.terms.items():
            k = _merge_keys(k1, k2)
            raw[k] = raw.get(k, 0) + c1 * c2
    return ScalarExpr(a.chart, raw)


def partial_by_reduce(a, coord):
    "a.partial(coord) with the sum normalised in full."
    funcs = a.chart.funcs
    raw = {}
    for key, c in a.terms.items():
        for i, (atom, e) in enumerate(key):
            kind = atom[0]
            if kind in ("x", "sin", "cos"):
                if atom[1] != coord:
                    continue
                datoms = {"x": (), "sin": ((("cos", coord), 1),),
                          "cos": ((("sin", coord), 1),)}[kind]
            elif coord not in funcs[atom[1]]:
                continue
            else:
                multi = tuple(sorted(atom[2] + (coord,))) if kind == "dfn" \
                    else (coord,)
                datoms = ((("dfn", atom[1], multi), 1),)
            rest = key[:i] + ((atom, e - 1),) + key[i + 1:]
            rest = tuple((at, x) for at, x in rest if x > 0)
            k = _merge_keys(rest, datoms)
            raw[k] = raw.get(k, 0) + (-c * e if kind == "cos" else c * e)
    return ScalarExpr(a.chart, raw)


# -- term-by-term evaluation -----------------------------------------

def _peel(word, parts, chart, rank):
    # parts: [(GradedFunction, shifted parity)] for homogeneous pieces
    if not word:
        return GradedFunction.one(chart, rank)
    head, tail = word[0], word[1:]
    tail_par = word_parity(tail)
    out = GradedFunction.zero(chart, rank)
    for j, (fun, sig) in enumerate(parts):
        acted = _letter_apply(head, fun)
        if acted.is_zero():
            continue
        rest = parts[:j] + parts[j + 1:]
        expo = tail_par * sig + sum(parts[i][1] for i in range(j)) * sig
        term = acted.ghost_mul(_peel(tail, rest, chart, rank))
        if expo % 2:
            term = -term
        out = out + term
    return out


def evaluate_by_term(D, args):
    """evaluate(D, args) one term at a time: every term peels its word on
    every choice of argument pieces, with no grouping and no cache."""
    chart, rank = D.chart, D.rank
    split = []
    for lam in args:
        assert isinstance(lam, Section)
        parts = []
        for par in (0, 1):
            sel = {m: c for m, c in lam.fun.terms.items()
                   if shifted_parity(m) == par}
            if sel:
                parts.append((GradedFunction(chart, rank, sel), par))
        if not parts:
            parts.append((GradedFunction.zero(chart, rank), 0))
        split.append(parts)
    total = GradedFunction.zero(chart, rank)
    fr_flag = D.frame()
    for (mono, word, fr), coeff in D.terms.items():
        assert len(word) == len(args), "arity mismatch"
        cg = GradedFunction(chart, rank, {mono: coeff})
        for combo in iproduct(*split):
            val = _peel(word, list(combo), chart, rank)
            if not val.is_zero():
                total = total + cg.ghost_mul(val)
    if fr_flag == 0:
        return total
    return Section(total)


# -- evaluation oracle for the bracket -------------------------------

def _compose(D, E, args):
    """sum over unshuffles of D(E(first block), remaining), with the
    Koszul sign of the unshuffle on shifted parities."""
    nD, nE = arity(D), arity(E)
    if nD == 0:
        return None
    sig = []
    for lam in args:
        ps = {shifted_parity(m) for m in lam.fun.terms}
        assert len(ps) <= 1, "oracle arguments must be parity homogeneous"
        sig.append(ps.pop() if ps else 0)
    total = None
    for S in combinations(range(len(args)), nE):
        inS = set(S)
        expo = 0
        for s in S:
            for r in range(s):
                if r not in inS:
                    expo += sig[r] * sig[s]
        inner = evaluate(E, [args[i] for i in S])
        assert isinstance(inner, Section), "oracle needs frame-valued operators"
        rest = [args[i] for i in range(len(args)) if i not in inS]
        val = evaluate(D, [inner] + rest)
        if expo % 2:
            val = -val
        total = val if total is None else total + val
    return total


def gerstenhaber_eval_oracle(D, E, args):
    """Evaluate [[D, E]] on arguments without forming the bracket:
    alternating sum of unshuffle compositions."""
    assert len(args) == arity(D) + arity(E) - 1
    first = _compose(D, E, args)
    second = _compose(E, D, args)
    flip = -1 if ((tau(D) - 1) * (tau(E) - 1)) % 2 else 1
    zero = Section.zero(D.chart, D.rank)
    first = zero if first is None else first
    second = zero if second is None else second
    return first - second.scale(flip)


# -- the reduced side, one value at a time ---------------------------

def derived_brackets_unshared(Jhat, k_max):
    """derived_brackets with no shared state and no pruning: every m_k
    call brackets all of Jhat through all of its arguments."""
    chart = Jhat.chart

    def make(k):
        def m_k(*args):
            assert len(args) == k
            cur = Jhat
            for g in args:
                cur = sj_bracket(cur, v_immersion(g, chart))
            return v_projection(cur)
        return m_k

    return {k: make(k) for k in range(1, k_max + 1)}


def coisotropy_residual_full(Jhat, section):
    """coisotropy_residual with no term of Jhat dropped: the BRST
    problem's projected self-bracket of its candidate charge."""
    prob = brst_problem(Jhat, section)
    return prob.P(prob.bracket(prob.Qbar, prob.Qbar))


def mc_series(m, sigma, K):
    """sum_(k <= K) (-1)^(k-1) m_k(sigma, ..., sigma)/k! for the family
    m of derived_brackets."""
    out = Section.zero(sigma.chart, sigma.rank)
    for k in range(1, K + 1):
        out = out + m[k](*[sigma] * k).scale(
            Fraction((-1) ** (k - 1), math.factorial(k)))
    return out


def hpl_dif_by_series(imm, proj, homotopy, delta, x):
    """The transferred differential summed homotopy first,
    proj (delta (sum_k (homotopy delta)^k (imm x)))."""
    total = cur = imm(x)
    for _ in range(64):
        cur = homotopy(delta(cur))
        if cur.is_zero():
            return proj(delta(total))
        total = total + cur
    raise AssertionError("perturbation series did not terminate")


def koszul_dif(con):
    """The Koszul differential d[s] of a BrstContraction as an arity-1
    operator: sum_A (y_A - s_A) f^A with the frame."""
    chart = con.chart
    return MultiDerivation(chart, con.rank, {
        (ONE_MONO, (f_letter(A),), 1): ScalarExpr.coord(chart, y) - s
        for A, (y, s) in enumerate(zip(chart.fiber, con.section))})


def reduced_dif_by_series(bfv, x):
    """hpl_dif_by_series on the BRST contraction of bfv, with delta the
    difference of two evaluations, d_BFV(lam) - d[s](lam)."""
    con = bfv.con
    d0 = koszul_dif(con)

    def delta(lam):
        return bfv.dif(lam) - evaluate(d0, [lam])

    return hpl_dif_by_series(con.imm, con.proj, con.homotopy, delta, x)


# -- Jacobi equivalence ------------------------------------------------

def conformal_pair(J, a):
    """J_a = (a Lambda, a Gamma + Lambda# da) for the pair J = (Lambda,
    Gamma) of a structure operator, read off its d-d and m-d words, and
    a ring element a of J's chart: (Lambda# da)^j = sum_i Lambda^(ij) d_i a,
    with Lambda^(ji) = -Lambda^(ij)."""
    biv, vec = {}, {}

    def add(j, c):
        vec[j] = vec[j] + c if j in vec else c

    for (mono, word, fr), c in J.terms.items():
        assert mono == ONE_MONO and fr == 1 and len(word) == 2, word
        if word[0] == M:
            add(word[1][1], a * c)
        else:
            i, j = word[0][1], word[1][1]
            biv[(i, j)] = a * c
            add(j, c * a.partial(i))
            add(i, -(c * a.partial(j)))
    return jacobi_from_pair(J.chart, J.rank, biv, vec)


def hamiltonian_shear(J, h):
    """dh = (dh_A), dh_A = sum_i Lambda^(y_A i) d_i h at y = 0, for the
    pair J = (Lambda, Gamma) of a structure operator and a ring element
    h of J's chart: the Hamiltonian flow of h moves a section y = s to
    y = s + dh.  h must depend neither on a fiber coordinate nor on a
    coordinate Gamma moves along, so that Gamma(h) = 0; any other h
    raises ValueError."""
    chart = J.chart
    moved = {word[1][1] for (_, word, _) in J.terms if word[0] == M}
    bad = h.variables() & (moved | set(chart.fiber))
    if bad:
        raise ValueError("h depends on %s" % ", ".join(sorted(bad)))
    at_zero = {y: 0 for y in chart.fiber}
    shear = [ScalarExpr.zero(chart) for _ in chart.fiber]
    for (mono, word, fr), c in J.terms.items():
        assert mono == ONE_MONO and fr == 1 and len(word) == 2, word
        if word[0] == M:
            continue
        i, j = word[0][1], word[1][1]  # c = Lambda^(ij) = -Lambda^(ji)
        for y, x, sign in ((i, j, 1), (j, i, -1)):
            if y in chart.fiber:
                A = chart.fiber.index(y)
                shear[A] = shear[A] + (c.substitute(at_zero) *
                                       h.partial(x)).scale(sign)
    return tuple(shear)


# -- reconstruction from probes --------------------------------------

def _probe_section(ell, chart, rank):
    kind = ell[0]
    one = GradedFunction.one(chart, rank)
    if kind == "m":
        return Section(one)
    if kind == "d":
        return Section(one.scale(ScalarExpr.coord(chart, ell[1])))
    if kind == "e":
        return Section(GradedFunction.ghost(chart, rank, ell[1]))
    return Section(GradedFunction.antighost(chart, rank, ell[1]))


def _as_number(expr):
    if expr.is_zero():
        return Fraction(0)
    assert set(expr.terms) == {()}, "expected a constant, got %s" % expr
    return expr.terms[()]


def reconstruct(chart, rank, arity, frame, probe, letters=None, verify=True):
    """Recover a word operator from evaluations on probe sections.

    Each letter has a dual probe (the frame for m, a bare coordinate
    for d_i, single generators for e/f); on the probe tuple of a word
    only the word itself, and words trading one letter for m, survive.
    m-words are fixed first, their pollution is subtracted, and each
    coefficient follows by dividing out a self-calibrating constant.
    """
    if letters is None:
        letters = [M] + [d_letter(c) for c in chart.coords] \
            + [e_letter(A) for A in range(rank)] \
            + [f_letter(A) for A in range(rank)]
    letters = sorted(set(letters), key=lambda l: _letter_key(l, chart))
    words = []
    for combo in combinations_with_replacement(letters, arity):
        if any(x == y and letter_odd(x) for x, y in zip(combo, combo[1:])):
            continue
        words.append(tuple(combo))

    def targets(word):
        return [_probe_section(ell, chart, rank) for ell in word]

    def value_fun(v):
        if isinstance(v, Section):
            assert frame == 1 or v.is_zero(), \
                "probe returned a section for a function-valued operator"
            return v.fun
        assert isinstance(v, GradedFunction)
        assert frame == 0 or v.is_zero(), \
            "probe returned a bare function for a frame-valued operator"
        return v

    def kappa(word):
        unit = single(chart, rank, word, fr=frame)
        val = value_fun(evaluate(unit, targets(word)))
        assert set(val.terms) == {ONE_MONO}
        k = _as_number(val.terms[ONE_MONO])
        assert k != 0
        return k

    rec = MultiDerivation.zero(chart, rank)
    m_words = [w for w in words if M in w]
    plain_words = [w for w in words if M not in w]
    for word in m_words:
        T = targets(word)
        coeff = value_fun(probe(tuple(T))).scale(Fraction(1) / kappa(word))
        for mono, c in coeff.terms.items():
            rec = rec + MultiDerivation(chart, rank, {(mono, word, frame): c})
    m_part = rec
    for word in plain_words:
        T = targets(word)
        val = value_fun(probe(tuple(T)))
        if not m_part.is_zero():
            val = val - value_fun(evaluate(m_part, T))
        coeff = val.scale(Fraction(1) / kappa(word))
        for mono, c in coeff.terms.items():
            rec = rec + MultiDerivation(chart, rank, {(mono, word, frame): c})
    if verify:
        checks = [targets(w) for w in words]
        if arity and letters:
            # the defining tuples are matched by construction; a sum
            # probe detects values outside the multiderivation span
            blend = Section.zero(chart, rank)
            for ell in letters:
                blend = blend + _probe_section(ell, chart, rank)
            checks.append([blend] * arity)
        for T in checks:
            want = value_fun(probe(tuple(T)))
            got = value_fun(evaluate(rec, T))
            if want != got:
                raise ValueError(
                    "probe values are inconsistent with a word operator "
                    "of arity %d" % arity)
    return rec
