"""Two contractions used by the step-by-step construction.

The first one compares word operators with their plain (ghost-free)
skeletons.  A connection on the model bundle turns a plain operator
into one that pairs against the ghost directions: every m and d_i
letter picks up connection terms with one ghost generator and one e/f
letter.  That immersion, imm_i_nabla, also reads an operator written
in the twisted letter basis back in the plain one; to_twisted inverts
it.  The associated homotopy works in the twisted letter basis,
trading e/f letters back for generators, with a 1/weight normalization.

The second one contracts the section module along a chosen section of
the fiber projection: an explicit integration homotopy h inverts the
Koszul differential d[s] up to the projection/immersion pair.

hpl_deform transfers a contraction through a perturbation of the
differential by the usual geometric series, evaluated lazily.
"""

from fractions import Fraction
from itertools import product as iproduct
from math import factorial

from .scalar import ScalarExpr, add_term
from .ghost import GhostMonomial, GradedFunction, Section, ONE_MONO, mono_mul
from .multideriv import (M, d_letter, e_letter, f_letter, MultiDerivation,
                         md_mul, evaluate, sj_bracket)


class ConnectionSpec:
    """Connection coefficients in the model chart.

    vert[(A, B)] is the endomorphism-valued part attached to the frame
    direction, coef[(i, A, B)] the part attached to d_i; missing keys
    are zero, so ConnectionSpec(chart, rank) is the flat trivial one.
    """

    __slots__ = ("chart", "rank", "vert", "coef")

    def __init__(self, chart, rank, vert=None, coef=None):
        self.chart = chart
        self.rank = rank
        self.vert = {}
        for (A, B), c in dict(vert or {}).items():
            assert 0 <= A < rank and 0 <= B < rank
            if isinstance(c, (int, Fraction)):
                c = ScalarExpr.number(chart, c)
            if not c.is_zero():
                self.vert[(A, B)] = c
        self.coef = {}
        for (i, A, B), c in dict(coef or {}).items():
            assert i in chart._pos and 0 <= A < rank and 0 <= B < rank
            if isinstance(c, (int, Fraction)):
                c = ScalarExpr.number(chart, c)
            if not c.is_zero():
                self.coef[(i, A, B)] = c

    def is_flat_trivial(self):
        return not self.vert and not self.coef

    def _entry(self, i, A, B):
        if i is None:
            return self.vert.get((A, B))
        return self.coef.get((i, A, B))


def _ghost_term(chart, rank, A, B, coeff, kind):
    "coeff * g^B e_A  (kind 'e')  or  coeff * a_B f^A  (kind 'f')"
    if kind == "e":
        mono = GhostMonomial((B,), ())
        word = (e_letter(A),)
    else:
        mono = GhostMonomial((), (B,))
        word = (f_letter(A),)
    return MultiDerivation(chart, rank, {(mono, word, 0): coeff})


def _substitute_letters(D, image):
    "Replace every letter by its image operator, keeping coefficients."
    chart, rank = D.chart, D.rank
    out = MultiDerivation.zero(chart, rank)
    for (mono, word, fr), c in D.terms.items():
        cur = MultiDerivation(chart, rank, {(mono, (), 0): c})
        for ell in word:
            cur = md_mul(cur, image(ell))
        if fr:
            cur = MultiDerivation._new(chart, rank,
                                       {(m2, w2, 1): c2
                                        for (m2, w2, _), c2 in cur.terms.items()})
        out = out + cur
    return out


def _conn_image(ell, conn, sign):
    """Image of one letter under the connection twist: m and d_i gain
    ghost/anti-ghost terms, e and f stay put."""
    chart, rank = conn.chart, conn.rank
    out = MultiDerivation(chart, rank,
                          {(ONE_MONO, (ell,), 0): ScalarExpr.one(chart)})
    if ell[0] in ("e", "f"):
        return out
    i = None if ell[0] == "m" else ell[1]
    one = ScalarExpr.one(chart)
    for A in range(rank):
        for B in range(rank):
            c = conn._entry(i, A, B)
            if i is None and A == B:
                c = (c - one) if c is not None else -one
            if c is not None and not c.is_zero():
                out = out + _ghost_term(chart, rank, A, B, c.scale(sign), "e")
            ct = conn._entry(i, B, A)
            if ct is not None and not ct.is_zero():
                out = out + _ghost_term(chart, rank, A, B, ct.scale(-sign), "f")
    return out


def imm_i_nabla(D, conn):
    "Immersion of a plain operator along the connection."
    return _substitute_letters(D, lambda ell: _conn_image(ell, conn, 1))


def to_twisted(D, conn):
    "Rewrite a plain-basis operator in the twisted letter basis."
    return _substitute_letters(D, lambda ell: _conn_image(ell, conn, -1))


def proj_p(D):
    "Keep the plain skeleton: unit ghost coefficient, only m/d letters."
    return MultiDerivation._new(
        D.chart, D.rank,
        {(mono, word, fr): c for (mono, word, fr), c in D.terms.items()
         if mono == ONE_MONO and all(ell[0] in ("m", "d") for ell in word)})


def _twisted_weight_parts(D):
    parts = {}
    for (mono, word, fr), c in D.terms.items():
        k = len(mono.g) + len(mono.a) + \
            sum(1 for ell in word if ell[0] in ("e", "f"))
        parts.setdefault(k, {})[(mono, word, fr)] = c
    return {k: MultiDerivation._new(D.chart, D.rank, terms)
            for k, terms in sorted(parts.items())}


def weight(D, conn):
    """Decompose an operator by connection weight: the count of ghost
    generators plus e/f letters in the twisted basis.  Returns a dict
    {k: operator}; the parts sum back to D."""
    return {k: imm_i_nabla(part, conn)
            for k, part in _twisted_weight_parts(to_twisted(D, conn)).items()}


def _h_twist(D):
    """The raw homotopy in the twisted basis: each e_A (f^A) letter is
    traded for an anti-ghost (ghost) generator multiplied from the
    left; the word closes up in place."""
    terms = {}
    for (mono, word, fr), c in D.terms.items():
        for pos, ell in enumerate(word):
            if ell[0] == "e":
                gen = GhostMonomial((), (ell[1],))
            elif ell[0] == "f":
                gen = GhostMonomial((ell[1],), ())
            else:
                continue
            s, mono2 = mono_mul(gen, mono)
            if not s:
                continue
            add_term(terms, (mono2, word[:pos] + word[pos + 1:], fr),
                     c.scale(s))
    return MultiDerivation._new(D.chart, D.rank, terms)


def homotopy_H_nabla(D, conn):
    "Homotopy of the connection contraction (normalized by 1/weight)."
    total = MultiDerivation.zero(D.chart, D.rank)
    for k, part in _twisted_weight_parts(to_twisted(D, conn)).items():
        if k == 0:
            continue
        total = total + imm_i_nabla(_h_twist(part), conn).scale(Fraction(-1, k))
    return total


# -- the contraction along a section ---------------------------------

def _multi_indices(rank, bound):
    for alpha in iproduct(range(bound + 1), repeat=rank):
        if sum(alpha) <= bound:
            yield alpha


class BrstContraction:
    """Contraction of the section module onto the reduced side along a
    section of the fiber projection (a tuple of base functions)."""

    __slots__ = ("chart", "rank", "section", "red")

    def __init__(self, chart, rank, section):
        assert len(section) == rank
        self.chart = chart
        self.rank = rank
        vals = []
        for c in section:
            if isinstance(c, (int, Fraction)):
                c = ScalarExpr.number(chart, c)
            assert c.max_degree(chart.fiber) == 0, \
                "section components must be functions on the base"
            vals.append(c)
        self.section = tuple(vals)
        self.red = chart.reduced()

    def _ymap(self):
        return {self.chart.fiber[A]: self.section[A]
                for A in range(self.rank)}

    def dif(self):
        "The Koszul differential d[s] as an arity-1 operator."
        chart, rank = self.chart, self.rank
        out = MultiDerivation.zero(chart, rank)
        for A in range(rank):
            c = ScalarExpr.coord(chart, chart.fiber[A]) - self.section[A]
            out = out + MultiDerivation(chart, rank,
                                        {(ONE_MONO, (f_letter(A),), 1): c})
        return out

    def proj(self, sec):
        "Project to the reduced side: drop anti-ghosts, evaluate on s."
        ymap = self._ymap()
        return Section(GradedFunction(
            self.red, self.rank,
            {mono: c.substitute(ymap).with_chart(self.red)
             for mono, c in sec.fun.terms.items() if not mono.a}))

    def imm(self, red_sec):
        "Pull a reduced section back over the full chart."
        terms = {}
        for mono, c in red_sec.fun.terms.items():
            assert not mono.a, "reduced sections carry no anti-ghosts"
            terms[mono] = c.with_chart(self.chart)
        return Section(GradedFunction(self.chart, self.rank, terms))

    def homotopy(self, sec):
        """Integration homotopy against d[s]; exact on coefficients
        polynomial in the fiber coordinates."""
        chart, rank = self.chart, self.rank
        ymap = self._ymap()
        terms = {}
        for mono, c in sec.fun.terms.items():
            S, T = mono.g, mono.a
            for A in range(rank):
                if A in T:
                    continue
                dfa = c.partial(chart.fiber[A])
                if dfa.is_zero():
                    continue
                bound = dfa.max_degree(chart.fiber)
                total = ScalarExpr.zero(chart)
                for alpha in _multi_indices(rank, bound):
                    g = dfa
                    fact = 1
                    for B in range(rank):
                        fact *= factorial(alpha[B])
                        for _ in range(alpha[B]):
                            g = g.partial(chart.fiber[B])
                    if g.is_zero():
                        continue
                    g0 = g.substitute(ymap)
                    if g0.is_zero():
                        continue
                    poly = ScalarExpr.one(chart)
                    for B in range(rank):
                        if alpha[B]:
                            yB = ScalarExpr.coord(chart, chart.fiber[B]) \
                                - self.section[B]
                            poly = poly * (yB ** alpha[B])
                    total = total + (g0 * poly).scale(
                        Fraction(1, (sum(alpha) + len(T) + 1) * fact))
                if total.is_zero():
                    continue
                sgn = (-1) ** (len(S) + sum(1 for B in T if B < A))
                add_term(terms, GhostMonomial(S, tuple(sorted(T + (A,)))),
                         total.scale(-sgn))
        return Section(GradedFunction._new(chart, rank, terms))


# -- homological perturbation transfer -------------------------------

class HplData:
    "Deformed contraction maps, all lazy closures."

    __slots__ = ("imm", "proj", "homotopy", "dif")

    def __init__(self, imm, proj, homotopy, dif):
        self.imm = imm
        self.proj = proj
        self.homotopy = homotopy
        self.dif = dif


def _series(step, start, cap):
    "start + step(start) + step(step(start)) + ...  until zero."
    total = start
    cur = start
    for _ in range(cap):
        cur = step(cur)
        if cur.is_zero():
            return total
        total = total + cur
    raise ValueError("perturbation series did not terminate "
                     "(delta against the homotopy is not nilpotent)")


def hpl_deform(imm, proj, homotopy, delta, base_dif=None, cap=64):
    """Transfer a contraction through a perturbation delta of the
    differential.  The deformed maps are

        proj'     x = sum_k  proj ((delta homotopy)^k x)
        imm'      x = sum_k  (homotopy delta)^k (imm x)
        homotopy' x = sum_k  homotopy ((delta homotopy)^k x)
        dif'      x = base_dif x + sum_k proj (delta (homotopy delta)^k (imm x))

    evaluated lazily; a cap guards against a non-nilpotent tail.
    """

    def proj2(x):
        return proj(_series(lambda y: delta(homotopy(y)), x, cap))

    def imm2(x):
        return _series(lambda y: homotopy(delta(y)), imm(x), cap)

    def homotopy2(x):
        return homotopy(_series(lambda y: delta(homotopy(y)), x, cap))

    def dif2(x):
        tail = proj(delta(_series(lambda y: homotopy(delta(y)), imm(x), cap)))
        if base_dif is None:
            return tail
        return base_dif(x) + tail

    return HplData(imm2, proj2, homotopy2, dif2)
