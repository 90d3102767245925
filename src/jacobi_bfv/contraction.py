"""Two contractions used by the step-by-step construction.

The first one compares word operators with their plain (ghost-free)
skeletons.  A connection on the model bundle turns a plain operator
into one that pairs against the ghost directions: every m and d_i
letter picks up connection terms with one ghost generator and one e/f
letter.  With g^B the ghost xi^B, a_A the anti-ghost xi*_A and sign
+1 for imm_i_nabla, -1 for to_twisted, each letter goes to

    m    ->  m   + sign sum_(A,B) vert[A, B] (g^B e_A - a_A f^B)
                 - sign sum_A g^A e_A
    d_i  ->  d_i + sign sum_(A,B) coef[i, A, B] (g^B e_A - a_A f^B)

and e_A, f^A stay put.  The -g^A e_A term belongs to the image of m
alone, and there to its e-terms only: a unit entry vert[A, A] = 1
cancels g^A e_A but keeps -a_A f^A.  A substitution expands each term
in one pass: its word is its odd letters (m, d_i), then its e/f
letters, and each odd letter is either kept or traded for one of its
corrections c g x.  g joins the monomial through mono_mul (a repeated
index kills the choice) with the sign (-1)^(odd letters kept before
it), the word becomes the kept odd letters and then the sorted e/f
letters, and only a chosen correction costs a ring product.  Each
distinct letter's corrections are built once per call.
imm_i_nabla also reads an operator written in the twisted letter basis
back in the plain one; to_twisted inverts it.  The associated homotopy
is one pass in the twisted basis: trade each e/f letter for a
generator, which keeps the weight k (generators plus e/f letters) of a
term, scale by -1/k and immerse back.

The second one contracts the section module along a chosen section s
of the fiber projection.  Its homotopy inverts the Koszul differential
d[s] up to the projection/immersion pair by a radial integral about s,
also in one pass: for a term c xi^S xi*_T, shift dc/dy_A to s,
divide each term of fiber degree k by k + |T| + 1, as the integral of
t^(k + |T|) over [0, 1] does (ScalarExpr.over_degree), and shift back.
check_section is the one check of a rank and a section, for this
class, omega_section and Model; check_connection is the one check
that J is an operator and that a connection's chart and rank are
those of J, for lifting_problem, Model and, before any work,
imm_i_nabla, to_twisted and homotopy_H_nabla; check_reduced is the one
check of a reduced section, for imm and solver.v_immersion.

hpl_deform transfers a contraction through a perturbation of the
differential by the usual geometric series, evaluated lazily; demo 04
transfers a lift back to the plain bracket through it.  Along a section
the series stops at its first term (solver.reduced_differential).
"""

from fractions import Fraction

from .scalar import ScalarExpr, add_term, as_ring
from .ghost import (GhostMonomial, GradedFunction, Section, ONE_MONO,
                    mono_mul, check_mono)
from .multideriv import (M, e_letter, f_letter, letter_odd, MultiDerivation,
                         check_operator)


class ResidualError(ValueError):
    "A nonzero residual stopped a construction, or its cap ran out."


class ConnectionSpec:
    """Connection coefficients in the model chart.

    vert[(A, B)] is the endomorphism-valued part attached to the frame
    direction, coef[(i, A, B)] the part attached to d_i; missing keys
    are zero, so ConnectionSpec(chart, rank) is the flat trivial one.
    Frame indices A, B are ghost indices: ints below rank (a bool is
    not one).  A coef coordinate is a chart coordinate, and an entry a
    number or a ring element of the chart.  Anything else raises
    ValueError.
    """

    __slots__ = ("chart", "rank", "vert", "coef")

    def __init__(self, chart, rank, vert=None, coef=None):
        self.chart = chart
        self.rank = rank
        self.vert = {}
        for (A, B), c in dict(vert or {}).items():
            check_mono(GhostMonomial((A,), (B,)), rank)
            c = as_ring(chart, c)
            if not c.is_zero():
                self.vert[(A, B)] = c
        self.coef = {}
        for (i, A, B), c in dict(coef or {}).items():
            if i not in chart._pos:
                raise ValueError("unknown coordinate %r in connection coef"
                                 % (i,))
            check_mono(GhostMonomial((A,), (B,)), rank)
            c = as_ring(chart, c)
            if not c.is_zero():
                self.coef[(i, A, B)] = c


def check_connection(J, *conns):
    """Raise ValueError unless J is an operator (check_operator) and each
    conn is a ConnectionSpec on J's chart and at J's rank: the one check
    of the connections J is lifted along, for lifting_problem and Model."""
    check_operator(J)
    for conn in conns:
        if not isinstance(conn, ConnectionSpec):
            raise ValueError("a connection is a ConnectionSpec, got %r"
                             % (conn,))
        if conn.rank != J.rank:
            raise ValueError("a connection has the rank of J, %d, got rank "
                             "%r" % (J.rank, conn.rank))
        if conn.chart is not J.chart and conn.chart != J.chart:
            raise ValueError("a connection lives on the chart of J, %r, got "
                             "%r" % (J.chart, conn.chart))


def _conn_image(ell, conn, sign):
    """The corrections of an m or d_i letter under the connection twist
    (see the module docstring), as (one-index ghost monomial, e/f
    letter, coefficient) triples; the letter itself is kept with
    coefficient 1."""
    terms = {}
    if ell == M:
        minus = ScalarExpr.one(conn.chart).scale(-sign)
        for A in range(conn.rank):
            terms[GhostMonomial((A,), ()), e_letter(A)] = minus
        entries = conn.vert.items()
    else:
        entries = [((A, B), c) for (i, A, B), c in conn.coef.items()
                   if i == ell[1]]
    for (A, B), c in entries:
        add_term(terms, (GhostMonomial((B,), ()), e_letter(A)), c.scale(sign))
        add_term(terms, (GhostMonomial((), (A,)), f_letter(B)), c.scale(-sign))
    return [(g, x, c) for (g, x), c in terms.items()]


def _substitute_letters(D, conn, sign):
    """Replace every letter by its image under the connection twist,
    keeping coefficients: one direct expansion per term (see the module
    docstring)."""
    images, out = {}, {}
    for (mono, word, fr), c in D.terms.items():
        odd = [ell for ell in word if letter_odd(ell)]
        # per choice so far: sign, monomial, kept odd letters, e/f
        # letters and coefficient
        paths = [(1, mono, (), word[len(odd):], c)]
        for ell in odd:
            if ell not in images:
                images[ell] = _conn_image(ell, conn, sign)
            grown = []
            for s, m, kept, even, cp in paths:
                grown.append((s, m, kept + (ell,), even, cp))
                for g, x, cg in images[ell]:
                    s2, m2 = mono_mul(m, g)
                    if s2:
                        grown.append((-s * s2 if len(kept) % 2 else s * s2,
                                      m2, kept, even + (x,), cp * cg))
            paths = grown
        for s, m, kept, even, cp in paths:
            add_term(out, (m, kept + tuple(sorted(even)), fr),
                     cp if s > 0 else -cp)
    return MultiDerivation._new(D.chart, D.rank, out)


def imm_i_nabla(D, conn):
    "Immersion of a plain operator along the connection (checked first)."
    check_connection(D, conn)
    return _substitute_letters(D, conn, 1)


def to_twisted(D, conn):
    "Rewrite a plain-basis operator in the twisted basis (checked first)."
    check_connection(D, conn)
    return _substitute_letters(D, conn, -1)


def proj_p(D):
    "Keep the plain skeleton: unit ghost coefficient, only m/d letters."
    return MultiDerivation._new(
        D.chart, D.rank,
        {(mono, word, fr): c for (mono, word, fr), c in D.terms.items()
         if mono == ONE_MONO and all(ell[0] in ("m", "d") for ell in word)})


def _weight(key):
    "Connection weight of a twisted-basis term: generators plus e/f letters."
    mono, word, fr = key
    return len(mono.g) + len(mono.a) + \
        sum(1 for ell in word if ell[0] in ("e", "f"))


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
    """Homotopy of the connection contraction; _h_twist keeps the
    weight of a term and kills weight 0 (checked first)."""
    check_connection(D, conn)
    h = _h_twist(to_twisted(D, conn))
    return imm_i_nabla(MultiDerivation._new(
        D.chart, D.rank,
        {key: c.scale(Fraction(-1, _weight(key)))
         for key, c in h.terms.items()}), conn)


# -- the contraction along a section ---------------------------------

def check_section(chart, rank, section):
    """The components of a section of the fiber projection as ring
    elements.  rank must be an int (not a bool) equal to the number of
    fiber coordinates, section a tuple or list of rank numbers or ring
    elements of the chart free of the fiber coordinates; else
    ValueError."""
    fiber = chart.fiber
    if isinstance(rank, bool) or not isinstance(rank, int) or \
            rank != len(fiber):
        raise ValueError("rank must be an int equal to the number of fiber "
                         "coordinates (%d), got %r" % (len(fiber), rank))
    n = len(section) if isinstance(section, (tuple, list)) else None
    if n != rank:
        raise ValueError("a section needs exactly %d components, got %s" % (
            rank, "%r, not a list" % (section,) if n is None else n))
    out = []
    for c in section:
        c = as_ring(chart, c)
        if c.max_degree(fiber) != 0:
            raise ValueError("section components must be functions on the "
                             "base, free of the fiber coordinates")
        out.append(c)
    return tuple(out)


def check_reduced(red_sec, chart):
    """Raise ValueError unless red_sec is a Section on chart.reduced()
    without anti-ghosts: the one check of a reduced section, for
    BrstContraction.imm and solver.v_immersion."""
    if not (isinstance(red_sec, Section) and red_sec.chart == chart.reduced()):
        raise ValueError("expected a Section on the reduced chart, got %r"
                         % (red_sec,))
    for mono in red_sec.terms:
        if mono.a:
            raise ValueError("reduced sections carry no anti-ghosts, got %s"
                             % (red_sec,))


class BrstContraction:
    """Contraction of the section module onto the reduced side along a
    section of the fiber projection (a tuple of base functions)."""

    __slots__ = ("chart", "rank", "section", "red")

    def __init__(self, chart, rank, section):
        self.chart = chart
        self.rank = rank
        self.section = check_section(chart, rank, section)
        self.red = chart.reduced()

    def proj(self, sec):
        "Project to the reduced side: drop anti-ghosts, evaluate on s."
        ymap = dict(zip(self.chart.fiber, self.section))
        return Section(GradedFunction(
            self.red, self.rank,
            {mono: c.substitute(ymap).with_chart(self.red)
             for mono, c in sec.terms.items() if not mono.a}))

    def imm(self, red_sec):
        """Pull a reduced section back over the full chart; anything
        check_reduced rejects raises ValueError."""
        check_reduced(red_sec, self.chart)
        return Section(GradedFunction(self.chart, self.rank, {
            mono: c.with_chart(self.chart)
            for mono, c in red_sec.terms.items()}))

    def homotopy(self, sec):
        """Integration homotopy against d[s], in one pass (see the module
        docstring); exact on coefficients polynomial in the fiber
        coordinates."""
        chart = self.chart
        ys = [ScalarExpr.coord(chart, y) for y in chart.fiber]
        up = {y: Y + s for y, Y, s in zip(chart.fiber, ys, self.section)}
        down = {y: Y - s for y, Y, s in zip(chart.fiber, ys, self.section)}
        terms = {}
        for mono, c in sec.terms.items():
            for A, y in enumerate(chart.fiber):
                sgn, mono2 = mono_mul(GhostMonomial((), (A,)), mono)
                if not sgn:
                    continue
                g = c.partial(y).substitute(up).over_degree(
                    chart.fiber, len(mono.a) + 1)
                add_term(terms, mono2, g.substitute(down).scale(-sgn))
        return Section._new(chart, self.rank, terms)


# -- homological perturbation transfer -------------------------------

class HplData:
    "Deformed contraction maps, all lazy closures."

    __slots__ = ("imm", "proj", "homotopy", "dif")

    def __init__(self, imm, proj, homotopy, dif):
        self.imm = imm
        self.proj = proj
        self.homotopy = homotopy
        self.dif = dif


def _series(step, start):
    "start + step(start) + step(step(start)) + ...  until zero, 64 at most."
    total = start
    cur = start
    for _ in range(64):
        cur = step(cur)
        if cur.is_zero():
            return total
        total = total + cur
    raise ResidualError("perturbation series did not terminate "
                        "(delta against the homotopy is not nilpotent)")


def hpl_deform(imm, proj, homotopy, delta):
    """Transfer a contraction through a perturbation delta of the
    differential.  The deformed maps are

        proj'     x = sum_k  proj ((delta homotopy)^k x)
        imm'      x = sum_k  (homotopy delta)^k (imm x)
        homotopy' x = sum_k  homotopy ((delta homotopy)^k x)
        dif'      x = proj' (delta (imm x))

    evaluated lazily (the small side carries the zero differential);
    a cap of 64 steps guards against a non-nilpotent tail.  dif' is the
    usual sum_k proj (delta (homotopy delta)^k (imm x)) run delta first:
    delta (homotopy delta)^k = (delta homotopy)^k delta, so the series
    is proj's and no delta is left to apply to its sum.
    """

    def proj2(x):
        return proj(_series(lambda y: delta(homotopy(y)), x))

    def imm2(x):
        return _series(lambda y: homotopy(delta(y)), imm(x))

    def homotopy2(x):
        return homotopy(_series(lambda y: delta(homotopy(y)), x))

    def dif2(x):
        return proj2(delta(imm(x)))

    return HplData(imm2, proj2, homotopy2, dif2)
