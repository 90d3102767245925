"""Bigraded ghost/anti-ghost algebra over the scalar ring.

Ghost generators xi^A (bi-degree (1,0)) and anti-ghost generators
xi*_B (bi-degree (0,1)) are both odd.  Canonical monomial order: all
ghosts ascending, then all anti-ghosts ascending; the merge sign of a
product is the parity of the sorting permutation, and a repeated index
annihilates the term.  Indices are 0-based internally and rendered
1-based.

Every monomial an operation produces is canonical, so mono_mul merges
its operands' ascending blocks in one pass and builds the product
unchecked (GhostMonomial._new), as do the left derivatives, which
remove one index; they and partial store no zero and wrap unchecked.
mul_terms, the product on monomial -> ring element dicts, serves
ghost_mul and evaluate: it sums each product into its monomial's
integer sum through scalar.add_product, and the caller wraps the sums
once (scalar.wrap_sums).  The public
constructors take coefficients through scalar.as_ring.  The monomial
constructor validates the indices: ints, not bools, strictly ascending
in each block; check_mono bounds them by a rank.  A monomial hashes
once, when it is built.  A product applies its sign by negation; a
ring element's coefficients are never written in place, so results
may share them.
"""

from .scalar import ScalarExpr, add_product, add_term, as_ring, wrap_sums


class GhostMonomial:
    __slots__ = ("g", "a", "_hash")

    def __init__(self, g=(), a=()):
        self.g = tuple(g)
        self.a = tuple(a)
        if not (all(type(x) is int for x in self.g + self.a) and
                all(x < y for x, y in zip(self.g, self.g[1:])) and
                all(x < y for x, y in zip(self.a, self.a[1:]))):
            raise ValueError("ghost and anti-ghost indices must be strictly "
                             "ascending ints, got %r" % ((self.g, self.a),))
        self._hash = hash((self.g, self.a))

    @classmethod
    def _new(cls, g, a):
        "Wrap two strictly ascending index tuples, unchecked."
        out = cls.__new__(cls)
        out.g = g
        out.a = a
        out._hash = hash((g, a))
        return out

    def bidegree(self):
        return (len(self.g), len(self.a))

    def parity(self):
        return (len(self.g) + len(self.a)) % 2

    def key(self):
        return (self.g, self.a)

    def __eq__(self, other):
        return isinstance(other, GhostMonomial) and self.g == other.g and \
            self.a == other.a

    def __hash__(self):
        return self._hash

    def __repr__(self):
        if not self.g and not self.a:
            return "1"
        bits = ["xi^%d" % (A + 1) for A in self.g]
        bits += ["xi*_%d" % (B + 1) for B in self.a]
        return " ".join(bits)


ONE_MONO = GhostMonomial()


def mono_mul(m1, m2):
    """Product of two monomials: (sign, GhostMonomial) or (0, None).

    The word is g1 a1 g2 a2: the g2 block moves left across a1, then
    each pair of ascending blocks merges.  One loop over each pair finds
    a shared index, which kills the product, and counts the pairs out of
    order; the result is built unchecked, as a merge of ascending
    tuples without a shared index is strictly ascending."""
    g1, a1, g2, a2 = m1.g, m1.a, m2.g, m2.a
    if not (g2 or a2):
        return 1, m1
    if not (g1 or a1):
        return 1, m2
    inv = len(a1) * len(g2)
    for left, right in ((g1, g2), (a1, a2)):
        for y in right:
            for x in left:
                if x > y:
                    inv += 1
                elif x == y:
                    return 0, None
    return (-1 if inv % 2 else 1), GhostMonomial._new(
        tuple(sorted(g1 + g2)) if g1 and g2 else g1 or g2,
        tuple(sorted(a1 + a2)) if a1 and a2 else a1 or a2)


def mul_terms(out, a, b, neg=False):
    """Add the graded product of dicts a, b (monomial -> ring element)
    into out, negated if neg: the sums of scalar.add_product, keyed by
    monomial, for scalar.wrap_sums."""
    for m1, c1 in a.items():
        for m2, c2 in b.items():
            sign, m = mono_mul(m1, m2)
            if sign:
                add_product(out, m, c1, c2, (sign < 0) != neg)


def check_mono(mono, rank):
    "Raise ValueError unless every index of mono is below rank."
    for A in mono.g + mono.a:
        if not 0 <= A < rank:
            raise ValueError("ghost index %r is out of range for rank %d"
                             % (A, rank))


class Combination:
    """Finite linear combination key -> ScalarExpr over one chart and
    rank, with no zero coefficient stored.

    Holds the linear structure shared by the ghost algebra
    (GradedFunction), the section module (Section) and the word
    operators (MultiDerivation); subclasses pick the keys and validate
    them in their own __init__.  _new wraps a term dict that is already
    valid without checking it again."""

    __slots__ = ("chart", "rank", "terms")

    @classmethod
    def _new(cls, chart, rank, terms):
        out = cls.__new__(cls)
        out.chart = chart
        out.rank = rank
        out.terms = terms
        return out

    @classmethod
    def zero(cls, chart, rank):
        return cls._new(chart, rank, {})

    def is_zero(self):
        return not self.terms

    def _like(self, other):
        return isinstance(other, type(self)) and \
            (self.chart is other.chart or self.chart == other.chart) and \
            self.rank == other.rank

    def _check_like(self, other):
        """Raise ValueError unless other is of this type, chart and rank;
        the message names which of them differ."""
        if self._like(other):
            return
        if isinstance(other, type(self)):
            differ = " and ".join(
                what for what, a, b in (("chart", self.chart, other.chart),
                                        ("rank", self.rank, other.rank))
                if a != b)
        else:
            differ = "type"
        raise ValueError(
            "operands must share type, chart and rank; they differ in %s: "
            "got a %s of rank %d and a %s of rank %r" % (
                differ, type(self).__name__, self.rank, type(other).__name__,
                getattr(other, "rank", None)))

    def __add__(self, other):
        self._check_like(other)
        terms = dict(self.terms)
        for k, c in other.terms.items():
            add_term(terms, k, c)
        return self._new(self.chart, self.rank, terms)

    def __neg__(self):
        return self._new(self.chart, self.rank,
                         {k: -c for k, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def scale(self, q):
        "Multiply by a number or a ScalarExpr, dropping zero products."
        if isinstance(q, ScalarExpr):
            terms = {}
            for k, c in self.terms.items():
                c = c * q
                if c:
                    terms[k] = c
        elif q:
            terms = {k: c.scale(q) for k, c in self.terms.items()}
        else:
            terms = {}
        return self._new(self.chart, self.rank, terms)

    def __eq__(self, other):
        return self._like(other) and self.terms == other.terms

    def __hash__(self):
        return hash((self.chart, self.rank, frozenset(self.terms.items())))


class GradedFunction(Combination):
    """Element of the ghost algebra: finite map monomial -> ScalarExpr."""

    __slots__ = ()

    def __init__(self, chart, rank, terms=None):
        self.chart = chart
        self.rank = rank
        self.terms = {}
        for mono, coeff in (terms or {}).items():
            coeff = as_ring(chart, coeff)
            if coeff.is_zero():
                continue
            check_mono(mono, rank)
            self.terms[mono] = coeff

    # -- constructors ------------------------------------------------

    @classmethod
    def scalar(cls, chart, rank, expr):
        return cls(chart, rank, {ONE_MONO: expr})

    @classmethod
    def one(cls, chart, rank):
        return cls.scalar(chart, rank, ScalarExpr.one(chart))

    @classmethod
    def ghost(cls, chart, rank, A):
        return cls(chart, rank, {GhostMonomial((A,), ()): ScalarExpr.one(chart)})

    @classmethod
    def antighost(cls, chart, rank, B):
        return cls(chart, rank, {GhostMonomial((), (B,)): ScalarExpr.one(chart)})

    # -- algebra -----------------------------------------------------

    def ghost_mul(self, other):
        "Graded product."
        self._check_like(other)
        out = {}
        mul_terms(out, self.terms, other.terms)
        return GradedFunction._new(self.chart, self.rank,
                                   wrap_sums(self.chart, out))

    def pr_bidegree(self, h, k):
        return GradedFunction(self.chart, self.rank,
                              {m: c for m, c in self.terms.items()
                               if m.bidegree() == (h, k)})

    def left_deriv_ghost(self, A):
        "Left derivative along xi^A."
        out = {}
        for m, c in self.terms.items():
            if A not in m.g:
                continue
            pos = m.g.index(A)
            m2 = GhostMonomial._new(m.g[:pos] + m.g[pos + 1:], m.a)
            out[m2] = -c if pos % 2 else c
        return GradedFunction._new(self.chart, self.rank, out)

    def left_deriv_antighost(self, A):
        "Left derivative along xi*_A."
        out = {}
        for m, c in self.terms.items():
            if A not in m.a:
                continue
            pos = m.a.index(A)
            m2 = GhostMonomial._new(m.g, m.a[:pos] + m.a[pos + 1:])
            out[m2] = -c if (len(m.g) + pos) % 2 else c
        return GradedFunction._new(self.chart, self.rank, out)

    def partial(self, coord):
        return GradedFunction._new(self.chart, self.rank, {
            m: d for m, c in self.terms.items() if (d := c.partial(coord))})

    def __str__(self):
        if not self.terms:
            return "0"
        order = sorted(self.terms, key=lambda m: (m.bidegree(), m.key()))
        return " + ".join("(%s) %s" % (self.terms[m], m) for m in order)

    def __repr__(self):
        return "<GradedFunction %s>" % self


class Section(Combination):
    """Element of the section module: a ghost-algebra element tensored
    with the fixed frame mu, keyed by ghost monomials like
    GradedFunction but a separate type, so frame-valued results stay
    apart from function-valued ones and the rendering carries mu."""

    __slots__ = ()

    def __init__(self, fun):
        if not isinstance(fun, GradedFunction):
            raise ValueError("a Section wraps a GradedFunction, got %r"
                             % (fun,))
        self.chart = fun.chart
        self.rank = fun.rank
        self.terms = fun.terms

    @classmethod
    def frame(cls, chart, rank):
        return cls(GradedFunction.one(chart, rank))

    @property
    def fun(self):
        "The coefficient of mu, sharing this section's terms."
        return GradedFunction._new(self.chart, self.rank, self.terms)

    def pr_bidegree(self, h, k):
        return Section(self.fun.pr_bidegree(h, k))

    def __str__(self):
        if self.is_zero():
            return "0"
        order = sorted(self.terms, key=lambda m: (m.bidegree(), m.key()))
        return " + ".join("(%s) %s mu" % (self.terms[m], m) if (m.g or m.a)
                          else "(%s) mu" % self.terms[m] for m in order)

    def __repr__(self):
        return "<Section %s>" % self


def shifted_parity(mono):
    "Parity of a monomial section in the shifted module L[1]."
    return (mono.parity() + 1) % 2
