"""Exact coefficient ring for the local model.

Elements are finite rational combinations of power products of atoms:
plain coordinates, sin/cos of angular coordinates, abstract function
symbols (base-coordinate dependence only), and formal partial-derivative
atoms of the abstract symbols.  The normal form is unique: monomials are
kept in a fixed sorted order, cos carries exponent <= 1 (cos^2 is
rewritten to 1 - sin^2 exhaustively), zero coefficients are dropped.
A coefficient is an int when it is integral and a Fraction otherwise,
never a float: number and scale take an integral float as an int and
reject any other.  No floating point enters the ring.
"""

from fractions import Fraction


class Chart:
    """Coordinate names and roles, plus declared abstract function symbols.

    fiber coordinates index the ghost generators elsewhere; abstract
    functions may depend on base coordinates only (the BRST homotopy
    needs closed-form integration over fiber dependence).
    """

    __slots__ = ("coords", "angular", "fiber", "funcs", "_pos")

    def __init__(self, coords, angular=(), fiber=(), funcs=None):
        self.coords = tuple(coords)
        if len(set(self.coords)) != len(self.coords):
            raise ValueError("coordinate name clash in %r" % (self.coords,))
        self.angular = frozenset(angular)
        self.fiber = tuple(fiber)
        for role, names in (("angular", self.angular), ("fiber", self.fiber)):
            for c in sorted(names):
                if c not in self.coords:
                    raise ValueError("unknown %s coordinate %r" % (role, c))
        if self.angular & set(self.fiber):
            raise ValueError("fiber coordinates must be polynomial atoms")
        self.funcs = {}
        for name, deps in dict(funcs or {}).items():
            if name in self.coords:
                raise ValueError("function %r clashes with a coordinate"
                                 % name)
            deps = tuple(deps)
            for d in deps:
                if d not in self.coords or d in self.fiber:
                    raise ValueError("abstract functions depend on base "
                                     "coordinates only, got %r" % (d,))
            self.funcs[name] = deps
        self._pos = {c: i for i, c in enumerate(self.coords)}

    @property
    def base(self):
        return tuple(c for c in self.coords if c not in self.fiber)

    def axis(self, name):
        return self._pos[name]

    def _key(self):
        return (self.coords, self.angular, self.fiber,
                tuple(sorted(self.funcs.items())))

    def __eq__(self, other):
        return isinstance(other, Chart) and self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        return "Chart(%r, angular=%r, fiber=%r)" % (
            list(self.coords), sorted(self.angular), list(self.fiber))

    def reduced(self):
        "The chart of the base alone (fiber coordinates removed)."
        return Chart(self.base, self.angular & set(self.base), (), self.funcs)


# Atom encodings.  All are tuples whose first entry names the kind, so
# mixed-kind comparison is well defined and the term order is total:
#   ("x", coord)           plain coordinate
#   ("sin", coord) / ("cos", coord)
#   ("fn", name)           abstract function symbol
#   ("dfn", name, multi)   formal partial derivative, multi = sorted tuple


def _atom_ok(atom, chart):
    kind = atom[0]
    if kind == "x":
        return atom[1] in chart._pos
    if kind in ("sin", "cos"):
        return atom[1] in chart.angular
    if kind == "fn":
        return atom[1] in chart.funcs
    if kind == "dfn":
        if atom[1] not in chart.funcs:
            return False
        deps = chart.funcs[atom[1]]
        return all(c in deps for c in atom[2]) and tuple(sorted(atom[2])) == atom[2]
    return False


def _mul_keys(k1, k2):
    exps = dict(k1)
    for atom, e in k2:
        exps[atom] = exps.get(atom, 0) + e
    return tuple(sorted(exps.items()))


def _exact(q):
    "q as a coefficient: an int when integral, a Fraction otherwise."
    if type(q) is int:
        return q
    if isinstance(q, Fraction):
        return q.numerator if q.denominator == 1 else q
    if isinstance(q, int) or (isinstance(q, float) and q.is_integer()):
        return int(q)
    raise ValueError("coefficients are exact: an int, a Fraction or an "
                     "integral float, got %r" % (q,))


def _check_name(name, declared, role):
    "Raise ValueError unless the chart declares name in the given role."
    if name not in declared:
        raise ValueError("%r is not a %s of the chart" % (name, role))


def _exact_terms(terms):
    "Store every coefficient of a dict as _exact gives it, in place."
    for k, c in terms.items():
        if type(c) is not int:
            terms[k] = _exact(c)


def add_term(terms, key, c):
    """Add c at key of a sparse key -> coefficient dict, in place.

    The one merge step of every linear combination in the engine.  A
    key whose sum cancels is dropped, so a later term at that key goes
    to the end; a key that survives keeps its place.  Coefficients are
    ints, Fractions or ring elements, and falsy exactly when zero."""
    old = terms.get(key)
    if old is not None:
        c = old + c
    if c:
        terms[key] = c
    else:
        terms.pop(key, None)


def _reduce_terms(raw):
    # Exhaustive cos^2 -> 1 - sin^2 rewrite, then merge and drop zeros.
    out = {}
    stack = list(raw.items())
    while stack:
        key, c = stack.pop()
        if c == 0:
            continue
        hit = None
        for atom, e in key:
            if atom[0] == "cos" and e >= 2:
                hit = (atom, e)
                break
        if hit is None:
            add_term(out, key, c)
            continue
        atom, e = hit
        rest = tuple((a, x) for a, x in key if a != atom)
        if e > 2:
            rest = _mul_keys(rest, ((atom, e - 2),))
        stack.append((rest, c))
        stack.append((_mul_keys(rest, ((("sin", atom[1]), 2),)), -c))
    _exact_terms(out)
    return out


class ScalarExpr:
    """Normal-form ring element over a fixed chart."""

    __slots__ = ("chart", "terms")

    def __init__(self, chart, terms=None):
        self.chart = chart
        self.terms = _reduce_terms(terms or {})

    # -- constructors ------------------------------------------------

    @classmethod
    def zero(cls, chart):
        return cls(chart, {})

    @classmethod
    def number(cls, chart, q):
        return cls(chart, {(): _exact(q)})

    @classmethod
    def one(cls, chart):
        return cls.number(chart, 1)

    @classmethod
    def coord(cls, chart, name):
        _check_name(name, chart._pos, "coordinate")
        return cls(chart, {((("x", name), 1),): 1})

    @classmethod
    def sin(cls, chart, name):
        _check_name(name, chart.angular, "angular coordinate")
        return cls(chart, {((("sin", name), 1),): 1})

    @classmethod
    def cos(cls, chart, name):
        _check_name(name, chart.angular, "angular coordinate")
        return cls(chart, {((("cos", name), 1),): 1})

    @classmethod
    def func(cls, chart, name):
        _check_name(name, chart.funcs, "function")
        return cls(chart, {((("fn", name), 1),): 1})

    # -- ring structure ----------------------------------------------

    def is_zero(self):
        return not self.terms

    def __add__(self, other):
        if not isinstance(other, ScalarExpr):
            other = ScalarExpr.number(self.chart, other)
        if self.chart is not other.chart and self.chart != other.chart:
            raise ValueError("ring elements of different charts: %r and %r"
                             % (self.chart, other.chart))
        terms = dict(self.terms)
        for k, c in other.terms.items():
            add_term(terms, k, c)
        _exact_terms(terms)
        out = ScalarExpr.zero(self.chart)
        out.terms = terms
        return out

    __radd__ = __add__

    def __neg__(self):
        out = ScalarExpr.zero(self.chart)
        out.terms = {k: -c for k, c in self.terms.items()}
        return out

    def __sub__(self, other):
        if not isinstance(other, ScalarExpr):
            other = ScalarExpr.number(self.chart, other)
        return self + (-other)

    def __rsub__(self, other):
        return ScalarExpr.number(self.chart, other) - self

    def __mul__(self, other):
        if not isinstance(other, ScalarExpr):
            return self.scale(other)
        if self.chart is not other.chart and self.chart != other.chart:
            raise ValueError("ring elements of different charts: %r and %r"
                             % (self.chart, other.chart))
        raw = {}
        for k1, c1 in self.terms.items():
            for k2, c2 in other.terms.items():
                k = _mul_keys(k1, k2)
                raw[k] = raw.get(k, 0) + c1 * c2
        return ScalarExpr(self.chart, raw)

    def __rmul__(self, other):
        return self.__mul__(other)

    def scale(self, q):
        q = _exact(q)
        out = ScalarExpr.zero(self.chart)
        if q != 0:
            out.terms = {k: q * c for k, c in self.terms.items()}
            _exact_terms(out.terms)
        return out

    def __pow__(self, n):
        if not isinstance(n, int) or n < 0:
            raise ValueError("exponents are nonnegative ints, got %r" % (n,))
        out = ScalarExpr.one(self.chart)
        for _ in range(n):
            out = out * self
        return out

    def __eq__(self, other):
        if isinstance(other, (int, Fraction, float)):
            try:
                other = ScalarExpr.number(self.chart, other)
            except ValueError:  # a float the ring cannot hold
                return False
        return isinstance(other, ScalarExpr) and \
            self.chart == other.chart and self.terms == other.terms

    def __hash__(self):
        if set(self.terms) <= {()}:  # a constant hashes like its number
            return hash(self.terms.get((), 0))
        return hash((self.chart, tuple(sorted(self.terms.items()))))

    # -- calculus ----------------------------------------------------

    def partial(self, coord):
        _check_name(coord, self.chart._pos, "coordinate")
        funcs = self.chart.funcs
        raw = {}
        for key, c in self.terms.items():
            for i, (atom, e) in enumerate(key):
                kind = atom[0]
                if kind == "x":
                    if atom[1] != coord:
                        continue
                    datoms = ()
                elif kind == "sin":
                    if atom[1] != coord:
                        continue
                    datoms = ((("cos", coord), 1),)
                elif kind == "cos":
                    if atom[1] != coord:
                        continue
                    datoms = None  # handled below with a sign
                elif kind == "fn":
                    if coord not in funcs[atom[1]]:
                        continue
                    datoms = ((("dfn", atom[1], (coord,)), 1),)
                else:  # dfn
                    if coord not in funcs[atom[1]]:
                        continue
                    multi = tuple(sorted(atom[2] + (coord,)))
                    datoms = ((("dfn", atom[1], multi), 1),)
                rest = key[:i] + ((atom, e - 1),) + key[i + 1:]
                rest = tuple((a, x) for a, x in rest if x > 0)
                coeff = c * e
                if kind == "cos":
                    coeff = -coeff
                    datoms = ((("sin", coord), 1),)
                k = _mul_keys(rest, datoms)
                raw[k] = raw.get(k, 0) + coeff
        return ScalarExpr(self.chart, raw)

    def substitute(self, mapping):
        """Ring homomorphism sending fiber coordinates to given elements;
        only the mapped powers are multiplied out, the sum normalised once."""
        for name in mapping:
            _check_name(name, self.chart.fiber, "fiber coordinate")
        raw = {}
        for key, c in self.terms.items():
            image = ScalarExpr.number(self.chart, c)
            rest = []
            for atom, e in key:
                if atom[0] == "x" and atom[1] in mapping:
                    image = image * mapping[atom[1]] ** e
                else:
                    rest.append((atom, e))
            for k, q in image.terms.items():
                add_term(raw, _mul_keys(rest, k), q)
        return ScalarExpr(self.chart, raw)

    def max_degree(self, names):
        "Largest total power of the named plain-coordinate atoms."
        names = set(names)
        best = 0
        for key in self.terms:
            d = sum(e for atom, e in key if atom[0] == "x" and atom[1] in names)
            best = max(best, d)
        return best

    def with_chart(self, chart):
        """Reinterpret over another chart declaring the same atoms; an
        atom the chart does not declare raises ValueError."""
        for key in self.terms:
            for atom, _ in key:
                if not _atom_ok(atom, chart):
                    raise ValueError("atom %r is not declared on the target "
                                     "chart" % (atom,))
        out = ScalarExpr.zero(chart)
        out.terms = dict(self.terms)
        return out

    # -- rendering ---------------------------------------------------

    @staticmethod
    def _atom_str(atom):
        kind = atom[0]
        if kind == "x":
            return atom[1]
        if kind in ("sin", "cos"):
            return "%s(%s)" % (kind, atom[1])
        if kind == "fn":
            return atom[1]
        return "%s;%s" % (atom[1], ",".join(atom[2]))

    def __str__(self):
        if not self.terms:
            return "0"
        bits = []
        for key, c in sorted(self.terms.items()):
            factors = []
            if abs(c) != 1 or not key:
                factors.append(str(abs(c)))
            for atom, e in key:
                s = self._atom_str(atom)
                factors.append(s if e == 1 else "%s^%d" % (s, e))
            bits.append(("-" if c < 0 else "+", "*".join(factors)))
        sign, first = bits[0]
        text = ("-" if sign == "-" else "") + first
        for sign, mono in bits[1:]:
            text += " %s %s" % (sign, mono)
        return text

    def __repr__(self):
        return "<ScalarExpr %s>" % self

    def __bool__(self):
        return bool(self.terms)
