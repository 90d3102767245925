"""Exact coefficient ring for the local model.

Elements are finite rational combinations of power products of atoms:
plain coordinates, sin/cos of angular coordinates, abstract function
symbols (base-coordinate dependence only), and formal partial-derivative
atoms of the abstract symbols.  The normal form is unique: monomials are
kept in a fixed sorted order, cos carries exponent <= 1 (cos^2 is
rewritten to 1 - sin^2), zero coefficients are dropped.  A coefficient
is an int when it is integral and a Fraction otherwise, never a float:
number and scale take an integral float as an int and reject any
other.  No floating point enters the ring.

Only the public constructor normalises arbitrary input (_reduce_terms),
rewriting each cos^e in one step.  Every operation on normal forms
keeps them normal through one key product, _key_mul: a normal key holds
cos with exponent <= 1, and cos sorts first, so a product reaches cos^2
only for a pair of keys that both lead with cos, and _key_mul rewrites
each cos^2 of such a pair in place, one level deep.  A product, a
derivative (d sin = cos beside a cos of the same coordinate) and
substitute multiply keys through it; sums and scalings merge key by key
with the zero sums dropped, and every result is wrapped as it is
(_new).

add_product is the one product rule of the engine, and it runs on
integers.  It adds each pair product of two elements of any shape,
times a nonzero int factor (a sign or a multiplicity), to the running
sum at one key of a dict of sums.  A running sum is a dict of integer
numerators over one denominator: each factor's coefficients are scaled
to integers over their lcm denominator, the key's denominator grows by
lcm only when a product needs it to, and every pair product multiplies
and adds plain ints.  A numerator is zero exactly when the sum is, so a
key whose numerators cancel is deleted as add_term deletes it.
wrap_sums divides once per term, an int when the division is exact and
a Fraction otherwise.  The bracket, ghost.mul_terms and the ring product
* sum through it; * keeps only a constant factor (a scaling) in front.

as_ring is the one rule for a coefficient at the library boundary: a
number exactly, a ring element of an equal chart as it is, anything
else ValueError.  No other module knows the term format: they build
and read ring elements through this module's functions and methods
(over_degree divides each term by a fiber degree for the BRST
homotopy).  Elements are never changed in place, so results share
them: scale(1) returns the element and scale(-1) its negation.
"""

from fractions import Fraction
from math import comb, gcd, lcm


def _names(names):
    "The names as a tuple; raise ValueError unless a list (no str) of str."
    if isinstance(names, str):
        raise ValueError("chart names must be a list of names, got the "
                         "string %r" % names)
    names = tuple(names)
    for nm in names:
        if not isinstance(nm, str):
            raise ValueError("chart names must be strings, got %r" % (nm,))
    return names


class Chart:
    """Coordinate names and roles, plus declared abstract function symbols.

    fiber coordinates index the ghost generators elsewhere; abstract
    functions may depend on base coordinates only (the BRST homotopy
    needs closed-form integration over fiber dependence).  The reduced
    chart is built once, with the chart; a chart without fiber
    coordinates is its own reduced chart.

    Charts are never mutated after construction, so the identity that
    == compares (coordinates, angular set, fiber order, functions with
    their dependencies) and its hash are built once, in __init__.
    """

    __slots__ = ("coords", "angular", "fiber", "funcs", "_pos", "_id", "_hash",
                 "_reduced")

    def __init__(self, coords, angular=(), fiber=(), funcs=None):
        self.coords = _names(coords)
        if len(set(self.coords)) != len(self.coords):
            raise ValueError("coordinate name clash in %r" % (self.coords,))
        self.angular = frozenset(_names(angular))
        self.fiber = _names(fiber)
        for role, names in (("angular", self.angular), ("fiber", self.fiber)):
            for c in sorted(names):
                if c not in self.coords:
                    raise ValueError("unknown %s coordinate %r" % (role, c))
        if self.angular & set(self.fiber):
            raise ValueError("fiber coordinates must be polynomial atoms")
        self.funcs = {}
        for name, deps in dict(funcs or {}).items():
            _names((name,))
            if name in self.coords:
                raise ValueError("function %r clashes with a coordinate"
                                 % name)
            deps = _names(deps)
            for d in deps:
                if d not in self.coords or d in self.fiber:
                    raise ValueError("abstract functions depend on base "
                                     "coordinates only, got %r" % (d,))
            self.funcs[name] = deps
        self._pos = {c: i for i, c in enumerate(self.coords)}
        self._id = (self.coords, self.angular, self.fiber,
                    tuple(sorted(self.funcs.items())))
        self._hash = hash(self._id)
        self._reduced = Chart(self.base, self.angular & set(self.base), (),
                              self.funcs) if self.fiber else self

    @property
    def base(self):
        return tuple(c for c in self.coords if c not in self.fiber)

    def axis(self, name):
        return self._pos[name]

    def __eq__(self, other):
        return isinstance(other, Chart) and self._id == other._id

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return "Chart(%r, angular=%r, fiber=%r)" % (
            list(self.coords), sorted(self.angular), list(self.fiber))

    def reduced(self):
        "The chart of the base alone (fiber coordinates removed)."
        return self._reduced


# Atom encodings.  All are tuples whose first entry names the kind, so
# mixed-kind comparison is well defined and the term order is total:
#   ("x", coord)           plain coordinate
#   ("sin", coord) / ("cos", coord)
#   ("fn", name)           abstract function symbol
#   ("dfn", name, multi)   formal partial derivative, multi = sorted tuple


def _atom_ok(atom, chart):
    if type(atom) is not tuple or not atom:
        return False
    kind = atom[0]
    if len(atom) != (3 if kind == "dfn" else 2):
        return False
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
        return bool(atom[2]) and all(c in deps for c in atom[2]) and \
            tuple(sorted(atom[2])) == atom[2]
    return False


def _key_ok(key, chart):
    """A key the public constructor takes: declared atoms in strictly
    ascending order, each with a positive int exponent."""
    if type(key) is not tuple:
        return False
    prev = None
    for item in key:
        if type(item) is not tuple or len(item) != 2:
            return False
        atom, e = item
        if type(e) is not int or e < 1 or not _atom_ok(atom, chart) or \
                (prev is not None and not prev < atom):
            return False
        prev = atom
    return True


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


def _over_lcm(terms):
    """The coefficients of a term dict as integer numerators over their
    lcm denominator: (numerators, denominator).  An all-int dict is
    returned as it is, over 1."""
    d = 1
    for c in terms.values():
        if type(c) is not int and d % c.denominator:
            d = lcm(d, c.denominator)
    if d == 1:
        return terms, 1
    return {k: c * d if type(c) is int else c.numerator * (d // c.denominator)
            for k, c in terms.items()}, d


def _key_mul(k1, k2, n):
    """The (key, coefficient) terms of n times the product of two normal
    keys: one term, unless both keys lead with cos (cos sorts first, so
    only then can they share one), when each cos^2 is rewritten in place
    to 1 - sin^2.  A normal key holds each cos once, so one rewrite per
    coordinate is all a product can need."""
    if not k2:
        return ((k1, n),)
    if not k1:
        return ((k2, n),)
    exps = dict(k1)
    for atom, e in k2:
        exps[atom] = exps.get(atom, 0) + e
    if k1[0][0][0] != "cos" or k2[0][0][0] != "cos":
        return ((tuple(sorted(exps.items())), n),)
    out = [(exps, n)]
    for atom in [at for at, _ in k2 if at[0] == "cos" and exps[at] == 2]:
        sin = ("sin", atom[1])
        for ex, m in out[:]:
            del ex[atom]
            ex = dict(ex)
            ex[sin] = ex.get(sin, 0) + 2
            out.append((ex, -m))
    return [(tuple(sorted(ex.items())), m) for ex, m in out]


def add_product(sums, key, a, b, factor=1):
    """Add factor * a * b at sums[key], in place, for a nonzero int
    factor (a sign, a multiplicity or a weight; 0 is not a factor): the
    one product rule of the engine.  A key's running sum is a dict of
    integer numerators over one denominator, made on first use;
    wrap_sums wraps sums once.  A key whose numerators cancel is deleted, so a later
    product at it goes to the end, exactly as add_term sums.

    Each factor's coefficients are scaled to integers over their lcm
    denominator (an all-int factor as it is), the key's denominator
    grows by lcm only when it must, and every pair product is a product
    of plain ints, the factor folded into the scale of a.  Each key pair
    multiplies through _key_mul.  The factors' own term dicts are only
    read."""
    acc = sums.get(key)
    if acc is None:
        acc = sums[key] = [1, {}]
    den, nums = acc
    ta, da = _over_lcm(a.terms)
    tb, db = _over_lcm(b.terms)
    d = da * db
    if den % d:
        grow = d // gcd(den, d)
        den = acc[0] = den * grow
        for k in nums:
            nums[k] *= grow
    q = den // d * factor
    for k1, n1 in ta.items():
        n1 *= q
        for k2, n2 in tb.items():
            for k, n in _key_mul(k1, k2, n1 * n2):
                n += nums.get(k, 0)
                if n:
                    nums[k] = n
                else:
                    del nums[k]
    if not nums:
        del sums[key]


def wrap_sums(chart, sums):
    """The key -> ring element dict of a dict that add_product filled:
    each numerator divided once by its key's denominator, an int when
    the division is exact and a Fraction otherwise.  The sums are spent:
    an element may keep a key's numerator dict as its terms."""
    out = {}
    for key, (den, nums) in sums.items():
        if den != 1:
            nums = {k: n // den if n % den == 0 else Fraction(n, den)
                    for k, n in nums.items()}
        out[key] = ScalarExpr._new(chart, nums)
    return out


def as_ring(chart, c):
    """c as a ring element of chart: a number exactly, as number takes
    it, and a ring element of an equal chart as it is; a ring element of
    another chart raises ValueError."""
    if not isinstance(c, ScalarExpr):
        return ScalarExpr.number(chart, c)
    if c.chart is not chart and c.chart != chart:
        raise ValueError("ring elements of different charts: %r and %r"
                         % (chart, c.chart))
    return c


def _degree(key, names):
    "Total power of the named plain-coordinate atoms in a key."
    return sum(e for atom, e in key if atom[0] == "x" and atom[1] in names)


def _reduce_terms(raw):
    """The normal form of a term dict whose keys may hold cos^e, e >= 2:
    each such power rewritten in one step,
    cos^e = cos^(e mod 2) * sum_j (-1)^j C(e // 2, j) sin^(2j),
    then every term merged with the zeros dropped."""
    out = {}
    for key, c in raw.items():
        c = _exact(c)
        terms = [(key, c)]
        for atom, e in key:
            if atom[0] != "cos" or e < 2:
                continue
            sin, half, expanded = ("sin", atom[1]), e // 2, []
            for k, q in terms:
                exps = dict(k)
                exps[atom] = e % 2
                for j in range(half + 1):
                    ex = dict(exps)
                    ex[sin] = ex.get(sin, 0) + 2 * j
                    expanded.append((tuple(sorted(
                        (at, x) for at, x in ex.items() if x)),
                        (-1) ** j * comb(half, j) * q))
            terms = expanded
        for k, q in terms:
            add_term(out, k, q)
    _exact_terms(out)
    return out


class ScalarExpr:
    """Normal-form ring element over a fixed chart."""

    __slots__ = ("chart", "terms")

    def __init__(self, chart, terms=None):
        """The element of a key -> coefficient dict, normalised.  A key
        must hold declared atoms in strictly ascending order with
        positive int exponents; any other raises ValueError.  A cos
        power above 1 is accepted and rewritten."""
        terms = terms or {}
        for key in terms:
            try:
                ok = _key_ok(key, chart)
            except TypeError:  # declared names that do not order
                ok = False
            if not ok:
                raise ValueError("monomial keys are declared atoms in "
                                 "ascending order with positive int "
                                 "exponents, got %r" % (key,))
        self.chart = chart
        self.terms = _reduce_terms(terms)

    @classmethod
    def _new(cls, chart, terms):
        "Wrap a term dict that is in normal form already, unchecked."
        out = cls.__new__(cls)
        out.chart = chart
        out.terms = terms
        return out

    # -- constructors ------------------------------------------------

    @classmethod
    def zero(cls, chart):
        return cls._new(chart, {})

    @classmethod
    def number(cls, chart, q):
        q = _exact(q)
        return cls._new(chart, {(): q} if q else {})

    @classmethod
    def one(cls, chart):
        return cls.number(chart, 1)

    @classmethod
    def coord(cls, chart, name):
        _check_name(name, chart._pos, "coordinate")
        return cls._new(chart, {((("x", name), 1),): 1})

    @classmethod
    def sin(cls, chart, name):
        _check_name(name, chart.angular, "angular coordinate")
        return cls._new(chart, {((("sin", name), 1),): 1})

    @classmethod
    def cos(cls, chart, name):
        _check_name(name, chart.angular, "angular coordinate")
        return cls._new(chart, {((("cos", name), 1),): 1})

    @classmethod
    def func(cls, chart, name):
        _check_name(name, chart.funcs, "function")
        return cls._new(chart, {((("fn", name), 1),): 1})

    # -- ring structure ----------------------------------------------

    def is_zero(self):
        return not self.terms

    def __add__(self, other):
        terms = dict(self.terms)
        for k, c in as_ring(self.chart, other).terms.items():
            add_term(terms, k, c)
        _exact_terms(terms)
        return ScalarExpr._new(self.chart, terms)

    __radd__ = __add__

    def __neg__(self):
        return ScalarExpr._new(self.chart,
                               {k: -c for k, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-as_ring(self.chart, other))

    def __rsub__(self, other):
        return ScalarExpr.number(self.chart, other) - self

    def __mul__(self, other):
        other = as_ring(self.chart, other)
        a, b = self.terms, other.terms
        if len(b) == 1 and () in b:
            return self.scale(b[()])
        if len(a) == 1 and () in a:
            return other.scale(a[()])
        sums = {}
        add_product(sums, (), self, other)
        return wrap_sums(self.chart, sums).get(()) or \
            ScalarExpr.zero(self.chart)

    def __rmul__(self, other):
        return self.__mul__(other)

    def scale(self, q):
        "q times this element; 1 returns it as it is and -1 its negation."
        q = _exact(q)
        if q == 1:
            return self
        if q == -1:
            return -self
        terms = {k: q * c for k, c in self.terms.items()} if q else {}
        _exact_terms(terms)
        return ScalarExpr._new(self.chart, terms)

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
                if e == 1:
                    rest = key[:i] + key[i + 1:]
                else:
                    rest = key[:i] + ((atom, e - 1),) + key[i + 1:]
                coeff = c * e if e > 1 else c
                if kind == "cos":
                    coeff = -coeff
                    datoms = ((("sin", coord), 1),)
                for k, q in _key_mul(rest, datoms, coeff):
                    add_term(raw, k, q)
        _exact_terms(raw)
        return ScalarExpr._new(self.chart, raw)

    def variables(self):
        """The coordinates this element can depend on: the coordinate of
        each x, sin and cos atom and the declared dependencies of each
        function atom.  Its partial along any other coordinate is 0."""
        funcs = self.chart.funcs
        out = set()
        for key in self.terms:
            for atom, _ in key:
                if atom[0] in ("fn", "dfn"):
                    out.update(funcs[atom[1]])
                else:
                    out.add(atom[1])
        return out

    def substitute(self, mapping):
        """Ring homomorphism sending fiber coordinates to given numbers
        or elements of this chart.  Only the mapped powers are multiplied
        out, each power once per call; each key of the image meets the
        unmapped rest of its term through _key_mul."""
        images = {}
        for name, v in mapping.items():
            _check_name(name, self.chart.fiber, "fiber coordinate")
            images[name] = as_ring(self.chart, v)
        powers = {}
        raw = {}
        for key, c in self.terms.items():
            image, rest = None, []
            for atom, e in key:
                if atom[0] == "x" and atom[1] in images:
                    power = powers.get((atom[1], e))
                    if power is None:
                        power = powers[atom[1], e] = images[atom[1]] ** e
                    image = power if image is None else image * power
                else:
                    rest.append((atom, e))
            if image is None:
                add_term(raw, key, c)
                continue
            rest = tuple(rest)
            for k, q in image.terms.items():
                for k2, q2 in _key_mul(rest, k, c * q):
                    add_term(raw, k2, q2)
        _exact_terms(raw)
        return ScalarExpr._new(self.chart, raw)

    def max_degree(self, names):
        "Largest total power of the named plain-coordinate atoms."
        names = set(names)
        return max((_degree(key, names) for key in self.terms), default=0)

    def over_degree(self, names, shift):
        """Each term divided by its total power of the named plain
        coordinates plus shift, a positive int: the integral of
        t^(power + shift - 1) over [0, 1]."""
        names = set(names)
        return ScalarExpr._new(self.chart, {
            key: _exact(Fraction(c) / (_degree(key, names) + shift))
            for key, c in self.terms.items()})

    def with_chart(self, chart):
        """Reinterpret over another chart declaring the same atoms; an
        atom the chart does not declare raises ValueError."""
        for key in self.terms:
            for atom, _ in key:
                if not _atom_ok(atom, chart):
                    raise ValueError("atom %r is not declared on the target "
                                     "chart" % (atom,))
        return ScalarExpr._new(chart, dict(self.terms))

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
