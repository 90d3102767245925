"""Seeded benchmark inputs, built with a small exact polynomial
arithmetic of its own (Fraction-coefficient dicts), never the engine's.

A polynomial is a dict mapping a monomial to a nonzero Fraction; a
monomial is a sorted tuple of (atom, exponent) pairs and an atom is
("x", name), ("sin", name) or ("cos", name).  sin and cos stay free
atoms here (no cos^2 rewrite): the engine normalises what it parses,
and the zero tests below only ever see trig-free polynomials.

The functions below emit ``bfv-scenario/1`` documents, and every section
comes with a verdict fixed in advance and checked here with this
arithmetic, so the engine only ever receives generated scenario data
and its answers are known before it runs.
"""

from fractions import Fraction

SCHEMA = "bfv-scenario/1"


# -- polynomials ------------------------------------------------------

def p_const(q):
    q = Fraction(q)
    return {(): q} if q else {}


def p_atom(name, kind="x"):
    return {(((kind, name), 1),): Fraction(1)}


def _mono_mul(m1, m2):
    exps = dict(m1)
    for atom, e in m2:
        exps[atom] = exps.get(atom, 0) + e
    return tuple(sorted(exps.items()))


def p_add(*polys):
    out = {}
    for p in polys:
        for m, c in p.items():
            c0 = out.get(m, 0) + c
            if c0:
                out[m] = c0
            else:
                out.pop(m, None)
    return out


def p_scale(p, q):
    q = Fraction(q)
    return {m: c * q for m, c in p.items()} if q else {}


def p_mul(p1, p2):
    out = {}
    for m1, c1 in p1.items():
        for m2, c2 in p2.items():
            m = _mono_mul(m1, m2)
            c0 = out.get(m, 0) + c1 * c2
            if c0:
                out[m] = c0
            else:
                out.pop(m, None)
    return out


def p_partial(p, name):
    "d/d name; sin' = cos and cos' = -sin for an angular name."
    out = []
    for m, c in p.items():
        for i, (atom, e) in enumerate(m):
            if atom[1] != name:
                continue
            rest = m[:i] + (((atom, e - 1),) if e > 1 else ()) + m[i + 1:]
            if atom[0] == "x":
                out.append({rest: c * e})
            elif atom[0] == "sin":
                out.append({_mono_mul(rest, ((("cos", name), 1),)): c * e})
            else:
                out.append({_mono_mul(rest, ((("sin", name), 1),)): -c * e})
    return p_add(*out)


def _num(q):
    return str(q.numerator) if q.denominator == 1 else \
        "%d/%d" % (q.numerator, q.denominator)


def p_str(p):
    "Prefix syntax of the scenario format."
    if not p:
        return "0"
    terms = []
    for m, c in sorted(p.items()):
        factors = [] if c == 1 and m else [_num(c)]
        for (kind, name), e in m:
            atom = name if kind == "x" else "(%s %s)" % (kind, name)
            factors.append(atom if e == 1 else "(^ %s %d)" % (atom, e))
        terms.append(factors[0] if len(factors) == 1
                     else "(* %s)" % " ".join(factors))
    return terms[0] if len(terms) == 1 else "(+ %s)" % " ".join(terms)


# -- random pieces ----------------------------------------------------
#
# Two streams drive every input function: ``shape`` picks positions
# (which bivector entries, connection slots and monomials exist) and
# ``vals`` picks the nonzero rational values.  A workload draws shapes from a
# fixed per-cell stream and values from the run's seed, so seeds vary
# the numbers while the term structure, and with it the cost of a
# case, stays put.

def _coeff(vals):
    "A small nonzero rational."
    return Fraction(vals.choice((-3, -2, -1, 1, 2, 3)), vals.choice((1, 1, 2)))


def poly(shape, vals, names, terms, degree):
    "Sum of ``terms`` distinct monomials of degree 1..degree in names."
    out = {}
    while len(out) < terms:
        m = p_const(1)
        for _ in range(shape.randint(1, degree)):
            m = p_mul(m, p_atom(shape.choice(names)))
        if not m.keys() & out.keys():
            out = p_add(out, p_scale(m, _coeff(vals)))
    return out


class Bivector:
    "Constant antisymmetric Lambda^{ab}, stored on both index orders."

    def __init__(self):
        self.entries = {}

    def set(self, a, b, q):
        self.entries[(a, b)] = Fraction(q)
        self.entries[(b, a)] = -Fraction(q)

    def get(self, a, b):
        return self.entries.get((a, b), Fraction(0))

    def biv_items(self, coords, factor):
        "Scenario ``biv`` rows [ci, cj, factor * Lambda^{ij}], i before j."
        pos = {c: i for i, c in enumerate(coords)}
        return [[a, b, p_str(p_scale(factor, q))]
                for (a, b), q in sorted(self.entries.items())
                if pos[a] < pos[b]]

    def sharp(self, coords, a_poly):
        "(Lambda^# da)^j = sum_i Lambda^{ij} d_i a."
        out = {}
        for j in coords:
            v = p_add(*[p_scale(p_partial(a_poly, i), self.get(i, j))
                        for i in coords])
            if v:
                out[j] = p_str(v)
        return out


def _chart_coords(paired, spect, rank):
    base = ["x%d" % (i + 1) for i in range(paired)] + \
        ["z%d" % (i + 1) for i in range(spect)]
    fiber = ["y%d" % (A + 1) for A in range(rank)]
    return base, fiber


def _structure(shape, vals, base, fiber, spect):
    """Constant bivector with Lambda^{yy} = 0.  Each fiber direction
    pairs with one non-spectator base coordinate; spectator
    coordinates pair with non-spectators only, never with a fiber or
    with each other, so sections of spectators are coisotropic."""
    paired = [c for c in base if c not in spect]
    lam = Bivector()
    for A, y in enumerate(fiber):
        lam.set(paired[A % len(paired)], y, _coeff(vals))
    for i, a in enumerate(base):
        for b in base[i + 1:]:
            if a in spect and b in spect:
                continue
            if shape.random() < 0.5:
                lam.set(a, b, _coeff(vals))
    return lam


def _connection(shape, vals, base, rank, entries):
    "``entries`` distinct non-constant entries, linear in base coordinates."
    slots = [("v", A, B) for A in range(rank) for B in range(rank)] + \
        [(c, A, B) for c in base for A in range(rank) for B in range(rank)]
    vert, coef = [], []
    for slot in shape.sample(slots, min(entries, len(slots))):
        expr = p_str(poly(shape, vals, base, 1, 1))
        if slot[0] == "v":
            vert.append([slot[1], slot[2], expr])
        else:
            coef.append([slot[0], slot[1], slot[2], expr])
    return {"vert": vert, "coef": coef}


def coisotropy_residuals(lam, base, fiber, section):
    """{y_A - s_A, y_B - s_B} for A < B, for constant Lambda with
    Lambda^{yy} = 0:
        - Lambda^{y_A x_j} d_j s_B - Lambda^{x_i y_B} d_i s_A
        + Lambda^{x_i x_j} d_i s_A d_j s_B."""
    ds = [{x: p_partial(s, x) for x in base} for s in section]
    out = []
    for A in range(len(fiber)):
        for B in range(A + 1, len(fiber)):
            parts = []
            for x in base:
                parts.append(p_scale(ds[B][x], -lam.get(fiber[A], x)))
                parts.append(p_scale(ds[A][x], -lam.get(x, fiber[B])))
                for x2 in base:
                    parts.append(p_scale(p_mul(ds[A][x], ds[B][x2]),
                                         lam.get(x, x2)))
            out.append(p_add(*parts))
    return out


def _section(shape, vals, lam, base, fiber, spect, coisotropic, exclude=()):
    """A section with the requested verdict: polynomials in spectator
    coordinates (coisotropic), or ones mixing in paired coordinates
    whose residual is checked to be nonzero."""
    names = [c for c in (spect if coisotropic else base) if c not in exclude]
    while True:
        sec = [poly(shape, vals, names, 2, 2) for _ in fiber]
        res = coisotropy_residuals(lam, base, fiber, sec)
        if all(not r for r in res) == coisotropic:
            return sec


def _scenario(name, base, angular, fiber, biv, vec, conn, conn2, section):
    doc = {"schema": SCHEMA, "name": name,
           "chart": {"coords": base + fiber, "angular": angular,
                     "fiber": fiber},
           "rank": len(fiber),
           "jacobi": {"biv": biv, "vec": vec},
           "connection": conn}
    if conn2 is not None:
        doc["connection2"] = conn2
    doc["section"] = [p_str(s) for s in section]
    return doc


# -- workload inputs --------------------------------------------------

def poisson_lift(shape, vals, n, rank, curved):
    """Constant Poisson chart (n base coordinates, rank fibers) with a
    connection of ``curved`` non-constant entries; zero section."""
    base, fiber = _chart_coords(n, 0, rank)
    lam = _structure(shape, vals, base, fiber, ())
    return _scenario("lift-n%d-r%d-c%d" % (n, rank, curved), base, [], fiber,
                     lam.biv_items(base + fiber, p_const(1)), {},
                     _connection(shape, vals, base, rank, curved), None,
                     [{} for _ in fiber])


class ChargeStructure:
    """Curved constant-Poisson structure for the charge sweep, with
    what the generator needs to decide section verdicts itself."""

    def __init__(self, shape, vals, paired, spect, rank, curved):
        self.base, self.fiber = _chart_coords(paired, spect, rank)
        self.spect = tuple(self.base[paired:])
        self.lam = _structure(shape, vals, self.base, self.fiber, self.spect)
        self.doc = _scenario(
            "charge-p%d-s%d-r%d-c%d" % (paired, spect, rank, curved),
            self.base, [], self.fiber,
            self.lam.biv_items(self.base + self.fiber, p_const(1)), {},
            _connection(shape, vals, self.base, rank, curved), None,
            [{} for _ in self.fiber])

    def section(self, shape, vals, coisotropic):
        "Section strings whose verdict is fixed in advance."
        return [p_str(s) for s in _section(shape, vals, self.lam, self.base,
                                           self.fiber, self.spect,
                                           coisotropic)]


def conformal_scenario(shape, vals, name, paired, spect, rank, coisotropic,
                       curved):
    """Conformally changed pair (a Lambda, Lambda^# da), where
    a = (1 + linear) * (c + sin or cos of the angular coordinate x1),
    with a curved connection, a second connection and a section whose
    verdict is ``coisotropic``.  On the section the Gamma terms of
    {y_A - s_A, y_B - s_B} vanish and the rest is a times the residual
    of Lambda, with a nonzero, so Lambda alone decides the verdict."""
    base, fiber = _chart_coords(paired, spect, rank)
    theta = base[0]
    rest = base[1:]
    lam = _structure(shape, vals, base, fiber, tuple(base[paired:]))
    trig = p_atom(theta, shape.choice(("sin", "cos")))
    a = p_mul(p_add(p_const(1), poly(shape, vals, rest, 1, 1)),
              p_add(p_const(vals.choice((2, 3))), p_scale(trig, _coeff(vals))))
    coords = base + fiber
    section = _section(shape, vals, lam, base, fiber, base[paired:],
                       coisotropic, exclude=(theta,))
    conn = _connection(shape, vals, rest, rank, curved)
    conn2 = _connection(shape, vals, rest, rank, curved)
    return _scenario(name, base, [theta], fiber, lam.biv_items(coords, a),
                     lam.sharp(coords, a), conn, conn2, section)
