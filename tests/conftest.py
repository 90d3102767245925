import random
from fractions import Fraction

from jacobi_bfv.scalar import Chart, ScalarExpr


def t5_chart(abstract=False):
    funcs = {"f1": ("phi1", "phi2", "phi3", "phi4", "phi5"),
             "f2": ("phi1", "phi2", "phi3", "phi4", "phi5")} if abstract else None
    return Chart(
        ["phi1", "phi2", "phi3", "phi4", "phi5", "y1", "y2"],
        angular=["phi1", "phi2", "phi3", "phi4", "phi5"],
        fiber=["y1", "y2"],
        funcs=funcs,
    )


def random_scalar(rng, chart, max_terms=3, max_pow=2, allow_abstract=False):
    "A small random ring element, for property tests."
    e = ScalarExpr.zero(chart)
    for _ in range(rng.randint(0, max_terms)):
        term = ScalarExpr.number(chart, Fraction(rng.randint(-4, 4), rng.randint(1, 3)))
        for _ in range(rng.randint(0, 3)):
            kind = rng.random()
            name = rng.choice(chart.coords)
            if name in chart.angular and kind < 0.5:
                f = ScalarExpr.sin if kind < 0.25 else ScalarExpr.cos
                term = term * f(chart, name)
            else:
                term = term * ScalarExpr.coord(chart, name) ** rng.randint(1, max_pow)
        if allow_abstract and chart.funcs and rng.random() < 0.3:
            term = term * ScalarExpr.func(chart, rng.choice(sorted(chart.funcs)))
        e = e + term
    return e


def _same_terms(X, Y):
    # equal normal forms, each stored coefficient of the same exact type
    # (int or Fraction); the order the terms were inserted in is no part
    # of a result
    return X == Y and all(
        type(q) is type(Y.terms[key].terms[k])
        for key, c in X.terms.items() for k, q in c.terms.items())


def random_point(rng, chart):
    return {c: rng.uniform(-2.0, 2.0) for c in chart.coords}


def rng_for(name):
    return random.Random(name)


def random_ghost_fun(rng, chart, rank=2, max_terms=3):
    from jacobi_bfv.ghost import GhostMonomial, GradedFunction
    terms = {}
    for _ in range(rng.randint(0, max_terms)):
        g = tuple(sorted(rng.sample(range(rank), rng.randint(0, rank))))
        a = tuple(sorted(rng.sample(range(rank), rng.randint(0, rank))))
        coeff = random_scalar(rng, chart)
        if coeff.is_zero():
            continue
        mono = GhostMonomial(g, a)
        prev = terms.get(mono)
        terms[mono] = coeff if prev is None else prev + coeff
    return GradedFunction(chart, rank, terms)


def random_homogeneous(rng, chart, rank=2):
    "Random nonzero GradedFunction concentrated in one bidegree."
    from jacobi_bfv.ghost import GhostMonomial, GradedFunction
    h = rng.randint(0, rank)
    k = rng.randint(0, rank)
    monos = []
    import itertools
    for g in itertools.combinations(range(rank), h):
        for a in itertools.combinations(range(rank), k):
            monos.append(GhostMonomial(g, a))
    terms = {}
    for mono in monos:
        if rng.random() < 0.6:
            c = random_scalar(rng, chart, max_terms=2)
            if not c.is_zero():
                terms[mono] = c
    if not terms:
        terms[monos[0]] = ScalarExpr.one(chart)
    return GradedFunction(chart, rank, terms)


def all_letters(chart, rank):
    from jacobi_bfv.multideriv import M, d_letter, e_letter, f_letter
    return [M] + [d_letter(c) for c in chart.coords] \
        + [e_letter(A) for A in range(rank)] + [f_letter(A) for A in range(rank)]


def random_md(rng, chart, rank, arity, fr=1, max_terms=3, allow_abstract=False):
    from jacobi_bfv.ghost import GhostMonomial
    from jacobi_bfv.multideriv import MultiDerivation, sort_word
    letters = all_letters(chart, rank)
    D = MultiDerivation.zero(chart, rank)
    for _ in range(rng.randint(1, max_terms)):
        s, w = sort_word(tuple(rng.choice(letters) for _ in range(arity)), chart)
        if not s:
            continue
        mono = GhostMonomial(
            tuple(sorted(rng.sample(range(rank), rng.randint(0, 1)))),
            tuple(sorted(rng.sample(range(rank), rng.randint(0, 1)))))
        c = random_scalar(rng, chart, max_terms=2, allow_abstract=allow_abstract)
        if c.is_zero():
            continue
        D = D + MultiDerivation(chart, rank, {(mono, w, fr): c.scale(s)})
    return D


def random_hom_md(rng, chart, rank, arity, fr=1):
    "tau-homogeneous random operator (largest component), or None."
    from oracles import homogeneous_components
    D = random_md(rng, chart, rank, arity, fr=fr)
    comps = homogeneous_components(D)
    if not comps:
        return None
    return max(comps.values(), key=lambda x: len(x.terms))


def random_base_scalar(rng, chart, max_terms=3):
    "Random ring element without fiber dependence."
    e = random_scalar(rng, chart, max_terms=max_terms)
    return e.substitute({f: ScalarExpr.zero(chart) for f in chart.fiber})


def random_connection(rng, chart, rank=2, max_entries=3):
    from jacobi_bfv.contraction import ConnectionSpec
    vert, coef = {}, {}
    for _ in range(rng.randint(0, max_entries)):
        vert[(rng.randrange(rank), rng.randrange(rank))] = \
            random_scalar(rng, chart, max_terms=2)
    for _ in range(rng.randint(0, max_entries)):
        key = (rng.choice(chart.coords), rng.randrange(rank), rng.randrange(rank))
        coef[key] = random_scalar(rng, chart, max_terms=2)
    return ConnectionSpec(chart, rank, vert, coef)


def random_plain_md(rng, chart, rank, arity, max_terms=3):
    "Random operator with only m/d letters and unit ghost coefficient."
    from jacobi_bfv.ghost import ONE_MONO
    from jacobi_bfv.multideriv import M, d_letter, MultiDerivation, sort_word
    letters = [M] + [d_letter(c) for c in chart.coords]
    D = MultiDerivation.zero(chart, rank)
    for _ in range(rng.randint(1, max_terms)):
        s, w = sort_word(tuple(rng.choice(letters) for _ in range(arity)), chart)
        if not s:
            continue
        c = random_scalar(rng, chart, max_terms=2)
        if not c.is_zero():
            D = D + MultiDerivation(chart, rank, {(ONE_MONO, w, 1): c.scale(s)})
    return D


def random_reduced_section(rng, red, rank=2, max_terms=3):
    "Random section over a reduced chart (ghost directions only)."
    from jacobi_bfv.ghost import GhostMonomial, GradedFunction, Section
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        g = tuple(sorted(rng.sample(range(rank), rng.randint(0, rank))))
        coeff = random_scalar(rng, red)
        if coeff.is_zero():
            continue
        mono = GhostMonomial(g, ())
        prev = terms.get(mono)
        terms[mono] = coeff if prev is None else prev + coeff
    return Section(GradedFunction(red, rank, terms))
