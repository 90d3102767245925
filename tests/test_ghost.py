from fractions import Fraction
from itertools import combinations

import pytest

from jacobi_bfv.scalar import ScalarExpr
from jacobi_bfv.ghost import (GhostMonomial, GradedFunction, Section,
                              mono_mul, ONE_MONO)
from jacobi_bfv.multideriv import MultiDerivation
from oracles import bidegrees, ghost_number, mono_mul_by_sort
from conftest import t5_chart, random_scalar, random_ghost_fun, rng_for


def sign_oracle(m1, m2):
    """Brute-force product sign: concatenate the generator words and count
    the inversions needed to sort into canonical order (ghosts before
    anti-ghosts, each block ascending)."""
    word = [(0, A) for A in m1.g] + [(1, B) for B in m1.a] \
         + [(0, A) for A in m2.g] + [(1, B) for B in m2.a]
    if len(set(word)) != len(word):
        return 0, None
    inv = 0
    for i in range(len(word)):
        for j in range(i + 1, len(word)):
            if word[i] > word[j]:
                inv += 1
    sorted_word = sorted(word)
    g = tuple(A for t, A in sorted_word if t == 0)
    a = tuple(B for t, B in sorted_word if t == 1)
    return (-1 if inv % 2 else 1), GhostMonomial(g, a)


def test_square_of_odd_generator_vanishes():
    ch = t5_chart()
    xi1 = GradedFunction.ghost(ch, 2, 0)
    assert xi1.ghost_mul(xi1).is_zero()
    st1 = GradedFunction.antighost(ch, 2, 0)
    assert st1.ghost_mul(st1).is_zero()


def test_generators_anticommute():
    ch = t5_chart()
    xi1 = GradedFunction.ghost(ch, 2, 0)
    xi2 = GradedFunction.ghost(ch, 2, 1)
    assert xi1.ghost_mul(xi2) == -(xi2.ghost_mul(xi1))
    st2 = GradedFunction.antighost(ch, 2, 1)
    assert xi1.ghost_mul(st2) == -(st2.ghost_mul(xi1))


def test_mixed_product_example():
    # (y1 xi^1) * xi*_2  lands in bidegree (1,1) with coefficient y1
    ch = t5_chart()
    y1 = ScalarExpr.coord(ch, "y1")
    lhs = GradedFunction.ghost(ch, 2, 0).scale(y1)
    rhs = GradedFunction.antighost(ch, 2, 1)
    prod = lhs.ghost_mul(rhs)
    assert bidegrees(prod) == [(1, 1)]
    assert prod == GradedFunction(ch, 2, {GhostMonomial((0,), (1,)): y1})


def test_mono_mul_matches_brute_force_sign():
    rng = rng_for("ghost-sign")
    for _ in range(200):
        rank = rng.randint(1, 4)
        g1 = tuple(sorted(rng.sample(range(rank), rng.randint(0, rank))))
        a1 = tuple(sorted(rng.sample(range(rank), rng.randint(0, rank))))
        g2 = tuple(sorted(rng.sample(range(rank), rng.randint(0, rank))))
        a2 = tuple(sorted(rng.sample(range(rank), rng.randint(0, rank))))
        m1, m2 = GhostMonomial(g1, a1), GhostMonomial(g2, a2)
        s_ref, m_ref = sign_oracle(m1, m2)
        s, m = mono_mul(m1, m2)
        assert s == s_ref
        if s_ref:
            assert m == m_ref


def all_monomials(rank):
    "Every ghost monomial at the given rank."
    subsets = [c for k in range(rank + 1)
               for c in combinations(range(rank), k)]
    return [GhostMonomial(g, a) for g in subsets for a in subsets]


def assert_validated(m):
    "m equals, and hashes like, the monomial the constructor validates."
    twin = GhostMonomial(m.g, m.a)
    assert type(m.g) is tuple and type(m.a) is tuple, m
    assert m == twin and hash(m) == hash(twin), m


@pytest.mark.parametrize("rank", [1, 2, 3])
def test_mono_mul_matches_sorting_oracle_on_every_pair(rank):
    # the one-pass product against the sorted concatenations, on every
    # pair of monomials at this rank, and the left derivatives' unchecked
    # monomials against their validated twins
    ch = t5_chart()
    monos = all_monomials(rank)
    seen = {"killed": 0, "minus": 0, "plus": 0}
    for m1 in monos:
        for m2 in monos:
            got, want = mono_mul(m1, m2), mono_mul_by_sort(m1, m2)
            assert got == want, (m1, m2)
            if got[0]:
                assert hash(got[1]) == hash(want[1])
                assert_validated(got[1])
            seen[{0: "killed", -1: "minus", 1: "plus"}[got[0]]] += 1
        f = GradedFunction(ch, rank, {m1: ScalarExpr.one(ch)})
        for A in range(rank):
            for m in list(f.left_deriv_ghost(A).terms) + \
                    list(f.left_deriv_antighost(A).terms):
                assert_validated(m)
    assert min(seen.values()) >= 1, seen


def test_product_is_graded_commutative():
    ch = t5_chart()
    rng = rng_for("ghost-comm")
    for _ in range(40):
        rank = 3
        g1 = tuple(sorted(rng.sample(range(rank), rng.randint(0, rank))))
        a1 = tuple(sorted(rng.sample(range(rank), rng.randint(0, rank))))
        g2 = tuple(sorted(rng.sample(range(rank), rng.randint(0, rank))))
        a2 = tuple(sorted(rng.sample(range(rank), rng.randint(0, rank))))
        m1, m2 = GhostMonomial(g1, a1), GhostMonomial(g2, a2)
        u = GradedFunction(ch, rank, {m1: random_scalar(rng, ch) + ScalarExpr.one(ch)})
        v = GradedFunction(ch, rank, {m2: random_scalar(rng, ch) + ScalarExpr.one(ch)})
        flip = (-1) ** (m1.parity() * m2.parity())
        assert u.ghost_mul(v) == v.ghost_mul(u).scale(flip)


def test_product_associative():
    ch = t5_chart()
    rng = rng_for("ghost-assoc")
    for _ in range(30):
        u = random_ghost_fun(rng, ch, rank=3)
        v = random_ghost_fun(rng, ch, rank=3)
        w = random_ghost_fun(rng, ch, rank=3)
        assert u.ghost_mul(v).ghost_mul(w) == u.ghost_mul(v.ghost_mul(w))


def test_bidegree_additive_and_ghost_number():
    m1 = GhostMonomial((0, 1), (2,))
    m2 = GhostMonomial((2,), (0, 1))
    assert m1.bidegree() == (2, 1) and ghost_number(m1) == 1
    s, m = mono_mul(m1, m2)
    assert s in (1, -1)
    assert m.bidegree() == (3, 3) and ghost_number(m) == 0


def test_pr_bidegree_picks_components():
    ch = t5_chart()
    y1 = ScalarExpr.coord(ch, "y1")
    f = GradedFunction(ch, 2, {
        ONE_MONO: ScalarExpr.one(ch),
        GhostMonomial((0,), ()): y1,
        GhostMonomial((0,), (1,)): ScalarExpr.sin(ch, "phi3"),
    })
    assert f.pr_bidegree(0, 0) == GradedFunction.one(ch, 2)
    assert f.pr_bidegree(1, 0) == GradedFunction.ghost(ch, 2, 0).scale(y1)
    assert f.pr_bidegree(2, 2).is_zero()
    total = f.pr_bidegree(0, 0) + f.pr_bidegree(1, 0) + f.pr_bidegree(1, 1)
    assert total == f


def test_left_derivatives_on_monomials():
    ch = t5_chart()
    # d/dxi^2 of xi^1 xi^2 = -xi^1
    f = GradedFunction(ch, 2, {GhostMonomial((0, 1), ()): ScalarExpr.one(ch)})
    d = f.left_deriv_ghost(1)
    assert d == -GradedFunction.ghost(ch, 2, 0)
    # d/dxi*_1 of xi^1 xi*_1 = -xi^1  (crosses one ghost)
    f = GradedFunction(ch, 2, {GhostMonomial((0,), (0,)): ScalarExpr.one(ch)})
    assert f.left_deriv_antighost(0) == -GradedFunction.ghost(ch, 2, 0)
    assert f.left_deriv_ghost(0) == GradedFunction.antighost(ch, 2, 0)
    assert f.left_deriv_ghost(1).is_zero()


def test_left_derivative_is_odd_derivation():
    ch = t5_chart()
    rng = rng_for("ghost-leibniz")
    from conftest import random_homogeneous
    for _ in range(40):
        u = random_homogeneous(rng, ch, rank=3)
        v = random_ghost_fun(rng, ch, rank=3)
        pu = sum(bidegrees(u)[0]) % 2 if bidegrees(u) else 0
        A = rng.randrange(3)
        for D in (lambda w: w.left_deriv_ghost(A),
                  lambda w: w.left_deriv_antighost(A)):
            lhs = D(u.ghost_mul(v))
            rhs = D(u).ghost_mul(v) + u.ghost_mul(D(v)).scale((-1) ** pu)
            assert lhs == rhs


def test_second_left_derivatives_anticommute():
    ch = t5_chart()
    rng = rng_for("ghost-dd")
    for _ in range(30):
        u = random_ghost_fun(rng, ch, rank=3)
        assert u.left_deriv_ghost(0).left_deriv_ghost(1) == \
            -u.left_deriv_ghost(1).left_deriv_ghost(0)
        assert u.left_deriv_ghost(2).left_deriv_ghost(2).is_zero()
        assert u.left_deriv_antighost(0).left_deriv_ghost(1) == \
            -u.left_deriv_ghost(1).left_deriv_antighost(0)


def test_section_wrapper():
    ch = t5_chart()
    mu = Section.frame(ch, 2)
    y1 = ScalarExpr.coord(ch, "y1")
    s = mu.scale(y1) + Section(GradedFunction.ghost(ch, 2, 0))
    assert not s.is_zero()
    assert s - s == Section.zero(ch, 2)


def test_section_linear_structure_matches_functions():
    ch = t5_chart()
    rng = rng_for("ghost-section-linear")
    for _ in range(20):
        a = Section(random_ghost_fun(rng, ch, rank=2))
        b = Section(random_ghost_fun(rng, ch, rank=2))
        assert (a + b).fun == a.fun + b.fun
        assert (a - b).fun == a.fun - b.fun
        assert (-a).fun == -a.fun
        for q in (3, Fraction(-2, 5), random_scalar(rng, ch)):
            assert isinstance(a.scale(q), Section)
            assert a.scale(q).fun == a.fun.scale(q)
        assert Section(a.fun) == a
        assert a != a.fun and a.fun != a
        # equal but distinct copies, down to the coefficients
        for x in (a.fun, a, MultiDerivation.from_section(a)):
            y = -(-x)
            assert y is not x and y == x and hash(y) == hash(x)
    assert Section.zero(ch, 2).is_zero()


def test_rendering_is_deterministic():
    ch = t5_chart()
    f = GradedFunction(ch, 2, {
        GhostMonomial((0,), (1,)): ScalarExpr.coord(ch, "y1"),
        ONE_MONO: ScalarExpr.one(ch),
    })
    assert str(f) == "(1) 1 + (y1) xi^1 xi*_2"
    assert str(Section(f)) == "(1) mu + (y1) xi^1 xi*_2 mu"


@pytest.mark.parametrize("g, a", [((1, 0), ()), ((0, 0), ()), ((), (1, 1)),
                                  ((0, 1), (2, 0))])
def test_monomial_rejects_unsorted_indices(g, a):
    with pytest.raises(ValueError, match="strictly ascending"):
        GhostMonomial(g, a)


@pytest.mark.parametrize("mono", [GhostMonomial((2,), ()),
                                  GhostMonomial((), (0, 5)),
                                  GhostMonomial((-1,), ())])
def test_constructor_rejects_out_of_range_indices(mono):
    ch = t5_chart()
    with pytest.raises(ValueError, match="out of range for rank 2"):
        GradedFunction(ch, 2, {mono: ScalarExpr.one(ch)})


def test_constructor_takes_numbers_exactly():
    # a number coefficient becomes the ring element number makes of it;
    # zero drops its monomial and a binary float is rejected
    ch = t5_chart()
    assert GradedFunction(ch, 2, {ONE_MONO: 1}) == GradedFunction.one(ch, 2)
    half = GradedFunction(ch, 2, {ONE_MONO: Fraction(1, 2)})
    assert half == GradedFunction.one(ch, 2).scale(Fraction(1, 2))
    assert GradedFunction(ch, 2, {ONE_MONO: 0}).is_zero()
    with pytest.raises(ValueError, match="coefficients are exact"):
        GradedFunction(ch, 2, {ONE_MONO: 0.5})


def test_unchecked_derivatives_match_checked_twins():
    # left derivatives and partials wrap their terms unchecked; each
    # equals, and hashes like, the checked constructor's element of the
    # same terms, and stores no zero coefficient
    ch = t5_chart()
    rng = rng_for("ghost-unchecked-derivatives")
    seen = {"ghost": 0, "antighost": 0, "partial": 0, "partial-drops": 0}
    for _ in range(40):
        f = random_ghost_fun(rng, ch, 2, max_terms=6)
        f = f + GradedFunction.ghost(ch, 2, 0).scale(
            ScalarExpr.number(ch, Fraction(1, 3)))
        results = [("ghost", f.left_deriv_ghost(A)) for A in range(2)]
        results += [("antighost", f.left_deriv_antighost(A))
                    for A in range(2)]
        results += [("partial", f.partial(c)) for c in ch.coords]
        for kind, got in results:
            twin = GradedFunction(ch, 2, dict(got.terms))
            assert got == twin and hash(got) == hash(twin)
            assert all(not c.is_zero() for c in got.terms.values())
            seen[kind] += not got.is_zero()
        for c in ch.coords:
            want = GradedFunction(ch, 2, {m: x.partial(c)
                                          for m, x in f.terms.items()})
            assert f.partial(c).terms == want.terms
            seen["partial-drops"] += len(want.terms) < len(f.terms)
    assert min(seen.values()) >= 20, seen
