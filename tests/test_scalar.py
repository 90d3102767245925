from fractions import Fraction

import pytest

from jacobi_bfv.scalar import Chart, ScalarExpr
from conftest import t5_chart, random_scalar, random_point, rng_for


def S(chart, name):
    return ScalarExpr.coord(chart, name)


def test_pythagoras_normalizes_to_one():
    ch = t5_chart()
    c = ScalarExpr.cos(ch, "phi3")
    s = ScalarExpr.sin(ch, "phi3")
    assert c * c + s * s == ScalarExpr.one(ch)


def test_commutativity_cancels():
    ch = t5_chart()
    y1, y2 = S(ch, "y1"), S(ch, "y2")
    assert (y1 * y2 - y2 * y1).is_zero()


def test_cos_cube_rewrite():
    ch = t5_chart()
    c = ScalarExpr.cos(ch, "phi1")
    s = ScalarExpr.sin(ch, "phi1")
    lhs = c ** 3
    rhs = c - c * s * s
    assert lhs == rhs
    rng = rng_for("cos-cube")
    for _ in range(20):
        p = random_point(rng, ch)
        assert abs(lhs.eval_num(p) - rhs.eval_num(p)) < 1e-8


def test_mul_by_zero_and_additive_inverse():
    ch = t5_chart()
    s = ScalarExpr.sin(ch, "phi2")
    assert (s * ScalarExpr.zero(ch)).is_zero()
    y1 = S(ch, "y1")
    assert (y1 + (-y1)).is_zero()


def test_product_rule_matches_finite_difference():
    ch = t5_chart()
    s = ScalarExpr.sin(ch, "phi1")
    c = ScalarExpr.cos(ch, "phi1")
    d = (s * c).partial("phi1")
    # cos^2 - sin^2 lands in normal form as 1 - 2 sin^2
    assert d == ScalarExpr.one(ch) - (s * s).scale(2)
    rng = rng_for("prod-rule")
    h = 1e-6
    for _ in range(10):
        p = random_point(rng, ch)
        q = dict(p)
        q["phi1"] += h
        fd = ((s * c).eval_num(q) - (s * c).eval_num(p)) / h
        assert abs(d.eval_num(p) - fd) < 1e-4


def test_partial_basics():
    ch = t5_chart(abstract=True)
    y1 = S(ch, "y1")
    assert (y1 * y1).partial("y1") == y1.scale(2)
    f1 = ScalarExpr.func(ch, "f1")
    assert f1.partial("y1").is_zero()
    got = (ScalarExpr.sin(ch, "phi3") * S(ch, "y2")).partial("phi3")
    assert got == ScalarExpr.cos(ch, "phi3") * S(ch, "y2")


def test_partial_creates_derivative_atoms():
    ch = t5_chart(abstract=True)
    f1 = ScalarExpr.func(ch, "f1")
    d12 = f1.partial("phi1").partial("phi2")
    d21 = f1.partial("phi2").partial("phi1")
    assert d12 == d21
    assert not d12.is_zero()


def test_substitute_examples():
    ch = t5_chart(abstract=True)
    y1, y2 = S(ch, "y1"), S(ch, "y2")
    g1 = ScalarExpr.func(ch, "f1")
    assert (y1 - g1).substitute({"y1": g1}).is_zero()
    assert (y1 * y2).substitute({"y1": ScalarExpr.zero(ch),
                                 "y2": ScalarExpr.zero(ch)}).is_zero()
    # (y1 - c)^2 at y1 = c + t, with t modelled by the other fiber coordinate
    c = ScalarExpr.number(ch, Fraction(3, 2))
    t = y2
    got = ((y1 - c) ** 2).substitute({"y1": c + t})
    assert got == t * t


@pytest.mark.parametrize("args, match", [
    ((["x", "x"],), "name clash"),
    ((["x"], ["z"]), "unknown angular coordinate 'z'"),
    ((["x"], (), ["z"]), "unknown fiber coordinate 'z'"),
    ((["x", "y"], ["y"], ["y"]), "polynomial atoms"),
    ((["x"], (), (), {"x": ()}), "clashes with a coordinate"),
    ((["x", "y"], (), ["y"], {"f": ("y",)}), "base coordinates only"),
])
def test_chart_rejects_bad_roles(args, match):
    with pytest.raises(ValueError, match=match):
        Chart(*args)


def test_substitute_rejects_base_coords():
    ch = t5_chart()
    with pytest.raises(AssertionError):
        S(ch, "y1").substitute({"phi1": ScalarExpr.zero(ch)})


def test_normal_form_separates_and_is_idempotent():
    ch = t5_chart()
    rng = rng_for("normal-form")
    for _ in range(25):
        a = random_scalar(rng, ch)
        b = random_scalar(rng, ch)
        s1 = (a + b) - b
        assert s1 == a
        assert ((a - a)).is_zero()
        # mixed associativity/commutativity reach the same normal form
        assert a * b == b * a
        c = random_scalar(rng, ch)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c


def test_partials_commute_on_random_elements():
    ch = t5_chart(abstract=True)
    rng = rng_for("partials-commute")
    for _ in range(15):
        a = random_scalar(rng, ch, allow_abstract=True)
        for x, y in [("phi1", "phi3"), ("phi3", "y1"), ("y1", "y2")]:
            assert a.partial(x).partial(y) == a.partial(y).partial(x)


def test_substitute_chain_rule_numeric():
    ch = t5_chart()
    rng = rng_for("chain-rule")
    h = 1e-6
    for _ in range(10):
        a = random_scalar(rng, ch) + S(ch, "y1") * random_scalar(rng, ch)
        img = random_scalar(rng, ch)
        img = ScalarExpr(ch, {k: c for k, c in img.terms.items()
                              if all(at[0] != "x" or at[1] not in ch.fiber
                                     for at, _ in k)})
        composed = a.substitute({"y1": img})
        d = composed.partial("phi1")
        expect = a.partial("phi1").substitute({"y1": img}) + \
            a.partial("y1").substitute({"y1": img}) * img.partial("phi1")
        assert d == expect
        p = random_point(rng, ch)
        q = dict(p)
        q["phi1"] += h
        fd = (composed.eval_num(q) - composed.eval_num(p)) / h
        assert abs(d.eval_num(p) - fd) < 1e-4


def test_rendering_is_deterministic():
    ch = t5_chart()
    e = S(ch, "y1") * ScalarExpr.sin(ch, "phi3") - ScalarExpr.number(ch, Fraction(1, 2))
    assert str(e) == "-1/2 + sin(phi3)*y1"
    assert str(ScalarExpr.zero(ch)) == "0"
