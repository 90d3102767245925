import os
import sys
import time
from fractions import Fraction

import pytest

from jacobi_bfv import scalar
from jacobi_bfv.scalar import Chart, ScalarExpr
from jacobi_bfv.ghost import Combination, GradedFunction, Section
from jacobi_bfv.multideriv import (MultiDerivation, d_letter, hamiltonian,
                                   jacobi_from_words)
from jacobi_bfv.contraction import BrstContraction, ConnectionSpec
from jacobi_bfv.solver import (lift_jacobi, brst_charge, bfv_assemble,
                               reduced_differential, derived_brackets,
                               _generator_sections)
from jacobi_bfv.models import t5_contact
from oracles import (eval_num, substitute_by_atom, mul_by_reduce,
                     partial_by_reduce, cos_atoms)
from conftest import (t5_chart, random_scalar, random_point, rng_for,
                      random_ghost_fun, random_md)

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "perfbench"))
from tracing import FRACTION_OPS  # noqa: E402


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
        assert abs(eval_num(lhs, p) - eval_num(rhs, p)) < 1e-8


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
        fd = (eval_num(s * c, q) - eval_num(s * c, p)) / h
        assert abs(eval_num(d, p) - fd) < 1e-4


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


def test_substitute_matches_atom_by_atom_oracle():
    # unmapped atoms kept as one key give the element that multiplying
    # every atom in separately gives
    ch = t5_chart(abstract=True)
    rng = rng_for("scalar-substitute-oracle")
    y1, y2 = S(ch, "y1"), S(ch, "y2")
    f1, s3 = ScalarExpr.func(ch, "f1"), ScalarExpr.sin(ch, "phi3")
    c3 = ScalarExpr.cos(ch, "phi3")
    seen = {"trig": 0, "func": 0, "fiber^4": 0}
    for trial in range(40):
        a = random_scalar(rng, ch, max_terms=4, max_pow=4,
                          allow_abstract=True)
        a = a + y1 ** 4 * c3 * f1 - y2 ** 3 * y1 * s3
        for atom, e in (atom for key in a.terms for atom in key):
            seen["trig"] += atom[0] in ("sin", "cos")
            seen["func"] += atom[0] == "fn"
            seen["fiber^4"] += atom[0] == "x" and atom[1] in ch.fiber \
                and e == 4
        images = [ScalarExpr.zero(ch),
                  ScalarExpr.number(ch, Fraction(rng.randint(-3, 3), 2)),
                  y2 + S(ch, "phi1") * 2 - 1,
                  y1 * y2 - c3,
                  random_scalar(rng, ch, max_terms=2, allow_abstract=True)]
        mapping = {"y1": rng.choice(images)}
        if trial % 3:
            mapping["y2"] = rng.choice(images)
        got = a.substitute(mapping)
        assert got == substitute_by_atom(a, mapping)
        assert all(type(q) is int or q.denominator > 1
                   for q in got.terms.values())
    assert min(seen.values()) >= 20, seen


# -- normalisation only where cos^2 can arise ---------------------------

def assert_normal(x):
    "The invariants of the unique normal form, on every stored term."
    for key, c in x.terms.items():
        assert type(c) is int and c != 0 or \
            type(c) is Fraction and c.denominator > 1, (key, c)
        assert type(key) is tuple, key
        for j, (atom, e) in enumerate(key):
            assert type(e) is int and e >= 1, key
            assert not (atom[0] == "cos" and e >= 2), key
            assert j == 0 or key[j - 1][0] < atom, key


def fast_path_pool(rng, ch):
    "Seeded elements that reach every branch of the product and partial."
    s1, c1 = ScalarExpr.sin(ch, "phi1"), ScalarExpr.cos(ch, "phi1")
    c2, y1 = ScalarExpr.cos(ch, "phi2"), S(ch, "y1")
    f1, half = ScalarExpr.func(ch, "f1"), Fraction(1, 2)
    pool = [ScalarExpr.zero(ch), ScalarExpr.one(ch), -ScalarExpr.one(ch),
            ScalarExpr.number(ch, half), ScalarExpr.number(ch, -3),
            s1, c1, c2, s1 * c1, s1 ** 3 * c1 * c2 - c1 * y1,
            (s1 * y1).scale(half), (c1 * y1).scale(2) + 1,
            f1.partial("phi1") * c1, f1.partial("phi2").partial("phi1") * s1,
            (f1 * s1 * c1).scale(half) + y1]
    for _ in range(30):
        pool.append(random_scalar(rng, ch, max_terms=4, max_pow=3,
                                  allow_abstract=True))
    s3, c3 = ScalarExpr.sin(ch, "phi3"), ScalarExpr.cos(ch, "phi3")
    for i in range(6):  # sin beside cos of one coordinate
        pool.append(random_scalar(rng, ch, allow_abstract=True)
                    * (s1 * c1 if i % 2 else s3 * s3 * c3) + s3)
    return pool


def test_fast_paths_match_always_normalising_oracle():
    # products and partials that skip the cos^2 rewrite give the terms of
    # the always-normalising oracle, and every result is a normal form
    ch = t5_chart(abstract=True)
    rng = rng_for("scalar-fast-paths")
    pool = fast_path_pool(rng, ch)
    one = ScalarExpr.one(ch)
    seen = {"cos-both": 0, "cos-one": 0, "sin-beside-cos": 0, "dfn": 0,
            "halves-integral": 0, "constant-left": 0, "constant-right": 0,
            "zero": 0, "single-single": 0, "single-cos-cos-same": 0,
            "single-cos-cos-different": 0, "single-constant": 0,
            "sum-1x1": 0, "sum-1xN": 0, "sum-MxN": 0, "sum-cancels": 0,
            "unit-constant": 0}

    def cos_coords(x):
        return {at[1] for key in x.terms for at, _ in key if at[0] == "cos"}

    def single(x):
        return len(x.terms) == 1 and () not in x.terms

    for a in pool:
        for b in pool:
            got = a * b
            assert got.terms == mul_by_reduce(a, b).terms, (a, b)
            assert_normal(got)
            seen["cos-both"] += bool(cos_coords(a) & cos_coords(b))
            seen["cos-one"] += bool(cos_coords(a)) != bool(cos_coords(b))
            seen["constant-left"] += set(a.terms) == {()}
            seen["constant-right"] += set(b.terms) == {()}
            if single(a) and single(b):
                seen["single-single"] += 1
                if cos_coords(a) & cos_coords(b):
                    # cos^2 arose and was rewritten: more than one term
                    seen["single-cos-cos-same"] += 1
                    assert len(got.terms) > 1, (a, b)
                elif cos_coords(a) and cos_coords(b):
                    seen["single-cos-cos-different"] += 1
            seen["single-constant"] += (single(a) and set(b.terms) == {()}) \
                or (single(b) and set(a.terms) == {()})
            seen["zero"] += a.is_zero() or b.is_zero()
            # add_product sums the same product at a key whose terms it
            # cancels in full or in one term, at factor 1 or -1, after a
            # first sum (pre times 1); cos-both counts the pairs whose
            # cos atoms meet.  The sums are read through wrap_sums only.
            want = mul_by_reduce(a, b)
            lead = ScalarExpr._new(ch, dict(list(want.terms.items())[:1]))
            for sign in (1, -1):
                for pre in (b - want.scale(sign), b - lead.scale(sign)):
                    sums = {}
                    scalar.add_product(sums, "k", pre, one)
                    scalar.add_product(sums, "k", a, b, sign)
                    summed = scalar.wrap_sums(ch, sums).get(
                        "k", ScalarExpr.zero(ch))
                    assert _typed(summed) == \
                        _typed(pre + want.scale(sign)), (a, b, sign)
                    assert_normal(summed)
                    seen["sum-cancels"] += \
                        not set(pre.terms) <= set(summed.terms)
            # a factor 1 or -1 adds the other's coefficients, negated
            # when needed, with their exact types, in the other's key order
            for u, other in ((a, b), (b, a)):
                if u.terms not in ({(): 1}, {(): -1}):
                    continue
                seen["unit-constant"] += 1
                for sign in (1, -1):
                    sums = {}
                    scalar.add_product(sums, "k", a, b, sign)
                    got_u = scalar.wrap_sums(ch, sums).get(
                        "k", ScalarExpr.zero(ch))
                    assert _typed(got_u) == \
                        _typed(mul_by_reduce(a, b).scale(sign))
                    assert list(got_u.terms) == list(other.terms), (a, b)
            sizes = sorted((len(a.terms), len(b.terms)))
            if sizes[0]:
                seen["sum-1x1" if sizes[1] == 1 else "sum-1xN"
                     if sizes[0] == 1 else "sum-MxN"] += 1
            seen["halves-integral"] += any(
                type(c) is int for c in got.terms.values()) and any(
                type(c) is Fraction for x in (a, b) for c in x.terms.values())
        for coord in ch.coords:
            got = a.partial(coord)
            assert got.terms == partial_by_reduce(a, coord).terms, (a, coord)
            assert_normal(got)
            seen["dfn"] += any(at[0] == "dfn" for key in got.terms
                               for at, _ in key)
            seen["sin-beside-cos"] += any(
                (("sin", coord), e) in key and (("cos", coord), 1) in key
                for key in a.terms for e in (1, 2, 3))
    assert min(seen.values()) >= 5, seen


def test_add_product_deletes_a_cancelled_key_and_re_enters_it_last():
    # for each factor shape, a key whose sum cancels leaves sums (no
    # empty dict stays behind), a later product at it goes after every
    # other key, and a zero product makes no key
    ch = t5_chart(abstract=True)
    y1, y2, x = S(ch, "y1"), S(ch, "y2"), S(ch, "phi1")
    c1, s1 = ScalarExpr.cos(ch, "phi1"), ScalarExpr.sin(ch, "phi1")
    one = ScalarExpr.one(ch)
    shapes = {"+1": (one, y1 + x), "-1": (y1 - s1, -one), "1x1": (y1, x),
              "1xN": (y1, x + y2), "MxN": (y1 + x, y2 - s1),
              "cos-meeting": (c1 + y1, c1 * y2 + x)}
    assert cos_atoms(c1.terms) <= cos_atoms((c1 * y2 + x).terms)
    for name, (a, b) in shapes.items():
        want = mul_by_reduce(a, b)
        sums = {}
        for key, factor in (("k", 1), ("other", 1), ("k", -1)):
            scalar.add_product(sums, key, a, b, factor)
        assert list(scalar.wrap_sums(ch, sums)) == ["other"], name
        scalar.add_product(sums, "k", a, b)
        wrapped = scalar.wrap_sums(ch, sums)
        assert list(wrapped) == ["other", "k"], name
        assert _typed(wrapped["k"]) == _typed(want), name
        scalar.add_product(sums, "zero", a, ScalarExpr.zero(ch))
        assert list(scalar.wrap_sums(ch, sums)) == ["other", "k"], name


def _summed(ch, steps, key="k"):
    "The element that add_product sums at key over (a, b, factor) steps."
    sums = {}
    for a, b, factor in steps:
        scalar.add_product(sums, key, a, b, factor)
    return scalar.wrap_sums(ch, sums).get(key, ScalarExpr.zero(ch))


def _sum_by_reduce(ch, steps):
    "The same sum through the always-normalising product."
    out = ScalarExpr.zero(ch)
    for a, b, factor in steps:
        out = out + mul_by_reduce(a, b).scale(factor)
    return out


def test_integer_sums_grow_their_denominator_exactly():
    # factors over the coprime denominators 2, 3, 5 and 7 summed at one
    # key: after every step the key's sum, read through wrap_sums, has
    # the oracle's exact values and types (ints where integral)
    ch = t5_chart(abstract=True)
    y1, y2, x = S(ch, "y1"), S(ch, "y2"), S(ch, "phi1")
    s1 = ScalarExpr.sin(ch, "phi1")
    steps = []
    for p in (2, 3, 5, 7):
        q = Fraction(1, p)
        steps.append((y1.scale(q) + x, y2 + s1.scale(Fraction(p - 1, p)),
                      -1 if p == 5 else 1))
        steps.append((y1 * y2, ScalarExpr.number(ch, q * p * 2), 1))
    steps.append((x.scale(Fraction(1, 2)), y1 * 2 + 1, 1))
    steps.append((x.scale(Fraction(1, 2)), y1 * 2, -1))  # halves cancel
    seen = {"int": 0, "fraction": 0}
    for j in range(1, len(steps) + 1):
        got = _summed(ch, steps[:j])
        assert _typed(got) == _typed(_sum_by_reduce(ch, steps[:j])), j
        assert_normal(got)
        for c in got.terms.values():
            seen["int" if type(c) is int else "fraction"] += 1
    assert min(seen.values()) >= 5, seen


def test_integer_sum_cancels_after_growing_and_re_enters_last():
    # a key whose denominator grew to 6 cancels to zero and leaves sums;
    # a later product at it goes after every other key, over its own
    # denominator again
    ch = t5_chart(abstract=True)
    y1, x = S(ch, "y1"), S(ch, "phi1")
    half, third = y1.scale(Fraction(1, 2)), x.scale(Fraction(1, 3))
    fifth = (y1 + x).scale(Fraction(2, 5))
    sums = {}
    for key, a, b, factor in (("k", half, x, 1), ("k", third, y1, 1),
                              ("other", half, half, 1),
                              ("k", half, x, -1), ("k", third, y1, -1)):
        scalar.add_product(sums, key, a, b, factor)
    assert list(scalar.wrap_sums(ch, sums)) == ["other"]
    scalar.add_product(sums, "k", fifth, y1 * 5)
    wrapped = scalar.wrap_sums(ch, sums)
    assert list(wrapped) == ["other", "k"]
    assert _typed(wrapped["k"]) == _typed(mul_by_reduce(fifth, y1 * 5))
    assert _typed(wrapped["other"]) == _typed(mul_by_reduce(half, half))
    assert all(type(c) is int for c in wrapped["k"].terms.values())


def test_unit_factors_with_fraction_partners():
    # a constant 1 or -1 on either side, at factor 1 or -1, of a partner with
    # Fraction coefficients: the partner's values, signed, its exact
    # types and its key order; summed onto halves, an int where integral
    ch = t5_chart(abstract=True)
    y1, y2 = S(ch, "y1"), S(ch, "y2")
    c1 = ScalarExpr.cos(ch, "phi1")
    one = ScalarExpr.one(ch)
    partner = y1.scale(Fraction(1, 2)) + (c1 * y2).scale(Fraction(-2, 3)) + 4
    for u in (one, -one):
        for a, b in ((u, partner), (partner, u)):
            for factor in (1, -1):
                got = _summed(ch, [(a, b, factor)])
                assert _typed(got) == _typed(
                    _sum_by_reduce(ch, [(a, b, factor)]))
                assert list(got.terms) == list(partner.terms)
                steps = [(y1.scale(Fraction(1, 2)), one, 1),
                         (a, b, factor)]
                got = _summed(ch, steps)
                assert _typed(got) == _typed(_sum_by_reduce(ch, steps))
    got = _summed(ch, [(y1.scale(Fraction(1, 2)), one, 1),
                       (one, partner, 1)])
    assert got.terms[((("x", "y1"), 1),)] == 1
    assert type(got.terms[((("x", "y1"), 1),)]) is int


def test_cos_meets_on_one_and_two_coordinates():
    # key pairs whose cos atoms meet on one and on two angular
    # coordinates, alone and summed at one key with Fraction
    # coefficients: each cos^2 rewritten to 1 - sin^2, exactly
    ch = t5_chart(abstract=True)
    y1, x = S(ch, "y1"), S(ch, "phi1")
    s1, c1 = ScalarExpr.sin(ch, "phi1"), ScalarExpr.cos(ch, "phi1")
    s2, c2 = ScalarExpr.sin(ch, "phi2"), ScalarExpr.cos(ch, "phi2")
    c3 = ScalarExpr.cos(ch, "phi3")
    third = Fraction(1, 3)
    pairs = {"one": (c1 * y1, (c1 * s1).scale(third)),
             "one-of-two": (c1 * c3, c1 * c2 * x),
             "two": ((c1 * c2).scale(third), c1 * c2 * s2 * y1),
             "two-sums": (c1 * c2 + c1.scale(third) - s2,
                          (c1 * c2 * y1).scale(Fraction(3, 2)) + c2 * s1)}
    for name, (a, b) in pairs.items():
        for factor in (1, -1):
            steps = [(a, b, factor)]
            got = _summed(ch, steps)
            assert _typed(got) == _typed(_sum_by_reduce(ch, steps)), name
            assert_normal(got)
            assert _typed(a * b) == _typed(mul_by_reduce(a, b)), name
        # the rewrite's sin^2 terms meet the terms of another product
        steps = [(a, b, 1), (s1 * s1, s2 * s2 * y1, -1),
                 (b, a.scale(third), 1)]
        got = _summed(ch, steps)
        assert _typed(got) == _typed(_sum_by_reduce(ch, steps)), name
        assert_normal(got)
    # two meets give four rewritten keys
    assert len((c1 * c2 * (c1 * c2)).terms) == 4


def test_add_product_makes_no_fraction_ops(monkeypatch):
    # add_product sums integer numerators: none of the Fraction
    # operations the benchmark tracer counts runs inside it, and
    # wrap_sums builds at most one Fraction per term it stores
    ch = t5_chart(abstract=True)
    pool = fast_path_pool(rng_for("scalar-fraction-ops"), ch)
    assert sum(type(c) is Fraction for x in pool
               for c in x.terms.values()) >= 20
    ops, made = [], []
    for op in FRACTION_OPS:
        def counted(*args, _orig=getattr(Fraction, op), _op=op):
            ops.append(_op)
            return _orig(*args)
        monkeypatch.setattr(Fraction, op, counted)
    new = Fraction.__new__

    def counted_new(cls, *args, **kwargs):
        made.append(1)
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", counted_new)
    sums = {}
    for i, a in enumerate(pool):
        for j, b in enumerate(pool):
            scalar.add_product(sums, (i + j) % 7, a, b, (-1) ** (i * j))
    assert ops == [] and made == []
    wrapped = scalar.wrap_sums(ch, sums)
    monkeypatch.undo()
    stored = sum(len(x.terms) for x in wrapped.values())
    assert ops == [] and 0 < len(made) <= stored
    assert sum(type(c) is Fraction for x in wrapped.values()
               for c in x.terms.values()) == len(made)


def test_unit_scales_share_or_negate():
    # scale(1) returns the element itself and scale(-1) its negation;
    # both keep each coefficient's exact type and value
    ch = t5_chart()
    y1, half = S(ch, "y1"), Fraction(1, 2)
    for x in (y1 * 3 - 2, y1.scale(half) + y1 * y1, ScalarExpr.zero(ch),
              ScalarExpr.number(ch, Fraction(-2, 3))):
        for one in (1, Fraction(1), 1.0):
            assert x.scale(one) is x
        for minus in (-1, Fraction(-1), -1.0):
            neg = x.scale(minus)
            assert neg == -x and neg.terms == {k: -c for k, c in
                                               x.terms.items()}
            for key, c in x.terms.items():
                assert type(neg.terms[key]) is type(c)
    x = y1.scale(half) + 3
    assert {k: (type(c), c) for k, c in x.scale(-1).terms.items()} == {
        ((("x", "y1"), 1),): (Fraction, -half), (): (int, -3)}


def test_substitute_with_repeated_powers_matches_oracle():
    ch = t5_chart(abstract=True)
    rng = rng_for("scalar-substitute-powers")
    y1, y2 = S(ch, "y1"), S(ch, "y2")
    c1 = ScalarExpr.cos(ch, "phi1")
    for trial in range(30):
        a = random_scalar(rng, ch, max_terms=4, max_pow=3,
                          allow_abstract=True)
        a = a + y1 ** 2 * c1 + y1 ** 2 * y2 ** 3 - (y1 ** 2 * y2).scale(
            Fraction(1, 2)) + y2 ** 3 * ScalarExpr.sin(ch, "phi1")
        images = [ScalarExpr.zero(ch), ScalarExpr.number(ch, 2),
                  c1 + y2, c1 * y1 - Fraction(1, 3),
                  random_scalar(rng, ch, allow_abstract=True)]
        mapping = {"y1": rng.choice(images), "y2": rng.choice(images)}
        got = a.substitute(mapping)
        assert got.terms == substitute_by_atom(a, mapping).terms
        assert_normal(got)


def test_fast_paths_skip_normalisation(monkeypatch):
    ch = t5_chart(abstract=True)
    calls = []
    full = scalar._reduce_terms

    def counted(raw):
        calls.append(1)
        return full(raw)

    monkeypatch.setattr(scalar, "_reduce_terms", counted)
    x, y1 = S(ch, "phi1"), S(ch, "y1")
    s1, f1 = ScalarExpr.sin(ch, "phi1"), ScalarExpr.func(ch, "f1")
    cheap = [lambda: ScalarExpr.zero(ch), lambda: ScalarExpr.one(ch),
             lambda: ScalarExpr.number(ch, Fraction(1, 2)),
             lambda: ScalarExpr.coord(ch, "y2"),
             lambda: ScalarExpr.sin(ch, "phi2"),
             lambda: ScalarExpr.cos(ch, "phi2"),
             lambda: ScalarExpr.func(ch, "f2"),
             lambda: x + y1, lambda: x - s1, lambda: -x, lambda: 1 - x,
             lambda: x.scale(Fraction(2, 3)), lambda: (x + s1) * (y1 - f1),
             lambda: (x * s1 + f1) ** 3, lambda: x * 2, lambda: 3 * x,
             lambda: (s1 * s1 * x * f1).partial("phi1"),
             lambda: (ScalarExpr.cos(ch, "phi2") * s1).partial("phi1"),
             lambda: (ScalarExpr.cos(ch, "phi1") * x).partial("y1")]
    for make in cheap:
        make()
    assert calls == []
    # no product, derivative or substitution calls _reduce_terms, not
    # even one that makes cos^2; only the public constructor does
    c1, c2 = ScalarExpr.cos(ch, "phi1"), ScalarExpr.cos(ch, "phi2")
    y2 = S(ch, "y2")
    made = [c1 * c1, (c1 * c2 + x) * (c1 * c2 - s1),
            (c1 + y1.scale(Fraction(1, 3))) ** 3,
            (s1 * c1).partial("phi1"), (s1 ** 3 * c1 * c2).partial("phi1"),
            (c1 * y1 ** 2 + y2).substitute({"y1": c1 - s1, "y2": c1 * c2})]
    assert calls == []
    for m in made:
        assert_normal(m)
    ScalarExpr(ch, {((("cos", "phi1"), 2),): 1})
    assert len(calls) == 1


def test_constructor_rewrites_a_cos_power_in_one_step():
    # the public constructor rewrites cos^e in one step, to
    # cos^(e mod 2) (1 - sin^2)^(e // 2): a key holding cos^64 cos^63
    # normalises at once, and small powers beside a sin of the same
    # coordinate match the powers the ring product builds
    ch = t5_chart(abstract=True)
    c1, c2 = ScalarExpr.cos(ch, "phi1"), ScalarExpr.cos(ch, "phi2")
    s1, y1 = ScalarExpr.sin(ch, "phi1"), S(ch, "y1")
    start = time.perf_counter()
    big = ScalarExpr(ch, {((("cos", "phi1"), 64), (("cos", "phi2"), 63)): 1})
    assert time.perf_counter() - start < 1
    assert len(big.terms) == 33 * 32
    assert_normal(big)
    assert big == c1 ** 64 * c2 ** 63
    for e in range(7):
        for f in range(5):
            for s in range(3):
                key = tuple((atom, x) for atom, x in (
                    (("cos", "phi1"), e), (("cos", "phi2"), f),
                    (("sin", "phi1"), s), (("x", "y1"), 1)) if x)
                got = ScalarExpr(ch, {key: Fraction(3, 2)})
                want = c1 ** e * c2 ** f * s1 ** s * y1.scale(Fraction(3, 2))
                assert _typed(got) == _typed(want), key
                assert_normal(got)


def test_add_product_sums_int_factors():
    # factors 1, -1, 2, -2 and 3 summed at one key, after every step:
    # the sum of (a * b).scale(factor), with exact types
    ch = t5_chart(abstract=True)
    pool = fast_path_pool(rng_for("scalar-int-factors"), ch)
    factors = (1, -1, 2, -2, 3)
    seen = {"cancels": 0, "fraction": 0}
    for i, a in enumerate(pool):
        for b in (pool[(7 * i + 3) % len(pool)], a):
            steps = [(a, b, f) for f in factors]
            steps[2:2] = [(b, pool[i - 1], 3)]
            want = ScalarExpr.zero(ch)
            for j, (x, y, f) in enumerate(steps, 1):
                want = want + (x * y).scale(f)
                got = _summed(ch, steps[:j])
                assert _typed(got) == _typed(want), (a, b, j)
                seen["cancels"] += j == 2 and not (a * b).is_zero()
                seen["fraction"] += any(type(c) is Fraction
                                        for c in got.terms.values())
    assert min(seen.values()) >= 5, seen


def test_substitute_raises_each_power_once(monkeypatch):
    ch = t5_chart()
    y1, y2 = S(ch, "y1"), S(ch, "y2")
    s1, x = ScalarExpr.sin(ch, "phi1"), S(ch, "phi2")
    a = y1 ** 2 * s1 + y1 ** 2 * x + y1 ** 3 + y2 ** 2 * y1 ** 2 + y2 ** 2
    mapping = {"y1": x - s1, "y2": ScalarExpr.cos(ch, "phi1") + 2}
    want = substitute_by_atom(a, mapping)
    powers = []
    plain = ScalarExpr.__pow__

    def counted(self, n):
        powers.append(n)
        return plain(self, n)

    monkeypatch.setattr(ScalarExpr, "__pow__", counted)
    assert a.substitute(mapping) == want
    # (y1, 2), (y1, 3) and (y2, 2), once each
    assert sorted(powers) == [2, 2, 3]


@pytest.mark.parametrize("terms, match", [
    ({((("x", "x2"), 1), (("x", "x1"), 1)): 1}, "ascending order"),
    ({((("x", "x1"), 1), (("x", "x1"), 1)): 1}, "ascending order"),
    ({((("x", "zz"), 1),): 1}, "declared atoms"),
    ({((("sin", "x1"), 1),): 1}, "declared atoms"),
    ({((("x", "x1"), 0),): 3}, "positive int exponents"),
    ({((("x", "x1"), -1),): 1}, "positive int exponents"),
    ({((("x", "x1"), 1.0),): 1}, "positive int exponents"),
    ({((("dfn", "f", ()), 1),): 1}, "declared atoms"),
    ({((("dfn", "f", ("x2", "x1")), 1),): 1}, "declared atoms"),
    ({(("x", "x1"),): 1}, "declared atoms"),
    ({"x1": 1}, "declared atoms"),
    ({((("x", ("x1",)), 1),): 1}, "declared atoms"),
    ({((("x", "x1"), 1), ((1,), 1)): 1}, "declared atoms"),
    ({((("cos", "t"), 2),): "1"}, "coefficients are exact"),
])
def test_constructor_rejects_malformed_keys(terms, match):
    ch = Chart(["x1", "x2", "t"], angular=["t"], funcs={"f": ("x1", "x2")})
    with pytest.raises(ValueError, match=match):
        ScalarExpr(ch, terms)


def test_constructor_takes_well_formed_keys():
    ch = Chart(["x1", "x2", "t"], angular=["t"], funcs={"f": ("x1", "x2")})
    x1, x2 = ScalarExpr.coord(ch, "x1"), ScalarExpr.coord(ch, "x2")
    assert ScalarExpr(ch, {((("x", "x1"), 1), (("x", "x2"), 1)): 1}) == \
        x1 * x2
    d = ScalarExpr.func(ch, "f").partial("x2").partial("x1")
    assert ScalarExpr(ch, {((("dfn", "f", ("x1", "x2")), 1),): 1}) == d
    # a cos power above 1 is accepted and rewritten
    s, c = ScalarExpr.sin(ch, "t"), ScalarExpr.cos(ch, "t")
    assert ScalarExpr(ch, {((("cos", "t"), 3), (("x", "x1"), 1)): 2}) == \
        (c - c * s * s) * x1 * 2


@pytest.mark.parametrize("args, match", [
    ((["x", "x"],), "name clash"),
    ((["x"], ["z"]), "unknown angular coordinate 'z'"),
    ((["x"], (), ["z"]), "unknown fiber coordinate 'z'"),
    ((["x", "y"], ["y"], ["y"]), "polynomial atoms"),
    ((["x"], (), (), {"x": ()}), "clashes with a coordinate"),
    ((["x", "y"], (), ["y"], {"f": ("y",)}), "base coordinates only"),
    ((["x", 1],), "names must be strings, got 1"),
    (([["a"], "b"],), r"names must be strings, got \['a'\]"),
    ((["x"], [None]), "names must be strings"),
    ((["x"], (), (), {2: ["x"]}), "names must be strings, got 2"),
    ((["x"], (), (), {"f": [1]}), "names must be strings, got 1"),
    (("x1x2",), "list of names"),
])
def test_chart_rejects_bad_roles(args, match):
    with pytest.raises(ValueError, match=match):
        Chart(*args)


def test_substitute_rejects_base_coords():
    ch = t5_chart()
    with pytest.raises(ValueError, match="not a fiber coordinate"):
        S(ch, "y1").substitute({"phi1": ScalarExpr.zero(ch)})


def test_substitute_takes_numbers_and_rejects_other_charts():
    ch = t5_chart()
    y1 = S(ch, "y1")
    a = y1 * y1 + S(ch, "phi1") * y1 + 2
    for q in (0, 3, Fraction(1, 2)):
        assert a.substitute({"y1": q}) == \
            a.substitute({"y1": ScalarExpr.number(ch, q)})
    # checked even where no key holds the mapped atom
    for b in (a, S(ch, "phi1")):
        with pytest.raises(ValueError, match="different charts"):
            b.substitute({"y1": ScalarExpr.one(ch.reduced())})


def test_names_must_be_declared_in_their_role():
    ch = t5_chart(abstract=True)
    calls = [lambda: ScalarExpr.coord(ch, "zz"),
             lambda: ScalarExpr.sin(ch, "y1"),
             lambda: ScalarExpr.cos(ch, "zz"),
             lambda: ScalarExpr.func(ch, "phi1"),
             lambda: S(ch, "y1").partial("zz")]
    for call in calls:
        with pytest.raises(ValueError, match="of the chart"):
            call()


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
        fd = (eval_num(composed, q) - eval_num(composed, p)) / h
        assert abs(eval_num(d, p) - fd) < 1e-4


def test_rendering_is_deterministic():
    ch = t5_chart()
    e = S(ch, "y1") * ScalarExpr.sin(ch, "phi3") - ScalarExpr.number(ch, Fraction(1, 2))
    assert str(e) == "-1/2 + sin(phi3)*y1"
    assert str(ScalarExpr.zero(ch)) == "0"


# -- exact coefficients: ints when integral, Fractions otherwise -------

def coefficients(x):
    "Every number stored in a ring element, operator or section."
    if isinstance(x, ScalarExpr):
        yield from x.terms.values()
    elif isinstance(x, Section):
        yield from coefficients(x.fun)
    elif isinstance(x, Combination):
        for c in x.terms.values():
            yield from coefficients(c)
    else:
        raise TypeError("no coefficients in %r" % (x,))


def coefficient_kinds(results):
    "Count the int and the non-integral Fraction coefficients; fail on others."
    kinds = {int: 0, Fraction: 0}
    for res in results:
        for c in coefficients(res):
            assert type(c) in kinds, (type(c), c)
            assert type(c) is int or c.denominator != 1, c
            kinds[type(c)] += 1
    return kinds


def test_coefficients_are_ints_or_proper_fractions():
    model = t5_contact()
    ch, rank, J = model.chart, model.rank, model.J
    s3, c3 = ScalarExpr.sin(ch, "phi3"), ScalarExpr.cos(ch, "phi3")
    # the golden results of acceptance criteria 1-3
    flat_lift, _ = lift_jacobi(J, model.conn)
    golden_charge, _ = brst_charge(flat_lift, (0, 0))
    results = [flat_lift, golden_charge, bfv_assemble(J, model.conn).op]
    # a curved lift whose corrections carry halves
    conn = ConnectionSpec(ch, rank, {(0, 1): s3.scale(Fraction(1, 2))},
                          {("phi4", 1, 0): c3})
    Jhat, trace = lift_jacobi(J, conn)
    assert trace
    # a corrected charge over it, through the BRST homotopy's 1/(k+|T|+1)
    sec = (ScalarExpr.sin(ch, "phi4").scale(Fraction(1, 3)), 0)
    om, trace = brst_charge(Jhat, sec)
    assert trace
    results += [Jhat, om, hamiltonian(om, Jhat)]
    # the transferred differential and the derived brackets
    bfv = bfv_assemble(J, conn)
    red = reduced_differential(bfv)
    gens = _generator_sections(ch, rank)
    dR = derived_brackets(J, 1)[1]
    results += [red(g) for g in gens] + [dR(g) for g in gens]
    mk = derived_brackets(Jhat, 3)
    results += [mk[1](g) for g in gens]
    results += [mk[2](g, h) for g in gens[:4] for h in gens[-2:]]
    results += [mk[3](g, h, h) for g in gens[:3] for h in gens[-2:]]
    kinds = coefficient_kinds(results)
    assert kinds[int] > 0 and kinds[Fraction] > 0


def test_integral_coefficients_are_stored_as_ints():
    ch = t5_chart()
    x, half = S(ch, "phi1"), Fraction(1, 2)
    for q in (3, Fraction(6, 2), 3.0, True):
        assert ScalarExpr.number(ch, q).terms == {(): int(q)}
        assert type(ScalarExpr.number(ch, q).terms[()]) is int
    cases = [x.scale(half) + x.scale(half),      # two halves add up
             x.scale(half) * ScalarExpr.number(ch, 4),
             x.scale(half).scale(2), x.scale(Fraction(4, 2)),
             x.scale(-1.0), (x.scale(half) ** 2).scale(8),
             ScalarExpr(ch, {((("x", "phi1"), 1),): Fraction(5, 1)}),
             ScalarExpr.cos(ch, "phi2").scale(half)
             * ScalarExpr.cos(ch, "phi2").scale(2),
             # cos^2 -> 1 - sin^2 merges three halves into 1
             ScalarExpr(ch, {((("cos", "phi2"), 2),): half, (): half,
                             ((("sin", "phi2"), 2),): half}),
             (x * x).scale(Fraction(3, 2)).partial("phi1")]
    assert coefficient_kinds(cases) == {int: 11, Fraction: 0}
    assert cases[-2] == ScalarExpr.one(ch)
    assert str(x.scale(half) + x.scale(half)) == "phi1"
    # the BRST homotopy divides by k + |T| + 1: 2/2 gives an int, 1/2 not
    y1, y2 = S(ch, "y1"), S(ch, "y2")
    con = BrstContraction(ch, 2, (0, 0))
    lam = Section(GradedFunction.ghost(ch, 2, 0).scale(y1 * y1 + y1 * y2))
    assert coefficient_kinds([con.homotopy(lam)]) == {int: 1, Fraction: 2}


BINARY_FLOATS = [0.1, 0.5, -2.5, float("inf"), float("nan")]


@pytest.mark.parametrize("q", BINARY_FLOATS)
def test_binary_floats_are_rejected(q):
    ch = t5_chart()
    one = ScalarExpr.one(ch)
    calls = [lambda: ScalarExpr.number(ch, q),
             lambda: one.scale(q),
             lambda: ScalarExpr(ch, {(): q}),
             lambda: ScalarExpr(ch, {((("cos", "phi1"), 3),): q}),
             lambda: jacobi_from_words(ch, 2, [((d_letter("phi1"),), q)]),
             lambda: ConnectionSpec(ch, 2, {(0, 1): q}),
             lambda: ConnectionSpec(ch, 2, {}, {("phi1", 0, 1): q}),
             lambda: BrstContraction(ch, 2, (q, 0)),
             lambda: one + q, lambda: q + one, lambda: one - q,
             lambda: q - one, lambda: one * q, lambda: q * one]
    for call in calls:
        with pytest.raises(ValueError, match="coefficients are exact"):
            call()
    assert not one == q


def test_integral_float_operands_are_numbers():
    ch = t5_chart()
    one = ScalarExpr.one(ch)
    assert one + 1.0 == 2 and 1.0 + one == 2
    assert (one + 1.0).terms == {(): 2}
    assert type((one + 1.0).terms[()]) is int
    assert (one - 1.0).is_zero()
    assert one * 3.0 == 3.0 * one == 3
    assert one == 1.0 and one != 2.0


def test_numbers_subtract_ring_elements():
    ch = t5_chart()
    one, x = ScalarExpr.one(ch), S(ch, "phi1")
    assert (1 - one).is_zero() and 1 - one == 0
    assert 2 - x == -(x - 2) and Fraction(1, 2) - x == -(x - Fraction(1, 2))
    assert 3.0 - one == 2 and type((3.0 - one).terms[()]) is int


def test_constants_hash_like_their_numbers():
    ch = t5_chart()
    one, half = ScalarExpr.one(ch), ScalarExpr.number(ch, Fraction(1, 2))
    zero = ScalarExpr.zero(ch)
    for elem, q in ((one, 1), (half, Fraction(1, 2)), (zero, 0),
                    (-one, -1), (one, 1.0)):
        assert elem == q and hash(elem) == hash(q)
        assert q in {elem} and elem in {q}
    # a non-constant element keeps the hash of its chart and terms
    x = S(ch, "phi1")
    assert hash(x) == hash((ch, tuple(sorted(x.terms.items()))))
    assert hash(x + 1) == hash((ch, tuple(sorted((x + 1).terms.items()))))


def test_chart_identity_is_its_roles():
    # charts built apart from equal lists are one chart, as a dict key
    # too; a different dependency, angular set or fiber order is not
    def build(funcs=(("f1", ["phi1"]),), angular=("phi1",),
              fiber=("y1", "y2")):
        return Chart(["phi1", "phi2", "y1", "y2"], angular=list(angular),
                     fiber=list(fiber), funcs=dict(funcs))

    ch1, ch2 = build(), build()
    assert ch1 is not ch2 and ch1 == ch2 and hash(ch1) == hash(ch2)
    assert {ch1: "one"}[ch2] == "one" and len({ch1, ch2}) == 1
    for other in (build(funcs=(("f1", ["phi2"]),)),
                  build(funcs=(("f1", ["phi1", "phi2"]),)),
                  build(angular=("phi1", "phi2")), build(angular=()),
                  build(fiber=("y2", "y1"))):
        assert other != ch1 and ch1 != other
        assert len({ch1, other}) == 2


def test_equal_charts_give_the_same_arithmetic():
    # two equal but distinct Chart instances behave as one
    ch1, ch2 = t5_chart(), t5_chart()
    assert ch1 is not ch2 and ch1 == ch2
    rng = rng_for("scalar-two-charts")
    for trial in range(20):
        a = random_scalar(rng, ch1)
        b = random_scalar(rng, ch1)
        b2 = b.with_chart(ch2)
        assert b2.chart is ch2
        for op in (lambda u, v: u + v, lambda u, v: u - v,
                   lambda u, v: u * v):
            want, got = op(a, b), op(a, b2)
            assert list(got.terms.items()) == list(want.terms.items())
        assert a == a.with_chart(ch2)
        f, g = random_ghost_fun(rng, ch1), random_ghost_fun(rng, ch1)
        g2 = GradedFunction(ch2, g.rank, {m: c.with_chart(ch2)
                                          for m, c in g.terms.items()})
        assert list((f + g2).terms.items()) == list((f + g).terms.items())
        assert f.ghost_mul(g2) == f.ghost_mul(g)
    D = random_md(rng, ch1, 2, 2)
    D2 = MultiDerivation(ch2, 2, {k: c.with_chart(ch2)
                                  for k, c in D.terms.items()})
    assert list((D + D2).terms.items()) == list((D + D).terms.items())


# -- monomial products, unit exponents, unmapped keys -------------------

def _typed(x):
    "Each stored coefficient with its exact type."
    return {k: (type(c), c) for k, c in x.terms.items()}


def test_monomial_products_match_reduce_oracle(monkeypatch):
    # a one-term factor multiplies each term of the other directly; when
    # cos atoms of both factors meet, each key pair's cos^2 is rewritten
    # in place, so no product calls _reduce_terms
    calls = []
    full = scalar._reduce_terms

    def counted(raw):
        calls.append(1)
        return full(raw)

    monkeypatch.setattr(scalar, "_reduce_terms", counted)
    rng = rng_for("scalar-monomial-products")
    seen = {"cos-meet": 0, "cos-apart": 0, "fraction": 0, "angular": 0,
            "abstract": 0}
    for ch, kind in ((t5_chart(abstract=True), "abstract"),
                     (t5_contact().chart, "angular")):
        ang = sorted(ch.angular)
        monos = [ScalarExpr.sin(ch, ang[0])]
        monos += [ScalarExpr.cos(ch, c) * S(ch, "y1") ** 2 for c in ang]
        if ch.funcs:
            monos.append(ScalarExpr.func(ch, "f1").partial(ang[0])
                         * ScalarExpr.cos(ch, ang[0]))
        for _ in range(40):
            m = random_scalar(rng, ch, max_terms=1, allow_abstract=True)
            if len(m.terms) == 1 and () not in m.terms:
                monos.append(m.scale(Fraction(rng.randint(-5, 5) or 1, 3)))
        for m in monos:
            for _ in range(4):
                p = random_scalar(rng, ch, max_terms=4, max_pow=3,
                                  allow_abstract=True)
                cos_m = sorted(cos_atoms(m.terms))
                if cos_m and rng.random() < 0.5:
                    p = p + ScalarExpr.cos(ch, cos_m[0][1]) * S(ch, "y2")
                meet = bool(cos_atoms(m.terms) & cos_atoms(p.terms))
                for a, b in ((m, p), (p, m)):
                    del calls[:]
                    got = a * b
                    assert calls == []
                    assert _typed(got) == _typed(mul_by_reduce(a, b))
                    assert_normal(got)
                seen["cos-meet" if meet else "cos-apart"] += 1
                seen["fraction"] += any(type(c) is Fraction
                                        for c in m.terms.values())
                seen[kind] += 1
    assert min(seen.values()) >= 20, seen


def test_unit_exponent_partial_keeps_coefficient_types():
    # a unit exponent leaves the coefficient as it is: an int stays an
    # int and a Fraction the same Fraction
    rng = rng_for("scalar-unit-partial")
    seen = {"int": 0, "fraction": 0}
    for ch in (t5_chart(abstract=True), t5_contact().chart):
        for _ in range(30):
            a = random_scalar(rng, ch, max_terms=4, max_pow=1,
                              allow_abstract=True)
            a = a + (S(ch, "y1") * ScalarExpr.sin(ch, "phi1")).scale(
                Fraction(rng.randint(1, 7), 2)) + S(ch, "phi2") * 3
            for coord in ch.coords:
                got = a.partial(coord)
                assert _typed(got) == _typed(partial_by_reduce(a, coord))
                assert_normal(got)
                for c in got.terms.values():
                    seen["int" if type(c) is int else "fraction"] += 1
    assert min(seen.values()) >= 50, seen


def test_substitute_passes_unmapped_keys():
    # keys without a mapped atom pass as they are; the others take the
    # coefficient into the mapped image
    rng = rng_for("scalar-substitute-unmapped")
    seen = {"unmapped": 0, "mapped": 0}
    for ch in (t5_chart(abstract=True), t5_contact().chart):
        y1, y2 = S(ch, "y1"), S(ch, "y2")
        c1 = ScalarExpr.cos(ch, "phi1")
        for trial in range(30):
            a = random_scalar(rng, ch, max_terms=4, allow_abstract=True)
            a = a + (y1 * c1).scale(Fraction(2, 3)) + S(ch, "phi2") * 5
            images = [ScalarExpr.zero(ch), ScalarExpr.number(ch, 3),
                      c1 + y2, (c1 * S(ch, "phi1")).scale(Fraction(1, 2)),
                      random_scalar(rng, ch, allow_abstract=True)]
            mapping = {"y1": rng.choice(images)}
            if trial % 2:
                mapping["y2"] = rng.choice(images)
            got = a.substitute(mapping)
            assert _typed(got) == _typed(substitute_by_atom(a, mapping))
            assert_normal(got)
            for key in a.terms:
                mapped = any(at[0] == "x" and at[1] in mapping
                             for at, _ in key)
                seen["mapped" if mapped else "unmapped"] += 1
    assert min(seen.values()) >= 60, seen
