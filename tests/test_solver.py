from fractions import Fraction
from itertools import combinations_with_replacement
from itertools import product as iproduct
import math
import os
import sys

import pytest

from jacobi_bfv.scalar import Chart, ScalarExpr
from jacobi_bfv.ghost import GhostMonomial, GradedFunction, Section, ONE_MONO
from jacobi_bfv.multideriv import (
    d_letter, MultiDerivation, evaluate, sj_bracket, build_G, is_jacobi,
    jacobi_from_pair, jacobi_bracket)
from jacobi_bfv.contraction import (ConnectionSpec, imm_i_nabla, proj_p,
                                    BrstContraction, ResidualError)
from jacobi_bfv.solver import (
    MCProblem, ObstructionError, NotJacobiError, obstruction_solve, exp_ad,
    GaugeAutomorphism, gauge_intertwine, lifting_problem, lift_jacobi,
    omega_section, brst_problem, brst_charge, coisotropy_residual, mc_check,
    BfvData, bfv_assemble, v_immersion, v_projection,
    reduced_differential, derived_brackets, md_antighost_level,
    section_antighost_level)
from jacobi_bfv.models import Model, t5_contact
from jacobi_bfv import cli, solver
from conftest import (t5_chart, rng_for, random_scalar, random_ghost_fun,
                      random_md,
                      random_base_scalar, random_reduced_section)
from oracles import (derived_brackets_unshared, reduced_dif_by_series,
                     coisotropy_residual_full, mc_series, koszul_dif,
                     conformal_pair, hamiltonian_shear)

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "perfbench"))
import workloads  # noqa: E402

MODEL = t5_contact()
CH = MODEL.chart
RANK = MODEL.rank
J = MODEL.J
RED = CH.reduced()


def red_frame():
    return Section.frame(RED, RANK)


def red_scalar(expr):
    return Section(Section.frame(RED, RANK).fun.scale(expr))


def red_ghost(A, expr=None):
    out = GradedFunction.ghost(RED, RANK, A)
    if expr is not None:
        out = out.scale(expr)
    return Section(out)


def test_flat_lift_is_exact():
    Jhat, trace = lift_jacobi(J, MODEL.conn)
    assert trace == []
    assert Jhat == build_G(CH, RANK) + imm_i_nabla(J, MODEL.conn)
    assert is_jacobi(Jhat)


def test_zero_lift_is_pairing():
    zero = MultiDerivation.zero(CH, RANK)
    Jhat, trace = lift_jacobi(zero, MODEL.conn)
    assert trace == []
    assert Jhat == build_G(CH, RANK)


def test_nonflat_lift_converges():
    w = ScalarExpr.sin(CH, "phi3")
    conn = ConnectionSpec(CH, RANK, vert={(0, 1): w})
    Jhat, trace = lift_jacobi(J, conn)
    assert len(trace) >= 1
    assert sj_bracket(Jhat, Jhat).is_zero()
    # corrections sit on the diagonal of the generator bi-grading
    for rec in trace:
        for (mono, word, fr) in rec["correction"].terms:
            ng = len(mono.g) - sum(1 for l in word if l[0] == "e")
            na = len(mono.a) - sum(1 for l in word if l[0] == "f")
            assert ng == na and 1 <= na <= RANK


def test_lift_rejects_non_jacobi():
    from jacobi_bfv.multideriv import d_letter
    from jacobi_bfv.ghost import ONE_MONO
    bad = J + MultiDerivation(CH, RANK, {
        (ONE_MONO, (d_letter("phi3"), d_letter("phi4")), 1):
            ScalarExpr.coord(CH, "y1")})
    assert not is_jacobi(bad)
    with pytest.raises(NotJacobiError):
        lift_jacobi(bad, MODEL.conn)


LIFT_CONNECTIONS = {
    "flat": MODEL.conn,
    "vert": ConnectionSpec(CH, RANK,
                           vert={(0, 1): ScalarExpr.sin(CH, "phi3")}),
    "coef": ConnectionSpec(CH, RANK, coef={
        ("phi4", 1, 0): ScalarExpr.cos(CH, "phi5"),
        ("phi3", 0, 0): ScalarExpr.coord(CH, "y1")}),
}


@pytest.mark.parametrize("name", sorted(LIFT_CONNECTIONS))
def test_lift_obstruction_is_the_jacobi_bracket(name):
    # lift_jacobi brackets nothing of its own: the projection of its
    # first residual is [[J, J]], and that is what NotJacobiError carries
    from jacobi_bfv.multideriv import M, d_letter
    from jacobi_bfv.ghost import ONE_MONO
    conn = LIFT_CONNECTIONS[name]
    Jhat, trace = lift_jacobi(J, conn)
    assert (len(trace) >= 1) == (name != "flat")
    assert sj_bracket(Jhat, Jhat).is_zero() and proj_p(Jhat) == J
    rng = rng_for("lift-not-jacobi-" + name)
    angles = sorted(CH.angular)
    seen = 0
    while seen < 3:
        i, j = sorted(rng.sample(CH.coords, 2), key=CH.axis)
        trig = [getattr(ScalarExpr, rng.choice(("sin", "cos")))(
            CH, rng.choice(angles)) for _ in range(2)]
        bad = J + MultiDerivation(CH, RANK, {
            (ONE_MONO, (d_letter(i), d_letter(j)), 1):
                random_scalar(rng, CH, max_terms=2) * trig[0],
            (ONE_MONO, (M, d_letter(rng.choice(CH.coords))), 1):
                random_scalar(rng, CH, max_terms=2) * trig[1]})
        residual = sj_bracket(bad, bad)
        if residual.is_zero():
            continue
        seen += 1
        with pytest.raises(NotJacobiError) as err:
            lift_jacobi(bad, conn)
        assert err.value.residual == residual


def test_filtration_levels():
    lam = Section(GradedFunction.antighost(CH, RANK, 0))
    assert section_antighost_level(lam) == 0
    assert section_antighost_level(Section.frame(CH, RANK)) == -1
    assert section_antighost_level(Section.zero(CH, RANK)) is None
    assert md_antighost_level(build_G(CH, RANK)) == -1
    assert md_antighost_level(MODEL.J) == 0


def test_brst_charge_zero_section():
    Jhat, _ = lift_jacobi(J, MODEL.conn)
    om, trace = brst_charge(Jhat, (0, 0))
    assert trace == []
    assert om == omega_section(CH, RANK, (0, 0))
    ok, res = mc_check(om, Jhat)
    assert ok and res.is_zero()


def test_brst_charge_constant_section():
    Jhat, _ = lift_jacobi(J, MODEL.conn)
    om, trace = brst_charge(Jhat, (Fraction(1, 2), -2))
    assert trace == []
    assert mc_check(om, Jhat)[0]
    assert coisotropy_residual(Jhat, (Fraction(1, 2), -2)).is_zero()


def test_brst_charge_curved_section():
    # sin(phi4) has a nonzero derivative along the auxiliary direction,
    # so the raw residual is nonzero while its projection vanishes: the
    # solver has to run at least one correction step
    Jhat, _ = lift_jacobi(J, MODEL.conn)
    s = (ScalarExpr.sin(CH, "phi4"), 0)
    assert coisotropy_residual(Jhat, s).is_zero()
    om, trace = brst_charge(Jhat, s)
    assert len(trace) >= 1
    assert mc_check(om, Jhat)[0]
    assert om.pr_bidegree(1, 0) == omega_section(CH, RANK, s)


def test_brst_obstruction():
    Jhat, _ = lift_jacobi(J, MODEL.conn)
    s = (ScalarExpr.sin(CH, "phi2"), 0)
    with pytest.raises(ObstructionError) as exc:
        brst_charge(Jhat, s)
    two_cos = ScalarExpr.cos(RED, "phi2") * 2
    pair = GradedFunction.ghost(RED, RANK, 0).ghost_mul(
        GradedFunction.ghost(RED, RANK, 1))
    assert exc.value.obstruction == Section(pair.scale(two_cos))
    assert exc.value.obstruction == coisotropy_residual(Jhat, s)
    ok, res = mc_check(omega_section(CH, RANK, s), Jhat)
    assert not ok and not res.is_zero()


def test_gauge_intertwine_liftings():
    w = ScalarExpr.sin(CH, "phi3")
    conn = ConnectionSpec(CH, RANK, vert={(0, 1): w})
    Q0, _ = lift_jacobi(J, MODEL.conn)
    Q1, _ = lift_jacobi(J, conn)
    prob = lifting_problem(J, MODEL.conn)
    phi = gauge_intertwine(Q0, Q1, prob)
    assert phi(Q0) == Q1
    assert len(phi.generators) >= 1
    ident = gauge_intertwine(Q0, Q0, prob)
    assert ident.generators == []
    assert ident(Q1) == Q1


def test_gauge_intertwine_charges():
    Jhat, _ = lift_jacobi(J, MODEL.conn)
    om0, _ = brst_charge(Jhat, (0, 0))
    prob = brst_problem(Jhat, (0, 0))
    gen = GradedFunction.ghost(CH, RANK, 0).ghost_mul(
        GradedFunction.ghost(CH, RANK, 1)).ghost_mul(
        GradedFunction.antighost(CH, RANK, 0)).ghost_mul(
        GradedFunction.antighost(CH, RANK, 1))
    S = Section(gen.scale(ScalarExpr.sin(CH, "phi4")))
    om1 = exp_ad(S, om0, prob.bracket)
    assert om1 != om0
    assert mc_check(om1, Jhat)[0]
    phi = gauge_intertwine(om0, om1, prob)
    assert phi(om0) == om1


def test_gauge_rejects_bad_endpoints():
    Jhat, _ = lift_jacobi(J, MODEL.conn)
    prob = brst_problem(Jhat, (0, 0))
    om0, _ = brst_charge(Jhat, (0, 0))
    bad = om0 + Section(GradedFunction.ghost(CH, RANK, 0))
    with pytest.raises(ValueError):
        gauge_intertwine(om0, bad, prob)


def test_gauge_rejects_endpoints_apart_in_the_projected_part():
    # the charges over (0, 0) and (sin phi3, 0) are both Maurer-Cartan,
    # but they differ in the projected part, which no gauge map of the
    # charge problem over (0, 0) moves
    Jhat, _ = lift_jacobi(J, MODEL.conn)
    prob = brst_problem(Jhat, (0, 0))
    om0, _ = brst_charge(Jhat, (0, 0))
    om1, _ = brst_charge(Jhat, (ScalarExpr.sin(CH, "phi3"), 0))
    with pytest.raises(ValueError, match="gauge endpoints differ in the "
                       "projected part"):
        gauge_intertwine(om0, om1, prob)


def test_exp_ad_is_the_taylor_shift():
    # with [R, t] = dt/dx on a polynomial chart, exp(ad_R) is the shift
    # x -> x + 1: x^3 goes to (x + 1)^3, and products go to products
    ch = Chart(["x", "y"])
    x, y = ScalarExpr.coord(ch, "x"), ScalarExpr.coord(ch, "y")
    shift = lambda t: exp_ad(None, t, lambda R, u: u.partial("x"))
    assert shift(x ** 3) == (x + 1) ** 3
    f, g = x * x * y + Fraction(1, 2), x ** 3 - x * 2 + y
    assert shift(f * g) == shift(f) * shift(g)
    assert shift(y) == y


def test_gauge_brackets_equal_endpoints_once():
    # equal endpoints are one Maurer-Cartan check, not two; an equal
    # pair that is not Maurer-Cartan is still refused
    prob = lifting_problem(J, MODEL.conn)
    calls = []

    def counted(a, b):
        calls.append(1)
        return sj_bracket(a, b)

    counting = MCProblem(counted, prob.Qbar, prob.level, prob.N, prob.H,
                         prob.P)
    Q0, _ = lift_jacobi(J, MODEL.conn)
    Q1 = MultiDerivation(CH, RANK, dict(Q0.terms))
    assert Q1 is not Q0 and Q1 == Q0
    assert gauge_intertwine(Q0, Q1, counting).generators == []
    assert len(calls) == 1
    curved = ConnectionSpec(CH, RANK,
                            vert={(0, 1): ScalarExpr.sin(CH, "phi3")})
    bad = lifting_problem(J, curved).Qbar
    assert not sj_bracket(bad, bad).is_zero()
    with pytest.raises(ValueError,
                       match="gauge endpoints must be Maurer-Cartan"):
        gauge_intertwine(bad, MultiDerivation(CH, RANK, dict(bad.terms)),
                         counting)
    assert len(calls) == 2


def test_caps_count_the_last_step():
    # a cap of k admits a solve that needs exactly k steps
    conn = ConnectionSpec(CH, RANK, vert={(0, 1): ScalarExpr.sin(CH, "phi3")})
    Q0, trace = lift_jacobi(J, MODEL.conn, max_iter=0)
    assert trace == []
    Q1, trace = lift_jacobi(J, conn, max_iter=1)
    assert len(trace) == 1 and sj_bracket(Q1, Q1).is_zero()
    with pytest.raises(ValueError, match="within 0 corrections"):
        lift_jacobi(J, conn, max_iter=0)
    prob = lifting_problem(J, MODEL.conn)
    phi = gauge_intertwine(Q0, Q1, prob, max_iter=1)
    assert len(phi.generators) == 1 and phi(Q0) == Q1
    assert gauge_intertwine(Q0, Q0, prob, max_iter=0).generators == []
    with pytest.raises(ValueError, match="within 0 exponentials"):
        gauge_intertwine(Q0, Q1, prob, max_iter=0)


def test_negative_caps_are_rejected():
    with pytest.raises(ValueError, match="nonnegative"):
        lift_jacobi(J, MODEL.conn, max_iter=-1)
    Q0, _ = lift_jacobi(J, MODEL.conn)
    with pytest.raises(ValueError, match="nonnegative"):
        gauge_intertwine(Q0, Q0, lifting_problem(J, MODEL.conn), max_iter=-1)


def test_bfv_assemble_t5():
    bfv = bfv_assemble(J, MODEL.conn)
    mu = Section.frame(CH, RANK)
    assert bfv.dif(mu).is_zero()
    assert bfv.dif(Section(mu.fun.scale(ScalarExpr.coord(CH, "phi1")))) == \
        Section(GradedFunction.ghost(CH, RANK, 0).ghost_mul(mu.fun))
    assert bfv.dif(Section(GradedFunction.antighost(CH, RANK, 0).ghost_mul(
        mu.fun))) == Section(mu.fun.scale(ScalarExpr.coord(CH, "y1")))
    rng = rng_for("solver-dsq")
    for trial in range(12):
        lam = Section(random_ghost_fun(rng, CH, RANK))
        assert bfv.dif(bfv.dif(lam)).is_zero()


def test_bfv_zero_structure_gives_koszul():
    zero = MultiDerivation.zero(CH, RANK)
    bfv = bfv_assemble(zero, MODEL.conn)
    d0 = koszul_dif(bfv.con)
    rng = rng_for("solver-koszul")
    for trial in range(8):
        lam = Section(random_ghost_fun(rng, CH, RANK))
        assert bfv.dif(lam) == evaluate(d0, [lam])


def test_reduced_differential_t5():
    bfv = bfv_assemble(J, MODEL.conn)
    red = reduced_differential(bfv)
    mur = red_frame()
    assert red(red_scalar(ScalarExpr.coord(RED, "phi1"))) == red_ghost(0)
    assert red(red_scalar(ScalarExpr.sin(RED, "phi2"))) == \
        red_ghost(1, ScalarExpr.cos(RED, "phi2"))
    assert red(red_scalar(ScalarExpr.coord(RED, "phi4"))).is_zero()
    assert red(red_ghost(0)).is_zero()
    con = bfv.con
    dR = derived_brackets(J, 1)[1]
    rng = rng_for("solver-red")
    for trial in range(8):
        lam = Section(random_ghost_fun(rng, CH, RANK))
        g = con.proj(lam)
        assert red(red(g)).is_zero()
        assert red(g) == dR(g)


def _bfv_over(name, tmp_path):
    """(scenario, BFV data lifted along its connection); flat and vert
    are t5-contact lifted along its two connections."""
    if name in LIFT_CONNECTIONS:
        return MODEL, bfv_assemble(J, LIFT_CONNECTIONS[name])
    spec = _scenario_spec(name, tmp_path)
    return spec, bfv_assemble(spec.J, spec.conn)


@pytest.mark.parametrize("name", ["flat", "vert", "t5-abstract",
                                  "small-rank1", "conf-a"])
def test_reduced_differential_on_random_sections(name, tmp_path):
    # reduced_differential cross-checks itself on generators only; on
    # the generators and on seeded random reduced sections the one-step
    # map must match the direct route and the homotopy-first series with
    # delta as two evaluations, and d_BFV must square to zero on their
    # immersions
    spec, bfv = _bfv_over(name, tmp_path)
    red = reduced_differential(bfv)
    dR = derived_brackets(spec.J, 1)[1]
    rng = rng_for("solver-red-random-" + name)
    sections = solver._generator_sections(spec.chart, spec.rank) + [
        random_reduced_section(rng, spec.chart.reduced(), spec.rank)
        for _ in range(8)]
    for g in sections:
        assert red(g) == dR(g) == reduced_dif_by_series(bfv, g)
        lam = bfv.con.imm(g)
        assert bfv.dif(bfv.dif(lam)).is_zero()
        lam = lam + Section(random_ghost_fun(rng, spec.chart, spec.rank))
        assert bfv.dif(bfv.dif(lam)).is_zero()


@pytest.mark.parametrize("name", ["flat", "vert", "t5-abstract"])
def test_reduced_series_dies_under_proj(name, tmp_path):
    # why the reduced differential is one step: delta = d_BFV - d[s]
    # lowers no anti-ghost count and the homotopy adds one, so each term
    # of (h delta)^k imm x carries at least k anti-ghosts, and
    # proj delta of it is zero for every step k >= 1 of the series
    spec, bfv = _bfv_over(name, tmp_path)
    con = bfv.con
    d0 = koszul_dif(con)
    assert md_antighost_level(bfv.op - d0) >= 0

    def delta(lam):
        return bfv.dif(lam) - evaluate(d0, [lam])

    longest = 0
    for x in solver._generator_sections(spec.chart, spec.rank):
        cur = con.imm(x)
        for k in range(1, 64):
            cur = con.homotopy(delta(cur))
            if cur.is_zero():
                break
            assert min(len(mono.a) for mono in cur.terms) >= k, (x, k)
            assert con.proj(delta(cur)).is_zero(), (x, k)
            longest = max(longest, k)
        else:
            raise AssertionError("series did not terminate on %s" % x)
    # the series runs two steps on some generator, so the tail is real
    assert longest >= 2


def test_degree_zero_cocycles():
    # closed degree-0 elements are exactly the functions missing the
    # two constrained angles
    bfv = bfv_assemble(J, MODEL.conn)
    red = reduced_differential(bfv)
    for nm in ("phi3", "phi4", "phi5"):
        assert red(red_scalar(ScalarExpr.sin(RED, nm))).is_zero()
    mixed = ScalarExpr.sin(RED, "phi4") * ScalarExpr.coord(RED, "phi3")
    assert red(red_scalar(mixed)).is_zero()
    for nm in ("phi1", "phi2"):
        assert not red(red_scalar(ScalarExpr.sin(RED, nm))).is_zero()


def test_v_maps_are_a_section_pair():
    con = BrstContraction(CH, RANK, (0, 0))
    rng = rng_for("solver-vmaps")
    for trial in range(12):
        g = con.proj(Section(random_ghost_fun(rng, CH, RANK)))
        assert v_projection(v_immersion(g, CH)) == g


def test_v_maps_follow_the_fiber_list():
    # xi^A goes to the derivative along the A-th fiber coordinate; with
    # the fiber listed against chart order, sorting the word costs a sign
    ch = Chart(["x1", "x2", "y1", "y2"], fiber=["y2", "y1"])
    red = ch.reduced()
    x1 = ScalarExpr.coord(red, "x1")
    top = Section(GradedFunction(red, 2, {GhostMonomial((0, 1), ()): x1}))
    D = v_immersion(top, ch)
    assert D == MultiDerivation(ch, 2, {
        (ONE_MONO, (d_letter("y1"), d_letter("y2")), 1):
            -ScalarExpr.coord(ch, "x1")})
    assert v_projection(D) == top
    rng = rng_for("solver-vmaps-reversed")
    for trial in range(8):
        g = random_reduced_section(rng, red)
        assert v_projection(v_immersion(g, ch)) == g


def test_derived_brackets_t5():
    Jhat, _ = lift_jacobi(J, MODEL.conn)
    mk = derived_brackets(Jhat, 3)
    dR = derived_brackets(J, 1)[1]
    probes = [red_frame(),
              red_scalar(ScalarExpr.sin(RED, "phi4")),
              red_scalar(ScalarExpr.coord(RED, "phi1")),
              red_ghost(0), red_ghost(1, ScalarExpr.coord(RED, "phi3"))]
    for g in probes:
        assert mk[1](g) == dR(g)
    rng = rng_for("solver-m2")
    seen = 0
    for trial in range(10):
        a = random_reduced_section(rng, RED, RANK)
        b = random_reduced_section(rng, RED, RANK)
        for x, ka in [(a.pr_bidegree(h, 0), h) for h in range(RANK + 1)]:
            if x.is_zero():
                continue
            for y, kb in [(b.pr_bidegree(h, 0), h) for h in range(RANK + 1)]:
                if y.is_zero():
                    continue
                sign = (-1) ** ((ka - 1) * (kb - 1))
                assert mk[2](x, y) == mk[2](y, x).scale(sign)
                if not mk[2](x, y).is_zero():
                    seen += 1
    assert seen >= 3


def _fiber_cubic():
    """A Poisson structure whose leading coefficient is cubic in the
    fiber, lifted along a curved connection: m_1 to m_4 are active."""
    ch = Chart(["x1", "x2", "y1", "y2"], fiber=["y1", "y2"])
    x1, y1, y2 = (ScalarExpr.coord(ch, c) for c in ("x1", "y1", "y2"))
    J = jacobi_from_pair(ch, 2, {
        ("x1", "x2"): y1 * y1 * y2 + y1 * y1 + y2 + x1 + 1,
        ("x2", "y1"): ScalarExpr.one(ch)}, {})
    return Model("fiber-cubic", J, conn=ConnectionSpec(
        ch, 2, vert={(0, 1): x1}, coef={("x2", 1, 0): x1}))


def _rank3():
    """A constant Poisson structure of rank 3 with a curved connection;
    a ghost-carrying word can act at rank 3 and up only."""
    ch = Chart(["x1", "x2", "x3", "y1", "y2", "y3"], fiber=["y1", "y2", "y3"])
    x1, x3 = ScalarExpr.coord(ch, "x1"), ScalarExpr.coord(ch, "x3")
    J = jacobi_from_pair(ch, 3, {("x1", "y1"): 1, ("x2", "y2"): 1,
                                 ("x3", "y3"): 1, ("x1", "x2"): 2}, {})
    return Model("rank3", J, conn=ConnectionSpec(
        ch, 3, vert={(0, 1): x1}, coef={("x2", 2, 0): x3}))


def _scenario_spec(which, tmp_path):
    if which == "fiber-cubic":
        return _fiber_cubic()
    if which == "rank3":
        return _rank3()
    for params in workloads.CLI_GENERATED:
        if which == params[0]:
            name, _, doc, _ = workloads.generated_scenario(params, 0)
            return cli.parse_scenario(workloads.write_scenario(
                str(tmp_path), name, doc))
    if which in ("t5-abstract", "small-rank1"):
        return cli.parse_scenario(os.path.join(
            ROOT, "demos", "scenarios", which.replace("-", "_") + ".json"))
    return cli.parse_scenario(which)


def _probe_tuples(probes, k):
    "Every k-tuple of probes up to k = 3; sorted 4-tuples only."
    if k < 4:
        return iproduct(probes, repeat=k)
    return combinations_with_replacement(probes, k)


@pytest.mark.parametrize("which", ["t5-contact", "t5-abstract", "conf-a",
                                   "small-rank1", "conf-b", "conf-d",
                                   "fiber-cubic"])
def test_derived_brackets_match_unshared_oracle(which, tmp_path):
    # one family per k_max takes its probe tuples in turn, so later calls
    # reuse the prefixes of earlier ones; each value must equal the
    # oracle's, which brackets all of Jhat afresh
    spec = _scenario_spec(which, tmp_path)
    Jhat, _ = lift_jacobi(spec.J, spec.conn)
    probes = [sec for _, sec in cli._reduced_probes(spec.chart, spec.rank)]
    active, nonzero = set(), 0
    for k_max in (3, 1, 4):
        mk = derived_brackets(Jhat, k_max)
        ref = derived_brackets_unshared(Jhat, k_max)
        for k in range(1, k_max + 1):
            for args in _probe_tuples(probes, k):
                got = mk[k](*args)
                assert got == ref[k](*args), (k_max, k, args)
                if not got.is_zero():
                    active.add((k_max, k))
                    nonzero += k_max == 3
    # the k_max = 3 family of each of the first three scenarios has more
    # nonzero values than there are probes; active holds the (k_max, k)
    # pairs with a nonzero value, and on the fiber-cubic chart every m_k
    # of every family is active
    if which in ("t5-contact", "t5-abstract", "conf-a"):
        assert nonzero > len(probes), nonzero
    assert active, which
    if which == "fiber-cubic":
        assert active == {(k_max, k) for k_max in (1, 3, 4)
                          for k in range(1, k_max + 1)}


@pytest.mark.parametrize("which", ["t5-contact", "fiber-cubic"])
def test_derived_brackets_bracket_only_what_can_reach(which, tmp_path,
                                                      monkeypatch):
    # every first operand derived_brackets hands sj_bracket at prefix
    # length j holds only ONE_MONO, frame-1, m/d-letter terms with at
    # most k_max - j letters off the fiber, while the full lift holds
    # terms of every other kind
    spec = _scenario_spec(which, tmp_path)
    Jhat, _ = lift_jacobi(spec.J, spec.conn)
    chart = spec.chart
    fibs = {d_letter(y) for y in chart.fiber}

    def reachable(key, budget):
        mono, word, fr = key
        return mono == ONE_MONO and fr == 1 and \
            all(ell[0] in ("m", "d") for ell in word) and \
            sum(ell not in fibs for ell in word) <= budget

    assert not all(reachable(key, 1) for key in Jhat.terms)
    calls = []
    real = solver.sj_bracket

    def recording(D, E):
        calls.append(D)
        return real(D, E)

    monkeypatch.setattr(solver, "sj_bracket", recording)
    probes = [sec for _, sec in cli._reduced_probes(chart, spec.rank)]
    for k_max in (1, 3, 4):
        mk = derived_brackets(Jhat, k_max)
        checked = 0
        for k in range(1, k_max + 1):
            for args in _probe_tuples(probes[:4], k):
                del calls[:]
                mk[k](*args)
                # the calls bracket the prefixes past the longest known
                for j, D in enumerate(calls, start=k - len(calls)):
                    for key in D.terms:
                        assert reachable(key, k_max - j), (k_max, j, key)
                    checked += 1
        assert checked, k_max


def _residual_cases(tmp_path):
    rng = rng_for("solver-residual-pruned")
    cases = []
    for which in ("t5-contact", "t5-abstract", "conf-a", "conf-b", "conf-c",
                  "conf-d", "rank3"):
        spec = _scenario_spec(which, tmp_path)
        conns = [spec.conn] + ([spec.conn2] if spec.conn2 else [])
        if which == "t5-contact":
            assert len(conns) == 2
        zero = (0,) * spec.rank
        sections = [spec.section, zero] + [
            tuple(random_base_scalar(rng, spec.chart, max_terms=2)
                  for _ in range(spec.rank)) for _ in range(3)]
        for conn in conns:
            Jhat, _ = lift_jacobi(spec.J, conn)
            cases += [(which, Jhat, s) for s in sections]
            # a random arity-2 part brings words of every letter kind, with
            # ghosts and anti-ghosts, that no lift has; from rank 3 on, a
            # word of d letters after a ghost can act
            ghost_dd = MultiDerivation(spec.chart, spec.rank, {(
                GhostMonomial((spec.rank - 1,), ()),
                (d_letter(spec.chart.coords[0]), d_letter(spec.chart.fiber[0])),
                1): ScalarExpr.one(spec.chart)})
            for s in sections:
                cases.append((which, Jhat + ghost_dd + random_md(
                    rng, spec.chart, spec.rank, 2, max_terms=6), s))
    return cases


def test_coisotropy_residual_matches_full_evaluation(tmp_path):
    # of the arity-2 terms of Jhat the residual evaluates only the
    # anti-ghost-free d-letter words; it must equal the projection of the
    # full self-bracket, coisotropic or not
    seen = {"coisotropic": 0, "obstructed": 0}
    for which, Jhat, s in _residual_cases(tmp_path):
        got = coisotropy_residual(Jhat, s)
        assert got == coisotropy_residual_full(Jhat, s), (which, s)
        seen["coisotropic" if got.is_zero() else "obstructed"] += 1
    assert min(seen.values()) >= 10, seen


def test_pruned_maps_keep_their_errors():
    # a Jhat with an arity-3 anti-ghost term, or a frame-0 term, raises
    # in the residual as the full evaluation does; the m_k see neither
    Jhat, _ = lift_jacobi(J, MODEL.conn)
    one = ScalarExpr.one(CH)
    arity3 = Jhat + MultiDerivation(CH, RANK, {
        (GhostMonomial((0,), (0,)),
         (d_letter("phi1"), d_letter("phi2"), d_letter("phi3")), 1): one})
    framed = Jhat + MultiDerivation(CH, RANK, {
        (GhostMonomial((0,), (0,)), (d_letter("phi1"), d_letter("y1")), 0):
            one})
    for bad, match in ((arity3, "arity mismatch: a word of 3 letters on 2 "
                                "arguments"),
                       (framed, "mixed frame flags")):
        for residual in (coisotropy_residual, coisotropy_residual_full):
            with pytest.raises(ValueError, match=match):
                residual(bad, (0, 0))
        g = red_ghost(0, ScalarExpr.coord(RED, "phi3"))
        for k in (1, 2):
            args = (red_frame(),) * (k - 1) + (g,)
            assert derived_brackets(bad, 2)[k](*args) == \
                derived_brackets_unshared(bad, 2)[k](*args)
    # a Jhat that is not an operator is rejected before any member is
    # built; the unshared oracle's first bracket applies the same rule
    with pytest.raises(ValueError, match="J is a MultiDerivation"):
        derived_brackets(Section.frame(CH, RANK), 1)
    with pytest.raises(ValueError, match="J is a MultiDerivation"):
        derived_brackets_unshared(Section.frame(CH, RANK), 1)[1](red_frame())


def test_derived_brackets_bound_and_arguments():
    # k_max is capped at MAX_ARITY, and an m_k argument that cannot be
    # hashed is rejected by the reduced-section rule before its lookup
    assert sorted(derived_brackets(J, solver.MAX_ARITY)) == \
        list(range(1, solver.MAX_ARITY + 1))
    with pytest.raises(ValueError, match="^k_max is at most 64, got 65$"):
        derived_brackets(J, 65)
    m = derived_brackets(J, 2)
    for args in (([1],), (red_frame(), {})):
        with pytest.raises(ValueError, match="^expected a Section on the "
                                             "reduced chart, got"):
            m[len(args)](*args)


# (section, coisotropic) on t5-contact; the obstructed ones include
# sections where m_1, m_2 or both contribute to the series
MC_SECTIONS = {
    "zero": ((0, 0), True),
    "phi3": ((ScalarExpr.coord(CH, "phi3"), 0), True),
    "phi2-phi1": ((ScalarExpr.coord(CH, "phi2"), ScalarExpr.coord(CH, "phi1")),
                  True),
    "phi2": ((ScalarExpr.coord(CH, "phi2"), 0), False),
    "phi4-phi5": ((ScalarExpr.coord(CH, "phi4"), ScalarExpr.coord(CH, "phi5")),
                  False),
    "phi1phi4-phi2": ((ScalarExpr.coord(CH, "phi1") * ScalarExpr.coord(
        CH, "phi4"), ScalarExpr.coord(CH, "phi2")), False),
    "phi2phi4-phi1phi5": ((ScalarExpr.coord(CH, "phi2") * ScalarExpr.coord(
        CH, "phi4"), ScalarExpr.coord(CH, "phi1") * ScalarExpr.coord(
        CH, "phi5")), False),
}


@pytest.mark.parametrize("conn", ["conn", "conn2"])
@pytest.mark.parametrize("name", sorted(MC_SECTIONS))
def test_coisotropy_is_the_maurer_cartan_equation(name, conn):
    # the image of s is coisotropic exactly when sigma = sum_A s_A eta^A
    # solves the Maurer-Cartan equation of the m_k: the residual is -2
    # times its series, here summed up to k = 4, for the m_k of Jhat
    # and of J alike
    s, coisotropic = MC_SECTIONS[name]
    Jhat, _ = lift_jacobi(J, getattr(MODEL, conn))
    sigma = _sigma(CH, s)
    res = coisotropy_residual(Jhat, s)
    for D in (Jhat, J):
        assert res == mc_series(derived_brackets(D, 4), sigma, 4).scale(-2)
    assert res.is_zero() == coisotropic


def _sigma(chart, s):
    "sum_A s_A eta^A on chart.reduced(), for a section s of chart."
    red = chart.reduced()
    out = Section.zero(red, len(s))
    for A, c in enumerate(s):
        c = c if isinstance(c, ScalarExpr) else ScalarExpr.number(chart, c)
        out = out + Section(
            GradedFunction.ghost(red, len(s), A).scale(c.with_chart(red)))
    return out


# Poisson charts where m_3, m_4 and m_5 contribute to the series: the
# bivector Lambda^(x1 x2) of each, two connections and six sections
MC5_CHART = Chart(["x1", "x2", "y1", "y2"], fiber=["y1", "y2"])
_x = {c: ScalarExpr.coord(MC5_CHART, c) for c in MC5_CHART.coords}
MC5_PAIRS = {
    "y1y2+y1^2": _x["y1"] * _x["y2"] + _x["y1"] ** 2,
    "y1^2y2+y2": _x["y1"] ** 2 * _x["y2"] + _x["y2"],
}
MC5_CONNS = {
    "flat": ConnectionSpec(MC5_CHART, 2),
    "curved": ConnectionSpec(MC5_CHART, 2, vert={(0, 1): _x["x1"]},
                             coef={("x2", 1, 0): _x["x2"]}),
}
MC5_SECTIONS = [(0, 0), (_x["x1"], 0), (_x["x1"], _x["x2"]),
                (1, _x["x1"] * _x["x2"]), (_x["x2"] ** 2, 1),
                (_x["x1"] + _x["x2"], _x["x1"])]


def _mc5_residuals(pair, conn):
    "(J, Jhat, [(section, sigma, residual)]) of one MC5 chart."
    J5 = jacobi_from_pair(MC5_CHART, 2, {("x1", "x2"): MC5_PAIRS[pair]}, {})
    Jhat = lift_jacobi(J5, MC5_CONNS[conn])[0]
    return J5, Jhat, [(s, _sigma(MC5_CHART, s), coisotropy_residual(Jhat, s))
                      for s in MC5_SECTIONS]


@pytest.mark.parametrize("conn", sorted(MC5_CONNS))
@pytest.mark.parametrize("pair", sorted(MC5_PAIRS))
def test_coisotropy_is_the_maurer_cartan_equation_up_to_m5(pair, conn):
    # as on t5-contact, with the series summed up to k = 6, above the
    # fiber degree of Lambda (at most 3), for the m_k of Jhat and of J
    J5, Jhat, cases = _mc5_residuals(pair, conn)
    for D in (Jhat, J5):
        m = derived_brackets(D, 6)
        for s, sigma, res in cases:
            assert res == mc_series(m, sigma, 6).scale(-2), s


def test_maurer_cartan_series_up_to_m5_is_live():
    # 8 of the 24 residuals are nonzero and m_3, m_4 and m_5 contribute;
    # with the signs (-1)^(k-1) for k >= 3 replaced by +1 the flat cases
    # disagree twice
    def flipped(m, sigma, K):
        out = Section.zero(sigma.chart, sigma.rank)
        for k in range(1, K + 1):
            out = out + m[k](*[sigma] * k).scale(Fraction(
                (-1) ** (k - 1) if k < 3 else 1, math.factorial(k)))
        return out

    nonzero, active, disagree = 0, set(), 0
    for pair in MC5_PAIRS:
        for conn in MC5_CONNS:
            J5, _, cases = _mc5_residuals(pair, conn)
            m = derived_brackets(J5, 6)
            for s, sigma, res in cases:
                nonzero += not res.is_zero()
                active |= {k for k in range(1, 7)
                           if not m[k](*[sigma] * k).is_zero()}
                if conn == "flat":
                    disagree += res != flipped(m, sigma, 6).scale(-2)
    assert (nonzero, disagree) == (8, 2)
    assert {3, 4, 5} <= active


# conformal factors a (base functions, nowhere zero) and sections for
# Jacobi equivalence; the middle two sections are obstructed
CONFORMAL = {
    "2+sin1": lambda: 2 + ScalarExpr.sin(CH, "phi1"),
    "(1+phi2)(3+cos4)": lambda: (1 + ScalarExpr.coord(CH, "phi2")) * (
        3 + ScalarExpr.cos(CH, "phi4")),
}
CONFORMAL_SECTIONS = [
    (0, 0), (ScalarExpr.coord(CH, "phi4"), ScalarExpr.coord(CH, "phi5")),
    (ScalarExpr.coord(CH, "phi1") * ScalarExpr.coord(CH, "phi4"),
     ScalarExpr.coord(CH, "phi2")), (ScalarExpr.sin(CH, "phi3"), 0)]


@pytest.mark.parametrize("conn", ["conn", "conn2"])
@pytest.mark.parametrize("name", sorted(CONFORMAL))
def test_jacobi_equivalence_is_the_conformal_change(name, conn):
    # J_a = (a Lambda, a Gamma + Lambda# da) is Jacobi, its coisotropy
    # residual is a times that of J along the same connection, and its
    # m_k are those of J conjugated by a: m_1^a(g) = m_1(a g) in degree
    # 0 and a m_1(g) in degree 1, a m_2^a(f, g) = m_2(a f, a g)
    a = CONFORMAL[name]()
    a_red = a.with_chart(RED)
    Ja = conformal_pair(J, a)
    assert is_jacobi(Ja) and Ja != J
    conn = getattr(MODEL, conn)
    Jhat, Jhat_a = lift_jacobi(J, conn)[0], lift_jacobi(Ja, conn)[0]
    obstructed = 0
    for s in CONFORMAL_SECTIONS:
        res = coisotropy_residual(Jhat, s)
        assert coisotropy_residual(Jhat_a, s) == res.scale(a_red)
        obstructed += not res.is_zero()
    assert obstructed == 2
    deg0 = [red_frame()] + [red_scalar(ScalarExpr.coord(RED, nm))
                            for nm in RED.coords]
    deg0.append(red_scalar(ScalarExpr.sin(RED, "phi3")))
    deg1 = [red_ghost(0), red_ghost(1),
            red_ghost(0, ScalarExpr.coord(RED, "phi4"))]
    m, m_a = derived_brackets(J, 2), derived_brackets(Ja, 2)
    for g in deg0:
        assert m_a[1](g) == m[1](g.scale(a_red))
    for g in deg1:
        assert m_a[1](g) == m[1](g).scale(a_red)
    seen = 0
    for f, g in combinations_with_replacement(deg0, 2):
        want = m[2](f.scale(a_red), g.scale(a_red))
        assert m_a[2](f, g).scale(a_red) == want
        seen += not want.is_zero()
    assert seen >= 5


# base functions h of phi1, phi2 and phi3, so Gamma(h) = 0, and
# coisotropic sections of the same coordinates: the flow of h moves
# only y1, y2, phi4 and phi5
_phi = lambda c: ScalarExpr.coord(CH, c)
_sin = lambda c: ScalarExpr.sin(CH, c)
HAMILTONIANS = {
    "sin1": _sin("phi1"),
    "sin1cos2": _sin("phi1") * ScalarExpr.cos(CH, "phi2"),
    "phi1phi2": _phi("phi1") * _phi("phi2"),
    "sin1+phi2^2": _sin("phi1") + _phi("phi2") ** 2,
    "phi3sin1": _phi("phi3") * _sin("phi1"),
}
SHEARED_SECTIONS = {
    "zero": (0, 0),
    "sin3": (_sin("phi3"), 0),
    "sin3-cos3": (_sin("phi3"), ScalarExpr.cos(CH, "phi3")),
    "phi1-phi2": (_phi("phi1"), _phi("phi2")),
}


def _charge_or_obstructed(Jhat, s):
    try:
        return brst_charge(Jhat, s)[0]
    except ObstructionError:
        return "obstructed"


@pytest.mark.parametrize("section", sorted(SHEARED_SECTIONS))
@pytest.mark.parametrize("h", sorted(HAMILTONIANS))
@pytest.mark.parametrize("conn", ["conn", "conn2"])
def test_hamiltonian_equivalence_is_charge_transport(conn, h, section):
    # the flow of h moves the section s to s + dh, and the charge over
    # s + dh is exp(ad h mu) of the charge over s under the bracket of
    # sections that Jhat induces; over s - dh it is not
    Jhat = lift_jacobi(J, getattr(MODEL, conn))[0]
    h, s = HAMILTONIANS[h], SHEARED_SECTIONS[section]
    dh = hamiltonian_shear(J, h)
    assert dh == (h.partial("phi1"), h.partial("phi2"))
    h_mu = Section(GradedFunction.scalar(CH, RANK, h))
    moved = exp_ad(h_mu, brst_charge(Jhat, s)[0],
                   lambda a, b: jacobi_bracket(a, b, Jhat))
    assert brst_charge(Jhat, tuple(a + b for a, b in zip(s, dh)))[0] == moved
    assert _charge_or_obstructed(
        Jhat, tuple(a - b for a, b in zip(s, dh))) != moved


# sections of phi1, phi2 and phi3 whose residual is nonzero, and
# sections in phi4 or phi5, which the flow of h moves
OBSTRUCTED_SHEARED = {
    "phi2": (_phi("phi2"), 0),
    "phi1phi2-sin3": (_phi("phi1") * _phi("phi2"), _sin("phi3")),
    "sin2-phi1": (_sin("phi2"), _phi("phi1")),
}
MOVED_SECTIONS = {
    "sin4": (_sin("phi4"), 0),
    "phi5": (0, _phi("phi5")),
    "sin4-cos5": (_sin("phi4"), ScalarExpr.cos(CH, "phi5")),
}


def test_hamiltonian_equivalence_keeps_the_residual():
    # the residual over s + dh and over s - dh is that over s, on the
    # coisotropic and the obstructed sections of phi1, phi2 and phi3 (it
    # is a curl of s here, so both signs hold); on sections the flow
    # moves it is not
    held, moved, obstructed = 0, 0, 0
    for conn in ("conn", "conn2"):
        Jhat = lift_jacobi(J, getattr(MODEL, conn))[0]
        for h in HAMILTONIANS.values():
            dh = hamiltonian_shear(J, h)
            for group in (SHEARED_SECTIONS, OBSTRUCTED_SHEARED,
                          MOVED_SECTIONS):
                for s in group.values():
                    res = coisotropy_residual(Jhat, s)
                    obstructed += group is OBSTRUCTED_SHEARED and \
                        not res.is_zero()
                    for sign in (1, -1):
                        same = coisotropy_residual(Jhat, tuple(
                            a + b.scale(sign) for a, b in zip(s, dh))) == res
                        if group is MOVED_SECTIONS:
                            moved += not same
                        else:
                            assert same, (conn, h, s, sign)
                            held += 1
    assert (held, moved, obstructed) == (140, 52, 30)


def test_hamiltonian_equivalence_is_the_reduced_gauge_field():
    # sum_(k < 4) m_(k+1)(h mu, sigma, ..., sigma)/k! is the shear
    # sum_A dh_A eta^A, for sigma = +-sum_A s_A eta^A and the m_k of Jhat
    # and of J; the m_(k>=2) terms cancel here, so the negated shear,
    # which never matches, pins the sign of m_1 only
    cases = 0
    for conn in ("conn", "conn2"):
        Jhat = lift_jacobi(J, getattr(MODEL, conn))[0]
        for D in (Jhat, J):
            m = derived_brackets(D, 4)
            for h in HAMILTONIANS.values():
                h_mu = Section(GradedFunction.scalar(RED, RANK,
                                                     h.with_chart(RED)))
                shear = _sigma(CH, hamiltonian_shear(J, h))
                for s in SHEARED_SECTIONS.values():
                    for sigma in (_sigma(CH, s), _sigma(CH, s).scale(-1)):
                        got = Section.zero(RED, RANK)
                        for k in range(4):
                            got = got + m[k + 1](h_mu, *[sigma] * k).scale(
                                Fraction(1, math.factorial(k)))
                        assert got == shear and got != shear.scale(-1)
                        cases += 1
    assert cases == 160


def test_hamiltonian_shear_rejects_a_moving_h():
    # Gamma = sin(phi3) d_phi4 + cos(phi3) d_phi5 moves along phi4 and
    # phi5, and no h may depend on a fiber coordinate
    for h, name in ((_sin("phi4"), "phi4"),
                    (_phi("phi1") * _phi("phi5"), "phi5"),
                    (_phi("y2"), "y2")):
        with pytest.raises(ValueError, match="h depends on %s$" % name):
            hamiltonian_shear(J, h)


def test_generic_solve_guard():
    # a candidate whose residual already fails the projection check
    Jhat, _ = lift_jacobi(J, MODEL.conn)
    prob = brst_problem(Jhat, (ScalarExpr.sin(CH, "phi2"), 0))
    with pytest.raises(ObstructionError):
        obstruction_solve(prob)
    # a section depending only on the unconstrained angles is fine
    prob = brst_problem(Jhat, (ScalarExpr.sin(CH, "phi1"), 0))
    Q, trace = obstruction_solve(prob)
    assert prob.bracket(Q, Q).is_zero()


# -- the incremental residual ----------------------------------------

def _curved(vert, coef=None):
    return ConnectionSpec(CH, RANK, vert, coef or {})


def _assert_trace_residuals_fresh(prob, Q, trace):
    cur = prob.Qbar
    for rec in trace:
        assert rec["residual"] == prob.bracket(cur, cur)
        c = rec["correction"]
        # the symmetry the residual update relies on
        assert prob.bracket(cur, c) == prob.bracket(c, cur)
        cur = cur + c
    assert cur == Q
    assert prob.bracket(Q, Q).is_zero()


def test_incremental_residual_matches_fresh_brackets():
    sin = lambda c: ScalarExpr.sin(CH, c)
    conn = _curved({(0, 1): sin("phi3"), (1, 0): sin("phi4")})
    prob = lifting_problem(J, conn)
    Q, trace = obstruction_solve(prob)
    assert len(trace) >= 2
    _assert_trace_residuals_fresh(prob, Q, trace)

    conn = _curved({(0, 1): ScalarExpr.coord(CH, "phi3")},
                   {("phi2", 1, 0): sin("phi3"),
                    ("phi1", 0, 1): ScalarExpr.coord(CH, "phi4")})
    Jhat, lift_trace = lift_jacobi(J, conn)
    assert len(lift_trace) >= 2
    _assert_trace_residuals_fresh(lifting_problem(J, conn), Jhat, lift_trace)
    prob = brst_problem(Jhat, (sin("phi1"), 0))
    Q, trace = obstruction_solve(prob)
    assert len(trace) >= 1
    _assert_trace_residuals_fresh(prob, Q, trace)


def test_obstruction_residual_is_fresh_bracket():
    conn = _curved({(0, 1): ScalarExpr.coord(CH, "phi3")},
                   {("phi2", 1, 0): ScalarExpr.sin(CH, "phi3")})
    Jhat, _ = lift_jacobi(J, conn)
    prob = brst_problem(Jhat, (ScalarExpr.sin(CH, "phi2"), 0))
    with pytest.raises(ObstructionError) as err:
        obstruction_solve(prob)
    assert err.value.residual == prob.bracket(prob.Qbar, prob.Qbar)
    assert err.value.obstruction == prob.P(err.value.residual)

    # a projection that reports the whole residual from the second step
    # on, so the error carries a residual updated after a correction
    sin = lambda c: ScalarExpr.sin(CH, c)
    prob = lifting_problem(J, _curved({(0, 1): sin("phi3"),
                                       (1, 0): sin("phi4")}))
    P, calls = prob.P, []

    def late_P(X):
        calls.append(X)
        return P(X) if len(calls) == 1 else X

    prob.P = late_P
    with pytest.raises(ObstructionError) as err:
        obstruction_solve(prob)
    assert len(calls) == 2
    c = prob.H(calls[0]).scale(Fraction(1, 2))
    cur = prob.Qbar + c
    assert err.value.residual == prob.bracket(cur, cur)


def test_filtration_guard_rejects_low_correction():
    # a homotopy that adds a level-0 term to every correction, below
    # the level N + 1 the first correction must reach
    conn = _curved({(0, 1): ScalarExpr.sin(CH, "phi3")})
    prob = lifting_problem(J, conn)
    H = prob.H
    low = imm_i_nabla(J, MODEL.conn)
    assert md_antighost_level(low) == 0
    prob.H = lambda X: H(X) + low
    with pytest.raises(ValueError, match="correction 1 sits at filtration "
                       "level 0, below 1"):
        obstruction_solve(prob)


# -- guards that no shipped problem reaches ---------------------------

def _hand_built(prob, **fields):
    "prob with some of its fields replaced."
    keys = ("bracket", "Qbar", "level", "N", "H", "P")
    return MCProblem(*(fields.get(k, getattr(prob, k)) for k in keys))


def test_solve_guards_fire_on_hand_built_problems():
    # the curved lift's first residual sits at level 0: a base index of
    # 1 puts it below the filtration, and a homotopy that returns zero
    # leaves it uncorrected
    curved = _curved({(0, 1): ScalarExpr.sin(CH, "phi3")})
    prob = lifting_problem(J, curved)
    zero = lambda X: MultiDerivation.zero(CH, RANK)
    with pytest.raises(ResidualError, match=r"bracket residual escapes the "
                       r"filtration \(level 0 < base 1\)"):
        obstruction_solve(_hand_built(prob, N=1))
    with pytest.raises(ResidualError, match="nonzero residual with zero "
                       "correction; contraction data is inconsistent"):
        obstruction_solve(_hand_built(prob, H=zero))
    # two lifts that differ above the cut, with nothing to move one to
    # the other
    Q0, Q1 = lift_jacobi(J, MODEL.conn)[0], lift_jacobi(J, curved)[0]
    with pytest.raises(ResidualError, match="intertwining stalled: homotopy "
                       "of the difference vanishes"):
        gauge_intertwine(Q0, Q1, _hand_built(lifting_problem(J, MODEL.conn),
                                             H=zero))


def test_exp_ad_rejects_a_series_that_does_not_die():
    # with [R, x] = x every term is x/k!, never zero
    one = ScalarExpr.one(CH)
    with pytest.raises(ResidualError, match="exponential series did not "
                       "terminate"):
        exp_ad(None, one, lambda R, u: u)

