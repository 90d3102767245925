import json
import os
import random
import time
from fractions import Fraction

import pytest

from jacobi_bfv.scalar import ScalarExpr
from jacobi_bfv.ghost import GradedFunction, Section
from jacobi_bfv import cli, multideriv, solver
from jacobi_bfv.cli import ScenarioError, parse_expr, parse_scenario
from jacobi_bfv.multideriv import is_jacobi, sj_bracket
from jacobi_bfv.contraction import (BrstContraction, ConnectionSpec,
                                    ResidualError)
from jacobi_bfv.solver import NotJacobiError, lift_jacobi
from jacobi_bfv.models import Model, t5_contact
from oracles import is_flat_trivial
from conftest import t5_chart

CH = t5_chart()

T5_DOC = {
    "schema": "bfv-scenario/1",
    "name": "t5-file",
    "chart": {
        "coords": ["phi1", "phi2", "phi3", "phi4", "phi5", "y1", "y2"],
        "angular": ["phi1", "phi2", "phi3", "phi4", "phi5"],
        "fiber": ["y1", "y2"],
    },
    "rank": 2,
    "jacobi": {
        "biv": [
            ["phi3", "phi4", "(cos phi3)"],
            ["phi3", "phi5", "(neg (sin phi3))"],
            ["phi4", "y1", "(* y1 (sin phi3))"],
            ["phi4", "y2", "(* y2 (sin phi3))"],
            ["phi5", "y1", "(* y1 (cos phi3))"],
            ["phi5", "y2", "(* y2 (cos phi3))"],
            ["phi1", "y1", "(neg 1)"],
            ["phi2", "y2", "(neg 1)"],
        ],
        "vec": {"phi4": "(sin phi3)", "phi5": "(cos phi3)"},
    },
    "section": ["0", "0"],
}


def scenario_file(tmp_path, **patch):
    doc = json.loads(json.dumps(T5_DOC))
    for key, val in patch.items():
        doc[key] = val
    path = tmp_path / "scn.json"
    path.write_text(json.dumps(doc))
    return str(path)


# -- expression parser ------------------------------------------------

def test_parse_expr_ring_forms():
    two = ScalarExpr.number(CH, 2)
    y1 = ScalarExpr.coord(CH, "y1")
    assert parse_expr("2", CH) == two
    assert parse_expr("-3/2", CH) == ScalarExpr.number(CH, Fraction(-3, 2))
    assert parse_expr("y1", CH) == y1
    assert parse_expr("(+ y1 2)", CH) == y1 + two
    assert parse_expr("(* 2 y1 y2)", CH) == \
        two * y1 * ScalarExpr.coord(CH, "y2")
    assert parse_expr("(neg y1)", CH) == -y1
    assert parse_expr("(^ y1 3)", CH) == y1 * y1 * y1
    assert parse_expr("(^ y1 0)", CH) == ScalarExpr.one(CH)
    assert parse_expr("(^ y1 32)", CH) == y1 ** 32
    assert parse_expr(4, CH) == two + two


def test_parse_expr_trig_and_nesting():
    s3 = ScalarExpr.sin(CH, "phi3")
    c3 = ScalarExpr.cos(CH, "phi3")
    assert parse_expr("(sin phi3)", CH) == s3
    assert parse_expr("(cos phi3)", CH) == c3
    got = parse_expr("(+ (* y1 (sin phi3)) (neg (^ (cos phi3) 2)))", CH)
    assert got == ScalarExpr.coord(CH, "y1") * s3 - c3 * c3


def test_parse_expr_abstract_funcs():
    ab = t5_chart(abstract=True)
    assert parse_expr("(* 2 f1)", ab) == ScalarExpr.func(ab, "f1") * 2
    with pytest.raises(ScenarioError, match="unknown symbol"):
        parse_expr("f1", CH)


def test_parse_expr_rejects():
    with pytest.raises(ScenarioError, match="empty"):
        parse_expr("  ", CH)
    with pytest.raises(ScenarioError, match="unknown symbol"):
        parse_expr("zz", CH)
    with pytest.raises(ScenarioError, match="unbalanced"):
        parse_expr("(+ y1 2", CH)
    with pytest.raises(ScenarioError, match="unbalanced"):
        parse_expr(")", CH)
    with pytest.raises(ScenarioError, match="trailing"):
        parse_expr("(+ y1 2) y2", CH)
    with pytest.raises(ScenarioError, match="non-angular"):
        parse_expr("(sin y1)", CH)
    with pytest.raises(ScenarioError, match="one coordinate"):
        parse_expr("(sin (sin phi3))", CH)
    with pytest.raises(ScenarioError, match="exponent"):
        parse_expr("(^ y1 1/2)", CH)
    with pytest.raises(ScenarioError, match="exponent"):
        parse_expr("(^ y1 -1)", CH)
    with pytest.raises(ScenarioError, match="unknown operator"):
        parse_expr("(div y1 2)", CH)
    with pytest.raises(ScenarioError, match="operator expected"):
        parse_expr("((+ y1))", CH)
    # nesting is bounded before reading or building can recurse deeply
    deep = cli.MAX_DEPTH * "(neg " + "y1" + cli.MAX_DEPTH * ")"
    assert parse_expr(deep, CH) == ScalarExpr.coord(CH, "y1")
    with pytest.raises(ScenarioError, match="nests deeper than 32"):
        parse_expr("(+ %s)" % deep, CH)


# -- scenario loading -------------------------------------------------

def same_scenario(a, b):
    "Equal J, connections, section and options, name aside."
    conns = [c and (c.vert, c.coef)
             for c in (a.conn, a.conn2, b.conn, b.conn2)]
    return (a.J == b.J and conns[:2] == conns[2:] and a.section == b.section
            and (a.kmax, a.max_iter) == (b.kmax, b.max_iter))


def test_builtin_scenario(tmp_path):
    spec = parse_scenario("t5-contact")
    model = t5_contact()
    assert isinstance(spec, Model) and isinstance(model, Model)
    assert spec.name == "t5-contact"
    assert spec.rank == 2
    assert spec.J == model.J
    assert is_flat_trivial(spec.conn)
    assert spec.conn2 is not None and not is_flat_trivial(spec.conn2)
    assert all(c.is_zero() for c in spec.section)
    assert parse_scenario(None).J == spec.J
    assert same_scenario(spec, model)
    # a file with no connection, section or options takes every default
    # from Model: flat trivial, no connection2, zero section, 3 and 64
    doc = {k: v for k, v in T5_DOC.items() if k != "section"}
    path = tmp_path / "minimal.json"
    path.write_text(json.dumps(doc))
    bare = parse_scenario(str(path))
    assert isinstance(bare, Model)
    assert is_flat_trivial(bare.conn) and bare.conn2 is None
    assert len(bare.section) == 2
    assert all(c.is_zero() for c in bare.section)
    assert (bare.kmax, bare.max_iter) == (3, 64)
    assert same_scenario(bare, Model("defaults", bare.J))


def test_scenario_file_matches_builtin(tmp_path):
    spec = parse_scenario(scenario_file(tmp_path))
    assert spec.name == "t5-file"
    assert spec.J == t5_contact().J
    assert is_flat_trivial(spec.conn)
    assert spec.conn2 is None


def test_scenario_biv_entry_order(tmp_path):
    # entries above the diagonal are folded in with a sign, and
    # duplicates for one slot accumulate
    biv = [item[:] for item in T5_DOC["jacobi"]["biv"]]
    biv[0] = ["phi4", "phi3", "(neg (cos phi3))"]
    biv[1] = ["phi3", "phi5", "(neg (* 1/2 (sin phi3)))"]
    biv.append(["phi3", "phi5", "(neg (* 1/2 (sin phi3)))"])
    jac = {"biv": biv, "vec": dict(T5_DOC["jacobi"]["vec"])}
    spec = parse_scenario(scenario_file(tmp_path, jacobi=jac))
    assert spec.J == t5_contact().J


def test_scenario_forms_agree(tmp_path):
    # reversed, duplicated and shuffled biv entries and a reordered vec
    # give the same J as the terms form and as jacobi_from_pair
    model = t5_contact()
    rng = random.Random("scenario-forms")
    biv, terms = [], []
    for ci, cj, src in T5_DOC["jacobi"]["biv"]:
        half = "(* 1/2 %s)" % src
        for a, b, e in ((ci, cj, half), (cj, ci, "(neg %s)" % half)):
            if rng.random() < 0.5:
                a, b, e = b, a, "(neg %s)" % e
            biv.append([a, b, e])
            terms.append([["d:" + a, "d:" + b], e])
    vec = dict(reversed(list(T5_DOC["jacobi"]["vec"].items())))
    for c, src in vec.items():
        terms.append([["d:" + c, "m"], "(neg %s)" % src])
    rng.shuffle(biv)
    rng.shuffle(terms)
    pair = parse_scenario(scenario_file(
        tmp_path, jacobi={"biv": biv, "vec": vec})).J
    words = parse_scenario(scenario_file(tmp_path,
                                         jacobi={"terms": terms})).J
    assert pair == words == model.J
    half = [[ci, cj, "(* 1/2 %s)" % src]
            for ci, cj, src in T5_DOC["jacobi"]["biv"]]
    assert parse_scenario(scenario_file(tmp_path, jacobi={
        "biv": half + half, "vec": vec})).J == model.J


def test_scenario_empty_pair_accepted(tmp_path):
    doc = {"schema": "bfv-scenario/1", "name": "empty",
           "chart": dict(T5_DOC["chart"]), "rank": 2}
    path = tmp_path / "empty.json"
    path.write_text(json.dumps(doc))
    spec = parse_scenario(str(path))
    assert spec.J.is_zero()


def test_scenario_explicit_terms(tmp_path):
    # same structure in the explicit coefficient form; one word is given
    # out of order on purpose and gets its sign folded in
    terms = [
        [["d:phi3", "d:phi4"], "(cos phi3)"],
        [["d:phi5", "d:phi3"], "(sin phi3)"],
        [["d:phi4", "d:y1"], "(* y1 (sin phi3))"],
        [["d:phi4", "d:y2"], "(* y2 (sin phi3))"],
        [["d:phi5", "d:y1"], "(* y1 (cos phi3))"],
        [["d:phi5", "d:y2"], "(* y2 (cos phi3))"],
        [["d:phi1", "d:y1"], "-1"],
        [["d:phi2", "d:y2"], "-1"],
        [["m", "d:phi4"], "(sin phi3)"],
        [["m", "d:phi5"], "(cos phi3)"],
    ]
    spec = parse_scenario(scenario_file(tmp_path, jacobi={"terms": terms}))
    assert spec.J == t5_contact().J
    with pytest.raises(ScenarioError, match="not both"):
        parse_scenario(scenario_file(
            tmp_path, jacobi={"terms": terms, "vec": {}}))
    with pytest.raises(ScenarioError, match="bad letter"):
        parse_scenario(scenario_file(
            tmp_path, jacobi={"terms": [[["d:zz"], "1"]]}))
    # a pair that is not Jacobi parses; the lift rejects it with [[J, J]]
    bad = terms + [[["d:phi3", "d:phi4"], "y1"]]
    spec = parse_scenario(scenario_file(tmp_path, jacobi={"terms": bad}))
    assert not is_jacobi(spec.J)
    with pytest.raises(NotJacobiError) as err:
        lift_jacobi(spec.J, spec.conn)
    assert err.value.residual == sj_bracket(spec.J, spec.J)


def test_scenario_connection_parsing(tmp_path):
    src = scenario_file(
        tmp_path,
        connection="flat-trivial",
        connection2={"vert": [[0, 1, "(sin phi3)"]],
                     "coef": [["phi4", 1, 0, "y1"]]})
    spec = parse_scenario(src)
    assert is_flat_trivial(spec.conn)
    assert spec.conn2.vert[(0, 1)] == ScalarExpr.sin(CH, "phi3")
    assert spec.conn2.coef[("phi4", 1, 0)] == ScalarExpr.coord(CH, "y1")


def test_scenario_rejects(tmp_path):
    with pytest.raises(ScenarioError, match="cannot read"):
        parse_scenario(str(tmp_path / "missing.json"))
    path = tmp_path / "notjson.json"
    path.write_text("{")
    with pytest.raises(ScenarioError, match="not valid JSON"):
        parse_scenario(str(path))
    with pytest.raises(ScenarioError, match="unsupported schema"):
        parse_scenario(scenario_file(tmp_path, schema="bfv-scenario/9"))
    with pytest.raises(ScenarioError, match="unknown scenario keys: bivector"):
        parse_scenario(scenario_file(tmp_path, bivector=[]))
    with pytest.raises(ScenarioError, match="rank"):
        parse_scenario(scenario_file(tmp_path, rank=3))
    jac = {"biv": [["phi3", "zz", "1"]], "vec": {}}
    with pytest.raises(ScenarioError, match="unknown coordinate"):
        parse_scenario(scenario_file(tmp_path, jacobi=jac))
    with pytest.raises(ScenarioError, match="exactly 2 components"):
        parse_scenario(scenario_file(tmp_path, section=["0"]))
    with pytest.raises(ScenarioError, match="fiber"):
        parse_scenario(scenario_file(tmp_path, section=["y1", "0"]))


CURVED = {"vert": [[0, 1, "(sin phi3)"]]}


@pytest.mark.parametrize("patch, match", [
    ({"jacobi": {"biv": [["phi3", "phi4"]]}}, "jacobi biv"),
    ({"jacobi": {"terms": [[["d:phi3", "d:phi4"]]]}}, "jacobi terms"),
    ({"connection": {"vert": [[0, "(sin phi3)"]]}}, "connection vert"),
    ({"connection": {"coef": [["phi4", 1, "y1"]]}}, "connection coef"),
    ({"connection": {"vert": [[0, 2, "1"]]}}, "out of range"),
    ({"connection": {"vert": [[0.5, 1, "1"]]}}, "nonnegative integer"),
    ({"connection": {"coef": [["zz", 0, 1, "1"]]}}, "unknown coordinate"),
    ({"options": {"kmax": "abc"}}, "options.kmax must be a nonnegative"),
    ({"options": {"kmax": -1}}, "options.kmax must be a nonnegative"),
    ({"options": {"max_iter": -1}}, "options.max_iter must be a nonnegative"),
    ({"options": {"max_iter": 2.5}}, "got 2.5"),
    ({"options": [3]}, "options must be an object"),
    ({"section": [3.5, "0"]}, "got 3.5"),
    ({"section": [True, "0"]}, "expression expected"),
    ({"section": [["y1"], "0"]}, "expression expected"),
    ({"section": "12"}, "exactly 2 components"),
    ({"rank": 2.0}, "rank"),
    ({"jacobi": [["phi3", "phi4", "1"]]}, "jacobi must be an object"),
    ({"jacobi": {"vec": [["phi4", "1"]]}}, "vec must be an object"),
    ({"jacobi": {"biv": [["phi3", "phi3", "1"]]}}, "pairs 'phi3' with itself"),
    ({"chart": {"coords": ["phi1", "phi1", "y1", "y2"],
                "fiber": ["y1", "y2"]}}, "bad chart: coordinate name clash"),
    ({"jacobi": {"vec": []}}, "vec must be an object"),
    ({"options": 0}, "options must be an object"),
    ({"chart": dict(T5_DOC["chart"], funcs=[["f1", "phi1"]])},
     "bad chart: funcs must be an object"),
    ({"jacobi": {"terms": [["m", "1"]]}}, "words must be lists"),
    ({"chart": {"coords": "aby", "fiber": "y"}},
     "bad chart: coords must be a list of names"),
    ({"chart": {"coords": "x1x2", "fiber": []}},
     "bad chart: coords must be a list of names"),
    ({"chart": dict(T5_DOC["chart"], angular="phi1")},
     "bad chart: angular must be a list of names"),
    ({"chart": dict(T5_DOC["chart"], fiber=["y1", 2])},
     "bad chart: fiber must be a list of names"),
    ({"chart": dict(T5_DOC["chart"], funcs={"f1": "phi1"})},
     "bad chart: funcs 'f1' must be a list of names"),
    ({"section": ["(^ (+ phi1 y1) 33)", "0"]}, "integer from 0 to 32"),
    ({"jacobi": {"terms": [[["d:phi3"], "1"]]}}, "carry two letters"),
    ({"name": ["t5"]}, "name must be a string"),
    ({"chart": dict(T5_DOC["chart"],
                    coords=T5_DOC["chart"]["coords"] + ["1"])},
     "bad chart: coords must be a list of names"),
    ({"chart": dict(T5_DOC["chart"], funcs={"f 1": ["phi1"]})},
     "bad chart: function names must be a list of names"),
    ({"options": {"max_iters": 0}}, "unknown options keys: max_iters"),
    ({"jacobi": {"terms": [[["d:phi3", "d:phi3"], "5"]]}},
     "pairs 'phi3' with itself"),
    ({"jacobi": {"terms": [[["m", "m"], "3"]]}}, "pairs 'm' with itself"),
])
def test_scenario_rejects_malformed_values(tmp_path, patch, match):
    with pytest.raises(ScenarioError, match=match):
        parse_scenario(scenario_file(tmp_path, **patch))


# one bad value per input rule, as a scenario file holds it and as the
# library type that owns the rule takes it; the rule that a J entry is
# two different letters belongs to the file format, so its second
# reading is the same entry in the terms form; a file cannot break the
# rule that a connection has J's chart and rank, as the loader builds
# every connection on them, so its readings are the two library calls
# that apply it, Model and lift_jacobi
ONE_RULE = {
    "rank-and-section": ({"section": ["0"]},
                         lambda tmp: Model("lib", t5_contact().J,
                                           section=(0,))),
    "count": ({"options": {"max_iter": -1}},
              lambda tmp: Model("lib", t5_contact().J, max_iter=-1)),
    "frame-index": ({"connection": {"vert": [[0, 2, "1"]]}},
                    lambda tmp: ConnectionSpec(CH, 2, vert={(0, 2): 1})),
    "coef-coordinate": ({"connection": {"coef": [["zz", 0, 1, "1"]]}},
                        lambda tmp: ConnectionSpec(
                            CH, 2, coef={("zz", 0, 1): 1})),
    "jacobi-entry": ({"jacobi": {"biv": [["phi3", "phi3", "1"]]}},
                     lambda tmp: parse_scenario(scenario_file(tmp, jacobi={
                         "terms": [[["d:phi3", "d:phi3"], "1"]]}))),
    "connection-chart-and-rank": (
        lambda tmp: lift_jacobi(t5_contact().J, ConnectionSpec(CH, 1)),
        lambda tmp: Model("lib", t5_contact().J,
                          conn2=ConnectionSpec(CH, 1))),
}


@pytest.mark.parametrize("rule", sorted(ONE_RULE))
def test_one_rule_one_message(tmp_path, rule):
    patch, library = ONE_RULE[rule]
    if callable(patch):  # a rule with no file reading
        patch, first = {}, patch
    else:
        first = lambda tmp: parse_scenario(scenario_file(tmp, **patch))
    with pytest.raises(ValueError) as from_file:
        first(tmp_path)
    assert patch == {} or from_file.type is ScenarioError
    with pytest.raises(ValueError) as from_library:
        library(tmp_path)
    # a file names an option by its JSON path, options.<key>
    prefix = "options." if "options" in patch else ""
    assert str(from_file.value) == prefix + str(from_library.value)


def test_scenario_integral_numbers_accepted(tmp_path):
    spec = parse_scenario(scenario_file(
        tmp_path, section=[-2.0, 0], options={"kmax": 2, "max_iter": 5.0}))
    assert spec.section == (ScalarExpr.number(CH, -2), ScalarExpr.zero(CH))
    assert (spec.kmax, spec.max_iter) == (2, 5)


def test_scenario_deep_json(tmp_path, capsys):
    # the JSON reader recurses once per level; past Python's limit the
    # file is bad input, not a traceback
    path = tmp_path / "deep.json"
    path.write_text("[" * 100000 + "]" * 100000)
    assert cli.main(["--scenario", str(path)]) == 1
    assert capsys.readouterr().err == \
        "error: scenario JSON nests too deeply to read\n"


def test_scenario_top_level_array(tmp_path, capsys):
    path = tmp_path / "array.json"
    path.write_text("[]")
    with pytest.raises(ScenarioError, match="JSON object"):
        parse_scenario(str(path))
    assert cli.main(["--scenario", str(path)]) == 1
    assert capsys.readouterr().err == "error: a scenario is a JSON object\n"


def test_main_iteration_caps(tmp_path, capsys):
    assert cli.main(["--command", "lift", "--max-iter", "-1"]) == 1
    assert "--max-iter must be a nonnegative" in capsys.readouterr().err
    assert cli.main(["--command", "linf", "--kmax", "-1"]) == 1
    assert "--kmax must be a nonnegative" in capsys.readouterr().err
    src = scenario_file(tmp_path, options={"max_iter": -1})
    assert cli.main(["--scenario", src, "--command", "lift"]) == 1
    assert "options.max_iter" in capsys.readouterr().err
    src = scenario_file(tmp_path, options={"max_iters": 0})
    assert cli.main(["--scenario", src, "--command", "lift"]) == 1
    assert "unknown options keys: max_iters" in capsys.readouterr().err
    # the flat lift is exact, so a cap of 0 suffices
    assert cli.main(["--command", "lift", "--max-iter", "0"]) == 0
    assert "corrections: 0" in capsys.readouterr().out
    # exhausting a valid cap is a residual, not bad input
    src = scenario_file(tmp_path, connection=CURVED)
    assert cli.main(["--scenario", src, "--command", "lift",
                     "--max-iter", "0"]) == 2
    assert "within 0 corrections" in capsys.readouterr().err
    assert cli.main(["--scenario", src, "--command", "lift",
                     "--max-iter", "1"]) == 0
    assert "corrections: 1" in capsys.readouterr().out


# -- command execution ------------------------------------------------

def test_main_exit_code_by_type(monkeypatch, capsys):
    # exit 2 is a residual the construction cannot remove; any other
    # ValueError, a library check the parser missed included, is bad input
    def raising(exc):
        def fail(*args):
            raise exc
        return fail

    for exc, code in ((ValueError("boom"), 1), (ResidualError("boom"), 2)):
        monkeypatch.setattr(cli, "reduced_differential", raising(exc))
        assert cli.main(["--command", "reduce"]) == code
        assert capsys.readouterr() == ("", "error: boom\n")
    # check's reduced-match row reads a residual as FAIL, and only that
    assert cli.main(["--command", "check"]) == 2
    assert "reduced-match = FAIL" in capsys.readouterr().out
    monkeypatch.setattr(cli, "reduced_differential",
                        raising(ValueError("boom")))
    assert cli.main(["--command", "check"]) == 1
    assert capsys.readouterr() == ("", "error: boom\n")


def test_reduced_cross_check_is_live(monkeypatch, capsys):
    # a transfer that is wrong on one generator, eta^2 here, fails the
    # cross-check against m_1 of J: the library names that generator,
    # and check reads it as its one FAIL row.  The immersion the
    # one-step map starts from adds phi2 mu to eta^2, and d_BFV takes
    # phi2 mu to xi^2 mu, which projects to eta^2.
    model = t5_contact()
    red = model.chart.reduced()
    eta2 = Section(GradedFunction.ghost(red, 2, 1))
    phi2 = Section(Section.frame(red, 2).fun.scale(
        ScalarExpr.coord(red, "phi2")))
    imm = BrstContraction.imm

    def wrong_on_eta2(self, x):
        out = imm(self, x)
        return out + imm(self, phi2) if x == eta2 else out

    monkeypatch.setattr(BrstContraction, "imm", wrong_on_eta2)
    bfv = solver.bfv_assemble(model.J, model.conn)
    with pytest.raises(ResidualError) as err:
        solver.reduced_differential(bfv)
    assert str(err.value).endswith("the direct one on %s" % eta2)
    assert cli.main(["--command", "check"]) == 2
    out = capsys.readouterr().out
    assert [ln for ln in out.splitlines() if "FAIL" in ln] == \
        ["  reduced-match = FAIL"]


def test_m2_antisymmetry_row_is_live(monkeypatch, capsys):
    # an m_2 that is not antisymmetric on one degree-0 pair, (mu, phi1
    # mu) here, fails check's m2-antisymmetry-degree0 row and no other
    red = t5_contact().chart.reduced()
    mu = Section.frame(red, 2)
    phi1 = mu.scale(ScalarExpr.coord(red, "phi1"))
    family = solver.derived_brackets

    def lopsided(Jhat, k_max):
        mk = family(Jhat, k_max)
        m2 = mk[2]
        mk[2] = lambda a, b: m2(a, b) + mu if (a, b) == (mu, phi1) \
            else m2(a, b)
        return mk

    monkeypatch.setattr(cli, "derived_brackets", lopsided)
    assert cli.main(["--command", "check"]) == 2
    out = capsys.readouterr().out
    assert [ln for ln in out.splitlines() if "FAIL" in ln] == \
        ["  m2-antisymmetry-degree0 = FAIL"]


@pytest.mark.parametrize("command, solves", [
    ("lift", 1), ("brst", 2), ("bfv", 2), ("residual", 1), ("reduce", 2),
    ("linf", 1), ("intertwine", 3), ("check", 3)])
def test_main_lifts_once(monkeypatch, capsys, command, solves):
    # every command lifts J along the scenario connection once and
    # reuses that lift; only intertwine lifts again, along connection2
    calls = []
    solve = solver.obstruction_solve

    def counted(*args, **kwargs):
        calls.append(1)
        return solve(*args, **kwargs)

    # every module that holds the solver entry point, cli included
    for mod in (solver, cli):
        monkeypatch.setattr(mod, "obstruction_solve", counted)
    assert cli.main(["--command", command]) == 0
    capsys.readouterr()
    assert len(calls) == solves


@pytest.mark.parametrize("command, brackets", [
    ("lift", 1), ("brst", 1), ("bfv", 1), ("residual", 1), ("reduce", 1),
    ("linf", 1), ("intertwine", 1), ("check", 1)])
def test_main_brackets_J_once(monkeypatch, capsys, command, brackets):
    # the Jacobi condition [[J, J]] = 0 is bracketed once per run, by the
    # lift along the scenario connection, whose first projected residual
    # is [[J, J]]; building J brackets nothing, and check's jacobi row
    # reports the lift's verdict
    spec = parse_scenario("t5-contact")
    Qbar = solver.lifting_problem(spec.J, spec.conn).Qbar
    lifts, direct = [], []
    solve, bracket = solver.obstruction_solve, multideriv.sj_bracket

    def counted_solve(prob, *args, **kwargs):
        if prob.Qbar == Qbar:
            lifts.append(1)
        return solve(prob, *args, **kwargs)

    def counted_bracket(D, E):
        if D == spec.J and E == spec.J:
            direct.append(1)
        return bracket(D, E)

    for mod in (solver, cli):
        monkeypatch.setattr(mod, "obstruction_solve", counted_solve)
    for mod in (multideriv, solver, cli):
        monkeypatch.setattr(mod, "sj_bracket", counted_bracket)
    assert cli.main(["--command", command]) == 0
    capsys.readouterr()
    assert len(lifts) == 1
    assert direct == []
    assert len(lifts) + len(direct) == brackets


@pytest.mark.parametrize("command, brackets", [("linf", 46), ("check", 28)])
def test_main_derived_brackets_share_prefixes(monkeypatch, capsys, command,
                                              brackets):
    # t5-contact, one family per run: linf lifts (1), brackets its 8
    # probes (8), then each pair i <= j at the second level only (36),
    # and m3 past the (a_0, a_1) prefix m2 reached (1); check lifts (1),
    # forms [[Jhat, Jhat]] (1) and d_BFV (1), takes the de Rham route on
    # 13 generators (13) and its 6 antisymmetry pairs in both orders
    # (3 + 9).  Bracketing every m_k from Jhat took 84 and 40.
    calls = []
    bracket = multideriv.sj_bracket

    def counted(D, E):
        calls.append(1)
        return bracket(D, E)

    for mod in (multideriv, solver, cli):
        monkeypatch.setattr(mod, "sj_bracket", counted)
    assert cli.main(["--command", command]) == 0
    capsys.readouterr()
    assert len(calls) == brackets


def test_main_reduce_evaluates_d_bfv_once_per_section(monkeypatch, capsys):
    # the one-step map evaluates d_BFV once per section it transfers:
    # the 13 generators of its cross-check; the 8 probes reduce prints
    # are among them, so the map answers them from the cross-check
    calls = []
    dif = solver.BfvData.dif

    def counting(self, lam):
        calls.append(lam)
        return dif(self, lam)

    monkeypatch.setattr(solver.BfvData, "dif", counting)
    assert cli.main(["--command", "reduce"]) == 0
    capsys.readouterr()
    assert len(calls) == 13


def test_main_check_passes(capsys):
    assert cli.main(["--command", "check"]) == 0
    out = capsys.readouterr().out
    rows = [ln for ln in out.splitlines() if ln.endswith("= PASS")]
    assert len(rows) == 9
    assert "FAIL" not in out


def test_main_reports_are_reproducible(capsys):
    argv = ["--command", "bfv", "--format", "json"]
    assert cli.main(argv) == 0
    first = capsys.readouterr().out
    assert cli.main(argv) == 0
    assert capsys.readouterr().out == first
    doc = json.loads(first)
    assert doc["schema"] == "bfv-report/1"
    assert doc["omega"] == "(y1) xi^1 mu + (y2) xi^2 mu"


def test_main_lift_and_reduce_reports(capsys):
    assert cli.main(["--command", "lift"]) == 0
    out = capsys.readouterr().out
    assert "mc: True" in out
    assert "corrections: 0" in out
    assert cli.main(["--command", "reduce"]) == 0
    out = capsys.readouterr().out
    assert "phi1 mu = (1) eta^1 mu" in out
    assert "xi^" not in out


def test_main_brst_trace(tmp_path, capsys):
    src = scenario_file(tmp_path, section=["(sin phi4)", "0"])
    assert cli.main(["--scenario", src, "--command", "brst",
                     "--trace"]) == 0
    out = capsys.readouterr().out
    assert "corrections: 1" in out
    assert "mc: True" in out
    assert "step 1" in out and "correction" in out


def test_main_obstruction_exit(tmp_path, capsys):
    src = scenario_file(tmp_path, section=["(sin phi2)", "0"])
    assert cli.main(["--scenario", src, "--command", "residual"]) == 2
    out = capsys.readouterr().out
    assert "residual: (2*cos(phi2)) eta^1 eta^2 mu" in out
    assert "coisotropic: False" in out
    assert cli.main(["--scenario", src, "--command", "brst"]) == 2
    out = capsys.readouterr().out
    assert "obstruction: (2*cos(phi2)) eta^1 eta^2 mu" in out


def test_main_not_jacobi_exit(tmp_path, capsys):
    biv = [item[:] for item in T5_DOC["jacobi"]["biv"]]
    biv[0] = ["phi3", "phi4", "(+ (cos phi3) y1)"]
    jac = {"biv": biv, "vec": dict(T5_DOC["jacobi"]["vec"])}
    src = scenario_file(tmp_path, jacobi=jac)
    J = parse_scenario(src).J
    want = ("error: the pair does not satisfy the Jacobi condition\n"
            "residual: %s\n" % sj_bracket(J, J))
    # every command that lifts stops at the lift, with [[J, J]]
    for command in cli.COMMANDS:
        if command == "intertwine":
            continue
        assert cli.main(["--scenario", src, "--command", command]) == 2
        assert tuple(capsys.readouterr()) == ("", want)
    # bad input is exit 1 whether or not the pair is Jacobi
    assert cli.main(["--scenario", src, "--command", "intertwine"]) == 1
    assert "connection2" in capsys.readouterr().err
    for flag in ("--max-iter", "--kmax"):
        for command in cli.COMMANDS:
            assert cli.main(["--scenario", src, "--command", command,
                             flag, "-1"]) == 1
            assert "%s must be a nonnegative" % flag in \
                capsys.readouterr().err


BOUND_CHART = {"coords": ["x1", "x2", "x3", "x4", "x5", "y1", "y2", "z"],
               "fiber": ["z"]}


# expression -> the bound it breaks
BOUNDED = {"(^ (^ (+ x1 x2 y1) 8) 8)": "term pairs",
           "(^ (+ x1 x2 x3 x4 x5 y1 y2) 10)": "term pairs",
           "(^ (^ (^ (^ (^ 2 32) 32) 32) 32) 32)": "bits",
           "(^ (^ 1/3 32) 32)": "bits"}


@pytest.mark.parametrize("expr", sorted(BOUNDED))
def test_parse_products_are_bounded(tmp_path, capsys, expr):
    # nested or wide powers stop at the first product over the bound,
    # before the degree or the coefficients can multiply out
    bound = BOUNDED[expr]
    chart = cli._parse_chart(BOUND_CHART)
    with pytest.raises(ScenarioError, match=bound):
        parse_expr(expr, chart)
    assert parse_expr("(^ y1 32)", chart) == \
        ScalarExpr.coord(chart, "y1") ** 32
    assert parse_expr("(^ 2 32)", chart) == ScalarExpr.number(chart, 2 ** 32)
    src = scenario_file(tmp_path, chart=BOUND_CHART, rank=1,
                        jacobi={"biv": [["x1", "x2", "1"]]}, section=[expr])
    start = time.perf_counter()
    assert cli.main(["--scenario", src, "--command", "residual"]) == 1
    assert time.perf_counter() - start < 1.0
    err = capsys.readouterr().err
    assert err.startswith("error:") and bound in err


def test_main_usage_errors(tmp_path, capsys):
    assert cli.main(["--command", "explode"]) == 1
    capsys.readouterr()
    assert cli.main(["--scenario", str(tmp_path / "no.json")]) == 1
    assert "error: cannot read" in capsys.readouterr().err
    assert cli.main(["--help"]) == 0


def test_main_linf_kmax(capsys):
    assert cli.main(["--command", "linf", "--kmax", "1"]) == 0
    out = capsys.readouterr().out
    assert "m1:" in out
    assert "m2:" not in out and "m3:" not in out
    assert cli.main(["--command", "linf", "--kmax", "2"]) == 0
    out = capsys.readouterr().out
    assert "m2:" in out and "m3:" not in out
    assert "phi4 mu , eta^1 = (sin(phi3)) eta^1 mu" in out


def test_main_linf_large_kmax(tmp_path, monkeypatch, capsys):
    # kmax selects the rows m1-m3 and builds no bracket beyond m3, so a
    # huge one costs what kmax 3 does
    derived = cli.derived_brackets

    def bounded(Jhat, k_max):
        if k_max > 3:
            pytest.fail("derived_brackets asked for arity %d" % k_max)
        return derived(Jhat, k_max)

    monkeypatch.setattr(cli, "derived_brackets", bounded)
    assert cli.main(["--command", "linf", "--kmax", "3"]) == 0
    want = capsys.readouterr().out
    assert "m3:" in want
    assert cli.main(["--command", "linf", "--kmax", str(10 ** 12)]) == 0
    assert capsys.readouterr().out == want
    src = scenario_file(tmp_path, name="t5-contact", options={"kmax": 1e300})
    assert cli.main(["--scenario", src, "--command", "linf"]) == 0
    assert capsys.readouterr().out == want


def test_main_intertwine(capsys):
    assert cli.main(["--command", "intertwine"]) == 0
    out = capsys.readouterr().out
    assert "lift_intertwined: True" in out
    assert "charge_intertwined: True" in out


def test_main_intertwine_does_not_replay(monkeypatch, capsys):
    # gauge_intertwine returns only at its target, so both rows read
    # True without replaying the exponentials
    def replay(*args):
        raise RuntimeError("GaugeAutomorphism replayed")

    monkeypatch.setattr(solver.GaugeAutomorphism, "__call__", replay)
    assert cli.main(["--command", "intertwine"]) == 0
    out = capsys.readouterr().out
    assert "lift_intertwined: True" in out
    assert "charge_intertwined: True" in out


def test_main_intertwine_rejects_rank1_up_front(tmp_path, monkeypatch,
                                                capsys):
    # the displacement raises the anti-ghost level by r - 1, so rank 1
    # is refused before anything is lifted
    path = os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "demos", "scenarios", "small_rank1.json")
    with open(path) as fh:
        doc = json.load(fh)
    doc["connection2"] = doc.get("connection", "flat-trivial")
    src = tmp_path / "rank1.json"
    src.write_text(json.dumps(doc))

    def lift(*args):
        raise RuntimeError("lifted")

    monkeypatch.setattr(cli, "lift_jacobi", lift)
    assert cli.main(["--scenario", str(src), "--command", "intertwine"]) == 1
    out, err = capsys.readouterr()
    assert out == "" and "rank 1" in err and err.startswith("error: ")
    # without connection2 the older message still comes first
    del doc["connection2"]
    src.write_text(json.dumps(doc))
    assert cli.main(["--scenario", str(src), "--command", "intertwine"]) == 1
    assert "connection2" in capsys.readouterr().err


SMALL_DOC = {
    "schema": "bfv-scenario/1",
    "name": "small-rank1",
    "chart": {"coords": ["x1", "x2", "y1"], "fiber": ["y1"]},
    "rank": 1,
    "jacobi": {"biv": [["x1", "x2", "1"]], "vec": {"x2": "x1"}},
    "connection": {"vert": [[0, 0, "x1"]]},
    "section": ["(* 2 x2)"],
}


def test_main_small_scenario_all_green(tmp_path, capsys):
    path = tmp_path / "small.json"
    path.write_text(json.dumps(SMALL_DOC))
    assert cli.main(["--scenario", str(path), "--command", "check"]) == 0
    out = capsys.readouterr().out
    assert out.count("= PASS") == 9 and "FAIL" not in out


def test_main_rejects_bool_rank(tmp_path, capsys):
    # True == 1 matches the one fiber coordinate, but a bool is no rank
    path = tmp_path / "bool_rank.json"
    path.write_text(json.dumps(dict(SMALL_DOC, rank=True)))
    with pytest.raises(ScenarioError, match="rank"):
        parse_scenario(str(path))
    assert cli.main(["--scenario", str(path), "--command", "lift"]) == 1
    assert "rank" in capsys.readouterr().err


def fiber_order_doc(fiber):
    return {
        "schema": "bfv-scenario/1",
        "name": "fiber-order",
        "chart": {"coords": ["x1", "x2", "y1", "y2"], "fiber": fiber},
        "rank": 2,
        "jacobi": {"biv": [["x1", "y1", "1"], ["y1", "y2", "y2"]],
                   "vec": {}},
        "section": ["0", "0"],
    }


def test_main_fiber_order_is_free(tmp_path, capsys):
    # the ghost index follows the fiber list, not the coordinate order:
    # listing the fiber as [y2, y1] passes every check and swaps eta^1
    # and eta^2 in the reduced differential
    reports = {}
    for name, fiber in (("fwd", ["y1", "y2"]), ("rev", ["y2", "y1"])):
        path = tmp_path / (name + ".json")
        path.write_text(json.dumps(fiber_order_doc(fiber)))
        assert cli.main(["--scenario", str(path), "--command", "check"]) == 0
        out = capsys.readouterr().out
        assert out.count("= PASS") == 9 and "FAIL" not in out
        for command in ("reduce", "linf"):
            assert cli.main(["--scenario", str(path),
                             "--command", command]) == 0
        reports[name] = capsys.readouterr().out.splitlines()
    gens = ["  mu = 0", "  x2 mu = 0"]
    assert set(gens + ["  x1 mu = (-1) eta^1 mu", "  eta^1 = 0",
                       "  eta^2 = (-1) eta^1 eta^2 mu"]) <= set(reports["fwd"])
    # eta^2 = -eta^1 eta^2 mu becomes eta^1 = -eta^2 eta^1 mu
    assert set(gens + ["  x1 mu = (-1) eta^2 mu", "  eta^2 = 0",
                       "  eta^1 = (1) eta^1 eta^2 mu"]) <= set(reports["rev"])
    assert len(reports["fwd"]) == len(reports["rev"])


def test_main_abstract_residual(tmp_path, capsys):
    chart = dict(T5_DOC["chart"])
    chart["funcs"] = {"f1": ["phi1", "phi2", "phi3", "phi4", "phi5"],
                      "f2": ["phi1", "phi2", "phi3", "phi4", "phi5"]}
    src = scenario_file(tmp_path, chart=chart, section=["f1", "f2"])
    assert cli.main(["--scenario", src, "--command", "residual"]) == 2
    out = capsys.readouterr().out
    assert "coisotropic: False" in out
    for piece in ("2*f1;phi2", "f1;phi3*f2;phi5*sin(phi3)", "eta^1 eta^2 mu"):
        assert piece in out
