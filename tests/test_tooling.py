"""Checks that must hold when Python strips assert statements (-O),
the acceptance suite among them, the contract between the engine and
the benchmark's tracer, checks that the engine's modules import nothing
they do not use and define no function that only the tests call, that
every oracle of tests/oracles.py is reached from a test, and the demos'
output pinned byte for byte to tests/golden."""

import ast
from fractions import Fraction
import json
import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "perfbench"))

import tracing  # noqa: E402
from jacobi_bfv import cli, scalar, ghost, contraction, solver  # noqa: E402,F401
from jacobi_bfv.contraction import ConnectionSpec  # noqa: E402
from jacobi_bfv.models import t5_contact  # noqa: E402
SCENARIOS = ["t5-contact",
             os.path.join(ROOT, "demos", "scenarios", "small_rank1.json"),
             os.path.join(ROOT, "demos", "scenarios", "t5_abstract.json")]

BAD_HOMOTOPY = """
from jacobi_bfv.scalar import ScalarExpr
from jacobi_bfv.contraction import ConnectionSpec, imm_i_nabla
from jacobi_bfv.models import t5_contact
from jacobi_bfv.solver import lifting_problem, obstruction_solve
model = t5_contact()
conn = ConnectionSpec(model.chart, model.rank,
                      {(0, 1): ScalarExpr.sin(model.chart, "phi3")})
prob = lifting_problem(model.J, conn)
H, low = prob.H, imm_i_nabla(model.J, model.conn)
prob.H = lambda X: H(X) + low
try:
    obstruction_solve(prob)
except ValueError as err:
    print("rejected:", err)
else:
    print("accepted")
"""


def run_python(args, optimize):
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    flags = ["-O"] if optimize else []
    return subprocess.run([sys.executable] + flags + args, cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=300)


def test_filtration_guard_survives_optimize():
    out = run_python(["-c", BAD_HOMOTOPY], optimize=True)
    assert out.returncode == 0, out.stderr
    assert out.stdout.startswith("rejected:")
    assert "filtration level" in out.stdout


# library calls whose input must be rejected with ValueError whether or
# not asserts run: a bracket landing below frame flag 0, a structure
# letter that is neither m nor d_<coordinate>, an unknown coordinate,
# operator and ghost-algebra keys out of range, ghost indices out of
# order, names the chart does not declare in their role, binary floats,
# also as operands of ring arithmetic, evaluation on the wrong number of
# arguments or on a bare function, an operator of mixed frame flags, a
# negative exponent, an atom
# the target chart does not declare, operands of different charts or
# ranks, a Section of a non-function or added to or subtracted from a
# non-Section, a chart name that is not a string, a reduced section
# with anti-ghosts, m_k on the wrong number of arguments, m_k on a
# bare function, a full-chart section or a number, a Model of a bad
# count or section, ghost indices that are not ints, and a connection
# off J's chart or rank, or not a ConnectionSpec, given to Model (conn
# or conn2), lift_jacobi, lifting_problem, imm_i_nabla, to_twisted or
# homotopy_H_nabla, and a coefficient of
# another chart given to a section, a connection, a ghost-algebra
# element, an operator or a structure builder, a J that is not an
# operator given to Model, lift_jacobi, the charge and its residual,
# BfvData (J or Jhat), derived_brackets, evaluate, sj_bracket or
# imm_i_nabla, a section that is not a Section given to hamiltonian,
# jacobi_bracket or MultiDerivation.from_section, a bool exponent, a
# k_max above solver.MAX_ARITY, and an m_k argument that cannot be hashed
BAD_LIBRARY_CALLS = """
from jacobi_bfv.scalar import Chart, ScalarExpr
from jacobi_bfv.ghost import GhostMonomial, GradedFunction, Section, ONE_MONO
from jacobi_bfv.multideriv import (MultiDerivation, M, d_letter, e_letter,
                                   evaluate, sj_bracket, hamiltonian,
                                   jacobi_bracket, jacobi_from_pair,
                                   jacobi_from_words)
from jacobi_bfv.contraction import (BrstContraction, ConnectionSpec,
                                    imm_i_nabla, to_twisted, homotopy_H_nabla)
from jacobi_bfv.solver import (derived_brackets, v_immersion, omega_section,
                               gauge_intertwine, lift_jacobi, lifting_problem,
                               coisotropy_residual, BfvData, brst_charge)
from jacobi_bfv.models import Model, t5_contact
model = t5_contact()
ch, J = model.chart, model.J
flat = lifting_problem(J, model.conn)
red = ch.reduced()
one = ScalarExpr.one(ch)
one_red = ScalarExpr.one(red)
with_antighost = Section(GradedFunction(red, 2,
                                        {GhostMonomial((0,), (1,)): one_red}))
x_red = Section(GradedFunction.scalar(red, 2, ScalarExpr.coord(red, "phi1")))
dfun_rank1 = MultiDerivation(ch, 1, {(ONE_MONO, (d_letter("phi1"),), 0): one})
y1 = ScalarExpr.coord(ch, "y1")
xi6 = GhostMonomial((5,), ())
x_mu = Section(GradedFunction.scalar(ch, 2, ScalarExpr.coord(ch, "phi1")))
a_other = ScalarExpr.coord(Chart(["a"]), "a")
mixed = MultiDerivation(ch, 2, {(ONE_MONO, (M,), 0): one,
                                (ONE_MONO, (d_letter("phi1"),), 1): one})
d_phi1, d_phi2 = (MultiDerivation(ch, 2, {(ONE_MONO, (d_letter(x),), 1): one})
                  for x in ("phi1", "phi2"))
calls = [
    lambda: sj_bracket(
        MultiDerivation(ch, 1, {(ONE_MONO, (d_letter("phi1"),), 0): one}),
        MultiDerivation(ch, 1, {(ONE_MONO, (), 0):
                                ScalarExpr.coord(ch, "phi1")})),
    lambda: jacobi_from_words(ch, 2, [((e_letter(7),), one)]),
    lambda: jacobi_from_pair(ch, 2, {("zz", "phi1"): one}, {}),
    lambda: MultiDerivation(ch, 2, {(ONE_MONO, (d_letter("phi1"),), 2): one}),
    lambda: MultiDerivation(ch, 2, {(xi6, (), 1): one}),
    lambda: MultiDerivation(ch, 2, {(ONE_MONO, (e_letter(5),), 1): one}),
    lambda: MultiDerivation(ch, 2, {(ONE_MONO, (d_letter("zz"),), 1): one}),
    lambda: MultiDerivation(
        ch, 2, {(ONE_MONO, (d_letter("phi2"), d_letter("phi1")), 1): one}),
    lambda: GradedFunction(ch, 2, {xi6: one}),
    lambda: ScalarExpr.number(ch, 0.1),
    lambda: one.scale(0.5),
    lambda: jacobi_from_words(ch, 2, [((d_letter("phi1"),), 0.5)]),
    lambda: GhostMonomial((1, 0), ()),
    lambda: GhostMonomial((), (1, 1)),
    lambda: ScalarExpr.coord(ch, "zz"),
    lambda: ScalarExpr.sin(ch, "y1"),
    lambda: ScalarExpr.cos(ch, "zz"),
    lambda: ScalarExpr.func(ch, "zz"),
    lambda: one.partial("zz"),
    lambda: one.substitute({"phi1": one}),
    lambda: y1.substitute({"y1": one_red}),
    lambda: y1.substitute({"y1": 0.5}),
    lambda: one + 0.5,
    lambda: one - 0.5,
    lambda: one * 0.5,
    lambda: 0.5 - one,
    lambda: evaluate(J, [x_mu]),
    lambda: evaluate(J, [x_mu, x_mu.fun]),
    lambda: mixed.frame(),
    lambda: y1 ** -1,
    lambda: y1.with_chart(red),
    lambda: v_immersion(with_antighost, ch),
    lambda: BrstContraction(ch, 2, (0, 0)).imm(with_antighost),
    lambda: BrstContraction(ch, 2, (0, 0)).imm(Section(GradedFunction.scalar(
        Chart(["phi1"]), 2, ScalarExpr.coord(Chart(["phi1"]), "phi1")))),
    lambda: BrstContraction(ch, 1, (0,)),
    lambda: BrstContraction(ch, 3, (0, 0, 0)),
    lambda: omega_section(ch, 1, (0,)),
    lambda: omega_section(ch, 3, (0, 0, 0)),
    lambda: derived_brackets(J, 2)[2](x_red),
    lambda: derived_brackets(J, 1)[1](x_red.fun),
    lambda: derived_brackets(J, 1)[1](
        Section(GradedFunction.scalar(ch, 2, y1))),
    lambda: derived_brackets(J, 1)[1](3),
    lambda: derived_brackets(J, "2"),
    lambda: derived_brackets(J, -1),
    lambda: lift_jacobi(J, model.conn2, 0.5),
    lambda: lift_jacobi(J, model.conn2, "2"),
    lambda: lift_jacobi(J, model.conn2, True),
    lambda: gauge_intertwine(flat.Qbar, flat.Qbar, flat, 0.5),
    lambda: ConnectionSpec(ch, 2, vert={("0", 1): 1}),
    lambda: ConnectionSpec(ch, 2, vert={(0.0, 1): 1}),
    lambda: ConnectionSpec(ch, 2, vert={(True, 1): 1}),
    lambda: ConnectionSpec(ch, 2, coef={("phi1", 0, 1.0): 1}),
    lambda: x_mu + Section.frame(ch, 1),
    lambda: Section(1),
    lambda: sj_bracket(d_phi1, dfun_rank1),
    lambda: imm_i_nabla(dfun_rank1, model.conn),
    lambda: x_mu.fun.ghost_mul(GradedFunction.one(ch, 1)),
    lambda: x_mu + x_mu.fun,
    lambda: x_mu - x_mu.fun,
    lambda: Chart(["x", 1]),
    lambda: Chart([["a"], "b"]),
    lambda: Chart("ab", fiber="b"),
    lambda: Chart(["x"], fiber="x"),
    lambda: one + one_red,
    lambda: one * one_red,
    lambda: ScalarExpr(ch, {((("x", "phi2"), 1), (("x", "phi1"), 1)): 1}),
    lambda: ScalarExpr(ch, {((("x", "zz"), 1),): 1}),
    lambda: ScalarExpr(ch, {((("x", "phi1"), 0),): 3}),
    lambda: ScalarExpr(ch, {((("x", "phi1"), -1),): 1}),
    lambda: Model("x", J, kmax="3"),
    lambda: Model("x", J, max_iter=True),
    lambda: Model("x", J, section=(0,)),
    lambda: Model("x", J, section=(y1, 0)),
    lambda: GhostMonomial((True,), ()),
    lambda: GhostMonomial((0.0,), ()),
    lambda: Model("x", J, conn=ConnectionSpec(ch, 1)),
    lambda: Model("x", J, conn2=ConnectionSpec(ch, 3)),
    lambda: Model("x", J, conn="flat-trivial"),
    lambda: lift_jacobi(J, ConnectionSpec(red, 2)),
    lambda: lifting_problem(J, ConnectionSpec(ch, 1)),
    lambda: Model("x", J, section=(one_red, 0)),
    lambda: BrstContraction(ch, 2, (one_red, 0)),
    lambda: ConnectionSpec(ch, 2, vert={(0, 1): one_red}),
    lambda: ConnectionSpec(ch, 2, coef={("phi1", 0, 1): a_other}),
    lambda: GradedFunction(ch, 2, {ONE_MONO: one_red}),
    lambda: GradedFunction(ch, 2, {ONE_MONO: 0.5}),
    lambda: MultiDerivation(ch, 2, {(ONE_MONO, (), 1): a_other}),
    lambda: jacobi_from_words(ch, 2, [((M, d_letter("phi1")), a_other)]),
    lambda: jacobi_from_pair(ch, 2, {("phi1", "phi2"): one_red}, {}),
    lambda: Model("x", "not an operator"),
    lambda: lift_jacobi("not an operator", model.conn),
    lambda: y1 ** True,
    lambda: coisotropy_residual(Section.frame(ch, 2), (0, 0)),
    lambda: BfvData(J, Section.frame(ch, 2)),
    lambda: brst_charge("not an operator", (0, 0)),
    lambda: derived_brackets("not an operator", 1),
    lambda: evaluate("not an operator", [x_mu]),
    lambda: sj_bracket("not an operator", J),
    lambda: derived_brackets(J, 65),
    lambda: derived_brackets(J, 1)[1]([1]),
    lambda: imm_i_nabla("not an operator", model.conn),
    lambda: to_twisted(J, "not a connection"),
    lambda: homotopy_H_nabla(dfun_rank1, model.conn),
    lambda: BfvData("not an operator", J),
    lambda: hamiltonian(3, J),
    lambda: jacobi_bracket(3, x_mu, J),
    lambda: MultiDerivation.from_section(3),
]
for call in calls:
    try:
        print("accepted", call())
    except ValueError as err:
        print("rejected:", err)
"""


@pytest.mark.parametrize("optimize", [False, True])
def test_library_guards_survive_optimize(optimize):
    out = run_python(["-c", BAD_LIBRARY_CALLS], optimize=optimize)
    assert out.returncode == 0, out.stderr
    lines = out.stdout.splitlines()
    assert len(lines) == 107
    assert all(ln.startswith("rejected:") for ln in lines), lines


def test_acceptance_suite_passes_under_optimize():
    out = run_python(["-m", "pytest", "-q", "-p", "no:cacheprovider",
                      os.path.join("tests", "test_acceptance.py")],
                     optimize=True)
    assert out.returncode == 0, out.stdout + out.stderr
    assert " passed" in out.stdout and "failed" not in out.stdout


SMALL = os.path.join(ROOT, "demos", "scenarios", "small_rank1.json")
# variants of the small scenario and the exit codes of cli.COMMANDS on
# each, whether or not asserts run: a malformed one, an expression
# nested far past cli.MAX_DEPTH included, ends in a clean error (exit 1,
# no traceback) on every command; a pair that is not
# Jacobi stops every lifting command at the lift (exit 2), and
# intertwine, for want of a connection2, before it (exit 1)
VARIANTS = {
    "biv-self-pair": ("jacobi", {"biv": [["x1", "x1", "1"]]}, [1] * 8),
    "vec-list": ("jacobi", {"vec": [["x2", "x1"]]}, [1] * 8),
    "chart-clash": ("chart", {"coords": ["x1", "x1", "y1"], "fiber": ["y1"]},
                    [1] * 8),
    "not-jacobi": ("jacobi", {"biv": [["x1", "x2", "1"]], "vec": {"y1": "1"}},
                   [2, 2, 2, 2, 2, 2, 1, 2]),
    "deep-expression": ("section", ["(neg " * 3000 + "x1" + ")" * 3000],
                        [1] * 8),
}
NOT_JACOBI_RESIDUAL = "residual: (2) d_x1 d_x2 d_y1 [mu]\n"

# one interpreter runs every command; errors go to stdout so that the
# order of reports and messages is compared too
EVERY_COMMAND = """
import sys
from jacobi_bfv import cli
sys.stderr = sys.stdout
for command in cli.COMMANDS:
    print("$", command)
    print("exit", cli.main(["--scenario", sys.argv[1], "--command", command]))
"""


@pytest.mark.parametrize("scenario", SCENARIOS + sorted(VARIANTS))
def test_check_command_same_under_optimize(scenario, tmp_path):
    variant = VARIANTS.get(scenario)
    if variant:
        with open(SMALL) as fh:
            doc = json.load(fh)
        key, value, _ = variant
        doc[key] = value
        path = tmp_path / "variant.json"
        path.write_text(json.dumps(doc))
        scenario = str(path)
    plain = run_python(["-c", EVERY_COMMAND, scenario], optimize=False)
    opt = run_python(["-c", EVERY_COMMAND, scenario], optimize=True)
    assert plain.returncode == 0, plain.stderr
    assert (opt.returncode, opt.stdout) == (plain.returncode, plain.stdout)
    codes = [ln for ln in plain.stdout.splitlines() if ln.startswith("exit ")]
    assert len(codes) == len(cli.COMMANDS)
    assert "Traceback" not in plain.stdout
    if variant:
        assert codes == ["exit %d" % code for code in variant[2]]
        assert plain.stdout.count("error: ") == len(cli.COMMANDS)
        assert plain.stdout.count(NOT_JACOBI_RESIDUAL) == \
            variant[2].count(2)


def test_tracer_installs_counts_and_uninstalls():
    # the tracer patches these methods through cls.__dict__, so they
    # must stay defined on their own classes
    methods = [(scalar.ScalarExpr, "__mul__"), (scalar.ScalarExpr, "partial"),
               (scalar.ScalarExpr, "substitute"),
               (ghost.GradedFunction, "ghost_mul"),
               (ghost.GradedFunction, "partial"),
               (contraction.BrstContraction, "homotopy")]
    owners = [m for name, m in sorted(sys.modules.items())
              if name.startswith("jacobi_bfv")]
    owners += [cls for cls, _ in methods] + [Fraction]
    before = [(owner, dict(vars(owner))) for owner in owners]
    model = t5_contact()
    conn = ConnectionSpec(model.chart, model.rank,
                          {(0, 1): scalar.ScalarExpr.sin(model.chart, "phi3")})
    tr = tracing.Tracer()
    tr.install()
    try:
        for cls, attr in methods:
            assert vars(cls)[attr].__wrapped__ is dict(before)[cls][attr]
        tr.active = True
        _, trace = solver.lift_jacobi(model.J, conn)
        tr.active = False
    finally:
        tr.uninstall()
    assert len(trace) == 1
    assert tr.counts["multideriv.sj_bracket.calls"] > 0
    assert tr.counts["scalar.partial.calls"] > 0
    for owner, attrs in before:
        now = vars(owner)
        assert set(now) == set(attrs), owner
        assert all(now[k] is v for k, v in attrs.items()), owner


def test_no_command_reaches_the_hpl_series(monkeypatch, capsys):
    # the reduced side is one step, proj d_BFV imm, so no command needs
    # the perturbation series: with hpl_deform raising wherever an
    # engine module holds it, every command on every shipped scenario
    # exits and prints as it does without
    def every_command():
        out = []
        for scenario in SCENARIOS:
            for command in cli.COMMANDS:
                code = cli.main(["--scenario", scenario, "--command", command])
                out.append((scenario, command, code, capsys.readouterr()))
        return out

    plain = every_command()

    def series(*args):
        raise RuntimeError("hpl_deform reached")

    held = [name for name, mod in sorted(sys.modules.items())
            if name.startswith("jacobi_bfv")
            and vars(mod).get("hpl_deform") is contraction.hpl_deform]
    assert "jacobi_bfv.contraction" in held
    for name in held:
        monkeypatch.setattr(sys.modules[name], "hpl_deform", series)
    assert every_command() == plain


def test_src_has_no_assert():
    # python -O strips assert statements, so none may guard the engine
    pkg = os.path.join(ROOT, "src", "jacobi_bfv")
    found = []
    for fname in sorted(os.listdir(pkg)):
        if fname.endswith(".py"):
            with open(os.path.join(pkg, fname)) as fh:
                tree = ast.parse(fh.read())
            found += ["%s:%d" % (fname, node.lineno) for node in ast.walk(tree)
                      if isinstance(node, ast.Assert)]
    assert found == []


MUTABLE_CALLS = {"list", "dict", "set", "bytearray", "defaultdict",
                 "Counter", "OrderedDict", "deque"}
CACHES = {"cache", "lru_cache", "cached_property"}


def test_src_has_no_shared_mutable_state():
    # memo state lives for one call or one run, in a local dict: no
    # module or class body holds a mutable container (__all__ aside),
    # and nothing caches through functools
    pkg = os.path.join(ROOT, "src", "jacobi_bfv")
    found = []
    for fname in sorted(os.listdir(pkg)):
        if not fname.endswith(".py"):
            continue
        with open(os.path.join(pkg, fname)) as fh:
            tree = ast.parse(fh.read())
        bodies = [tree.body] + [node.body for node in ast.walk(tree)
                                if isinstance(node, ast.ClassDef)]
        for stmt in (stmt for body in bodies for stmt in body):
            if not isinstance(stmt, (ast.Assign, ast.AnnAssign)) or \
                    stmt.value is None:
                continue
            targets = stmt.targets if isinstance(stmt, ast.Assign) \
                else [stmt.target]
            if [ast.unparse(t) for t in targets] == ["__all__"]:
                continue
            val = stmt.value
            if isinstance(val, (ast.List, ast.Dict, ast.Set, ast.ListComp,
                                ast.DictComp, ast.SetComp)) or \
                    (isinstance(val, ast.Call) and
                     ast.unparse(val.func).split(".")[-1] in MUTABLE_CALLS):
                found.append("%s:%d" % (fname, stmt.lineno))
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "functools":
                found += ["%s:%d %s" % (fname, node.lineno, alias.name)
                          for alias in node.names if alias.name in CACHES]
            elif isinstance(node, ast.Attribute) and node.attr in CACHES and \
                    ast.unparse(node.value) == "functools":
                found.append("%s:%d %s" % (fname, node.lineno, node.attr))
    assert found == []


TERM_MUTATORS = {"pop", "update", "clear", "setdefault", "popitem"}


def test_src_never_mutates_a_terms_dict():
    # coefficients are shared between results (scale(1) returns its
    # element), so outside a constructor no module writes or deletes
    # through <expr>.terms[...] or calls a mutating method of
    # <expr>.terms; local dicts such as _exact_terms' argument may change
    pkg = os.path.join(ROOT, "src", "jacobi_bfv")
    found = []

    def visit(node, where, in_init):
        if isinstance(node, ast.FunctionDef):
            in_init = node.name == "__init__"
        if not in_init:
            if isinstance(node, ast.Subscript) and \
                    isinstance(node.ctx, (ast.Store, ast.Del)) and \
                    isinstance(node.value, ast.Attribute) and \
                    node.value.attr == "terms":
                found.append("%s:%d" % (where, node.lineno))
            elif isinstance(node, ast.Call) and \
                    isinstance(node.func, ast.Attribute) and \
                    node.func.attr in TERM_MUTATORS and \
                    isinstance(node.func.value, ast.Attribute) and \
                    node.func.value.attr == "terms":
                found.append("%s:%d" % (where, node.lineno))
        for child in ast.iter_child_nodes(node):
            visit(child, where, in_init)

    for fname in sorted(os.listdir(pkg)):
        if fname.endswith(".py"):
            with open(os.path.join(pkg, fname)) as fh:
                visit(ast.parse(fh.read()), fname, False)
    assert found == []


def test_src_has_no_unused_imports():
    # __init__.py imports only to re-export
    pkg = os.path.join(ROOT, "src", "jacobi_bfv")
    unused = []
    for fname in sorted(os.listdir(pkg)):
        if not fname.endswith(".py") or fname == "__init__.py":
            continue
        with open(os.path.join(pkg, fname)) as fh:
            tree = ast.parse(fh.read())
        imported = {}
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    name = alias.asname or alias.name.split(".")[0]
                    imported[name] = node.lineno
        used = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name)}
        unused += ["%s:%d %s" % (fname, line, name)
                   for name, line in sorted(imported.items())
                   if name not in used]
    assert unused == []


def _ring_private():
    "Every module-level name of scalar.py that starts with an underscore."
    with open(os.path.join(ROOT, "src", "jacobi_bfv", "scalar.py")) as fh:
        tree = ast.parse(fh.read())
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) \
                else [node.target]
            names.update(n.id for t in targets for n in ast.walk(t)
                         if isinstance(n, ast.Name))
    return {nm for nm in names if nm.startswith("_")}


RING_PRIVATE = _ring_private()


def test_only_scalar_knows_the_term_format():
    # the ring's term format lives in scalar.py: no other engine module
    # wraps raw term dicts (ScalarExpr._new) or names the ring's private
    # helpers (every module-level _name of scalar.py), whether imported
    # or reached as attributes
    assert {"_exact", "_exact_terms", "_reduce_terms", "_over_lcm",
            "_key_mul"} <= RING_PRIVATE
    pkg = os.path.join(ROOT, "src", "jacobi_bfv")
    found = []
    for fname in sorted(os.listdir(pkg)):
        if not fname.endswith(".py") or fname == "scalar.py":
            continue
        with open(os.path.join(pkg, fname)) as fh:
            tree = ast.parse(fh.read())
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.Name):
                names = [node.id]
            elif isinstance(node, ast.Attribute):
                names = [node.attr]
                if node.attr == "_new" and \
                        ast.unparse(node.value).endswith("ScalarExpr"):
                    names = ["ScalarExpr._new"]
            else:
                continue
            found += ["%s:%d %s" % (fname, node.lineno, name)
                      for name in names
                      if name in RING_PRIVATE or name == "ScalarExpr._new"]
    assert found == []


FACTOR_ARG = {"add_product": 4, "mul_terms": 3}


def _flag_factors(tree):
    """(line, call) of each add_product or mul_terms call whose factor is
    a bool constant, a comparison or a boolean operation, and the number
    of such calls seen."""
    found, calls = [], 0
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        name = getattr(node.func, "id", getattr(node.func, "attr", None))
        if name not in FACTOR_ARG:
            continue
        calls += 1
        pos = FACTOR_ARG[name]
        for arg in node.args[pos:pos + 1] + [
                kw.value for kw in node.keywords if kw.arg == "factor"]:
            if isinstance(arg, (ast.Compare, ast.BoolOp)) or \
                    isinstance(arg, ast.UnaryOp) and \
                    isinstance(arg.op, ast.Not) or \
                    isinstance(arg, ast.Constant) and \
                    isinstance(arg.value, bool):
                found.append((node.lineno, ast.unparse(node)))
    return found, calls


def test_product_factors_are_ints():
    # add_product and mul_terms take a nonzero int factor: a flag passed
    # there (sign < 0, q == -1, True) would silently become the factor 1
    # or 0, and a factor 0 raises KeyError partway through a sum
    bad = ("add_product(s, k, a, b, sign < 0)\n"
           "mul_terms(o, a, b, q == -1)\n"
           "scalar.add_product(s, k, a, b, factor=True)\n"
           "mul_terms(o, a, b, not q)\n"
           "add_product(s, k, a, b, -sign)\n")
    assert [line for line, _ in _flag_factors(ast.parse(bad))[0]] == \
        [1, 2, 3, 4]
    pkg = os.path.join(ROOT, "src", "jacobi_bfv")
    found, calls = [], 0
    for fname in sorted(os.listdir(pkg)):
        if fname.endswith(".py"):
            with open(os.path.join(pkg, fname)) as fh:
                got, n = _flag_factors(ast.parse(fh.read()))
            found += ["%s:%d %s" % (fname, line, call) for line, call in got]
            calls += n
    assert calls >= 6 and found == []


def _operator_checks(tree, home):
    """Line of each isinstance(..., MultiDerivation) call in tree, outside
    the body of check_operator when home is true."""
    allowed = {id(n) for f in ast.walk(tree) if home and
               isinstance(f, ast.FunctionDef) and f.name == "check_operator"
               for n in ast.walk(f)}
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and id(node) not in allowed and \
                getattr(node.func, "id", None) == "isinstance" and \
                "MultiDerivation" in {getattr(n, "id", getattr(n, "attr", None))
                                      for n in ast.walk(node.args[-1])}:
            found.append(node.lineno)
    return sorted(found)


def test_only_the_operator_rule_checks_for_an_operator():
    # multideriv.check_operator is the one home of the rule that an
    # operator is a MultiDerivation, and no other code in src/ tests it
    bad = ("isinstance(J, MultiDerivation)\n"
           "def check_operator(J):\n"
           "    return isinstance(J, MultiDerivation)\n"
           "isinstance(D, (Section, multideriv.MultiDerivation))\n")
    assert _operator_checks(ast.parse(bad), home=True) == [1, 4]
    assert _operator_checks(ast.parse(bad), home=False) == [1, 3, 4]
    pkg = os.path.join(ROOT, "src", "jacobi_bfv")
    found, homes = [], []
    for fname in sorted(os.listdir(pkg)):
        if not fname.endswith(".py"):
            continue
        with open(os.path.join(pkg, fname)) as fh:
            tree = ast.parse(fh.read())
        home = fname == "multideriv.py"
        found += ["%s:%d" % (fname, line)
                  for line in _operator_checks(tree, home)]
        homes += [fname for node in ast.walk(tree)
                  if isinstance(node, ast.FunctionDef)
                  and node.name == "check_operator"]
    assert found == [] and homes == ["multideriv.py"]


def test_src_has_no_test_only_code():
    # every function and method of the engine is named somewhere in
    # src/, demos/ or perfbench/ besides its own def; code that only the
    # tests call belongs in tests/oracles.py
    pkg = os.path.join(ROOT, "src", "jacobi_bfv")
    defined, named = {}, set()
    for top in ("src", "demos", "perfbench"):
        for dirpath, _, files in os.walk(os.path.join(ROOT, top)):
            for fname in sorted(files):
                if not fname.endswith(".py"):
                    continue
                path = os.path.join(dirpath, fname)
                with open(path) as fh:
                    tree = ast.parse(fh.read())
                for node in ast.walk(tree):
                    if isinstance(node, ast.Name):
                        named.add(node.id)
                    elif isinstance(node, ast.Attribute):
                        named.add(node.attr)
                    elif isinstance(node, ast.FunctionDef) and \
                            dirpath == pkg and \
                            not (node.name.startswith("__") and
                                 node.name.endswith("__")):
                        defined.setdefault(node.name, "%s:%d" % (
                            fname, node.lineno))
    unused = sorted("%s %s" % (where, name)
                    for name, where in defined.items() if name not in named)
    assert unused == []


def _names(tree):
    "Every name, attribute and imported name in tree."
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.alias):
            out.add(node.asname or node.name)
    return out


def _dead_oracles(oracles, tests):
    """Top-level defs of the oracles tree that no test tree names, either
    directly or through the body of another def that a test reaches."""
    defs = {node.name: node for node in oracles.body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
    live = set().union(*map(_names, tests)) & set(defs)
    todo = list(live)
    while todo:
        for name in _names(defs[todo.pop()]) & set(defs) - live:
            live.add(name)
            todo.append(name)
    return sorted(set(defs) - live)


def test_oracles_stay_live():
    # every top-level def of tests/oracles.py is reached from a test
    # module, so that an oracle the engine outgrew (md_mul among them)
    # does not linger as dead code
    bad = ast.parse("def a():\n    return b()\n"
                    "def b():\n    return 1\n"
                    "def c():\n    return d()\n"
                    "def d():\n    return 2\n"
                    "class E:\n    pass\n")
    assert _dead_oracles(bad, [ast.parse("from oracles import a")]) == \
        ["E", "c", "d"]
    tests_dir = os.path.join(ROOT, "tests")
    trees = []
    for fname in sorted(os.listdir(tests_dir)):
        if fname.endswith(".py"):
            with open(os.path.join(tests_dir, fname)) as fh:
                trees.append((fname, ast.parse(fh.read())))
    oracles = dict(trees).pop("oracles.py")
    assert len([node for node in oracles.body
                if isinstance(node, ast.FunctionDef)]) >= 40
    assert _dead_oracles(oracles, [t for f, t in trees
                                   if f != "oracles.py"]) == []


DEMOS = sorted(f[:-3] for f in os.listdir(os.path.join(ROOT, "demos"))
               if f.endswith(".py"))


@pytest.mark.parametrize("demo", DEMOS)
def test_demo_output_is_pinned(demo):
    out = run_python([os.path.join("demos", demo + ".py")], optimize=False)
    assert out.returncode == 0, out.stderr
    with open(os.path.join(ROOT, "tests", "golden", demo + ".out")) as fh:
        assert out.stdout == fh.read()
