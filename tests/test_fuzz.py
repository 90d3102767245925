"""A seeded fuzzer over the bfv-scenario/1 schema.

Mutants of the two shipped scenarios (keys dropped or added, values of
the wrong type, other names, broken or oversized expressions, bounds
out of range) run through every command.  Each one must end as a report
(exit 0 or 2), a ScenarioError (exit 1) or a ResidualError (exit 2):
any other exception is a gap in the parser, which must reject the input
before the engine sees it.  main must give the same exit codes, and so
must a python -O run.
"""

import copy
import json
import os
import random

from jacobi_bfv import cli
from jacobi_bfv.cli import ScenarioError
from jacobi_bfv.contraction import ResidualError
from test_tooling import ROOT, run_python

BASES = [os.path.join(ROOT, "demos", "scenarios", name)
         for name in ("small_rank1.json", "t5_abstract.json")]
MUTANTS_PER_BASE = 120
SEED = 20161

KEYS = ["schema", "name", "chart", "rank", "jacobi", "connection",
        "connection2", "section", "options", "coords", "angular", "fiber",
        "funcs", "biv", "vec", "terms", "vert", "coef", "kmax", "max_iter",
        "zz"]
NAMES = ["x1", "x2", "y1", "y2", "phi3", "phi4", "f1", "zz", "", "m",
         "d:x1", "d:phi3", "(", "x1 x2", "flat-trivial", "sin"]
EXPRESSIONS = ["0", "-1", "1/0", "0/0", "2/4", "1e3", "0.5", "x1", "f1",
               "(sin phi3)", "(sin y1)", "(cos)", "(neg)", "(+)", "(*)", "()",
               ")(", "(x1)", "(+ x1", "(^ x1 33)", "(^ x1 -1)", "(^ x1 1/2)",
               "(^ (+ x1 x2 y1 1) 32)", "(^ 2 300)", "(^ 1/3 200)",
               "(sin f1)", "(* y1 y1 y1)", "(^ y2 2)",
               "(neg " * 40 + "x1" + ")" * 40]
BOUNDS = [-1, 0, 1, 2, 3, 4, 64, 10 ** 12, 1e300, 2.5, 2.0, True, "3",
          None, [], {}]
VALUES = BOUNDS + NAMES[:8] + EXPRESSIONS[:6] + [
    ["x1"], ["y1", "x1"], [[0, 0, "1"]], [["x1", "x2", "1"]],
    [["x1", 0, 0, "1"]], {"x1": "1"}, {"vert": [[0, 0, "1"]]},
    {"coef": [["x2", 0, 0, "x1"]]}, "flat-trivial", ["0", "0"],
    [[["m", "d:x1"], "1"]]]


def _paths(node, path=()):
    "Every path into the document, keys in sorted order."
    yield path
    if isinstance(node, dict):
        for key in sorted(node):
            yield from _paths(node[key], path + (key,))
    elif isinstance(node, list):
        for i, item in enumerate(node):
            yield from _paths(item, path + (i,))


def _at(doc, path):
    for key in path:
        doc = doc[key]
    return doc


def _start(rng, doc):
    """A copy of doc to mutate: half the time with the biv/vec pair in
    the explicit terms form, half the time with a second connection, so
    that intertwine runs."""
    doc = copy.deepcopy(doc)
    if rng.random() < 0.5:
        jac = doc["jacobi"]
        terms = [[["d:" + ci, "d:" + cj], src] for ci, cj, src in jac["biv"]]
        terms += [[["m", "d:" + c], src]
                  for c, src in sorted(jac["vec"].items())]
        doc["jacobi"] = {"terms": terms}
    if rng.random() < 0.5:
        doc["connection2"] = copy.deepcopy(doc.get("connection",
                                                   "flat-trivial"))
    return doc


def _edit_expression(rng, src):
    "A random character-level edit of an expression string."
    pos = rng.randint(0, len(src))
    piece = rng.choice(["(", ")", " ", "(^ ", "(* x1 ", "(neg ", "/", "-",
                        "9" * 12])
    if rng.random() < 0.5:
        return src[:pos] + piece + src[pos:]
    return src[:pos] + src[pos + 1:]


def mutate(rng, doc):
    "Apply one random mutation to doc in place; return its description."
    paths = list(_paths(doc))
    op = rng.choice(["drop", "stray", "retype", "rename", "expr", "bound"])
    if op == "drop":
        path = rng.choice(paths[1:])
        del _at(doc, path[:-1])[path[-1]]
        return "drop %s" % (path,)
    if op == "stray":
        # a value of the pool, or one taken from elsewhere in the scenario
        path = rng.choice([p for p in paths if isinstance(_at(doc, p), dict)])
        key = rng.choice(KEYS)
        value = rng.choice([rng.choice(VALUES), _at(doc, rng.choice(paths))])
        _at(doc, path)[key] = copy.deepcopy(value)
        return "set %s = %r" % (path + (key,), value)
    if op == "bound":
        if not isinstance(doc.get("options"), dict):
            doc["options"] = {}
        path = rng.choice([("rank",), ("options", "kmax"),
                           ("options", "max_iter")] +
                          [p for p in paths if isinstance(_at(doc, p), int)])
        value = rng.choice(BOUNDS)
    else:
        strings = [p for p in paths if isinstance(_at(doc, p), str)]
        # names of this scenario, so that many mutants still parse
        own = sorted({_at(doc, p) for p in strings
                      if _at(doc, p).isidentifier()})
        path = rng.choice(strings)
        if op == "retype":
            path, value = rng.choice(paths[1:]), rng.choice(VALUES)
        elif op == "rename":
            value = rng.choice([rng.choice(NAMES), rng.choice(own)])
        elif rng.random() < 0.3:
            value = rng.choice(EXPRESSIONS)
        elif rng.random() < 0.5:
            value = _edit_expression(rng, _at(doc, path))
        else:
            value = "(%s %s %s)" % (rng.choice(["+", "*", "neg", "^", "sin"]),
                                    rng.choice(own), rng.choice(own + ["2"]))
    _at(doc, path[:-1])[path[-1]] = copy.deepcopy(value)
    return "set %s = %r" % (path, value)


def mutants(tmp_path):
    "(description, path) of every mutant, written to tmp_path."
    rng = random.Random(SEED)
    out = []
    for base in BASES:
        with open(base) as fh:
            original = json.load(fh)
        for i in range(MUTANTS_PER_BASE):
            doc = _start(rng, original)
            what = [mutate(rng, doc) for _ in range(rng.randint(1, 2))]
            path = tmp_path / ("%s-%d.json" % (os.path.basename(base)[:-5], i))
            path.write_text(json.dumps(doc))
            out.append(("%s: %s" % (os.path.basename(base), "; ".join(what)),
                        str(path)))
    return out


def outcomes(path, gaps, what):
    """Exit code of each command through parse_scenario and run.  An
    exception that is neither a ScenarioError nor a ResidualError is
    recorded in gaps."""
    try:
        spec = cli.parse_scenario(path)
    except ScenarioError:
        return [1] * len(cli.COMMANDS)
    except Exception as exc:  # any other type is a gap
        gaps.append("%s: parse raised %r" % (what, exc))
        return [None] * len(cli.COMMANDS)
    codes = []
    for command in cli.COMMANDS:
        try:
            codes.append(cli.run(command, spec)[0])
        except ScenarioError:
            codes.append(1)
        except ResidualError:
            codes.append(2)
        except Exception as exc:  # any other type is a gap
            gaps.append("%s: %s raised %r" % (what, command, exc))
            codes.append(None)
    return codes


MAIN_CODES = """
import contextlib, io, json, sys
from jacobi_bfv import cli
codes = []
for path in sys.argv[1:]:
    for command in cli.COMMANDS:
        with contextlib.redirect_stdout(io.StringIO()), \\
                contextlib.redirect_stderr(io.StringIO()):
            codes.append(cli.main(["--scenario", path, "--command", command]))
print(json.dumps(codes))
"""


def test_scenario_fuzzer(tmp_path, capsys):
    cases = mutants(tmp_path)
    gaps, codes = [], []
    for what, path in cases:
        direct = outcomes(path, gaps, what)
        via_main = [cli.main(["--scenario", path, "--command", command])
                    for command in cli.COMMANDS]
        if via_main != direct:
            gaps.append("%s: main exits %s, run %s" % (what, via_main, direct))
        codes += via_main
    capsys.readouterr()
    assert gaps == []
    assert set(codes) <= {0, 1, 2}
    opt = run_python(["-c", MAIN_CODES] + [path for _, path in cases],
                     optimize=True)
    assert opt.returncode == 0, opt.stderr
    assert json.loads(opt.stdout) == codes
