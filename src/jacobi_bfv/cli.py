"""Command line front end.

Loads a scenario into a models.Model, either the builtin or a small
JSON file with prefix-notation expressions (a file sets a chart, a
bracket pair and whatever else it overrides of the Model defaults),
runs one of the engine commands against it and prints a deterministic
report.  The parser reads only the JSON (types, shapes, keys, numbers
and expressions); the library types it builds check every other rule.

Exit codes: 0 on success, 2 on a ResidualError (an obstruction or a
nonzero residual blocks the construction), 1 on any other ValueError.
"""

import argparse
import json
import sys
from fractions import Fraction

from .scalar import Chart, ScalarExpr
from .ghost import GhostMonomial, GradedFunction, Section
from .multideriv import M, d_letter, sj_bracket, jacobi_from_words
from .contraction import ResidualError, ConnectionSpec, proj_p
from .solver import (ObstructionError, obstruction_solve, lift_jacobi,
                     lifting_problem, brst_problem, brst_charge, _check_count,
                     omega_section, coisotropy_residual, mc_check, BfvData,
                     reduced_differential, derived_brackets, v_immersion,
                     v_projection, gauge_intertwine, exp_ad)
from .models import Model, t5_contact

SCHEMA = "bfv-scenario/1"
COMMANDS = ("lift", "brst", "bfv", "residual", "reduce", "linf",
            "intertwine", "check")
# (^ a n) multiplies out n factors; recorded scenarios use n <= 2
MAX_EXPONENT = 32
# parentheses nest at most this deep, so parsing recurses far less than
# Python allows; recorded scenarios nest at most 3 deep
MAX_DEPTH = 32
# every product the parser forms, each (* ...) factor and each step of
# (^ a n), multiplies at most this many term pairs, so nesting cannot
# multiply degrees without bound; recorded scenarios need at most 16
MAX_TERM_PAIRS = 1024
# every coefficient a parse-time product forms has a numerator and a
# denominator of at most this many bits, so a tower of powers of a
# number stops at the first step over it; recorded scenarios need at
# most 5
MAX_COEFF_BITS = 256


class ScenarioError(ValueError):
    "Malformed scenario file or expression."


# -- expression syntax -----------------------------------------------

def _tokenize(src):
    out = src.replace("(", " ( ").replace(")", " ) ").split()
    if not out:
        raise ScenarioError("empty expression")
    return out


def _read(tokens, pos, depth=0):
    tok = tokens[pos]
    if tok == "(":
        if depth == MAX_DEPTH:
            raise ScenarioError("expression nests deeper than %d levels"
                                % MAX_DEPTH)
        items = []
        pos += 1
        while pos < len(tokens) and tokens[pos] != ")":
            node, pos = _read(tokens, pos, depth + 1)
            items.append(node)
        if pos >= len(tokens):
            raise ScenarioError("unbalanced parentheses")
        return items, pos + 1
    if tok == ")":
        raise ScenarioError("unbalanced parentheses")
    return tok, pos + 1


def _number(tok):
    try:
        if "/" in tok:
            num, den = tok.split("/", 1)
            return Fraction(int(num), int(den))
        return Fraction(int(tok))
    except (ValueError, ZeroDivisionError):
        return None


def _product(a, b):
    if len(a.terms) * len(b.terms) > MAX_TERM_PAIRS:
        raise ScenarioError("a product of %d by %d terms exceeds the bound "
                            "of %d term pairs" % (len(a.terms), len(b.terms),
                                                  MAX_TERM_PAIRS))
    out = a * b
    for c in out.terms.values():
        if max(c.numerator.bit_length(),
               c.denominator.bit_length()) > MAX_COEFF_BITS:
            raise ScenarioError("a product has a coefficient of more than "
                                "%d bits" % MAX_COEFF_BITS)
    return out


def _build(node, chart):
    if isinstance(node, str):
        q = _number(node)
        if q is not None:
            return ScalarExpr.number(chart, q)
        if node in chart._pos:
            return ScalarExpr.coord(chart, node)
        if node in chart.funcs:
            return ScalarExpr.func(chart, node)
        raise ScenarioError("unknown symbol %r" % node)
    if not node or isinstance(node[0], list):
        raise ScenarioError("operator expected in %r" % (node,))
    op, args = node[0], node[1:]
    if op in ("sin", "cos"):
        if len(args) != 1 or not isinstance(args[0], str):
            raise ScenarioError("%s expects one coordinate name" % op)
        if args[0] not in chart.angular:
            raise ScenarioError("%s of a non-angular coordinate %r"
                                % (op, args[0]))
        return getattr(ScalarExpr, op)(chart, args[0])
    if op == "neg":
        if len(args) != 1:
            raise ScenarioError("neg expects one argument")
        return -_build(args[0], chart)
    if op == "+":
        out = ScalarExpr.zero(chart)
        for a in args:
            out = out + _build(a, chart)
        return out
    if op == "*":
        out = ScalarExpr.one(chart)
        for a in args:
            out = _product(out, _build(a, chart))
        return out
    if op == "^":
        if len(args) != 2 or not isinstance(args[1], str):
            raise ScenarioError("^ expects a base and an integer")
        n = _number(args[1])
        if n is None or n.denominator != 1 or not 0 <= n <= MAX_EXPONENT:
            raise ScenarioError("^ exponent must be an integer from 0 to %d"
                                % MAX_EXPONENT)
        base, out = _build(args[0], chart), ScalarExpr.one(chart)
        for _ in range(int(n)):
            out = _product(out, base)
        return out
    raise ScenarioError("unknown operator %r" % op)


def _count(value, what):
    """A nonnegative integer read from JSON or the command line.  A float
    of integral value becomes an int; solver._check_count rejects
    anything else, a bool or a fractional number included, so nothing
    is truncated."""
    if isinstance(value, float) and value.is_integer():
        value = int(value)
    _check_count(value, what)
    return value


def _entries(items, size, what):
    "A JSON list of lists with size items each."
    if not isinstance(items, list) or not all(
            isinstance(it, list) and len(it) == size for it in items):
        raise ScenarioError("%s must be a list of %d-item lists"
                            % (what, size))
    return items


def _name_list(value, what):
    "A JSON list of names, each an identifier the expression syntax reads."
    if not isinstance(value, list) or not all(
            isinstance(v, str) and v.isidentifier() for v in value):
        raise ScenarioError("%s must be a list of names, got %r"
                            % (what, value))
    return value


def _object(obj, key):
    "An optional JSON object: absent or null reads as empty."
    value = obj.get(key)
    if value is None:
        return {}
    if not isinstance(value, dict):
        raise ScenarioError("%s must be an object" % key)
    return value


def _only_keys(obj, known, what):
    "Raise ScenarioError naming every key of obj outside known."
    stray = sorted(set(obj) - known)
    if stray:
        raise ScenarioError("unknown %s keys: %s" % (what, ", ".join(stray)))


def parse_expr(src, chart):
    "Prefix syntax: symbols, rationals, (+ ...), (* ...), (^ x n), (neg x), (sin c), (cos c)."
    if isinstance(src, float) and src.is_integer():
        src = int(src)
    if isinstance(src, int) and not isinstance(src, bool):
        src = str(src)
    elif not isinstance(src, str):
        raise ScenarioError("expression expected (a string or an integer), "
                            "got %r" % (src,))
    tokens = _tokenize(src)
    node, pos = _read(tokens, 0)
    if pos != len(tokens):
        raise ScenarioError("trailing tokens in %r" % src)
    return _build(node, chart)


# -- scenarios -------------------------------------------------------

def _parse_chart(obj):
    if not isinstance(obj, dict):
        raise ScenarioError("chart must be an object")
    _only_keys(obj, {"coords", "angular", "fiber", "funcs"}, "chart")
    try:
        funcs = _object(obj, "funcs")
        _name_list(list(funcs), "function names")
        return Chart(_name_list(obj["coords"], "coords"),
                     angular=_name_list(obj.get("angular", []), "angular"),
                     fiber=_name_list(obj["fiber"], "fiber"),
                     funcs={k: _name_list(v, "funcs %r" % k)
                            for k, v in funcs.items()})
    except (KeyError, ValueError, TypeError) as exc:
        raise ScenarioError("bad chart: %s" % exc)


def _parse_connection(obj, chart, rank):
    if obj == "flat-trivial":
        return ConnectionSpec(chart, rank)
    if not isinstance(obj, dict):
        raise ScenarioError("connection must be \"flat-trivial\" or an object")
    _only_keys(obj, {"vert", "coef"}, "connection")
    what = "connection frame index"
    vert = {(_count(A, what), _count(B, what)): parse_expr(src, chart)
            for A, B, src in _entries(obj.get("vert", []), 3,
                                      "connection vert")}
    coef = {}
    for i, A, B, src in _entries(obj.get("coef", []), 4, "connection coef"):
        # a JSON list or object cannot be a key; ConnectionSpec checks names
        if not isinstance(i, str):
            raise ScenarioError("connection coef coordinates are names, "
                                "got %r" % (i,))
        coef[(i, _count(A, what), _count(B, what))] = parse_expr(src, chart)
    return ConnectionSpec(chart, rank, vert, coef)


def _jacobi_words(jac, chart):
    """The structure operator as (word, coefficient) pairs.  biv entries
    [ci, cj, expr] and vec entries c: expr become the terms words
    ["d:ci", "d:cj"] and ["m", "d:c"] first, so one loop checks that
    every word is two different letters, each "m" or "d:<coord>"."""
    _only_keys(jac, {"biv", "vec", "terms"}, "jacobi")
    if "terms" in jac:
        if "biv" in jac or "vec" in jac:
            raise ScenarioError("jacobi takes either biv/vec or terms, "
                                "not both")
        items = _entries(jac["terms"], 2, "jacobi terms")
    else:
        items = [[["d:" + c if isinstance(c, str) else c for c in (ci, cj)],
                  src] for ci, cj, src in _entries(jac.get("biv", []), 3,
                                                   "jacobi biv")]
        items += [[["m", "d:" + c], src]
                  for c, src in sorted(_object(jac, "vec").items())]
    letters = {"d:" + c: d_letter(c) for c in chart.coords}
    letters["m"] = M
    out = []
    for word, src in items:
        if not isinstance(word, list):
            raise ScenarioError("jacobi terms words must be lists of "
                                "letters, got %r" % (word,))
        for tok in word:
            if not isinstance(tok, str) or tok not in letters:
                raise ScenarioError("bad letter %r in jacobi (not m, or an "
                                    "unknown coordinate)" % (tok,))
        if len(word) != 2:
            raise ScenarioError("jacobi terms words carry two letters, got %r"
                                % (word,))
        if word[0] == word[1]:
            raise ScenarioError("jacobi entry pairs %r with itself"
                                % letters[word[0]][-1])
        out.append(([letters[tok] for tok in word], parse_expr(src, chart)))
    return out


def parse_scenario(source):
    """Builtin name or path of a JSON scenario file.  Raises
    ScenarioError on malformed input; the Jacobi condition is left to
    the lift that every command starts with.  The library types check
    every rule past the JSON reading, and a ValueError raised while the
    model is built becomes a ScenarioError with the same message."""
    if source in (None, "t5-contact"):
        return t5_contact()
    try:
        with open(source) as fh:
            obj = json.load(fh)
    except OSError as exc:
        raise ScenarioError("cannot read scenario: %s" % exc)
    except json.JSONDecodeError as exc:
        raise ScenarioError("scenario is not valid JSON: %s" % exc)
    except RecursionError:
        raise ScenarioError("scenario JSON nests too deeply to read")
    if not isinstance(obj, dict):
        raise ScenarioError("a scenario is a JSON object")
    if obj.get("schema") != SCHEMA:
        raise ScenarioError("unsupported schema %r (expected %r)"
                            % (obj.get("schema"), SCHEMA))
    _only_keys(obj, {"schema", "name", "chart", "rank", "jacobi", "connection",
                     "connection2", "section", "options"}, "scenario")
    chart = _parse_chart(obj.get("chart"))
    words = _jacobi_words(_object(obj, "jacobi"), chart)
    section = obj.get("section")
    if isinstance(section, list):
        section = tuple(parse_expr(src, chart) for src in section)
    name = obj.get("name", source)
    if not isinstance(name, str):
        raise ScenarioError("name must be a string, got %r" % (name,))
    opts = _object(obj, "options")
    _only_keys(opts, {"kmax", "max_iter"}, "options")
    try:
        # Model supplies every default, so only what the file sets is
        # passed; it checks the rank before a connection is built at it
        model = Model(name, jacobi_from_words(chart, obj.get("rank"), words),
                      section=section,
                      **{key: _count(value, "options." + key)
                         for key, value in opts.items()})
        for key, field in (("connection", "conn"), ("connection2", "conn2")):
            if obj.get(key) is not None:
                setattr(model, field,
                        _parse_connection(obj[key], chart, model.rank))
    except ValueError as exc:
        raise ScenarioError(str(exc)) from exc
    return model


# -- reports ---------------------------------------------------------

def _red_str(sec):
    "Reduced-side sections print with the eta naming for odd generators."
    return str(sec).replace("xi^", "eta^")


def _trace_rows(trace):
    return [{"step": rec["step"], "level": rec["level"],
             "residual": str(rec["residual"]),
             "correction": str(rec["correction"])} for rec in trace]


def _generator_probes(chart, rank):
    probes = []
    mu = Section.frame(chart, rank)
    probes.append(("mu", mu))
    for nm in chart.coords:
        probes.append(("%s mu" % nm,
                       mu.scale(ScalarExpr.coord(chart, nm))))
    for A in range(rank):
        probes.append(("xi^%d" % (A + 1),
                       Section(GradedFunction.ghost(chart, rank, A))))
        # mu.fun is 1, so xi*_A mu is the anti-ghost as a section
        probes.append(("xi*_%d mu" % (A + 1),
                       Section(GradedFunction.antighost(chart, rank, A))))
    return probes


def _reduced_probes(chart, rank):
    red = chart.reduced()
    mur = Section.frame(red, rank)
    probes = [("mu", mur)]
    for nm in red.coords:
        probes.append(("%s mu" % nm,
                       mur.scale(ScalarExpr.coord(red, nm))))
    for A in range(rank):
        probes.append(("eta^%d" % (A + 1),
                       Section(GradedFunction.ghost(red, rank, A))))
    return probes


def run(command, spec, trace=False):
    """Execute one command.  Returns (exit_code, report_dict)."""
    if command not in COMMANDS:
        raise ScenarioError("unknown command %r" % command)
    if command == "intertwine" and spec.conn2 is None:
        raise ScenarioError("intertwine needs a second connection "
                            "(connection2)")
    if command == "intertwine" and spec.rank < 2:
        # ad of xi^1..xi^r xi*_1..xi*_r raises the anti-ghost level by r-1
        raise ScenarioError("intertwine needs rank 2 or more, got rank %d"
                            % spec.rank)
    out = {"schema": "bfv-report/1", "scenario": spec.name,
           "command": command}
    code = 0
    Jhat, lift_tr = lift_jacobi(spec.J, spec.conn, spec.max_iter)

    if command == "lift":
        out["J"] = str(spec.J)
        out["Jhat"] = str(Jhat)
        out["corrections"] = len(lift_tr)
        out["mc"] = sj_bracket(Jhat, Jhat).is_zero()
        if trace:
            out["trace"] = _trace_rows(lift_tr)

    elif command == "brst":
        try:
            om, tr = brst_charge(Jhat, spec.section, spec.max_iter)
        except ObstructionError as exc:
            out["obstruction"] = _red_str(exc.obstruction)
            out["residual"] = str(exc.residual)
            return 2, out
        out["omega"] = str(om)
        out["corrections"] = len(tr)
        out["mc"] = mc_check(om, Jhat)[0]
        if trace:
            out["trace"] = _trace_rows(tr)

    elif command == "bfv":
        bfv = BfvData(spec.J, Jhat, spec.max_iter)
        out["Jhat"] = str(bfv.Jhat)
        out["omega"] = str(bfv.omega)
        out["d_bfv"] = str(bfv.op)
        out["generators"] = [[nm, str(bfv.dif(sec))]
                             for nm, sec in
                             _generator_probes(spec.chart, spec.rank)]
        if trace:
            out["trace"] = _trace_rows(lift_tr + bfv.charge_trace)

    elif command == "residual":
        res = coisotropy_residual(Jhat, spec.section)
        out["residual"] = _red_str(res)
        out["coisotropic"] = res.is_zero()
        if not res.is_zero():
            code = 2

    elif command == "reduce":
        red = reduced_differential(BfvData(spec.J, Jhat, spec.max_iter))
        out["generators"] = [[nm, _red_str(red(sec))]
                             for nm, sec in
                             _reduced_probes(spec.chart, spec.rank)]

    elif command == "linf":
        mk = derived_brackets(Jhat, 3)
        probes = _reduced_probes(spec.chart, spec.rank)
        out["m1"] = [[nm, _red_str(mk[1](sec))] for nm, sec in probes]
        if spec.kmax >= 2:
            out["m2"] = [[na, nb, _red_str(mk[2](sa, sb))]
                         for i, (na, sa) in enumerate(probes)
                         for nb, sb in probes[i:]]
        if spec.kmax >= 3:
            scalars = probes[:3]
            out["m3"] = [[scalars[0][0], scalars[1][0], scalars[2][0],
                          _red_str(mk[3](scalars[0][1], scalars[1][1],
                                         scalars[2][1]))]]

    elif command == "intertwine":
        Q1, _ = lift_jacobi(spec.J, spec.conn2, spec.max_iter)
        prob = lifting_problem(spec.J, spec.conn)
        phi = gauge_intertwine(Jhat, Q1, prob, spec.max_iter)
        out["lift_generators"] = [str(R) for R in phi.generators]
        # gauge_intertwine returns only once phi(Jhat) == Q1 (else it
        # raises), so the row needs no replay of its exponentials
        out["lift_intertwined"] = True
        # a second charge, displaced inside the gauge group, and back
        bprob = brst_problem(Jhat, spec.section)
        om0, _ = obstruction_solve(bprob, spec.max_iter)
        # X = xi^1..xi^r xi*_1..xi*_r is already in canonical order
        ang = [c for c in spec.chart.coords if c in spec.chart.angular]
        coef = (ScalarExpr.sin(spec.chart, ang[0]) if ang
                else ScalarExpr.one(spec.chart))
        rng = range(spec.rank)
        gen = GradedFunction(spec.chart, spec.rank,
                             {GhostMonomial(rng, rng): coef})
        om1 = exp_ad(Section(gen), om0, bprob.bracket)
        psi = gauge_intertwine(om0, om1, bprob, spec.max_iter)
        out["charge_generators"] = [str(R) for R in psi.generators]
        out["charge_intertwined"] = True  # as lift_intertwined

    else:  # check
        rows = []

        def row(name, flag):
            rows.append([name, "PASS" if flag else "FAIL"])

        row("jacobi", True)  # else the lift raised NotJacobiError
        row("lift-mc", sj_bracket(Jhat, Jhat).is_zero())
        row("lift-plain-part", proj_p(Jhat) == spec.J)
        try:
            om, _ = brst_charge(Jhat, spec.section, spec.max_iter)
            row("charge-mc", mc_check(om, Jhat)[0])
            row("charge-leading",
                om.pr_bidegree(1, 0) == omega_section(spec.chart, spec.rank,
                                                      spec.section))
        except ObstructionError as exc:
            rows.append(["charge-mc", "FAIL (obstruction %s)"
                         % _red_str(exc.obstruction)])
        bfv = BfvData(spec.J, Jhat, spec.max_iter)
        row("dif-squared", all(
            bfv.dif(bfv.dif(sec)).is_zero()
            for _, sec in _generator_probes(spec.chart, spec.rank)))
        try:
            reduced_differential(bfv)
            row("reduced-match", True)
        except ResidualError:
            row("reduced-match", False)
        probes = _reduced_probes(spec.chart, spec.rank)
        row("v-section-pair", all(
            v_projection(v_immersion(sec, spec.chart)) == sec
            for _, sec in probes))
        mk = derived_brackets(Jhat, 2)
        scalars = [sec for _, sec in probes[:3]]
        row("m2-antisymmetry-degree0", all(
            mk[2](sa, sb) == mk[2](sb, sa).scale(-1)
            for i, sa in enumerate(scalars) for sb in scalars[i:]))
        out["checks"] = rows
        if any(not r[1].startswith("PASS") for r in rows):
            code = 2

    return code, out


def _format_text(out):
    lines = []
    for key, val in out.items():
        if key == "schema":
            continue
        if isinstance(val, list):
            lines.append("%s:" % key)
            for item in val:
                if isinstance(item, dict):
                    lines.append("  step %d (level %s):" %
                                 (item["step"], item["level"]))
                    lines.append("    residual   %s" % item["residual"])
                    lines.append("    correction %s" % item["correction"])
                elif isinstance(item, list):
                    lines.append("  %s = %s" % (" , ".join(item[:-1]),
                                                item[-1]))
                else:
                    lines.append("  %s" % item)
        else:
            lines.append("%s: %s" % (key, val))
    return "\n".join(lines) + "\n"


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="jacobi-bfv",
        description="exact BFV/BRST constructions in a local model")
    parser.add_argument("--scenario", default="t5-contact",
                        help="builtin name or path of a JSON scenario")
    parser.add_argument("--command", default="check", choices=COMMANDS)
    parser.add_argument("--kmax", type=int, default=None)
    parser.add_argument("--max-iter", type=int, default=None)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--format", default="text", choices=("text", "json"))
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code == 0 else 1

    try:
        spec = parse_scenario(args.scenario)
        if args.kmax is not None:
            spec.kmax = _count(args.kmax, "--kmax")
        if args.max_iter is not None:
            spec.max_iter = _count(args.max_iter, "--max-iter")
        code, out = run(args.command, spec, trace=args.trace)
    except ValueError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2 if isinstance(exc, ResidualError) else 1

    if args.format == "json":
        print(json.dumps(out, indent=2, sort_keys=True))
    else:
        sys.stdout.write(_format_text(out))
    return code


if __name__ == "__main__":
    sys.exit(main())
