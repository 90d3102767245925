"""Spans and counters around the engine's public layer functions.

The benchmark installs these wrappers from outside; the engine is not
modified.  A wrapped name is replaced in every ``jacobi_bfv`` module
that holds it (``solver``, ``contraction`` and ``cli`` import their own
``sj_bracket``, ``evaluate`` and so on), and methods are replaced on
their class.  ``uninstall`` restores every original, so untimed rounds
run the unmodified engine.

Layer functions record a span each: (id, name, start, end, parent id,
case id).  The scalar and ghost ring operations and Fraction
arithmetic run hundreds of thousands of times per case; they only
accumulate calls and self time, without a span record each.  A
layer's self time is its time minus the time of the wrapped calls it
made.
"""

from collections import Counter, defaultdict
from fractions import Fraction
import json
import sys
import time

FRACTION_OPS = ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__",
                "__rmul__", "__truediv__", "__rtruediv__", "__neg__")

SELF_GROUPS = {
    "scalar.self_s": ("scalar.mul", "scalar.partial", "scalar.substitute"),
    "ghost.self_s": ("ghost.ghost_mul", "ghost.partial"),
}


class _Frame:
    __slots__ = ("child", "sid")

    def __init__(self, sid):
        self.child = 0.0
        self.sid = sid


class Tracer:
    """Span stack, per-name self times and counters of one run.  Self
    times and counts are collected per round (``reset_round``); spans
    accumulate over the whole run."""

    def __init__(self):
        self.stack = []
        self.spans = []
        self.case = None
        self.active = False
        self.patches = []
        self.reset_round()

    def reset_round(self):
        self.self_s = defaultdict(float)
        self.counts = Counter()

    # -- wrappers -----------------------------------------------------

    def timed(self, name, fn, span=True):
        "Wrap fn: count calls, accumulate self time, record a span."
        tr = self
        calls = name + ".calls"

        def wrapper(*args, **kwargs):
            if not tr.active:
                return fn(*args, **kwargs)
            tr.counts[calls] += 1
            stack = tr.stack
            parent = stack[-1] if stack else None
            sid = len(tr.spans) if span else -1
            if span:
                tr.spans.append(None)
            frame = _Frame(sid)
            stack.append(frame)
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                stack.pop()
                dur = t1 - t0
                tr.self_s[name] += dur - frame.child
                if parent is not None:
                    parent.child += dur
                if span:
                    tr.spans[sid] = (sid, name, t0, t1,
                                     parent.sid if parent else None, tr.case)

        wrapper.__wrapped__ = fn
        return wrapper

    def counted(self, name, fn):
        "Wrap fn: count calls only."
        tr = self

        def wrapper(*args, **kwargs):
            if tr.active:
                tr.counts[name] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    # -- installation -------------------------------------------------

    def _set(self, owner, attr, value):
        self.patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def patch_function(self, module, attr, make):
        "Replace the function in every engine module that imports it."
        orig = getattr(module, attr)
        new = make(orig)
        for mod in list(sys.modules.values()):
            if getattr(mod, "__name__", "").startswith("jacobi_bfv") and \
                    mod.__dict__.get(attr) is orig:
                self._set(mod, attr, new)

    def patch_method(self, cls, attr, make):
        self._set(cls, attr, make(cls.__dict__[attr]))

    def uninstall(self):
        while self.patches:
            owner, attr, orig = self.patches.pop()
            setattr(owner, attr, orig)

    def install(self):
        "Wrap every layer function and ring operation the metrics name."
        from jacobi_bfv import scalar, ghost, multideriv, contraction, \
            solver, cli
        t = self
        t.patch_method(scalar.ScalarExpr, "__mul__",
                       lambda f: t.timed("scalar.mul", f, span=False))
        t.patch_method(scalar.ScalarExpr, "partial",
                       lambda f: t.timed("scalar.partial", f, span=False))
        t.patch_method(scalar.ScalarExpr, "substitute",
                       lambda f: t.timed("scalar.substitute", f, span=False))
        for op in FRACTION_OPS:
            t.patch_method(Fraction, op,
                           lambda f: t.counted("scalar.fraction_ops", f))
        t.patch_method(ghost.GradedFunction, "ghost_mul",
                       lambda f: t.timed("ghost.ghost_mul", f, span=False))
        t.patch_method(ghost.GradedFunction, "partial",
                       lambda f: t.timed("ghost.partial", f, span=False))

        t.patch_function(multideriv, "sj_bracket", t._sj_bracket)
        t.patch_function(multideriv, "evaluate",
                         lambda f: t.timed("multideriv.evaluate", f))
        t.patch_function(multideriv, "jacobi_bracket",
                         lambda f: t.timed("multideriv.jacobi_bracket", f))

        t.patch_function(contraction, "homotopy_H_nabla",
                         lambda f: t.timed("contraction.homotopy_H_nabla", f))
        t.patch_method(contraction.BrstContraction, "homotopy",
                       lambda f: t.timed("contraction.brst_homotopy", f))
        t.patch_function(contraction, "hpl_deform",
                         lambda f: t._hpl_deform(f, contraction.HplData))

        t.patch_function(solver, "obstruction_solve", t._obstruction_solve)
        t.patch_function(solver, "lift_jacobi",
                         lambda f: t.timed("solver.lift_jacobi", f))
        t.patch_function(solver, "reduced_differential",
                         lambda f: t.timed("solver.reduced_differential", f))
        t.patch_function(solver, "derived_brackets", t._derived_brackets)
        t.patch_function(solver, "gauge_intertwine",
                         lambda f: t.timed("solver.gauge_intertwine", f))
        # only the solver's own exp_ad: the exponentials of the gauge
        # machinery, not the CLI's one-off displacement of a charge
        t._set(solver, "exp_ad", t.counted(
            "solver.gauge_intertwine.exponentials", solver.exp_ad))

        for attr in ("parse_scenario", "run", "main"):
            t._set(cli, attr, t.timed("cli." + attr, getattr(cli, attr)))

    # -- wrappers that read arguments and results ---------------------

    def _sj_bracket(self, fn):
        tr = self

        def counting(D, E):
            out = fn(D, E)
            tr.counts["multideriv.sj_bracket.term_pairs"] += \
                len(D.terms) * len(E.terms)
            tr.counts["multideriv.sj_bracket.terms_out"] += len(out.terms)
            return out

        return self.timed("multideriv.sj_bracket", counting)

    def _obstruction_solve(self, fn):
        from jacobi_bfv.solver import ObstructionError
        tr = self

        def counting(prob, *args, **kwargs):
            bracket = prob.bracket
            prob.bracket = tr.counted("solver.residual_brackets", bracket)
            try:
                Q, trace = fn(prob, *args, **kwargs)
            except ObstructionError:
                tr.counts["solver.obstructions"] += 1
                raise
            finally:
                prob.bracket = bracket
            tr.counts["solver.corrections"] += len(trace)
            return Q, trace

        return self.timed("solver.obstruction_solve", counting)

    def _hpl_deform(self, fn, HplData):
        tr = self

        def deform(imm, proj, homotopy, delta, *args, **kwargs):
            data = fn(imm, proj,
                      tr.counted("contraction.hpl.applications", homotopy),
                      tr.counted("contraction.hpl.applications", delta),
                      *args, **kwargs)
            return HplData(*(tr.timed("contraction.hpl", getattr(data, k))
                             for k in ("imm", "proj", "homotopy", "dif")))

        return deform

    def _derived_brackets(self, fn):
        tr = self

        def derive(*args, **kwargs):
            return {k: tr.counted("solver.derived_brackets.mk_calls", m)
                    for k, m in fn(*args, **kwargs).items()}

        return derive

    # -- output -------------------------------------------------------

    def round_metrics(self):
        "Counters and self times of the round just run."
        out = dict(self.counts)
        for name, s in self.self_s.items():
            out[name + ".self_s"] = s
        for group, names in SELF_GROUPS.items():
            out[group] = sum(self.self_s.get(n, 0.0) for n in names)
        return out

    def write_spans(self, path):
        with open(path, "w") as fh:
            for rec in self.spans:
                if rec is not None:
                    sid, name, t0, t1, parent, case = rec
                    fh.write(json.dumps({"id": sid, "name": name,
                                         "start": t0, "end": t1,
                                         "parent": parent, "case": case}))
                    fh.write("\n")
