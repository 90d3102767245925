"""The three benchmark workloads: seeded inputs, the cases of one
round, and the exact checks each case's outcome must pass.

A workload's ``setup(seed, workdir)`` generates its inputs, writes
them as ``bfv-scenario/1`` files, parses them and runs prerequisite
stages; it returns the cases of one round.  A case's ``run`` is the
timed call into the engine.  ``verify`` checks an outcome against the
answer known in advance and exact invariants, and runs once per case
and run; later rounds compare their outcome with the verified one
through ``fingerprint``.

Case shapes (which bivector entries, connection slots and monomials
exist) are fixed per case, so that every seed costs about the same;
the seed draws the rational values, and for the CLI workload picks one
of the recorded value variants of each generated scenario.  The shape
ids below were picked once so that case costs spread from about a
millisecond to under a second on a 2-core x86-64 box.
"""

import contextlib
import hashlib
import io
import json
import os
import random

import gen

# (n, r, curved entries, shape id): lift_jacobi on constant Poisson
# charts; the big cells dominate case_ms.p90.
LIFT_CASES = [
    (2, 1, 1, 0), (2, 1, 1, 2), (2, 2, 1, 0), (2, 2, 2, 2), (3, 1, 2, 1),
    (3, 1, 2, 4), (3, 2, 2, 1), (3, 2, 2, 2), (3, 2, 3, 0), (3, 3, 3, 1),
    (4, 3, 3, 1), (4, 3, 3, 2), (4, 3, 3, 3), (4, 3, 4, 3), (4, 3, 4, 4),
]

# (paired, spectators, r, curved entries, shape id): structures lifted
# during setup; each gets CHARGE_SECTIONS sections, alternating
# coisotropic (even index) and obstructed (odd index).
CHARGE_STRUCTURES = [(4, 2, 3, 3, 4), (3, 2, 3, 4, 5), (3, 3, 3, 3, 0)]
CHARGE_SECTIONS = 15

# (name, paired, spectators, r, coisotropic, curved entries, shape id):
# generated conformal scenarios for the CLI; each seed picks one of
# CLI_VARIANTS recorded value variants per scenario.
CLI_GENERATED = [
    ("conf-a", 2, 1, 2, True, 1, 3),
    ("conf-b", 2, 2, 2, True, 1, 1),
    ("conf-c", 2, 1, 2, False, 1, 6),
    ("conf-d", 2, 1, 2, True, 2, 1),
]
CLI_VARIANTS = 8

# Shipped scenarios and the exit code each command must give: 2 where
# the t5-abstract section is not coisotropic, 1 where a file has no
# connection2 for intertwine.
CLI_SHIPPED = [
    ("t5-contact", "t5-contact", {}),
    ("small-rank1", "small_rank1.json", {"intertwine": 1}),
    ("t5-abstract", "t5_abstract.json",
     {"brst": 2, "residual": 2, "check": 2, "intertwine": 1}),
]
# commands whose exit code follows the coisotropy of the section
SECTION_COMMANDS = ("brst", "residual", "intertwine", "check")

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
DIGESTS = os.path.join(HERE, "digests.json")


class Case:
    "One timed call into the engine, with its exact checks."

    __slots__ = ("cid", "run", "verify", "fingerprint")

    def __init__(self, cid, run, verify, fingerprint):
        self.cid = cid
        self.run = run
        self.verify = verify
        self.fingerprint = fingerprint


def shape_rng(tag, params, sid):
    return random.Random("%s/%s/%d" % (tag, "-".join(map(str, params)), sid))


def write_scenario(workdir, name, doc):
    path = os.path.join(workdir, name + ".json")
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
    return path


# -- lift-curved ------------------------------------------------------

def setup_lift(seed, workdir):
    import jacobi_bfv as jb
    from jacobi_bfv import cli
    vals = random.Random(seed)
    cases = []
    for n, r, curved, sid in LIFT_CASES:
        label = "n%d-r%d-c%d/%d" % (n, r, curved, sid)
        shape = random.Random("lift/%s" % label)
        doc = gen.poisson_lift(shape, vals, n, r, curved)
        spec = cli.parse_scenario(
            write_scenario(workdir, label.replace("/", "-"), doc))
        cases.append(_lift_case("lift:" + label, jb, spec))
    return cases


def _lift_case(cid, jb, spec):
    def run():
        return jb.lift_jacobi(spec.J, spec.conn, spec.max_iter)

    def verify(outcome):
        Jhat, _ = outcome
        if not jb.sj_bracket(Jhat, Jhat).is_zero():
            return "[[Jhat, Jhat]] != 0"
        if jb.proj_p(Jhat) != spec.J:
            return "proj_p(Jhat) != J"
        return None

    return Case(cid, run, verify, lambda out: (out[0], len(out[1])))


# -- charge-sweep -----------------------------------------------------

def setup_charge(seed, workdir):
    import jacobi_bfv as jb
    from jacobi_bfv import cli
    vals = random.Random(seed)
    cases = []
    for params in CHARGE_STRUCTURES:
        st = gen.ChargeStructure(shape_rng("charge", params[:4], params[4]),
                                 vals, *params[:4])
        label = "p%d-s%d-r%d-c%d/%d" % params
        spec = cli.parse_scenario(
            write_scenario(workdir, label.replace("/", "-"), st.doc))
        Jhat, _ = jb.lift_jacobi(spec.J, spec.conn, spec.max_iter)
        for k in range(CHARGE_SECTIONS):
            coisotropic = k % 2 == 0
            src = st.section(shape_rng("charge-section", params, k), vals,
                             coisotropic)
            section = tuple(cli.parse_expr(s, spec.chart) for s in src)
            cases.append(_charge_case("charge:%s/%d" % (label, k), jb, Jhat,
                                      section, coisotropic))
    return cases


def _charge_case(cid, jb, Jhat, section, coisotropic):
    def run():
        res = jb.coisotropy_residual(Jhat, section)
        try:
            om, trace = jb.brst_charge(Jhat, section)
        except jb.ObstructionError as exc:
            return res, "obstruction", exc.obstruction, None
        return res, "charge", om, len(trace)

    def verify(outcome):
        res, kind, value, _ = outcome
        if res.is_zero() != coisotropic:
            return "coisotropy residual contradicts the known verdict"
        if kind != ("charge" if coisotropic else "obstruction"):
            return "got %s, known verdict says otherwise" % kind
        if not coisotropic:
            return None if value == res else \
                "obstruction differs from the coisotropy residual"
        if not jb.mc_check(value, Jhat)[0]:
            return "[[Omega, Omega]] != 0"
        op = jb.sj_bracket(Jhat, jb.MultiDerivation.from_section(value))
        for probe in _probes(jb, Jhat.chart, Jhat.rank):
            if not jb.evaluate(op, [jb.evaluate(op, [probe])]).is_zero():
                return "d_BFV^2 != 0 on a probe"
        return None

    return Case(cid, run, verify, lambda out: out)


def _probes(jb, chart, rank):
    "mu, each coordinate times mu, each ghost, each anti-ghost times mu."
    G = jb.GradedFunction
    mu = G.one(chart, rank)
    out = [mu] + [mu.scale(jb.ScalarExpr.coord(chart, c))
                  for c in chart.coords]
    for A in range(rank):
        out.append(G.ghost(chart, rank, A))
        out.append(G.antighost(chart, rank, A).ghost_mul(mu))
    return [jb.Section(f) for f in out]


# -- cli-scenarios ----------------------------------------------------

def cli_scenarios(seed):
    """(name, path or None, doc or None, expected codes) of one run:
    the shipped scenarios, then one value variant of each generated
    scenario, picked by the seed."""
    pick = random.Random(seed)
    out = [(name, path if path == "t5-contact" else
            os.path.join(ROOT, "demos", "scenarios", path), None, codes)
           for name, path, codes in CLI_SHIPPED]
    for params in CLI_GENERATED:
        out.append(generated_scenario(params, pick.randrange(CLI_VARIANTS)))
    return out


def generated_scenario(params, variant):
    name, paired, spect, rank, coisotropic, curved, sid = params
    full = "%s-v%d" % (name, variant)
    doc = gen.conformal_scenario(
        shape_rng("cli", params[1:6], sid),
        random.Random("cli-values/%s" % full), full,
        paired, spect, rank, coisotropic, curved)
    codes = {} if coisotropic else dict.fromkeys(SECTION_COMMANDS, 2)
    return full, None, doc, codes


def setup_cli(seed, workdir):
    from jacobi_bfv import cli
    with open(DIGESTS) as fh:
        digests = json.load(fh)
    cases = []
    for name, path, doc, codes in cli_scenarios(seed):
        if doc is not None:
            path = write_scenario(workdir, name, doc)
        for command in cli.COMMANDS:
            key = "%s/%s" % (name, command)
            cases.append(_cli_case("cli:" + key, cli, path, command,
                                   codes.get(command, 0), digests.get(key)))
    return cases


def run_cli(cli, path, command):
    "cli.main in-process; returns (exit code, stdout + NUL + stderr)."
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(["--scenario", path, "--command", command])
    return code, out.getvalue() + "\0" + err.getvalue()


def report_digest(outcome):
    "(exit code, SHA-256 of the captured text) of a run_cli outcome."
    return outcome[0], hashlib.sha256(outcome[1].encode()).hexdigest()


def _cli_case(cid, cli, path, command, code, digest):
    def run():
        return run_cli(cli, path, command)

    def verify(outcome):
        got_code, got_digest = report_digest(outcome)
        if got_code != code:
            return "exit code %d, known answer %d" % (got_code, code)
        if digest is None:
            return "no recorded report digest"
        if got_digest != digest:
            return "report digest differs from the recorded one"
        return None

    return Case(cid, run, verify, report_digest)


WORKLOADS = {
    "lift-curved": setup_lift,
    "charge-sweep": setup_charge,
    "cli-scenarios": setup_cli,
}
