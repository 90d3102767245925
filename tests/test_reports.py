"""Every CLI report must match its recorded SHA-256 digest byte for byte.

The reference digests and the scenario list belong to the benchmark
(perfbench/digests.json, perfbench/workloads.py), which is imported
read-only: the shipped scenarios plus every value variant of each
generated scenario, each run through all commands in-process.
Parsing those scenarios forms no bracket: the lift that every command
starts with decides the Jacobi condition.  A result is its set of terms,
so no report may depend on the order a term dict was filled in.
"""

import json
import os
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "perfbench"))

import workloads  # noqa: E402
from jacobi_bfv import cli, multideriv  # noqa: E402
from jacobi_bfv.ghost import Combination  # noqa: E402
from jacobi_bfv.scalar import ScalarExpr  # noqa: E402


def _scenarios():
    out = [s for s in workloads.cli_scenarios(0) if s[2] is None]
    for params in workloads.CLI_GENERATED:
        for v in range(workloads.CLI_VARIANTS):
            out.append(workloads.generated_scenario(params, v))
    return out


SCENARIOS = _scenarios()

with open(workloads.DIGESTS) as _fh:
    DIGESTS = json.load(_fh)


def test_every_recorded_report_is_enumerated():
    names = {"%s/%s" % (s[0], command)
             for s in SCENARIOS for command in cli.COMMANDS}
    assert names == set(DIGESTS)


def test_parsing_brackets_nothing(tmp_path, monkeypatch):
    calls = []
    bracket = multideriv.sj_bracket

    def counted(D, E):
        calls.append((D, E))
        return bracket(D, E)

    monkeypatch.setattr(multideriv, "sj_bracket", counted)
    for name, path, doc, _ in SCENARIOS:
        if doc is not None:
            path = workloads.write_scenario(str(tmp_path), name, doc)
        cli.parse_scenario(path)
    assert calls == []


@pytest.mark.parametrize("name, path, doc, codes", SCENARIOS,
                         ids=[s[0] for s in SCENARIOS])
def test_reports_match_recorded_digests(tmp_path, name, path, doc, codes):
    if doc is not None:
        path = workloads.write_scenario(str(tmp_path), name, doc)
    wrong = []
    for command in cli.COMMANDS:
        got = workloads.report_digest(workloads.run_cli(cli, path, command))
        want = (codes.get(command, 0), DIGESTS["%s/%s" % (name, command)])
        if got != want:
            wrong.append((command, got, want))
    assert not wrong


def test_reports_do_not_read_term_order(monkeypatch):
    # every ring element and every combination the engine wraps keeps its
    # terms in reverse insertion order, and every report of the shipped
    # scenarios still matches its digest
    def reversing(new):
        def wrapped(cls, *args):
            *head, terms = args
            return new(cls, *head, dict(reversed(terms.items())))
        return classmethod(wrapped)

    monkeypatch.setattr(ScalarExpr, "_new",
                        reversing(ScalarExpr._new.__func__))
    monkeypatch.setattr(Combination, "_new",
                        reversing(Combination._new.__func__))
    shipped = [s for s in SCENARIOS if s[2] is None]
    assert len(shipped) == 3
    wrong = []
    for name, path, _, codes in shipped:
        for command in cli.COMMANDS:
            got = workloads.report_digest(
                workloads.run_cli(cli, path, command))
            want = (codes.get(command, 0), DIGESTS["%s/%s" % (name, command)])
            if got != want:
                wrong.append((name, command))
    assert not wrong
