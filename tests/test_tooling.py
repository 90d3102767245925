"""Checks that must hold when Python strips assert statements (-O)."""

import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
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
H, low = prob.H, imm_i_nabla(model.J, model.flat)
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


@pytest.mark.parametrize("scenario", SCENARIOS)
def test_check_command_same_under_optimize(scenario):
    args = ["-m", "jacobi_bfv.cli", "--scenario", scenario,
            "--command", "check"]
    plain = run_python(args, optimize=False)
    opt = run_python(args, optimize=True)
    assert plain.stdout
    assert (opt.returncode, opt.stdout) == (plain.returncode, plain.stdout)
