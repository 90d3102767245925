"""Lifting the structure to the ghost algebra, with and without a flat
connection, and matching the two lifts by a gauge transformation.

    python3 demos/02_lifting.py
"""

from jacobi_bfv import (ScalarExpr, ConnectionSpec, lift_jacobi,
                        gauge_intertwine, t5_contact)
from jacobi_bfv.multideriv import sj_bracket
from jacobi_bfv.solver import lifting_problem

model = t5_contact()
ch, rank, J = model.chart, model.rank, model.J

Q0, trace = lift_jacobi(J, model.conn)
print("flat-trivial connection:")
print("  lift =", Q0)
print("  corrections needed:", len(trace))
print("  self-bracket vanishes:", sj_bracket(Q0, Q0).is_zero())
print()

conn = ConnectionSpec(ch, rank, vert={(0, 1): ScalarExpr.sin(ch, "phi3")})
Q1, trace = lift_jacobi(J, conn)
print("connection with a vertical twist sin(phi3) between the frames:")
print("  corrections needed:", len(trace))
for rec in trace:
    print("  step %d at filtration level %d" % (rec["step"], rec["level"]))
    print("    residual    %s" % rec["residual"])
    print("    correction  %s" % rec["correction"])
print("  self-bracket vanishes:", sj_bracket(Q1, Q1).is_zero())
print()

# both lifts present the same structure; an inner automorphism of the
# big bracket carries one onto the other
prob = lifting_problem(J, model.conn)
phi = gauge_intertwine(Q0, Q1, prob)
print("gauge transformation with", len(phi.generators), "generator(s):")
for R in phi.generators:
    print("  exp(ad_R) for R =", R)
print("phi(Q0) == Q1:", phi(Q0) == Q1)
