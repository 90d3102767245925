"""A Jacobi pair on the five-torus times a rank-2 fiber, and what its
bracket does to a few sections.

Run from the repository root after an editable install:

    python3 demos/01_jacobi_pairs.py
"""

from jacobi_bfv import (ScalarExpr, Section, jacobi_from_pair, jacobi_bracket,
                        is_jacobi, lift_jacobi, NotJacobiError, t5_contact)

model = t5_contact()
ch, rank, J = model.chart, model.rank, model.J

print("chart:", ", ".join(ch.coords))
print("structure operator J:")
print(" ", J)
print("is_jacobi:", is_jacobi(J))
print()

# bracket a few scalar sections of the trivialized line bundle
mu = Section.frame(ch, rank)


def scal(e):
    return Section(mu.fun.scale(e))


y1 = ScalarExpr.coord(ch, "y1")
phi1 = ScalarExpr.coord(ch, "phi1")
s4 = ScalarExpr.sin(ch, "phi4")

pairs = [
    ("y1", "phi1", scal(y1), scal(phi1)),
    ("y1", "sin(phi4)", scal(y1), scal(s4)),
    ("1", "sin(phi4)", mu, scal(s4)),
    ("1", "1", mu, mu),
]
for na, nb, a, b in pairs:
    print("{%s, %s} = %s" % (na, nb, jacobi_bracket(a, b, J)))
print()
print("the {1, -} column is the vector part of the pair, the Reeb")
print("direction sin(phi3) d_phi4 + cos(phi3) d_phi5 acting on functions")
print()

# a pair that fails the compatibility condition still builds, but the
# lift rejects it with its bracket residual [[J, J]]
broken = jacobi_from_pair(ch, rank, {
    ("phi3", "phi4"): ScalarExpr.cos(ch, "phi3") + y1,
    ("phi3", "phi5"): -ScalarExpr.sin(ch, "phi3"),
    ("phi4", "y1"): y1 * ScalarExpr.sin(ch, "phi3")}, {})
try:
    lift_jacobi(broken, model.conn)
except NotJacobiError as exc:
    print("perturbed pair rejected; bracket residual starts with:")
    first = str(exc.residual).split(" + ")[0]
    print(" ", first, "+ ...")
