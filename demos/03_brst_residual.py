"""Charges for a family of sections: the trivial one, a curved one that
still works, one that is genuinely obstructed, and the fully abstract
case where the obstruction becomes a differential equation.

    python3 demos/03_brst_residual.py
"""

from fractions import Fraction

from jacobi_bfv import (Chart, ScalarExpr, ConnectionSpec, lift_jacobi,
                        brst_charge, coisotropy_residual, mc_check,
                        ObstructionError, jacobi_from_pair, t5_contact)

model = t5_contact()
ch, rank = model.chart, model.rank
Jhat, _ = lift_jacobi(model.J, model.conn)


def report(label, section):
    print(label)
    res = coisotropy_residual(Jhat, section)
    print("  residual:", res)
    try:
        om, trace = brst_charge(Jhat, section)
    except ObstructionError as exc:
        print("  charge: obstructed,", exc)
        return
    print("  charge:", om)
    print("  corrections: %d, closed: %s" % (len(trace),
                                             mc_check(om, Jhat)[0]))


zero = ScalarExpr.zero(ch)
report("s = (0, 0)", (zero, zero))
print()
report("s = (1/2, -2)", (ScalarExpr.number(ch, Fraction(1, 2)),
                         ScalarExpr.number(ch, -2)))
print()

# this one is coisotropic but the naive charge misses closure by one
# correction step
report("s = (sin(phi4), 0)", (ScalarExpr.sin(ch, "phi4"), zero))
print()

# and this one fails coisotropy outright
report("s = (sin(phi2), 0)", (ScalarExpr.sin(ch, "phi2"), zero))
print()

# leave the section as a pair of abstract functions of the base and the
# residual becomes the first order condition those functions must solve
ab = Chart(list(ch.coords), angular=sorted(ch.angular), fiber=list(ch.fiber),
           funcs={"f1": tuple(ch.base), "f2": tuple(ch.base)})
s3, c3 = ScalarExpr.sin(ab, "phi3"), ScalarExpr.cos(ab, "phi3")
y1, y2 = ScalarExpr.coord(ab, "y1"), ScalarExpr.coord(ab, "y2")
Jab = jacobi_from_pair(ab, rank, {
    ("phi3", "phi4"): c3, ("phi3", "phi5"): -s3,
    ("phi4", "y1"): y1 * s3, ("phi4", "y2"): y2 * s3,
    ("phi5", "y1"): y1 * c3, ("phi5", "y2"): y2 * c3,
    ("phi1", "y1"): ScalarExpr.number(ab, -1),
    ("phi2", "y2"): ScalarExpr.number(ab, -1)},
    {"phi4": s3, "phi5": c3})
Jab_hat, _ = lift_jacobi(Jab, ConnectionSpec(ab, rank))
res = coisotropy_residual(Jab_hat, (ScalarExpr.func(ab, "f1"),
                                    ScalarExpr.func(ab, "f2")))
print("s = (f1, f2) abstract; f;x denotes the partial of f along x:")
print("  residual:", res)
print("graphs of solutions of this equation are exactly the coisotropic")
print("sections of the model")
