"""Assemble the differential for the zero section, push it down to the
reduced side, and read off the start of the homotopy bracket family.
The reduced differential is one step of the perturbation lemma; the
lemma itself, hpl_deform, transfers a lift back to the plain bracket.

    python3 demos/04_reduction_linf.py
"""

from jacobi_bfv import (ScalarExpr, Section, MultiDerivation, bfv_assemble,
                        reduced_differential, derived_brackets, lift_jacobi,
                        build_G, sj_bracket, imm_i_nabla, proj_p,
                        homotopy_H_nabla, hpl_deform, t5_contact)
from jacobi_bfv.ghost import GradedFunction

model = t5_contact()
ch, rank = model.chart, model.rank

bfv = bfv_assemble(model.J, model.conn)
print("differential as an operator:")
print(" ", bfv.op)
print()

mu = Section.frame(ch, rank)
probes = [("mu", mu)]
for nm in ("phi1", "phi3", "phi4", "y1"):
    probes.append((nm + " mu",
                   Section(mu.fun.scale(ScalarExpr.coord(ch, nm)))))
probes.append(("xi*_1 mu",
               Section(GradedFunction.antighost(ch, rank, 0)
                       .ghost_mul(mu.fun))))
print("action on a few sections:")
for nm, sec in probes:
    print("  d(%s) = %s" % (nm, bfv.dif(sec)))
print()

red = reduced_differential(bfv)
redc = ch.reduced()
mur = Section.frame(redc, rank)
print("transferred differential on the reduced chart (%s):"
      % ", ".join(redc.coords))
for nm in redc.coords:
    sec = Section(mur.fun.scale(ScalarExpr.coord(redc, nm)))
    print("  d'(%s mu) = %s" % (nm, red(sec)))
print("functions of phi3, phi4, phi5 alone are the degree-0 cocycles;")
print("they are the functions on the quotient of the zero section")
print()

# the perturbation lemma on the lifting side: perturbing [[G, .]] by
# the rest of a lift transfers it back to the plain bracket [[J, .]]
conn2 = model.conn2
Jhat2, _ = lift_jacobi(model.J, conn2)
hpl = hpl_deform(lambda X: imm_i_nabla(X, conn2), proj_p,
                 lambda X: homotopy_H_nabla(X, conn2),
                 lambda X: sj_bracket(Jhat2 - build_G(ch, rank), X))
print("perturbation lemma on the lifting side, along the second "
      "connection:")
coord_probes = {nm: MultiDerivation.from_section(
    Section(mu.fun.scale(ScalarExpr.coord(ch, nm)))) for nm in ch.coords}
for nm in ("phi1", "phi4", "y1"):
    print("  d'(%s mu) = %s" % (nm, hpl.dif(coord_probes[nm])))
print("equals [[J, P]] on every coordinate probe P:", all(
    hpl.dif(P) == sj_bracket(model.J, P) for P in coord_probes.values()))
print()

mk = derived_brackets(bfv.Jhat, 3)
a = Section(mur.fun.scale(ScalarExpr.coord(redc, "phi4")))
b = Section(mur.fun.scale(ScalarExpr.coord(redc, "phi5")))
g1 = Section(GradedFunction.ghost(redc, rank, 0))
print("first three derived brackets on samples:")
print("  m1(phi4 mu) =", mk[1](a), " (equals d')")
print("  m2(phi4 mu, phi5 mu) =", mk[2](a, b))
print("  m2(phi4 mu, xi^1) =", mk[2](a, g1))
print("  m3(mu, phi4 mu, phi5 mu) =", mk[3](mur, a, b))
print()
print("m2 restricted to degree zero is the bracket of the reduced")
print("structure; the higher corrections vanish for this flat model")
