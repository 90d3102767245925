"""Order-by-order construction of Maurer-Cartan elements, and the
operations built on top of it.

The generic loop lives in obstruction_solve: given contraction data, a
filtration and a candidate Qbar, it corrects Qbar by half the homotopy
of the bracket residual until the residual vanishes.  The residual is
bracketed in full only once, for Qbar; after a correction c it is
updated as R + 2 [[Q, c]] + [[c, c]], which needs the bracket to be
graded symmetric on Maurer-Cartan degree elements (see MCProblem).
The projected residual is the one genuine obstruction; when it is
nonzero the solve stops with an ObstructionError carrying it.

Instantiations: lifting a Jacobi operator along a connection (the
corrections carry ghost/anti-ghost pairs), BRST charges over a lifting
(the corrections carry anti-ghosts), and the gauge automorphisms
intertwining two solutions, realized as composites of exponentials of
inner derivations.

The remaining operations assemble the BFV differential from a charge
and transfer it to the reduced side, where the derived brackets m_k of
an operator live; the transfer is the one step proj d_BFV imm.  m_1 of
the plain operator J is the direct route to the reduced differential,
and the transfer is checked against it on generators.  Project first:
the m_k and the coisotropy residual work only on the terms of an
operator that their projection can see.
"""

from fractions import Fraction

from .scalar import ScalarExpr, add_term
from .ghost import GhostMonomial, GradedFunction, Section, ONE_MONO
from .multideriv import (d_letter, sort_word, MultiDerivation, evaluate,
                         sj_bracket, build_G, jacobi_bracket, hamiltonian,
                         check_operator)
from .contraction import (ResidualError, imm_i_nabla, proj_p,
                          homotopy_H_nabla, BrstContraction,
                          check_connection, check_reduced, check_section)

# the largest k_max of derived_brackets, which builds each m_k up front
MAX_ARITY = 64


def md_antighost_level(D):
    # anti-ghost generators count +1, anti-ghost derivations -1
    if D.is_zero():
        return None
    return min(len(mono.a) - sum(1 for ell in word if ell[0] == "f")
               for (mono, word, fr) in D.terms)


def section_antighost_level(lam):
    if lam.is_zero():
        return None
    return min(len(mono.a) for mono in lam.terms) - 1


class MCProblem:
    """Bracket, candidate, filtration and contraction data for one solve.

    bracket must be bilinear and graded symmetric on the candidates and
    their corrections: bracket(a, b) == bracket(b, a) in the degree of
    the Maurer-Cartan element.  (An antisymmetric bracket would make
    every self-bracket vanish.)  obstruction_solve relies on this to
    update the residual instead of re-bracketing the whole candidate.

    The filtration is decreasing: level gives the minimal filtration
    level of an element (None for zero), and N is the base index, so
    the projection P annihilates everything of level > N."""

    __slots__ = ("bracket", "Qbar", "level", "N", "H", "P")

    def __init__(self, bracket, Qbar, level, N, H, P):
        self.bracket = bracket
        self.Qbar = Qbar
        self.level = level
        self.N = N
        self.H = H
        self.P = P


class ObstructionError(ResidualError):
    """The projected bracket residual does not vanish, so no correction
    can remove it.  obstruction holds the projected part, residual the
    full bracket."""

    def __init__(self, obstruction, residual):
        super().__init__("projected bracket residual does not vanish")
        self.obstruction = obstruction
        self.residual = residual


class NotJacobiError(ResidualError):
    "The lift is obstructed by residual = [[J, J]], printed in the message."

    def __init__(self, residual):
        super().__init__("the pair does not satisfy the Jacobi condition\n"
                         "residual: %s" % residual)
        self.residual = residual


def _check_count(n, what):
    "Raise ValueError unless n is a nonnegative int (a bool is not one)."
    if isinstance(n, bool) or not isinstance(n, int) or n < 0:
        raise ValueError("%s must be a nonnegative integer, got %r"
                         % (what, n))


def obstruction_solve(prob, max_iter=64):
    """Deform prob.Qbar into an exact Maurer-Cartan element.

    The residual R = [[Qbar, Qbar]] is bracketed once.  Each step adds
    the correction c = H(R)/2 to Q and updates the residual by
    bilinearity and the symmetry contract of MCProblem.bracket:

        [[Q + c, Q + c]] = R + 2 [[Q, c]] + [[c, c]].

    Every correction must lie at least at filtration level N + 1 + step;
    a homotopy that breaks this raises ResidualError.

    Returns (Q, trace); the trace records one entry per correction with
    the residual, its filtration level and the correction added.
    Raises ObstructionError when the projected residual is nonzero,
    ResidualError when max_iter corrections leave a nonzero residual, and
    ValueError for a max_iter that is not a nonnegative int.
    """
    _check_count(max_iter, "max_iter")
    R = prob.bracket(prob.Qbar, prob.Qbar)
    if not R.is_zero():
        lev = prob.level(R)
        if lev < prob.N:
            raise ResidualError("bracket residual escapes the filtration "
                                "(level %d < base %d)" % (lev, prob.N))
    Q = prob.Qbar
    trace = []
    while not R.is_zero():
        obs = prob.P(R)
        if not obs.is_zero():
            raise ObstructionError(obs, R)
        step = len(trace)
        if step == max_iter:
            raise ResidualError("no Maurer-Cartan element within %d "
                                "corrections" % max_iter)
        corr = prob.H(R).scale(Fraction(1, 2))
        if corr.is_zero():
            raise ResidualError("nonzero residual with zero correction; "
                                "contraction data is inconsistent")
        lev, need = prob.level(corr), prob.N + 1 + step
        if lev < need:
            raise ResidualError("correction %d sits at filtration level %d, "
                                "below %d; the homotopy does not raise the "
                                "filtration" % (step + 1, lev, need))
        trace.append({"step": step + 1,
                      "residual": R,
                      "level": prob.level(R),
                      "correction": corr})
        R = R + prob.bracket(Q, corr).scale(2) + prob.bracket(corr, corr)
        Q = Q + corr
    return Q, trace


def exp_ad(R, x, bracket):
    """Exponential of the inner derivation [R, -], summed until it dies
    within 64 terms."""
    out = x
    term = x
    for k in range(1, 64):
        term = bracket(R, term).scale(Fraction(1, k))
        if term.is_zero():
            return out
        out = out + term
    raise ResidualError("exponential series did not terminate")


class GaugeAutomorphism:
    """Composite of exponentials of inner derivations, stored as the
    ordered generator list and applied lazily."""

    __slots__ = ("generators", "bracket")

    def __init__(self, generators, bracket):
        self.generators = list(generators)
        self.bracket = bracket

    def __call__(self, x):
        for R in self.generators:
            x = exp_ad(R, x, self.bracket)
        return x


def gauge_intertwine(Q0, Q1, prob, max_iter=64):
    """Automorphism phi with phi(Q0) = Q1, for two Maurer-Cartan
    elements agreeing below the filtration cut, composed of at most
    max_iter exponentials.  An endpoint that is not Maurer-Cartan (each
    is bracketed once, and equal endpoints once in all) or a max_iter
    that is not a nonnegative int raises ValueError."""
    _check_count(max_iter, "max_iter")
    for Q in (Q0,) if Q1 == Q0 else (Q0, Q1):
        if not prob.bracket(Q, Q).is_zero():
            raise ValueError("gauge endpoints must be Maurer-Cartan")
    diff = Q1 - Q0
    if not diff.is_zero() and not prob.P(diff).is_zero():
        raise ValueError("gauge endpoints differ in the projected part")
    gens = []
    cur = Q0
    while not diff.is_zero():
        if len(gens) == max_iter:
            raise ResidualError("no intertwiner within %d exponentials"
                                % max_iter)
        R = prob.H(diff)
        if R.is_zero():
            raise ResidualError("intertwining stalled: homotopy of the "
                                "difference vanishes")
        gens.append(R)
        cur = exp_ad(R, cur, prob.bracket)
        diff = Q1 - cur
    return GaugeAutomorphism(gens, prob.bracket)


# -- lifting ---------------------------------------------------------

def lifting_problem(J, conn):
    """The lift of J along conn as an MCProblem; a J that is not an
    operator or a conn off J's chart or rank raises ValueError."""
    check_connection(J, conn)
    G = build_G(J.chart, J.rank)
    return MCProblem(
        bracket=sj_bracket,
        Qbar=G + imm_i_nabla(J, conn),
        level=md_antighost_level, N=0,
        H=lambda X: homotopy_H_nabla(X, conn),
        P=proj_p)


def lift_jacobi(J, conn, max_iter=64):
    """Lift a Jacobi operator along a connection.  Returns (Jhat, trace).
    The projected first residual is [[J, J]], so an obstruction raises
    NotJacobiError carrying it."""
    try:
        return obstruction_solve(lifting_problem(J, conn), max_iter)
    except ObstructionError as exc:
        raise NotJacobiError(exc.obstruction) from exc


# -- BRST charges ----------------------------------------------------

def omega_section(chart, rank, section):
    """The degree (1,0) candidate  sum_A (y_A - s_A) xi^A mu of a
    section that contraction.check_section accepts."""
    return Section(GradedFunction(chart, rank, {
        GhostMonomial((A,), ()): ScalarExpr.coord(chart, chart.fiber[A]) - s
        for A, s in enumerate(check_section(chart, rank, section))}))


def brst_problem(Jhat, section):
    check_operator(Jhat)
    chart, rank = Jhat.chart, Jhat.rank
    con = BrstContraction(chart, rank, section)
    return MCProblem(
        bracket=lambda a, b: jacobi_bracket(a, b, Jhat),
        Qbar=omega_section(chart, rank, con.section),
        level=section_antighost_level, N=-1,
        H=con.homotopy,
        P=con.proj)


def brst_charge(Jhat, section, max_iter=64):
    """Charge over a lifting with prescribed restriction to the section.
    Returns (Omega, trace); a nonzero projected residual (the section
    fails to be coisotropic) raises ObstructionError."""
    return obstruction_solve(brst_problem(Jhat, section), max_iter)


def coisotropy_residual(Jhat, section):
    """Projected self-bracket of the candidate charge; vanishes exactly
    when the image of the section is coisotropic.

    Project first: of the arity-2 terms of Jhat, only those with no
    anti-ghost and only d letters are evaluated.  The arguments, Qbar =
    sum_A (y_A - s_A) xi^A mu, carry no anti-ghost and no letter makes
    one, so an f letter kills them and an anti-ghost term lands where
    proj drops it.  m and e_A leave a factor y_A - s_A in every term,
    which vanishes on the section, where proj evaluates.  Every other
    term is kept, so evaluate still rejects a wrong arity."""
    prob = brst_problem(Jhat, section)
    Jhat.frame()  # mixed frame flags raise before the pruning drops any
    Jhat = MultiDerivation._new(Jhat.chart, Jhat.rank, {
        (mono, word, fr): c for (mono, word, fr), c in Jhat.terms.items()
        if len(word) != 2 or not mono.a and word[0][0] == word[1][0] == "d"})
    return prob.P(jacobi_bracket(prob.Qbar, prob.Qbar, Jhat))


def mc_check(Om, Jhat):
    "Self-bracket test of a charge.  Returns (flag, residual)."
    residual = jacobi_bracket(Om, Om, Jhat)
    return residual.is_zero(), residual


# -- BFV assembly ----------------------------------------------------

class BfvData:
    """Charge over the zero section and the differential d = [[Jhat, Omega]]
    of one lifting, bundled.  The zero section must be coisotropic."""

    __slots__ = ("chart", "rank", "J", "Jhat", "omega", "charge_trace",
                 "op", "con")

    def __init__(self, J, Jhat, max_iter=64):
        check_operator(J)
        self.chart, self.rank = J.chart, J.rank
        self.J = J
        self.Jhat = Jhat
        self.con = BrstContraction(J.chart, J.rank, (0,) * J.rank)
        self.omega, self.charge_trace = brst_charge(Jhat, self.con.section,
                                                    max_iter)
        self.op = hamiltonian(self.omega, Jhat)

    def dif(self, lam):
        return evaluate(self.op, [lam])


def bfv_assemble(J, conn, max_iter=64):
    "Lift J along conn and assemble the BFV data over the lifting."
    return BfvData(J, lift_jacobi(J, conn, max_iter)[0], max_iter)


# -- reduced side ----------------------------------------------------

def v_immersion(red_sec, chart):
    """Right inverse of the canonical projection: a reduced monomial in
    the odd generators becomes the matching word of fiber derivatives,
    xi^A going to d along the A-th fiber coordinate.  Bringing the word
    to chart order costs the sign of the permutation.  Anything but a
    Section on chart.reduced(), or a section with anti-ghosts, raises
    ValueError."""
    check_reduced(red_sec, chart)
    terms = {}
    for mono, c in red_sec.terms.items():
        sign, word = sort_word(tuple(d_letter(chart.fiber[A])
                                     for A in mono.g), chart)
        terms[(ONE_MONO, word, 1)] = c.with_chart(chart).scale(sign)
    return MultiDerivation(chart, red_sec.rank, terms)


def v_projection(D):
    """Canonical projection onto the reduced side: keep the words made
    of distinct fiber derivatives, rename them to odd generators, and
    restrict coefficients to the zero section.  Sorting the generators
    costs the sign of the permutation (the inverse of v_immersion)."""
    chart, rank = D.chart, D.rank
    red = chart.reduced()
    fibs = {d_letter(f): A for A, f in enumerate(chart.fiber)}
    zero = {f: ScalarExpr.zero(chart) for f in chart.fiber}
    terms = {}
    for (mono, word, fr), c in D.terms.items():
        # a canonical word repeats no d letter
        if mono != ONE_MONO or fr != 1 or any(ell not in fibs for ell in word):
            continue
        gens = [fibs[ell] for ell in word]
        inv = sum(1 for i, A in enumerate(gens) for B in gens[i + 1:] if A > B)
        c = c.substitute(zero).with_chart(red)
        add_term(terms, GhostMonomial(tuple(sorted(gens)), ()),
                 -c if inv % 2 else c)
    return Section(GradedFunction(red, rank, terms))


def _generator_sections(chart, rank):
    red = chart.reduced()
    mur = Section.frame(red, rank)
    out = [mur]
    for nm in red.coords:
        c = ScalarExpr.coord(red, nm)
        out.append(mur.scale(c))
        if nm in red.angular:
            out.append(mur.scale(ScalarExpr.sin(red, nm)))
    for A in range(rank):
        out.append(Section(GradedFunction.ghost(red, rank, A)))
    return out


def reduced_differential(bfv):
    """The differential transferred to the reduced side, the map
    x -> proj (d_BFV (imm x)); a mismatch on a generator with the direct
    route, m_1 of the plain operator J, raises ResidualError.  The map
    answers the generators from the values that cross-check computed.

    The perturbation lemma gives sum_k proj delta (h delta)^k imm, with
    delta = d_BFV - d[s].  The homotopy h adds one anti-ghost and delta
    removes none (d[s] is the part of d_BFV that does), so for k >= 1
    every term carries an anti-ghost, which proj drops.  In the k = 0
    term d[s], made of f letters, vanishes on imm x: no anti-ghost."""
    con = bfv.con
    known = {}  # the generators' values, from the cross-check

    def red(x):
        if isinstance(x, Section) and x in known:
            return known[x]
        return con.proj(bfv.dif(con.imm(x)))

    m1 = derived_brackets(bfv.J, 1)[1]
    for g in _generator_sections(bfv.chart, bfv.rank):
        val = red(g)
        if val != m1(g):
            raise ResidualError("transferred differential disagrees with "
                                "the direct one on %s" % g)
        known[g] = val
    return red


def _within_reach(D, budget):
    """The terms of D that at most budget more brackets with v_immersion
    can carry to v_projection (see derived_brackets): ONE_MONO, frame 1,
    only m and d letters, at most budget of them off the fiber."""
    fibs = {d_letter(f) for f in D.chart.fiber}
    return MultiDerivation._new(D.chart, D.rank, {
        (mono, word, fr): c for (mono, word, fr), c in D.terms.items()
        if fr == 1 and mono == ONE_MONO
        and all(ell[0] in ("m", "d") for ell in word)
        and sum(ell not in fibs for ell in word) <= budget})


def derived_brackets(Jhat, k_max):
    """The multibracket family on the reduced side,

        m_k(a_1, ..., a_k) = v_proj [[...[[Jhat, v_imm a_1], ...], v_imm a_k]].

    The family shares one trie of nested brackets for as long as it
    lives, one dict per level: a node is (X, {argument: node}), and a
    call walks down it, bracketing only past the deepest node already
    known, with one lookup (and one hash) per argument.

    Project first: only the part of each nested bracket that can still
    reach v_projection is bracketed and stored (_within_reach).  A
    bracket with v_imm a (ONE_MONO, frame 1, fiber d letters and a base
    coefficient) keeps an X-term's ghost monomial, frame and e/f letters,
    consumes at most one of its m or base d letters and adds only fiber
    d letters, while v_projection keeps ONE_MONO, frame 1 and all-fiber
    words.  So the root holds the terms of Jhat with ONE_MONO, frame 1
    and only m/d letters, at most k_max of them off the fiber, and a
    node at depth j keeps at most k_max - j such letters, a bound that
    holds for every m_k with k <= k_max.  The values are exactly those
    of the unpruned brackets.

    Returns, for an operator Jhat (check_operator), a dict mapping each
    arity k up to k_max, a nonnegative int at most MAX_ARITY (else
    ValueError), to a callable of k Sections on the reduced chart; any
    other number of arguments raises ValueError, and so does
    check_reduced for any other argument before its lookup."""
    check_operator(Jhat)
    _check_count(k_max, "k_max")
    if k_max > MAX_ARITY:
        raise ValueError("k_max is at most %d, got %d" % (MAX_ARITY, k_max))
    chart = Jhat.chart
    root = (_within_reach(Jhat, k_max), {})

    def make(k):
        def m_k(*args):
            if len(args) != k:
                raise ValueError("m_%d takes %d arguments, got %d"
                                 % (k, k, len(args)))
            X, below = root
            for j, a in enumerate(args, 1):
                check_reduced(a, chart)
                node = below.get(a)
                if node is None:
                    node = below[a] = (_within_reach(
                        sj_bracket(X, v_immersion(a, chart)), k_max - j), {})
                X, below = node
            return v_projection(X)
        return m_k

    return {k: make(k) for k in range(1, k_max + 1)}
