"""Multiderivations of the section module in word form.

An operator is a sum of terms  c * w1 w2 ... wn  acting on n section
arguments, optionally landing back in sections (frame flag).  The four
letter kinds and their actions on a section c' (coefficient of the
frame) are

    m        strip the frame:            c'
    d_i      coordinate derivative:      dc'/dx^i
    e_A      left derivative along xi^A
    f^A      left derivative along xi*_A

m and d_i are odd (internal degree 1), e_A has degree 0, f^A degree 2.
Words are kept sorted (m, then d in coordinate order, then e, then f);
transposing two odd letters costs a sign and a repeated odd letter
kills the term.  Every stored word is canonical, so the term product
_term_mul merges its two words in one pass; sort_word brings
non-canonical input to that order (the structure builders, the
constructor's check, v_immersion).

The Schouten-Jacobi bracket works on the same (mono, word, fr) keys.
Each letter is a momentum conjugate to a generator: d_i to the
coordinate x^i, m to an even scale variable t, e_A to the ghost xi^A
and f^A to the anti-ghost xi*_A.  The bracket is the odd Poisson
bracket of these pairs.  A term of frame flag fr, arity n and m-count
eps carries t-weight  w = fr - n + eps, the factor its derivative
along t brings down.  Every product of the bracket lands at frame flag
fr1 + fr2 - 1, which is checked to be 0 or 1.  The half bracket
indexes the G-terms' left derivatives by momentum and skips, by integer
masks, every product that would repeat a ghost index or an odd letter,
so each _term_mul it calls survives.  It takes a coordinate derivative
only of a coefficient that can depend on that coordinate
(ScalarExpr.variables), so none that must vanish.  A bracket has one
accumulator: each product of every half bracket sums at its output key
through scalar.add_product as soon as it is found, its signs,
multiplicities and t-weight passed as one int factor, and the sums are
wrapped once at the end (scalar.wrap_sums).
jacobi_from_words builds every structure operator J and brackets
nothing: solver.lift_jacobi decides the Jacobi condition [[J, J]] = 0.
"""

from itertools import product as iproduct

from .scalar import ScalarExpr, add_product, add_term, as_ring, wrap_sums
from .ghost import (Combination, GhostMonomial, GradedFunction, Section,
                    ONE_MONO, check_mono, mono_mul, mul_terms,
                    shifted_parity)


# -- letters ---------------------------------------------------------

M = ("m",)


def d_letter(coord):
    return ("d", coord)


def e_letter(A):
    return ("e", A)


def f_letter(A):
    return ("f", A)


def letter_odd(ell):
    return ell[0] in ("m", "d")


def _letter_key(ell, chart):
    kind = ell[0]
    if kind == "m":
        return (0, 0)
    if kind == "d":
        return (1, chart.axis(ell[1]))
    if kind == "e":
        return (2, ell[1])
    return (3, ell[1])


def sort_word(word, chart):
    """Bring a word to canonical order.  Returns (sign, word); the sign
    is the parity of odd-odd transpositions, and (0, None) signals a
    repeated odd letter."""
    w = list(word)
    sign = 1
    for i in range(1, len(w)):
        j = i
        while j > 0 and _letter_key(w[j - 1], chart) > _letter_key(w[j], chart):
            if letter_odd(w[j - 1]) and letter_odd(w[j]):
                sign = -sign
            w[j - 1], w[j] = w[j], w[j - 1]
            j -= 1
    for x, y in zip(w, w[1:]):
        if x == y and letter_odd(x):
            return 0, None
    return sign, tuple(w)


def word_parity(word):
    return sum(1 for ell in word if letter_odd(ell)) % 2


def _letter_str(ell):
    kind = ell[0]
    if kind == "m":
        return "m"
    if kind == "d":
        return "d_%s" % ell[1]
    if kind == "e":
        return "e_%d" % (ell[1] + 1)
    return "f^%d" % (ell[1] + 1)


# -- the operator class ----------------------------------------------

class MultiDerivation(Combination):
    """Finite sum of word terms; keys are (mono, word, fr), and the
    constructor takes coefficients through scalar.as_ring."""

    __slots__ = ()

    def __init__(self, chart, rank, terms=None):
        self.chart = chart
        self.rank = rank
        self.terms = {}
        for (mono, word, fr), coeff in (terms or {}).items():
            coeff = as_ring(chart, coeff)
            if coeff.is_zero():
                continue
            if fr not in (0, 1):
                raise ValueError("frame flag must be 0 or 1, got %r" % (fr,))
            check_mono(mono, rank)
            for ell in word:
                if ell[0] == "d":
                    ok = ell[1] in chart._pos
                elif ell[0] in ("e", "f"):
                    ok = 0 <= ell[1] < rank
                else:
                    ok = ell == M
                if not ok:
                    raise ValueError("letter %r is not a letter of the chart "
                                     "at rank %d" % (ell, rank))
            if sort_word(word, chart) != (1, word):
                raise ValueError("word %r is not canonical" % (word,))
            self.terms[(mono, word, fr)] = coeff

    # -- constructors ------------------------------------------------

    @classmethod
    def from_section(cls, sec):
        check_argument(sec)
        terms = {(mono, (), 1): c for mono, c in sec.terms.items()}
        return cls(sec.chart, sec.rank, terms)

    # -- bookkeeping -------------------------------------------------

    def frame(self):
        frs = {fr for (_, _, fr) in self.terms}
        if len(frs) > 1:
            raise ValueError("mixed frame flags")
        return frs.pop() if frs else None

    def __str__(self):
        if not self.terms:
            return "0"
        def keyfun(key):
            mono, word, fr = key
            return (len(word), tuple(_letter_key(l, self.chart) for l in word),
                    mono.key(), fr)
        bits = []
        for key in sorted(self.terms, key=keyfun):
            mono, word, fr = key
            pieces = ["(%s)" % self.terms[key]]
            if mono.g or mono.a:
                pieces.append(str(mono))
            pieces += [_letter_str(l) for l in word]
            if fr:
                pieces.append("[mu]")
            bits.append(" ".join(pieces))
        return " + ".join(bits)

    def __repr__(self):
        return "<MultiDerivation %s>" % self


def check_operator(J):
    "Raise ValueError unless J is a MultiDerivation: the operator rule."
    if not isinstance(J, MultiDerivation):
        raise ValueError("J is a MultiDerivation, got %r" % (J,))


def check_argument(lam):
    """Raise ValueError unless lam is a Section: the rule for a section
    argument, for evaluate, jacobi_bracket and from_section."""
    if not isinstance(lam, Section):
        raise ValueError("evaluate takes Section arguments, got %r" % (lam,))


def _term_mul(t1, t2, chart):
    """Product of two (mono, word) terms as (sign, mono, word), sign 0
    when it vanishes.  The factor order is m1 w1 m2 w2: the odd letters
    of w1 pass m2, then the monomials and the words merge.

    Both words are canonical, so one stable merge gives the product
    word, the sign of its odd-odd transpositions (an odd letter of w1
    passes every odd letter of w2 placed before it), the kill on a
    repeated odd letter and the odd count of w1."""
    (m1, w1), (m2, w2) = t1, t2
    sign, mono = mono_mul(m1, m2)
    if not sign:
        return 0, None, None
    keys2 = [_letter_key(ell, chart) for ell in w2]
    n2 = len(w2)
    word, j, odd1, odd2 = [], 0, 0, 0
    for ell in w1:
        key = _letter_key(ell, chart)
        while j < n2 and keys2[j] <= key:
            if keys2[j][0] < 2:  # m or d: odd
                if keys2[j] == key:
                    return 0, None, None
                odd2 += 1
            word.append(w2[j])
            j += 1
        if key[0] < 2:
            odd1 += 1
            if odd2 % 2:
                sign = -sign
        word.append(ell)
    if odd1 % 2 and m2.parity():
        sign = -sign
    return sign, mono, tuple(word) + w2[j:]


# -- evaluation ------------------------------------------------------

def _letter_apply(ell, fun):
    kind = ell[0]
    if kind == "m":
        return fun
    if kind == "d":
        return fun.partial(ell[1])
    if kind == "e":
        return fun.left_deriv_ghost(ell[1])
    return fun.left_deriv_antighost(ell[1])


def evaluate(D, args):
    """Apply the operator to section arguments; returns a Section for a
    frame-valued operator, a GradedFunction otherwise (a Section when D
    has no terms at all).  Before any choice of pieces it raises
    ValueError for a D that is not an operator (check_operator) or mixes
    frame flags, an argument that is not a Section (check_argument) and
    a word whose
    length is not the number of arguments, and a zero D returns.

    Each argument splits into its pieces of shifted parity 0 and 1, and
    pieces equal up to sign share one id: the two arguments of a
    self-bracket, l and l with its shifted-odd piece negated, share
    both.  Letter actions are linear, so each letter acts on each id at
    most once per call, and the sign stays with the piece; that cache
    lives only as long as the call.

    A word is peeled letter by letter over every choice of one piece
    per argument.  Peeling is graded symmetric in its pieces, so the
    choices collapse into sorted multisets of ids, each with an integer
    multiplicity that carries the pieces' signs and the Koszul sign of
    the sort, and each multiset is peeled once.  A multiset holding a
    shifted-odd piece twice peels to 0 and is skipped; within a peel,
    the copies of a repeated even piece give equal values, so the first
    is visited and its product counted that many times.  Coefficients
    come first: the word's ghost coefficients multiply the head letter's
    action, and that head product (the value of a one-letter word)
    multiplies the peeled tail.

    D's words are indexed by head letter once per call, each with its
    tail's parity, so a head letter that acts as 0 on a piece skips all
    its words at once.  The head products of all words and pieces that
    share a (tail, other pieces) pair are summed first, and the sum
    multiplies the tail's value, peeled once per pair: by
    distributivity, (sum_w C_w X_w) Y = sum_w (C_w X_w) Y.  Every
    product sums into one integer sum per monomial, wrapped once, with
    multiplicity, count and sign as one int factor (ghost.mul_terms), so
    no coefficient or action is copied to be scaled."""
    check_operator(D)
    chart, rank = D.chart, D.rank
    funs, pars = [], []  # per piece id: the function and its parity

    def piece(fun, par):
        # (id, sign) of fun: an earlier id when fun is plus or minus its
        # function, else a new one
        for pid, known in enumerate(funs):
            if fun.terms.keys() == known.terms.keys():
                if fun.terms == known.terms:
                    return pid, 1
                if {m: -c for m, c in fun.terms.items()} == known.terms:
                    return pid, -1
        funs.append(fun)
        pars.append(par)
        return len(funs) - 1, 1

    split = []
    for lam in args:
        check_argument(lam)
        parts = []
        for par in (0, 1):
            sel = {m: c for m, c in lam.terms.items()
                   if shifted_parity(m) == par}
            if sel:
                parts.append(piece(GradedFunction(chart, rank, sel), par))
        if not parts:
            parts.append(piece(GradedFunction.zero(chart, rank), 0))
        split.append(parts)
    out_type = GradedFunction if D.frame() == 0 else Section
    by_word = {}
    for (mono, word, _), coeff in D.terms.items():
        if len(word) != len(args):
            raise ValueError("arity mismatch: a word of %d letters on %d "
                             "arguments" % (len(word), len(args)))
        by_word.setdefault(word, {})[mono] = coeff
    if not (args and by_word):  # D is its own value, or zero
        return out_type._new(chart, rank, dict(by_word.get((), {})))
    # each choice adds its sign to its multiset: the product of its
    # pieces' signs, and -1 for each pair of odd pieces the sort swaps
    multisets = {}
    for combo in iproduct(*split):
        ids = tuple(sorted(pid for pid, _ in combo))
        if any(a == b and pars[a] for a, b in zip(ids, ids[1:])):
            continue
        sign = 1
        for j, (a, s) in enumerate(combo):
            sign *= s
            for b, _ in combo[j + 1:]:
                if a > b and pars[a] and pars[b]:
                    sign = -sign
        add_term(multisets, ids, sign)
    by_head = {}  # head letter -> (tail, its parity, ghost coefficients)
    for word, coeffs in by_word.items():
        by_head.setdefault(word[0], []).append(
            (word[1:], word_parity(word[1:]), coeffs))
    acted, splits = {}, {}

    def act(ell, pid):
        # the terms of ell acting on piece pid
        if (ell, pid) not in acted:
            acted[ell, pid] = _letter_apply(ell, funs[pid]).terms
        return acted[ell, pid]

    def heads(parts):
        # per distinct head piece: (piece, count, parity of the pieces
        # before it, the other pieces)
        if parts not in splits:
            splits[parts] = [
                (pid, parts.count(pid), sum(pars[p] for p in parts[:j]),
                 parts[:j] + parts[j + 1:])
                for j, pid in enumerate(parts) if not j or parts[j - 1] != pid]
        return splits[parts]

    def peel(word, parts):
        # the head letter acts on each piece in turn, the tail on the
        # others; the sign passes the tail and the earlier pieces
        head, tail = word[0], word[1:]
        if not tail:
            return act(head, parts[0])
        tail_par, out = word_parity(tail), {}
        for pid, count, before, others in heads(parts):
            val = act(head, pid)
            if val:
                mul_terms(out, val, peel(tail, others),
                          -count if pars[pid] and (tail_par + before) % 2
                          else count)
        return wrap_sums(chart, out)

    total, groups = {}, {}  # (tail, others) -> (tail value, head sum)
    for ids, mult in multisets.items():
        for pid, count, before, others in heads(ids):
            for head, words in by_head.items():
                val = act(head, pid)
                if not val:
                    continue
                for tail, tail_par, coeffs in words:
                    out = total
                    if tail:
                        group = groups.get((tail, others))
                        if group is None:
                            group = groups[tail, others] = \
                                (peel(tail, others), {})
                        rest, out = group
                        if not rest:
                            continue
                    q = mult * count
                    if pars[pid] and (tail_par + before) % 2:
                        q = -q
                    mul_terms(out, coeffs, val, q)
    for rest, heads_sum in groups.values():
        if heads_sum:
            mul_terms(total, wrap_sums(chart, heads_sum), rest)
    return out_type._new(chart, rank, wrap_sums(chart, total))


# -- the Schouten-Jacobi bracket ------------------------------------
#
# The bracket of two terms sums, over the momenta the first one
# carries, the right derivative of the first by the momentum times the
# left derivative of the second by the conjugate generator, and
# multiplies the two with _term_mul.  The odd momenta m and d_i sit
# after the monomial's ghosts, so a term's parity is
# mono.parity() + word_parity(word).

def _dR_mom(mono, word, c, ell):
    """Right derivative of a term by a momentum letter it carries: an odd
    letter leaves with the sign of the odd letters after it, an even one
    with its multiplicity.  Returns ((mono, word), c, that int)."""
    pos = word.index(ell)
    rest = word[:pos] + word[pos + 1:]
    if letter_odd(ell):
        return (mono, rest), c, -1 if word_parity(word[pos + 1:]) else 1
    return (mono, rest), c, word.count(ell)


def _dL_gen(mono, word, fr, c, ell):
    """Left derivative of a term by the generator conjugate to ell, as
    ((mono, word), coefficient, int factor) or None: a coordinate acts
    on the coefficient, t brings down the t-weight fr - n + eps, and a
    ghost or anti-ghost leaves with the sign of the ghosts before it."""
    kind = ell[0]
    if kind == "d":
        c2 = c.partial(ell[1])
        return None if c2.is_zero() else ((mono, word), c2, 1)
    if kind == "m":
        w = fr - len(word) + (M in word)
        return None if w == 0 else ((mono, word), c, w)
    gens = mono.g if kind == "e" else mono.a
    if ell[1] not in gens:
        return None
    pos = gens.index(ell[1])
    rest = gens[:pos] + gens[pos + 1:]
    if kind == "e":
        mono2 = GhostMonomial._new(rest, mono.a)
    else:
        mono2, pos = GhostMonomial._new(mono.g, rest), pos + len(mono.g)
    return (mono2, word), c, -1 if pos % 2 else 1


def _half_bracket(F, G, chart, sums, factor):
    """Add factor times the sum over momenta u of
    (dR F / du)(dL G / d(generator of u)), for lists F, G of (key,
    coefficient) pairs, to the add_product sums of a bracket.

    Only the momenta an F-term carries are visited, each distinct letter
    once, in word order.  Per momentum, the first F-term to need it
    indexes the G-terms whose left derivative by it is nonzero.  For a
    d_i momentum the derivative is taken only of a G-term whose
    coefficient's variables, computed once per call and G-term, hold
    x^i: any other derivative is 0.  A term's mask has one bit per odd
    letter (m, d by chart axis) and per ghost and anti-ghost index; a
    pair whose masks meet outside the momentum's own bit would repeat
    one of them, so it is skipped before _term_mul.  Every other pair
    adds its product at once, at frame flag frF + frG - 1.

    Each product sums at its output key through add_product, with the
    int factor of the call times the sign of _term_mul and the ints of
    the two derivatives (a sign, a multiplicity or a t-weight), so no
    coefficient is copied to be signed or scaled."""
    pos, base = chart._pos, 1 + len(chart.coords)

    def bit(ell):  # m, d by axis, then e_A and f^A interleaved by A
        if ell[0] in ("m", "d"):
            return 1 if ell == M else 2 << pos[ell[1]]
        return (1 if ell[0] == "e" else 2) << (base + 2 * ell[1])

    def mask(mono, word):
        bits = 0
        for A in mono.g:
            bits |= 1 << (base + 2 * A)
        for A in mono.a:
            bits |= 2 << (base + 2 * A)
        for ell in word:
            if ell[0] in ("m", "d"):
                bits |= bit(ell)
        return bits

    index, variables = {}, None
    for (mF, wF, frF), cF in F:
        maskF = mask(mF, wF)
        for ell in dict.fromkeys(wF):
            if ell not in index:
                index[ell] = []
                if ell[0] == "d" and variables is None:
                    variables = [cG.variables() for _, cG in G]
                for j, ((mG, wG, frG), cG) in enumerate(G):
                    if ell[0] == "d" and ell[1] not in variables[j]:
                        continue
                    b = _dL_gen(mG, wG, frG, cG, ell)
                    if b is not None:
                        index[ell].append((frG, b, mask(mG, wG)))
            rest, dR = maskF & ~bit(ell), None
            for frG, (tB, cB, kB), maskG in index[ell]:
                if not rest & maskG:
                    tA, cA, kA = dR = dR or _dR_mom(mF, wF, cF, ell)
                    sign, mono, word = _term_mul(tA, tB, chart)
                    add_product(sums, (mono, word, frF + frG - 1), cA, cB,
                                sign * kA * kB * factor)


def _parity_groups(D):
    "The terms of D as (key, coefficient) lists, grouped by parity."
    groups = {}
    for key, c in D.terms.items():
        mono, word, _ = key
        par = (mono.parity() + word_parity(word)) % 2
        groups.setdefault(par, []).append((key, c))
    return groups


def sj_bracket(D, E):
    """Schouten-Jacobi bracket of two word operators.  Raises ValueError
    for a D that is not an operator (check_operator), an E of another
    type, chart or rank, and a bracket that does not land in frame flag
    0 or 1, which happens only for two function-valued operators.

    Over each pair (a, b) of parity groups F_a of D and F_b of E the
    bracket adds H(F_a, F_b) - flip * H(F_b, F_a), H the half bracket,
    where flip is -1 when both groups are even and 1 otherwise.  For a
    self-bracket every half bracket that involves an odd group therefore
    appears twice with opposite signs and cancels, which leaves
    [[D, D]] = 2 H(F_0, F_0) over the even group F_0: one half bracket
    instead of up to eight.  That branch is taken on identity, D is E.

    Every half bracket sums into one accumulator with an int factor:
    2 for the self-bracket, else 1 for H(F_a, F_b) and -flip for
    H(F_b, F_a).  The sums are wrapped once (wrap_sums)."""
    check_operator(D)
    D._check_like(E)
    chart, sums = D.chart, {}
    if D is E:
        even = _parity_groups(D).get(0, [])
        _half_bracket(even, even, chart, sums, 2)
    else:
        groups_E = _parity_groups(E)
        for tD, FD in _parity_groups(D).items():
            for tE, FE in groups_E.items():
                _half_bracket(FD, FE, chart, sums, 1)
                _half_bracket(FE, FD, chart, sums,
                              1 if ((tD + 1) * (tE + 1)) % 2 else -1)
    out = wrap_sums(chart, sums)
    if any(fr < 0 for _, _, fr in out):
        raise ValueError("the bracket of two function-valued operators "
                         "is not a word operator")
    return MultiDerivation._new(chart, D.rank, out)


# -- Jacobi structures ----------------------------------------------

def build_G(chart, rank):
    "The ghost pairing operator: sum over A of  e_A f^A  with frame."
    one = ScalarExpr.one(chart)
    return MultiDerivation(chart, rank, {
        (ONE_MONO, (e_letter(A), f_letter(A)), 1): one for A in range(rank)})


def is_jacobi(J):
    return sj_bracket(J, J).is_zero()


def jacobi_from_words(chart, rank, terms):
    """The operator  sum c * w [mu]  of (word, c) pairs, words in any
    order (a repeated odd letter drops the term), c a ring element of
    the chart or a number.  Letters are M or d_letter of a chart
    coordinate.  Anything else raises ValueError.  The Jacobi condition
    is not checked here."""
    letters = [M] + [d_letter(x) for x in chart.coords]
    out = {}
    for word, c in terms:
        for ell in word:
            if ell not in letters:
                raise ValueError("structure letters are m or d_<coordinate> "
                                 "of the chart, got %r" % (ell,))
        sgn, canon = sort_word(tuple(word), chart)
        if not sgn:
            continue
        add_term(out, (ONE_MONO, canon, 1), as_ring(chart, c).scale(sgn))
    return MultiDerivation(chart, rank, out)


def jacobi_from_pair(chart, rank, biv, vec):
    """Operator of an ungraded pair: biv maps coordinate pairs (i, j),
    i before j in chart order, to coefficients; vec maps coordinates to
    coefficients; like jacobi_from_words it brackets nothing."""
    for i, j in biv:
        if i not in chart.coords or j not in chart.coords or \
                chart.axis(i) >= chart.axis(j):
            raise ValueError("biv key %r must pair two distinct coordinates "
                             "of the chart in chart order" % ((i, j),))
    words = [((d_letter(i), d_letter(j)), c) for (i, j), c in biv.items()]
    words += [((M, d_letter(i)), c) for i, c in vec.items()]
    return jacobi_from_words(chart, rank, words)


def hamiltonian(lam, J):
    "The arity-1 operator [[J, lam]] of a section."
    return sj_bracket(J, MultiDerivation.from_section(lam))


def jacobi_bracket(l1, l2, J):
    """Bracket of two sections induced by a frame-valued biderivation:
    J(l1, l2) with the shifted-odd part of l1 negated; l1 is checked
    (check_argument) before it is read."""
    check_argument(l1)
    signed = Section._new(
        l1.chart, l1.rank,
        {m: -c if shifted_parity(m) else c for m, c in l1.terms.items()})
    return evaluate(J, [signed, l2])

