"""Verification suite for the minimal W-superalgebra structure.

Every check is exact: a relation passes only when its residue is
identically zero as a canonical model element.  The constant c0 is
extracted operationally from the degree-1 commutator relation and
cross-checked against the closed double-sum formula.
"""

from fractions import Fraction
from functools import cached_property

from .enveloping import kazhdan_degree
from .errors import InputError
from .generators import WGenerator, standard_generators, theta_v, theta_w
from .grading import kw_numbers
from .linalg import Echelon, Span, lin_comb, vec_scale
from .whittaker import (WhittakerElement, combine, is_w_element, multiply_q,
                        product_terms, project_terms, sigma, supercommutator_q)

RELATION_IDS = ("identities", "generators", "deg0", "deg01", "central",
                "c0", "scalar_reduction", "b_invariance", "pbw", "one_dim")


class RelationReport:
    """Outcome of one relation id: pass iff every residue is zero."""

    def __init__(self, rel_id):
        self.rel_id = rel_id
        self.failures = []       # (witness_label, WhittakerElement or None)
        self.detail = {}

    @property
    def ok(self):
        return not self.failures

    def fail(self, witness, residue=None):
        self.failures.append((witness, residue))

    def check(self, witness, residue):
        """Fail at witness unless the model element residue is zero."""
        if not residue.is_zero():
            self.fail(witness, residue)

    def as_json(self):
        out = {"id": self.rel_id, "status": "pass" if self.ok else "fail"}
        if self.failures:
            out["residue"] = [{
                "witness": w,
                "terms": None if r is None else r.as_json(),
            } for w, r in self.failures]
        if self.detail:
            out["detail"] = self.detail
        return out

    def lines(self):
        head = "%-14s %s" % (self.rel_id, "pass" if self.ok else "FAIL")
        out = [head]
        for g in self.detail.get("generators", ()):
            out.append("    %s (deg %d) = %s"
                       % (g["label"], g["kazhdan_degree"], g["value"]))
        for w, r in self.failures:
            out.append("    at %s" % w)
            if r is not None:
                out.append("    residue: %s" % r.render())
        return out


class C0Result:
    """Per-pair extracted c0 values plus the closed-formula value.

    consistent means the extracted values agree across pairs (the relation
    holds with one constant).  matches_formula records whether that
    constant also equals the published closed double-sum formula; the two
    differ by (s-r)^2/16 on every algebra this engine has been run on.  The
    extracted value is the one pinned independently, by the Casimir scalar
    of the oscillator realisation on sp(4), sp(6), osp(1|2) and osp(1|4);
    the formula leaves out the within-side contraction (see
    verify_scalar_reduction).
    """

    def __init__(self):
        self.pairs = []          # (label, pairing, c0_or_None)
        self.formula_values = []  # (label, value)
        self.consistent = True
        self.matches_formula = True
        self.value = None

    def as_json(self):
        return {
            "pairs": [{"pair": lbl, "pairing": str(pr),
                       "c0": None if c is None else str(c)}
                      for lbl, pr, c in self.pairs],
            "formula": None if not self.formula_values else str(self.formula_values[0][1]),
            "consistent": self.consistent,
            "matches_formula": self.matches_formula,
        }


class SuiteContext:
    """Shared caches: the generator list, ThetaCas, the coordinate map of
    g^e, the residue of each basis pair (B on the g^e(1) basis among them)
    and the factored generator monomials.

    basis is cent[0] + cent[1] + [2e], n0 + n1 + 1 vectors, and gens is
    standard_generators on it: gens[k] is Theta of basis[k], C last, and
    checked[k] the value it built, checked for membership there.
    Theta is linear, so Theta of any vector of
    g^e(0) + g^e(1) + g^e(2) is summed from its coordinates over the
    cached basis generators, and the model product or commutator of two
    such Thetas from the memos of basis pairs; B is bilinear, so every
    relation that needs it reads the basis-pair table.
    """

    def __init__(self, setup, corrupt=None):
        self.setup = setup
        self.corrupt = corrupt
        self.n0, self.n1 = len(setup.cent[0]), len(setup.cent[1])
        self.basis = setup.cent[0] + setup.cent[1] + [vec_scale(2, setup.triple.e)]
        self.odd = [setup.alg.parity_of(y) for y in self.basis]
        self.letters = [setup.to_letters(y) for y in self.basis]   # in letter coordinates
        self._products = {}
        self._commutators = {}
        self._residues = {}
        self._monomials = {}

    @cached_property
    def gens(self):
        gens = standard_generators(self.setup)
        self.checked = [gen.value for gen in gens]
        if self.corrupt == "theta-v-sign":
            # negative control: flip the sign of every z-correction term
            for gen in gens[:self.n0]:
                plain = WhittakerElement.from_vector(self.setup, gen.source)
                gen.value = plain + (plain - gen.value)
        return gens

    @cached_property
    def tcas(self):
        """ThetaCas = sum_i (-1)^{|a_i|} Theta_{a_i} Theta_{b_i} over the
        g^e(0) dual bases; a_i is cent[0][i], so Theta_{a_i} is gens[i]."""
        setup = self.setup
        value = combine(setup, [(-1 if ta.parity else 1,
                                 multiply_q(ta.value, self.theta(b)))
                                for ta, b in zip(self.gens[:self.n0], setup.dual_b)])
        return WGenerator("ThetaCas", setup.triple.e, value, 4, 0)

    @cached_property
    def _span(self):
        """The basis in letter coordinates."""
        return Span(self.letters)

    def coords(self, x):
        """Coordinates of x over basis = cent[0] + cent[1] + [2e]; the e
        coordinate is halved, so Theta(c*e) = c*C/2."""
        return self.letter_coords(self.setup.to_letters(x))

    def letter_coords(self, x):
        """The same, for x in letter coordinates."""
        coords = self._span.coords(x)
        if coords is None:
            raise InputError("vector is not in g^e(0) + g^e(1) + g^e(2)")
        return coords

    def theta(self, x):
        """Theta_x by linearity over the cached basis generators."""
        return self.theta_of(self.coords(x))

    def theta_of(self, coords):
        """Theta of sum c * basis[k] over the items (k, c) of coords."""
        return combine(self.setup, [(c, self.gens[k].value) for k, c in coords.items()])

    def product(self, k, l):
        """Theta_k Theta_l in the model, for generators k and l; memoised."""
        out = self._products.get((k, l))
        if out is None:
            out = multiply_q(self.gens[k].value, self.gens[l].value)
            self._products[(k, l)] = out
        return out

    def commutator(self, k, l):
        """[Theta_k, Theta_l], memoised by _antisymmetric."""
        return self._antisymmetric(self._commutators, k, l, lambda k, l: supercommutator_q(
            self.gens[k].value, self.gens[l].value))

    def residue(self, k, l):
        """The residue of the relation for basis pair (k, l), memoised by
        _antisymmetric: B_ij when basis[k] = w_i and basis[l] = w_j lie in
        g^e(1), else [Theta_k, Theta_l] - Theta_[basis[k], basis[l]]."""
        n0, n1 = self.n0, self.n1
        bracket, letters = self.setup.lbracket, self.letters
        return self._antisymmetric(self._residues, k, l, lambda k, l: (
            self._b_entry(k - n0, l - n0) if n0 <= k and l < n0 + n1 else
            self.commutator(k, l)
            - self.theta_of(self.letter_coords(bracket(letters[k], letters[l])))))

    def _antisymmetric(self, memo, k, l, build):
        """memo[(k, l)] for k <= l, built once; the other order is read by
        super-antisymmetry (each basis generator has its basis vector's parity)."""
        key = (k, l) if k <= l else (l, k)
        out = memo.get(key)
        if out is None:
            out = memo[key] = build(*key)
        return -out if k > l and not (self.odd[k] and self.odd[l]) else out

    @cached_property
    def b_table(self):
        """b_table[i][j] = (B(w_i, w_j), ([w_i, w_j], f)) on the g^e(1)
        basis, a view of the residue memo."""
        n0, n1 = self.n0, self.n1
        return [[(self.residue(n0 + i, n0 + j), self.letter_pair(n0 + i, n0 + j))
                 for j in range(n1)] for i in range(n1)]

    @cached_property
    def _b_entry(self):
        """(i, j) -> B_ij, the degree-1 commutator minus its structural
        terms, as one combine.  With sign = -1 iff w_i and w_j are both odd,
        B_ij = [Theta_wi, Theta_wj] - (pair/2)(C - ThetaCas)
               + sum_{k,l} M_ij[k,l] Theta_k Theta_l,
        M_ij = sum_a (L[i][a] (x) R[j][a] - sign L[j][a] (x) R[i][a]) / 2,
        where L[i][a] and R[j][a] are the g^e(0) coordinates of
        [w_i, z_a]# and [z*_a, w_j]#, and L, R and C - ThetaCas are computed
        once.  # is linear, so L and R are summed in letters from the
        coordinates of letter# for each g(0) letter.  A term with k > l is
        read as (-1)^{|k||l|} (Theta_l Theta_k - [Theta_l, Theta_k]), so
        only products with k <= l are made."""
        setup, odd, bracket = self.setup, self.odd, self.setup.lbracket
        n0, n1 = self.n0, self.n1
        sharps = [self.coords(setup.sharp(x)) for x in setup.grading[0]]  # g(0) letters first
        ws, (zs, zds) = self.letters[n0:n0 + n1], setup.z_letters
        left = [[lin_comb(bracket(w, z), sharps) for z in zs] for w in ws]
        right = [[lin_comb(bracket(zd, w), sharps) for zd in zds] for w in ws]
        c_minus_tcas = self.gens[-1].value - self.tcas.value

        def entry(i, j):
            m, sign = {}, -1 if odd[n0 + i] and odd[n0 + j] else 1
            for x, y, c in ((left[i], right[j], 1), (left[j], right[i], -sign)):
                for xa, ya in zip(x, y):
                    for k, xk in xa.items():
                        for l, yl in ya.items():
                            m[(k, l)] = m.get((k, l), 0) + c * xk * yl
            prods, comms = {}, {}                   # twice M_ij, halved below
            for (k, l), c in m.items():
                if k > l:
                    k, l, c = l, k, -c if odd[k] and odd[l] else c
                    comms[(k, l)] = -c
                prods[(k, l)] = prods.get((k, l), 0) + c
            pair = self.letter_pair(n0 + i, n0 + j)
            terms = [(1, self.commutator(n0 + i, n0 + j)),
                     (Fraction(-pair, 2), c_minus_tcas)]
            terms += [(Fraction(c, 2), self.product(k, l))
                      for (k, l), c in prods.items() if c]
            terms += [(Fraction(c, 2), self.commutator(k, l))
                      for (k, l), c in comms.items() if c]
            return combine(setup, terms)
        return entry

    def monomials(self, max_deg):
        """(monomials, echelon), memoised per max_deg: each ordered
        monomial in gens of Kazhdan degree <= max_deg as (generator indices,
        degree), 1 first and generator g as monomial g + 1; and one echelon
        of them all on integer numerators: monomial t enters as q.nums with
        q.den on the key (len(letters), t), above every word, and numerators
        in their span reduce to minus their coefficient on monomial t at tag t."""
        if max_deg in self._monomials:
            return self._monomials[max_deg]
        setup, gens = self.setup, self.gens
        # breadth first, each monomial after its prefix: the list grows
        # behind its own loop; two basis generators come from the memo
        monomials = [((), WhittakerElement.unit(setup), 0)]
        for idxs, q, deg in monomials:
            for g in range(idxs[-1] if idxs else 0, len(gens)):
                value, gdeg = gens[g].value, gens[g].kazhdan_degree
                if (gens[g].parity and idxs and idxs[-1] == g) or deg + gdeg > max_deg:
                    continue                   # odd generators square away
                if len(idxs) == 1 and g < len(gens) - 1:
                    value = self.product(idxs[0], g)
                elif idxs:
                    value = multiply_q(q, value)
                monomials.append((idxs + (g,), value, deg + gdeg))

        tag = len(setup.letters)
        echelon = Echelon({**q.nums, (tag, t): q.den}
                          for t, (_, q, _) in enumerate(monomials))
        self._monomials[max_deg] = ([(idxs, deg) for idxs, _, deg in monomials], echelon)
        return self._monomials[max_deg]

    def pair_value(self, w1, w2):
        """([w1, w2], f): the e coordinate of [w1, w2] in letters, since the
        form pairs f with g(2) = Ce alone and (e, f) = 1."""
        s = self.setup
        return s.lbracket(s.to_letters(w1), s.to_letters(w2)).get(s.idx_e, 0)

    def letter_pair(self, k, l):
        """pair_value(basis[k], basis[l]), read off the basis letters."""
        s = self.setup
        return s.lbracket(self.letters[k], self.letters[l]).get(s.idx_e, 0)


# ---------------------------------------------------------------------------
# algebra identities used throughout the derivations

def identities_suite(setup):
    rep = RelationReport("identities")
    alg, letters = setup.alg, setup.to_letters
    n = len(setup.zbasis)
    s, r = setup.sdim, setup.rdim
    zmaps = setup.z_letters[0]
    odd = [alg.parity_of(z) for z in setup.zbasis]

    sums = ([], [])                     # z z* over the even, the odd z's
    for a in range(n):
        sums[odd[a]].extend(product_terms(1, zmaps[a], letters(setup.zdual[a])))
    for terms, value, label in ((sums[0], Fraction(-s, 2), "sum_even z z* = -s/2"),
                                (sums[1], Fraction(r, 2), "sum_odd z z* = r/2")):
        rep.check(label, project_terms(setup, terms)
                  - WhittakerElement.unit(setup, value))

    # u = sum [z*_a, u] z_a = -sum (-1)^{|a|} [z_a, u] z*_a, in the model
    for b, u in enumerate(setup.zbasis):
        lhs1, lhs2 = [], []
        for a in range(n):
            br1 = alg.bracket(setup.zdual[a], u)      # in g(-2)
            if br1:
                lhs1 += product_terms(1, letters(br1), zmaps[a])
            br2 = alg.bracket(setup.zbasis[a], u)
            if br2:
                lhs2 += product_terms(1 if odd[a] else -1, letters(br2),
                                      letters(setup.zdual[a]))
        target = project_terms(setup, product_terms(1, zmaps[b]))
        for tag, lhs in (("dual-expansion", lhs1), ("signed-expansion", lhs2)):
            rep.check("u=z%d %s" % (b + 1, tag), project_terms(setup, lhs) - target)

    # sum [z_a, [z*_a, w]] = (s-r)/2 [w, f] for w in g^e(1), and
    # sum [z_a, [e, z*_a]] = (r-s)/2 h; each residue is one lin_comb
    def residue(inner, c, x):
        """sum_a [z_a, inner(z*_a)] + c x, in the model."""
        vectors = [alg.bracket(za, inner(zs))
                   for za, zs in zip(setup.zbasis, setup.zdual)] + [x]
        coeffs = {**dict.fromkeys(range(n), 1), n: c}
        return WhittakerElement.from_vector(setup, lin_comb(coeffs, vectors))
    for k, w in enumerate(setup.cent[1]):
        rep.check("sum[z,[z*,w]] for w#%d" % k,
                  residue(lambda zs: alg.bracket(zs, w), Fraction(r - s, 2),
                          alg.bracket(w, setup.triple.f)))
    rep.check("sum[z,[e,z*]] = (r-s)/2 h",
              residue(lambda zs: alg.bracket(setup.triple.e, zs), Fraction(s - r, 2),
                      setup.triple.h))

    # <[z_a, v], z_b> = <z_a, [v, z_b]> for even v in g^e(0)
    gram = [[setup.pairing(za, zb) for zb in setup.zbasis] for za in setup.zbasis]

    def zcoords(x):
        return {k - setup.z_start: c for k, c in letters(x).items()}
    for k, v in enumerate(setup.cent[0]):
        if alg.parity_of(v) == 0:
            for a, b, _, _ in _invariance_failures(alg, gram, setup.zbasis, v, zcoords):
                rep.fail("pairing invariance v#%d (%d,%d)" % (k, a, b))
    return rep


def _invariance_failures(alg, gram, basis, v, coords):
    """(i, j, lhs, rhs) wherever G([x_i, v], x_j) = lhs != rhs = G(x_i, [v, x_j]),
    in order, for the Gram matrix G on basis x; coords gives a vector's
    coordinates over x."""
    left = [coords(alg.bracket(x, v)) for x in basis]     # [x_i, v]
    right = [coords(alg.bracket(v, x)) for x in basis]    # [v, x_j]
    for i, li in enumerate(left):
        for j, rj in enumerate(right):
            lhs = sum(c * gram[m][j] for m, c in li.items())
            rhs = sum(c * gram[i][m] for m, c in rj.items())
            if lhs != rhs:
                yield i, j, lhs, rhs


def generator_checks(setup, ctx):
    """Membership, leading terms, degree bounds, and the parity involution."""
    rep = RelationReport("generators")
    for k, gen in enumerate(ctx.gens):  # sigma is (-1)^degree, the degree a bound
        odd = gen.kazhdan_degree % 2
        rep.check("sigma %s %s" % ("negates" if odd else "fixes", gen.label),
                  sigma(gen.value) - gen.value.scale(-1 if odd else 1))
        if gen.value.max_kazhdan_degree() > gen.kazhdan_degree:
            rep.fail("degree of %s > %d" % (gen.label, gen.kazhdan_degree), gen.value)
        # standard_generators checked each value it built; a Theta replaced
        # since, as by the theta-v-sign control, is checked again, C never
        if gen.value is not ctx.checked[k] and gen is not ctx.gens[-1]:
            ok, witness = is_w_element(gen.value)
            if not ok:
                rep.fail("membership %s at ad %s" % (gen.label, witness[0]), witness[1])
    # the suite takes Theta by linearity; one direct evaluation per grade,
    # at the sum of the basis, keeps that checked rather than assumed
    for grade, direct in ((0, theta_v), (1, theta_w)):
        if setup.cent[grade]:
            x = lin_comb(dict.fromkeys(range(len(setup.cent[grade])), 1),
                         setup.cent[grade])
            rep.check("linearity of Theta on g^e(%d)" % grade,
                      direct(setup, x, check=False).value - ctx.theta(x))
    rep.detail["generators"] = [
        {"label": g.label, "kazhdan_degree": g.kazhdan_degree,
         "value": g.value.render()}
        for g in ctx.gens + [ctx.tcas]]
    return rep


def _theta_brackets(ctx, rel_id, left, lname, right, rname):
    """[Theta_x, Theta_y] = Theta_[x,y] over pairs of ctx.basis indices from
    the ranges left and right, with the residues read from the memo."""
    rep = RelationReport(rel_id)
    for i, k in enumerate(left):
        for j, l in enumerate(right):
            rep.check("(%s%d,%s%d)" % (lname, i, rname, j), ctx.residue(k, l))
    rep.detail["pairs"] = len(left) * len(right)
    return rep


def verify_deg0(setup, ctx=None):
    """[Theta_v1, Theta_v2] = Theta_[v1,v2] over all ordered basis pairs."""
    ctx = ctx or SuiteContext(setup)
    return _theta_brackets(ctx, "deg0", range(ctx.n0), "v", range(ctx.n0), "v")


def verify_deg01(setup, ctx=None):
    """[Theta_v, Theta_w] = Theta_[v,w] over all basis pairs."""
    ctx = ctx or SuiteContext(setup)
    n0, n1 = ctx.n0, ctx.n1
    return _theta_brackets(ctx, "deg01", range(n0), "v", range(n0, n0 + n1), "w")


def verify_centrality(setup, ctx=None):
    """[C, -] = 0 against every generator and Theta_Cas; [C, C] = 0 holds
    in any associative superalgebra, C being even, so it is not checked."""
    ctx = ctx or SuiteContext(setup)
    rep = RelationReport("central")
    *gens, c = ctx.gens
    for k, g in enumerate(gens):
        rep.check("[C, %s]" % g.label, ctx.commutator(len(gens), k))
    rep.check("[C, ThetaCas]", supercommutator_q(c.value, ctx.tcas.value))
    # Theta_Cas commutes with the degree-0 generators
    for g in gens[:ctx.n0]:
        rep.check("[ThetaCas, %s]" % g.label,
                  supercommutator_q(ctx.tcas.value, g.value))
    return rep


def c0_double_sum(setup, w1, w2):
    """The closed formula's double sum:
    sum_{a,b} (-1)^{|a||w1|+|b||w1|+|a||b|} chi([[z_b,[z_a,w1]],[z*_b,[z*_a,w2]]]),
    over the setup's memo of nested brackets; chi on g(-2) = Cf is the f
    coordinate, since (e, f) = 1."""
    left, right = setup.nested(0, w1), setup.nested(1, w2)
    p1, par = setup.alg.parity_of(w1), setup.letter_parity[setup.z_start:]
    total, bracket = 0, setup.lbracket
    for (a, b), x in left.items():
        if (a, b) in right:
            val = bracket(x, right[(a, b)]).get(setup.idx_f, 0)
            total += -val if (par[a] * p1 + par[b] * p1 + par[a] * par[b]) % 2 else val
    return total


def c0_formula(setup, w1, w2, ctx=None):
    """Closed-form c0 from the double sum; requires ([w1,w2],f) != 0.

    This stays the published formula, as transcribed (criterion 2 checks
    the transcription).  The extracted c0 equals it plus
    chi([X(w1),X(w2)]) / (4 ([w1,w2],f)), X(w) = sum_a [z_a,[z*_a,w]]
    = (s-r)/2 [w,f], that is minus (s-r)^2/16.
    """
    ctx = ctx or SuiteContext(setup)
    pair = ctx.pair_value(w1, w2)
    if pair == 0:
        raise InputError("c0_formula needs a pair with ([w1,w2],f) != 0")
    return Fraction(-2 * _published_scalar(setup, w1, w2, pair), pair)


def _published_scalar(setup, w1, w2, pair):
    """The scalar the closed formula gives B(w1, w2), pair = ([w1,w2],f):
    -c0_formula * pair/2 = ((3(s-r)+4) pair - double sum) / 24."""
    ds = c0_double_sum(setup, w1, w2)
    return Fraction((3 * (setup.sdim - setup.rdim) + 4) * pair - ds, 24)


def extract_c0(setup, ctx=None):
    """Solve the degree-1 relation for c0 on every basis pair of g^e(1).

    Returns (RelationReport, C0Result); the report fails when a residue is
    non-scalar, a zero-pairing pair has nonzero residue, or the extracted
    values disagree across pairs.  Agreement with the closed formula is
    recorded on the result, not enforced here.
    """
    ctx = ctx or SuiteContext(setup)
    rep = RelationReport("c0")
    result = C0Result()
    basis = setup.cent[1]
    if not basis:
        rep.detail["note"] = "g^e(1) = 0; nothing to extract"
        return rep, result
    for i, w1 in enumerate(basis):
        for j, w2 in enumerate(basis):
            label = "(w%d,w%d)" % (i, j)
            B, pair = ctx.b_table[i][j]
            scalar, c0 = B.scalar_part(), None
            if scalar is None:
                rep.fail("non-scalar residue at %s" % label, B)
            elif pair == 0:
                if scalar != 0:
                    rep.fail("zero-pairing pair %s has residue" % label, B)
            else:
                c0 = Fraction(-2 * scalar, pair)
                formula = Fraction(-2 * _published_scalar(setup, w1, w2, pair), pair)
                result.formula_values.append((label, formula))
                if formula != c0:
                    result.matches_formula = False
            result.pairs.append((label, pair, c0))
    values = [(label, c0) for label, _, c0 in result.pairs if c0 is not None]
    if values:
        first = values[0][1]
        for label, c0 in values[1:]:
            if c0 != first:
                result.consistent = False
                rep.fail("c0 at %s is %s, at %s is %s"
                         % (values[0][0], first, label, c0))
        result.value = first
        rep.detail["c0"] = str(first)
        rep.detail["c0_formula"] = str(result.formula_values[0][1])
        rep.detail["matches_formula"] = result.matches_formula
    else:
        rep.detail["note"] = "all pairings vanish; c0 not determined"
    return rep, result


def verify_scalar_reduction(setup, ctx=None):
    """The structural combination of the degree-1 commutator must reduce to
    the published closed double-sum scalar, pair by pair.

    It does not where s != r: the residue at each pair is exactly
    -1/8 chi([X(w1), X(w2)]), X(w) = sum_a [z_a,[z*_a,w]] = (s-r)/2 [w,f].
    That term contracts z's within each side of the commutator, while the
    double sum contracts across the two sides; it vanishes when s = r.
    The report keeps the published scalar, so its residues show the term.
    """
    ctx = ctx or SuiteContext(setup)
    rep = RelationReport("scalar_reduction")
    basis = setup.cent[1]
    for i, w1 in enumerate(basis):
        for j, w2 in enumerate(basis):
            lhs, pair = ctx.b_table[i][j]
            rhs = _published_scalar(setup, w1, w2, pair)
            rep.check("(w%d,w%d)" % (i, j), lhs - WhittakerElement.unit(setup, rhs))
    rep.detail["pairs"] = len(basis) ** 2
    return rep


def verify_b_invariance(setup, ctx=None):
    """b(w1,w2) := scalar of B(w1,w2) is even and g^e(0)_even-invariant,
    and proportional to ([.,.],f).

    B is bilinear, so everything is read off the basis-pair table.
    Invariance is the matrix identity b([w_i,v], w_j) = b(w_i, [v,w_j]),
    the one the pairing on g(-1) satisfies in identities_suite.
    """
    ctx = ctx or SuiteContext(setup)
    rep = RelationReport("b_invariance")
    alg = setup.alg
    basis = setup.cent[1]
    b = [[0] * len(basis) for _ in basis]
    ratios = []
    for i, w1 in enumerate(basis):
        for j, w2 in enumerate(basis):
            B, pair = ctx.b_table[i][j]
            val = B.scalar_part()
            if val is None:
                rep.fail("non-scalar B at (w%d,w%d)" % (i, j), B)
                val = 0
            b[i][j] = val
            if alg.parity_of(w1) != alg.parity_of(w2) and val != 0:
                rep.fail("b not even at (w%d,w%d)" % (i, j))
            if pair != 0:
                ratios.append(Fraction(val, pair))
    if ratios and any(x != ratios[0] for x in ratios):
        rep.fail("b not proportional to ([.,.],f): ratios %s"
                 % sorted(set(str(x) for x in ratios)))
    n0 = ctx.n0

    def wcoords(x):
        return {m - n0: c for m, c in ctx.coords(x).items()}
    evens = [v for v in setup.cent[0] if alg.parity_of(v) == 0]
    for k, v in enumerate(evens):
        for failure in _invariance_failures(alg, b, basis, v, wcoords):
            rep.fail("invariance at v%d,(w%d,w%d): %s != %s" % ((k,) + failure))
    return rep


def one_dim_rep(setup, ctx=None):
    """The one-dimensional representation eps: Theta -> 0, C -> c0.

    [Theta_wi, Theta_wj] has Kazhdan degree <= 4, so it lies in the span of
    ctx.monomials(4): a_1 + a_C C + terms with a Theta factor.  eps is
    multiplicative iff a_1 + c0 a_C = 0 on every g^e(1) basis pair; c0 is
    -a_1/a_C at the first pair with a_C != 0.  The report carries the
    generators of the ideal ker eps; when no pair in the span has
    a_C != 0 (g^e(1) = 0, say), nothing determines c0, and it carries a
    note instead of c0 and C - c0."""
    ctx = ctx or SuiteContext(setup)
    rep = RelationReport("one_dim")
    _, echelon = ctx.monomials(4)
    tag, n0, n1 = len(setup.letters), ctx.n0, ctx.n1
    coeffs = []                         # (label, a_1, a_C) per pair in the span
    for i in range(n1):
        for j in range(n1):
            label = "(w%d,w%d)" % (i, j)
            q = ctx.commutator(n0 + i, n0 + j)
            rest = echelon.reduce(q.nums)
            words = {k: c for k, c in rest.items() if k < (tag,)}
            if words:
                rep.fail("%s outside the monomial span" % label,
                         WhittakerElement(setup, words, q.den))
            else:       # C is the last generator, monomial len(gens)
                coeffs.append((label, Fraction(-rest.get((tag, 0), 0), q.den),
                               Fraction(-rest.get((tag, len(ctx.gens)), 0), q.den)))
    c0 = next((Fraction(-a1, ac) for _, a1, ac in coeffs if ac), None)
    for label, a1, ac in coeffs:        # a_C != 0 only where there is a c0
        value = a1 + c0 * ac if ac else a1
        if value:
            rep.fail("a_1 + c0 a_C != 0 at %s" % label,
                     WhittakerElement.unit(setup, value))
    rep.detail["ideal_generators"] = [g.label for g in ctx.gens[:-1]]
    if c0 is None:
        rep.detail["note"] = "no pair has a_C != 0; c0 not determined"
    else:
        rep.detail["ideal_generators"].append("C - %s" % c0)
        rep.detail["c0"] = str(c0)
    return rep


def _symalg_count(degrees, parities, max_deg):
    """Number of supersymmetric monomials of total degree <= max_deg on
    generators with the given degrees; odd generators square to zero.  A
    knapsack over counts[d], the monomials of degree d so far: an odd
    generator enters at most once (d runs down), an even one any number
    of times (d runs up)."""
    counts = [1] + [0] * max_deg
    for deg, par in zip(degrees, parities):
        for d in range(max_deg, deg - 1, -1) if par else range(deg, max_deg + 1):
            counts[d] += counts[d - deg]
    return sum(counts)


def w_pbw_check(setup, max_deg=4, ctx=None):
    """Linear independence of ordered generator monomials up to max_deg,
    the graded dimension count against S(g^e), and the commutator
    filtration bound on generator pairs."""
    if max_deg < 2:
        raise InputError("w_pbw_check needs max_deg >= 2")
    ctx = ctx or SuiteContext(setup)
    rep = RelationReport("pbw")
    monomials, echelon = ctx.monomials(max_deg)
    word_keys = (len(setup.letters),)
    rk = sum(1 for p in echelon.rows if p < word_keys)
    rep.detail["monomials"] = len(monomials)
    rep.detail["rank"] = rk
    if rk != len(monomials):
        rep.fail("monomials dependent: rank %d of %d" % (rk, len(monomials)))

    expect = _symalg_count([g.kazhdan_degree for g in ctx.gens],
                           [g.parity for g in ctx.gens], max_deg)
    rep.detail["symalg_count"] = expect
    if expect != len(monomials):
        rep.fail("graded count %d != supersymmetric-algebra count %d"
                 % (len(monomials), expect))

    # commutator filtration: the residue of each generator pair equals a
    # polynomial with no constant or linear part modulo Kazhdan degree
    # m_i + m_j + 1; operationally the part above the bound must lie in
    # the span of the same parts of two-generator products, factored once
    # per bound.  Theta_l Theta_k = (-1)^{|k||l|} (Theta_k Theta_l -
    # [Theta_k, Theta_l]) exactly and taking the part above a bound is
    # linear, so the products for k <= l and the commutators for k < l
    # span the same parts as all ordered products.  B_ij differs from
    # [Theta_wi, Theta_wj] - Theta_[wi,wj] by such a combination, (pair/2)
    # ThetaCas + sum M_ij[k,l] Theta_k Theta_l, for any linear Theta (the
    # corrupted ones too), so either gives the same verdict; on a passing
    # run no residue has a top part and no echelon is built.
    def above(q, bound):
        return {k: c for k, c in q.nums.items() if kazhdan_degree(setup, k) > bound}

    n0 = ctx.n0
    grades = [grade for grade in (0, 1, 2) for _ in setup.cent[grade]]
    quad_tops = {}
    for i in range(len(ctx.basis)):
        for j in range(i, len(ctx.basis)):
            if i == j and not ctx.odd[i]:
                continue
            bound = grades[i] + grades[j] + 1
            top = above(ctx.residue(i, j), bound)
            if not top:
                continue
            echelon = quad_tops.get(bound)
            if echelon is None:
                quads = [ctx.product(k, l) for k in range(n0) for l in range(k, n0)]
                quads += [ctx.commutator(k, l) for k in range(n0) for l in range(k + 1, n0)]
                echelon = quad_tops[bound] = Echelon(above(q, bound) for q in quads)
            if echelon.reduce(top):
                rep.fail("filtration bound at (%d,%d): top part not a "
                         "quadratic polynomial in the generators" % (i, j))
    return rep


# ---------------------------------------------------------------------------
# the assembled suite

# relation id -> its check; each lambda looks the function up when it is
# called, so a rebinding of the module-level name is seen by run_suite
_CHECKS = {
    "identities": lambda setup, ctx, max_deg: identities_suite(setup),
    "generators": lambda setup, ctx, max_deg: generator_checks(setup, ctx),
    "deg0": lambda setup, ctx, max_deg: verify_deg0(setup, ctx),
    "deg01": lambda setup, ctx, max_deg: verify_deg01(setup, ctx),
    "central": lambda setup, ctx, max_deg: verify_centrality(setup, ctx),
    "c0": lambda setup, ctx, max_deg: extract_c0(setup, ctx),
    "scalar_reduction": lambda setup, ctx, max_deg: verify_scalar_reduction(setup, ctx),
    "b_invariance": lambda setup, ctx, max_deg: verify_b_invariance(setup, ctx),
    "pbw": lambda setup, ctx, max_deg: w_pbw_check(setup, max_deg, ctx),
    "one_dim": lambda setup, ctx, max_deg: one_dim_rep(setup, ctx),
}


def run_suite(setup, which=None, fail_fast=True, corrupt=None, max_deg=4):
    """Run the verification suite in derivation order.

    which: iterable of relation ids (default: all).  Returns a SuiteResult.
    """
    ctx = SuiteContext(setup, corrupt=corrupt)
    selected = list(RELATION_IDS) if which is None else list(which)
    for rel in selected:
        if rel not in RELATION_IDS:
            raise InputError("unknown relation id %r" % rel)
    if not selected:
        raise InputError("no relation id selected")
    if max_deg < 2:
        raise InputError("max_deg must be >= 2, got %d" % max_deg)
    result = SuiteResult(setup)
    for rel in RELATION_IDS:
        if rel not in selected:
            continue
        rep = _CHECKS[rel](setup, ctx, max_deg)
        if rel == "c0":
            rep, result.c0 = rep
        result.reports.append(rep)
        if fail_fast and not rep.ok:
            break
    return result


class SuiteResult:
    def __init__(self, setup):
        self.setup = setup
        self.reports = []
        self.c0 = None

    @property
    def ok(self):
        return all(r.ok for r in self.reports)

    def as_json(self):
        d0, d1, _, _ = kw_numbers(self.setup)
        out = {
            "algebra": self.setup.alg.name,
            "setup": {"s": self.setup.sdim, "r": self.setup.rdim,
                      "d0": d0, "d1": d1},
            "relations": [r.as_json() for r in self.reports],
            "c0": self.c0.as_json() if self.c0 is not None else None,
        }
        return out

    def lines(self):
        out = ["suite for %s" % self.setup.alg.name]
        for r in self.reports:
            out.extend(r.lines())
        if self.c0 is not None and self.c0.value is not None:
            out.append("c0 = %s" % self.c0.value)
        out.append("result: %s" % ("all pass" if self.ok else "FAILURES"))
        return out
