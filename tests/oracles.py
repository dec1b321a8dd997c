"""Independent oracles used by the test suite.

Deliberately separate implementations from the package: letter coordinates
come from one elimination over the letters, not from the setup's tables, the
naive rewriter recurses on the leftmost violation with no term-map plumbing,
the rank routine uses plain forward elimination without normalization, the
matrix helpers do integer supermatrix arithmetic directly, a Weyl algebra
carries the oscillator realisations of sp(2k) and osp(1|2k), on
which the Casimir's scalar pins c0 without the package's enveloping layer,
bw_element forms B(w1, w2) pair by pair from its definition, and the
Fraction routes (the closed forms of Theta_w built from EnvElement products,
the g^e(1) residues B summed with Fraction arithmetic, and the model
operations as projections of U(g) elements) pin the integer-numerator
paths of the package.  EnvElement, the U(g) element the package no longer
carries, straightens each word pair on its own Fraction coefficient by
calling the kernel's straighten and commute with one-term lists (the
right word through a fresh letter_index, never an element's kept one) and
sums the returned normal forms through add_into, never through the model's
integer elements, so it shares no numerator clearing (the lcm and gcd of
whittaker) with the model operations it is the reference for.
Membership is decided here by ad of each z, then of f, the check on all
of n that the package cuts to the z's.
"""

import itertools
import math
from fractions import Fraction

from wsuper.algebra import osp_realization
from wsuper.enveloping import commute, kazhdan_degree, letter_index, straighten
from wsuper.errors import InputError
from wsuper.linalg import Span
from wsuper.whittaker import WhittakerElement, multiply_q, project, supercommutator_q


def dense(v, n):
    """The dict vector v as a tuple of n Fractions."""
    return tuple(Fraction(v.get(i, 0)) for i in range(n))


def sparse(seq):
    """The sequence seq as a dict vector {index: nonzero entry}."""
    return {i: Fraction(c) for i, c in enumerate(seq) if c}


def letter_coords(setup):
    """The letter coordinates of algebra vectors, by elimination over the
    letters: the route the setup's coordinate and bracket rows replace."""
    return Span(setup.letters).coords


def naive_reduce(setup, word, out=None, coeff=Fraction(1)):
    """Free-algebra rewriter: leftmost violation first, pure recursion."""
    if out is None:
        out = {}
    par = setup.letter_parity
    for i in range(len(word) - 1):
        a, b = word[i], word[i + 1]
        if a == b and par[a]:
            for k, ck in setup.letter_bracket(a, a):
                naive_reduce(setup, word[:i] + (k,) + word[i + 2:], out,
                             coeff * ck / 2)
            return out
        if a > b:
            sign = -1 if (par[a] and par[b]) else 1
            naive_reduce(setup, word[:i] + (b, a) + word[i + 2:], out,
                         coeff * sign)
            for k, ck in setup.letter_bracket(a, b):
                naive_reduce(setup, word[:i] + (k,) + word[i + 2:], out,
                             coeff * ck)
            return out
    total = out.get(word, Fraction(0)) + coeff
    if total == 0:
        out.pop(word, None)
    else:
        out[word] = total
    return out


def oracle_rank(rows):
    """Row rank by forward elimination without pivot normalization."""
    m = [[Fraction(x) for x in row] for row in rows]
    if not m:
        return 0
    ncols = len(m[0])
    rank = 0
    used = [False] * len(m)
    for c in range(ncols):
        piv = None
        for r in range(len(m)):
            if not used[r] and m[r][c] != 0:
                piv = r
                break
        if piv is None:
            continue
        used[piv] = True
        rank += 1
        for r in range(len(m)):
            if r != piv and m[r][c] != 0:
                factor = m[r][c] / m[piv][c]
                m[r] = [a - factor * b for a, b in zip(m[r], m[piv])]
    return rank


def oracle_nullity(rows, ncols):
    return ncols - oracle_rank(rows)


# ---- integer supermatrix helpers (gl(m|n) realizations) -------------------

def munit(N, a, b):
    return tuple(tuple(1 if (i, j) == (a, b) else 0 for j in range(N))
                 for i in range(N))


def mat_mul(x, y):
    N = len(x)
    return tuple(tuple(sum(x[i][k] * y[k][j] for k in range(N))
                       for j in range(N)) for i in range(N))


def mat_add(x, y):
    return tuple(tuple(a + b for a, b in zip(rx, ry)) for rx, ry in zip(x, y))


def mat_scale(c, x):
    return tuple(tuple(c * a for a in row) for row in x)


def mat_parity(x, m):
    """0/1/None for block parity of a supermatrix with m even rows."""
    par = None
    N = len(x)
    for i in range(N):
        for j in range(N):
            if x[i][j] != 0:
                p = ((i >= m) + (j >= m)) & 1
                if par is None:
                    par = p
                elif par != p:
                    return None
    return par


def super_bracket(x, y, m):
    """[x,y] = xy - (-1)^{|x||y|} yx on integer supermatrices."""
    px, py = mat_parity(x, m), mat_parity(y, m)
    sign = -1 if (px and py) else 1
    return mat_add(mat_mul(x, y), mat_scale(-sign, mat_mul(y, x)))


def supertrace(x, m):
    N = len(x)
    return sum(x[i][i] for i in range(m)) - sum(x[i][i] for i in range(m, N))


def gl_vector_to_matrix(alg, vec, m, n):
    """Coefficient vector of gl(m|n) back to a matrix of Fractions."""
    N = m + n
    out = [[Fraction(0)] * N for _ in range(N)]
    for idx, c in vec.items():
        a, b = divmod(idx, N)
        out[a][b] += c
    return tuple(tuple(row) for row in out)


def oracle_inverse(rows):
    """Inverse of a square Fraction matrix by Gauss-Jordan; None if singular."""
    n = len(rows)
    m = [[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(n)]
         for i, row in enumerate(rows)]
    for c in range(n):
        piv = next((r for r in range(c, n) if m[r][c] != 0), None)
        if piv is None:
            return None
        m[c], m[piv] = m[piv], m[c]
        m[c] = [x / m[c][c] for x in m[c]]
        for r in range(n):
            if r != c and m[r][c] != 0:
                m[r] = [a - m[r][c] * b for a, b in zip(m[r], m[c])]
    return [row[n:] for row in m]


# ---- the Weyl algebra and the oscillator realisations ----------------------
#
# A_k has generators q_1..q_k, p_1..p_k with [p_i, q_j] = delta_ij.  An
# element is a dict from normal-ordered monomials q^a p^b, keyed by the pair
# of exponent tuples (a, b), to Fractions; it is Z2-graded by total degree.
# sp(2k) acts on A_k through symmetric quadratic elements, and osp(1|2k)
# through those together with the linear (odd) elements.  These realisations
# share no code with the package's enveloping or Whittaker layers.

def weyl_add(x, y, c=1):
    """x + c*y."""
    out = dict(x)
    for key, v in y.items():
        t = out.get(key, Fraction(0)) + c * v
        if t == 0:
            out.pop(key, None)
        else:
            out[key] = t
    return out


def weyl_mul(x, y):
    """Product in A_k, from p_i^b q_i^c = sum_t t! C(b,t) C(c,t) q_i^(c-t) p_i^(b-t)."""
    out = {}
    for (a1, b1), c1 in x.items():
        for (a2, b2), c2 in y.items():
            ranges = [range(min(b, c) + 1) for b, c in zip(b1, a2)]
            for ts in itertools.product(*ranges):
                coeff = c1 * c2
                for t, b, c in zip(ts, b1, a2):
                    coeff *= math.factorial(t) * math.comb(b, t) * math.comb(c, t)
                a = tuple(u + v - t for u, v, t in zip(a1, a2, ts))
                b = tuple(u + v - t for u, v, t in zip(b1, b2, ts))
                out = weyl_add(out, {(a, b): coeff})
    return out


def weyl_parity(x):
    """Total degree mod 2 of a homogeneous element (0 for 0)."""
    pars = {(sum(a) + sum(b)) % 2 for (a, b) in x}
    if len(pars) > 1:
        raise ValueError("element of A_k is not parity-homogeneous")
    return pars.pop() if pars else 0


def weyl_bracket(x, y):
    """xy - (-1)^{|x||y|} yx."""
    sign = -1 if (weyl_parity(x) and weyl_parity(y)) else 1
    return weyl_add(weyl_mul(x, y), weyl_mul(y, x), -sign)


def weyl_scalar(x):
    """The constant of x if x is a scalar, else None."""
    if not x:
        return Fraction(0)
    if len(x) == 1:
        (a, b), c = next(iter(x.items()))
        if not any(a) and not any(b):
            return c
    return None


def symplectic_gram(n):
    """Gram matrix B of the split symplectic form on C^n (n even), the
    anti-diagonal one that osp(m|n) is cut out by: B[i][n-1-i] = +1 for
    i < n/2 and -1 above."""
    half = n // 2
    return [[Fraction(0) if j != n - 1 - i else Fraction(1 if i < half else -1)
             for j in range(n)] for i in range(n)]


def oscillator_linear(u):
    """ell(u) for u in C^n, n = 2k: ell(e_i) = q_i and ell(e_{n-1-i}) = p_i/2
    for i < k, so that [ell(u), ell(v)] = -(u^T B v)/2 with B the split
    symplectic form.  The factor -1/2 is the one for which the odd brackets
    of osp(1|2k) come out right."""
    n = len(u)
    k = n // 2
    out = {}
    for i in range(k):
        mono = tuple(int(j == i) for j in range(k))
        zero = (0,) * k
        if u[i] != 0:
            out = weyl_add(out, {(mono, zero): Fraction(u[i])})
        if u[n - 1 - i] != 0:
            out = weyl_add(out, {(zero, mono): Fraction(u[n - 1 - i], 2)})
    return out


def oscillator_quadratic(A):
    """The symmetric quadratic Q_A with [Q_A, ell(v)] = ell(Av), for A in sp(B):
    Q_A = 1/4 sum_i (ell(A e_i) ell(e^i) + ell(e^i) ell(A e_i)) with the dual
    basis [ell(e^i), ell(e_j)] = delta_ij."""
    n = len(A)
    B = symplectic_gram(n)
    # ell(e^i) = sum_j D[i][j] ell(e_j) with sum_j D[i][j] (-B[j][l]/2) = delta_il
    D = oracle_inverse([[-x / 2 for x in row] for row in B])
    out = {}
    for i in range(n):
        col = [A[r][i] for r in range(n)]
        left = oscillator_linear(col)
        right = oscillator_linear(D[i])
        out = weyl_add(out, weyl_mul(left, right), Fraction(1, 4))
        out = weyl_add(out, weyl_mul(right, left), Fraction(1, 4))
    return out


def oscillator_images(m, n):
    """Images in A_{n/2} of the basis of osp(m|n), m in (0, 1), in the order
    of wsuper.algebra.osp_realization (the basis the catalog algebra uses).

    An even basis matrix acts through its sp(n) block A as Q_A; an odd one
    is ell(u) with u its first column below the 1x1 even block.
    """
    if m not in (0, 1) or n % 2:
        raise ValueError("oscillator realisation needs m in (0, 1), n even")
    gl, vectors = osp_realization(m, n)
    images = []
    for vec in vectors:
        mat = gl_vector_to_matrix(gl, vec, m, n)
        if mat_parity(mat, m) == 0:
            if m and mat[0][0] != 0:
                raise ValueError("even osp(1|n) matrix with a nonzero so(1) block")
            images.append(oscillator_quadratic(
                [[mat[m + i][m + j] for j in range(n)] for i in range(n)]))
        else:
            images.append(oscillator_linear([mat[m + i][0] for i in range(n)]))
    return images


def weyl_image(images, vec):
    """phi(vec) for a coefficient vector, phi linear with phi(b_k) = images[k]."""
    out = {}
    for k, c in vec.items():
        out = weyl_add(out, images[k], c)
    return out


def realisation_failures(alg, images):
    """Basis pairs (i, j) at which phi([b_i, b_j]) != [phi(b_i), phi(b_j)]."""
    bad = []
    for i in range(alg.dim):
        for j in range(alg.dim):
            lhs = weyl_image(images, alg.bracket(alg.basis_vector(i),
                                                 alg.basis_vector(j)))
            if lhs != weyl_bracket(images[i], images[j]):
                bad.append((i, j))
    return bad


def dual_basis(alg):
    """b^i with (b_j, b^i) = delta_ij under alg.form, as coefficient vectors."""
    inv = oracle_inverse([list(col) for col in zip(*dense_form(alg))])
    if inv is None:
        raise ValueError("form is degenerate")
    return [sparse(row) for row in inv]


def weyl_casimir(alg, images):
    """Image of the Casimir sum_i (-1)^{|i|} b_i b^i in A_k, with the dual
    basis of alg.form."""
    out = {}
    for i, dual in enumerate(dual_basis(alg)):
        sign = -1 if alg.parity[i] else 1
        out = weyl_add(out, weyl_mul(images[i], weyl_image(images, dual)), sign)
    return out


# ---- the within-side contraction of the degree-1 commutator ----------------

def x_contraction(setup, w):
    """X(w) = sum_a [z_a, [z*_a, w]], summed from its definition."""
    alg = setup.alg
    out = [Fraction(0)] * setup.dim
    for z, zs in zip(setup.zbasis, setup.zdual):
        for k, c in alg.bracket(z, alg.bracket(zs, w)).items():
            out[k] += c
    return sparse(out)


def within_side_term(setup, w1, w2):
    """chi([X(w1), X(w2)]).

    The closed double sum of the published constant contracts z's across
    the two sides of [Theta_w1, Theta_w2]; this term is the contraction
    within each side, and the degree-1 commutator carries -1/8 of it on
    top of the published scalar.
    """
    return setup.chi(setup.alg.bracket(x_contraction(setup, w1),
                                       x_contraction(setup, w2)))


# ---- B(w1, w2) pair by pair, from its definition ---------------------------

def bw_element(setup, ctx, w1, w2):
    """(B(w1,w2), ([w1,w2],f)): the degree-1 commutator minus its
    structural terms, each Theta taken by ctx.theta and each product and
    commutator formed afresh; the package assembles the same element
    bilinearly as SuiteContext.residue of the pair.

    On the minimal setup B must be a scalar multiple of 1 x 1, namely
    -([w1,w2],f) c0 / 2.
    """
    alg = setup.alg
    p1, p2 = alg.parity_of(w1), alg.parity_of(w2)
    sign = -1 if (p1 and p2) else 1
    out = supercommutator_q(ctx.theta(w1), ctx.theta(w2))
    pair = ctx.pair_value(w1, w2)
    if pair != 0:
        out = out - (ctx.gens[-1].value - ctx.tcas.value).scale(Fraction(pair, 2))
    for a in range(len(setup.zbasis)):
        za, zs = setup.zbasis[a], setup.zdual[a]
        x1 = alg.bracket(w1, za)
        y2 = alg.bracket(zs, w2)
        if x1 and y2:
            out = out + multiply_q(ctx.theta(setup.sharp(x1)),
                                   ctx.theta(setup.sharp(y2))).scale(Fraction(1, 2))
        x2 = alg.bracket(w2, za)
        y1 = alg.bracket(zs, w1)
        if x2 and y1:
            out = out - multiply_q(ctx.theta(setup.sharp(x2)),
                                   ctx.theta(setup.sharp(y1))).scale(Fraction(sign, 2))
    return out, pair


def b_table_by_fractions(ctx):
    """The rows [(B(w_i, w_j), ([w_i, w_j], f)) for j] for i, the g^e(1)
    residues of ctx with their pairings, assembled as before the integer
    path: each B is a copy of the memoised commutator with -pair/2
    (C - ThetaCas) and each M_ij[k,l] product(k, l) added term by term on
    Fractions."""
    setup = ctx.setup
    alg, basis, n0 = setup.alg, setup.cent[1], len(setup.cent[0])

    def add_scaled(terms, c, q):
        for w, v in q.terms.items():
            x = terms.get(w, Fraction(0)) + c * v
            if x == 0:
                terms.pop(w, None)
            else:
                terms[w] = x

    def sharp_coords(x):
        return ctx.coords(setup.sharp(x)) if x else {}

    left = [[sharp_coords(alg.bracket(w, z)) for z in setup.zbasis] for w in basis]
    right = [[sharp_coords(alg.bracket(zs, w)) for zs in setup.zdual] for w in basis]
    c_minus_tcas = ctx.gens[-1].value - ctx.tcas.value
    table = []
    for i, w1 in enumerate(basis):
        row = []
        for j, w2 in enumerate(basis):
            sign = -1 if (alg.parity_of(w1) and alg.parity_of(w2)) else 1
            out = dict(ctx.commutator(n0 + i, n0 + j).terms)
            pair = ctx.pair_value(w1, w2)
            add_scaled(out, Fraction(-pair, 2), c_minus_tcas)
            for x, y, c in ((left[i], right[j], Fraction(1, 2)),
                            (left[j], right[i], Fraction(-sign, 2))):
                for xa, ya in zip(x, y):
                    for k, xk in xa.items():
                        for l, yl in ya.items():
                            add_scaled(out, c * xk * yl, ctx.product(k, l))
            row.append((WhittakerElement(setup, out), pair))
        table.append(row)
    return table


# ---- U(g) elements on Fraction coefficients --------------------------------

def add_into(out, terms):
    """Add the {word: coefficient} map terms into out, dropping the words
    whose sum is zero."""
    for w, c in terms.items():
        c += out.get(w, 0)
        if c:
            out[w] = c
        else:
            out.pop(w, None)


def word_parity(setup, word):
    return sum(setup.letter_parity[i] for i in word) & 1


class EnvElement:
    """Element of U(g) as a sparse map from normal monomials to Fractions.

    Products and commutators straighten each word pair on its own Fraction
    coefficient, so no integer numerators or cleared denominators are
    involved: the reference for the model operations of the package."""

    __slots__ = ("setup", "terms")

    def __init__(self, setup, terms=None):
        self.setup = setup
        self.terms = {} if terms is None else terms

    @classmethod
    def from_letter(cls, setup, i, c=1):
        c = Fraction(c)
        return cls(setup, {(i,): c} if c != 0 else {})

    @classmethod
    def from_word(cls, setup, word, c=1):
        return cls(setup, straighten(setup, [(tuple(word), Fraction(c))]))

    @classmethod
    def from_vector(cls, setup, vec):
        return cls(setup, {(i,): c for i, c in setup.to_letters(vec).items()})

    def __add__(self, other):
        out = dict(self.terms)
        for w, c in other.terms.items():
            v = out.get(w, Fraction(0)) + c
            if v == 0:
                out.pop(w, None)
            else:
                out[w] = v
        return EnvElement(self.setup, out)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return EnvElement(self.setup, {w: -c for w, c in self.terms.items()})

    def scale(self, c):
        c = Fraction(c)
        return EnvElement(self.setup, {w: c * v for w, v in self.terms.items()}
                          if c else {})

    def __mul__(self, other):
        out = {}
        for u, c1 in self.terms.items():
            for v, c2 in other.terms.items():
                add_into(out, straighten(self.setup, [(u + v, c1 * c2)]))
        return EnvElement(self.setup, out)

    def __eq__(self, other):
        return isinstance(other, EnvElement) and self.terms == other.terms

    def is_zero(self):
        return not self.terms

    def parity(self):
        """0/1 for homogeneous elements, None for 0 or mixed."""
        parities = {word_parity(self.setup, w) for w in self.terms}
        return parities.pop() if len(parities) == 1 else None

    def max_kazhdan_degree(self):
        return max((kazhdan_degree(self.setup, w) for w in self.terms), default=0)


def commutator_terms(setup, terms1, terms2):
    """Normal form of [x, y] for sparse word maps x and y, word pair by
    word pair, so mixed parity needs no splitting."""
    out = {}
    for u, c1 in terms1.items():
        for v, c2 in terms2.items():
            add_into(out, commute(setup, [(u, c1 * c2)], letter_index(setup, [(v, 1)])))
    return out


def supercommutator(u, v):
    """uv - (-1)^{|u||v|} vu for parity-homogeneous u, v."""
    pu, pv = u.parity(), v.parity()
    if (pu is None and not u.is_zero()) or (pv is None and not v.is_zero()):
        raise InputError("supercommutator needs parity-homogeneous arguments")
    return EnvElement(u.setup, commutator_terms(u.setup, u.terms, v.terms))


def lift(q):
    """Canonical f-free preimage in U(g) of a model element: the same
    words, already normal."""
    return EnvElement(q.setup, dict(q.terms))


# ---- the closed forms of Theta_w from EnvElement products -------------------

def _theta_w_parts(setup, w):
    """(correction rest, reordered rest, D/3) of Theta_w in U(g), each
    summed from EnvElement products."""
    alg = setup.alg

    def z(alpha):
        return EnvElement.from_letter(setup, setup.z_letter(alpha))

    def vec(v):
        return EnvElement.from_vector(setup, v)

    corr = reord = vec(w)
    third = EnvElement(setup)
    for alpha, zd in enumerate(setup.zdual):
        br = alg.bracket(zd, w)
        if br:
            corr = corr - z(alpha) * vec(br)
            for beta, zd2 in enumerate(setup.zdual):
                br2 = alg.bracket(zd2, br)
                if br2:
                    third = third + (z(alpha) * z(beta) * vec(br2)).scale(Fraction(1, 3))
        br = alg.bracket(w, zd)
        if br:
            sign = -1 if alg.parity_of(setup.zbasis[alpha]) else 1
            reord = reord + (vec(br) * z(alpha)).scale(sign)
    wf = vec(alg.bracket(w, setup.triple.f))
    coeff = Fraction(3 * (setup.sdim - setup.rdim) + 4, 6)
    return corr - wf.scale(Fraction(2, 3)), reord - wf.scale(coeff), third


def theta_w_correction_form(setup, w):
    """Correction form: w - sum z[z*,w] + (sum zz[z*,[z*,w]] - 2[w,f])/3."""
    corr, _, third = _theta_w_parts(setup, w)
    return project(corr + third)


def theta_w_phi_form(setup, w):
    """Reordered form: w + sum (-1)^{|a|}[w,z*_a] z_a + phi_w, with
    phi_w = (sum zz[z*,[z*,w]] - (3(s-r)+4)/2 [w,f]) / 3."""
    _, reord, third = _theta_w_parts(setup, w)
    return project(reord + third)


# ---- the model operations as projections of U(g) elements -------------------

def multiply_by_projection(q1, q2):
    """q1 q2 in the model: the product of the lifts in U(g), projected."""
    return project(lift(q1) * lift(q2))


def commutator_by_projection(q1, q2):
    """[q1, q2] in the model: the U(g) commutator of the lifts, projected."""
    return project(EnvElement(q1.setup, commutator_terms(q1.setup, q1.terms, q2.terms)))


def ad_by_projection(setup, letter, q):
    """ad of a letter of n on the model: the U(g) commutator, projected."""
    return project(EnvElement(setup, commutator_terms(
        setup, {(letter,): Fraction(1)}, q.terms)))


def w_element_by_all_of_n(q):
    """Membership in the ad-n invariants checked on all of n = g(-1) + Cf:
    ad of each z, then of f, each the projected U(g) commutator.  Returns
    (True, None) or (False, (letter_name, residue)) at the first letter
    whose ad is nonzero."""
    setup = q.setup
    for letter in [setup.z_letter(a) for a in range(len(setup.zbasis))] + [setup.idx_f]:
        residue = ad_by_projection(setup, letter, q)
        if not residue.is_zero():
            return False, (setup.letter_names[letter], residue)
    return True, None


# ---- the structure-constant kernel, by the naive double loop ---------------

def dense_bracket(alg, x, y):
    """[x, y] summed over every index pair (i, j) of alg.brackets, for
    dense coefficient tuples x and y."""
    out = [Fraction(0)] * alg.dim
    for i in range(alg.dim):
        for j in range(alg.dim):
            for k, c in alg.brackets.get((i, j), {}).items():
                out[k] += x[i] * y[j] * c
    return tuple(out)


def dense_form(alg):
    """The Gram matrix of alg as dim rows of dim Fractions, zeros included;
    alg.form keeps only its nonzero entries."""
    return [[alg.form.get((i, j), Fraction(0)) for j in range(alg.dim)]
            for i in range(alg.dim)]


def dense_form_value(alg, x, y):
    """(x, y) summed over every entry of the dense Gram matrix, for dense
    coefficient tuples x and y."""
    form = dense_form(alg)
    return sum((x[i] * form[i][j] * y[j]
                for i in range(alg.dim) for j in range(alg.dim)), Fraction(0))


# ---- the algebra axioms, by dense first-failure scans ----------------------

def dense_axiom_checks(alg):
    """check_algebra's (axiom, ok, witness) list, each axiom decided by a
    first-failure scan: the stored pairs for antisymmetry and parity, every
    basis triple for Jacobi and invariance, every pair for the form."""
    n, par, form = alg.dim, alg.parity, dense_form(alg)
    zero = Fraction(0)

    def c(i, j):
        return alg.brackets.get((i, j), {})

    def sign(i, j):
        return -1 if (par[i] and par[j]) else 1

    def first(candidates, fails):
        return next((t for t in candidates if fails(t)), None)

    def stored(keys):
        return [(i, j, k) for (i, j), terms in sorted(alg.brackets.items())
                for k in sorted(keys(i, j, terms))]

    def nested(out, s, a, b, d):
        for m, cm in c(b, d).items():
            for l, cl in c(a, m).items():
                out[l] = out.get(l, zero) + s * cm * cl

    def jacobi_fails(t):
        i, j, k = t
        total = {}
        nested(total, sign(i, k), i, j, k)
        nested(total, sign(j, i), j, k, i)
        nested(total, sign(k, j), k, i, j)
        return any(total.values())

    def invariance_fails(t):
        i, j, k = t
        lhs = sum((cm * form[m][k] for m, cm in c(i, j).items()), zero)
        rhs = sum((form[i][m] * cm for m, cm in c(j, k).items()), zero)
        return lhs != rhs

    triples = list(itertools.product(range(n), repeat=3))
    pairs = list(itertools.product(range(n), repeat=2))
    witnesses = [
        first(stored(lambda i, j, terms: set(terms) | set(c(j, i))),
              lambda t: c(t[0], t[1]).get(t[2], zero)
              != -sign(t[0], t[1]) * c(t[1], t[0]).get(t[2], zero)),
        first(stored(lambda i, j, terms: terms),
              lambda t: c(t[0], t[1])[t[2]] != 0
              and par[t[2]] != (par[t[0]] + par[t[1]]) & 1),
        first(triples, jacobi_fails),
        first(pairs, lambda t: par[t[0]] != par[t[1]] and form[t[0]][t[1]] != 0),
        first(pairs, lambda t: form[t[0]][t[1]] != sign(*t) * form[t[1]][t[0]]),
        first(triples, invariance_fails),
        None if oracle_rank(form) == n else "gram rank < dim",
    ]
    names = ("super_antisymmetry", "parity_additivity", "jacobi", "form_even",
             "form_supersymmetric", "form_invariant", "form_nondegenerate")
    return [(name, w is None, w) for name, w in zip(names, witnesses)]
