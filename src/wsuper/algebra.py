"""Finite-dimensional Lie superalgebras over exact rationals.

A SuperAlgebra is a basis with parities, sparse structure constants and an
even supersymmetric invariant bilinear form.  Built-in families: gl(m|n),
sl(m|n) with m != n, osp(m|n) with n even, and psl22 = sl(2|2)/CI on a
fixed 14-dimensional complement of the identity.  Anything else comes in
through a structure-constant table (import_table / export_table).

Supercommutator convention throughout: [x,y] = xy - (-1)^{|x||y|} yx.
"""

from copy import copy
from fractions import Fraction

from .errors import DegeneracyError, InputError, TableError, ValidationError
from .linalg import Span, int_entries, int_if_integral, nullspace, rank, transpose

EVEN, ODD = 0, 1


class SuperAlgebra:
    """Z2-graded Lie algebra given by structure constants over Q.

    brackets stores every nonzero pair: brackets[(i,j)] = {k: c_ij^k}, and
    form stores every nonzero Gram entry the same way: form[(i,j)] =
    (x_i, x_j), a zero entry given to the constructor being dropped; both
    hold ints where integral.  A vector is a dict {basis index: nonzero
    coefficient}.  Instances are immutable after construction and safe to share.
    """

    def __init__(self, name, parity, brackets, form, basis_names=None):
        self.name = name
        self.parity = tuple(int(p) & 1 for p in parity)
        self.dim = len(self.parity)
        self.brackets = {k: int_entries(v) for k, v in brackets.items() if v}
        self._rows = {}                   # i -> {j: brackets[(i, j)]}
        for (i, j), terms in self.brackets.items():
            self._rows.setdefault(i, {})[j] = terms
        self._indices = frozenset(range(self.dim))
        self._set_form(form)
        if basis_names is None:
            basis_names = tuple("x%d" % i for i in range(self.dim))
        self.basis_names = tuple(basis_names)

    def _set_form(self, form):
        self.form = {k: int_if_integral(Fraction(g)) for k, g in sorted(form.items()) if g}
        self._gram = {}                   # i -> {j: form[(i, j)]}
        for (i, j), g in self.form.items():
            self._gram.setdefault(i, {})[j] = g

    def basis_vector(self, i):
        return {i: 1}

    def _check(self, *vectors):
        for v in vectors:
            if not v.keys() <= self._indices:
                raise InputError("vector index outside range(%d)" % self.dim)

    def bracket(self, x, y):
        """[x, y] for dict vectors; Koszul signs live in the constants."""
        self._check(x, y)
        out = {}
        for i, xi in x.items():
            row = self._rows.get(i)
            if not row:
                continue
            for j, yj in y.items():
                terms = row.get(j)
                if terms:
                    c = xi * yj
                    for k, ck in terms.items():
                        out[k] = out.get(k, 0) + c * ck
        return {k: c for k, c in out.items() if c}

    def form_value(self, x, y):
        """(x, y), walking the nonzero Gram entries of each x_i."""
        self._check(x, y)
        acc = 0
        for i, xi in x.items():
            for j, g in self._gram.get(i, {}).items():
                if j in y:
                    acc += xi * g * y[j]
        return acc

    def parity_of(self, x):
        """Parity of a homogeneous vector; None for 0 or mixed."""
        self._check(x)
        pars = {self.parity[i] for i, c in x.items() if c}
        return pars.pop() if len(pars) == 1 else None

    def rescaled_form(self, c):
        """The same algebra with its form scaled by c; the brackets are shared."""
        out = copy(self)
        out._set_form({k: c * g for k, g in self.form.items()})
        return out

    def __repr__(self):
        ne = sum(1 for p in self.parity if p == EVEN)
        return "SuperAlgebra(%s, dim=%d=%d+%d)" % (
            self.name, self.dim, ne, self.dim - ne)


def normalized_form(alg, e, f):
    """Rescale the form so that (e, f) = 1."""
    ef = alg.form_value(e, f)
    if ef == 0:
        raise DegeneracyError("(e,f) = 0; wrong choice of e or f")
    return alg.rescaled_form(Fraction(1, ef))


# ---------------------------------------------------------------------------
# diagnostics

class AlgebraReport:
    """Pass/fail per axiom, with the least counterexample as witness."""

    AXIOMS = ("super_antisymmetry", "parity_additivity", "jacobi",
              "form_even", "form_supersymmetric", "form_invariant",
              "form_nondegenerate")

    def __init__(self, checks):
        self.checks = checks  # list of (axiom, ok, witness-or-None)

    @property
    def ok(self):
        return all(c[1] for c in self.checks)

    def first_failure(self):
        for name, ok, witness in self.checks:
            if not ok:
                return name, witness
        return None

    def lines(self):
        out = []
        for name, ok, witness in self.checks:
            line = "%-20s %s" % (name, "pass" if ok else "FAIL")
            if witness:
                line += "  witness=%s" % (witness,)
            out.append(line)
        return out


def check_algebra(alg):
    """Verify every axiom exactly on the structure constants and the Gram
    matrix; the witness of a failed axiom is its least failing candidate.

    The scans read the stored constants and Gram entries as they are, ints
    where integral.  Jacobi and invariance are accumulated over the nonzero
    products only: a triple that receives no contribution has every term
    zero and cannot fail, so the scans stay exhaustive at a cost that
    follows the nonzeros.
    """
    n, par = alg.dim, alg.parity
    brackets, gram, form = alg.brackets, alg._gram, alg.form

    def c(i, j):                          # c(i, j) = {k: c_ij^k}
        return brackets.get((i, j), {})

    def sign(i, j):
        return -1 if (par[i] and par[j]) else 1

    def jacobi_witness():
        # J(i,j,k) = sum over the rotations (a,b,d) of (i,j,k) of
        # (-1)^{|a||d|} [x_a,[x_b,x_d]]: each nested bracket, formed once
        # from the stored pairs (b,d) and (a,m), goes to the least rotation
        # of (a,b,d), since J is the same on the three
        by_right = {}                     # m -> [(a, c_am)]
        for (a, m), terms in brackets.items():
            by_right.setdefault(m, []).append((a, terms))
        totals = {}                       # (i, j, k, l) -> coefficient of x_l
        for (b, d), bd in brackets.items():
            for m, cm in bd.items():
                for a, am in by_right.get(m, ()):
                    s = -cm if par[a] and par[d] else cm
                    rot = min((a, b, d), (d, a, b), (b, d, a))
                    for l, cl in am.items():
                        t, v = rot + (l,), s * cl
                        totals[t] = totals[t] + v if t in totals else v
        return min((t[:3] for t, v in totals.items() if v), default=None)

    def invariance_witness():
        # ([x_i, x_j], x_k) - (x_i, [x_j, x_k]): the first term from the
        # stored pairs (i,j) and the Gram rows, the second from the stored
        # pairs (j,k) and the Gram columns
        columns = {}                      # m -> [(i, form[(i, m)])]
        for (i, m), g in form.items():
            columns.setdefault(m, []).append((i, g))
        totals = {}
        for (i, j), terms in brackets.items():
            for m, cm in terms.items():
                for k, g in gram.get(m, {}).items():
                    t, v = (i, j, k), cm * g
                    totals[t] = totals[t] + v if t in totals else v
        for (j, k), terms in brackets.items():
            for m, cm in terms.items():
                for i, g in columns.get(m, ()):
                    t, v = (i, j, k), -g * cm
                    totals[t] = totals[t] + v if t in totals else v
        return min((t for t, v in totals.items() if v), default=None)

    witnesses = (
        # c_ij^k = -(-1)^{|i||j|} c_ji^k; a pair whose mirror is not stored
        # is reached from the stored side
        min(((i, j, k) for (i, j), terms in brackets.items()
             for k in terms.keys() | c(j, i).keys()
             if terms.get(k, 0) != -sign(i, j) * c(j, i).get(k, 0)), default=None),
        # a stored term may hold an explicit zero, which has no parity
        min(((i, j, k) for (i, j), terms in brackets.items()
             for k, ck in terms.items()
             if ck and par[k] != (par[i] + par[j]) & 1), default=None),
        jacobi_witness(),
        min((t for t in form if par[t[0]] != par[t[1]]), default=None),
        # a pair with both Gram entries zero passes both form scans; a pair
        # and its mirror fail together, so a stored entry stands for both
        min((min((i, j), (j, i)) for (i, j), g in form.items()
             if g != sign(i, j) * form.get((j, i), 0)), default=None),
        invariance_witness(),
        None if rank(gram.values()) == n else "gram rank < dim",
    )
    return AlgebraReport([(name, witness is None, witness)
                          for name, witness in zip(AlgebraReport.AXIOMS, witnesses)])


# ---------------------------------------------------------------------------
# matrix families

def _gl_index(m, n, a, b):
    return a * (m + n) + b


def _check_size(family, m, n, least=1):
    if m < 0 or n < 0:
        raise InputError("%s(m|n) needs m, n >= 0" % family)
    if m + n < least:
        raise InputError("%s(m|n) needs m+n >= %d" % (family, least))


def build_gl(m, n):
    """gl(m|n) on elementary matrices E[a,b]; form = supertrace."""
    _check_size("gl", m, n)
    N = m + n
    pidx = [EVEN] * m + [ODD] * n
    parity = []
    names = []
    for a in range(N):
        for b in range(N):
            parity.append((pidx[a] + pidx[b]) & 1)
            names.append("E[%d,%d]" % (a, b))
    # [E[a,b], E[c,d]] = delta_bc E[a,d] - (-1)^{|i||j|} delta_da E[c,b] is
    # nonzero only for c = b or d = a: 2N^3 pairs, visited in sorted order
    brackets = {}
    for i in range(N * N):
        a, b = divmod(i, N)
        for j in sorted({b * N + d for d in range(N)} | {c * N + a for c in range(N)}):
            c, d = divmod(j, N)
            terms = {a * N + d: 1} if b == c else {}
            if d == a:
                k = c * N + b
                if k in terms:            # i = j = E[a,a]: the terms cancel
                    continue
                terms[k] = 1 if parity[i] and parity[j] else -1
            brackets[(i, j)] = terms
    # str(E[a,b] E[c,d]) = delta_bc delta_ad (-1)^{p(a)}
    form = {(_gl_index(m, n, a, b), _gl_index(m, n, b, a)):
            1 if pidx[a] == EVEN else -1 for a in range(N) for b in range(N)}
    return SuperAlgebra("gl(%d|%d)" % (m, n), parity, brackets, form, names)


def subalgebra(amb, vectors, name, names=None, span=None):
    """Structure constants of a bracket-closed subspace of amb.

    vectors must be parity-homogeneous and linearly independent; the form
    is the restriction of the ambient form.  span is Span(vectors) when
    the caller has factored it already.  A span that extends vectors by
    an ideal gives the quotient by it: coordinates on the span vectors at
    or beyond len(vectors) are dropped.
    """
    dim = len(vectors)
    parity = []
    for v in vectors:
        p = amb.parity_of(v)
        if p is None:
            raise ValidationError("subalgebra basis vector not parity-homogeneous")
        parity.append(p)
    if span is None:
        try:
            span = Span(vectors)
        except ValueError:
            raise ValidationError("subalgebra basis vectors are linearly dependent") from None
    brackets = {}
    for (i, j), product in pair_products(amb, vectors):
        terms = span.coords(product)
        if terms is None:
            raise ValidationError(
                "subspace not closed under bracket at pair (%d,%d)" % (i, j))
        terms = {k: c for k, c in terms.items() if k < dim}
        if terms:
            brackets[(i, j)] = terms
    return SuperAlgebra(name, parity, brackets, restricted_form(amb, vectors), names)


def pair_products(amb, vectors):
    """Yield ((i, j), [v_i, v_j]) over the nonzero products of the vectors,
    in sorted (i, j) order.  Each sums v_i[a] v_j[b] [x_a, x_b] over amb's
    stored pairs, through an index of where each ambient coordinate is
    nonzero among the vectors, in ints where the vectors and constants are;
    one row of products is held at a time."""
    holders = transpose(vectors)          # b -> {j: vectors[j][b]}
    for i, u in enumerate(vectors):
        row = {}                          # j -> [v_i, v_j] in amb
        for a, ua in u.items():
            for b, ab in amb._rows.get(a, {}).items():
                for j, vb in holders.get(b, {}).items():
                    c, out = ua * vb, row.setdefault(j, {})
                    for k, ck in ab.items():
                        out[k] = out.get(k, 0) + c * ck
        for j in sorted(row):
            product = {k: c for k, c in row[j].items() if c}
            if product:
                yield (i, j), product


def restricted_form(amb, vectors, right=None):
    """The Gram matrix of amb's form on the vectors, {(i, j): (v_i, v_j)}
    over its nonzero entries in sorted order, or with right given, the
    cross Gram {(i, j): (v_i, right_j)}.  The ambient Gram rows of each
    v_i's nonzeros meet an index of where each ambient coordinate is
    nonzero among the right vectors, so the cost follows the nonzeros."""
    holders = transpose(vectors if right is None else right)   # b -> {j: right_j[b]}
    form = {}
    for i, u in enumerate(vectors):
        for a, ua in u.items():
            for b, g in amb._gram.get(a, {}).items():
                for j, vb in holders.get(b, {}).items():
                    form[i, j] = form.get((i, j), 0) + ua * g * vb
    return {k: g for k, g in sorted(form.items()) if g}


def _sl_vectors(m, n):
    """Basis of sl(m|n) inside gl(m|n): supertraceless diagonals first."""
    N = m + n
    gl = build_gl(m, n)
    vectors = []
    names = []
    pidx = [EVEN] * m + [ODD] * n
    for a in range(N - 1):
        # E[a,a] -+ E[a+1,a+1], sign chosen to kill the supertrace
        vectors.append({_gl_index(m, n, a, a): 1,
                        _gl_index(m, n, a + 1, a + 1): -1 if pidx[a] == pidx[a + 1] else 1})
        names.append("D[%d]" % a)
    for a in range(N):
        for b in range(N):
            if a != b:
                vectors.append(gl.basis_vector(_gl_index(m, n, a, b)))
                names.append("E[%d,%d]" % (a, b))
    return gl, vectors, names


def build_sl(m, n):
    """sl(m|n), m != n (at m = n the supertrace form degenerates)."""
    _check_size("sl", m, n, 2)
    if m == n:
        raise InputError("sl(m|n) requires m != n; use psl22 for sl(2|2)/CI")
    gl, vectors, names = _sl_vectors(m, n)
    return subalgebra(gl, vectors, "sl(%d|%d)" % (m, n), names)


def build_psl22():
    """sl(2|2)/CI on the complement spanned by h, H1 and the 12 root vectors.

    The diagonal of sl(2|2) is 3-dimensional and h + 2*H1 - H2 = I, so one
    diagonal direction is redundant in the quotient: D[2] = H2 is dropped,
    and every bracket is reduced modulo CI, the last vector of the span.
    The supertrace form descends, since I is in its radical on sl(2|2).
    """
    gl, vectors, names = _sl_vectors(2, 2)
    vectors = vectors[:2] + vectors[3:]
    ident = dict.fromkeys((_gl_index(2, 2, a, a) for a in range(4)), 1)
    return subalgebra(gl, vectors, "psl(2|2)", ["h", "H1"] + names[3:],
                      Span(vectors + [ident]))


def _osp_form(m, n):
    """The defining split form B on C^(m|n), by the one nonzero of each
    row: row u holds B[u][u'] at u', and u'' = u.  Symmetric anti-diagonal
    on the even part, symplectic anti-diagonal on the odd."""
    return ([(m - 1 - u, 1) for u in range(m)]
            + [(m + n - 1 - i, 1 if i < n // 2 else -1) for i in range(n)])


def osp_realization(m, n):
    """(gl(m|n), list of matrices spanning osp(m|n)) for even n."""
    _check_size("osp", m, n)
    if n % 2 != 0:
        raise InputError("osp(m|n) requires even n")
    N = m + n
    gl = build_gl(m, n)
    form = _osp_form(m, n)                # u -> (u', B[u][u'])
    pidx = [EVEN] * m + [ODD] * n
    vectors = []
    for apar in (EVEN, ODD):
        # unknown entries of a parity-homogeneous matrix
        slots = [(a, b) for a in range(N) for b in range(N)
                 if ((pidx[a] + pidx[b]) & 1) == apar]
        index = {ab: idx for idx, ab in enumerate(slots)}
        rows = []
        for v in range(N):
            for w in range(N):
                (pv, bv), pw, row = form[v], form[w][0], {}
                # (A^T B)_{vw} = sum_u A_{uv} B_{uw} = A_{w'v} B_{w'w}
                if (pw, v) in index:
                    row[index[pw, v]] = form[pw][1]
                # (-1)^{|A| p(v)} (B A)_{vw} = sum_u B_{vu} A_{uw} = B_{vv'} A_{v'w}
                if (pv, w) in index:
                    idx = index[pv, w]
                    row[idx] = row.get(idx, 0) + (-bv if apar and pidx[v] else bv)
                rows.append({idx: x for idx, x in sorted(row.items()) if x})
        for sol in nullspace(rows, len(slots)):
            vectors.append({_gl_index(m, n, *slots[idx]): c
                            for idx, c in sorted(sol.items())})
    return gl, vectors


def build_osp(m, n):
    """osp(m|n) for even n, cut out of gl(m|n) by the split form."""
    gl, vectors = osp_realization(m, n)
    names = ["M%d" % i for i in range(len(vectors))]
    return subalgebra(gl, vectors, "osp(%d|%d)" % (m, n), names)


# ---------------------------------------------------------------------------
# structure-constant documents

def _frac_to_doc(x):
    return {"num": str(x.numerator), "den": str(x.denominator)}


def _frac_from_doc(obj, where):
    if not isinstance(obj, dict) or "num" not in obj or "den" not in obj:
        raise TableError("%s: expected {num, den}" % where)
    try:
        num = int(str(obj["num"]), 10)
        den = int(str(obj["den"]), 10)
    except ValueError:
        raise TableError("%s: num/den must be decimal integer strings" % where)
    if den <= 0:
        raise TableError("%s: denominator must be positive" % where)
    return Fraction(num, den)


def export_table(alg):
    """Lossless JSON-able document; omitted entries are zero."""
    doc = {
        "name": alg.name,
        "dim": alg.dim,
        "parity": list(alg.parity),
        "brackets": [],
        "form": [],
    }
    for (i, j) in sorted(alg.brackets):
        terms = alg.brackets[(i, j)]
        doc["brackets"].append({
            "i": i, "j": j,
            "terms": [dict(k=k, **_frac_to_doc(terms[k])) for k in sorted(terms)],
        })
    for (i, j), g in alg.form.items():
        doc["form"].append(dict(i=i, j=j, **_frac_to_doc(g)))
    return doc


def _doc_list(items, where, kind):
    """items, checked to be a JSON list of kind entries."""
    if not isinstance(items, list):
        raise TableError("%s: expected a list" % where)
    for pos, x in enumerate(items):
        # bool is an int subclass, but a JSON true/false is never an entry
        if not isinstance(x, kind) or isinstance(x, bool):
            raise TableError("%s[%d]: expected %s" % (where, pos, kind.__name__))
    return items


def _doc_index(ent, key, dim, where):
    """ent[key] as an index below dim: a JSON integer, not a bool, float
    or string, which int() would truncate or coerce."""
    x = ent.get(key)
    if type(x) is not int:
        raise TableError("%s: %s must be an integer" % (where, key))
    if not 0 <= x < dim:
        raise TableError("%s: index %s out of range" % (where, key))
    return x


def import_table(doc):
    """Parse and fully validate a structure-constant document; the passing
    AlgebraReport is kept as alg.report."""
    if not isinstance(doc, dict):
        raise TableError("document: expected an object")
    for key in ("name", "dim", "parity", "brackets", "form"):
        if key not in doc:
            raise TableError("missing key %r" % key)
    if not isinstance(doc["name"], str):
        raise TableError("name: expected a string")
    dim = doc["dim"]
    if type(dim) is not int or dim <= 0:
        raise TableError("dim: expected positive integer")
    parity = _doc_list(doc["parity"], "parity", int)
    if len(parity) != dim or any(p not in (0, 1) for p in parity):
        raise TableError("parity: expected a list of dim entries in {0,1}")
    brackets, first = {}, {}            # key -> position of its first entry

    def once(key, where):
        if first.setdefault(key, where) != where:
            raise TableError("%s: repeats the key of %s" % (where, first[key]))
    for pos, ent in enumerate(_doc_list(doc["brackets"], "brackets", dict)):
        where = "brackets[%d]" % pos
        i, j = _doc_index(ent, "i", dim, where), _doc_index(ent, "j", dim, where)
        once(("brackets", i, j), where)
        terms = {}
        for tpos, t in enumerate(_doc_list(ent.get("terms", []),
                                           where + ".terms", dict)):
            twhere = "%s.terms[%d]" % (where, tpos)
            k = _doc_index(t, "k", dim, twhere)
            once((where, k), twhere)
            val = _frac_from_doc(t, twhere)
            if val != 0:
                terms[k] = val
        if terms:
            brackets[(i, j)] = terms
    form = {}
    for pos, ent in enumerate(_doc_list(doc["form"], "form", dict)):
        where = "form[%d]" % pos
        i, j = _doc_index(ent, "i", dim, where), _doc_index(ent, "j", dim, where)
        once(("form", i, j), where)
        form[i, j] = _frac_from_doc(ent, where)
    if not any(form.values()):
        raise TableError("form: missing or identically zero")
    alg = SuperAlgebra(doc["name"], parity, brackets, form)
    alg.report = report = check_algebra(alg)
    if not report.ok:
        name, witness = report.first_failure()
        raise ValidationError("imported table violates %s at %s" % (name, witness))
    return alg
