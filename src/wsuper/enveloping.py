"""PBW normal-form kernel of U(g) over a minimal setup's letter basis.

A monomial is a tuple of letter indices, non-decreasing in the global
order (g(0), g(1), e, z's, f); odd letters never repeat.  Out-of-order
neighbours a.b rewrite to (-1)^{|a||b|} b.a + [a,b]; an odd square x.x
rewrites to [x,x]/2.  Rewriting scans from the right so the reduction is
a single right-to-left pass for nearly-sorted products.

Elements live in the model (whittaker.WhittakerElement), which also
owns their coefficients; this module works on words only.

A supercommutator of two normal words is expanded by the superderivation
rule into words one letter shorter, so the top terms of uv and vu, which
cancel, are never formed.
"""

from fractions import Fraction


def straighten(setup, word, coeff, sink):
    """Reduce one word to normal form, accumulating into the sink dict."""
    par, rows = setup.letter_parity, setup.bracket_rows
    stack = [(tuple(word), coeff)]
    while stack:
        w, c = stack.pop()
        pos = None
        for i in range(len(w) - 2, -1, -1):
            a, b = w[i], w[i + 1]
            if a > b or (a == b and par[a]):
                pos = i
                break
        if pos is None:
            prev = sink.get(w, 0) + c
            if prev == 0:
                sink.pop(w, None)
            else:
                sink[w] = prev
            continue
        a, b = w[pos], w[pos + 1]
        head, tail = w[:pos], w[pos + 2:]
        if a == b:
            for k, ck in rows[a][a]:
                x = c * ck              # halved exactly: an int stays an int
                stack.append((head + (k,) + tail, x // 2 if type(x) is int
                              and not x & 1 else Fraction(x, 2)))
        else:
            stack.append((head + (b, a) + tail, -c if par[a] and par[b] else c))
            for k, ck in rows[a][b]:
                stack.append((head + (k,) + tail, c * ck))


def straighten_commutator(setup, u, v, c, sink):
    """Accumulate c * [u, v] of two normal words into the sink dict.

    ad is a superderivation, so
    [u, v] = sum_{i,j} (-1)^{|v||u_>i| + |u_i||v_<j|} u_<i v_<j [u_i, v_j] v_>j u_>i,
    and each term is straightened on its own.
    """
    par, rows = setup.letter_parity, setup.bracket_rows
    pv = sum(par[b] for b in v) & 1
    tail_par = 0                        # |u_>i|, walking i from the right
    for i in range(len(u) - 1, -1, -1):
        a = u[i]
        head, tail = u[:i], u[i + 1:]
        sign = pv & tail_par
        row = rows[a]
        for j, b in enumerate(v):
            bracket = row[b]
            if bracket:
                cij = -c if sign else c
                left, right = head + v[:j], v[j + 1:] + tail
                for k, ck in bracket:
                    straighten(setup, left + (k,) + right, cij * ck, sink)
            sign ^= par[a] & par[b]
        tail_par ^= par[a]


def kazhdan_degree(setup, word):
    """Sum of (grade + 2) over the letters of the monomial."""
    return sum(setup.letter_grade[i] + 2 for i in word)


def weight(setup, word):
    """Grade sum over p-letters minus the g(-1) letter count; f contributes 0."""
    total = 0
    for i in word:
        g = setup.letter_grade[i]
        if g >= 0:
            total += g
        elif g == -1:
            total -= 1
    return total
