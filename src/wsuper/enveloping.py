"""PBW normal-form kernel of U(g) over a minimal setup's letter basis.

A monomial is a tuple of letter indices, non-decreasing in the global
order (g(0), g(1), e, z's, f); odd letters never repeat.  Out-of-order
neighbours a.b rewrite to (-1)^{|a||b|} b.a + [a,b]; an odd square x.x
rewrites to [x,x]/2.

Elements live in the model (whittaker.WhittakerElement), which also
owns their coefficients; this module works on (word, coefficient) pairs
and returns {normal word: nonzero coefficient} dicts.  straighten puts
the words into one dict per length, where equal words merge, and expands
the lengths from the longest down.  Each word takes one insertion pass
from the right: a letter out of order is carried right through the
normal suffix, each swap changing only the sign of the word in hand and
each bracket term, one letter shorter, going to the next lower dict; an
odd square ends the word.  A rewrite either removes an inversion in hand
or shortens the word, so a length's dict is complete before it is
expanded, and each distinct word is expanded once per call.

A supercommutator of two sums of normal words is expanded by the
superderivation rule into words one letter shorter, so the top terms of
uv and vu, which cancel, are never formed.  commute takes its right
operand as a letter index (letter_index), which a model element builds
once and keeps for every commutator it is the right operand of, so a
left letter meets only the right letters it has a nonzero bracket with.
Against a right operand that ad n kills in the model, commute walks only
the p-letters of each left word: the terms at its z letters lie in
U(g)(f - 1), as its docstring proves.
"""

from bisect import bisect_left
from fractions import Fraction


def straighten(setup, pairs):
    """The normal form of sum c * w over the (word, c) pairs, read once,
    as {normal word: nonzero coefficient}."""
    par, rows = setup.letter_parity, setup.bracket_rows
    buckets, sink = {}, {}              # length -> {word: summed coefficient}
    for w, c in pairs:
        words = buckets.get(len(w))
        if words is None:
            words = buckets[len(w)] = {}
        words[w] = words.get(w, 0) + c
    for n in range(max(buckets, default=0), -1, -1):
        lower = buckets.setdefault(n - 1, {})
        for w, c in buckets.pop(n, {}).items():
            if not c:
                continue
            for i in range(n - 2, -1, -1):      # w[i + 1:] is normal
                a, b = w[i], w[i + 1]
                if a < b or (a == b and not par[a]):
                    continue
                # carry a right past b = w[j]: the word in hand is
                # head + w[i + 1:j] + (a,) + w[j:]
                row, pa, head, j = rows[a], par[a], w[:i], i + 1
                while True:
                    terms = row[b]
                    if terms:
                        left, right = head + w[i + 1:j], w[j + 1:]
                        for k, ck in terms:
                            x = c * ck
                            if a == b:  # an odd square: a.a = [a, a]/2, halved exactly
                                x = x // 2 if type(x) is int and not x & 1 else Fraction(x, 2)
                            v = left + (k,) + right
                            lower[v] = lower.get(v, 0) + x
                    if a == b:          # ... which ends the word
                        c = 0
                        break
                    if pa and par[b]:
                        c = -c
                    j += 1
                    if j == n:
                        break
                    b = w[j]
                    if a < b or (a == b and not pa):
                        break
                if not c:
                    break
                w = head + w[i + 1:j] + (a,) + w[j:]
            else:
                c += sink.get(w, 0)
                if c:
                    sink[w] = c
                else:
                    del sink[w]
    return sink


def letter_index(setup, pairs):
    """The (v, d) pairs of a sum of normal words indexed by letter:
    b -> [(v_<j, v_>j, d, |v|, |v_<j|)] for each v_j = b."""
    par = setup.letter_parity
    index = {}
    for v, d in pairs:
        pv, pre = sum(par[b] for b in v) & 1, 0
        for j, b in enumerate(v):
            index.setdefault(b, []).append((v[:j], v[j + 1:], d, pv, pre))
            pre ^= par[b]
    return index


def commute(setup, left, index, invariant=False):
    """The normal form of [x, y], for x the sum of c * u over the (u, c)
    pairs of left and y the sum whose letter_index is index, all words
    normal.

    ad is a superderivation, so on two words
    [u, v] = sum_{i,j} (-1)^{|v||u_>i| + |u_i||v_<j|} u_<i v_<j [u_i, v_j] v_>j u_>i.
    Walking each u from the right, a letter a visits only the index
    letters b with [a, b] != 0.  Every term goes onto one list, which one
    straighten reduces.

    invariant says that y is the f-free lift Q of a model element that
    ad n kills, [z, Q] in I = U(g)(f - 1) for each z in g(-1), as
    whittaker.is_w_element checked; the words of x must then be f-free.
    Each u is walked over its p-letters only, u[:bisect_left(u, z_start)],
    and the result differs from [x, y] by an element of I, so the two
    project to the same model element.  Proof: u = u_p u_z, u_z its run
    of z letters, and [u, Q] = sum_i +- u_<i [u_i, Q] u_>i.  At a z letter
    u_i, u_>i holds z letters only, which commute with f since
    [g(-1), g(-2)] lies in g(-3) = 0; so with [u_i, Q] = A(f - 1),
    [u_i, Q] u_>i = A u_>i (f - 1) lies in I, and so does u_<i times it.
    The sign of a p-letter term still counts the skipped z letters in
    |u_>i|.
    """
    par, rows, z = setup.letter_parity, setup.bracket_rows, setup.z_start
    stack, hits = [], {}        # hits: a -> [([a, b], index[b])] over [a, b] != 0
    push = stack.append
    for u, c in left:
        n = bisect_left(u, z) if invariant else len(u)
        tail_par = sum(par[b] for b in u[n:]) & 1       # |u_>i|, walking i from the right
        for i in range(n - 1, -1, -1):
            a = u[i]
            visits = hits.get(a)
            if visits is None:
                row = rows[a]
                visits = hits[a] = [(row[b], entries) for b, entries in index.items()
                                    if row[b]]
            pa, head, tail = par[a], u[:i], u[i + 1:]
            for bracket, entries in visits:
                for vl, vr, d, pv, pre in entries:
                    x = c * d
                    if (pv & tail_par) ^ (pa & pre):
                        x = -x
                    lw, rw = head + vl, vr + tail
                    for k, ck in bracket:
                        push((lw + (k,) + rw, x * ck))
            tail_par ^= pa
    return straighten(setup, stack)


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
