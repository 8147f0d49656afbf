"""Exact linear algebra: nullspaces over fields, fraction-free determinants,
and elementary divisors of Laurent-polynomial matrices.

Matrices are plain lists of row lists.  Field entries are whatever the domain
object uses (ints for GF(p), Fraction for the rationals); polynomial matrices
hold :class:`~lapgraph.laurent.LaurentPoly` entries with integer
coefficients.  :func:`rref` eliminates on integer rows over every field and
divides by the pivots only at the end.  Every determinant is one
fraction-free elimination on sparse integer rows, and :func:`det_laurent`
reads a Laurent determinant off it by Kronecker substitution.  A coefficient
domain enters only at the gcd fold of :func:`elementary_divisor`, which stops
at the first unit gcd.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from math import gcd, lcm

from .fields import Domain, PrimeField
from .laurent import LaurentPoly, gcd_many

Matrix = list[list]


def _check_rect(M: Matrix):
    if M and any(len(r) != len(M[0]) for r in M):
        raise ValueError("ragged matrix")


def transpose(M: Matrix) -> Matrix:
    return [list(col) for col in zip(*M)] if M else []


def rref(M: Matrix, field: Domain) -> tuple[Matrix, list[int]]:
    """Reduced row echelon form over a field; leftmost-nonzero pivot rule.

    One elimination on integer rows serves every field.  The field enters on
    entry (a QQ row is scaled by the lcm of its denominators; a GF(p) entry
    goes through ``field.of``, which rejects a denominator divisible by p), at
    each step row_i <- piv*row_i - a*row_r (then divided by its content over
    QQ, or reduced mod p) and on exit, where each pivot row is divided by its
    pivot and zero rows are filled with ``field.zero``.  The reduced form is
    unique, so this equals Gauss-Jordan in the field's own arithmetic,
    coefficient types included.  Returns (R, pivot_columns) and leaves M
    alone; a ragged matrix or a non-field domain raises ValueError.
    """
    _check_rect(M)
    if not field.is_field:
        raise ValueError(f"rref needs a field, not {field!r}")
    p = field.p if isinstance(field, PrimeField) else 0
    if p:
        of = field.of
        R = [[of(v) for v in row] for row in M]
    else:
        R = []
        for row in M:
            den = lcm(*(v.denominator for v in row))
            R.append([v.numerator * (den // v.denominator) for v in row])
    nrows = len(R)
    ncols = len(R[0]) if R else 0
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        sel = next((i for i in range(r, nrows) if R[i][c]), None)
        if sel is None:
            continue
        R[r], R[sel] = R[sel], R[r]
        prow = R[r]
        piv = prow[c]
        for i in range(nrows):
            a = R[i][c]
            if a and i != r:
                if p:
                    R[i] = [(piv * x - a * y) % p for x, y in zip(R[i], prow)]
                    continue
                row = [piv * x - a * y for x, y in zip(R[i], prow)]
                g = gcd(*row)
                R[i] = [x // g for x in row] if g > 1 else row
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    for i, c in enumerate(pivots):
        piv = R[i][c]
        if p:
            inv = field.inv(piv)
            R[i] = [v * inv % p for v in R[i]]
        else:
            R[i] = [Fraction(v, piv) for v in R[i]]
    for i in range(r, nrows):
        R[i] = [field.zero] * ncols
    return R, pivots


def nullspace(M: Matrix, field: Domain) -> list[list]:
    """Basis of the right kernel of M over a field.

    One basis vector per free column, in column order: the vector has 1 at its
    free column, the negated reduced-echelon entries at the pivot columns, and
    0 elsewhere.  Deterministic for a given input.
    """
    _check_rect(M)
    ncols = len(M[0]) if M else 0
    R, pivots = rref(M, field)
    pivot_set = set(pivots)
    free = [c for c in range(ncols) if c not in pivot_set]
    basis = []
    for fc in free:
        v = [field.zero] * ncols
        v[fc] = field.one
        for i, pc in enumerate(pivots):
            v[pc] = field.of(-R[i][fc])
        basis.append(v)
    return basis


def row_space_canonical(vectors: list[list], field: Domain) -> list[list]:
    """Canonical basis (nonzero rref rows) of the span of the given vectors."""
    if not vectors:
        return []
    R, pivots = rref(vectors, field)
    return [R[i] for i in range(len(pivots))]


# -- sparse fraction-free determinants -----------------------------------------


def _cuthill_mckee(adj: list[set[int]]) -> list[int]:
    """Cuthill–McKee order of a symmetric nonzero pattern.

    Breadth-first search from a least-degree index of each component, visiting
    unseen neighbours by increasing degree (ties by index).  A graph-like
    matrix, such as a cover's or a box's Laplacian, gets a small bandwidth.
    """
    deg = [len(a) for a in adj]
    seen = [False] * len(adj)
    order: list[int] = []
    for start in sorted(range(len(adj)), key=deg.__getitem__):
        if seen[start]:
            continue
        seen[start] = True
        order.append(start)
        head = len(order) - 1
        while head < len(order):
            for w in sorted(adj[order[head]], key=lambda w: (deg[w], w)):
                if not seen[w]:
                    seen[w] = True
                    order.append(w)
            head += 1
    return order


def _bareiss(rows: list[dict]) -> int:
    """Determinant of a square integer matrix as sparse rows {column: nonzero entry}.

    Fraction-free (Bareiss) elimination on the rows in Cuthill–McKee order.
    The reordering is a symmetric permutation, so it keeps the determinant,
    and on a banded pattern the fill stays inside the band.  Step k updates
    only the rows with a nonzero in column k.  Every other row owes the factor
    p_k / p_{k-1} (p_k the k-th pivot) and is scaled once, by the telescoped
    product, when it is next touched.  Every Bareiss entry is a minor of the
    matrix, so each division is exact.  A zero pivot is swapped with the first
    lower row that has a nonzero in its column.
    """
    n = len(rows)
    cols = range(n)
    adj: list[set[int]] = [set() for _ in cols]
    for i, row in enumerate(rows):
        for j in row:
            if j != i:
                adj[i].add(j)
                adj[j].add(i)
    order = _cuthill_mckee(adj)
    where = [0] * n
    for new, old in enumerate(order):
        where[old] = new
    rows = [{where[j]: v for j, v in rows[i].items()} for i in order]
    # below[j]: rows not yet pivoted with a nonzero in column j
    below: list[set[int]] = [set() for _ in cols]
    for i, row in enumerate(rows):
        for j in row:
            below[j].add(i)
    # p[t] is the pivot of step t - 1 (p[0] = 1); a row at level t holds the
    # entries of the Bareiss matrix after t steps
    p = [1]
    level = [0] * n
    sign = 1

    def catch_up(i: int, k: int) -> dict:
        row = rows[i]
        if p[level[i]] != p[k]:
            num, den = p[k], p[level[i]]
            for j, v in row.items():
                row[j] = v * num // den
        level[i] = k
        return row

    for k in cols:
        if k not in rows[k]:
            if not below[k]:
                return 0
            sel = min(below[k])
            for i in (k, sel):
                for j in rows[i]:
                    below[j].discard(i)
            rows[k], rows[sel] = rows[sel], rows[k]
            level[k], level[sel] = level[sel], level[k]
            for i in (k, sel):
                for j in rows[i]:
                    below[j].add(i)
            sign = -sign
        row_k = catch_up(k, k)
        pivot = row_k.pop(k)
        for j in row_k:
            below[j].discard(k)
        below[k].discard(k)
        prev = p[k]
        p.append(pivot)
        for i in below[k]:
            row_i = catch_up(i, k)
            a = row_i.pop(k)
            for j, v in row_i.items():
                row_i[j] = pivot * v
            for j, v in row_k.items():
                w = row_i.get(j, 0) - a * v
                if w:
                    if j not in row_i:
                        below[j].add(i)
                    row_i[j] = w
                else:
                    del row_i[j]
                    below[j].discard(i)
            if prev != 1:
                for j, v in row_i.items():
                    row_i[j] = v // prev
            level[i] = k + 1
    return sign * p[n]


def int_det(rows: list[dict[int, int]]) -> int:
    """Exact determinant of a square integer matrix given as sparse rows
    {column: entry}, by :func:`_bareiss` on a copy without the zero entries.
    The order is the number of rows.  A column outside 0..n-1, or a nonzero
    entry that is not an int, raises ValueError: a Fraction or float would be
    truncated."""
    n = len(rows)
    for row in rows:
        for j, v in row.items():
            if not (isinstance(j, int) and 0 <= j < n):
                raise ValueError(f"determinant needs columns in 0..{n - 1}, got {j!r}")
            if v and not isinstance(v, int):
                raise ValueError(f"determinant needs integer entries, got {v!r}")
    return _bareiss([{j: v for j, v in row.items() if v} for row in rows])


# -- Laurent-polynomial determinants and elementary divisors --------------------


def det_laurent(M: Matrix) -> LaurentPoly:
    """Exact determinant of a square matrix of integer Laurent polynomials in
    one or two variables, read off one integer determinant.

    Kronecker substitution: row i times x^-a_i y^-c_i (its least exponents)
    has polynomial entries of x-degree at most s_i, y = x^K with K = 1 + sum
    s_i keeps the determinant's monomials apart, and x = 2^b gives an integer
    matrix for :func:`_bareiss`.  The decoder relies on one bound: every
    coefficient is at most B, the product of the rows' coefficient 1-norms,
    in absolute value, since each permutation term is bounded by the product
    of its entries' 1-norms.  With 2^(b-1) > B the coefficients are the
    balanced base-2^b digits of the integer determinant, which has about
    b K (1 + sum of the rows' y-spans) bits: the cost grows with the exponent
    spans.  A coefficient that is not an int raises ValueError: reduce the
    integer determinant into a domain instead of reducing the matrix.
    """
    n = len(M)
    if any(len(r) != n for r in M):
        raise ValueError("determinant needs a square matrix")
    nvars = M[0][0].nvars if n else 1
    lows, K, bound = [], 1, 1
    for row in M:
        terms = [t for f in row for t in f.coeffs.items()]
        for _, c in terms:
            if not isinstance(c, int):
                raise ValueError(f"determinant needs integer coefficients, got {c!r}")
        lows.append([min((e[v] for e, _ in terms), default=0) for v in range(nvars)])
        K += max((e[0] for e, _ in terms), default=0) - lows[-1][0]
        bound *= sum(abs(c) for _, c in terms)
    if not bound:  # a zero row; the encoding below needs every |c| <= bound
        return LaurentPoly.zero(nvars)
    b = bound.bit_length() + 1

    def power(e, low):  # x^e y^f in row i goes to 2^(b (e - a_i + K (f - c_i)))
        return b * sum((u - v) * s for u, v, s in zip(e, low, (1, K)))

    rows = [
        {j: sum(c << power(e, low) for e, c in f.coeffs.items()) for j, f in enumerate(row) if f}
        for row, low in zip(M, lows)
    ]
    det, shift = _bareiss(rows), [sum(low[v] for low in lows) for v in range(nvars)]
    coeffs, todo = {}, [(det, 0, det.bit_length() // b + 1)]
    while todo:  # halve blocks of digits, from the lowest, down to single digits
        v, first, count = todo.pop()
        m = count // 2
        if v and not m:
            coeffs[tuple(d + s for d, s in zip((first % K, first // K), shift))] = v
        elif v:
            hi = (v + (1 << (b * m - 1))) >> (b * m)  # v - hi 2^(bm): the m low digits
            todo += [(hi, first + m, count - m), (v - (hi << (b * m)), first, m)]
    return LaurentPoly(nvars, coeffs)


def elementary_divisor(M: Matrix, k: int, dom: Domain) -> LaurentPoly:
    """k-th elementary divisor: gcd over the domain of all (n-k) x (n-k) minors.

    M has integer coefficients.  The minors are integer determinants
    (:func:`det_laurent`), streamed one at a time into a single fold,
    :func:`~lapgraph.laurent.gcd_many`, which reduces each into the domain;
    since reduction mod p is a ring map, a prime-field divisor is the gcd of
    the minors of M mod p.  The fold stops at the first minor after which
    the gcd is 1, and no later minor is computed.  Returns the zero
    polynomial if every minor vanishes; k = n is allowed and yields 1 (empty
    minor).
    """
    n = len(M)
    if any(len(r) != n for r in M):
        raise ValueError("elementary divisors need a square matrix")
    if not 0 <= k <= n:
        raise ValueError(f"divisor index {k} out of range for a {n} x {n} matrix")
    if k == n:
        return LaurentPoly.constant(dom.one, M[0][0].nvars if n else 1)
    size = n - k
    minors = (
        det_laurent([[M[i][j] for j in cols] for i in rows])
        for rows in combinations(range(n), size)
        for cols in combinations(range(n), size)
    )
    return gcd_many(minors, dom)


def int_matrix_to_poly(M: Matrix) -> Matrix:
    """Wrap an integer matrix as constant one-variable Laurent polynomials."""
    return [[LaurentPoly.constant(v, 1) for v in row] for row in M]
