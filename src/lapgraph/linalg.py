"""Exact linear algebra: nullspaces over fields, fraction-free determinants,
and elementary divisors of Laurent-polynomial matrices.

Every integer or field matrix is a list of sparse rows {column: entry} that
hold only the nonzeros; results that are vectors come back dense.  Field
entries are whatever the domain object uses (ints for GF(p), Fraction for
the rationals).  Polynomial matrices are dense lists of row lists of
:class:`~lapgraph.laurent.LaurentPoly` entries with integer coefficients,
since a zero entry carries the variable count.  :func:`rref` eliminates on
integer rows over every field and divides by the pivots only at the end.
Every determinant is one fraction-free elimination on sparse integer rows,
on the upper triangle alone when they are symmetric, in the pivot order
(:func:`_elimination_order`) that the caller permutes each matrix into once.
A Laurent matrix is encoded and ordered once (:func:`_laurent_minors`), and
its minors inherit that order: :func:`det_laurent` is its full minor, and
:func:`elementary_divisor` folds its (n - k)-minors up to the first unit gcd.
"""

from __future__ import annotations

from fractions import Fraction
from heapq import heapify, heappop, heappush
from itertools import combinations
from math import gcd, lcm, prod

from .fields import Domain, PrimeField
from .laurent import LaurentPoly, gcd_many

Matrix = list[list]


def transpose(M: Matrix) -> Matrix:
    return [list(col) for col in zip(*M)] if M else []


def sparse_rows(M: Matrix) -> list[dict]:
    """The nonzero entries of dense vectors as rows {column: entry}."""
    return [{j: v for j, v in enumerate(row) if v} for row in M]


def rref(rows: list[dict], ncols: int, field: Domain) -> tuple[Matrix, list[int]]:
    """Reduced row echelon form over a field of the rows {column: entry} of
    a matrix with ncols columns; leftmost-nonzero pivot rule.

    One elimination on sparse integer rows serves every field.  The field
    enters on entry (a QQ row is scaled by the lcm of its denominators; a
    GF(p) entry goes through ``field.of``, which rejects a denominator
    divisible by p; zeros are dropped), at each step, where the first
    remaining row with a nonzero in the pivot column is the pivot row and
    row_i <- piv*row_i - a*row_r (then divided by its content over QQ, or
    reduced mod p), and on exit, where each pivot row is divided by its
    pivot.  The reduced form is unique, so this equals Gauss-Jordan in the
    field's own arithmetic, coefficient types included.  Returns dense
    (R, pivot_columns): zero rows come last, filled with ``field.zero``.
    The input is left alone; a column outside 0..ncols-1 or a non-field
    domain raises ValueError.
    """
    if not field.is_field:
        raise ValueError(f"rref needs a field, not {field!r}")
    p = field.p if isinstance(field, PrimeField) else 0
    R = []
    for row in rows:
        for j in row:
            if not (isinstance(j, int) and 0 <= j < ncols):
                raise ValueError(f"rref needs columns in 0..{ncols - 1}, got {j!r}")
        if p:
            R.append({j: w for j, v in row.items() if (w := field.of(v))})
        else:
            den = lcm(*(v.denominator for v in row.values()))
            R.append({j: v.numerator * (den // v.denominator) for j, v in row.items() if v})
    nrows = len(R)
    pivots: list[int] = []
    for c in range(ncols):
        r = len(pivots)
        if r == nrows:
            break
        sel = next((i for i in range(r, nrows) if c in R[i]), None)
        if sel is None:
            continue
        R[r], R[sel] = R[sel], R[r]
        prow = R[r]
        piv = prow[c]
        for i, row in enumerate(R):
            a = row.get(c)
            if a is None or i == r:
                continue
            for j, v in row.items():
                row[j] = piv * v % p if p else piv * v
            for j, y in prow.items():
                w = row.get(j, 0) - a * y
                if p:
                    w %= p
                if w:
                    row[j] = w
                else:
                    del row[j]
            if not p and (g := gcd(*row.values())) > 1:
                for j, v in row.items():
                    row[j] = v // g
        pivots.append(c)
    out = [[field.zero] * ncols for _ in R]
    for dense, row, c in zip(out, R, pivots):
        inv = field.inv(row[c]) if p else 0
        for j, v in row.items():
            dense[j] = v * inv % p if p else Fraction(v, row[c])
    return out, pivots


def nullspace(rows: list[dict], ncols: int, field: Domain) -> list[list]:
    """Basis of the right kernel over a field of the rows {column: entry} of
    a matrix with ncols columns.

    One basis vector per free column, in column order: the vector has 1 at its
    free column, the negated reduced-echelon entries at the pivot columns, and
    0 elsewhere.  Deterministic for a given input.
    """
    R, pivots = rref(rows, ncols, field)
    pivot_set = set(pivots)
    basis = []
    for fc in (c for c in range(ncols) if c not in pivot_set):
        v = [field.zero] * ncols
        v[fc] = field.one
        for i, pc in enumerate(pivots):
            v[pc] = field.of(-R[i][fc])
        basis.append(v)
    return basis


def row_space_canonical(vectors: list[list], field: Domain) -> list[list]:
    """Canonical basis (nonzero rref rows) of the span of the given dense vectors."""
    if not vectors:
        return []
    R, pivots = rref(sparse_rows(vectors), len(vectors[0]), field)
    return R[: len(pivots)]


# -- sparse fraction-free determinants -----------------------------------------


def _pattern(rows: list[dict]) -> list[set[int]]:
    """Symmetrised off-diagonal nonzero pattern of square sparse rows, as
    neighbour sets."""
    adj: list[set[int]] = [set() for _ in rows]
    for i, row in enumerate(rows):
        for j, v in row.items():
            if v and j != i:
                adj[i].add(j)
                adj[j].add(i)
    return adj


def _cuthill_mckee(adj: list[set[int]]) -> tuple[list[int], int]:
    """Cuthill–McKee order of a symmetric nonzero pattern, and its predicted
    cost (see :func:`int_det`) by the envelope bound.

    Breadth-first search from a least-degree index of each component, visiting
    unseen neighbours by increasing degree (ties by index).  A graph-like
    matrix, such as a cover's or a box's Laplacian, gets a small bandwidth.
    Fill never leaves the envelope, so m_k is at most the number of rows after
    k whose first nonzero lies at or before column k.  A row's first nonzero
    is at the vertex that discovered it, so the bound costs O(n).
    """
    by_degree = sorted(range(len(adj)), key=lambda v: len(adj[v]))  # stable: ties by index
    rank = [0] * len(adj)
    for r, v in enumerate(by_degree):
        rank[v] = r
    seen = [False] * len(adj)
    order: list[int] = []
    opened = [0] * (len(adj) + 1)  # difference array of the envelope's m_k
    for start in by_degree:
        if seen[start]:
            continue
        seen[start] = True
        order.append(start)
        head = len(order) - 1
        while head < len(order):
            for w in sorted(adj[order[head]], key=rank.__getitem__):
                if not seen[w]:
                    seen[w] = True
                    opened[head] += 1
                    opened[len(order)] -= 1
                    order.append(w)
            head += 1
    cost = m = 0
    for k in range(len(order)):
        m += opened[k]
        cost += (m * (k + 1)) ** 2
    return order, cost


def _minimum_degree(adj: list[set[int]]) -> tuple[list[int], int]:
    """Greedy minimum-degree order of a symmetric nonzero pattern, and its
    predicted cost (see :func:`int_det`).

    Each step eliminates a vertex of least degree in the filled pattern, ties
    by index, and joins its remaining neighbours into a clique.  Its degree
    then is m_k exactly, so the cost sum_k m_k^2 (k+1)^2 comes as a
    by-product.  Once the remaining vertices form a clique, they follow by
    index.
    """
    n = len(adj)
    adj = [set(a) for a in adj]
    heap = [(len(a), v) for v, a in enumerate(adj)]
    heapify(heap)
    done = [False] * n
    order: list[int] = []
    cost = 0
    while heap:
        d, v = heappop(heap)
        if done[v] or d != len(adj[v]):
            continue  # a stale degree
        k = len(order)
        if d == n - k - 1:  # the rest is a clique: by index, one less each step
            cost += sum(((d - i) * (k + i + 1)) ** 2 for i in range(d))
            order += (u for u in range(n) if not done[u])
            break
        cost += (d * (k + 1)) ** 2
        done[v] = True
        order.append(v)
        nbrs = adj[v]
        for u in nbrs:
            a = adj[u]
            before = len(a)
            a |= nbrs
            a.discard(u)
            a.discard(v)
            if len(a) != before:
                heappush(heap, (len(a), u))
    return order, cost


def _elimination_order(rows: list[dict]) -> list[int]:
    """The pivot order of a square matrix (see :func:`int_det`): minimum
    degree if its predicted cost is below Cuthill–McKee's envelope bound,
    else Cuthill–McKee.  Both are the identity on a complete pattern."""
    adj = _pattern(rows)
    cm, cm_cost = _cuthill_mckee(adj)
    md, md_cost = _minimum_degree(adj)
    return md if md_cost < cm_cost else cm


def _bareiss(rows: list[dict]) -> int:
    """Determinant of a square integer matrix as sparse rows {column: nonzero entry}.

    Fraction-free (Bareiss) elimination in place, pivots in index order: each
    caller permutes rows and columns alike into :func:`_elimination_order`
    once per matrix, which keeps the determinant, and barring zero pivots the
    fill stays inside that order's filled symmetrised pattern (see
    :func:`int_det`).  Step k updates only the rows with a nonzero in column k,
    found by a scan: every caller is small, so no column index would pay its
    upkeep.  Every other row owes the factor p_k / p_{k-1} (p_k the k-th
    pivot) and is scaled once, by the telescoped product, when it is next
    touched.  Every Bareiss entry is a minor of the matrix, so each division
    is exact.  A zero pivot is swapped with the first lower row that has a
    nonzero in its column.  This is the kernel of :func:`_laurent_minors`, of
    non-symmetric :func:`int_det` input, and of symmetric input that meets a
    zero pivot.
    """
    n = len(rows)
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

    for k in range(n):
        below = [i for i in range(k + 1, n) if k in rows[i]]
        if k not in rows[k]:
            if not below:
                return 0
            sel = below.pop(0)
            rows[k], rows[sel] = rows[sel], rows[k]
            level[k], level[sel] = level[sel], level[k]
            sign = -sign
        row_k = catch_up(k, k)
        pivot = row_k.pop(k)
        prev = p[k]
        p.append(pivot)
        for i in below:
            row_i = catch_up(i, k)
            a = row_i.pop(k)
            for j, v in row_i.items():
                row_i[j] = pivot * v
            for j, v in row_k.items():
                w = row_i.get(j, 0) - a * v
                if w:
                    row_i[j] = w
                else:
                    del row_i[j]
            if prev != 1:
                for j, v in row_i.items():
                    row_i[j] = v // prev
            level[i] = k + 1
    return sign * p[n]


def _bareiss_symmetric(rows: list[dict]) -> int:
    """:func:`_bareiss` of symmetric sparse rows, on a copy of their upper triangle.

    Every Bareiss entry a_ij^(k) = det A[1..k,i; 1..k,j] of a symmetric
    matrix is symmetric too, so row i keeps only its columns j >= i, and the
    rows that step k updates are the keys i of row k, in row k's columns
    j >= i.  Each such row is scaled by p_k / p_{k-1} in its other columns,
    and lazy catch-up scales the rows that step k skips, as in
    :func:`_bareiss`.  Step k does about half of the general kernel's work.
    A zero pivot, which a positive-definite matrix never has, hands the
    untouched rows to :func:`_bareiss`, which swaps rows.
    """
    n = len(rows)
    upper = [{j: v for j, v in row.items() if j >= i} for i, row in enumerate(rows)]
    p = [1]
    level = [0] * n

    def catch_up(i: int, k: int) -> dict:
        row = upper[i]
        if p[level[i]] != p[k]:
            num, den = p[k], p[level[i]]
            for j, v in row.items():
                row[j] = v * num // den
        return row

    for k in range(n):
        row_k = catch_up(k, k)
        if k not in row_k:
            return _bareiss(rows)
        pivot = row_k.pop(k)
        prev = p[k]
        p.append(pivot)
        items = sorted(row_k.items())
        for t, (i, a) in enumerate(items):
            row_i = catch_up(i, k)
            for j in row_i.keys() - row_k.keys():
                row_i[j] = row_i[j] * pivot // prev
            for j, v in items[t:]:
                w = (pivot * row_i.get(j, 0) - a * v) // prev
                if w:
                    row_i[j] = w
                else:
                    del row_i[j]
            level[i] = k + 1
    return p[n]


def int_det(rows: list[dict[int, int]]) -> int:
    """Exact determinant of a square integer matrix given as sparse rows
    {column: entry}, eliminated on a copy without the zero entries, built in
    one pass in :func:`_elimination_order`, rows and columns alike.  Rows
    that are symmetric (one pass over the nonzeros), as a reduced Laplacian's
    are, go to :func:`_bareiss_symmetric`; any others to :func:`_bareiss`.
    The order is the number of rows.  A column outside 0..n-1, or a nonzero
    entry that is not an int, raises ValueError: a Fraction or float would be
    truncated.

    The pivot order is the one of lower predicted cost, sum_k m_k^2 (k+1)^2
    with m_k the later neighbours of the k-th pivot in the filled symmetrised
    pattern: step k updates m_k rows in m_k columns (about half as many
    entries on the upper triangle), every entry then is a (k+1)-minor with
    O(k) bits, and multiplication at these sizes is quadratic.  The
    candidates are Cuthill–McKee, costed by its envelope bound, which suits
    strips and boxes, and greedy minimum degree, which suits tori and
    irregular graphs, and gets m_k exactly.  Ties go to Cuthill–McKee.
    """
    n = len(rows)
    for row in rows:
        for j, v in row.items():
            if not (isinstance(j, int) and 0 <= j < n):
                raise ValueError(f"determinant needs columns in 0..{n - 1}, got {j!r}")
            if v and not isinstance(v, int):
                raise ValueError(f"determinant needs integer entries, got {v!r}")
    order = _elimination_order(rows)
    where = sorted(range(n), key=order.__getitem__)  # the position of each index in order
    rows = [{where[j]: v for j, v in rows[i].items() if v} for i in order]
    if all(rows[j].get(i) == v for i, row in enumerate(rows) for j, v in row.items()):
        return _bareiss_symmetric(rows)
    return _bareiss(rows)


# -- Laurent-polynomial determinants and elementary divisors --------------------


def _laurent_minors(M: Matrix, size: int):
    """The size x size minors of a square matrix of integer Laurent
    polynomials in one or two variables, lazily, in rows-major order.

    M is checked and Kronecker-encoded once: row i times x^-a_i y^-c_i (its
    least exponents) has x-degree at most s_i, y = x^K with K = 1 + the sum
    of the ``size`` largest s_i keeps a minor's monomials apart, and x = 2^b
    gives integer rows.  A minor's coefficients are at most the product of
    the ``size`` largest row 1-norms (each at least 1), below 2^(b-1), so
    they are the balanced base-2^b digits of :func:`_bareiss` of its integer
    sub-rows, about b K (Dy + 1) bits, Dy the sum of the ``size`` largest
    y-spans.  The encoded M is ordered once (:func:`_elimination_order`); a
    minor's t-th row and column are paired, and the pairs sorted by the
    column's place in that order, so rows and columns move alike and the
    value stays.  A non-square M, or a non-int coefficient, raises ValueError.
    """
    n = len(M)
    if any(len(r) != n for r in M):
        raise ValueError("determinant needs a square matrix")
    nvars = M[0][0].nvars if n else 1
    lows, spans, norms = [], [], []
    for row in M:
        terms = [t for f in row for t in f.coeffs.items()]
        for _, c in terms:
            if not isinstance(c, int):
                raise ValueError(f"determinant needs integer coefficients, got {c!r}")
        lows.append([min((e[v] for e, _ in terms), default=0) for v in range(nvars)])
        spans.append(max((e[0] for e, _ in terms), default=0) - lows[-1][0])
        norms.append(max(sum(abs(c) for _, c in terms), 1))
    K = 1 + sum(sorted(spans)[n - size :])
    b = prod(sorted(norms)[n - size :]).bit_length() + 1

    def power(e, low):  # x^e y^f in row i goes to 2^(b (e - a_i + K (f - c_i)))
        return b * sum((u - v) * s for u, v, s in zip(e, low, (1, K)))

    rows = [
        {j: sum(c << power(e, low) for e, c in f.coeffs.items()) for j, f in enumerate(row) if f}
        for row, low in zip(M, lows)
    ]
    order = _elimination_order(rows)
    where = sorted(range(n), key=order.__getitem__)
    for rs in combinations(range(n), size):
        shift = [sum(lows[i][v] for i in rs) for v in range(nvars)]
        for cs in combinations(range(n), size):
            pairs = sorted(zip(rs, cs), key=lambda rc: where[rc[1]])
            col = {j: t for t, (_, j) in enumerate(pairs)}
            det = _bareiss([{col[j]: v for j, v in rows[i].items() if j in col} for i, _ in pairs])
            coeffs, todo = {}, [(det, 0, det.bit_length() // b + 1)]
            while todo:  # halve blocks of digits, from the lowest, down to single digits
                v, first, count = todo.pop()
                m = count // 2
                if v and not m:
                    coeffs[tuple(d + s for d, s in zip((first % K, first // K), shift))] = v
                elif v:
                    hi = (v + (1 << (b * m - 1))) >> (b * m)  # v - hi 2^(bm): the m low digits
                    todo += [(hi, first + m, count - m), (v - (hi << (b * m)), first, m)]
            yield LaurentPoly(nvars, coeffs)


def det_laurent(M: Matrix) -> LaurentPoly:
    """Exact determinant of a square matrix of integer Laurent polynomials in
    one or two variables: :func:`_laurent_minors`' full minor, in its order."""
    return next(_laurent_minors(M, len(M)))


def elementary_divisor(M: Matrix, k: int, dom: Domain) -> LaurentPoly:
    """k-th elementary divisor: gcd over the domain of all (n-k) x (n-k) minors.

    M has integer coefficients.  Its minors come from one encoding
    (:func:`_laurent_minors`), one at a time, into a single fold,
    :func:`~lapgraph.laurent.gcd_many`, which reduces each into the domain;
    since reduction mod p is a ring map, a prime-field divisor is the gcd of
    the minors of M mod p.  The fold stops at the first minor after which
    the gcd is 1, and no later minor is computed.  Returns the zero
    polynomial if every minor vanishes; k = n yields 1 (the empty minor).
    """
    n = len(M)
    if not 0 <= k <= n:
        raise ValueError(f"divisor index {k} out of range for a {n} x {n} matrix")
    if k == n:
        return LaurentPoly.constant(1, M[0][0].nvars if n else 1)  # normalized in every domain
    return gcd_many(_laurent_minors(M, n - k), dom)
