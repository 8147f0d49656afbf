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
in the minimum-degree pivot order (:func:`_elimination_order`, of the
symmetrised nonzero pattern) that the caller permutes each matrix into
once.  One pass (:func:`_ordered`) checks the rows, builds that pattern,
tests symmetry and takes the order, for :func:`int_det` and
:class:`LaurentEncoding` alike.  Symmetric rows are eliminated
on their upper triangle alone, each row scaled only by the determinants of
the eliminated pieces it touches (:func:`_bareiss_symmetric`); other rows,
and symmetric rows whose pivot is zero or whose fill cancels, by global
Bareiss (:func:`_bareiss`).  A Laurent matrix is checked,
Kronecker-encoded and ordered once (:class:`LaurentEncoding`), with K and b
sized by the largest minor the encoding serves, and its minors
(:func:`_laurent_minors`) inherit that order: :func:`det_laurent` is its
full minor, and :func:`elementary_divisor` folds its (n - k)-minors up to
the first unit gcd.  A caller that needs Delta_0 and several Delta_k of one
matrix encodes it once, for its determinant, and passes the encoding to
each; a raw matrix is encoded on entry.
"""

from __future__ import annotations

from fractions import Fraction
from heapq import heapify, heappop, heappush
from itertools import combinations
from math import gcd, lcm, prod

from .fields import Domain, PrimeField
from .laurent import LaurentPoly, balanced_digits, gcd_many

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


def _elimination_order(adj: list[set[int]]) -> list[int]:
    """The pivot order of a square matrix with the symmetrised nonzero
    pattern adj: greedy minimum degree.

    Each step eliminates a vertex of least degree in the filled pattern, ties
    by index, and joins its remaining neighbours into a clique, which keeps
    the fill, and with it the rows each Bareiss step updates, small on tori
    and irregular graphs alike.  Once the remaining vertices form a clique,
    they follow by index, so a complete pattern gets the index order.  The
    fill goes into adj itself, which the caller does not read again.
    """
    n = len(adj)
    heap = [(len(a), v) for v, a in enumerate(adj)]
    heapify(heap)
    done = [False] * n
    order: list[int] = []
    while heap:
        d, v = heappop(heap)
        if done[v] or d != len(adj[v]):
            continue  # a stale degree
        if d == n - len(order) - 1:  # the rest is a clique: by index
            order += (u for u in range(n) if not done[u])
            break
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
    return order


def _bareiss(rows: list[dict]) -> int:
    """Determinant of a square integer matrix as sparse rows {column: nonzero entry}.

    Fraction-free (Bareiss) elimination in place, pivots in index order: each
    caller permutes rows and columns alike into :func:`_elimination_order`
    once per matrix, which keeps the determinant, and barring zero pivots the
    fill stays inside that order's filled symmetrised pattern.  Step k
    updates only the rows with a nonzero in column k, found by a scan: every
    caller is small, so no column index would pay its upkeep.  Every other
    row owes the factor p_k / p_{k-1} (p_k the k-th pivot) and is scaled
    once, by the telescoped product, when it is next touched.  Every Bareiss
    entry is a minor of the matrix, so each division is exact.  A zero pivot
    is swapped with the first lower row that has a nonzero in its column.
    The denominator is global, the product of all earlier pivots whether or
    not a row touches their pieces, which a row swap needs; the symmetric
    kernel, which never swaps, keeps it local instead.  This is the kernel
    of :func:`_laurent_minors`, of non-symmetric :func:`int_det` input, and
    of symmetric input on which :func:`_bareiss_symmetric` meets a zero
    pivot or a cancelled update.
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


def _bareiss_symmetric(upper: list[dict]) -> int | None:
    """Determinant of a symmetric integer matrix given by its upper triangle,
    row i holding its nonzeros in columns j >= i, eliminated in place in
    index order with denominators local to the eliminated pieces; None at a
    zero pivot or at an update that cancels to zero.

    The eliminated vertices form the components C of their filled pattern,
    each with D_C = det A[C, C], the pivot of the step that formed it (a
    component is labelled by that step).  Row i of the Schur complement S
    owes only the D_C of the components it touches, so it holds
    N_ij = den_i S_ij for j >= i, den_i the product of those D_C: a row
    that step k skips keeps its entries, and the rows it updates are the
    keys i of row k.  With p = N_kk, K the components that k touches and g
    the product of the D_C they share with row i, row i takes
    (p N_ij - a N_kj) / g in row k's columns j >= i, a = N_ki den_i / den_k,
    and N_ij p / g in its other columns, each division exact, and
    den_i <- den_i p / g.  The determinant is the product of the D_C of the
    components that touch nothing left, the pivots whose row is empty.
    A step or row that touches no component shares none: g = 1, with no
    set work.  The rescale walks row i and skips row k's columns.

    The components must be those of the numerical fill, so an update that
    cancels to zero returns None, as a zero pivot does, whose row swap the
    triangle cannot hold: the caller then eliminates the full rows with
    :func:`_bareiss`.  A reduced Laplacian is a nonsingular M-matrix on
    each component, whose fill never cancels and whose pivots are positive.
    """
    n = len(upper)
    pivots, den, comps = [0] * n, [1] * n, [set() for _ in upper]
    det = 1
    for k in range(n):
        row_k = upper[k]
        pivot = pivots[k] = row_k.pop(k, 0)
        if not pivot:
            return None
        if not row_k:  # k closes a component of the whole matrix
            det *= pivot
        K, den_k = comps[k], den[k]
        items = sorted(row_k.items())
        for t, (i, a) in enumerate(items):
            row_i, touched = upper[i], comps[i]
            g = 1
            if K and touched:  # else no piece is shared: g = 1, and no set work
                shared = touched & K
                for c in shared:  # mostly one piece, or none: cheaper than prod() of a generator
                    g *= pivots[c]
                touched -= shared
            a = a // (den_k // g) * (den[i] // g)
            for j, v in row_i.items():
                if j not in row_k:
                    row_i[j] = v * pivot // g
            for j, v in items[t:]:
                w = (pivot * row_i.get(j, 0) - a * v) // g
                if not w:
                    return None
                row_i[j] = w
            den[i] = den[i] // g * pivot
            touched.add(k)
    return det


def _ordered(rows: list[dict[int, int]]) -> tuple[list[int], list[int], bool]:
    """The pivot order of square sparse integer rows, each index's place in
    it, and whether the rows are symmetric, from one pass over the entries.

    The pass checks each entry and builds the symmetrised off-diagonal
    pattern of the nonzeros, which :func:`_elimination_order` orders by
    minimum degree.  A column outside 0..n-1, or a nonzero entry that is not
    an int, raises ValueError there, before any order is taken.
    """
    n = len(rows)
    adj: list[set[int]] = [set() for _ in rows]
    symmetric = True
    for i, row in enumerate(rows):
        for j, v in row.items():
            if not (isinstance(j, int) and 0 <= j < n):
                raise ValueError(f"determinant needs columns in 0..{n - 1}, got {j!r}")
            if not v:
                continue
            if not isinstance(v, int):
                raise ValueError(f"determinant needs integer entries, got {v!r}")
            if j != i:
                adj[i].add(j)
                adj[j].add(i)
                if symmetric and rows[j].get(i) != v:
                    symmetric = False
    order = _elimination_order(adj)
    return order, sorted(range(n), key=order.__getitem__), symmetric


def int_det(rows: list[dict[int, int]]) -> int:
    """Exact determinant of a square integer matrix given as sparse rows
    {column: entry}; the order is the number of rows, and the input is left
    alone.  :func:`_ordered` checks every entry (a Fraction or float would
    be truncated) and picks the pivot order.  Symmetric rows, as a reduced
    Laplacian's are, go to :func:`_bareiss_symmetric` as their upper
    triangle, without the zeros, in that order, rows and columns alike; the
    full rows go to :func:`_bareiss` only if the rows are not symmetric, or
    if a pivot is zero or an update cancels (never on a reduced Laplacian).
    """
    order, where, symmetric = _ordered(rows)
    if symmetric:
        upper = [{w: v for j, v in rows[i].items() if v and (w := where[j]) >= k} for k, i in enumerate(order)]
        det = _bareiss_symmetric(upper)
        if det is not None:
            return det
    return _bareiss([{where[j]: v for j, v in rows[i].items() if v} for i in order])


# -- Laurent-polynomial determinants and elementary divisors --------------------


class LaurentEncoding:
    """A square matrix of integer Laurent polynomials in one or two variables,
    checked, Kronecker-encoded and ordered once for all its minors of order
    at most ``size`` (n for every minor, the determinant included).

    Row i times x^-a_i y^-c_i (``lows``, its least exponents) has x-degree
    at most s_i; y = x^K with K = 1 + the sum of the ``size`` largest s_i
    keeps a minor's monomials apart, and x = 2^b gives the integer ``rows``.
    A minor's coefficients are at most the product of the ``size`` largest
    row 1-norms (each at least 1), below 2^(b-1).  An r-minor with r <= size
    is bounded by its r widest spans and r largest norms, below those, so
    one K and b, sized by the largest minor served (at least an entry),
    serve them all, and bound every minor and entry by b K (Dy + 1) bits, Dy
    the sum of the same largest y-spans.  ``where`` is each index's place in
    the pivot order of the integer rows, taken as :func:`int_det` takes it
    (:func:`_ordered`).  A non-square matrix, a non-int coefficient, or a
    bound above 2^30 bits, before any entry is built (the message names K, b
    and the bound), raises ValueError.
    """

    __slots__ = ("nvars", "size", "lows", "K", "b", "rows", "where")

    def __init__(self, M: Matrix, size: int):
        n = len(M)
        if any(len(r) != n for r in M):
            raise ValueError("determinant needs a square matrix")
        self.nvars = nvars = M[0][0].nvars if n else 1
        self.size = size
        self.lows = lows = []
        spans, norms = [], []
        for row in M:
            terms = [t for f in row for t in f.coeffs.items()]
            for _, c in terms:
                if not isinstance(c, int):
                    raise ValueError(f"determinant needs integer coefficients, got {c!r}")
            lows.append([min((e[v] for e, _ in terms), default=0) for v in range(nvars)])
            spans.append([max((e[v] for e, _ in terms), default=0) - a for v, a in enumerate(lows[-1])])
            norms.append(max(sum(abs(c) for _, c in terms), 1))
        top = n - max(size, 1)  # the rows of the largest minor served
        self.K = K = 1 + sum(sorted(s[0] for s in spans)[top:])
        self.b = b = prod(sorted(norms)[top:]).bit_length() + 1
        bits = b * K * (1 + sum(sorted(s[1] for s in spans)[top:]) if nvars == 2 else 1)
        if bits > 1 << 30:  # 128 MB per minor, far past any elimination that ends
            raise ValueError(
                f"Laurent matrix too wide to encode: x-span K = {K} at b = {b} bits per coefficient,"
                f" minors of up to {bits} bits"
            )

        def power(e, low):  # x^e y^f in row i goes to 2^(b (e - a_i + K (f - c_i)))
            return b * sum((u - v) * s for u, v, s in zip(e, low, (1, K)))

        self.rows = [
            {j: sum(c << power(e, low) for e, c in f.coeffs.items()) for j, f in enumerate(row) if f}
            for row, low in zip(M, lows)
        ]
        _, self.where, _ = _ordered(self.rows)

    def __len__(self) -> int:
        return len(self.rows)


def _laurent_minors(A: LaurentEncoding, size: int):
    """The size x size minors of an encoded matrix, lazily, in rows-major order.

    A minor's value is :func:`_bareiss` of its integer sub-rows, whose
    balanced base-2^b digits (``laurent.balanced_digits``) are its
    coefficients, about b K (Dy + 1) bits, Dy the sum of the ``size``
    largest y-spans.  A minor inherits A's order:
    its t-th row and column are paired, and the pairs sorted by the column's
    place in that order, so rows and columns move alike and the value stays.
    A size above the one A was encoded for raises ValueError.
    """
    if size > A.size:
        raise ValueError(f"an encoding for minors of order {A.size} cannot give order {size}")
    n, nvars, lows, K, b, rows, where = len(A), A.nvars, A.lows, A.K, A.b, A.rows, A.where
    for rs in combinations(range(n), size):
        shift = [sum(lows[i][v] for i in rs) for v in range(nvars)]
        for cs in combinations(range(n), size):
            pairs = sorted(zip(rs, cs), key=lambda rc: where[rc[1]])
            col = {j: t for t, (_, j) in enumerate(pairs)}
            det = _bareiss([{col[j]: v for j, v in rows[i].items() if j in col} for i, _ in pairs])
            coeffs = balanced_digits(det, b).items()
            yield LaurentPoly(nvars, {tuple(d + s for d, s in zip((i % K, i // K), shift)): c for i, c in coeffs})


def det_laurent(M: Matrix | LaurentEncoding) -> LaurentPoly:
    """Exact determinant of a square matrix of integer Laurent polynomials in
    one or two variables: the full minor of its :class:`LaurentEncoding`,
    M itself if M is one, else M's encoding sized for its determinant."""
    A = M if isinstance(M, LaurentEncoding) else LaurentEncoding(M, len(M))
    return next(_laurent_minors(A, len(A)))


def elementary_divisor(M: Matrix | LaurentEncoding, k: int, dom: Domain) -> LaurentPoly:
    """k-th elementary divisor: gcd over the domain of all (n-k) x (n-k) minors.

    M has integer coefficients.  Its minors come from one encoding, M itself
    if M is a :class:`LaurentEncoding` (so a caller that encodes once shares
    the check, the encoding and the order among Delta_0 and every Delta_k),
    else M's encoding sized for its (n-k)-minors.  They come one at a time
    (:func:`_laurent_minors`) into a single fold,
    :func:`~lapgraph.laurent.gcd_many`, which reduces each into the domain;
    since reduction mod p is a ring map, a prime-field divisor is the gcd of
    the minors of M mod p.  The fold stops at the first minor after which
    the gcd is 1, and no later minor is computed.  Returns the zero
    polynomial if every minor vanishes; k = n yields 1 (the empty minor).
    """
    n = len(M)
    if not 0 <= k <= n:
        raise ValueError(f"divisor index {k} out of range for a {n} x {n} matrix")
    if k == n:  # the empty minor, before any encoding: normalized in every domain
        return LaurentPoly.constant(1, M.nvars if isinstance(M, LaurentEncoding) else M[0][0].nvars if n else 1)
    A = M if isinstance(M, LaurentEncoding) else LaurentEncoding(M, n - k)
    return gcd_many(_laurent_minors(A, n - k), dom)
