"""Exact linear algebra: nullspaces over fields, fraction-free determinants,
and elementary divisors of Laurent-polynomial matrices.

Matrices are plain lists of row lists.  Field entries are whatever the domain
object uses (ints for GF(p), Fraction for the rationals); polynomial matrices
hold :class:`~lapgraph.laurent.LaurentPoly` entries.
"""

from __future__ import annotations

from itertools import combinations

from .fields import Domain, IntegerRing
from .laurent import LaurentPoly, divexact, gcd_many

Matrix = list[list]


def _check_rect(M: Matrix):
    if M and any(len(r) != len(M[0]) for r in M):
        raise ValueError("ragged matrix")


def transpose(M: Matrix) -> Matrix:
    return [list(col) for col in zip(*M)] if M else []


def mat_mul(A: Matrix, B: Matrix) -> Matrix:
    return [[sum(a * b for a, b in zip(row, col)) for col in zip(*B)] for row in A]


def rref(M: Matrix, field: Domain) -> tuple[Matrix, list[int]]:
    """Reduced row echelon form over a field; leftmost-nonzero pivot rule.

    Returns (R, pivot_columns).  The input is not modified.
    """
    _check_rect(M)
    R = [[field.of(v) for v in row] for row in M]
    nrows = len(R)
    ncols = len(R[0]) if R else 0
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        sel = next((i for i in range(r, nrows) if not field.is_zero(R[i][c])), None)
        if sel is None:
            continue
        R[r], R[sel] = R[sel], R[r]
        inv = field.inv(R[r][c])
        R[r] = [field.mul(v, inv) for v in R[r]]
        for i in range(nrows):
            if i != r and not field.is_zero(R[i][c]):
                factor = R[i][c]
                R[i] = [field.sub(a, field.mul(factor, b)) for a, b in zip(R[i], R[r])]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return R, pivots


def rank(M: Matrix, field: Domain) -> int:
    return len(rref(M, field)[1])


def nullspace(M: Matrix, field: Domain) -> list[list]:
    """Basis of the right kernel of M over a field.

    One basis vector per free column, in column order: the vector has 1 at its
    free column, the negated reduced-echelon entries at the pivot columns, and
    0 elsewhere.  Deterministic for a given input.
    """
    _check_rect(M)
    ncols = len(M[0]) if M else 0
    R, pivots = rref(M, field)
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for fc in free:
        v = [field.zero] * ncols
        v[fc] = field.one
        for i, pc in enumerate(pivots):
            v[pc] = field.neg(R[i][fc])
        basis.append(v)
    return basis


def row_space_canonical(vectors: list[list], field: Domain) -> list[list]:
    """Canonical basis (nonzero rref rows) of the span of the given vectors."""
    if not vectors:
        return []
    R, pivots = rref(vectors, field)
    return [R[i] for i in range(len(pivots))]


# -- integer determinants ------------------------------------------------------


def int_det(M: Matrix) -> int:
    """Exact determinant of an integer matrix by Bareiss elimination."""
    n = len(M)
    if any(len(r) != n for r in M):
        raise ValueError("determinant needs a square matrix")
    if n == 0:
        return 1
    a = [[int(v) for v in row] for row in M]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            sel = next((i for i in range(k + 1, n) if a[i][k] != 0), None)
            if sel is None:
                return 0
            a[k], a[sel] = a[sel], a[k]
            sign = -sign
        pivot = a[k][k]
        for i in range(k + 1, n):
            aik = a[i][k]
            row_i = a[i]
            row_k = a[k]
            for j in range(k + 1, n):
                row_i[j] = (pivot * row_i[j] - aik * row_k[j]) // prev
            row_i[k] = 0
        prev = pivot
    return sign * a[n - 1][n - 1]


# -- Laurent-polynomial determinants and elementary divisors --------------------


def _det_cofactor_poly(M: Matrix, dom: Domain) -> LaurentPoly:
    n = len(M)
    if n == 0:
        raise ValueError("empty matrix in polynomial cofactor determinant")
    if n == 1:
        return M[0][0]
    if n == 2:
        return M[0][0] * M[1][1] - M[0][1] * M[1][0]
    total = LaurentPoly.zero(M[0][0].nvars)
    rest = M[1:]
    for j in range(n):
        if M[0][j].is_zero():
            continue
        minor = [row[:j] + row[j + 1 :] for row in rest]
        term = M[0][j] * _det_cofactor_poly(minor, dom)
        total = total + term if j % 2 == 0 else total - term
    return total


def det_laurent(M: Matrix, dom: Domain = IntegerRing()) -> LaurentPoly:
    """Exact determinant of a square matrix of Laurent polynomials.

    Cofactor expansion for orders up to 4; fraction-free Bareiss elimination
    with exact polynomial division above that.  The domain governs coefficient
    arithmetic in the division steps (integers for integer-coefficient input).
    """
    n = len(M)
    if any(len(r) != n for r in M):
        raise ValueError("determinant needs a square matrix")
    if n == 0:
        return LaurentPoly.constant(1, 1)
    nvars = M[0][0].nvars
    if n <= 4:
        return _det_cofactor_poly(M, dom)
    a = [row[:] for row in M]
    sign = 1
    prev = LaurentPoly.constant(1, nvars)
    for k in range(n - 1):
        if a[k][k].is_zero():
            sel = next((i for i in range(k + 1, n) if not a[i][k].is_zero()), None)
            if sel is None:
                return LaurentPoly.zero(nvars)
            a[k], a[sel] = a[sel], a[k]
            sign = -sign
        pivot = a[k][k]
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                num = pivot * a[i][j] - a[i][k] * a[k][j]
                a[i][j] = divexact(num, prev, dom)
            a[i][k] = LaurentPoly.zero(nvars)
        prev = pivot
    det = a[n - 1][n - 1]
    return -det if sign < 0 else det


def elementary_divisor(M: Matrix, k: int, dom: Domain) -> LaurentPoly:
    """k-th elementary divisor: gcd over the domain of all (n-k) x (n-k) minors.

    Entries are reduced into the domain before the determinants are taken, so
    prime-field divisors see the matrix mod p.  Returns the zero polynomial if
    every minor vanishes; k = n is allowed and yields 1 (empty minor).
    """
    n = len(M)
    if any(len(r) != n for r in M):
        raise ValueError("elementary divisors need a square matrix")
    if not 0 <= k <= n:
        raise ValueError(f"divisor index {k} out of range for a {n} x {n} matrix")
    nvars = M[0][0].nvars if n else 1
    if k == n:
        return LaurentPoly.constant(dom.one, nvars)
    size = n - k
    R = [[e.reduce_to(dom) for e in row] for row in M]
    dets = []
    for rows in combinations(range(n), size):
        for cols in combinations(range(n), size):
            sub = [[R[i][j] for j in cols] for i in rows]
            d = det_laurent(sub, dom).reduce_to(dom)
            if not d.is_zero():
                dets.append(d)
    if not dets:
        return LaurentPoly.zero(nvars)
    return gcd_many(dets, dom)


def first_nonzero_divisor(M: Matrix, dom: Domain) -> tuple[int, LaurentPoly]:
    """Scan k = 0, 1, ... for the first nonzero elementary divisor."""
    n = len(M)
    for k in range(n + 1):
        d = elementary_divisor(M, k, dom)
        if not d.is_zero():
            return k, d
    raise AssertionError("unreachable: the empty minor is 1")


def int_matrix_to_poly(M: Matrix, nvars: int = 1) -> Matrix:
    """Wrap an integer matrix as constant Laurent polynomials."""
    return [[LaurentPoly.constant(v, nvars) for v in row] for row in M]
