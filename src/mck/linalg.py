"""Small exact linear algebra over the integers and the rationals.

Matrices are lists of rows of ints or Fractions.  The handle algebra's
matrices are integral, so elimination runs over int: `rref` scales each
rational row to an integer row, eliminates fraction-free (Bareiss, Math.
Comp. 22, 1968) and divides once at the end, and only entries that are true
quotients come back as Fraction.

`rref` (reduced row echelon form of any matrix) is the one elimination;
`rank`, `affine_rank` and `solve_square` (the unique solution of a square
system, or None when it is singular) are read off it.  `integer_row`
clears a row's denominators; `mat_mul`, `mat_vec` and `identity`
complete the set.

The library itself calls only `rref`, `integer_row` and the matrix
helpers.  `rank`, `affine_rank` and `solve_square` have no library caller
since the polytope dimension is certified by an interior point; they stay
because the tests' vertex oracle uses them and `bench/tracing.py` wraps
`solve_square` and `affine_rank` by name, which the bench contract test
requires to resolve.
"""

import math
from fractions import Fraction


def rref(matrix):
    """Reduced row echelon form.

    Returns (R, pivots) where R is the reduced matrix and pivots the list of
    pivot column indices.  Entries of R are ints where the quotient is exact
    and Fractions elsewhere.  The input is not modified.

    Fraction-free Gauss-Jordan: a step on pivot p, with p_prev the previous
    pivot, replaces every other row by (p * row - row[c] * pivot_row) /
    p_prev.  Every entry stays a minor of the scaled input, so each division
    is exact, and at the end every pivot row holds the same pivot value.
    """
    M = [integer_row(row)[0] for row in matrix]
    if not M:
        return M, []
    ncols = len(M[0])
    pivots = []
    r = 0
    prev = 1
    for c in range(ncols):
        pivot = None
        for i in range(r, len(M)):
            if M[i][c] != 0:
                pivot = i
                break
        if pivot is None:
            continue
        M[r], M[pivot] = M[pivot], M[r]
        top = M[r]
        p = top[c]
        for i in range(len(M)):
            if i == r:
                continue
            f = M[i][c]
            if f == 0:
                if p != prev:
                    M[i] = [p * a // prev for a in M[i]]
            else:
                M[i] = [(p * a - f * b) // prev for a, b in zip(M[i], top)]
        prev = p
        pivots.append(c)
        r += 1
        if r == len(M):
            break
    for i in range(r):
        d = M[i][pivots[i]]
        if d != 1:
            M[i] = [_quotient(x, d) for x in M[i]]
    return M, pivots


def integer_row(row):
    """(ints, scale): the row of ints and Fractions times the common
    denominator `scale` of its entries; an int row comes back as it is."""
    if all(type(x) is int for x in row):
        return list(row), 1
    scale = math.lcm(*(x.denominator for x in row))
    return [x.numerator * (scale // x.denominator) for x in row], scale


def _quotient(x, d):
    """x / d as an int when exact, else as a Fraction."""
    q, rem = divmod(x, d)
    return q if rem == 0 else Fraction(x, d)


def rank(matrix):
    return len(rref(matrix)[1])


def solve_square(A, b):
    """The unique solution of the square system A x = b as Fractions, or None
    when A is singular (regardless of consistency)."""
    n = len(A)
    R, pivots = rref([list(row) + [bv] for row, bv in zip(A, b)])
    if pivots[:n] != list(range(n)):
        return None
    return [Fraction(row[n]) for row in R]


def mat_mul(A, B):
    n, k = len(A), len(B)
    m = len(B[0]) if B else 0
    out = [[0] * m for _ in range(n)]
    for i in range(n):
        Ai = A[i]
        for t in range(k):
            a = Ai[t]
            if a == 0:
                continue
            Bt = B[t]
            row = out[i]
            for j in range(m):
                row[j] += a * Bt[j]
    return out


def mat_vec(A, v):
    return [sum(a * x for a, x in zip(row, v)) for row in A]


def identity(n):
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def affine_rank(points):
    """Dimension of the affine hull of `points` (each a rational vector)."""
    if not points:
        return -1
    base = points[0]
    return rank([[x - y for x, y in zip(p, base)] for p in points[1:]])
