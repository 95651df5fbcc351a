"""Small exact linear algebra over the rationals.

Matrices are lists of lists of Fraction (rows).  Everything here is
fraction-free in spirit but lazy in practice: Fraction arithmetic keeps the
code short and the matrices involved are tiny (at most ~20 x ~20).

`rref` (reduced row echelon form of any matrix) is the one elimination;
`rank`, `affine_rank` and `solve_square` (the unique solution of a square
system, or None when it is singular) are read off it.  `mat_mul`,
`mat_vec`, `identity` and `mat_eq` complete the set.
"""

from fractions import Fraction


def rref(matrix):
    """Reduced row echelon form.

    Returns (R, pivots) where R is the reduced matrix and pivots the list of
    pivot column indices.  The input is not modified.
    """
    R = [[Fraction(x) for x in row] for row in matrix]
    if not R:
        return R, []
    ncols = len(R[0])
    pivots = []
    r = 0
    for c in range(ncols):
        pivot = None
        for i in range(r, len(R)):
            if R[i][c] != 0:
                pivot = i
                break
        if pivot is None:
            continue
        R[r], R[pivot] = R[pivot], R[r]
        inv = R[r][c]
        R[r] = [x / inv for x in R[r]]
        for i in range(len(R)):
            if i != r and R[i][c] != 0:
                f = R[i][c]
                R[i] = [a - f * b for a, b in zip(R[i], R[r])]
        pivots.append(c)
        r += 1
        if r == len(R):
            break
    return R, pivots


def rank(matrix):
    return len(rref(matrix)[1])


def solve_square(A, b):
    """The unique solution of the square system A x = b, or None when A is
    singular (regardless of consistency)."""
    n = len(A)
    R, pivots = rref([list(row) + [bv] for row, bv in zip(A, b)])
    if pivots[:n] != list(range(n)):
        return None
    return [row[n] for row in R]


def mat_mul(A, B):
    n, k = len(A), len(B)
    m = len(B[0]) if B else 0
    out = [[Fraction(0)] * m for _ in range(n)]
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
    return [sum((a * x for a, x in zip(row, v)), Fraction(0)) for row in A]


def identity(n):
    return [[Fraction(1 if i == j else 0) for j in range(n)] for i in range(n)]


def mat_eq(A, B):
    return len(A) == len(B) and all(ra == rb for ra, rb in zip(A, B))


def affine_rank(points):
    """Dimension of the affine hull of `points` (each a rational vector)."""
    if not points:
        return -1
    base = points[0]
    diffs = [[Fraction(x) - Fraction(y) for x, y in zip(p, base)] for p in points[1:]]
    return rank(diffs)
