"""`rref` is the one elimination; `solve_square` and `rank` are read off it.
Both are checked against determinant oracles on seeded random integer
matrices, singular ones included, and the fraction-free `rref` against the
plain Fraction elimination of `oracles.fraction_rref` on integer and
rational matrices."""

import itertools
import random
from fractions import Fraction

import pytest

from mck import linalg
from oracles import fraction_rref


def det(M):
    """Leibniz determinant: a signed sum over all permutations."""
    n = len(M)
    total = Fraction(0)
    for perm in itertools.permutations(range(n)):
        inversions = sum(1 for i, j in itertools.combinations(range(n), 2)
                         if perm[i] > perm[j])
        term = Fraction((-1) ** inversions)
        for i in range(n):
            term *= M[i][perm[i]]
        total += term
    return total


def cramer(A, b):
    """The solution of A x = b by Cramer's rule, or None when det A = 0."""
    d = det(A)
    if d == 0:
        return None
    n = len(A)
    return [det([row[:i] + [bv] + row[i + 1:] for row, bv in zip(A, b)]) / d
            for i in range(n)]


def oracle_rank(M):
    """The largest k with a nonzero k x k minor."""
    rows, cols = len(M), len(M[0]) if M else 0
    for k in range(min(rows, cols), 0, -1):
        for ri in itertools.combinations(range(rows), k):
            for ci in itertools.combinations(range(cols), k):
                if det([[M[i][j] for j in ci] for i in ri]) != 0:
                    return k
    return 0


def random_matrix(rng, rows, cols):
    M = [[rng.randint(-2, 2) for _ in range(cols)] for _ in range(rows)]
    if rows >= 2 and rng.random() < 0.3:
        # make one row a combination of two others: singular by design
        i, j, k = (rng.randrange(rows) for _ in range(3))
        M[i] = [rng.randint(-1, 1) * x + y for x, y in zip(M[j], M[k])]
    return M


def test_solve_square_matches_cramer():
    rng = random.Random(11)
    singular = regular = 0
    for _ in range(400):
        n = rng.randint(0, 4)
        A = random_matrix(rng, n, n)
        b = [rng.randint(-3, 3) for _ in range(n)]
        want = cramer(A, b)
        got = linalg.solve_square(A, b)
        assert got == want, (A, b)
        if want is None:
            singular += 1
        else:
            regular += 1
            assert all(type(x) is Fraction for x in got)
    assert singular > 50 and regular > 50


def test_rref_is_idempotent_and_counts_the_rank():
    rng = random.Random(12)
    for _ in range(300):
        rows, cols = rng.randint(0, 4), rng.randint(1, 4)
        M = random_matrix(rng, rows, cols)
        before = [list(row) for row in M]
        R, pivots = linalg.rref(M)
        assert M == before
        assert linalg.rref(R) == (R, pivots)
        assert len(pivots) == oracle_rank(M) == linalg.rank(M)
        # pivot columns are unit columns, and the rows below the rank vanish
        for r, c in enumerate(pivots):
            assert [row[c] for row in R] == [int(i == r) for i in range(rows)]
        assert all(x == 0 for row in R[len(pivots):] for x in row)


def random_rational_matrix(rng, rows, cols):
    M = random_matrix(rng, rows, cols)
    return [[Fraction(x, rng.randint(1, 6)) if rng.random() < 0.5 else x
             for x in row] for row in M]


@pytest.mark.parametrize("make", [random_matrix, random_rational_matrix],
                         ids=["integer", "rational"])
def test_rref_matches_fraction_elimination(make):
    rng = random.Random(13)
    singular = fractional = 0
    for _ in range(400):
        rows, cols = rng.randint(0, 6), rng.randint(1, 7)
        M = make(rng, rows, cols)
        R, pivots = linalg.rref(M)
        assert (R, pivots) == fraction_rref(M), M
        singular += len(pivots) < rows
        # an exact quotient comes back as int, a true quotient as Fraction
        for x in (x for row in R for x in row):
            assert type(x) is (int if x.denominator == 1 else Fraction)
            fractional += type(x) is Fraction
    assert singular > 50 and fractional > 50


def test_rref_keeps_large_integers_exact():
    # entries well beyond the handle algebra's -1..1: every Bareiss division
    # must still be exact
    rng = random.Random(14)
    for _ in range(100):
        n = rng.randint(2, 6)
        M = [[rng.randint(-10 ** 6, 10 ** 6) for _ in range(n + 1)]
             for _ in range(n)]
        assert linalg.rref(M) == fraction_rref(M)
