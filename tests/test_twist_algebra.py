import itertools
from fractions import Fraction

import pytest

from conftest import fig8
from mck import linalg
from mck import morse_graph as mg
from mck import twist_algebra as ta
from mck.complex_builder import enumerate_top_classes
from mck.twist_algebra import (
    AlgebraInvariantViolation, _polytope_dim, check_stab_action,
    classify_circles, double_factorial_bound, homology_model, u_polytope,
)
from oracles import (
    algebra_json, box_vertices, enumerate_classes_direct, polytope_vertices,
    transvections)


def family_tower():
    """Three stacked one-saddle atoms; four fixed extrema make the two
    cylinder cores a parallel family (d = 1, c = 1)."""
    atom0 = mg.Atom.of([1], [((1, 0), (1, 3)), ((1, 2), (1, 1))])
    atom1 = mg.Atom.of([2], [((2, 0), (2, 1)), ((2, 2), (2, 3))])
    atom2 = mg.Atom.of([3], [((3, 0), (3, 3)), ((3, 2), (3, 1))])
    caps = (
        mg.Cap(circle=(0, 0), kind="min", label=1, marked=True, fixed=True),
        mg.Cap(circle=(0, 1), kind="min", label=2, marked=True, fixed=True),
        mg.Cap(circle=(2, 1), kind="min", label=3, marked=True, fixed=True),
        mg.Cap(circle=(2, 2), kind="max", label=1, marked=True, fixed=True),
        mg.Cap(circle=(1, 2), kind="max", label=2, marked=True, fixed=False),
    )
    return mg.LMG(q=3, p=3, r=2, levels=((0,), (1,), (2,)),
                  atoms=(atom0, atom1, atom2), caps=caps,
                  cylinders=(((0, 2), (1, 0)), ((1, 1), (2, 0))),
                  marked_saddles=frozenset({1, 2, 3}),
                  fixed_saddles=frozenset())


def q2_catalog_with_models():
    out = []
    for p, r in [(3, 1), (2, 2), (1, 3)]:
        for g in enumerate_classes_direct(p, 2, r):
            out.append((g, homology_model(g)))
    return out


# ---------------------------------------------------------------------------
# bounds
# ---------------------------------------------------------------------------

def test_double_factorial_bound_values():
    assert double_factorial_bound(2, 1) == 1   # 3!!/3!!
    assert double_factorial_bound(2, 2) == 3   # 3!!/1!!
    assert double_factorial_bound(3, 2) == 5   # 5!!/3!!
    assert double_factorial_bound(3, 3) == 15  # 5!!/1!!
    assert double_factorial_bound(1, 1) == 1


# ---------------------------------------------------------------------------
# homology model
# ---------------------------------------------------------------------------

def test_one_level_model_is_identity(fig8_lmg):
    m = homology_model(fig8_lmg)
    assert m.n == 0
    for i in range(2 * fig8_lmg.q):
        assert list(m.expansion[i]) == [1 if m.basis[j] == i else 0
                                        for j in range(len(m.basis))]


def test_two_level_expansion_is_integral(q2_two_level):
    m = homology_model(q2_two_level)
    assert m.n == 1
    d = m.deleted[0]
    row = m.expansion[d]
    assert all(x.denominator == 1 for x in row)
    # the relation says: upper-boundary edge sum equals lower-boundary sum
    lo, hi = q2_two_level.cylinders[0]
    pos = {e: i for i, e in enumerate(m.edges)}
    atoms = q2_two_level.atoms
    up_edges = [pos[(hi[0], e)] for e in atoms[hi[0]].circles[hi[1]][1]]
    low_edges = [pos[(lo[0], e)] for e in atoms[lo[0]].circles[lo[1]][1]]
    for j in range(len(m.basis)):
        lhs = sum(m.expansion[i][j] for i in up_edges)
        rhs = sum(m.expansion[i][j] for i in low_edges)
        assert lhs == rhs


def test_relations_are_coherently_oriented():
    # each cylinder relation is +1 on its upper-boundary edges and -1 on its
    # lower-boundary edges (boundary circles are coherently oriented)
    for g, m in q2_catalog_with_models():
        pos = {e: i for i, e in enumerate(m.edges)}
        for k, (lo, hi) in enumerate(g.cylinders):
            row = m.relations[k]
            ups = {pos[(hi[0], e)] for e in g.atoms[hi[0]].circles[hi[1]][1]}
            lows = {pos[(lo[0], e)] for e in g.atoms[lo[0]].circles[lo[1]][1]}
            for i, x in enumerate(row):
                assert x == (1 if i in ups else -1 if i in lows else 0)


def test_single_cylinder_expansion_signs(q2_two_level):
    # one relation: the traded edge expands with +1 over the opposite circle
    # and -1 over the rest of its own circle
    m = homology_model(q2_two_level)
    d = m.deleted[0]
    row = m.expansion[d]
    assert sorted(row) in ([-1, 1, 1], [0, 0, 1], [1, 1, 1])
    assert all(x.denominator == 1 for x in row)


def test_expansion_and_gamma_are_ints(complex_q1, complexes_q2, complexes_q3):
    # every q <= 3 all-marked class: the handle algebra stays over int
    for K in [complex_q1, *complexes_q2.values(), *complexes_q3.values()]:
        for rec in K.classes:
            m = homology_model(rec.lmg)
            assert all(type(x) is int for row in m.expansion for x in row)
            assert all(type(x) is int for row in m.gamma for x in row)


def test_non_integral_expansion_raises(monkeypatch, q2_two_level):
    # halve the elimination's answer: the traded edge's expansion stops
    # being integral, which must raise rather than be rounded or carried on
    rref = linalg.rref

    def halved(matrix):
        R, pivots = rref(matrix)
        return [[Fraction(x, 2) if j >= len(pivots) else x
                 for j, x in enumerate(row)] for row in R], pivots

    monkeypatch.setattr(linalg, "rref", halved)
    with pytest.raises(AlgebraInvariantViolation, match="non-integral"):
        homology_model(q2_two_level)


def test_expansion_rank_full():
    for g, m in q2_catalog_with_models():
        assert linalg.rank([list(r) for r in m.expansion]) == len(m.basis)


# ---------------------------------------------------------------------------
# transvections
# ---------------------------------------------------------------------------

def test_transvection_kernel(q2_two_level):
    m = homology_model(q2_two_level)
    (tv,) = transvections(q2_two_level, m)
    dim = m.n + len(m.basis)
    # a nonzero dual vector vanishing on the core is fixed
    core = list(tv.core)
    i = next(j for j, c in enumerate(core) if c != 0)
    j = (i + 1) % len(core)
    u_prime = [Fraction(0)] * len(core)
    u_prime[j], u_prime[i] = core[i], -core[j]
    assert sum(c * x for c, x in zip(core, u_prime)) == 0
    u = [Fraction(7)] * m.n + u_prime
    assert linalg.mat_vec(tv.matrix, u) == u
    # a vector with core value v shifts its transverse coordinate by v
    u2 = [Fraction(0)] * m.n + [Fraction(1)] * len(m.basis)
    core_val = sum(core)
    moved = linalg.mat_vec(tv.matrix, u2)
    assert moved[0] - u2[0] == core_val
    assert moved[m.n:] == u2[m.n:]


def test_transvections_commute_and_have_full_rank():
    for g, m in q2_catalog_with_models():
        tvs = transvections(g, m)
        mats = [[list(r) for r in t.matrix] for t in tvs]
        for A, B in itertools.combinations(mats, 2):
            assert linalg.mat_eq(linalg.mat_mul(A, B), linalg.mat_mul(B, A))
        if tvs:
            assert linalg.rank([list(t.core) for t in tvs]) == m.n
        # unipotent: (M - I) squared is zero
        for A in mats:
            n = len(A)
            N = [[A[i][j] - (1 if i == j else 0) for j in range(n)]
                 for i in range(n)]
            Z = linalg.mat_mul(N, N)
            assert all(x == 0 for row in Z for x in row)


def test_transvections_fix_all_edge_values():
    # u([e_i]) depends only on the kept coordinates, which transvections fix
    for g, m in q2_catalog_with_models():
        for t in transvections(g, m):
            M = [list(r) for r in t.matrix]
            for i in range(len(m.edges)):
                func = [Fraction(0)] * m.n + list(m.expansion[i])
                moved = [sum(func[k] * M[k][j] for k in range(len(M)))
                         for j in range(len(M))]
                assert moved == func


# ---------------------------------------------------------------------------
# circle classification
# ---------------------------------------------------------------------------

def test_one_level_classification(fig8_lmg):
    cls = classify_circles(fig8_lmg)
    assert (cls.n, cls.nu0, cls.e, cls.d, cls.c) == (0, 0, 0, 0, 0)


def test_two_level_classification(q2_two_level):
    # no fixed points at all: every core has a fixed-point-free side
    cls = classify_circles(q2_two_level)
    assert (cls.n, cls.nu0, cls.d, cls.c) == (1, 1, 1, 0)
    assert cls.d == len(q2_two_level.atoms) - 1


def test_classification_identities_q2_exhaustive():
    for g, _ in q2_catalog_with_models():
        rep = mg.validate(g, require_marks=False)
        cls = classify_circles(g)
        assert cls.c + cls.d == rep.n
        assert cls.d == len(cls.B) and cls.c == len(cls.A)
        assert cls.A | cls.B == set(range(1, rep.n + 1))
        assert cls.d == rep.t - 1  # no fixed points
        floating = (g.p - sum(1 for c in g.caps if c.kind == "min" and c.fixed)
                    + g.r - sum(1 for c in g.caps if c.kind == "max" and c.fixed))
        assert cls.d <= min(floating, rep.t - 1)


def test_family_tower_classification():
    g = family_tower()
    cls = classify_circles(g)
    assert cls.nu0 == 0
    assert cls.families == ((0, 1),)
    assert (cls.e, cls.d, cls.c) == (1, 1, 1)
    assert sorted(cls.A) == [2] and sorted(cls.B) == [1]
    # d hits the floating-extrema bound: one unfixed maximum
    assert cls.d == 1 == min(1, len(g.atoms) - 1)


def test_non_sphere_is_unsupported_scope():
    from mck.twist_algebra import UnsupportedScopeError
    atom0 = mg.Atom.of([1], [((1, 0), (1, 1)), ((1, 2), (1, 3))])
    atom1 = mg.Atom.of([2], [((2, 0), (2, 3)), ((2, 2), (2, 1))])
    caps = (mg.Cap(circle=(0, 0), kind="min", label=1, marked=True, fixed=False),
            mg.Cap(circle=(1, 2), kind="max", label=1, marked=True, fixed=False))
    torus = mg.LMG(q=2, p=1, r=1, levels=((0,), (1,)), atoms=(atom0, atom1),
                   caps=caps, cylinders=(((0, 1), (1, 0)), ((0, 2), (1, 1))),
                   marked_saddles=frozenset({1, 2}), fixed_saddles=frozenset())
    with pytest.raises(UnsupportedScopeError):
        classify_circles(torus)


def test_saturated_fixed_counts_give_floating_rank(q2_two_level):
    # with exactly three fixed extrema (the saturation of the <= chi + 1
    # hypothesis) and one saddle per atom, the twist rank equals the number
    # of floating extrema: d = t - 1 = p' + p'' + r' + r''
    g = q2_two_level
    caps = tuple(mg.Cap(circle=c.circle, kind=c.kind, label=c.label,
                        marked=True,
                        fixed=(c.kind == "min" or c.label == 1))
                 for c in g.caps)
    g2 = g.replace(caps=caps)
    mg.validate(g2)
    cls = classify_circles(g2)
    floating = sum(1 for c in g2.caps if not c.fixed)
    assert len(g2.atoms) == g2.q
    assert cls.d == len(g2.atoms) - 1 == floating == 1


def test_fixed_points_break_the_family():
    # fixing the middle maximum splits the family: no parallel pair remains
    g = family_tower()
    caps = tuple(c if c.circle != (1, 2) else
                 mg.Cap(circle=(1, 2), kind="max", label=2, marked=True, fixed=True)
                 for c in g.caps)
    g2 = g.replace(caps=caps)
    cls = classify_circles(g2)
    assert cls.families == ()
    assert (cls.nu0, cls.e, cls.d, cls.c) == (0, 0, 0, 2)


# ---------------------------------------------------------------------------
# polytopes
# ---------------------------------------------------------------------------

def test_one_level_polytope_is_a_point(fig8_lmg):
    m = homology_model(fig8_lmg)
    P = u_polytope(fig8_lmg, m)
    assert P.bound == 1 and P.is_point and P.dim == 0
    assert polytope_vertices(P) == (tuple([Fraction(1)] * P.ambient),)


def test_two_level_polytope(q2_two_level):
    m = homology_model(q2_two_level)
    P = u_polytope(q2_two_level, m)
    assert P.bound == 3
    assert P.dim == 2 * q2_two_level.q - m.n
    assert polytope_vertices(P)  # tiny scale: vertices are enumerated


def test_q3_two_level_polytope_bound():
    from mck.permutohedron import OrderedPartition
    from mck.perturbation import delta
    g = enumerate_top_classes(4, 3, 1)[0]
    h = delta(g, OrderedPartition.of([{1}, {2, 3}]))
    m = homology_model(h)
    P = u_polytope(h, m)
    assert P.bound == 5  # 5!!/3!!
    assert P.dim == 2 * h.q - m.n
    assert not P.is_point


def test_vertex_enumeration_matches_brute_force():
    # independent oracle: intersect all ambient-sized hyperplane subsets
    import random

    def brute(slab_rows, bound, ambient):
        lo, hi = Fraction(1), Fraction(bound)
        hyper = []
        for row in slab_rows:
            hyper.append((row, lo))
            hyper.append((row, hi))
        for j in range(ambient):
            unit = [Fraction(1 if i == j else 0) for i in range(ambient)]
            hyper.append((unit, lo))
            hyper.append((unit, hi))
        verts = set()
        for combo in itertools.combinations(range(len(hyper)), ambient):
            A = [list(hyper[i][0]) for i in combo]
            b = [hyper[i][1] for i in combo]
            x = linalg.solve_square(A, b)
            if x is None or not all(lo <= xj <= hi for xj in x):
                continue
            if all(lo <= sum((r * xj for r, xj in zip(row, x)), Fraction(0)) <= hi
                   for row in slab_rows):
                verts.add(tuple(x))
        return sorted(verts)

    rng = random.Random(7)
    for _ in range(40):
        ambient = rng.randint(1, 4)
        nslab = rng.randint(0, 2)
        rows = [[Fraction(rng.randint(-2, 2)) for _ in range(ambient)]
                for _ in range(nslab)]
        bound = rng.choice([1, 3, 5])
        assert box_vertices(rows, bound, ambient) == brute(rows, bound, ambient)


def dim_oracle(slab_rows, bound, ambient):
    return linalg.affine_rank(box_vertices(slab_rows, bound, ambient))


def test_certified_dim_matches_vertex_oracle():
    # the certificate gives the vertex oracle's dimension on every point
    # (bound 1) and full-dimensional draw, and raises on every empty or
    # degenerate one
    import random
    rng = random.Random(13)
    empty = degenerate = 0
    for _ in range(120):
        ambient = rng.randint(1, 5)
        nslab = rng.randint(0, 3)
        rows = [tuple(Fraction(rng.randint(-2, 2)) for _ in range(ambient))
                for _ in range(nslab)]
        bound = rng.choice([1, 3, 5, 15])
        if not box_vertices(rows, bound, ambient):
            empty += 1
        elif bound > 1 and dim_oracle(rows, bound, ambient) < ambient:
            degenerate += 1
        else:
            assert (_polytope_dim(rows, bound, ambient)
                    == dim_oracle(rows, bound, ambient))
            continue
        with pytest.raises(AlgebraInvariantViolation, match="empty"):
            _polytope_dim(rows, bound, ambient)
    assert 0 < empty and 0 < degenerate and empty + degenerate < 120


# `degenerate`: the polytope is not empty but lies in a proper affine
# subspace, so it has no strict interior point and the certificate raises
@pytest.mark.parametrize("rows, bound, ambient, dim, degenerate", [
    ([(1, 1)], 2, 2, 0, True),             # forces u = (1, 1)
    ([(1, -1)], 2, 2, 0, True),            # forces u = (2, 1)
    ([(1, 1, 0)], 2, 3, 1, True),          # u_3 alone stays free
    ([(1, 1), (1, -1)], 3, 2, 0, True),    # two slabs force u = (2, 1)
    ([(Fraction(1, 2), Fraction(1, 2))], 3, 2, 2, False),
    ([(1, 0, 0), (-1, 1, 1)], 1, 3, 0, False),   # bound 1, rows sum to 1
    ([], 5, 4, 4, False),
])
def test_certified_dim_degenerate_cases(rows, bound, ambient, dim,
                                        degenerate):
    rows = [tuple(Fraction(x) for x in row) for row in rows]
    assert dim == dim_oracle(rows, bound, ambient)
    if degenerate:
        with pytest.raises(AlgebraInvariantViolation,
                           match="empty or not full-dimensional"):
            _polytope_dim(rows, bound, ambient)
    else:
        assert _polytope_dim(rows, bound, ambient) == dim


@pytest.mark.parametrize("row, bound", [((1, 1), 1), ((-1, -1), 5)])
def test_empty_polytope_raises(row, bound):
    with pytest.raises(AlgebraInvariantViolation, match="empty"):
        _polytope_dim([tuple(Fraction(x) for x in row)], bound, 2)


def test_failed_certificate_raises(monkeypatch):
    # the witness is (numerators, common denominator); the all-ones point
    # sits on the boundary u_j = 1, so the certificate rejects it
    monkeypatch.setattr(ta, "_strict_witness",
                        lambda system, ambient: ([1] * ambient, 1))
    with pytest.raises(AlgebraInvariantViolation, match="certificate"):
        _polytope_dim([(Fraction(1), Fraction(1))], 5, 2)


def test_polytope_dims_q2_exhaustive():
    for g, m in q2_catalog_with_models():
        P = u_polytope(g, m)
        assert 0 <= P.dim <= len(m.basis)
        assert P.dim == dim_oracle(P.slabs, P.bound, P.ambient)
        if len(g.levels) == 1:
            assert P.is_point
        else:
            assert P.dim == 2 * g.q - m.n
        for v in polytope_vertices(P) or ():
            for row in m.expansion:
                val = sum((a * b for a, b in zip(row, v)), Fraction(0))
                assert 1 <= val <= P.bound


# ---------------------------------------------------------------------------
# stabilizer action
# ---------------------------------------------------------------------------

def test_identity_is_admissible(q2_two_level):
    m = homology_model(q2_two_level)
    auts = mg.canonicalize(q2_two_level)[1]
    rep = check_stab_action(q2_two_level, m, auts)
    assert rep.all_admissible and rep.all_free
    # the group is trivial and the identity is never checked
    assert len(auts) == 1 and auts[0].is_identity() and rep.checks == ()


def test_fig8_loop_swap_is_admissible_and_moves_both_disks():
    g = fig8(marked_minima=False)
    m = homology_model(g)
    auts = mg.canonicalize(g)[1]
    assert len(auts) == 2
    rep = check_stab_action(g, m, auts)
    assert rep.all_admissible
    swap = next(a for a in auts if not a.is_identity())
    cmap = swap.circles
    # the swap acts freely on the two min-disk circles
    assert cmap[(0, 0)] != (0, 0) and cmap[(0, 1)] != (0, 1)


def test_stab_action_q2_exhaustive():
    for g, m in q2_catalog_with_models():
        rep = check_stab_action(g, m, mg.canonicalize(g)[1])
        assert rep.all_admissible and rep.all_free


def symmetric_two_level_classes():
    """(class, automorphisms) of the q = 3 (4, 1) faces, minima unmarked,
    whose group is not trivial."""
    from mck.complex_builder import MarkingSpec
    from mck.perturbation import delta
    from mck.permutohedron import refinements
    marking = MarkingSpec(marked=(0, 3, 1), fixed=(0, 0, 0))
    for g in enumerate_top_classes(4, 3, 1, marking):
        for J1 in refinements(g.level_partition(), proper=True):
            h = delta(g, J1)
            auts = mg.canonicalize(h)[1]
            if len(auts) > 1:
                yield h, auts


def test_symmetric_two_level_class_is_admissible_and_free():
    # unmarked minima allow the loop swap on a two-level class; its action
    # rotates the cylinder boundary below by half a turn but not above,
    # leaving a half-integer twist obstruction: the action is free
    hit = 0
    for h, auts in symmetric_two_level_classes():
        m = homology_model(h)
        rep = check_stab_action(h, m, auts)
        assert rep.all_admissible
        assert rep.all_free
        assert len(rep.checks) == len(auts) - 1
        for chk in rep.checks:
            assert any(off != 0 for _, off in chk.cycle_obstructions)
        hit += 1
    assert hit > 0


def test_tampered_traded_row_is_inconsistent():
    # the consistency test reads the traded-edge rows of the expansion; one
    # wrong entry, in a coordinate the swap moves, makes the swap
    # inconsistent and so inadmissible
    import dataclasses
    h, auts = next(c for c in symmetric_two_level_classes() if len(c[1]) == 2)
    swap = auts[1]
    m = homology_model(h)
    j = next(j for j, b in enumerate(m.basis) if swap.edges[b] != b)
    d = m.deleted[0]
    rows = list(m.expansion)
    rows[d] = tuple(x + (k == j) for k, x in enumerate(rows[d]))
    bad = dataclasses.replace(m, expansion=tuple(rows))
    (good_check,) = check_stab_action(h, m, auts).checks
    assert good_check.consistent and good_check.admissible
    (bad_check,) = check_stab_action(h, bad, auts).checks
    assert not bad_check.consistent and not bad_check.admissible


# ---------------------------------------------------------------------------
# JSON dump
# ---------------------------------------------------------------------------

def test_algebra_json_shape(q2_two_level):
    import json
    doc = json.loads(algebra_json(q2_two_level))
    assert set(doc) == {"edges", "deleted", "basis", "expansion",
                        "transvections", "cores", "circles", "polytope"}
    assert doc["circles"]["n"] == 1
    assert doc["polytope"]["hi"] == 3
    # rationals as numerator/denominator pairs
    assert all(len(pair) == 2 for row in doc["expansion"] for pair in row)
