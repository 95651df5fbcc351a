import dataclasses
import itertools
import math
from fractions import Fraction
from types import MappingProxyType

import pytest

from conftest import fig8, group_of
from mck import linalg
from mck import morse_graph as mg
from mck import twist_algebra as ta
from mck.complex_builder import enumerate_top_classes
from mck.twist_algebra import (
    _polytope_dim, check_stab_action, classify_circles, double_factorial_bound,
    homology_model, u_polytope,
)
from oracles import (
    algebra_json, box_vertices, circle_images, delta_chain,
    enumerate_classes_direct, polytope_slabs, polytope_vertices, relabel,
    transvections)


def family_tower():
    """Three stacked one-saddle atoms with four fixed extrema, one more than
    the builder's scope allows; the two cylinder cores would form a
    parallel family (d = 1, c = 1)."""
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
    with pytest.raises(mg.InvariantViolation, match="non-integral"):
        homology_model(q2_two_level)


def test_repeated_traded_edge_raises(monkeypatch, complexes_q3):
    # trading one edge for both cylinders of a class makes the cylinder
    # relations singular on the traded edges, which must raise
    g = next(rec.lmg for rec in complexes_q3[(4, 1)].classes if rec.n == 2)
    e = ta._traded_edges(g)[0]
    monkeypatch.setattr(ta, "_traded_edges", lambda g: [e, e])
    with pytest.raises(mg.InvariantViolation, match="singular"):
        homology_model(g)


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
            assert linalg.mat_mul(A, B) == linalg.mat_mul(B, A)
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
    assert classify_circles(fig8_lmg) == len(fig8_lmg.cylinders) == 0


def test_two_level_classification(q2_two_level):
    # no fixed points at all: every core has a fixed-point-free side
    g = q2_two_level
    assert classify_circles(g) == len(g.cylinders) == len(g.atoms) - 1 == 1


def test_classification_identities_q2_exhaustive():
    for g, _ in q2_catalog_with_models():
        mg.validate(g)
        d = classify_circles(g)
        assert d == len(g.cylinders) == len(g.atoms) - 1
        floating = (g.p - sum(1 for c in g.caps if c.kind == "min" and c.fixed)
                    + g.r - sum(1 for c in g.caps if c.kind == "max" and c.fixed))
        assert d <= min(floating, len(g.atoms) - 1)


def test_more_than_three_fixed_points_raise():
    # a class has at most chi(S^2) + 1 = 3 fixed points at the builder's
    # scope, which makes every core a nu0 core; four fixed extrema are
    # outside it, and the classification refuses them rather than counting
    g = family_tower()
    mg.validate(g)
    with pytest.raises(mg.InvariantViolation, match="4 fixed points"):
        classify_circles(g)


def test_non_sphere_is_unsupported_scope():
    atom0 = mg.Atom.of([1], [((1, 0), (1, 1)), ((1, 2), (1, 3))])
    atom1 = mg.Atom.of([2], [((2, 0), (2, 3)), ((2, 2), (2, 1))])
    caps = (mg.Cap(circle=(0, 0), kind="min", label=1, marked=True, fixed=False),
            mg.Cap(circle=(1, 2), kind="max", label=1, marked=True, fixed=False))
    torus = mg.LMG(q=2, p=1, r=1, levels=((0,), (1,)), atoms=(atom0, atom1),
                   caps=caps, cylinders=(((0, 1), (1, 0)), ((0, 2), (1, 1))),
                   marked_saddles=frozenset({1, 2}), fixed_saddles=frozenset())
    with pytest.raises(mg.EulerCountError):
        mg.validate(torus)
    with pytest.raises(mg.InvariantViolation, match="not a tree"):
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
    g2 = dataclasses.replace(g, caps=caps)
    mg.validate(g2)
    floating = sum(1 for c in g2.caps if not c.fixed)
    assert len(g2.atoms) == g2.q
    assert classify_circles(g2) == len(g2.atoms) - 1 == floating == 1


# ---------------------------------------------------------------------------
# polytopes
# ---------------------------------------------------------------------------

def test_one_level_polytope_is_a_point(fig8_lmg):
    m = homology_model(fig8_lmg)
    assert double_factorial_bound(fig8_lmg.q, 1) == 1
    assert u_polytope(fig8_lmg, m) == 0
    assert (polytope_vertices(fig8_lmg, m)
            == (tuple([Fraction(1)] * len(m.basis)),))


def test_two_level_polytope(q2_two_level):
    m = homology_model(q2_two_level)
    assert double_factorial_bound(q2_two_level.q, 2) == 3
    assert u_polytope(q2_two_level, m) == 2 * q2_two_level.q - m.n
    # tiny scale: vertices are enumerated
    assert polytope_vertices(q2_two_level, m)


def test_q3_two_level_polytope_bound():
    from mck.perturbation import delta
    g = enumerate_top_classes(4, 3, 1)[0]
    h = delta(g, ((1,), (2, 3)))
    m = homology_model(h)
    assert double_factorial_bound(h.q, len(h.levels)) == 5  # 5!!/3!!
    dim = u_polytope(h, m)
    assert dim == 2 * h.q - m.n
    assert dim != 0


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


def oracle_point(slab_rows, bound, ambient):
    """The centroid of the vertex oracle's polytope, or the box centre when
    the polytope is empty, as (integer numerators, common denominator).
    The centroid of a full-dimensional polytope is an interior point; any
    point of an empty or degenerate one fails the strict check."""
    verts = (box_vertices(slab_rows, bound, ambient)
             or [(Fraction(bound + 1, 2),) * ambient])
    point = [sum(c) / len(verts) for c in zip(*verts)]
    D = math.lcm(*(x.denominator for x in point))
    return [int(x * D) for x in point], D


def test_certified_dim_matches_vertex_oracle():
    # the vertex oracle's centroid certifies its dimension on every point
    # (bound 1) and full-dimensional draw, and every empty or degenerate
    # draw raises
    import random
    rng = random.Random(13)
    empty = degenerate = 0
    for _ in range(120):
        ambient = rng.randint(1, 5)
        nslab = rng.randint(0, 3)
        rows = [tuple(Fraction(rng.randint(-2, 2)) for _ in range(ambient))
                for _ in range(nslab)]
        bound = rng.choice([1, 3, 5, 15])
        point = oracle_point(rows, bound, ambient)
        if not box_vertices(rows, bound, ambient):
            empty += 1
        elif bound > 1 and dim_oracle(rows, bound, ambient) < ambient:
            degenerate += 1
        else:
            assert (_polytope_dim(rows, bound, point)
                    == dim_oracle(rows, bound, ambient))
            continue
        with pytest.raises(mg.InvariantViolation,
                           match="empty" if bound == 1 else "certificate"):
            _polytope_dim(rows, bound, point)
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
    point = oracle_point(rows, bound, ambient)
    if degenerate:
        with pytest.raises(mg.InvariantViolation,
                           match="certificate of the edge-value polytope"):
            _polytope_dim(rows, bound, point)
    else:
        assert _polytope_dim(rows, bound, point) == dim


@pytest.mark.parametrize("row, bound", [((1, 1), 1), ((-1, -1), 5)])
def test_empty_polytope_raises(row, bound):
    # bound 1 checks the box's one point against the row; above it, no
    # point of an empty polytope passes the exact check, the box centre
    # included
    centre = ([bound + 1] * 2, 2)
    with pytest.raises(mg.InvariantViolation,
                       match="empty" if bound == 1 else "certificate"):
        _polytope_dim([tuple(Fraction(x) for x in row)], bound, centre)


def test_failed_certificate_raises():
    # the point is (numerators, common denominator); the all-ones point
    # sits on the boundary u_j = 1 and a non-positive denominator is no
    # point, so the certificate rejects both; no point at all says the
    # tree's point does not fit and claims nothing about the polytope
    rows = [(Fraction(1), Fraction(1))]
    for point in (([1, 1], 1), ([-3, -3], -1)):
        with pytest.raises(mg.InvariantViolation, match="certificate"):
            _polytope_dim(rows, 5, point)
    with pytest.raises(mg.InvariantViolation,
                       match="tree's point does not fit") as info:
        _polytope_dim(rows, 5, None)
    assert "empty" not in str(info.value)
    assert _polytope_dim(rows, 5, ([2, 2], 1)) == 2


def test_polytope_dims_q2_exhaustive():
    for g, m in q2_catalog_with_models():
        slabs, bound, ambient = polytope_slabs(g, m)
        dim = u_polytope(g, m)
        assert 0 <= dim <= len(m.basis)
        assert dim == dim_oracle(slabs, bound, ambient)
        if len(g.levels) == 1:
            assert dim == 0
        else:
            assert dim == 2 * g.q - m.n
        for v in polytope_vertices(g, m) or ():
            for row in m.expansion:
                val = sum((a * b for a, b in zip(row, v)), Fraction(0))
                assert 1 <= val <= bound


def test_tree_witness_fits_every_q3_class(complex_q1, complexes_q2,
                                         complexes_q3):
    # on every class of every q <= 3 all-marked complex the assembly tree's
    # point exists, passes the exact check and certifies the dimension the
    # build recorded; the worst lmax / lmin per (q, s), read off the edge
    # values, is within the bound `_tree_witness` proves, which is below
    # the double-factorial bound
    proven = {(2, 2): 2 * (2 - 1), (3, 2): 2 * (3 - 1), (3, 3): 2 ** 3}
    complexes = [complex_q1, *complexes_q2.values(), *complexes_q3.values()]
    multi, worst = 0, {}
    for K in complexes:
        for rec in K.classes:
            g = rec.lmg
            m = homology_model(g)
            slabs, bound, ambient = polytope_slabs(g, m)
            dim = u_polytope(g, m)
            tree = ta._tree_witness(g, m, bound)
            if bound == 1:
                assert tree is None and dim == rec.dim_upoly == 0
                continue
            multi += 1
            assert tree is not None, rec.class_id
            assert (_polytope_dim(slabs, bound, tree)
                    == dim == rec.dim_upoly == ambient), rec.class_id
            nums = tree[0]
            values = nums + [sum(x * v for x, v in zip(row, nums))
                             for row in slabs]
            key = (g.q, rec.s)
            worst[key] = max(worst.get(key, 0),
                             Fraction(max(values), min(values)))
    assert multi > 1000
    assert worst == {(2, 2): 2, (3, 2): 4, (3, 3): 4}
    for key, ratio in worst.items():
        assert ratio <= proven[key] < double_factorial_bound(*key)


# ---------------------------------------------------------------------------
# stabilizer action
# ---------------------------------------------------------------------------

def test_identity_is_admissible(q2_two_level):
    m = homology_model(q2_two_level)
    auts = group_of(q2_two_level)
    # the group is trivial, and the identity is admissible and free by
    # definition
    assert len(auts) == 1 and auts[0].is_identity()
    assert check_stab_action(q2_two_level, m, auts) == (True, True)


def test_fig8_loop_swap_is_admissible_and_moves_both_disks():
    g = fig8(marked_minima=False)
    m = homology_model(g)
    auts = group_of(g)
    assert len(auts) == 2
    # admissible, and not free: a one-level class has no cylinder, so the
    # swap has no rotation offset
    assert check_stab_action(g, m, auts) == (True, False)
    swap = next(a for a in auts if not a.is_identity())
    cmap = circle_images(g, swap)
    # the swap acts freely on the two min-disk circles
    assert cmap[(0, 0)] != (0, 0) and cmap[(0, 1)] != (0, 1)


def test_stab_action_q2_exhaustive():
    for g, m in q2_catalog_with_models():
        assert check_stab_action(g, m, group_of(g)) == (True, True)


def test_automorphisms_stabilize_the_level_partition(complexes_q3):
    # the face check of check_stab_action is stabilization of J, which every
    # structure automorphism satisfies: it maps each level to itself.  The
    # all-marked q = 3 groups are trivial, so two partially marked (4, 3, 1)
    # complexes supply the non-identity automorphisms.
    from mck.complex_builder import MarkingSpec, build_complex
    partial = [build_complex(enumerate_top_classes(
        4, 3, 1, MarkingSpec(marked=marked, fixed=(0, 0, 0))))
        for marked in [(0, 3, 0), (1, 1, 1)]]
    moved = 0
    for K in [*complexes_q3.values(), *partial]:
        for rec in K.classes:
            if rec.gamma_order == 1:
                continue
            J = rec.lmg.level_partition()
            for phi in group_of(rec.lmg):
                if not phi.is_identity():
                    assert relabel(J, phi.saddles) == J
                    moved += 1
    assert moved == 42 + 26


def symmetric_two_level_classes():
    """(class, automorphisms) of the q = 3 (4, 1) faces, minima unmarked,
    whose group is not trivial."""
    from mck.complex_builder import MarkingSpec
    from mck.permutohedron import refinements
    marking = MarkingSpec(marked=(0, 3, 1), fixed=(0, 0, 0))
    for g in enumerate_top_classes(4, 3, 1, marking):
        for J1 in refinements(g.level_partition()):
            h = delta_chain(g, J1)
            auts = group_of(h)
            if len(auts) > 1:
                yield h, auts


def test_symmetric_two_level_class_is_admissible_and_free():
    # unmarked minima allow the loop swap on a two-level class; its action
    # rotates the cylinder boundary below by half a turn but not above,
    # leaving a half-integer twist obstruction: the action is free, which
    # says that every non-identity automorphism has a nonzero offset
    hit = 0
    for h, auts in symmetric_two_level_classes():
        m = homology_model(h)
        assert check_stab_action(h, m, auts) == (True, True)
        hit += 1
    assert hit > 0


def test_tampered_traded_row_is_inconsistent():
    # the consistency check reads the traded-edge rows of the expansion; one
    # wrong entry, in a coordinate the swap moves, makes the swap
    # inconsistent, which no structure automorphism is, so it raises
    h, auts = next(c for c in symmetric_two_level_classes() if len(c[1]) == 2)
    swap = auts[1]
    m = homology_model(h)
    j = next(j for j, b in enumerate(m.basis) if swap.edges[b] != b)
    d = m.deleted[0]
    rows = list(m.expansion)
    rows[d] = tuple(x + (k == j) for k, x in enumerate(rows[d]))
    bad = dataclasses.replace(m, expansion=tuple(rows))
    assert check_stab_action(h, m, auts) == (True, True)
    # the swap alone, a group of one element that is not the identity,
    # still meets the clause
    for group in (auts, [swap]):
        with pytest.raises(mg.InvariantViolation,
                           match="does not commute with the expansion"):
            check_stab_action(h, bad, group)


def test_identity_alone_sets_nothing_up(monkeypatch, complex_q1, complexes_q2):
    # a trivial group is (True, True) before the level partition or the
    # identity matrix is built: with both made to raise, the identity alone
    # still passes on every q <= 2 class
    identities = [(rec.lmg, group_of(rec.lmg)[0])
                  for K in [complex_q1, *complexes_q2.values()]
                  for rec in K.classes]

    def boom(*args):
        raise AssertionError("set up for a trivial group")

    monkeypatch.setattr(mg.LMG, "level_partition", boom)
    monkeypatch.setattr(linalg, "identity", boom)
    for g, identity in identities:
        assert identity.is_identity()
        assert check_stab_action(g, homology_model(g), [identity]) == (True, True)
    assert len(identities) == 1 + 12 + 20 + 12


def fake_automorphism(g, saddles):
    """The identity automorphism of `g` with its saddle map replaced by
    `saddles` and two darts swapped, so that it is not the identity; its
    edge, circle and cylinder maps stay the identity."""
    ident = group_of(g)[0]
    darts = dict(ident.darts)
    d0, d1 = list(darts)[:2]
    darts[d0], darts[d1] = d1, d0
    return dataclasses.replace(ident, darts=MappingProxyType(darts),
                               saddles=MappingProxyType(saddles))


def two_level_class():
    """A q = 3 (4, 1) class with levels {1}, {2, 3} and one cylinder."""
    from mck.perturbation import delta
    g = enumerate_top_classes(4, 3, 1)[0]
    return delta(g, ((1,), (2, 3)))


def test_saddle_moved_across_levels_raises():
    # an automorphism preserves each level, so a saddle map that moves
    # saddle 1 to the other level is an invariant violation, not an
    # inadmissible action
    h = two_level_class()
    m = homology_model(h)
    phi = fake_automorphism(h, {1: 2, 2: 1, 3: 3})
    with pytest.raises(mg.InvariantViolation,
                       match="does not stabilize the level partition"):
        check_stab_action(h, m, [phi])


def test_degenerate_action_is_inadmissible_and_not_free():
    # a swap of the two saddles of one level that acts trivially on the
    # edges is consistent and stabilizes J, but moves a saddle without
    # moving the quotient, so it fails the degeneracy clause; its rotation
    # offset on the one cylinder is zero, so it is not free
    h = two_level_class()
    m = homology_model(h)
    assert m.n == 1
    phi = fake_automorphism(h, {1: 1, 2: 3, 3: 2})
    assert check_stab_action(h, m, [phi]) == (False, False)
    # with the identity saddle map the same action passes the degeneracy
    # clause (one cylinder, fixed, and B = I an involution)
    assert check_stab_action(h, m, [fake_automorphism(
        h, {1: 1, 2: 2, 3: 3})]) == (True, False)


# ---------------------------------------------------------------------------
# JSON dump
# ---------------------------------------------------------------------------

def test_algebra_json_shape(q2_two_level):
    import json
    doc = json.loads(algebra_json(q2_two_level))
    assert set(doc) == {"edges", "deleted", "basis", "expansion",
                        "transvections", "cores", "circles", "polytope"}
    assert doc["circles"] == {"n": 1, "nu0": 1, "e": 0, "d": 1, "c": 0}
    assert doc["polytope"]["rows"] == doc["expansion"]
    assert doc["polytope"]["hi"] == 3
    assert doc["polytope"]["dim"] == 2 * q2_two_level.q - 1
    # rationals as numerator/denominator pairs
    assert all(len(pair) == 2 for row in doc["expansion"] for pair in row)
