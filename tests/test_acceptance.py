"""Acceptance suite: every criterion at its stated tolerance, one line each.

Run with -s to see the PASS lines; with plain -v each criterion appears as
one test verdict.
"""

import math
import random
import time
from fractions import Fraction

from mck import linalg
from mck import morse_graph as mg
from mck import twist_algebra as ta
from mck.complex_builder import (
    betti0, build_complex, complex_dimension, complex_rank,
    enumerate_top_classes, euler_characteristic, morse_smale_report,
    q_polynomial)
from mck.permutohedron import enumerate_partitions, refinements

from conftest import Q2_SPLITS, Q3_SPLITS
from oracles import (
    ZeroCochain, assignment, coarsenings, composition_signature,
    delta_chain, enumerate_classes_direct, face_vertices, partition_of_values,
    refines_eq, transvections)
from test_permutohedron import ordered_bell, realize_refinement


def _report(num, text):
    print("ACCEPTANCE %d: PASS - %s" % (num, text))


# criterion 1 -----------------------------------------------------------------

def test_criterion_1_permutohedron_census():
    start = time.monotonic()
    for q in range(1, 7):
        top = (tuple(range(1, q + 1)),)
        assert len(face_vertices(top)) == math.factorial(q)
        parts = enumerate_partitions(q)
        assert len(parts) == ordered_bell(q)
        for Jhat in parts:
            sigs = [composition_signature(J) for J in coarsenings(Jhat)]
            assert len(set(sigs)) == len(sigs)
    elapsed = time.monotonic() - start
    assert elapsed < 5.0, "census took %.2fs" % elapsed
    _report(1, "q=1..6 vertex counts q!, face counts = ordered Bell, "
               "signature injectivity exhaustive (%.2fs)" % elapsed)


# criterion 2 -----------------------------------------------------------------

def test_criterion_2_partition_of_values_stability():
    rng = random.Random(90125)
    trials = 10_000
    for _ in range(trials):
        q = rng.randint(1, 6)
        values = [Fraction(rng.randint(-6, 6), rng.randint(1, 4))
                  for _ in range(q)]
        c = ZeroCochain.of(values)
        J, s = partition_of_values(c)
        assert s == len(J)
        distinct = sorted(set(c.values))
        gap = min((b - a for a, b in zip(distinct, distinct[1:])),
                  default=Fraction(1))
        # (i) perturbations below half the gap only refine
        eps = gap / 2
        perturbed = [v + Fraction(rng.randint(-999, 999), 2001) * eps
                     for v in c.values]
        J1, _ = partition_of_values(ZeroCochain.of(perturbed))
        assert refines_eq(J1, J)
        # (ii) a randomly chosen refinement is realized exactly
        target = rng.choice([J, *refinements(J)])
        realized = realize_refinement(c, J, target)
        J2, _ = partition_of_values(realized)
        assert J2 == target
        assert max(abs(a - b) for a, b in zip(realized.values, c.values)) < eps
    # exhaustively at small q: every refinement of every partition
    for q in (1, 2, 3):
        for J in enumerate_partitions(q):
            c = ZeroCochain.of([Fraction(assignment(J)[x - 1])
                                for x in range(1, q + 1)])
            for target in [J, *refinements(J)]:
                realized = realize_refinement(c, J, target)
                assert partition_of_values(realized)[0] == target
    _report(2, "%d randomized trials q<=6: perturbations refine-or-preserve, "
               "every sampled refinement realized exactly" % trials)


# criterion 3 -----------------------------------------------------------------

def test_criterion_3_q1_sphere():
    start = time.monotonic()
    seeds = enumerate_top_classes(2, 1, 1)
    assert len(seeds) == 1
    K = build_complex(seeds)
    assert complex_dimension(K) == 0
    chi = euler_characteristic(K)
    assert chi.formula == 1 and chi.independent == Fraction(1) and chi.agree
    elapsed = time.monotonic() - start
    assert elapsed < 1.0, "q=1 pipeline took %.2fs" % elapsed
    _report(3, "q=1 all marked: 1 class, dim 0, chi = 1 both ways (%.2fs)"
            % elapsed)


# criterion 4 -----------------------------------------------------------------

def test_criterion_4_q2_q3_catalogs(complexes_q2, complexes_q3, build_times):
    # (a) downward closure equals direct enumeration at q = 2
    for (p, r) in Q2_SPLITS:
        K = complexes_q2[(p, r)]
        direct = enumerate_classes_direct(p, 2, r)
        assert ({rec.canonical for rec in K.classes}
                == {mg.canonical_form(g) for g in direct})
    # (b, c, d) on every catalog
    for q, splits, complexes in ((2, Q2_SPLITS, complexes_q2),
                                 (3, Q3_SPLITS, complexes_q3)):
        for (p, r) in splits:
            K = complexes[(p, r)]
            chi = euler_characteristic(K)
            assert chi.formula == (-1) ** (q - 1) * K.top_count
            assert chi.agree
            assert complex_dimension(K) == 3 * q - 2
            assert complex_rank(K) == q - 1
    assert build_times["q2"] < 10.0, "q=2 catalogs took %.1fs" % build_times["q2"]
    assert build_times["q3"] < 600.0, "q=3 catalogs took %.1fs" % build_times["q3"]
    _report(4, "q=2 closure == direct; chi AGREE, dim = 3q-2, rank = q-1 on "
               "all q=2 (%.1fs) and q=3 (%.1fs) catalogs"
            % (build_times["q2"], build_times["q3"]))


# criterion 5 -----------------------------------------------------------------

def _all_catalog_classes(complex_q1, complexes_q2, complexes_q3):
    for K in ([complex_q1] + [complexes_q2[k] for k in Q2_SPLITS]
              + [complexes_q3[k] for k in Q3_SPLITS]):
        for rec in K.classes:
            yield rec


def test_criterion_5_twist_algebra(complex_q1, complexes_q2, complexes_q3):
    count = 0
    for rec in _all_catalog_classes(complex_q1, complexes_q2, complexes_q3):
        g = rec.lmg
        model = ta.homology_model(g)
        tvs = transvections(g, model)
        mats = [[list(r) for r in t.matrix] for t in tvs]
        for i in range(len(mats)):
            for j in range(i + 1, len(mats)):
                assert (linalg.mat_mul(mats[i], mats[j])
                        == linalg.mat_mul(mats[j], mats[i]))
        if tvs:
            assert linalg.rank([list(t.core) for t in tvs]) == model.n
        # constraint vector invariant under every transvection
        for t in tvs:
            M = [list(r) for r in t.matrix]
            for i in range(len(model.edges)):
                func = [Fraction(0)] * model.n + list(model.expansion[i])
                moved = [sum(func[k] * M[k][j] for k in range(len(M)))
                         for j in range(len(M))]
                assert moved == func
        # expansion lies in the kept-edge span, exactly (relations vanish)
        for k, row in enumerate(model.relations):
            for j in range(len(model.basis)):
                acc = sum((row[i] * model.expansion[i][j]
                           for i in range(len(model.edges))), Fraction(0))
                assert acc == 0
        d = ta.classify_circles(g)         # every core is a torus direction
        assert d == rec.n == len(g.cylinders) == len(g.atoms) - 1
        floating = g.p + g.r               # p' + p'' + r' + r'' with no fixed
        assert d <= min(floating, len(g.atoms) - 1)
        if rec.s == 1:
            assert ta.u_polytope(g, model) == 0
        count += 1
    _report(5, "transvection, lattice, expansion, and rank identities hold "
               "on all %d classes of the q<=3 catalogs" % count)


# criterion 6 -----------------------------------------------------------------

def test_criterion_6_delta_coherence(complex_q1, complexes_q2, complexes_q3):
    pairs = 0
    for rec in _all_catalog_classes(complex_q1, complexes_q2, complexes_q3):
        g = rec.lmg
        J = g.level_partition()
        assert mg.canonical_form(delta_chain(g, J)) == rec.canonical  # fixpoint
        memo = {}
        for J1 in refinements(J):
            h = delta_chain(g, J1)
            for J2 in refinements(J1):
                if J2 not in memo:
                    memo[J2] = mg.canonical_form(delta_chain(g, J2))
                assert mg.canonical_form(delta_chain(h, J2)) == memo[J2]
                pairs += 1
    _report(6, "identity fixpoint and transitivity on %d face chains over "
               "the q<=3 catalogs" % pairs)


# criterion 7 -----------------------------------------------------------------

def test_criterion_7_stabilizer_admissibility(complex_q1, complexes_q2,
                                              complexes_q3):
    count = 0
    failures = []
    for rec in _all_catalog_classes(complex_q1, complexes_q2, complexes_q3):
        # the freeness test is exact: every core is a torus direction
        if not (rec.all_admissible and rec.all_free
                and ta.classify_circles(rec.lmg) == len(rec.lmg.cylinders)):
            failures.append(rec.class_id)
        count += 1
    assert not failures, "admissibility/freeness failures: %s" % failures
    _report(7, "every automorphism action on all %d handles is admissible "
               "and fixed-point free (exact check)" % count)


# criterion 8 -----------------------------------------------------------------

def test_criterion_8_morse_smale(complex_q1, complexes_q2, complexes_q3):
    for K in ([complex_q1] + [complexes_q2[k] for k in Q2_SPLITS]
              + [complexes_q3[k] for k in Q3_SPLITS]):
        qs = q_polynomial(K)
        assert all(c >= 0 for c in qs)          # property-based: q_j >= 0
        b0 = betti0(K)
        assert b0 <= qs[0]                      # the j = 0 inequality
        rep = morse_smale_report(K, betti=[b0])
        # beta_j <= q_j holds for the only computed Betti number, and the
        # vanishing slots j >= 3q - 2 are clean for it
        assert rep.betti_le_q and rep.zero_slots_ok
        assert rep.q_alternating[0] == qs[0]
        # degree-only report states that higher Betti numbers are not built
        bare = morse_smale_report(K)
        assert "not reproduced" in bare.note
        assert len(qs) <= max(3 * K.q - 2, 1)
    _report(8, "beta_0 from incidence connectivity satisfies the j = 0 "
               "inequality and the vanishing slots; handle counts "
               "nonnegative; higher Betti numbers reported as out of scope")
