import hashlib
import itertools

import pytest

from mck import complex_builder as cb
from mck import morse_graph as mg
from mck import perturbation as pt
from mck.complex_builder import MarkingSpec, enumerate_top_classes
from mck.permutohedron import (
    OrderedPartition, enumerate_partitions, refinements, refines_eq)
from mck.perturbation import (
    PerturbationError, chain_predecessor, delta, split_level)

from conftest import Q3_SPLITS
from oracles import enumerate_classes_direct, merge_all_levels


def catalog_q2(p, r):
    return enumerate_top_classes(p, 2, r)


# ---------------------------------------------------------------------------
# split_level
# ---------------------------------------------------------------------------

def test_identity_split_is_identity(q2_two_level):
    g = q2_two_level
    assert split_level(g, 1, [{1}]) is g
    assert mg.canonical_form(delta(g, g.level_partition())) == mg.canonical_form(g)


def test_split_drops_index_by_one():
    for g in catalog_q2(2, 2):
        h = split_level(g, 1, [{1}, {2}])
        rep = mg.validate(h)
        assert len(h.levels) == 2 and h.q - len(h.levels) == (g.q - 1) - 1
        assert (rep.p, rep.r) == (g.p, g.r)


def test_split_rejects_bad_subblocks(q2_two_level):
    g = q2_two_level
    with pytest.raises(PerturbationError):
        split_level(g, 1, [{1}, {2}])  # saddle 2 is not on level 1
    with pytest.raises(PerturbationError):
        split_level(g, 1, [set()])
    with pytest.raises(PerturbationError):
        split_level(g, 7, [{1}])


def test_split_preserves_conserved_quantities():
    # p, r, marks, and saddle labels survive every refinement (q <= 2 catalog)
    for p, r in [(3, 1), (2, 2), (1, 3)]:
        for g in catalog_q2(p, r):
            J = g.level_partition()
            for J1 in refinements(J, proper=True):
                h = delta(g, J1)
                assert (h.p, h.q, h.r) == (g.p, g.q, g.r)
                assert h.marked_saddles == g.marked_saddles
                assert h.fixed_saddles == g.fixed_saddles
                assert h.level_partition().key() == J1.key()
                labels = sorted(v for a in h.atoms for v in a.saddles)
                assert labels == list(range(1, g.q + 1))


def test_cylinders_never_decrease_under_split():
    for g in catalog_q2(2, 2):
        n0 = len(g.cylinders)
        h = delta(g, OrderedPartition.of([{2}, {1}]))
        assert len(h.cylinders) >= n0


# ---------------------------------------------------------------------------
# delta
# ---------------------------------------------------------------------------

def test_delta_requires_refinement(q2_two_level):
    with pytest.raises(PerturbationError):
        delta(q2_two_level, OrderedPartition.of([{1, 2}]))


def test_delta_transitivity_q2_exhaustive():
    for p, r in [(3, 1), (2, 2), (1, 3)]:
        for g in catalog_q2(p, r):
            J = g.level_partition()
            for J1 in refinements(J, proper=True):
                h = delta(g, J1)
                for J2 in refinements(J1, proper=True):
                    lhs = mg.canonical_form(delta(g, J2))
                    rhs = mg.canonical_form(delta(h, J2))
                    assert lhs == rhs


def test_delta_agrees_with_direct_multiway_split():
    # the hyperface chain and one direct three-way split reach the same
    # class, on every one-level seed of every q = 3 split, marked all and
    # 0,3,0 (with fewer than three blocks both are the same split_level call)
    vertices = [J for J in enumerate_partitions(3) if J.s == 3]
    for p, r in Q3_SPLITS:
        for marking in (MarkingSpec.all_marked(p, 3, r),
                        MarkingSpec(marked=(0, 3, 0), fixed=(0, 0, 0))):
            for g in enumerate_top_classes(p, 3, r, marking):
                for J1 in vertices:
                    assert (mg.canonical_form(delta(g, J1)) == mg.canonical_form(
                        split_level(g, 1, J1.blocks)))


def test_delta_chain_independence_explicit_chains():
    # an explicit chain J -> mid -> target is a composition of deltas
    g = enumerate_top_classes(3, 3, 2)[0]
    target = OrderedPartition.of([{2}, {1}, {3}])
    results = set()
    for mid in enumerate_partitions(3):
        if mid.s == 2 and refines_eq(target, mid):
            results.add(mg.canonical_form(delta(delta(g, mid), target)))
    assert len(results) == 1
    assert results.pop() == mg.canonical_form(delta(g, target))


def test_chain_predecessor_is_where_delta_splits_last(monkeypatch):
    # the closure composes each deep face from the partition that delta
    # splits last, which `refinements` lists before the face
    split_from = []

    def recording(h, level, subblocks):
        split_from.append(h.level_partition().key())
        return split_level(h, level, subblocks)

    monkeypatch.setattr(pt, "split_level", recording)
    g = _first_q4_seeds(5, 1, MarkingSpec.all_marked(5, 4, 1), 1)[0]
    J = g.level_partition()
    faces = refinements(J, proper=True)
    listed = {J.key(): -1, **{J1.key(): i for i, J1 in enumerate(faces)}}
    for i, J1 in enumerate(faces):
        split_from.clear()
        delta(g, J1)
        J0 = chain_predecessor(J, J1).key()
        assert J0 == split_from[-1] and listed[J0] < i
    assert len(faces) == 74
    with pytest.raises(PerturbationError):
        chain_predecessor(J, J)
    with pytest.raises(PerturbationError):
        chain_predecessor(faces[0], J)


def _first_q4_seeds(p, r, marking, count):
    """One-level graphs built from the first valid q = 4 matchings, with up
    to two cap labelings each."""
    marked_s, fixed_s = cb._marked_saddle_sets(marking)
    seeds = []
    for atom in cb._one_level_atoms(p, 4, r, cb._matchings(4)):
        seeds.extend(itertools.islice(
            cb._cap_labelings(atom, p, r, marking, marked_s, fixed_s, 4), 2))
        if len(seeds) >= count:
            return seeds[:count]


# sha256 of the 1,308 delta results of each case below, in test order
Q4_PIN = {
    (5, 1, "all"):
        "3520944b45f958139d690762d87bf3fa6b9b154cac49fc8264fddbbfd68266fd",
    (3, 3, "0,4,0"):
        "671001d48001f2cbfae52c881c315ff328d0979b0897048853db6731b3821f7d",
}


@pytest.mark.parametrize("p, r, marked", sorted(Q4_PIN))
def test_delta_bytes_pinned_q4(p, r, marked):
    # the exact graphs delta returns, not only their classes: every face of
    # a few q = 4 seeds and every face of each two-level result
    marking = (MarkingSpec.all_marked(p, 4, r) if marked == "all"
               else MarkingSpec(marked=(0, 4, 0), fixed=(0, 0, 0)))
    digest = hashlib.sha256()
    for g in _first_q4_seeds(p, r, marking, 6):
        for J1 in refinements(g.level_partition(), proper=True):
            h = delta(g, J1)
            digest.update(mg.to_json(h).encode())
            if J1.s == 2:
                for J2 in refinements(J1, proper=True):
                    digest.update(mg.to_json(delta(h, J2)).encode())
    assert digest.hexdigest() == Q4_PIN[(p, r, marked)]


def test_every_deep_class_is_a_delta_image_q2():
    # independent direct enumeration: every s > 1 class comes from a seed
    for p, r in [(3, 1), (2, 2), (1, 3)]:
        seeds = {mg.canonical_form(g): g for g in catalog_q2(p, r)}
        reachable = set(seeds)
        for g in seeds.values():
            for J1 in refinements(g.level_partition(), proper=True):
                reachable.add(mg.canonical_form(delta(g, J1)))
        direct = enumerate_classes_direct(p, 2, r)
        assert {mg.canonical_form(g) for g in direct} == reachable


def test_gamma_orbits_of_faces_share_targets():
    # with unmarked minima, some two-level q=3 classes have symmetries;
    # symmetric faces must resolve to the same class
    marking = MarkingSpec(marked=(0, 3, 1), fixed=(0, 0, 0))
    seeds = enumerate_top_classes(4, 3, 1, marking)
    symmetric = []
    seen = set()
    for g in seeds:
        for J1 in refinements(g.level_partition(), proper=True):
            if J1.s != 2:
                continue
            h = delta(g, J1)
            cf = mg.canonical_form(h)
            if cf in seen:
                continue
            seen.add(cf)
            if len(mg.canonicalize(h)[1]) > 1:
                symmetric.append(h)
    assert symmetric
    checked = 0
    for h in symmetric:
        auts = mg.canonicalize(h)[1]
        for J2 in refinements(h.level_partition(), proper=True):
            base = mg.canonical_form(delta(h, J2))
            for phi in auts:
                J2s = J2.relabel(lambda x: phi.saddles[x])
                assert mg.canonical_form(delta(h, J2s)) == base
                checked += 1
    assert checked > 0


# ---------------------------------------------------------------------------
# merging
# ---------------------------------------------------------------------------

def test_merge_identity_on_one_level(fig8_lmg):
    assert merge_all_levels(fig8_lmg) is fig8_lmg


def test_merge_two_level_example(q2_two_level):
    g = q2_two_level
    f = merge_all_levels(g)
    assert len(f.levels) == 1
    # the single level carries both saddles, necessarily in one atom
    assert f.level_partition().key() == ((1, 2),)
    assert len(f.atoms) == 1
    # round trip: some face assignment reproduces g
    J = g.level_partition()
    assert mg.canonical_form(delta(f, J)) == mg.canonical_form(g)


def test_merge_roundtrip_q2_exhaustive():
    for p, r in [(2, 2), (3, 1)]:
        seeds = catalog_q2(p, r)
        for g in enumerate_classes_direct(p, 2, r):
            f = merge_all_levels(g, seeds=seeds)
            assert len(f.levels) == 1
            targets = {mg.canonical_form(delta(f, J1))
                       for J1 in refinements(f.level_partition())}
            assert mg.canonical_form(g) in targets
