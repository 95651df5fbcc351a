import hashlib
import itertools
import weakref

import pytest

from mck import complex_builder as cb
from mck import morse_graph as mg
from mck import perturbation as pt
from mck.complex_builder import MarkingSpec, enumerate_top_classes
from mck.morse_graph import InvariantViolation
from mck.permutohedron import (
    PartitionError, chain_predecessor, enumerate_partitions, refinements,
    sub_blocks)
from mck.perturbation import PerturbationError, delta, split_level

from conftest import Q3_SPLITS, group_of
from oracles import (
    cap_labelings, covers, delta_chain, enumerate_classes_direct, matchings,
    merge_all_levels, refines_eq, relabel)


def catalog_q2(p, r):
    return enumerate_top_classes(p, 2, r)


# ---------------------------------------------------------------------------
# split_level
# ---------------------------------------------------------------------------

def test_identity_split_is_identity(q2_two_level):
    # the empty chain of cover splits is the identity; the library has no
    # one-block split, so a split that divides nothing is refused
    g = q2_two_level
    assert delta_chain(g, g.level_partition()) is g
    with pytest.raises(PerturbationError):
        split_level(g, 1, {1})


def test_split_drops_index_by_one():
    for g in catalog_q2(2, 2):
        h = split_level(g, 1, {1})
        assert mg.validate(h) is None
        assert len(h.levels) == 2 and h.q - len(h.levels) == (g.q - 1) - 1
        assert (h.p, h.r) == (g.p, g.r)


def test_split_rejects_bad_subblocks(q2_two_level):
    g = q2_two_level
    with pytest.raises(PerturbationError):
        split_level(g, 1, {2})  # saddle 2 is not on level 1
    with pytest.raises(PerturbationError):
        split_level(g, 1, set())
    with pytest.raises(PerturbationError):
        split_level(g, 7, {1})
    seed = catalog_q2(2, 2)[0]
    with pytest.raises(PerturbationError):
        split_level(seed, 1, {1, 2})  # the whole level stays one block


def test_split_preserves_conserved_quantities():
    # p, r, marks, and saddle labels survive every refinement (q <= 2 catalog)
    for p, r in [(3, 1), (2, 2), (1, 3)]:
        for g in catalog_q2(p, r):
            J = g.level_partition()
            for J1 in refinements(J):
                h = delta(g, J1)
                assert (h.p, h.q, h.r) == (g.p, g.q, g.r)
                assert h.marked_saddles == g.marked_saddles
                assert h.fixed_saddles == g.fixed_saddles
                assert h.level_partition() == J1
                labels = sorted(v for a in h.atoms for v in a.saddles)
                assert labels == list(range(1, g.q + 1))


def test_cylinders_never_decrease_under_split():
    for g in catalog_q2(2, 2):
        n0 = len(g.cylinders)
        h = delta(g, ((2,), (1,)))
        assert len(h.cylinders) >= n0


def _drop_transient(new_atoms, transients):
    return (new_atoms, set(list(transients)[1:])) if transients else None


def _drop_last_atom(new_atoms, transients):
    return new_atoms[:-1], transients


def _duplicate_last_atom(new_atoms, transients):
    return new_atoms + new_atoms[-1:], transients


@pytest.mark.parametrize("mutation", [
    _drop_transient, _drop_last_atom, _duplicate_last_atom])
def test_surgery_refuses_a_broken_curve_system(mutation, monkeypatch):
    # a sub-level system that loses a transient or a new atom, or repeats
    # one, leaves a circle unmatched or matched twice; the surgery raises on
    # exactly the cover splits whose system was broken.  The interning table
    # is the test's own: an atom that an earlier test left alive keeps its
    # surgeries, and would never reach the broken system
    monkeypatch.setattr(mg, "_interned", weakref.WeakValueDictionary())
    raw = pt._sublevel_system
    broken = []

    def mutated(atom, kept, turn):
        system = raw(atom, kept, turn)
        changed = mutation(*system)
        broken.append(changed is not None)
        return system if changed is None else changed

    monkeypatch.setattr(pt, "_sublevel_system", mutated)
    splits = raised = 0
    for g in enumerate_top_classes(4, 3, 1)[:10]:
        for J1 in covers(g.level_partition()):
            broken.clear()
            try:
                delta(g, J1)
            except InvariantViolation:
                raised += 1
                assert any(broken)
            else:
                assert not any(broken)
            splits += 1
    assert splits == 60 and raised > 0


# ---------------------------------------------------------------------------
# delta
# ---------------------------------------------------------------------------

def test_delta_requires_refinement(q2_two_level):
    with pytest.raises(PerturbationError):
        delta(q2_two_level, ((1, 2),))


def test_delta_refuses_non_covers():
    # delta splits one level in two: the partition itself, a face two
    # splits deep and a face that does not refine it are all refused.  A
    # cover is the one partition a caller hands the library, so
    # `sub_blocks` checks its shape: a repeated label, an empty block, a
    # label outside the ground set and an extra trailing block are refused
    # too, each with one block more than the level partition
    g = enumerate_top_classes(4, 3, 1)[0]
    h = delta(g, ((1,), (2, 3)))
    f = catalog_q2(2, 2)[0]
    assert f.level_partition() == ((1, 2),)
    shapes = (((1,), (1, 2)), ((), (1, 2)), ((1,), (3,)), ((1, 2), (3,)))
    for face in shapes:
        assert sub_blocks(face, f.level_partition()) is None
    for graph, face in ((g, g.level_partition()),
                        (g, ((1,), (2,), (3,))),
                        (h, ((2,), (1, 3))),
                        *((f, face) for face in shapes)):
        with pytest.raises(PerturbationError, match="is not a cover of"):
            delta(graph, face)


def test_delta_transitivity_q2_exhaustive():
    for p, r in [(3, 1), (2, 2), (1, 3)]:
        for g in catalog_q2(p, r):
            J = g.level_partition()
            for J1 in refinements(J):
                h = delta(g, J1)
                for J2 in refinements(J1):
                    lhs = mg.canonical_form(delta(g, J2))
                    rhs = mg.canonical_form(delta(h, J2))
                    assert lhs == rhs


def test_delta_two_cover_chains_to_a_vertex_agree():
    # a vertex (a|b|c) lies below the two covers (a|b,c) and (a,b|c) of a
    # one-level partition; both chains of cover splits reach one class, on
    # every one-level seed of every q = 3 split, marked all and 0,3,0
    vertices = [J for J in enumerate_partitions(3) if len(J) == 3]
    for p, r in Q3_SPLITS:
        for marking in (MarkingSpec.all_marked(p, 3, r),
                        MarkingSpec(marked=(0, 3, 0), fixed=(0, 0, 0))):
            for g in enumerate_top_classes(p, 3, r, marking):
                for J1 in vertices:
                    a, b, c = J1
                    forms = {mg.canonical_form(delta(delta(g, mid), J1))
                             for mid in ((a, tuple(sorted(b + c))),
                                         (tuple(sorted(a + b)), c))}
                    assert len(forms) == 1


def test_delta_chain_independence_explicit_chains():
    # an explicit chain J -> mid -> target is a composition of deltas
    g = enumerate_top_classes(3, 3, 2)[0]
    target = ((2,), (1,), (3,))
    results = set()
    for mid in enumerate_partitions(3):
        if len(mid) == 2 and refines_eq(target, mid):
            results.add(mg.canonical_form(delta(delta(g, mid), target)))
    assert len(results) == 1
    assert results.pop() == mg.canonical_form(delta_chain(g, target))


def test_chain_predecessor_is_where_delta_splits_last(monkeypatch):
    # the closure composes each deep face from the partition that the
    # chain of cover splits leaves last, which `refinements` lists before
    # the face
    split_from = []

    def recording(h, level, lower):
        split_from.append(h.level_partition())
        return split_level(h, level, lower)

    monkeypatch.setattr(pt, "split_level", recording)
    g = _first_q4_seeds(5, 1, MarkingSpec.all_marked(5, 4, 1), 1)[0]
    J = g.level_partition()
    faces = refinements(J)
    listed = {J: -1, **{J1: i for i, J1 in enumerate(faces)}}
    for i, J1 in enumerate(faces):
        split_from.clear()
        delta_chain(g, J1)
        J0 = chain_predecessor(J, J1)
        assert J0 == split_from[-1] and listed[J0] < i
    assert len(faces) == 74
    with pytest.raises(PartitionError):
        chain_predecessor(J, J)
    with pytest.raises(PartitionError):
        chain_predecessor(faces[0], J)


def _first_q4_seeds(p, r, marking, count):
    """One-level graphs built from the first valid q = 4 matchings, with up
    to two cap labelings each."""
    marked_s, fixed_s = cb._marked_saddle_sets(marking)
    seeds = []
    for atom in cb._one_level_atoms(p, 4, r, matchings(range(1, 5))):
        seeds.extend(itertools.islice(
            cap_labelings(atom, p, r, marking, marked_s, fixed_s, 4), 2))
        if len(seeds) >= count:
            return seeds[:count]


# sha256 of the 1,308 delta_chain results of each case below, in test order
Q4_PIN = {
    (5, 1, "all"):
        "3520944b45f958139d690762d87bf3fa6b9b154cac49fc8264fddbbfd68266fd",
    (3, 3, "0,4,0"):
        "671001d48001f2cbfae52c881c315ff328d0979b0897048853db6731b3821f7d",
}


@pytest.mark.parametrize("p, r, marked", sorted(Q4_PIN))
def test_delta_bytes_pinned_q4(p, r, marked):
    # the exact graphs the cover chains return, not only their classes:
    # every face of a few q = 4 seeds and every face of each two-level result
    marking = (MarkingSpec.all_marked(p, 4, r) if marked == "all"
               else MarkingSpec(marked=(0, 4, 0), fixed=(0, 0, 0)))
    digest = hashlib.sha256()
    for g in _first_q4_seeds(p, r, marking, 6):
        for J1 in refinements(g.level_partition()):
            h = delta_chain(g, J1)
            digest.update(mg.to_json(h).encode())
            if len(J1) == 2:
                for J2 in refinements(J1):
                    digest.update(mg.to_json(delta_chain(h, J2)).encode())
    assert digest.hexdigest() == Q4_PIN[(p, r, marked)]


def test_every_deep_class_is_a_delta_image_q2():
    # independent direct enumeration: every s > 1 class comes from a seed
    for p, r in [(3, 1), (2, 2), (1, 3)]:
        seeds = {mg.canonical_form(g): g for g in catalog_q2(p, r)}
        reachable = set(seeds)
        for g in seeds.values():
            for J1 in refinements(g.level_partition()):
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
        for J1 in refinements(g.level_partition()):
            if len(J1) != 2:
                continue
            h = delta(g, J1)
            cf = mg.canonical_form(h)
            if cf in seen:
                continue
            seen.add(cf)
            if len(group_of(h)) > 1:
                symmetric.append(h)
    assert symmetric
    checked = 0
    for h in symmetric:
        auts = group_of(h)
        for J2 in refinements(h.level_partition()):
            base = mg.canonical_form(delta_chain(h, J2))
            for phi in auts:
                J2s = relabel(J2, phi.saddles)
                assert mg.canonical_form(delta_chain(h, J2s)) == base
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
    assert f.level_partition() == ((1, 2),)
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
            J = f.level_partition()
            targets = {mg.canonical_form(delta_chain(f, J1))
                       for J1 in [J, *refinements(J)]}
            assert mg.canonical_form(g) in targets
