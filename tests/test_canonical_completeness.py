"""Canonical forms are a complete isomorphism invariant.

The oracle below finds isomorphisms independently of the canonical-form
machinery: it propagates a dart bijection from a single root correspondence
and verifies caps, cylinders, levels, and marked labels directly.
"""

import gzip
import itertools
import json
import random
from pathlib import Path

from conftest import Q2_SPLITS, Q3_SPLITS
from mck import morse_graph as mg
from mck.complex_builder import MarkingSpec, build_complex, enumerate_top_classes
from oracles import exhaustive_canonicalize

BENCH = Path(__file__).resolve().parent.parent / "bench"


def _propagate(g1, g2, atom_bij, roots):
    """Try to extend per-atom root dart correspondences to an isomorphism."""
    dart_map = {}
    for a1, a2 in atom_bij.items():
        atom1, atom2 = g1.atoms[a1], g2.atoms[a2]
        (v0, s0), (w0, t0) = roots[a1]
        if s0 % 2 != t0 % 2:
            return None
        vmap = {v0: (w0, (t0 - s0) % 4)}  # vertex -> (image, slot shift)
        by_out1 = {e[0]: e for e in atom1.edges}
        by_in1 = {e[1]: e for e in atom1.edges}
        by_out2 = {e[0]: e for e in atom2.edges}
        by_in2 = {e[1]: e for e in atom2.edges}
        stack = [v0]
        seen = {v0}
        while stack:
            v = stack.pop()
            w, shift = vmap[v]
            for s in range(4):
                img = (w, (s + shift) % 4)
                if s % 2 == 0:
                    p1, p2 = by_out1[(v, s)][1], by_out2[img][1]
                else:
                    p1, p2 = by_in1[(v, s)][0], by_in2[img][0]
                v2, s2 = p1
                w2, t2 = p2
                if v2 in vmap:
                    if vmap[v2] != (w2, (t2 - s2) % 4):
                        return None
                else:
                    vmap[v2] = (w2, (t2 - s2) % 4)
                    seen.add(v2)
                    stack.append(v2)
        if len(seen) != len(atom1.saddles):
            return None
        for v in atom1.saddles:
            w, shift = vmap[v]
            for s in range(4):
                dart_map[(v, s)] = (w, (s + shift) % 4)
        for o, i in atom1.edges:
            if (dart_map[o], dart_map[i]) not in set(atom2.edges):
                return None
    return dart_map


def _check_decorations(g1, g2, atom_bij, dart_map):
    # marked saddles pointwise
    for v in g1.marked_saddles:
        if dart_map[(v, 0)][0] != v:
            return False
    # circle correspondence
    cmap = {}
    for a1, a2 in atom_bij.items():
        by_out2 = {e[0]: k for k, e in enumerate(g2.atoms[a2].edges)}
        lookup = {}
        for ci, (side, cyc) in enumerate(g2.atoms[a2].circles):
            for e in cyc:
                lookup[(e, side)] = ci
        for ci, (side, cyc) in enumerate(g1.atoms[a1].circles):
            e0 = cyc[0]
            o1 = g1.atoms[a1].edges[e0][0]
            e2 = by_out2[dart_map[o1]]
            cmap[(a1, ci)] = (a2, lookup[(e2, side)])
    caps2 = {tuple(c.circle): c for c in g2.caps}
    for c in g1.caps:
        img = caps2.get(cmap[tuple(c.circle)])
        if img is None or img.kind != c.kind:
            return False
        if (c.marked, c.fixed) != (img.marked, img.fixed):
            return False
        if c.marked and c.label != img.label:
            return False
    cyl2 = {tuple(lo): tuple(hi) for lo, hi in g2.cylinders}
    for lo, hi in g1.cylinders:
        if cyl2.get(cmap[tuple(lo)]) != cmap[tuple(hi)]:
            return False
    return True


def brute_force_isomorphisms(g1, g2):
    """Exhaustive search for the level- and orientation-preserving
    isomorphisms fixing marked labels pointwise; yields each one's dart map
    once."""
    if (g1.q, g1.p, g1.r) != (g2.q, g2.p, g2.r):
        return
    if [len(lev) for lev in g1.levels] != [len(lev) for lev in g2.levels]:
        return
    if g1.marked_saddles != g2.marked_saddles or g1.fixed_saddles != g2.fixed_saddles:
        return
    per_level = []
    for lev1, lev2 in zip(g1.levels, g2.levels):
        options = [p for p in itertools.permutations(lev2)
                   if all(len(g1.atoms[a].saddles) == len(g2.atoms[b].saddles)
                          for a, b in zip(lev1, p))]
        if not options:
            return
        per_level.append((lev1, options))
    for combo in itertools.product(*[opts for _, opts in per_level]):
        atom_bij = {}
        for (lev1, _), p in zip(per_level, combo):
            atom_bij.update(dict(zip(lev1, p)))
        root_opts = []
        order = sorted(atom_bij)
        for a1 in order:
            atom1, atom2 = g1.atoms[a1], g2.atoms[atom_bij[a1]]
            v0 = atom1.saddles[0]
            root_opts.append([((v0, 0), (w, s))
                              for w in atom2.saddles for s in mg.OUT_SLOTS])
        for picks in itertools.product(*root_opts):
            roots = dict(zip(order, picks))
            dart_map = _propagate(g1, g2, atom_bij, roots)
            if dart_map and _check_decorations(g1, g2, atom_bij, dart_map):
                yield dart_map


def brute_force_isomorphic(g1, g2):
    return next(brute_force_isomorphisms(g1, g2), None) is not None


def scrambled_copy(g, seed):
    """An isomorphic copy: atoms reordered, slots rotated by two, unmarked
    extrema relabeled."""
    rng = random.Random(seed)
    perm = list(range(len(g.atoms)))
    rng.shuffle(perm)  # new position -> old atom
    old_to_new = {a: i for i, a in enumerate(perm)}
    rot = {a: rng.choice((0, 2)) for a in range(len(g.atoms))}

    atoms = []
    circle_maps = {}
    for a in perm:
        atom = g.atoms[a]
        edges = [((o[0], (o[1] + rot[a]) % 4), (i[0], (i[1] + rot[a]) % 4))
                 for o, i in atom.edges]
        na = mg.Atom.of(atom.saddles, edges)
        by_out = na.edge_at_out()
        bij = {k: by_out[(o[0], (o[1] + rot[a]) % 4)]
               for k, (o, i) in enumerate(atom.edges)}
        table = {}
        for ci, (side, cyc) in enumerate(na.circles):
            table[(side, frozenset(cyc))] = ci
        cmap = {}
        for ci, (side, cyc) in enumerate(atom.circles):
            cmap[ci] = table[(side, frozenset(bij[e] for e in cyc))]
        circle_maps[a] = cmap
        atoms.append(na)

    def ref(c):
        a, ci = c
        return (old_to_new[a], circle_maps[a][ci])

    # shuffle unmarked extremum labels
    unmarked_min = [c.label for c in g.caps if c.kind == "min" and not c.marked]
    unmarked_max = [c.label for c in g.caps if c.kind == "max" and not c.marked]
    new_min = unmarked_min[:]
    new_max = unmarked_max[:]
    rng.shuffle(new_min)
    rng.shuffle(new_max)
    min_map = dict(zip(unmarked_min, new_min))
    max_map = dict(zip(unmarked_max, new_max))
    caps = []
    for c in g.caps:
        label = c.label
        if not c.marked:
            label = (min_map if c.kind == "min" else max_map)[label]
        caps.append(mg.Cap(circle=ref(tuple(c.circle)), kind=c.kind,
                           label=label, marked=c.marked, fixed=c.fixed))
    cyls = tuple(sorted((ref(tuple(lo)), ref(tuple(hi)))
                        for lo, hi in g.cylinders))
    levels = tuple(tuple(sorted(old_to_new[a] for a in lev)) for lev in g.levels)
    return mg.LMG(q=g.q, p=g.p, r=g.r, levels=levels, atoms=tuple(atoms),
                  caps=tuple(caps), cylinders=cyls,
                  marked_saddles=g.marked_saddles, fixed_saddles=g.fixed_saddles)


# ---------------------------------------------------------------------------
# the cross-checks
# ---------------------------------------------------------------------------

def test_scrambled_copies_are_isomorphic_and_form_equal(complexes_q2):
    for K in complexes_q2.values():
        for k, rec in enumerate(K.classes):
            g2 = scrambled_copy(rec.lmg, seed=k)
            mg.validate(g2)
            assert mg.canonical_form(g2) == rec.canonical
            assert brute_force_isomorphic(rec.lmg, g2)


def test_pairwise_distinct_q2_catalogs(complexes_q2):
    for K in complexes_q2.values():
        recs = list(K.classes)
        for i in range(len(recs)):
            for j in range(i + 1, len(recs)):
                assert recs[i].canonical != recs[j].canonical
                assert not brute_force_isomorphic(recs[i].lmg, recs[j].lmg)


def test_pairwise_distinct_q3_seeds():
    seeds = enumerate_top_classes(4, 3, 1)
    for i in range(len(seeds)):
        for j in range(i + 1, len(seeds)):
            assert not brute_force_isomorphic(seeds[i], seeds[j])


def test_q3_deep_classes_sampled(complexes_q3):
    rng = random.Random(11)
    recs = [rec for K in complexes_q3.values() for rec in K.classes]
    sample = rng.sample(recs, 40)
    for k, rec in enumerate(sample):
        g2 = scrambled_copy(rec.lmg, seed=1000 + k)
        assert mg.canonical_form(g2) == rec.canonical
        assert brute_force_isomorphic(rec.lmg, g2)
    for _ in range(120):
        a, b = rng.sample(recs, 2)
        assert (a.canonical == b.canonical) == brute_force_isomorphic(a.lmg, b.lmg)


def _check_canonicalize(g):
    """canonicalize's encoding gives canonical_form's bytes, and its group is
    exactly the set of self-isomorphisms the oracle finds, identity first."""
    enc, framings = mg.canonicalize(g)
    group = mg.automorphisms(g, framings)
    assert mg.form_bytes(enc) == mg.canonical_form(g)
    assert group[0].is_identity()
    found = [frozenset(d.items()) for d in brute_force_isomorphisms(g, g)]
    assert len(set(found)) == len(found) == len(group)
    assert set(found) == {frozenset(phi.darts.items()) for phi in group}


def test_canonicalize_matches_the_oracle_q_le_2(complex_q1, complexes_q2):
    recs = [rec for K in (complex_q1, *complexes_q2.values()) for rec in K.classes]
    for rec in recs:
        _check_canonicalize(rec.lmg)


def test_canonicalize_matches_the_oracle_on_q3_symmetric_classes():
    marking = MarkingSpec(marked=(0, 3, 0), fixed=(0, 0, 0))
    K = build_complex(enumerate_top_classes(3, 3, 2, marking))
    symmetric = [rec for rec in K.classes if rec.gamma_order > 1]
    assert symmetric
    for rec in symmetric:
        _check_canonicalize(rec.lmg)


def test_pruned_pass_matches_the_exhaustive_pass(complex_q1, complexes_q2,
                                                  complexes_q3):
    # every class of the q <= 3 complexes, all marked, with marking 1,1,1
    # and with marking 0,3,0, and each class's mirror: the pruned pass
    # finds the least encoding of the exhaustive one, and the same winning
    # framings in the same order; so does the mirror pass, which frames a
    # class's mirror without building the mirror graph
    complexes = [complex_q1, *complexes_q2.values(), *complexes_q3.values()]
    splits = [(2, 1, 1), *((p, 2, r) for p, r in Q2_SPLITS),
              *((p, 3, r) for p, r in Q3_SPLITS)]
    for p, q, r in splits:
        for marked in [(1, 1, 1), (0, 3, 0)]:
            if marked[1] <= q:
                marking = MarkingSpec(marked=marked, fixed=(0, 0, 0))
                complexes.append(build_complex(enumerate_top_classes(p, q, r, marking)))
    graphs = [rec.lmg for K in complexes for rec in K.classes]
    tied = 0
    for g in graphs:
        h = mg.mirror(g)
        want_g, want_h = exhaustive_canonicalize(g), exhaustive_canonicalize(h)
        assert mg.canonicalize(g) == want_g
        assert mg.canonicalize(h) == mg.canonicalize_mirror(g) == want_h
        tied += (len(want_g[1]) > 1) + (len(want_h[1]) > 1)
    assert tied > 0   # the order of several winners is compared too


def test_bench_dump_classes_frame_to_their_stored_forms():
    # every class of the four stored benchmark dumps frames to its stored
    # canonical form, and its mirror pass equals the pass over its mirror
    # graph, encoding and winning framings in order
    count = 0
    for path in sorted((BENCH / "dumps").glob("*.json.gz")):
        for entry in json.loads(gzip.decompress(path.read_bytes()))["classes"]:
            g = mg.from_json(entry["lmg"])
            assert mg.canonical_form(g) == entry["canonical"].encode("ascii")
            assert mg.canonicalize_mirror(g) == mg.canonicalize(mg.mirror(g))
            count += 1
    assert count == 1804


def test_longer_cap_block_orders_first():
    # atoms 0 and 1 are pants of one code on level 1, with a min-disk on 0
    # and a min-disk and a max-disk on 1; 1 goes first, as its max-disk at
    # position 0 is smaller than any cap at position 1
    def pants(v, lowers):
        slots = ((0, 3), (2, 1)) if lowers == 2 else ((0, 1), (2, 3))
        return mg.Atom.of([v], [((v, o), (v, i)) for o, i in slots])

    def cap(circle, kind, label):
        return mg.Cap(circle=circle, kind=kind, label=label, marked=False,
                      fixed=False)

    # circles of a pants: its lowers first, then its uppers
    g = mg.LMG(q=4, p=2, r=4, levels=((0, 1), (2, 3)),
               atoms=(pants(1, 1), pants(2, 1), pants(3, 2), pants(4, 1)),
               caps=(cap((0, 0), "min", 1), cap((1, 0), "min", 2),
                     cap((1, 2), "max", 1), cap((2, 2), "max", 2),
                     cap((3, 1), "max", 3), cap((3, 2), "max", 4)),
               cylinders=(((0, 1), (2, 0)), ((0, 2), (3, 0)),
                          ((1, 1), (2, 1))),
               marked_saddles=frozenset(), fixed_saddles=frozenset())
    mg.validate(g)
    enc, framings = mg.canonicalize(g)
    assert {arrangement for arrangement, _ in framings} == {(1, 0, 3, 2)}
    for h in (g, mg.mirror(g), mg.dual(g)):
        assert mg.canonicalize(h) == exhaustive_canonicalize(h)
