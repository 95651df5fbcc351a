"""What each atom keeps of itself: kept maps and surgeries are read-only,
interned atoms that keep their codes and surgeries canonicalize and split
exactly as fresh copies do, equal atoms are interned as one object, and
nothing kept outlives the graphs that hold its atom."""

import dataclasses
import gc
import weakref

import pytest

from mck import complex_builder as cb
from mck import morse_graph as mg
from mck import perturbation as pt

from oracles import covers


def _canonical_data(g):
    enc, framings = mg.canonicalize(g)
    group = mg.automorphisms(g, framings)
    # a second, separate pass for the saddle positions
    enc_pos, framings_pos = mg.canonicalize(g)
    return (mg.canonical_form(g), mg.form_bytes(enc), group,
            (mg.form_bytes(enc_pos), mg.saddle_positions(g, framings_pos)))


def _plain_copy(g):
    """`g` on plain `Atom.of` copies of its atoms, which keep nothing yet."""
    return dataclasses.replace(g, atoms=tuple(mg.Atom.of(a.saddles, a.edges)
                                              for a in g.atoms))


def _keeps(atom, key):
    """Whether `atom` keeps a value under `key`, asked without computing
    one: a compute that raises keeps nothing."""
    class NotKept(Exception):
        pass

    def compute():
        raise NotKept

    try:
        atom.kept(key, compute)
    except NotKept:
        return False
    return True


def test_cached_maps_are_read_only(fig8_lmg):
    atom = fig8_lmg.atoms[0]
    code, realizations = mg._atom_min_codes(atom, frozenset({1}), frozenset())
    again = mg._atom_min_codes(atom, frozenset({1}), frozenset())
    assert again[1] is realizations  # the one entry the atom keeps
    dmap, cmap = realizations[0]
    with pytest.raises(TypeError):
        dmap[(1, 0)] = 0
    with pytest.raises(TypeError):
        cmap[0] = 1
    with pytest.raises(AttributeError):
        realizations.append(realizations[0])
    fresh = mg.Atom.of(atom.saddles, atom.edges)
    assert mg._atom_min_codes(fresh, {1}, set()) == (code, realizations)
    # a kept surgery is one value per lower saddles of the atom's own, and
    # holds tuples of circle references and new atoms only
    atom = cb.enumerate_top_classes(3, 2, 1)[0].atoms[0]
    surgery = pt._atom_surgery(atom, frozenset({1}))
    assert atom.saddles == (1, 2)
    assert pt._atom_surgery(atom, frozenset({1, 5})) is surgery

    def parts(x):
        yield x
        if isinstance(x, tuple):
            for y in x:
                yield from parts(y)

    assert isinstance(surgery, tuple)
    assert all(isinstance(x, (tuple, int, mg.Atom)) for x in parts(surgery))


def test_shared_scope_agrees_with_fresh_scopes(complexes_q2, complexes_q3):
    # the complexes' atoms are interned and keep their codes and mirrors
    # from the builds; plain copies compute everything afresh
    graphs = []
    for K in [*complexes_q2.values(), *complexes_q3.values()]:
        for rec in K.classes:
            graphs += [rec.lmg, mg.mirror(rec.lmg)]
    assert all(atom is mg.Atom.shared(atom.saddles, atom.edges)
               for g in graphs for atom in g.atoms)
    warm = [_canonical_data(g) for g in graphs]
    fresh = [_canonical_data(_plain_copy(g)) for g in graphs]
    assert warm == fresh
    for cf, form, _, (cf_pos, _) in warm:
        assert cf == form == cf_pos
    # the cover splits of every class read the surgeries its atoms keep from
    # the builds, and agree with splits of plain copies; asked again, they
    # hand out the same new atoms
    for K in [*complexes_q2.values(), *complexes_q3.values()]:
        for rec in K.classes:
            g = rec.lmg
            for J1 in covers(g.level_partition()):
                h = pt.delta(g, J1)
                assert h == pt.delta(_plain_copy(g), J1)
                assert all(a is b for a, b in zip(pt.delta(g, J1).atoms, h.atoms))


def test_one_atom_object_per_distinct_atom_in_a_scope(complexes_q3):
    texts = [mg.to_json(rec.lmg) for rec in complexes_q3[(3, 2)].classes]
    graphs = [mg.from_json(text) for text in texts]
    for text, g in zip(texts, graphs):
        again = mg.from_json(text)
        assert all(a is b for a, b in zip(again.atoms, g.atoms))
        # the mirror of the mirror is the interned atom itself
        twice = mg.mirror(mg.mirror(g))
        assert all(a is b for a, b in zip(twice.atoms, g.atoms))
        assert all(mg._rebuilt_atom(atom, flip) is mg._rebuilt_atom(atom, flip)
                   for atom in g.atoms for flip in (False, True))
    atoms = [atom for g in graphs for atom in g.atoms]
    assert len({id(atom) for atom in atoms}) == len(set(atoms)) < len(atoms)
    # `Atom.of` (the candidate scan's atoms) is never interned
    plain = mg.Atom.of(atoms[0].saddles, atoms[0].edges)
    assert plain == atoms[0] and plain is not atoms[0]


def test_no_memo_outlives_its_operation(monkeypatch):
    # a table of its own, so no atom an earlier test left alive is handed out
    table = weakref.WeakValueDictionary()
    monkeypatch.setattr(mg, "_interned", table)
    shared_atoms, rebuilt_atoms = [], []   # weak references to each handed out
    split_atoms = []                       # (weak reference, lower saddles)
    raw_shared = mg.Atom.shared.__func__
    raw_rebuilt = mg._rebuilt_atom
    raw_surgery = pt._atom_surgery

    def shared(cls, saddles, edges):
        atom = raw_shared(cls, saddles, edges)
        shared_atoms.append(weakref.ref(atom))
        return atom

    def rebuilt(atom, flip):
        value = raw_rebuilt(atom, flip)
        rebuilt_atoms.append(weakref.ref(value[0]))
        return value

    def surgery(atom, lower):
        split_atoms.append((weakref.ref(atom), frozenset(atom.saddles) & lower))
        return raw_surgery(atom, lower)

    monkeypatch.setattr(mg.Atom, "shared", classmethod(shared))
    monkeypatch.setattr(mg, "_rebuilt_atom", rebuilt)
    monkeypatch.setattr(pt, "_atom_surgery", surgery)
    marking = cb.MarkingSpec(marked=(3, 0, 1), fixed=(0, 0, 0))
    seeds = cb.enumerate_top_classes(3, 2, 1, marking)
    K = cb.build_complex(seeds)
    cb.complex_from_json(cb.complex_to_json(K))
    refs = shared_atoms + rebuilt_atoms + [ref for ref, _ in split_atoms]
    assert shared_atoms and rebuilt_atoms and split_atoms
    assert any(ref() is not None for ref in refs)   # the complex holds some
    assert len(table) > 0
    # an atom split keeps its surgery, and with it the atoms split off
    assert any(_keeps(ref(), ("surgery", lower))
               for ref, lower in split_atoms if ref() is not None)
    # an atom keeps its mirror, and the mirror keeps its own mirror, which
    # is the atom: a cycle that only the collector frees
    atom = K.classes[0].lmg.atoms[0]
    assert raw_rebuilt(raw_rebuilt(atom, False)[0], False)[0] is atom
    # once the test lets go of the seeds and the complex, no interned atom,
    # no atom split and no mirror or dual kept per atom is reachable, and the
    # table is empty
    del seeds, K, atom
    gc.collect()
    assert [ref for ref in refs if ref() is not None] == []
    assert len(table) == 0
