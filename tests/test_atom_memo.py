"""What each atom keeps of itself: kept maps are read-only, interned atoms
that keep their codes canonicalize exactly as fresh copies do, equal atoms
are interned as one object, and nothing kept outlives the graphs that hold
its atom."""

import dataclasses
import gc
import weakref

import pytest

from mck import complex_builder as cb
from mck import morse_graph as mg


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
    raw_shared = mg.Atom.shared.__func__
    raw_rebuilt = mg._rebuilt_atom

    def shared(cls, saddles, edges):
        atom = raw_shared(cls, saddles, edges)
        shared_atoms.append(weakref.ref(atom))
        return atom

    def rebuilt(atom, flip):
        value = raw_rebuilt(atom, flip)
        rebuilt_atoms.append(weakref.ref(value[0]))
        return value

    monkeypatch.setattr(mg.Atom, "shared", classmethod(shared))
    monkeypatch.setattr(mg, "_rebuilt_atom", rebuilt)
    marking = cb.MarkingSpec(marked=(3, 0, 1), fixed=(0, 0, 0))
    seeds = cb.enumerate_top_classes(3, 2, 1, marking)
    K = cb.build_complex(seeds)
    cb.complex_from_json(cb.complex_to_json(K))
    refs = shared_atoms + rebuilt_atoms
    assert shared_atoms and rebuilt_atoms
    assert any(ref() is not None for ref in refs)   # the complex holds some
    assert len(table) > 0
    # an atom keeps its mirror, and the mirror keeps its own mirror, which
    # is the atom: a cycle that only the collector frees
    atom = K.classes[0].lmg.atoms[0]
    assert raw_rebuilt(raw_rebuilt(atom, False)[0], False)[0] is atom
    # once the test lets go of the seeds and the complex, no interned atom
    # and no mirror or dual kept per atom is reachable, and the table is empty
    del seeds, K, atom
    gc.collect()
    assert [ref for ref in refs if ref() is not None] == []
    assert len(table) == 0
