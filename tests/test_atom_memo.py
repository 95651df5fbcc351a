"""The per-operation atom memo: shared entries are read-only, a shared scope
canonicalizes exactly as a fresh one does, a scope hands out one object per
distinct atom, and no entry outlives the operation that opened its scope."""

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


def test_cached_maps_are_read_only(fig8_lmg):
    atom = fig8_lmg.atoms[0]
    with mg.atom_memo():
        code, realizations = mg._atom_min_codes(atom, frozenset({1}), frozenset())
        again = mg._atom_min_codes(atom, frozenset({1}), frozenset())
        assert again[1] is realizations  # one shared entry
        dmap, cmap = realizations[0]
        with pytest.raises(TypeError):
            dmap[(1, 0)] = 0
        with pytest.raises(TypeError):
            cmap[0] = 1
        with pytest.raises(AttributeError):
            realizations.append(realizations[0])
    assert mg._atom_min_codes(atom, {1}, set()) == (code, realizations)


def test_shared_scope_agrees_with_fresh_scopes(complexes_q2, complexes_q3):
    graphs = []
    for K in [*complexes_q2.values(), *complexes_q3.values()]:
        for rec in K.classes:
            graphs += [rec.lmg, mg.mirror(rec.lmg)]
    with mg.atom_memo():
        shared = [_canonical_data(g) for g in graphs]
    fresh = []
    for g in graphs:
        with mg.atom_memo():
            fresh.append(_canonical_data(g))
    assert shared == fresh
    for cf, form, _, (cf_pos, _) in shared:
        assert cf == form == cf_pos


def test_one_atom_object_per_distinct_atom_in_a_scope(complexes_q3):
    texts = [mg.to_json(rec.lmg) for rec in complexes_q3[(3, 2)].classes]
    with mg.atom_memo():
        graphs = [mg.from_json(text) for text in texts]
        for text, g in zip(texts, graphs):
            again = mg.from_json(text)
            assert all(a is b for a, b in zip(again.atoms, g.atoms))
            # the mirror of the mirror is built from the scope's tables
            twice = mg.mirror(mg.mirror(g))
            assert all(a is b for a, b in zip(twice.atoms, g.atoms))
            assert all(mg._rebuilt_atom(atom, flip) is mg._rebuilt_atom(atom, flip)
                       for atom in g.atoms for flip in (False, True))
        atoms = [atom for g in graphs for atom in g.atoms]
        assert len({id(atom) for atom in atoms}) == len(set(atoms)) < len(atoms)
    # outside a scope every read makes its own atoms
    g, again = mg.from_json(texts[0]), mg.from_json(texts[0])
    assert g.atoms == again.atoms
    assert all(a is not b for a, b in zip(again.atoms, g.atoms))


def test_no_memo_outlives_its_operation(monkeypatch):
    scopes = []
    shared_atoms, rebuilt_atoms = [], []   # weak references to each handed out
    raw = mg._atom_codes
    raw_shared = mg.Atom.shared.__func__
    raw_rebuilt = mg._rebuilt_atom

    def spy(atom, marked, fixed):
        scopes.append(mg._atom_memo)
        return raw(atom, marked, fixed)

    def shared(cls, saddles, edges):
        atom = raw_shared(cls, saddles, edges)
        shared_atoms.append(weakref.ref(atom))
        return atom

    def rebuilt(atom, flip):
        value = raw_rebuilt(atom, flip)
        rebuilt_atoms.append(weakref.ref(value[0]))
        return value

    monkeypatch.setattr(mg, "_atom_codes", spy)
    monkeypatch.setattr(mg.Atom, "shared", classmethod(shared))
    monkeypatch.setattr(mg, "_rebuilt_atom", rebuilt)
    marking = cb.MarkingSpec(marked=(3, 0, 1), fixed=(0, 0, 0))
    seeds = cb.enumerate_top_classes(3, 2, 1, marking)
    assert mg._atom_memo is None
    K = cb.build_complex(seeds)
    assert mg._atom_memo is None
    cb.complex_from_json(cb.complex_to_json(K))
    assert mg._atom_memo is None
    # every raw computation ran inside an open scope, and each operation
    # (enumeration's candidate chunk, the build, the reload) opened its own;
    # `scopes` keeps each scope alive, so ids are not reused
    assert scopes and all(memo is not None for memo in scopes)
    assert len({id(memo) for memo in scopes}) == 3
    # once the test lets go of the scopes and the results, no shared atom
    # and no mirror kept per atom is reachable
    refs = shared_atoms + rebuilt_atoms
    assert shared_atoms and rebuilt_atoms
    assert any(ref() is not None for ref in refs)   # the complex holds some
    scopes.clear()
    del seeds, K
    gc.collect()
    assert [ref for ref in refs if ref() is not None] == []
