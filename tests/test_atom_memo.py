"""The per-operation atom memo: shared entries are read-only, a shared scope
canonicalizes exactly as a fresh one does, and no entry outlives the
operation that opened its scope."""

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


def test_no_memo_outlives_its_operation(monkeypatch):
    scopes = []
    raw = mg._atom_codes

    def spy(atom, marked, fixed):
        scopes.append(mg._atom_memo)
        return raw(atom, marked, fixed)

    monkeypatch.setattr(mg, "_atom_codes", spy)
    marking = cb.MarkingSpec(marked=(3, 0, 1), fixed=(0, 0, 0))
    seeds = cb.enumerate_top_classes(3, 2, 1, marking)
    assert mg._atom_memo is None
    K = cb.build_complex(seeds)
    assert mg._atom_memo is None
    cb.complex_from_json(cb.complex_to_json(K))
    assert mg._atom_memo is None
    # every raw computation ran inside an open scope, and each operation
    # (enumeration's candidate chunk, the build, the reload) opened its own;
    # `scopes` keeps each dict alive, so ids are not reused
    assert scopes and all(memo is not None for memo in scopes)
    assert len({id(memo) for memo in scopes}) == 3
