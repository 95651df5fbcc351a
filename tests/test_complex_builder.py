import dataclasses
import json
import random

import pytest

from mck import complex_builder as cb
from mck import morse_graph as mg
from mck.complex_builder import (
    MarkingSpec, ParameterError, ScopeError, betti0, build_complex,
    catalog_from_json, catalog_to_json, class_poset_dot, complex_dimension,
    complex_from_json, complex_rank, complex_to_json, enumerate_top_classes,
    euler_characteristic, morse_smale_report, q_polynomial)
from mck.permutohedron import face_vertices

from conftest import Q2_SPLITS, Q3_SPLITS
from oracles import closure_by_delta, enumerate_classes_direct
from test_perturbation import _first_q4_seeds


# ---------------------------------------------------------------------------
# enumeration
# ---------------------------------------------------------------------------

def test_q1_exactly_one_class():
    classes = enumerate_top_classes(2, 1, 1)
    assert len(classes) == 1
    rep = mg.validate(classes[0])
    assert (rep.p, rep.q, rep.r, rep.s) == (2, 1, 1, 1)


def test_q1_duality():
    assert len(enumerate_top_classes(1, 1, 2)) == len(enumerate_top_classes(2, 1, 1))


def test_q2_duality_symmetry():
    for p, r in [(3, 1), (2, 2)]:
        a = enumerate_top_classes(p, 2, r)
        b = enumerate_top_classes(r, 2, p)
        assert len(a) == len(b)
        assert ({mg.canonical_form(mg.dual(g)) for g in a}
                == {mg.canonical_form(g) for g in b})


def test_parameter_errors():
    with pytest.raises(ParameterError):
        enumerate_top_classes(2, 1, 2)  # p - q + r = 3
    with pytest.raises(ParameterError):
        enumerate_top_classes(0, 1, 3)  # no minimum
    with pytest.raises(ParameterError):
        enumerate_top_classes(2, 2, 2,
                              MarkingSpec(marked=(1, 1, 0), fixed=(0, 0, 0)))
    with pytest.raises(ParameterError):
        enumerate_top_classes(2, 2, 2,
                              MarkingSpec(marked=(3, 2, 2), fixed=(0, 0, 0)))
    with pytest.raises(ParameterError):
        enumerate_top_classes(6, 5, 1)  # beyond the desk-scale guard


def test_cap_labelings_are_valid_by_construction():
    # enumeration canonicalizes capped connected matchings without
    # validating them, so each one must already be a valid graph; the 1,1,1
    # marking also fixes label 1 of each index.  Enumeration caps only one
    # atom per tagged atom code, and must still give the canonical forms of
    # every capped matching.
    built = 0
    for q in (1, 2, 3):
        for p in range(1, q + 2):
            r = q + 2 - p
            for marked, fixed in (((p, q, r), (0, 0, 0)),
                                  ((p, 0, r), (0, 0, 0)),
                                  ((1, 1, 1), (1, 1, 1)),
                                  ((0, q, 0), (0, 0, 0))):
                marking = MarkingSpec(marked=marked, fixed=fixed)
                try:
                    marking.check(p, q, r)
                except ParameterError:
                    continue
                marked_s, fixed_s = cb._marked_saddle_sets(marking)
                forms = set()
                for atom in cb._one_level_atoms(p, q, r, cb._matchings(q)):
                    for g in cb._cap_labelings(atom, p, r, marking, marked_s,
                                               fixed_s, q):
                        mg.validate(g)
                        forms.add(mg.canonical_form(g))
                        built += 1
                assert cb._top_candidates_chunk(
                    (p, q, r, marking, list(cb._matchings(q)))) == forms
    assert built == 24852


def test_enumeration_deterministic_and_parallel_agree():
    base = enumerate_top_classes(2, 2, 2)
    again = enumerate_top_classes(2, 2, 2)
    par = enumerate_top_classes(2, 2, 2, jobs=2)
    key = lambda gs: [mg.canonical_form(g) for g in gs]
    assert key(base) == key(again) == key(par)


def test_worker_pool_is_capped(monkeypatch):
    monkeypatch.setattr(cb.os, "cpu_count", lambda: 3)
    # a real 2-worker pool: each chunk deduplicates atoms on its own, and
    # the union of forms is the same as in one process
    marking = MarkingSpec(marked=(0, 3, 0), fixed=(0, 0, 0))
    assert (enumerate_top_classes(3, 3, 2, marking, jobs=2)
            == enumerate_top_classes(3, 3, 2, marking, jobs=1))
    # a fake pool records its size and maps in-process, so no worker starts
    sizes = []

    class RecordingPool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, argsets):
            return map(fn, argsets)

    monkeypatch.setattr(cb, "ProcessPoolExecutor", RecordingPool)
    assert enumerate_top_classes(3, 2, 1, jobs=10**6) == enumerate_top_classes(3, 2, 1)
    assert enumerate_top_classes(2, 1, 1, jobs=10**6) == enumerate_top_classes(2, 1, 1)
    assert enumerate_top_classes(3, 2, 1, jobs=2) == enumerate_top_classes(3, 2, 1)
    # min(jobs, CPUs, chunks): 24 and 2 matchings for q = 2 and q = 1
    assert sizes == [3, 2, 2]


# ---------------------------------------------------------------------------
# building the complex
# ---------------------------------------------------------------------------

def test_q1_complex_has_no_incidence(complex_q1):
    K = complex_q1
    assert len(K.classes) == 1 and K.incidence == ()
    assert complex_dimension(K) == 0 and complex_rank(K) == 0


def test_q2_closure_equals_direct_enumeration(complexes_q2):
    for (p, r), K in complexes_q2.items():
        direct = enumerate_classes_direct(p, 2, r)
        assert ({rec.canonical for rec in K.classes}
                == {mg.canonical_form(g) for g in direct})


def _closure_jobs(complexes_q2, complexes_q3):
    """(name, seeds, complex built from them) for the oracle comparison:
    every q <= 2 split and (4, 3, 1) all marked; every q <= 2 split with
    extrema only and one point of each index marked; every q = 3 split with
    those and with saddles only marked, seeds shuffled; closures of a few
    q = 4 seeds.  (Saddles only leave too few marked points at q <= 2.)"""
    for (p, r), K in complexes_q2.items():
        yield "%d-2-%d-all" % (p, r), enumerate_top_classes(p, 2, r), K
    for q, splits in ((1, ((2, 1), (1, 2))), (2, Q2_SPLITS)):
        for p, r in splits:
            for marked in ((p, q, r), (p, 0, r), (1, 1, 1)):
                if q == 2 and marked == (p, q, r):
                    continue  # complexes_q2
                seeds = enumerate_top_classes(
                    p, q, r, MarkingSpec(marked=marked, fixed=(0, 0, 0)))
                yield ("%d-%d-%d-%s" % (p, q, r, marked), seeds,
                       build_complex(seeds))
    yield "4-3-1-all", enumerate_top_classes(4, 3, 1), complexes_q3[(4, 1)]
    rng = random.Random(11)
    for p, r in Q3_SPLITS:
        for marked in ((p, 0, r), (1, 1, 1), (0, 3, 0)):
            seeds = enumerate_top_classes(
                p, 3, r, MarkingSpec(marked=marked, fixed=(0, 0, 0)))
            rng.shuffle(seeds)
            yield "%d-3-%d-%s" % (p, r, marked), seeds, build_complex(seeds)
    for p, r, marking in ((5, 1, MarkingSpec.all_marked(5, 4, 1)),
                          (3, 3, MarkingSpec((1, 1, 1), (0, 0, 0))),
                          (4, 2, MarkingSpec((0, 4, 0), (0, 0, 0)))):
        seeds = _first_q4_seeds(p, r, marking, 6)
        yield ("%d-4-%d-%s" % (p, r, marking.marked), seeds,
               build_complex(seeds))


def _assert_polytope_dims(name, K):
    # the edge-value polytope is the all-ones point on one level and
    # full-dimensional below, in 2q - n kept-edge coordinates
    for rec in K.classes:
        want = 0 if rec.s == 1 else 2 * K.q - rec.n
        assert rec.dim_upoly == want, (name, rec.class_id)


def test_closure_over_covers_matches_delta_oracle(complexes_q2, complexes_q3):
    # composing cover entries through saddle relabelings gives the dump
    # that resolving every refinement by its own delta gives, byte for byte;
    # with complexes_q3, the jobs cover every q <= 3 split under all four
    # markings, and every class there has a certified polytope dimension
    for name, seeds, K in _closure_jobs(complexes_q2, complexes_q3):
        same = complex_to_json(K) == complex_to_json(closure_by_delta(seeds))
        assert same, name
        _assert_polytope_dims(name, K)
    for (p, r), K in complexes_q3.items():
        _assert_polytope_dims("%d-3-%d-all" % (p, r), K)


def test_index_stratification(complexes_q2):
    for K in complexes_q2.values():
        recs = K.by_id()
        for src, _, dst in K.incidence:
            assert recs[dst].index < recs[src].index


def test_incidence_covers_all_non_top_classes(complexes_q2):
    for K in complexes_q2.values():
        targets = {dst for _, _, dst in K.incidence}
        for rec in K.classes:
            if rec.index < complex_rank(K):
                assert rec.class_id in targets


def test_faces_with_common_target_coincide_or_are_disjoint(complexes_q2):
    # the face-poset injectivity argument, read on the incidence table
    for K in complexes_q2.values():
        by_src = {}
        for src, face, dst in K.incidence:
            by_src.setdefault(src, []).append((face, dst))
        from mck.permutohedron import OrderedPartition
        for src, pairs in by_src.items():
            by_dst = {}
            for face, dst in pairs:
                by_dst.setdefault(dst, []).append(face)
            for faces in by_dst.values():
                for f1 in faces:
                    for f2 in faces:
                        if f1 == f2:
                            continue
                        J1 = OrderedPartition.of([set(b) for b in f1])
                        J2 = OrderedPartition.of([set(b) for b in f2])
                        assert not (frozenset(face_vertices(J1))
                                    & frozenset(face_vertices(J2)))


def test_scope_refusal_on_multiple_fixed_points():
    marking = MarkingSpec(marked=(2, 2, 2), fixed=(2, 0, 0))
    seeds = enumerate_top_classes(2, 2, 2, marking)
    with pytest.raises(ScopeError):
        build_complex(seeds, marking)


def test_seeds_must_be_one_level(complexes_q2):
    K = complexes_q2[(2, 2)]
    deep = [rec.lmg for rec in K.classes if rec.s > 1]
    with pytest.raises(ParameterError):
        build_complex(deep[:1])


def test_invalid_seed_refused():
    # a q = 1 seed has no proper refinement, so nothing but the seed check
    # stands between it and its handle record
    g = enumerate_top_classes(2, 1, 1)[0]
    cap = dataclasses.replace(g.caps[0], marked=False, fixed=True)
    bad = dataclasses.replace(g, caps=(cap,) + g.caps[1:])
    with pytest.raises(mg.StructureError, match="fixed cap must be marked"):
        build_complex([bad])


# ---------------------------------------------------------------------------
# invariants
# ---------------------------------------------------------------------------

def test_euler_q1(complex_q1):
    chi = euler_characteristic(complex_q1)
    assert chi.formula == 1 and chi.independent == 1 and chi.agree


def test_euler_q2(complexes_q2):
    for K in complexes_q2.values():
        chi = euler_characteristic(K)
        assert chi.formula == -K.top_count
        assert chi.agree and not chi.skipped


def test_q_polynomial_q1(complex_q1):
    assert q_polynomial(complex_q1) == [complex_q1.top_count]


def test_q_polynomial_torus_contribution(complexes_q2):
    K = complexes_q2[(2, 2)]
    # every s = 2 class has d = 1 and trivial symmetry: contributes 1 + t
    for rec in K.classes:
        if rec.s == 2:
            assert rec.d == 1 and rec.gamma_order == 1
            assert rec.poincare == (1, 1)
        else:
            assert rec.poincare == (1,)
    qs = q_polynomial(K)
    deep = sum(1 for rec in K.classes if rec.s == 2)
    assert qs == [deep, deep + K.top_count]


def test_dimension_and_rank(complex_q1, complexes_q2):
    assert complex_dimension(complex_q1) == 0
    for K in complexes_q2.values():
        assert complex_dimension(K) == 4  # 3q - 2
        assert complex_rank(K) == 1      # q - 1


def test_handle_dim_bound(complexes_q2):
    for K in complexes_q2.values():
        for rec in K.classes:
            assert rec.handle_dim == rec.index + rec.n + rec.dim_upoly
            assert rec.handle_dim <= 3 * K.q - 2


def test_morse_smale_report(complex_q1, complexes_q2):
    rep = morse_smale_report(complex_q1, betti=[1])
    assert rep.betti_le_q and rep.alternating_ok and rep.zero_slots_ok
    K = complexes_q2[(2, 2)]
    rep2 = morse_smale_report(K)
    assert rep2.q_coeffs == tuple(q_polynomial(K))
    # the top alternating sum is the Euler characteristic up to sign
    top = len(rep2.q_coeffs) - 1
    assert rep2.q_alternating[top] == (-1) ** top * euler_characteristic(K).formula
    b0 = betti0(K)
    rep3 = morse_smale_report(K, betti=[b0])
    assert rep3.betti_le_q and rep3.alternating_ok
    with pytest.raises(ParameterError):
        morse_smale_report(K, betti=[-1])


def test_betti0_connected(complexes_q2):
    for K in complexes_q2.values():
        assert betti0(K) == 1


def test_gamma_on_point_handles_is_trivial(complexes_q2):
    # freeness forces a trivial group whenever the torus rank is zero
    for K in complexes_q2.values():
        for rec in K.classes:
            if rec.d == 0:
                assert rec.gamma_order == 1


def test_one_level_classes_have_no_cylinders(complexes_q2):
    for K in complexes_q2.values():
        for rec in K.classes:
            if rec.s == 1:
                assert rec.n == 0 and rec.t == 1


def test_euler_skips_non_compact_handles():
    # a handle with c > 0 (line directions) puts the complex outside the
    # compact case: the independent sum must be skipped, not faked
    from test_twist_algebra import family_tower
    from mck.complex_builder import ComplexK, handle_record
    rec = handle_record(family_tower())
    assert rec.c == 1
    K = ComplexK(p=3, q=3, r=2,
                 marking=MarkingSpec(marked=(3, 3, 2), fixed=(3, 0, 1)),
                 classes=(rec,), incidence=(), top_count=0)
    chi = euler_characteristic(K)
    assert chi.skipped and "c > 0" in chi.note


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def test_catalog_roundtrip():
    classes = enumerate_top_classes(3, 2, 1)
    text = catalog_to_json(classes, 3, 2, 1, MarkingSpec.all_marked(3, 2, 1))
    back, p, q, r, marking = catalog_from_json(text)
    assert (p, q, r) == (3, 2, 1)
    assert ([mg.canonical_form(g) for g in back]
            == [mg.canonical_form(g) for g in classes])
    assert catalog_to_json(back, p, q, r, marking) == text


def test_complex_roundtrip(complexes_q2):
    K = complexes_q2[(3, 1)]
    text = complex_to_json(K)
    K2 = complex_from_json(text)
    assert complex_to_json(K2) == text
    assert K2.top_count == K.top_count
    assert K2.incidence == K.incidence


def test_complex_json_reports(complexes_q2):
    K = complexes_q2[(2, 2)]
    doc = json.loads(complex_to_json(K))
    assert doc["dim"] == 4 and doc["rank"] == 1
    assert doc["chi"]["agree"] is True
    assert doc["Q"] == q_polynomial(K)
    assert doc["top_count"] == K.top_count


def test_corrupted_complex_is_rejected(complexes_q2):
    K = complexes_q2[(3, 1)]
    doc = json.loads(complex_to_json(K))
    doc["classes"][0]["id"] = "c0000000000000000"
    with pytest.raises(mg.LMGJSONError):
        complex_from_json(json.dumps(doc))


def test_stored_fields_are_cross_checked(complexes_q2):
    K = complexes_q2[(3, 1)]
    doc = json.loads(complex_to_json(K))
    entry = doc["classes"][-1]
    entry["dim_upoly"] += 1
    with pytest.raises(mg.LMGJSONError, match="class %s: stored dim_upoly"
                       % entry["id"]):
        complex_from_json(json.dumps(doc))
    entry["dim_upoly"] -= 1
    entry["mirror_self"] = int(entry["mirror_self"])
    with pytest.raises(mg.LMGJSONError, match="stored mirror_self"):
        complex_from_json(json.dumps(doc))
    entry["mirror_self"] = bool(entry["mirror_self"])
    doc["top_count"] += 1
    with pytest.raises(mg.LMGJSONError, match="stored top_count"):
        complex_from_json(json.dumps(doc))
    doc["top_count"] -= 1
    del doc["Q"]
    with pytest.raises(mg.LMGJSONError, match="stored Q None"):
        complex_from_json(json.dumps(doc))
    doc["classes"] = []
    with pytest.raises(mg.LMGJSONError, match="no classes"):
        complex_from_json(json.dumps(doc))


def test_incomplete_incidence_is_rejected(complexes_q2):
    K = complexes_q2[(2, 2)]
    doc = json.loads(complex_to_json(K))
    full = doc["incidence"]
    assert len(full) == 20
    doc["incidence"] = full[:1]
    with pytest.raises(mg.LMGJSONError, match="incidence entries do not match"):
        complex_from_json(json.dumps(doc))
    doc["incidence"] = full + full[:1]
    with pytest.raises(mg.LMGJSONError, match="class %s: stored incidence"
                       % full[0][0]):
        complex_from_json(json.dumps(doc))


def test_incidence_target_is_checked(complexes_q2):
    K = complexes_q2[(2, 2)]
    doc = json.loads(complex_to_json(K))
    src, face, _ = doc["incidence"][0]
    assert len(face) == 2
    top = next(rec.class_id for rec in K.classes if rec.s == 1)
    for wrong in (top, "c0000000000000000"):
        doc["incidence"][0][2] = wrong
        with pytest.raises(mg.LMGJSONError,
                           match="class %s: face .* leads to no stored class "
                                 "with s = 2" % src):
            complex_from_json(json.dumps(doc))


def test_class_poset_dot(complexes_q2):
    K = complexes_q2[(3, 1)]
    dot = class_poset_dot(K)
    for rec in K.classes:
        assert rec.class_id in dot
    assert dot.count("->") == len({(s, d) for s, _, d in K.incidence})


def test_mirror_self_flag(complexes_q2):
    K = complexes_q2[(2, 2)]
    forms = {rec.canonical for rec in K.classes}
    for rec in K.classes:
        mirrored = mg.canonical_form(mg.mirror(rec.lmg))
        assert rec.mirror_self == (mirrored == rec.canonical)
        # the catalog is mirror-closed
        assert mirrored in forms
