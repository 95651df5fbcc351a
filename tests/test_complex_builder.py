import collections
import dataclasses
import gzip
import hashlib
import io
import json
import random
import re
from pathlib import Path

import pytest

from mck import complex_builder as cb
from mck import morse_graph as mg
from mck import perturbation as pt
from mck.cli import main
from mck.complex_builder import (
    MarkingSpec, ParameterError, ScopeError, betti0, build_complex,
    catalog_from_json, catalog_to_json, class_poset_dot, complex_dimension,
    complex_from_json, complex_rank, complex_to_json, enumerate_top_classes,
    euler_characteristic, morse_smale_report, q_polynomial)
from mck.twist_algebra import classify_circles

from conftest import Q2_SPLITS, Q3_SPLITS
from oracles import (
    cap_labelings, closure_by_delta, covers, enumerate_classes_direct,
    face_vertices, matchings, whole_catalog_json, whole_complex_json)
from test_perturbation import _first_q4_seeds


# ---------------------------------------------------------------------------
# enumeration
# ---------------------------------------------------------------------------

def test_q1_exactly_one_class():
    classes = enumerate_top_classes(2, 1, 1)
    assert len(classes) == 1
    g = classes[0]
    assert mg.validate(g) is None
    assert (g.p, g.q, g.r, len(g.levels)) == (2, 1, 1, 1)


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


def _scan_cases():
    """(p, q, r, marking) for every q <= 3 split under the markings all,
    p,0,r, 1,1,1 (with label 1 of each index fixed) and 0,q,0, where
    `check` accepts them."""
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
                yield p, q, r, marking


def test_cap_labelings_are_valid_by_construction():
    # enumeration canonicalizes capped connected matchings without
    # validating them, so each one must already be a valid graph; the 1,1,1
    # marking also fixes label 1 of each index.  Enumeration caps one
    # matching per relabeling orbit in one labeling per orbit of the atom's
    # automorphisms, and must still give the canonical forms of every
    # capping of the full scan, each once.
    built = 0
    for p, q, r, marking in _scan_cases():
        marked_s, fixed_s = cb._marked_saddle_sets(marking)
        forms = set()
        for atom in cb._one_level_atoms(p, q, r, matchings(range(1, q + 1))):
            for g in cap_labelings(atom, p, r, marking, marked_s, fixed_s, q):
                mg.validate(g)
                forms.add(mg.canonical_form(g))
                built += 1
        orbits = cb._orbit_matchings(q, marked_s)
        kept = []
        for atom in cb._one_level_atoms(p, q, r, orbits):
            for g in cb._cap_labelings(atom, p, r, marking, marked_s,
                                       fixed_s, q):
                mg.validate(g)
                kept.append(mg.canonical_form(g))
        assert len(kept) == len(forms) and set(kept) == forms, (
            p, q, r, marking)
        assert cb._top_forms(p, q, r, marking, orbits) == kept
    assert built == 24852


def test_orbit_scan_keeps_one_atom_per_tagged_code():
    # the orbit scan builds exactly the atoms that are first with their
    # tagged atom code in the full scan, in the same order
    for p, q, r, marking in _scan_cases():
        marked_s, fixed_s = cb._marked_saddle_sets(marking)

        def tagged(scan):
            return [(mg._atom_min_codes(atom, marked_s, fixed_s)[0], atom.edges)
                    for atom in cb._one_level_atoms(p, q, r, scan)]

        first = {}
        for code, edges in tagged(matchings(range(1, q + 1))):
            first.setdefault(code, edges)
        assert tagged(cb._orbit_matchings(q, marked_s)) == list(first.items()), (
            p, q, r, marking)


def test_orbit_counts_pinned():
    # one matching per orbit of the half-turns and of the permutations of
    # the unmarked saddles, out of (2q)! = 720 and 40,320
    assert {(q, m): len(cb._orbit_matchings(q, frozenset(range(1, m + 1))))
            for q, m in ((3, 3), (3, 1), (3, 0), (4, 4), (4, 1), (4, 0))} == {
        (3, 3): 120, (3, 1): 70, (3, 0): 34,
        (4, 4): 3000, (4, 1): 566, (4, 0): 182}


def test_scan_builds_each_tagged_atom_once(monkeypatch):
    # (3, 3, 2) all marked: 76 connected orbit representatives, where the
    # full scan builds and circle-traces all 592 connected atoms
    built = []
    plain = mg.Atom.of.__func__

    def counting(cls, saddles, edges):
        built.append(1)
        return plain(cls, saddles, edges)

    monkeypatch.setattr(mg.Atom, "of", classmethod(counting))
    assert len(enumerate_top_classes(3, 3, 2)) == 264
    assert len(built) == 76


def test_enumeration_deterministic():
    base = enumerate_top_classes(2, 2, 2)
    again = enumerate_top_classes(2, 2, 2)
    key = lambda gs: [mg.canonical_form(g) for g in gs]
    assert key(base) == key(again)


# ---------------------------------------------------------------------------
# building the complex
# ---------------------------------------------------------------------------

def test_q1_complex_has_no_incidence(complex_q1):
    K = complex_q1
    assert len(K.classes) == 1 and K.incidence == ()
    assert complex_dimension(K) == 0 and complex_rank(K) == 0


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="a class's stored graph is the cover split that "
                          "first reaches it, so the dump's bytes follow the "
                          "seed order: three shuffles, three digests "
                          "(ROADMAP item 1, canonical representatives)")
def test_dump_independent_of_seed_order():
    # (4, 3, 1) all marked: 426 classes and 1,836 entries in every order
    seeds = enumerate_top_classes(4, 3, 1)
    digests = set()
    for s in range(3):
        shuffled = list(seeds)
        random.Random(s).shuffle(shuffled)
        text = complex_to_json(build_complex(shuffled))
        digests.add(hashlib.sha256(text.encode()).hexdigest())
    assert len(digests) == 1


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
    q = 4 seeds and their mirrors, since the build reads each class's
    mirror off the closure and refuses a multi-level class whose mirror is
    not in it.  (Saddles only leave too few marked points at q <= 2.)"""
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
        seeds += [mg.mirror(g) for g in seeds]
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
    # markings, and every class there has a certified polytope dimension.
    # The writer matches the whole-document oracle on every job, the q = 4
    # closures (dart numbers up to 15, up to four atoms) among them.
    for name, seeds, K in _closure_jobs(complexes_q2, complexes_q3):
        same = complex_to_json(K) == complex_to_json(closure_by_delta(seeds))
        assert same, name
        _assert_polytope_dims(name, K)
        _three_ways(lambda fh: complex_to_json(K, fh), whole_complex_json(K))
    for (p, r), K in complexes_q3.items():
        _assert_polytope_dims("%d-3-%d-all" % (p, r), K)


def test_every_cover_split_is_valid(complexes_q3):
    # `split_level` does not validate its result and the build validates
    # only the splits it registers as classes, so the identity "every
    # resolution is valid" is checked here, on each (class, cover) split of
    # the q = 3 all-marked complexes and of (3, 3, 2) marked 0,3,0
    marking = MarkingSpec(marked=(0, 3, 0), fixed=(0, 0, 0))
    complexes = [*complexes_q3.values(),
                 build_complex(enumerate_top_classes(3, 3, 2, marking))]
    splits = 0
    for K in complexes:
        for rec in K.classes:
            for J1 in covers(rec.lmg.level_partition()):
                mg.validate(pt.delta(rec.lmg, J1))
                splits += 1
    assert splits == 7506


@pytest.mark.parametrize("field", ["caps", "cylinders"])
def test_invalid_resolution_caught_at_registration(field, tmp_path, capsys,
                                                   monkeypatch):
    # a split_level that loses its last cap or cylinder yields graphs whose
    # encodings no valid class has, so the build registers one and its
    # validation stops the run with exit 4
    seeds = enumerate_top_classes(4, 3, 1)
    cat = tmp_path / "cat.json"
    cat.write_text(catalog_to_json(seeds, 4, 3, 1,
                                   MarkingSpec.all_marked(4, 3, 1)))
    raw = pt.split_level

    def lossy(g, level, lower):
        h = raw(g, level, lower)
        return dataclasses.replace(h, **{field: getattr(h, field)[:-1]})

    monkeypatch.setattr(pt, "split_level", lossy)
    with pytest.raises(mg.InvariantViolation,
                       match="resolution produced an invalid graph") as info:
        build_complex(seeds)
    # the message names the class that was split, a seed here, and the face
    found = re.match(r"class (c[0-9a-f]{16}): face \([0-9,|]+\): "
                     r"resolution produced", str(info.value))
    assert found and found.group(1) in {
        cb.class_id(mg.form_bytes(mg.canonicalize(g)[0])) for g in seeds}
    code = main(["complex", "--input", str(cat),
                 "--out", str(tmp_path / "K.json")])
    _, err = capsys.readouterr()
    assert code == 4 and "invariant violation: %s" % found.group(0) in err
    assert not (tmp_path / "K.json").exists()


def test_no_representative_split_twice(complexes_q2, complexes_q3,
                                      monkeypatch):
    # the cover memo, and the covers read off face tables, leave no
    # (representative, level, lower block) split twice on any q <= 3
    # closure job, and the q = 3 jobs split fewer (class, cover) pairs than
    # they have
    raw = pt.split_level
    splits = []

    def spied(g, level, lower):
        splits.append((id(g), level, frozenset(lower)))
        return raw(g, level, lower)

    monkeypatch.setattr(pt, "split_level", spied)
    jobs, q3 = 0, collections.Counter()
    for name, seeds, K in _closure_jobs(complexes_q2, complexes_q3):
        if K.q > 3:
            break
        splits.clear()
        held = build_complex(seeds)  # its representatives keep their ids
        pairs = sum(len(covers(rec.lmg.level_partition()))
                    for rec in held.classes)
        assert len(set(splits)) == len(splits) <= pairs, name
        if K.q == 3:
            q3.update(splits=len(splits), pairs=pairs)
        jobs += 1
    assert jobs == 28 and q3["splits"] < q3["pairs"]


def test_split_table_serves_the_delta_split(complexes_q2, complexes_q3):
    # a skeleton table that meets the classes of a complex in their stored
    # order, one entry per distinct (atoms, levels, cylinders) as the build
    # gives it, serves every (class, cover) pair of a skeleton after its
    # first one from the entry's splits; each split it gives, served or
    # not, is `delta`'s, on every q <= 3 complex under the markings all,
    # p,0,r, 1,1,1 and 0,3,0 (0,q,0 leaves too few marked points at q <= 2).
    # 8,854 of the 10,664 pairs are served
    jobs = {"%d-3-%d-all" % pr: K for pr, K in complexes_q3.items()}
    jobs.update((name, K) for name, _, K in _closure_jobs(complexes_q2,
                                                           complexes_q3)
                if K.q <= 3)
    served = pairs = 0
    for name, K in jobs.items():
        table = mg.SkeletonTable()
        for rec in K.classes:
            g = rec.lmg
            skeleton = table.skeleton(g)
            for J1 in covers(g.level_partition()):
                served += ("split", J1) in skeleton._kept
                h, target = cb._split(table, skeleton, g, J1)
                assert h == pt.delta(g, J1), (name, rec.class_id, J1)
                assert target is table.skeleton(h), (name, rec.class_id, J1)
                pairs += 1
    assert (len(jobs), served, pairs) == (31, 8854, 10664)


def test_circle_map_missing_a_cap_circle_exits_4(tmp_path, capsys,
                                                 monkeypatch):
    # a split table whose circle maps each lost one entry leaves a cap of
    # the next class served from the table with no circle: the build names
    # the class and face, and `mck complex` exits 4
    seeds = enumerate_top_classes(4, 3, 1)
    cat = tmp_path / "cat.json"
    cat.write_text(catalog_to_json(seeds, 4, 3, 1,
                                   MarkingSpec.all_marked(4, 3, 1)))
    raw = cb._split

    def dropping(table, skeleton, g, cover):
        missed = ("split", cover) not in skeleton._kept
        split = raw(table, skeleton, g, cover)
        if missed:
            skeleton._kept[("split", cover)][1].popitem()
        return split

    monkeypatch.setattr(cb, "_split", dropping)
    with pytest.raises(mg.InvariantViolation) as info:
        build_complex(seeds)
    assert re.fullmatch(r"class c[0-9a-f]{16}: face \([0-9,|]+\): cap circle "
                        r"\([0-9]+, [0-9]+\) has no image in the split of its "
                        r"skeleton", str(info.value))
    _assert_exit_4_naming(info.value, cat, tmp_path, capsys)


def test_rotated_cover_relabeling_exits_4(tmp_path, capsys, monkeypatch):
    # the relabeling of the first split that registers a three-level class
    # is rotated (saddle v read as v + 1); a face table later reads that
    # cover off another chain and finds another relabeling, so the build
    # stops and names the class, and `mck complex` exits 4
    marking = MarkingSpec(marked=(4, 0, 1), fixed=(0, 0, 0))
    seeds = enumerate_top_classes(4, 3, 1, marking)
    cat = tmp_path / "cat.json"
    cat.write_text(catalog_to_json(seeds, 4, 3, 1, marking))
    raw = mg.saddle_positions
    last, done = [None], []   # a split that registers a class is met twice

    def rotated(g, framings):
        pos = raw(g, framings)
        again, last[0] = last[0] is g, g
        if again and len(g.levels) == 3 and not done:
            done.append(g)
            return {v: pos[v % g.q + 1] for v in pos}
        return pos

    monkeypatch.setattr(mg, "saddle_positions", rotated)
    with pytest.raises(mg.InvariantViolation) as info:
        build_complex(seeds)
    assert re.fullmatch(
        r"class c[0-9a-f]{16}: its cover \([0-9|]+\) reaches class "
        r"c[0-9a-f]{16} by \[[0-9, ]+\], but the faces of class c[0-9a-f]{16} "
        r"give class c[0-9a-f]{16} by \[[0-9, ]+\]", str(info.value))
    last[0] = None
    done.clear()
    _assert_exit_4_naming(info.value, cat, tmp_path, capsys)
    # the cover's class, its target, the class whose faces read it and
    # their target: classes with 2, 3, 1 and 3 levels
    monkeypatch.setattr(mg, "saddle_positions", raw)
    levels = {rec.class_id: rec.s for rec in build_complex(seeds).classes}
    named = re.findall(r"c[0-9a-f]{16}", str(info.value))
    assert [levels[cid] for cid in named] == [2, 3, 1, 3]


def test_relabeled_face_that_is_no_cover_exits_4(tmp_path, capsys,
                                                 monkeypatch):
    # a relabeling that sends a deeper face to a face that is no cover of
    # the class it is read in is a failed identity, not a parameter error:
    # the build names the class and face, and `mck complex` exits 4.  The
    # saddles are unmarked, so relabelings move them and the closure reads
    # faces through `_relabel` (with every saddle marked it never does)
    marking = MarkingSpec(marked=(4, 0, 1), fixed=(0, 0, 0))
    seeds = enumerate_top_classes(4, 3, 1, marking)
    cat = tmp_path / "cat.json"
    cat.write_text(catalog_to_json(seeds, 4, 3, 1, marking))
    raw = cb._relabel
    done = []

    def reversed_once(face, rho):
        out = raw(face, rho)
        if len(out) == 3 and not done:
            done.append(out)
            return out[::-1]
        return out

    monkeypatch.setattr(cb, "_relabel", reversed_once)
    with pytest.raises(mg.InvariantViolation) as info:
        build_complex(seeds)
    assert re.fullmatch(r"class c[0-9a-f]{16}: face \(([0-9]\|){2}[0-9]\): "
                        r"\(([0-9]\|){2}[0-9]\) is not a cover of "
                        r"\([0-9,|]+\)", str(info.value))
    done.clear()
    _assert_exit_4_naming(info.value, cat, tmp_path, capsys)


def _assert_exit_4_naming(exc, cat, tmp_path, capsys):
    """`mck complex` on `cat` exits 4 with `exc`'s message and no
    traceback, and writes no dump."""
    code = main(["complex", "--input", str(cat),
                 "--out", str(tmp_path / "K.json")])
    out, err = capsys.readouterr()
    assert code == 4 and out == "" and "Traceback" not in err
    assert err == "invariant violation: %s\n" % exc
    assert not (tmp_path / "K.json").exists()


def test_index_stratification(complexes_q2):
    for K in complexes_q2.values():
        recs = {rec.class_id: rec for rec in K.classes}
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
        for src, pairs in by_src.items():
            by_dst = {}
            for face, dst in pairs:
                by_dst.setdefault(dst, []).append(face)
            for faces in by_dst.values():
                for f1 in faces:
                    for f2 in faces:
                        if f1 == f2:
                            continue
                        assert not (frozenset(face_vertices(f1))
                                    & frozenset(face_vertices(f2)))


def test_scope_refusal_on_multiple_fixed_points():
    marking = MarkingSpec(marked=(2, 2, 2), fixed=(2, 0, 0))
    seeds = enumerate_top_classes(2, 2, 2, marking)
    with pytest.raises(ScopeError):
        build_complex(seeds)


# (p, q, r), marked, fixed -> class count, sha256 of complex_to_json
FIXED_POINT_PIN = {
    ((2, 1, 1), "all", (1, 1, 1)): (
        1, "6186f7332a940cab117bdc6884865a96f0d9412684e98616ecc89346ee75d8e8"),
    ((3, 2, 1), "all", (1, 1, 1)): (
        12, "3fc07255cd5cc97e3bfee7896258c90a62b2fc5b057ce79a6a78631a0a8ffbdf"),
    ((2, 2, 2), "all", (1, 1, 1)): (
        20, "68d049c5e5992fb9e6db4ab6e36639bfd9c2931c878ef24b5fc7e4ab7805752a"),
    ((1, 2, 3), "all", (1, 1, 1)): (
        12, "8cc6d6b5b5182243484f7f3220345588acdb99e5be612eecdc7ab7c64dc8b811"),
    ((4, 3, 1), (1, 3, 1), (0, 1, 0)): (
        95, "ef9dd64bdddcc425c68e8182d39dcb02840ded2c966903878cb2991713c3d2dc"),
    ((3, 3, 2), (3, 0, 2), (1, 0, 1)): (
        167, "609d0f8971f6614276af94e7b17cad1ca932b106ffd634f892a396fe95107ba9"),
}


@pytest.mark.parametrize("pqr, marked, fixed", sorted(FIXED_POINT_PIN, key=str))
def test_fixed_point_complexes_pinned(pqr, marked, fixed):
    # the stored goldens fix no point; these complexes fix up to three, the
    # most the builder allows, and every core still counts in nu0
    marking = MarkingSpec(marked=pqr if marked == "all" else marked,
                          fixed=fixed)
    K = build_complex(enumerate_top_classes(*pqr, marking))
    count, digest = FIXED_POINT_PIN[(pqr, marked, fixed)]
    assert len(K.classes) == count
    assert K.marking == marking
    for rec in K.classes:
        g = rec.lmg
        assert classify_circles(g) == rec.n == len(g.cylinders) == len(g.atoms) - 1
    text = complex_to_json(K)
    assert all((e["c"], e["e"], e["nu0"], e["d"], e["free_exact"])
               == (0, 0, e["n"], e["n"], True)
               for e in json.loads(text)["classes"])
    assert hashlib.sha256(text.encode()).hexdigest() == digest


def q5_seed():
    """A q = 5 one-level seed: the first connected atom of the full scan,
    a sphere atom with 1 lower and 6 upper circles, capped once."""
    atom = next(cb._one_level_atoms(1, 5, 6, matchings(range(1, 6))))
    marking = MarkingSpec.all_marked(1, 5, 6)
    g = next(cap_labelings(atom, 1, 6, marking,
                           *cb._marked_saddle_sets(marking), 5))
    mg.validate(g)
    return g


def test_q_beyond_the_certificate_scope_refused(complex_q1, tmp_path, capsys):
    # the polytope certificate is proved for q <= MAX_TOP_Q, so no complex
    # beyond it is built or reloaded: a q = 5 seed, in the library and
    # through `mck complex`, and a dump whose params say q = 5 exit 2 with
    # nothing written
    seed = q5_seed()
    assert cb.MAX_TOP_Q == 4 and (seed.p, seed.q, seed.r) == (1, 5, 6)
    with pytest.raises(ParameterError, match="q = 5"):
        build_complex([seed])
    cat, out_file = tmp_path / "cat.json", tmp_path / "out"
    cat.write_text(catalog_to_json([seed], 1, 5, 6,
                                   MarkingSpec.all_marked(1, 5, 6)))
    code = main(["complex", "--input", str(cat), "--out", str(out_file)])
    out, err = capsys.readouterr()
    assert code == 2 and out == "" and "q = 5" in err
    assert not out_file.exists()

    doc = json.loads(complex_to_json(complex_q1))
    doc["params"].update(p=6, q=5, r=1, marked=[6, 5, 1])
    with pytest.raises(ParameterError, match="q = 5"):
        complex_from_json(doc)
    dump = tmp_path / "K.json"
    dump.write_text(json.dumps(doc))
    code = main(["export-dot", "--what", "classes", "--input", str(dump),
                 "--out", str(out_file)])
    out, err = capsys.readouterr()
    assert code == 2 and out == "" and "q = 5" in err
    assert not out_file.exists()


def test_seeds_mixing_markings_refused():
    # the marking is the first seed's: all-marked (2, 2, 2) seeds with the
    # 0,2,2 ones used to build 31 classes and report chi = -15 as agreeing
    partial = MarkingSpec(marked=(0, 2, 2), fixed=(0, 0, 0))
    seeds = enumerate_top_classes(2, 2, 2)
    with pytest.raises(ParameterError, match="seed marking differs"):
        build_complex(seeds + enumerate_top_classes(2, 2, 2, partial))
    # equal counts, but minimum 2 marked where the marking marks minimum 1
    g = enumerate_top_classes(2, 2, 2, MarkingSpec(marked=(1, 2, 2),
                                                   fixed=(0, 0, 0)))[0]
    caps = tuple(dataclasses.replace(c, marked=(c.label == 2))
                 if c.kind == "min" else c for c in g.caps)
    with pytest.raises(ParameterError, match="seed marking differs"):
        build_complex([dataclasses.replace(g, caps=caps)])


def test_seeds_with_two_marked_points_refused():
    # a reloaded dump needs more than 2 marked critical points, so the
    # builder refuses seeds with fewer rather than write such a dump
    g = enumerate_top_classes(3, 2, 1)[0]
    caps = tuple(dataclasses.replace(c, marked=False) for c in g.caps)
    bare = dataclasses.replace(g, caps=caps, marked_saddles=frozenset())
    with pytest.raises(ParameterError, match="more than 2 marked"):
        build_complex([bare])


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
        assert chi.agree


def test_q_polynomial_q1(complex_q1):
    assert q_polynomial(complex_q1) == [complex_q1.top_count]


def test_q_polynomial_torus_contribution(complexes_q2):
    K = complexes_q2[(2, 2)]
    # every s = 2 class has n = 1 and trivial symmetry: contributes 1 + t
    for rec in K.classes:
        if rec.s == 2:
            assert rec.n == 1 and rec.gamma_order == 1
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
            if rec.n == 0:
                assert rec.gamma_order == 1


def test_one_level_classes_have_no_cylinders(complexes_q2):
    for K in complexes_q2.values():
        for rec in K.classes:
            if rec.s == 1:
                assert rec.n == 0 and len(rec.lmg.atoms) == 1


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def test_catalog_roundtrip():
    classes = enumerate_top_classes(3, 2, 1)
    text = catalog_to_json(classes, 3, 2, 1, MarkingSpec.all_marked(3, 2, 1))
    back, p, q, r, marking = catalog_from_json(json.loads(text))
    assert (p, q, r) == (3, 2, 1)
    assert ([mg.canonical_form(g) for g in back]
            == [mg.canonical_form(g) for g in classes])
    assert catalog_to_json(back, p, q, r, marking) == text


def _three_ways(serialize, oracle):
    """The text `serialize(None)` returns, the text `serialize(fh)` writes
    into a StringIO, and the oracle's text, which must all be equal."""
    fh = io.StringIO()
    assert serialize(fh) is None
    text = serialize(None)
    assert text == fh.getvalue() == oracle
    return text


def test_streamed_dump_is_the_whole_document():
    # every q <= 2 complex in the builder's scope, and the four stored
    # bench dumps after a reload; q = 1 dumps have an empty incidence list
    cases = [build_complex(enumerate_top_classes(p, q, r, marking))
             for p, q, r, marking in _scan_cases()
             if q <= 2 and marking.builder_scope_ok()]
    bench = Path(__file__).resolve().parents[1] / "bench" / "dumps"
    stored = [gzip.decompress(path.read_bytes()).decode()
              for path in sorted(bench.glob("*.json.gz"))]
    cases += [complex_from_json(text) for text in stored]
    assert len(stored) == 4 and len(cases) == 19
    assert sum(not K.incidence for K in cases) == 6
    texts = [_three_ways(lambda fh: complex_to_json(K, fh),
                         whole_complex_json(K)) for K in cases]
    assert texts[-4:] == stored


def test_streamed_catalog_is_the_whole_document():
    # every q <= 3 catalog under the markings all, p,0,r, 1,1,1 and 0,q,0
    cases = list(_scan_cases())
    assert len(cases) == 31
    for p, q, r, marking in cases:
        classes = enumerate_top_classes(p, q, r, marking)
        _three_ways(lambda fh: catalog_to_json(classes, p, q, r, marking, fh),
                    whole_catalog_json(classes, p, q, r, marking))


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


def test_swapped_targets_refused_by_the_mirror_check(tmp_path, capsys):
    # swapping the targets of two entries whose targets have one level
    # count keeps every face list and level count, so only the mirror map
    # can see it: in the (2,2,2) all-marked dump it catches 50 of the 160
    # swaps that change the incidence, and `mck euler` exits 3 on the first
    K = build_complex(enumerate_top_classes(2, 2, 2))
    doc = json.loads(complex_to_json(K))
    entries = doc["incidence"]
    s_of = {rec.class_id: rec.s for rec in K.classes}
    caught = []
    for i in range(len(entries)):
        for j in range(i + 1, len(entries)):
            a, b = entries[i][2], entries[j][2]
            if a == b or s_of[a] != s_of[b]:
                continue
            swapped = list(K.incidence)
            swapped[i] = (*K.incidence[i][:2], b)
            swapped[j] = (*K.incidence[j][:2], a)
            cb._check_incidence(K.classes, swapped)
            try:
                cb._check_mirrors(K.classes, swapped)
            except mg.LMGJSONError:
                caught.append((i, j))
    assert K.incidence == tuple(cb._incidence_entry(*e, {}) for e in entries)
    assert len(caught) == 50
    i, j = caught[0]
    entries[i][2], entries[j][2] = entries[j][2], entries[i][2]
    dump = tmp_path / "K.json"
    dump.write_text(json.dumps(doc))
    code = main(["euler", "--input", str(dump)])
    out, err = capsys.readouterr()
    assert code == 3 and out == ""
    assert re.search(r"class c[0-9a-f]{16}: the mirrors of its entries' "
                     r"targets are not the targets of its mirror", err)


def test_class_poset_dot(complexes_q2):
    K = complexes_q2[(3, 1)]
    dot = class_poset_dot(K)
    for rec in K.classes:
        assert rec.class_id in dot
    assert dot.count("->") == len({(s, d) for s, _, d in K.incidence})


def test_mirror_self_flag(complex_q1, complexes_q2):
    # the build frames only the top classes' mirrors and reads the others
    # off their face tables; every class's mirror id and flag equal those of
    # its framed mirror, on the q <= 2 complexes and on (4,3,1), (3,3,2) and
    # (2,3,3) under four markings, seeds shuffled.  The one mirror outside
    # its complex is that of a (3,3,2) 1,1,1 top class (ROADMAP item 1)
    rng = random.Random(5)
    cases = [complex_q1, *complexes_q2.values()]
    for p, r in ((4, 1), (3, 2), (2, 3)):
        for marked in ((p, 3, r), (p, 0, r), (1, 1, 1), (0, 3, 0)):
            seeds = enumerate_top_classes(
                p, 3, r, MarkingSpec(marked=marked, fixed=(0, 0, 0)))
            rng.shuffle(seeds)
            cases.append(build_complex(seeds))
    outside = []
    for K in cases:
        ids = {rec.class_id for rec in K.classes}
        for rec in K.classes:
            framed = cb.class_id(mg.canonical_form(mg.mirror(rec.lmg)))
            assert rec.mirror == framed, rec.class_id
            assert rec.mirror_self == (framed == rec.class_id)
            if framed not in ids:
                outside.append((rec.class_id, rec.s))
    assert len(cases) == 16
    assert outside == [("c146f13c1679b23d2", 1)]


def test_covers_giving_two_mirrors_refused(monkeypatch):
    # one face entry of a chiral top class is sent to another two-level
    # class before the mirrors are read off the face tables: that class
    # then gets one mirror from its own faces and another through the
    # wrong entry
    raw = cb._mirror_ids

    def corrupted(records, skeleton_of, known, saddle_at, incidence, tops):
        t = next(t for t, rec in enumerate(records[:len(tops)])
                 if cb.class_id(mg.canonical_form(mg.mirror(rec.lmg)))
                 != rec.class_id)
        start = tops[t][0]
        src, face, target = incidence[start]
        other = next(rec.class_id for rec in records
                     if rec.s == 2 and rec.class_id != target)
        incidence[start] = (src, face, other)
        return raw(records, skeleton_of, known, saddle_at, incidence, tops)

    monkeypatch.setattr(cb, "_mirror_ids", corrupted)
    with pytest.raises(mg.InvariantViolation,
                       match=r"class c[0-9a-f]{16}: its faces give the "
                             r"mirrors c[0-9a-f]{16} and c[0-9a-f]{16}"):
        build_complex(enumerate_top_classes(2, 2, 2))


def test_broken_mirror_involution_refused(monkeypatch):
    # the first chiral top class of (2,2,2) is framed as its own mirror:
    # its faces then agree with one another, but its true mirror's mirror
    # is no longer that mirror itself
    seeds = enumerate_top_classes(2, 2, 2)
    chiral = next(g for g in seeds if mg.canonical_form(mg.mirror(g))
                  != mg.canonical_form(g))
    raw = mg.canonicalize_mirror
    monkeypatch.setattr(mg, "canonicalize_mirror", lambda g, table=None: (
        mg.canonicalize(g, table) if g is chiral else raw(g, table)))
    with pytest.raises(mg.InvariantViolation,
                       match=r"class c[0-9a-f]{16}: the mirror of its mirror "
                             r"c[0-9a-f]{16} is not itself"):
        build_complex(seeds)


def test_catalog_without_a_mirror_exits_4(tmp_path, capsys):
    # the (4,3,1) all-marked catalog cut to its chiral entry 72: the
    # mirror of that top class is not in the catalog, so neither are the
    # mirrors of its faces, and `mck complex` exits 4 naming the first of
    # them, with no traceback and no dump
    classes = enumerate_top_classes(4, 3, 1)
    cat, dump = tmp_path / "cat.json", tmp_path / "K.json"
    cat.write_text(catalog_to_json(classes[72:73], 4, 3, 1,
                                   MarkingSpec.all_marked(4, 3, 1)))
    code = main(["complex", "--input", str(cat), "--out", str(dump)])
    out, err = capsys.readouterr()
    assert code == 4 and out == "" and "Traceback" not in err
    assert ("class cae277493ba361233: its mirror is not a class of the "
            "complex" in err)
    assert not dump.exists()
