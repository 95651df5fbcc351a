"""The benchmark's per-layer tracer wraps library functions by module and
attribute name; every one of those names must stay resolvable, and the calls
the library makes must still pass through the wrapped names."""

import ast
import dataclasses
import gzip
import importlib.util
import random
import sys
import weakref
from pathlib import Path

import pytest

import mck.cli  # noqa: F401  (imports every module the tracer wraps)
from mck import complex_builder as cb
from mck import morse_graph as mg
from mck import perturbation as pt
from mck import twist_algebra as ta

import oracles

BENCH = Path(__file__).resolve().parent.parent / "bench"


def _load_bench(name):
    """The module `bench/<name>.py`, loaded from its file."""
    spec = importlib.util.spec_from_file_location("bench_" + name,
                                                  BENCH / (name + ".py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _traced(build):
    """`build()` run under the tracer, and the pass's metric values."""
    tracer = _load_bench("tracing").Tracer()
    tracer.install()
    try:
        result = build()
    finally:
        tracer.uninstall()
    return result, {name: value for name, (value, _) in tracer.metrics().items()}


def test_every_traced_name_resolves_to_a_callable():
    wrapped = _load_bench("tracing").WRAPPED
    assert wrapped
    for module, attr, metric in wrapped:
        assert module in sys.modules, metric
        assert callable(getattr(sys.modules[module], attr, None)), metric


def test_cli_writes_each_file_through_its_traced_serializer(tmp_path, capsys):
    # `enumerate --out` and `complex --out` write their files in one call
    # of the traced serializer each, which encodes and writes every entry,
    # so the tracer times the writing too
    cat, dump = tmp_path / "cat.json", tmp_path / "K.json"
    for argv, want in (
            (["enumerate", "--p", "2", "--q", "2", "--r", "2", "--out",
              str(cat)], (1, 0)),
            (["complex", "--input", str(cat), "--out", str(dump)], (0, 1))):
        code, metrics = _traced(lambda: mck.cli.main(argv))
        calls = (metrics["complex_builder.catalog_to_json.calls"],
                 metrics["complex_builder.complex_to_json.calls"])
        assert code == 0 and calls == want
    capsys.readouterr()
    assert cat.stat().st_size and dump.stat().st_size


@pytest.fixture(scope="module", params=[(2, 2, 2), (0, 2, 1)],
                ids=["all-marked", "minima-unmarked"])
def traced_build(request):
    """Build and reload a (2, 2, 2) complex under the tracer; with the
    minima unmarked some groups are not trivial."""
    seeds = cb.enumerate_top_classes(
        2, 2, 2, cb.MarkingSpec(marked=request.param, fixed=(0, 0, 0)))

    def build_and_reload():
        K = cb.build_complex(seeds)
        cb.complex_from_json(cb.complex_to_json(K))
        return K

    K, metrics = _traced(build_and_reload)
    assert len(K.classes) > 1
    return K, metrics


def test_tracer_sees_one_group_per_handle_record(traced_build):
    # each handle record computes its group once, through
    # morse_graph.automorphisms
    K, metrics = traced_build
    assert metrics["morse_graph.automorphisms.calls"] == 2 * len(K.classes)
    assert (metrics["morse_graph.automorphisms.group_order_sum"]
            == 2 * sum(rec.gamma_order for rec in K.classes))


def _closure_seeds():
    """The seed catalogs of closure_sweep's eight complexes, each in
    catalog order."""
    seeds = []
    for p, q, r, marked in _load_bench("workloads").CLOSURE_JOBS:
        marking = None if marked == "all" else cb.MarkingSpec(
            marked=tuple(int(x) for x in marked.split(",")), fixed=(0, 0, 0))
        seeds.append(cb.enumerate_top_classes(p, q, r, marking))
    assert len(seeds) == 8
    return seeds


def test_one_mirror_framing_per_top_class(monkeypatch):
    # closure_sweep's eight complexes: the build frames the mirror of each
    # of the 230 top classes and reads the other 618 classes' mirrors off
    # the top classes' face tables; the mirrors are framed without building
    # a mirror graph, by `canonicalize_mirror`, which the tracer does not
    # wrap
    seeds = _closure_seeds()
    framed = []
    raw = mg.canonicalize_mirror

    def counted(g, table=None):
        framed.append(g)
        return raw(g, table)

    monkeypatch.setattr(mg, "canonicalize_mirror", counted)
    complexes = [cb.build_complex(s) for s in seeds]
    assert sum(len(K.classes) for K in complexes) == 848
    assert sum(K.top_count for K in complexes) == 230
    assert len(framed) == 230


def _skeleton(g):
    """A class's graph without its caps, as `handle_record` keys it."""
    return g.atoms, g.levels, g.cylinders


def test_tracer_sees_one_elimination_per_skeleton(traced_build):
    # classes that differ only in their caps share a homology model, one
    # rref per skeleton in the build and again in the reload: 14 for 20
    # classes all marked, 14 for 11 with the minima unmarked; no square
    # solves
    K, metrics = traced_build
    assert len({_skeleton(rec.lmg) for rec in K.classes}) == 7
    assert metrics["linalg.rref.calls"] == 14
    assert metrics["linalg.solve_square.calls"] == 0


@pytest.fixture(scope="module", params=["build", "reload"])
def skeleton_run(request):
    """closure_sweep's eight builds, seeds in catalog order, or the reloads
    of the four stored dumps: the complexes, the number of
    `ta.homology_model` calls made and the (graph, model) pair that each
    handle record passed to `ta.check_stab_action`."""
    if request.param == "build":
        operate, inputs = cb.build_complex, _closure_seeds()
    else:
        operate = cb.complex_from_json
        inputs = [gzip.decompress(path.read_bytes()).decode()
                  for path in sorted((BENCH / "dumps").glob("*.json.gz"))]
    made, used = [], []
    raw_model, raw_check = ta.homology_model, ta.check_stab_action

    def counted(g):
        made.append(g)
        return raw_model(g)

    def kept(g, model, autos):
        used.append((g, model))
        return raw_check(g, model, autos)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ta, "homology_model", counted)
        mp.setattr(ta, "check_stab_action", kept)
        complexes = [operate(x) for x in inputs]
    return request.param, complexes, len(made), used


def test_one_homology_model_per_skeleton(skeleton_run):
    # 848 classes in 220 skeletons, 1,804 in 314; a table coarser than
    # (atoms, levels, cylinders) makes fewer models and skips the
    # certificates of every skeleton it confuses
    run, complexes, made, used = skeleton_run
    classes, skeletons = {"build": (848, 220), "reload": (1804, 314)}[run]
    assert sum(len(K.classes) for K in complexes) == len(used) == classes
    assert sum(len({_skeleton(rec.lmg) for rec in K.classes})
               for K in complexes) == made == skeletons


def test_shared_homology_models_equal_fresh_ones(skeleton_run):
    # every handle record's model and polytope dimension, read off the
    # complex's table, are those its own graph gives
    _, complexes, _, used = skeleton_run
    for g, model in used:
        assert model == ta.homology_model(g)
    for K in complexes:
        for rec in K.classes:
            g = rec.lmg
            assert rec.dim_upoly == ta.u_polytope(g, ta.homology_model(g))


def test_records_through_one_table_equal_fresh_ones(skeleton_run):
    # the classes in a shuffled order through one table give, field by
    # field, the records of a fresh table per class and the complex's own
    _, complexes, _, _ = skeleton_run
    for K in complexes:
        graphs = [rec.lmg for rec in K.classes]
        random.Random(len(graphs)).shuffle(graphs)
        stored = {rec.class_id: rec for rec in K.classes}
        table = mg.SkeletonTable()
        for g in graphs:
            enc, framings = mg.canonicalize(g)
            mirror = mg.canonicalize_mirror(g)[0]
            shared = cb.handle_record(g, enc, framings, mirror, table)
            fresh = cb.handle_record(g, enc, framings, mirror,
                                     mg.SkeletonTable())
            for field in dataclasses.fields(cb.HandleRecord):
                name = field.name
                assert (getattr(shared, name) == getattr(fresh, name)
                        == getattr(stored[shared.class_id], name)), name


def test_tracer_sees_one_capping_per_tagged_atom():
    # (3, 3, 2) all marked has 22 tagged atom codes with 3 lower and 2 upper
    # circles; no automorphism of them fixes every saddle but the identity,
    # so each of their 3! * 2! labelings is an orbit of its own and is
    # capped once, one canonical form each
    _, calls = _traced(lambda: cb.enumerate_top_classes(3, 3, 2))
    assert calls["morse_graph.canonical_form.calls"] == 22 * 6 * 2 == 264


@pytest.mark.parametrize("p, q, r, marked, forms", [
    (4, 3, 1, (0, 3, 0), 5),      # 120 forms at the full labeling scan
    (3, 3, 2, (1, 1, 1), 66),     # 144
    (3, 3, 2, (3, 0, 2), 44),     # 60
])
def test_tracer_sees_one_canonical_form_per_class(p, q, r, marked, forms):
    # one capping per labeling orbit: enumeration canonicalizes each class
    # it emits once, and nothing else
    marking = cb.MarkingSpec(marked=marked, fixed=(0, 0, 0))
    classes, calls = _traced(lambda: cb.enumerate_top_classes(p, q, r, marking))
    assert calls["morse_graph.canonical_form.calls"] == len(classes) == forms


@pytest.fixture(scope="module")
def traced_cover_build():
    """Build the (4, 3, 1) complex with the saddles unmarked under the
    tracer."""
    seeds = cb.enumerate_top_classes(
        4, 3, 1, cb.MarkingSpec(marked=(4, 0, 1), fixed=(0, 0, 0)))
    return _traced(lambda: cb.build_complex(seeds))


def _covers(K):
    return sum(len(oracles.covers(rec.lmg.level_partition()))
               for rec in K.classes)


def _traced_with_pairs(seeds):
    """`build_complex(seeds)` under the tracer, the pass's metric values,
    and the (class, cover) pairs the build resolves: its framing passes
    (`canonicalize`), one per seed and one per pair."""
    passes = [0]
    raw = mg.canonicalize

    def counted(g, table=None):
        passes[0] += 1
        return raw(g, table)

    mg.canonicalize = counted
    try:
        K, calls = _traced(lambda: cb.build_complex(seeds))
    finally:
        mg.canonicalize = raw
    return K, calls, passes[0] - len(seeds)


def test_tracer_sees_one_split_per_class_and_cover():
    # closure over covers: the build resolves a class along each of its
    # hyperfaces at most once, reads the covers whose trivial-group target
    # an earlier face table names off that table (30 of the 186 at
    # (4, 3, 1)), and composes the deeper faces; the class and incidence
    # counts are those of resolving every face.  A pair whose skeleton was
    # split along that cover before is served from the build's split
    # table, so `delta` and `split_level` run once per (skeleton, cover) of
    # the representatives met: how many depends on which graphs become
    # representatives, so on the seed order (catalog order, then three
    # shuffles of it).  The catalog's 66 (3, 3, 2) entries lie in 64
    # classes (ROADMAP item 1)
    for pqr, marked, entries, pairs, covers, misses, counts in (
            ((4, 3, 1), (4, 0, 1), 20, 156, 186, (22, 24, 24, 24),
             (71, 306, 20)),
            ((3, 3, 2), (1, 1, 1), 66, 551, 638, (123, 138, 141, 134),
             (267, 1022, 64))):
        seeds = cb.enumerate_top_classes(
            *pqr, cb.MarkingSpec(marked=marked, fixed=(0, 0, 0)))
        assert len(seeds) == entries
        got = []
        for order in (None, 0, 1, 2):
            shuffled = list(seeds)
            if order is not None:
                random.Random(order).shuffle(shuffled)
            K, calls, resolved = _traced_with_pairs(shuffled)
            assert resolved == pairs < _covers(K) == covers, pqr
            assert (len(K.classes), len(K.incidence), K.top_count) == counts
            assert (calls["perturbation.delta.calls"]
                    == calls["perturbation.split_level.calls"])
            got.append(calls["perturbation.split_level.calls"])
        assert tuple(got) == misses, pqr


def test_tracer_sees_one_validation_per_class(traced_cover_build):
    # the build validates its 20 seeds and the 51 splits it registers as
    # new classes, not the other 105 of its 156 cover splits
    K, calls = traced_cover_build
    assert calls["morse_graph.validate.calls"] == len(K.classes) == 71


def test_tracer_sees_one_plan_per_level_partition(traced_cover_build):
    # the faces of a level partition, their chain predecessors and keys are
    # listed once per distinct partition, not once per class
    K, calls = traced_cover_build
    partitions = {rec.lmg.level_partition() for rec in K.classes}
    assert calls["permutohedron.refinements.calls"] == len(partitions) == 13


def test_reload_lists_faces_once_per_level_partition(monkeypatch):
    # the face-list check of a reload asks `refinements` once per distinct
    # level partition of the stored classes, not once per class
    text = gzip.decompress(
        (BENCH / "dumps" / "4-3-1-all.json.gz").read_bytes()).decode()
    asked = []
    raw = cb.refinements

    def counted(J):
        asked.append(J)
        return raw(J)

    monkeypatch.setattr(cb, "refinements", counted)
    K = cb.complex_from_json(text)
    partitions = {rec.lmg.level_partition() for rec in K.classes}
    assert (len(K.classes), len(asked), len(partitions)) == (426, 13, 13)


def test_one_atom_code_computation_per_distinct_atom(monkeypatch):
    # each atom keeps its codes per (marked, fixed saddles of the atom), and
    # its kept surgeries hold every atom split off it, so equal atoms are one
    # object and no (atom, marked, fixed) is computed twice, however many
    # split graphs, representatives and top classes' mirrors contain it.
    # The table is the test's own, so no atom an earlier test left alive is
    # handed out, and the spy records values, so it holds no atom
    monkeypatch.setattr(mg, "_interned", weakref.WeakValueDictionary())
    seeds = cb.enumerate_top_classes(
        4, 3, 1, cb.MarkingSpec(marked=(4, 0, 1), fixed=(0, 0, 0)))
    keys = []
    raw = mg._atom_codes

    def counted(atom, marked, fixed):
        keys.append((atom.saddles, atom.edges, marked, fixed))
        return raw(atom, marked, fixed)

    monkeypatch.setattr(mg, "_atom_codes", counted)
    K = cb.build_complex(seeds)
    assert len(K.classes) == 71
    assert len(keys) == len(set(keys)) == 12
    # a second build of the same seeds, while the first complex is alive,
    # splits the same atoms and so meets only atoms that keep their codes
    keys.clear()
    assert len(cb.build_complex(seeds).classes) == 71
    assert keys == []


def test_one_surgery_per_atom_and_lower_block(monkeypatch):
    # an atom keeps its surgery per its own lower saddles, so the 22 cover
    # splits that the 156 (class, cover) pairs leave to `split_level` (the
    # others are served from the build's split table) compute 20
    # surgeries, each of two sub-level systems, and no (atom, lower
    # saddles) twice.  The table is the test's own, so no atom an earlier
    # test left alive is handed out, and the spy records values, so it
    # holds no atom
    monkeypatch.setattr(mg, "_interned", weakref.WeakValueDictionary())
    seeds = cb.enumerate_top_classes(
        4, 3, 1, cb.MarkingSpec(marked=(4, 0, 1), fixed=(0, 0, 0)))
    systems, splits, passes = [], [], []
    raw, raw_split = pt._sublevel_system, pt.split_level
    raw_canonicalize = mg.canonicalize

    def counted(atom, kept, turn):
        systems.append((atom.saddles, atom.edges, frozenset(kept), turn))
        return raw(atom, kept, turn)

    def split(g, level, lower):
        splits.append(level)
        return raw_split(g, level, lower)

    def framed(g, table=None):
        passes.append(1)
        return raw_canonicalize(g, table)

    monkeypatch.setattr(pt, "_sublevel_system", counted)
    monkeypatch.setattr(pt, "split_level", split)
    monkeypatch.setattr(mg, "canonicalize", framed)
    K = cb.build_complex(seeds)
    pairs = len(passes) - len(seeds)
    assert (len(K.classes), len(splits), pairs, _covers(K)) == (71, 22, 156, 186)
    surgeries = [key[:3] for key in systems if key[3] == +1]
    assert len(systems) == len(set(systems)) == 40
    assert len(surgeries) == len(set(surgeries)) == 20
    # a second build of the same seeds, while the first complex is alive,
    # finds every surgery kept
    systems.clear()
    assert len(cb.build_complex(seeds).classes) == 71
    assert systems == []


def test_one_atom_check_per_atom_object(monkeypatch):
    # `validate` checks each atom once: an atom that passed keeps that, and
    # the reload interns equal atoms as one object.  With a table of the
    # test's own and every complex held, reloading the four stored dumps
    # checks each of their distinct atoms exactly once
    monkeypatch.setattr(mg, "_interned", weakref.WeakValueDictionary())
    checked = []
    raw = mg.Atom._check

    def counted(atom):
        checked.append(atom)
        return raw(atom)

    monkeypatch.setattr(mg.Atom, "_check", counted)
    complexes = [cb.complex_from_json(gzip.decompress(path.read_bytes()).decode())
                 for path in sorted((BENCH / "dumps").glob("*.json.gz"))]
    atoms = {atom for K in complexes for rec in K.classes for atom in rec.lmg.atoms}
    assert len(complexes) == 4
    assert len({id(atom) for atom in checked}) == len(checked) == len(atoms) == 56


def test_no_saddle_located_when_every_saddle_is_marked(monkeypatch):
    # an isomorphism fixes the marked saddles, so with all of them marked
    # every relabeling is the identity: the build neither locates a saddle
    # nor relabels a face.  With the saddles unmarked it does both
    calls = {"saddle_positions": 0, "_relabel": 0}
    for module, name in ((mg, "saddle_positions"), (cb, "_relabel")):
        def counted(*args, raw=getattr(module, name), name=name):
            calls[name] += 1
            return raw(*args)

        monkeypatch.setattr(module, name, counted)
    assert len(cb.build_complex(cb.enumerate_top_classes(4, 3, 1)).classes) == 426
    assert calls == {"saddle_positions": 0, "_relabel": 0}
    seeds = cb.enumerate_top_classes(
        4, 3, 1, cb.MarkingSpec(marked=(4, 0, 1), fixed=(0, 0, 0)))
    assert len(cb.build_complex(seeds).classes) == 71
    assert calls["saddle_positions"] > 0 and calls["_relabel"] > 0


def test_one_framing_pass_per_seed_cover_split_and_mirror(monkeypatch):
    # the build frames each seed, each cover split (`canonicalize`) and
    # each top class's mirror (`canonicalize_mirror`) once, and the 30
    # covers it reads off a face table not at all; a handle record
    # reads its group off the pass that registered its class instead of
    # framing the representative again, and a multi-level class reads its
    # mirror off a top class's face table
    seeds = cb.enumerate_top_classes(
        4, 3, 1, cb.MarkingSpec(marked=(4, 0, 1), fixed=(0, 0, 0)))
    passes = {"canonicalize": [], "canonicalize_mirror": []}
    for name, calls in passes.items():
        def counted(g, table=None, *, raw=getattr(mg, name), calls=calls):
            calls.append(g)
            return raw(g, table)

        monkeypatch.setattr(mg, name, counted)
    K = cb.build_complex(seeds)
    covers = sum(len(oracles.covers(rec.lmg.level_partition()))
                 for rec in K.classes)
    assert (len(seeds), covers, len(K.classes), K.top_count) == (20, 186, 71, 20)
    assert len(passes["canonicalize"]) == len(seeds) + covers - 30 == 176
    assert len(passes["canonicalize_mirror"]) == K.top_count == 20
    assert sum(map(len, passes.values())) == 196


def test_framings_encoded_only_where_caps_can_be_least(monkeypatch):
    # the build's 196 framing passes compare only the framings whose cap
    # blocks are least, 220 in all, not every product of in-level orders
    # and minimal roots; each skeleton's cap-free frame keeps the cylinders
    # of every framing it has encoded, so a framing costs one
    # `_framing_cylinders` per skeleton, marking and orientation: 63
    seeds = cb.enumerate_top_classes(
        4, 3, 1, cb.MarkingSpec(marked=(4, 0, 1), fixed=(0, 0, 0)))
    encoded = []
    raw = mg._framing_cylinders

    def counted(cylinders, pos, circle_maps):
        encoded.append(pos)
        return raw(cylinders, pos, circle_maps)

    monkeypatch.setattr(mg, "_framing_cylinders", counted)
    K = cb.build_complex(seeds)
    assert len(K.classes) == 71
    assert len(encoded) == 63


def test_library_calls_traced_functions_through_traced_names():
    # `from .m import f` binds a second name for f; when the tracer wraps f,
    # it must wrap that name too, or calls through it go unseen
    wrapped = {(module, attr) for module, attr, _ in _load_bench("tracing").WRAPPED}
    traced = {attr for _, attr in wrapped}
    source = Path(cb.__file__).resolve().parent
    unwrapped = []
    for path in sorted(source.glob("*.py")):
        if path.name == "__init__.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                for alias in node.names:
                    name = alias.asname or alias.name
                    if (alias.name in traced
                            and ("mck." + path.stem, name) not in wrapped):
                        unwrapped.append("%s: %s" % (path.name, name))
    assert unwrapped == []
