import dataclasses
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from mck import complex_builder as cb
from mck import morse_graph as mg
from mck.cli import main

from oracles import cap_labelings, matchings


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_facelattice(capsys):
    code, out, _ = run(capsys, "facelattice", "--q", "3")
    assert code == 0
    assert out.strip() == "vertices: 6, faces: 13"


def test_facelattice_q4(capsys):
    code, out, _ = run(capsys, "facelattice", "--q", "4")
    assert code == 0
    assert out.strip() == "vertices: 24, faces: 75"


def test_facelattice_bounds(capsys):
    code, _, err = run(capsys, "facelattice", "--q", "9")
    assert code == 2 and "1..8" in err


def test_facelattice_writes_no_dot(tmp_path, capsys):
    # the face poset's DOT has one path, `export-dot --what faces`
    dot = tmp_path / "faces.dot"
    with pytest.raises(SystemExit) as info:
        main(["facelattice", "--q", "3", "--dot", str(dot)])
    assert info.value.code == 2 and not dot.exists()
    assert "unrecognized arguments: --dot" in capsys.readouterr().err


def test_parser_built_once_per_process(monkeypatch, capsys):
    # `main` parses with one parser per process; a parse error after a
    # good parse, and a good parse after an error, behave as in a fresh one
    from mck import cli
    build_parser, built = cli.build_parser, []

    def counted():
        built.append(1)
        return build_parser()

    monkeypatch.setattr(cli, "build_parser", counted)
    cli._parser.cache_clear()
    try:
        for _ in range(2):
            assert run(capsys, "facelattice", "--q", "3")[:2] == (
                0, "vertices: 6, faces: 13\n")
            with pytest.raises(SystemExit) as info:
                main(["facelattice", "--q", "x"])
            assert info.value.code == 2
            assert "invalid int value" in capsys.readouterr().err
        assert built == [1]
    finally:
        cli._parser.cache_clear()


def test_enumerate_q1(tmp_path, capsys):
    out_file = tmp_path / "cat.json"
    code, out, _ = run(capsys, "enumerate", "--p", "2", "--q", "1", "--r", "1",
                       "--marked", "all", "--out", str(out_file))
    assert code == 0
    assert "classes: 1" in out and "s=1: 1" in out
    doc = json.loads(out_file.read_text())
    assert len(doc["classes"]) == 1


def test_enumerate_parameter_error(capsys):
    code, _, err = run(capsys, "enumerate", "--p", "2", "--q", "1", "--r", "2")
    assert code == 2
    assert "p - q + r" in err


def test_euler_on_q1_catalog(tmp_path, capsys):
    out_file = tmp_path / "cat.json"
    run(capsys, "enumerate", "--p", "2", "--q", "1", "--r", "1",
        "--out", str(out_file))
    code, out, _ = run(capsys, "euler", "--input", str(out_file))
    assert code == 0
    assert out.strip() == "formula: 1, independent: 1, AGREE"


def test_pipeline_q2(tmp_path, capsys):
    cat = tmp_path / "cat.json"
    comp = tmp_path / "K.json"
    run(capsys, "enumerate", "--p", "2", "--q", "2", "--r", "2",
        "--out", str(cat))
    code, out, _ = run(capsys, "complex", "--input", str(cat),
                       "--out", str(comp))
    assert code == 0
    code, out, _ = run(capsys, "euler", "--input", str(comp))
    assert "AGREE" in out
    code, out, _ = run(capsys, "dim", "--input", str(comp))
    assert out.strip() == "4"
    code, out, _ = run(capsys, "qpoly", "--input", str(comp))
    assert code == 0
    assert out.splitlines()[0].startswith("Q: ")
    assert "beta_0" in out
    code, out, _ = run(capsys, "qpoly", "--input", str(comp), "--betti", "1")
    assert "betti <= q: ok" in out


def test_catalog_roundtrips_through_files(tmp_path, capsys):
    cat = tmp_path / "cat.json"
    run(capsys, "enumerate", "--p", "2", "--q", "2", "--r", "2",
        "--out", str(cat))
    from mck.complex_builder import catalog_from_json
    from mck import morse_graph as mg
    classes, p, q, r, marking = catalog_from_json(json.loads(cat.read_text()))
    assert (p, q, r) == (2, 2, 2)
    for g in classes:
        mg.validate(g)


def test_determinism_byte_identical(tmp_path, capsys):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    run(capsys, "enumerate", "--p", "3", "--q", "2", "--r", "1", "--out", str(a))
    run(capsys, "enumerate", "--p", "3", "--q", "2", "--r", "1", "--out", str(b))
    assert a.read_bytes() == b.read_bytes()


def test_stdout_carries_the_out_file_bytes(tmp_path, capsys):
    # without --out, enumerate and complex print the bytes they write to
    # an --out file, then a newline, then the lines they print with --out
    cat, dump = tmp_path / "cat.json", tmp_path / "K.json"
    for argv, path in ((("enumerate", "--p", "2", "--q", "2", "--r", "2"), cat),
                       (("complex", "--input", str(cat)), dump)):
        code, summary, _ = run(capsys, *argv, "--out", str(path))
        assert code == 0 and path.stat().st_size > 0
        code, out, _ = run(capsys, *argv)
        assert code == 0 and out == path.read_text() + "\n" + summary


def test_jobs_flag_same_output(tmp_path, capsys):
    # enumeration runs in one process: --jobs 1 is accepted and changes
    # nothing, and any other count is refused before anything is written
    a, b, c = tmp_path / "a.json", tmp_path / "b.json", tmp_path / "c.json"
    run(capsys, "enumerate", "--p", "2", "--q", "2", "--r", "2", "--out", str(a))
    code, _, _ = run(capsys, "enumerate", "--p", "2", "--q", "2", "--r", "2",
                     "--jobs", "1", "--out", str(b))
    assert code == 0 and a.read_bytes() == b.read_bytes()
    code, out, err = run(capsys, "enumerate", "--p", "2", "--q", "2",
                         "--r", "2", "--jobs", "2", "--out", str(c))
    assert code == 2 and out == "" and not c.exists()
    assert err.startswith("error: --jobs") and "Traceback" not in err


@pytest.mark.parametrize("jobs", ["0", "-3"])
def test_jobs_below_one_refused(capsys, jobs):
    code, out, err = run(capsys, "enumerate", "--p", "2", "--q", "1", "--r", "1",
                         "--jobs", jobs)
    assert code == 2 and out == "" and "jobs" in err


def test_seen_cache_env_is_ignored(tmp_path, capsys, monkeypatch):
    """`enumerate` reads no memo file: an MCK_SEEN_CACHE file that maps
    every candidate to one class leaves the catalog unchanged."""
    plain, poisoned = tmp_path / "plain.json", tmp_path / "poisoned.json"
    run(capsys, "enumerate", "--p", "2", "--q", "2", "--r", "2",
        "--out", str(plain))
    classes, *_ = cb.catalog_from_json(json.loads(plain.read_text()))
    one = mg.canonical_form(classes[0]).hex()
    marking = cb.MarkingSpec.all_marked(2, 2, 2)
    memo = {}
    for atom in cb._one_level_atoms(2, 2, 2, matchings((1, 2))):
        for g in cap_labelings(atom, 2, 2, marking, frozenset({1, 2}),
                               frozenset(), 2):
            memo[mg.to_json(g)] = one
    cache = tmp_path / "cache.json"
    cache.write_text(json.dumps(memo))
    monkeypatch.setenv("MCK_SEEN_CACHE", str(cache))
    code, out, _ = run(capsys, "enumerate", "--p", "2", "--q", "2", "--r", "2",
                       "--out", str(poisoned))
    assert code == 0 and "classes: 10" in out
    assert poisoned.read_bytes() == plain.read_bytes()


def test_parse_error_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{broken")
    code, _, err = run(capsys, "euler", "--input", str(bad))
    assert code == 3
    missing = tmp_path / "missing.json"
    code, _, err = run(capsys, "dim", "--input", str(missing))
    assert code == 3


def test_corrupted_catalog_refused(tmp_path, capsys):
    cat = tmp_path / "cat.json"
    run(capsys, "enumerate", "--p", "2", "--q", "1", "--r", "1",
        "--out", str(cat))
    doc = json.loads(cat.read_text())
    del doc["classes"][0]["cylinders"]
    cat.write_text(json.dumps(doc))
    code, _, err = run(capsys, "euler", "--input", str(cat))
    assert code == 3 and "cylinders" in err


def test_non_object_document_refused(tmp_path, capsys):
    bad = tmp_path / "five.json"
    bad.write_text("5")
    code, _, err = run(capsys, "euler", "--input", str(bad))
    assert code == 3 and "not a JSON object" in err


@pytest.mark.parametrize("content, command, message", [
    (b"\xff\xfe{\x00}\x00", ("euler",), "utf-8"),
    (b"\xff\xfe{\x00}\x00", ("complex",), "utf-8"),
    (b"\xff\xfe{\x00}\x00", ("export-dot", "--what", "graph"), "utf-8"),
    (b"[" * 200000, ("euler",), "recursion"),
    (b"[" * 200000, ("complex",), "recursion"),
], ids=["utf16-euler", "utf16-complex", "utf16-export-dot-graph",
        "deep-euler", "deep-complex"])
def test_undecodable_input_refused(tmp_path, capsys, content, command, message):
    # text that is not UTF-8, and JSON nested past the parser's recursion
    # limit, are parse failures
    bad = tmp_path / "bad.json"
    bad.write_bytes(content)
    code, _, err = run(capsys, *command, "--input", str(bad))
    assert code == 3 and message in err


@pytest.mark.parametrize(
    "command", [("complex",), ("export-dot", "--what", "graph")],
    ids=["complex", "export-dot-graph"])
def test_complex_dump_where_catalog_expected(q1_files, capsys, command):
    # a complex dump is a parameter mistake, not a corrupted catalog
    code, out, err = run(capsys, *command, "--input", str(q1_files["complex"]))
    assert code == 2 and out == ""
    assert "expected a catalog, got a complex dump" in err


def test_malformed_circle_reference_refused(tmp_path, capsys):
    cat = tmp_path / "cat.json"
    run(capsys, "enumerate", "--p", "2", "--q", "1", "--r", "1",
        "--out", str(cat))
    doc = json.loads(cat.read_text())
    doc["classes"][0]["caps"][0]["circle"] = [0]
    cat.write_text(json.dumps(doc))
    for argv in (("euler", "--input", str(cat)),
                 ("export-dot", "--what", "graph", "--input", str(cat))):
        code, _, err = run(capsys, *argv)
        assert code == 3 and "pair of ints" in err


DELETE, WRAP, TEXT = object(), object(), object()


@pytest.fixture(scope="module")
def q1_files(tmp_path_factory):
    """q = 1 catalogs and their complex dumps, written by the CLI: all
    marked, all marked with the saddle fixed, and the saddle unmarked."""
    root = tmp_path_factory.mktemp("q1")
    files = {}
    for prefix, marked, fixed in (("", "all", "none"), ("fixed-", "all", "0,1,0"),
                                  ("unmarked-", "2,0,1", "none")):
        cat, dump = root / (prefix + "cat.json"), root / (prefix + "K.json")
        assert main(["enumerate", "--p", "2", "--q", "1", "--r", "1",
                     "--marked", marked, "--fixed", fixed,
                     "--out", str(cat)]) == 0
        assert main(["complex", "--input", str(cat), "--out", str(dump)]) == 0
        files[prefix + "catalog"], files[prefix + "complex"] = cat, dump
    return files


@pytest.mark.parametrize("source, command, path, value", [
    ("complex", "qpoly", ("classes", 0, "lmg", "q"), "x"),
    ("catalog", "complex", ("classes", 0, "caps", 0, "label"), "a"),
    ("catalog", "complex", ("params", "marked"), [9, 9, 9]),
    ("complex", "qpoly", ("params", "marked"), [2, 2]),
    ("catalog", "complex", ("params", "p"), 3),
    ("complex", "qpoly", ("params", "p"), 2.0),
    ("catalog", "complex", ("params", "fixed"), [3, 0, 0]),
    ("catalog", "euler", ("classes", 0, "atoms", 0, "edges", 0), [0]),
    ("complex", "euler", ("classes", 0, "lmg", "atoms", 0, "edges", 0), "x"),
    ("catalog", "euler", ("classes", 0, "cylinders"), [[]]),
    ("complex", "euler", ("classes", 0, "lmg", "cylinders"), [[]]),
    ("catalog", "complex", ("classes", 0, "caps", 0, "marked"), "no"),
    ("complex", "qpoly", ("classes", 0, "lmg", "caps", 0, "fixed"), 0),
    ("complex", "euler", ("params", "marked"), [1, 1, 1]),
    ("catalog", "euler", ("classes", 0, "marked_saddles"), []),
    ("catalog", "euler", ("classes", 0, "atoms", 0, "edges", 0), [0, -1]),
    ("complex", "euler", ("classes", 0, "lmg", "atoms", 0, "edges", 0), [0, -1]),
    ("catalog", "euler", ("classes", 0, "atoms", 0, "edges", 1), [2, True]),
    ("complex", "euler", ("classes", 0, "lmg", "atoms", 0, "edges", 1), [2, True]),
    ("catalog", "euler", ("classes", 0, "atoms", 0, "darts"), 99),
    ("complex", "euler", ("classes", 0, "lmg", "atoms", 0, "darts"), 99),
    ("catalog", "euler", ("classes", 0, "atoms", 0, "darts"), DELETE),
    ("complex", "euler", ("classes", 0, "canonical"), "x"),
    ("complex", "euler", ("classes", 0, "canonical"), DELETE),
    ("catalog", "complex", ("classes", 0, "marked_saddles"), [True]),
    ("complex", "euler", ("classes", 0, "lmg", "marked_saddles"), [1.0]),
    ("fixed-catalog", "euler", ("classes", 0, "fixed_saddles"), [1.0]),
    ("fixed-complex", "qpoly", ("classes", 0, "lmg", "fixed_saddles"), [True]),
    ("catalog", "euler", ("classes", 0), TEXT),
    ("complex", "euler", ("classes", 0, "lmg"), TEXT),
    ("catalog", "euler", ("classes", 0, "cylinders"), ""),
    ("complex", "euler", ("classes", 0, "lmg", "cylinders"), {}),
    ("catalog", "euler", ("classes", 0, "fixed_saddles"), {}),
    ("complex", "qpoly", ("classes", 0, "lmg", "fixed_saddles"), ""),
    ("unmarked-catalog", "euler", ("classes", 0, "marked_saddles"), ""),
    ("unmarked-complex", "euler", ("classes", 0, "lmg", "marked_saddles"), {}),
    ("catalog", "complex", ("classes",), ""),
    ("catalog", "euler", ("classes",), ""),
    ("catalog", "complex", ("classes",), {}),
    ("catalog", "euler", ("classes",), {}),
    ("catalog", "complex", ("classes",), []),
    ("catalog", "euler", ("classes",), []),
    ("complex", "euler", ("incidence",), ""),
    ("complex", "qpoly", ("incidence",), {}),
    ("complex", "dim", ("incidence",), ""),
    ("catalog", "euler", ("classes", 0, "atoms", 0, "edges", 0), [0, 1.0]),
    ("complex", "euler", ("classes", 0, "lmg", "atoms", 0, "edges", 0), [0, 1.0]),
    ("catalog", "euler", ("classes", 0, "atoms", 0, "edges", 0), [0, 4]),
    ("complex", "qpoly", ("classes", 0, "lmg", "atoms", 0, "edges", 0), [0, 4]),
    ("catalog", "euler", ("classes", 0, "caps", 0, "circle"), [0, True]),
    ("complex", "euler", ("classes", 0, "lmg", "caps", 0, "circle"), [0, True]),
    ("catalog", "complex", ("classes", 0, "caps", 0, "circle"), [0.0, 0]),
    ("complex", "dim", ("classes", 0, "lmg", "caps", 0, "circle"), [0.0, 0]),
], ids=["graph-q", "cap-label", "catalog-marked", "complex-marked", "graph-p",
        "float-p", "fixed-exceeds-marked", "short-edge", "string-edge",
        "catalog-empty-cylinder", "complex-empty-cylinder", "string-cap-flag",
        "int-cap-flag", "params-marking-mismatch", "graph-marking-mismatch",
        "catalog-negative-dart", "complex-negative-dart", "catalog-bool-dart",
        "complex-bool-dart", "catalog-darts-count", "complex-darts-count",
        "catalog-darts-missing", "complex-canonical-string",
        "complex-canonical-missing", "catalog-bool-marked-saddle",
        "complex-float-marked-saddle", "catalog-float-fixed-saddle",
        "complex-bool-fixed-saddle", "catalog-graph-as-text",
        "complex-graph-as-text", "catalog-string-cylinders",
        "complex-object-cylinders", "catalog-object-fixed-saddles",
        "complex-string-fixed-saddles", "catalog-string-marked-saddles",
        "complex-object-marked-saddles", "catalog-string-classes-complex",
        "catalog-string-classes-euler", "catalog-object-classes-complex",
        "catalog-object-classes-euler", "catalog-empty-classes-complex",
        "catalog-empty-classes-euler", "complex-string-incidence-euler",
        "complex-object-incidence-qpoly", "complex-string-incidence-dim",
        "catalog-float-dart", "complex-float-dart", "catalog-dart-equal-darts",
        "complex-dart-equal-darts", "catalog-bool-circle-ref",
        "complex-bool-circle-ref", "catalog-float-circle-ref",
        "complex-float-circle-ref"])
def test_malformed_field_refused(q1_files, tmp_path, capsys, source, command,
                                 path, value):
    doc = json.loads(q1_files[source].read_text())
    target = doc
    for key in path[:-1]:
        target = target[key]
    if value is DELETE:
        del target[path[-1]]
    elif value is TEXT:  # the graph as a string holding its JSON
        target[path[-1]] = json.dumps(target[path[-1]])
    else:
        target[path[-1]] = value
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    code, out, err = run(capsys, command, "--input", str(bad))
    assert code == 3 and out == "" and err.startswith("error: ")


def test_dump_outside_the_builder_scope_refused(tmp_path, capsys):
    # the builder refuses two fixed minima, so a dump with them is refused
    # on reload with the same exit code as the catalog
    marking = cb.MarkingSpec(marked=(2, 1, 1), fixed=(2, 0, 0))
    seeds = cb.enumerate_top_classes(2, 1, 1, marking)
    records = tuple(cb.handle_record(g, *mg.canonicalize(g),
                                     mg.canonicalize(mg.mirror(g))[0],
                                     mg.SkeletonTable())
                    for g in seeds)
    K = cb.ComplexK(p=2, q=1, r=1, marking=marking, classes=records,
                    incidence=(), top_count=len(records))
    dump, cat = tmp_path / "K.json", tmp_path / "cat.json"
    dump.write_text(cb.complex_to_json(K))
    cat.write_text(cb.catalog_to_json(seeds, 2, 1, 1, marking))
    for path in (dump, cat):
        code, out, err = run(capsys, "euler", "--input", str(path))
        assert code == 2 and out == "" and "fixed point" in err


def _json_paths(node, path=()):
    """Every path into a decoded JSON document, the root excluded."""
    if isinstance(node, dict):
        children = node.items()
    elif isinstance(node, list):
        children = enumerate(node)
    else:
        children = ()
    for key, child in children:
        yield path + (key,)
        yield from _json_paths(child, path + (key,))


MUTATIONS = (DELETE, "x", 99, -1, 1.5, None, [], {}, WRAP)


def test_mutation_sweep_exits_cleanly(q1_files, tmp_path, capsys):
    # every single-point mutation of a valid catalog and dump is either
    # read or refused with a documented exit code, never a traceback
    bad = tmp_path / "bad.json"
    escaped = []
    calls = 0
    for source in ("catalog", "complex"):
        text = q1_files[source].read_text()
        for path in list(_json_paths(json.loads(text))):
            for change in MUTATIONS:
                doc = json.loads(text)
                target = doc
                for key in path[:-1]:
                    target = target[key]
                if change is DELETE:
                    del target[path[-1]]
                elif change is WRAP:
                    target[path[-1]] = [target[path[-1]]]
                else:
                    target[path[-1]] = change
                bad.write_text(json.dumps(doc))
                calls += 1
                try:
                    code = main(["euler", "--input", str(bad)])
                except Exception as exc:   # an escape is a failure
                    code = repr(exc)
                capsys.readouterr()
                if code not in (0, 2, 3):
                    escaped.append((source, path, repr(change), code))
    assert calls > 1000
    assert not escaped, escaped[:10]


def test_wrong_stored_handle_field_refused(tmp_path, capsys):
    # c, d, nu0, e, free_exact and chi.skipped are constant at the builder's
    # scope, but a dump that alters one is refused all the same
    cat = tmp_path / "cat.json"
    comp = tmp_path / "K.json"
    bad = tmp_path / "bad.json"
    run(capsys, "enumerate", "--p", "2", "--q", "2", "--r", "2",
        "--out", str(cat))
    run(capsys, "complex", "--input", str(cat), "--out", str(comp))
    for field, value in [("dim_upoly", None), ("c", 1), ("d", None),
                         ("nu0", None), ("e", 1), ("free_exact", False),
                         ("skipped", True)]:
        doc = json.loads(comp.read_text())
        entry = doc["chi"] if field == "skipped" else doc["classes"][0]
        entry[field] = entry[field] + 1 if value is None else value
        bad.write_text(json.dumps(doc))
        code, _, err = run(capsys, "euler", "--input", str(bad))
        where = "complex document" if field == "skipped" else entry["id"]
        assert code == 3 and where in err and field in err, field


def test_negative_betti_refused(q1_files, capsys):
    code, out, err = run(capsys, "qpoly", "--input", str(q1_files["complex"]),
                         "--betti", "1,-1")
    assert code == 2 and out == ""
    assert "negative Betti" in err


def test_repeated_class_refused(tmp_path, capsys):
    # a one-level class listed twice, with top_count, chi and Q set to what
    # the longer list gives, would report chi = -11 instead of -10
    cat = tmp_path / "cat.json"
    comp = tmp_path / "K.json"
    run(capsys, "enumerate", "--p", "2", "--q", "2", "--r", "2",
        "--out", str(cat))
    run(capsys, "complex", "--input", str(cat), "--out", str(comp))
    doc = json.loads(comp.read_text())
    K = cb.complex_from_json(comp.read_text())
    rec = next(rec for rec in K.classes if rec.s == 1)
    doc["classes"].append(next(e for e in doc["classes"]
                               if e["id"] == rec.class_id))
    longer = dataclasses.replace(K, classes=K.classes + (rec,),
                                 top_count=K.top_count + 1)
    doc.update(cb._report_fields(longer))
    assert doc["chi"]["formula"] == -11 and doc["chi"]["agree"]
    comp.write_text(json.dumps(doc))
    for command in ("euler", "qpoly"):
        code, out, err = run(capsys, command, "--input", str(comp))
        assert code == 3 and out == ""
        assert rec.class_id in err and "listed twice" in err


def test_invariant_violation_exit_code(tmp_path, capsys, monkeypatch):
    cat = tmp_path / "cat.json"
    run(capsys, "enumerate", "--p", "2", "--q", "1", "--r", "1",
        "--out", str(cat))
    import mck.cli as cli_mod

    def boom(K):
        raise mg.InvariantViolation("synthetic failure")

    monkeypatch.setattr(cli_mod.cb, "euler_characteristic", boom)
    code, _, err = run(capsys, "euler", "--input", str(cat))
    assert code == 4 and "synthetic failure" in err


def test_failed_global_invariant_leaves_no_dump(tmp_path, capsys,
                                                monkeypatch):
    # the dump is written as it is encoded, so its global invariants are
    # computed before the file is opened: a failure leaves no file
    cat, dump = tmp_path / "cat.json", tmp_path / "K.json"
    run(capsys, "enumerate", "--p", "2", "--q", "1", "--r", "1",
        "--out", str(cat))

    def boom(K):
        raise mg.InvariantViolation("synthetic failure")

    monkeypatch.setattr(cb, "q_polynomial", boom)
    code, out, err = run(capsys, "complex", "--input", str(cat),
                         "--out", str(dump))
    assert code == 4 and out == "" and "synthetic failure" in err
    assert not dump.exists()


def test_cap_label_blind_canonical_form_exits_4(tmp_path, capsys, monkeypatch):
    # enumeration keeps one capping per labeling orbit, each a class of its
    # own; a canonical form that ignores cap labels gives two of them one
    # form, and `enumerate` stops with exit 4 and writes no catalog
    form = mg.canonical_form

    def blind(g, table=None):
        return form(dataclasses.replace(g, caps=tuple(
            dataclasses.replace(c, label=0, marked=False, fixed=False)
            for c in g.caps)), table)

    monkeypatch.setattr(mg, "canonical_form", blind)
    cat = tmp_path / "cat.json"
    code, out, err = run(capsys, "enumerate", "--p", "2", "--q", "2",
                         "--r", "2", "--out", str(cat))
    assert code == 4 and out == "" and not cat.exists()
    assert re.search(r"^invariant violation: class c[0-9a-f]{16}: two "
                     r"cappings kept as distinct one-level classes", err)
    assert "Traceback" not in err


def test_missing_polytope_witness_exits_4(tmp_path, capsys, monkeypatch):
    # without the assembly tree's point the dimension is not derived
    # another way: the build stops with exit 4 and names the class
    cat = tmp_path / "cat.json"
    run(capsys, "enumerate", "--p", "2", "--q", "2", "--r", "2",
        "--out", str(cat))
    from mck import twist_algebra as ta
    monkeypatch.setattr(ta, "_tree_witness", lambda g, model, bound: None)
    code, out, err = run(capsys, "complex", "--input", str(cat),
                         "--out", str(tmp_path / "K.json"))
    assert code == 4 and out == ""
    assert re.search(r"invariant violation: class c[0-9a-f]{16}: "
                     r"the assembly tree's point does not fit", err)
    assert not (tmp_path / "K.json").exists()


def test_inconsistent_stabilizer_action_exits_4(tmp_path, capsys,
                                                monkeypatch):
    # every structure automorphism commutes with the expansion; a traded
    # row tampered in a coordinate that an automorphism moves breaks that,
    # and the build stops with exit 4, names the class and writes no dump
    cat = tmp_path / "cat.json"
    run(capsys, "enumerate", "--p", "4", "--q", "3", "--r", "1",
        "--marked", "0,3,1", "--out", str(cat))
    from mck import twist_algebra as ta
    check = ta.check_stab_action
    tampered = []

    def tamper(g, model, autos):
        moved = [j for phi in autos for j, b in enumerate(model.basis)
                 if phi.edges[b] != b]
        if model.n and moved:
            rows = list(model.expansion)
            d = model.deleted[0]
            rows[d] = tuple(x + (k == moved[0]) for k, x in enumerate(rows[d]))
            model = dataclasses.replace(model, expansion=tuple(rows))
            tampered.append(g)
        return check(g, model, autos)

    monkeypatch.setattr(ta, "check_stab_action", tamper)
    code, out, err = run(capsys, "complex", "--input", str(cat),
                         "--out", str(tmp_path / "K.json"))
    assert code == 4 and out == "" and tampered
    assert re.search(r"invariant violation: class c[0-9a-f]{16}: "
                     r"the edge action does not commute with the expansion",
                     err)
    assert not (tmp_path / "K.json").exists()


def test_corrupted_graph_named_by_position_and_id(tmp_path, capsys):
    # a stored graph that fails validation is named by its place in the
    # document, and in a dump by its stored id too; its error keeps its
    # class and exit code 3
    cat, dump = tmp_path / "cat.json", tmp_path / "K.json"
    run(capsys, "enumerate", "--p", "2", "--q", "2", "--r", "2",
        "--out", str(cat))
    run(capsys, "complex", "--input", str(cat), "--out", str(dump))
    message = "levels must list every atom exactly once"
    doc = json.loads(dump.read_text())
    i, entry = [(i, e) for i, e in enumerate(doc["classes"])
                if len(e["lmg"]["levels"]) > 1][-1]
    levels = entry["lmg"]["levels"]
    levels[1] = levels[0]
    with pytest.raises(mg.StructureError) as info:
        cb.complex_from_json(doc)
    where = "classes[%d] (id %r)" % (i, entry["id"])
    assert i > 0 and str(info.value) == "%s: %s" % (where, message)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    code, out, err = run(capsys, "euler", "--input", str(bad))
    assert code == 3 and out == ""
    assert err == "error: invalid input graph: %s: %s\n" % (where, message)

    doc = json.loads(cat.read_text())
    doc["classes"][1]["levels"] *= 2
    bad.write_text(json.dumps(doc))
    code, out, err = run(capsys, "complex", "--input", str(bad),
                         "--out", str(tmp_path / "K2.json"))
    assert code == 3 and out == ""
    assert err == "error: invalid input graph: classes[1]: %s\n" % message
    assert not (tmp_path / "K2.json").exists()


def test_closed_stdout_exits_3():
    # a reader that has gone away ends the run with exit 3 and one error
    # line, not a traceback; the read end is closed before mck starts
    read_end, write_end = os.pipe()
    os.close(read_end)
    env = dict(os.environ, PYTHONPATH=str(Path(cb.__file__).parents[1]))
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "mck.cli", "facelattice", "--q", "3"],
            stdout=write_end, stderr=subprocess.PIPE, env=env, timeout=60)
    finally:
        os.close(write_end)
    err = proc.stderr.decode()
    assert proc.returncode == 3
    assert err.startswith("error: ") and "Traceback" not in err


def test_huge_claimed_q_refused_in_bounded_memory(q1_files, tmp_path):
    # the graph validator's cost follows the graph, not the claimed q: a
    # q = 1 catalog that claims q = 10^12 is refused with exit 3 under a
    # 1 GiB address-space limit
    import resource
    doc = json.loads(q1_files["catalog"].read_text())
    doc["params"]["q"] = doc["classes"][0]["q"] = 10 ** 12
    cat = tmp_path / "huge-q.json"
    cat.write_text(json.dumps(doc))
    env = dict(os.environ, PYTHONPATH=str(Path(cb.__file__).parents[1]))

    def limit_memory():
        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

    proc = subprocess.run(
        [sys.executable, "-m", "mck.cli", "complex", "--input", str(cat),
         "--out", str(tmp_path / "K.json")],
        capture_output=True, text=True, env=env, timeout=60,
        preexec_fn=limit_memory)
    assert proc.returncode == 3, proc.stderr
    assert "saddle labels must be {1..q}" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_export_dot_faces(capsys):
    code, out, _ = run(capsys, "export-dot", "--what", "faces", "--q", "2")
    assert code == 0 and out.startswith("digraph face_poset")


def test_export_dot_graph_and_classes(tmp_path, capsys):
    cat = tmp_path / "cat.json"
    comp = tmp_path / "K.json"
    run(capsys, "enumerate", "--p", "2", "--q", "2", "--r", "2", "--out", str(cat))
    run(capsys, "complex", "--input", str(cat), "--out", str(comp))
    code, out, _ = run(capsys, "export-dot", "--what", "graph",
                       "--input", str(cat), "--index", "0")
    assert code == 0 and "cluster_level_1" in out
    dot_file = tmp_path / "poset.dot"
    code, _, _ = run(capsys, "export-dot", "--what", "classes",
                     "--input", str(comp), "--out", str(dot_file))
    assert code == 0 and dot_file.read_text().startswith("digraph class_poset")
    code, _, err = run(capsys, "export-dot", "--what", "graph",
                       "--input", str(cat), "--index", "99")
    assert code == 2


def test_marking_flags(tmp_path, capsys):
    out_file = tmp_path / "cat.json"
    code, out, _ = run(capsys, "enumerate", "--p", "2", "--q", "2", "--r", "2",
                       "--marked", "0,2,2", "--fixed", "0,1,0",
                       "--out", str(out_file))
    assert code == 0
    code, _, err = run(capsys, "enumerate", "--p", "2", "--q", "2", "--r", "2",
                       "--marked", "nonsense")
    assert code == 2
