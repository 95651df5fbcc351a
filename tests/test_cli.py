import json

import pytest

from mck import complex_builder as cb
from mck import morse_graph as mg
from mck.cli import main


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
    classes, p, q, r, marking = catalog_from_json(cat.read_text())
    assert (p, q, r) == (2, 2, 2)
    for g in classes:
        mg.validate(g)


def test_determinism_byte_identical(tmp_path, capsys):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    run(capsys, "enumerate", "--p", "3", "--q", "2", "--r", "1", "--out", str(a))
    run(capsys, "enumerate", "--p", "3", "--q", "2", "--r", "1", "--out", str(b))
    assert a.read_bytes() == b.read_bytes()


def test_jobs_flag_same_output(tmp_path, capsys):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    run(capsys, "enumerate", "--p", "2", "--q", "2", "--r", "2", "--out", str(a))
    run(capsys, "enumerate", "--p", "2", "--q", "2", "--r", "2",
        "--jobs", "2", "--out", str(b))
    assert a.read_bytes() == b.read_bytes()


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
    classes, *_ = cb.catalog_from_json(plain.read_text())
    one = mg.canonical_form(classes[0]).hex()
    marking = cb.MarkingSpec.all_marked(2, 2, 2)
    memo = {}
    for atom in cb._one_level_atoms(2, 2, 2, cb._matchings(2)):
        for g in cb._cap_labelings(atom, 2, 2, marking, frozenset({1, 2}),
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


DELETE, WRAP = object(), object()


@pytest.fixture(scope="module")
def q1_files(tmp_path_factory):
    """q = 1 catalogs and their complex dumps, written by the CLI: all
    marked, and all marked with the saddle fixed."""
    root = tmp_path_factory.mktemp("q1")
    files = {}
    for prefix, fixed in (("", "none"), ("fixed-", "0,1,0")):
        cat, dump = root / (prefix + "cat.json"), root / (prefix + "K.json")
        assert main(["enumerate", "--p", "2", "--q", "1", "--r", "1",
                     "--fixed", fixed, "--out", str(cat)]) == 0
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
], ids=["graph-q", "cap-label", "catalog-marked", "complex-marked", "graph-p",
        "float-p", "fixed-exceeds-marked", "short-edge", "string-edge",
        "catalog-empty-cylinder", "complex-empty-cylinder", "string-cap-flag",
        "int-cap-flag", "params-marking-mismatch", "graph-marking-mismatch",
        "catalog-negative-dart", "complex-negative-dart", "catalog-bool-dart",
        "complex-bool-dart", "catalog-darts-count", "complex-darts-count",
        "catalog-darts-missing", "complex-canonical-string",
        "complex-canonical-missing", "catalog-bool-marked-saddle",
        "complex-float-marked-saddle", "catalog-float-fixed-saddle",
        "complex-bool-fixed-saddle"])
def test_malformed_field_refused(q1_files, tmp_path, capsys, source, command,
                                 path, value):
    doc = json.loads(q1_files[source].read_text())
    target = doc
    for key in path[:-1]:
        target = target[key]
    if value is DELETE:
        del target[path[-1]]
    else:
        target[path[-1]] = value
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    code, out, err = run(capsys, command, "--input", str(bad))
    assert code == 3 and out == "" and err.startswith("error: ")


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
    cat = tmp_path / "cat.json"
    comp = tmp_path / "K.json"
    run(capsys, "enumerate", "--p", "2", "--q", "2", "--r", "2",
        "--out", str(cat))
    run(capsys, "complex", "--input", str(cat), "--out", str(comp))
    doc = json.loads(comp.read_text())
    entry = doc["classes"][0]
    entry["dim_upoly"] += 1
    comp.write_text(json.dumps(doc))
    code, _, err = run(capsys, "euler", "--input", str(comp))
    assert code == 3 and entry["id"] in err and "dim_upoly" in err


def test_invariant_violation_exit_code(tmp_path, capsys, monkeypatch):
    cat = tmp_path / "cat.json"
    run(capsys, "enumerate", "--p", "2", "--q", "1", "--r", "1",
        "--out", str(cat))
    import mck.cli as cli_mod
    from mck.twist_algebra import AlgebraInvariantViolation

    def boom(K):
        raise AlgebraInvariantViolation("synthetic failure")

    monkeypatch.setattr(cli_mod.cb, "euler_characteristic", boom)
    code, _, err = run(capsys, "euler", "--input", str(cat))
    assert code == 4 and "synthetic failure" in err


def test_missing_polytope_witness_exits_4(tmp_path, capsys, monkeypatch):
    # without an interior point the dimension is not derived another way:
    # the build stops with exit 4 and names the polytope
    cat = tmp_path / "cat.json"
    run(capsys, "enumerate", "--p", "2", "--q", "2", "--r", "2",
        "--out", str(cat))
    from mck import twist_algebra as ta
    monkeypatch.setattr(ta, "_strict_witness", lambda system, ambient: None)
    code, out, err = run(capsys, "complex", "--input", str(cat),
                         "--out", str(tmp_path / "K.json"))
    assert code == 4 and out == ""
    assert "edge-value polytope is empty or not full-dimensional" in err
    assert not (tmp_path / "K.json").exists()


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
