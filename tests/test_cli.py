import json

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


def test_seen_cache_roundtrip(tmp_path, capsys, monkeypatch):
    cache = tmp_path / "cache.json"
    monkeypatch.setenv("MCK_SEEN_CACHE", str(cache))
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    run(capsys, "enumerate", "--p", "2", "--q", "2", "--r", "2", "--out", str(a))
    assert cache.exists() and json.loads(cache.read_text())
    run(capsys, "enumerate", "--p", "2", "--q", "2", "--r", "2", "--out", str(b))
    assert a.read_bytes() == b.read_bytes()


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
