import dataclasses
import gzip
import itertools
import json
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import fig8, group_of
from oracles import circle_images, matchings, to_doc
from mck.cli import to_dot
from mck.complex_builder import MarkingSpec, _top_forms
from mck.morse_graph import (
    Atom, Cap, LMG, CapSideError, CylinderLevelError, DisconnectedError,
    EulerCountError, LabelCollisionError, LMGJSONError,
    NonAlternatingError, StructureError, UnmatchedDartError,
    automorphisms, canonical_form, canonicalize, canonicalize_mirror,
    components, decode_canonical, dual, form_bytes, from_json, mirror, to_json, trace_cycles, validate,
)

# a one-level q=3 class that is neither mirror-symmetric nor has any
# nontrivial structure automorphism (found by exhaustive search, frozen)
CHIRAL_Q3 = ('{"atoms":[{"darts":12,"edges":[[0,3],[2,9],[4,1],[6,5],[8,11],'
             '[10,7]],"saddles":[1,2,3]}],"caps":['
             '{"circle":[0,0],"fixed":false,"kind":"min","label":1,"marked":true},'
             '{"circle":[0,1],"fixed":false,"kind":"min","label":2,"marked":true},'
             '{"circle":[0,2],"fixed":false,"kind":"min","label":3,"marked":true},'
             '{"circle":[0,3],"fixed":false,"kind":"min","label":4,"marked":true},'
             '{"circle":[0,4],"fixed":false,"kind":"max","label":1,"marked":true}],'
             '"cylinders":[],"fixed_saddles":[],"levels":[[0]],'
             '"marked_saddles":[1,2,3],"p":4,"q":3,"r":1}')

GOLDEN_DOT_Q2 = """digraph lmg {
  rankdir="BT";
  subgraph cluster_level_1 {
    label="level 1";
    s1 [label="s1+" shape=circle];
  }
  subgraph cluster_level_2 {
    label="level 2";
    s2 [label="s2+" shape=circle];
  }
  s1 -> s1 [label="e0.0"];
  s1 -> s1 [label="e0.1"];
  s2 -> s2 [label="e1.0"];
  s2 -> s2 [label="e1.1"];
  min1 [label="min1+" shape=invtriangle];
  min1 -> s1 [style=dotted arrowhead=none label="c0.0"];
  min2 [label="min2+" shape=invtriangle];
  min2 -> s1 [style=dotted arrowhead=none label="c0.1"];
  max1 [label="max1+" shape=triangle];
  s2 -> max1 [style=dotted arrowhead=none label="c1.1"];
  max2 [label="max2+" shape=triangle];
  s2 -> max2 [style=dotted arrowhead=none label="c1.2"];
  s1 -> s2 [style=dashed label="Z1"];
}
"""


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------

def _shape(g):
    """(s, t, n, p, r, min labels, max labels) of a graph."""
    return (len(g.levels), len(g.atoms), len(g.cylinders), g.p, g.r,
            sorted(c.label for c in g.caps if c.kind == "min"),
            sorted(c.label for c in g.caps if c.kind == "max"))


def test_fig8_validates(fig8_lmg):
    assert validate(fig8_lmg) is None
    assert _shape(fig8_lmg) == (1, 1, 0, 2, 1, [1, 2], [1])


def test_two_level_example_validates(q2_two_level):
    g = q2_two_level
    assert validate(g) is None
    assert _shape(g) == (2, 2, 1, 2, 2, [1, 2], [1, 2])
    levels = g.atom_levels()
    assert [(levels[lo[0]], levels[hi[0]]) for lo, hi in g.cylinders] == [(1, 2)]


def test_edge_and_dart_bookkeeping(q2_two_level):
    g = q2_two_level
    assert sum(len(a.edges) for a in g.atoms) == 2 * g.q
    assert sum(4 * len(a.saddles) for a in g.atoms) == 4 * g.q
    # every edge-side on exactly one circle
    for atom in g.atoms:
        sides = sum(len(cyc) for _, cyc in atom.circles)
        assert sides == 2 * len(atom.edges)


def test_euler_count_error_on_torus():
    # two one-saddle atoms joined by two cylinders close up a torus
    atom0 = Atom.of([1], [((1, 0), (1, 1)), ((1, 2), (1, 3))])  # 1 lower, 2 upper
    atom1 = Atom.of([2], [((2, 0), (2, 3)), ((2, 2), (2, 1))])  # 2 lower, 1 upper
    caps = (Cap(circle=(0, 0), kind="min", label=1, marked=True, fixed=False),
            Cap(circle=(1, 2), kind="max", label=1, marked=True, fixed=False))
    g = LMG(q=2, p=1, r=1, levels=((0,), (1,)), atoms=(atom0, atom1),
            caps=caps, cylinders=(((0, 1), (1, 0)), ((0, 2), (1, 1))),
            marked_saddles=frozenset({1, 2}), fixed_saddles=frozenset())
    with pytest.raises(EulerCountError):
        validate(g)


def test_disconnected_error():
    # a torus component beside a sphere component: Euler count passes
    atom0 = Atom.of([1], [((1, 0), (1, 1)), ((1, 2), (1, 3))])
    atom1 = Atom.of([2], [((2, 0), (2, 3)), ((2, 2), (2, 1))])
    atom2 = Atom.of([3], [((3, 0), (3, 3)), ((3, 2), (3, 1))])
    caps = (Cap(circle=(0, 0), kind="min", label=1, marked=True, fixed=False),
            Cap(circle=(1, 2), kind="max", label=1, marked=True, fixed=False),
            Cap(circle=(2, 0), kind="min", label=2, marked=True, fixed=False),
            Cap(circle=(2, 1), kind="min", label=3, marked=True, fixed=False),
            Cap(circle=(2, 2), kind="max", label=2, marked=True, fixed=False))
    g = LMG(q=3, p=3, r=2, levels=((0, 2), (1,)), atoms=(atom0, atom1, atom2),
            caps=caps, cylinders=(((0, 1), (1, 0)), ((0, 2), (1, 1))),
            marked_saddles=frozenset({1, 2, 3}), fixed_saddles=frozenset())
    with pytest.raises(DisconnectedError):
        validate(g)


def test_non_alternating_error():
    with pytest.raises(NonAlternatingError):
        Atom.of([1], [((1, 0), (1, 2)), ((1, 1), (1, 3))]).check()


def test_unmatched_dart_error():
    with pytest.raises(UnmatchedDartError):
        Atom.of([1], [((1, 0), (1, 1)), ((1, 0), (1, 3))]).check()


def test_cylinder_level_error(q2_two_level):
    g = q2_two_level
    flat = dataclasses.replace(g, levels=((0, 1),))
    with pytest.raises(CylinderLevelError):
        validate(flat)


def test_cap_side_error(fig8_lmg):
    g = fig8_lmg
    bad = dataclasses.replace(g, caps=(
        Cap(circle=(0, 0), kind="min", label=1, marked=True, fixed=False),
        Cap(circle=(0, 1), kind="max", label=1, marked=True, fixed=False),
        Cap(circle=(0, 2), kind="min", label=2, marked=True, fixed=False)))
    with pytest.raises(CapSideError):
        validate(bad)


def test_label_collision_error(fig8_lmg):
    g = fig8_lmg
    bad = dataclasses.replace(g, caps=(
        Cap(circle=(0, 0), kind="min", label=1, marked=True, fixed=False),
        Cap(circle=(0, 1), kind="min", label=1, marked=True, fixed=False),
        g.caps[2]))
    with pytest.raises(LabelCollisionError):
        validate(bad)


def test_double_capped_circle_is_reported(fig8_lmg):
    g = fig8_lmg
    bad = dataclasses.replace(g, caps=g.caps + (
        Cap(circle=(0, 2), kind="max", label=2, marked=True, fixed=False),))
    with pytest.raises(StructureError):
        validate(bad)


# ---------------------------------------------------------------------------
# canonical forms
# ---------------------------------------------------------------------------

def test_unmarked_relabeling_same_form():
    g = fig8(marked_minima=False)
    swapped = dataclasses.replace(g, caps=(
        Cap(circle=(0, 0), kind="min", label=2, marked=False, fixed=False),
        Cap(circle=(0, 1), kind="min", label=1, marked=False, fixed=False),
        g.caps[2]))
    assert canonical_form(g) == canonical_form(swapped)


def test_marked_relabeling_differs_only_up_to_symmetry(fig8_lmg):
    # swapping the two marked minima is realized by the loop swap, so the
    # class is unchanged even though labels are pinned
    g = fig8_lmg
    swapped = dataclasses.replace(g, caps=(
        Cap(circle=(0, 0), kind="min", label=2, marked=True, fixed=False),
        Cap(circle=(0, 1), kind="min", label=1, marked=True, fixed=False),
        g.caps[2]))
    assert canonical_form(g) == canonical_form(swapped)


def test_mirror_changes_chiral_class():
    g = from_json(CHIRAL_Q3)
    validate(g)
    assert canonical_form(mirror(g)) != canonical_form(g)
    assert canonical_form(mirror(mirror(g))) == canonical_form(g)


def test_mirror_fixes_achiral_class(fig8_lmg):
    assert canonical_form(mirror(fig8_lmg)) == canonical_form(fig8_lmg)


def test_dual_is_an_involution(q2_two_level):
    g = q2_two_level
    d = dual(g)
    assert validate(d) is None
    assert (d.p, d.r) == (g.r, g.p)
    assert canonical_form(dual(d)) == canonical_form(g)


@pytest.mark.parametrize("scoped", [False, True], ids=["no-scope", "in-scope"])
def test_mirror_and_dual_are_involutions_on_every_class(
        complex_q1, complexes_q2, complexes_q3, scoped):
    # every class of the q <= 3 all-marked complexes, on the interned atoms
    # with the mirrors and duals each keeps, and on plain `Atom.of` copies
    # that keep nothing
    recs = [rec for K in (complex_q1, *complexes_q2.values(),
                          *complexes_q3.values()) for rec in K.classes]
    for rec in recs:
        g = rec.lmg
        if not scoped:
            g = dataclasses.replace(g, atoms=tuple(
                Atom.of(a.saddles, a.edges) for a in g.atoms))
            assert all(a is not b for a, b in zip(g.atoms, rec.lmg.atoms))
        assert canonical_form(mirror(mirror(g))) == rec.canonical
        d = dual(g)
        assert (d.p, d.r, d.q) == (g.r, g.p, g.q)
        assert canonical_form(dual(d)) == rec.canonical


def test_canonical_decode_idempotent(fig8_lmg, q2_two_level):
    for g in (fig8_lmg, q2_two_level, from_json(CHIRAL_Q3)):
        cf = canonical_form(g)
        assert canonical_form(decode_canonical(cf)) == cf


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="decode_canonical attaches caps and cylinders by the "
                          "encoding's circle indices, which differ from the "
                          "rebuilt atom's when decoded labels do not increase "
                          "in discovery order: 44 of the 66 forms fail")
def test_decode_round_trip_partially_marked():
    # the (3, 3, 2) catalog marked 1,1,1 decodes each form of the scan;
    # atoms of one orbit of the full matching scan repeat their forms
    marking = MarkingSpec(marked=(1, 1, 1), fixed=(0, 0, 0))
    forms = set(_top_forms(3, 3, 2, marking, list(matchings((1, 2, 3)))))
    assert [cf for cf in sorted(forms)
            if canonical_form(decode_canonical(cf)) != cf] == []


# ---------------------------------------------------------------------------
# automorphisms
# ---------------------------------------------------------------------------

def test_fig8_automorphisms_marked_vs_unmarked(fig8_lmg):
    assert len(group_of(fig8_lmg)) == 1  # marked minima pin the loops
    free_g = fig8(marked_minima=False)
    auts = group_of(free_g)
    assert len(auts) == 2
    swap = next(a for a in auts if not a.is_identity())
    # the loop swap permutes the two min caps without fixing either
    cmap = circle_images(free_g, swap)
    assert cmap[(0, 0)] == (0, 1) and cmap[(0, 1)] == (0, 0)


def test_identity_always_present(q2_two_level):
    auts = group_of(q2_two_level)
    assert auts[0].is_identity()


def test_asymmetric_q3_has_trivial_group():
    g = from_json(CHIRAL_Q3)
    assert len(group_of(g)) == 1


def test_group_closure_under_composition():
    g = fig8(marked_minima=False)
    auts = group_of(g)
    maps = [a.darts for a in auts]
    for a, b in itertools.product(auts, repeat=2):
        assert {d: b.darts[e] for d, e in a.darts.items()} in maps


def test_identity_group_built_directly_equals_the_composed_one():
    # one winning framing: the group is the identity alone, built without
    # composing; it equals the framing composed with itself (what the
    # general path gives for two equal framings), entry order included, on
    # every such class of the four stored bench dumps
    bench = Path(__file__).resolve().parents[1] / "bench" / "dumps"
    trivial = total = 0
    for path in sorted(bench.glob("*.json.gz")):
        for entry in json.loads(gzip.decompress(path.read_bytes()))["classes"]:
            total += 1
            g = from_json(entry["lmg"])
            framings = canonicalize(g)[1]
            if len(framings) > 1:
                continue
            trivial += 1
            (direct,) = automorphisms(g, framings)
            composed = automorphisms(g, framings * 2)[0]
            assert direct == composed
            for field in ("darts", "saddles"):
                assert (list(getattr(direct, field).items())
                        == list(getattr(composed, field).items()))
    assert (trivial, total) == (1709, 1804)


def test_form_bytes_equal_the_stdlib_encoding():
    # the form encoder tracks no cycles; on the encodings and the mirror
    # encodings of every class of the four stored bench dumps its bytes
    # equal those of the stdlib's default, cycle-tracking encoder
    bench = Path(__file__).resolve().parents[1] / "bench" / "dumps"
    count = 0
    for path in sorted(bench.glob("*.json.gz")):
        for entry in json.loads(gzip.decompress(path.read_bytes()))["classes"]:
            g = from_json(entry["lmg"])
            for enc in (canonicalize(g)[0], canonicalize_mirror(g)[0]):
                assert form_bytes(enc) == json.dumps(
                    enc, separators=(",", ":")).encode("ascii")
            count += 1
    assert count == 1804


def test_automorphisms_are_hashable_and_read_only():
    g = fig8(marked_minima=False)
    auts = group_of(g)
    assert len(set(auts)) == len(auts) == 2
    assert set(auts) == set(group_of(g))
    with pytest.raises(TypeError):
        auts[1].darts[(0, 0)] = (0, 0)


def test_automorphisms_fix_cylinder_level_pairs(q2_two_level):
    g = q2_two_level
    levels = g.atom_levels()
    for phi in group_of(g):
        for k, (lo, hi) in enumerate(g.cylinders):
            k2 = phi.cylinders[k]
            lo2, hi2 = g.cylinders[k2]
            assert levels[lo[0]] == levels[lo2[0]]
            assert levels[hi[0]] == levels[hi2[0]]


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def test_json_roundtrip(fig8_lmg, q2_two_level):
    for g in (fig8_lmg, q2_two_level):
        assert canonical_form(from_json(to_json(g))) == canonical_form(g)
        assert from_json(json.loads(to_json(g))) == from_json(to_json(g))
        # the document that catalogs and dumps embed is the one to_json writes
        assert to_doc(g) == json.loads(to_json(g))


def test_to_json_is_the_dumped_document(fig8_lmg, q2_two_level):
    # the graph templates against the document built as dicts and lists and
    # serialized by json: marked and unmarked caps, a fixed cap and saddle,
    # two levels joined by a cylinder and a three-saddle atom
    caps = fig8_lmg.caps
    fixed = dataclasses.replace(
        fig8_lmg, caps=(dataclasses.replace(caps[0], fixed=True), *caps[1:]),
        fixed_saddles=frozenset({1}))
    for g in (fig8_lmg, fig8(False, False), fixed, q2_two_level,
              dual(q2_two_level), from_json(CHIRAL_Q3)):
        validate(g)
        assert to_json(g) == json.dumps(to_doc(g), separators=(",", ":"),
                                        sort_keys=True)


def test_missing_key_is_a_parse_error(q2_two_level):
    doc = json.loads(to_json(q2_two_level))
    del doc["cylinders"]
    with pytest.raises(LMGJSONError) as err:
        from_json(json.dumps(doc))
    assert "cylinders" in str(err.value)


def test_invalid_json_is_a_parse_error():
    with pytest.raises(LMGJSONError):
        from_json("{not json")
    with pytest.raises(LMGJSONError):
        from_json("5")
    with pytest.raises(LMGJSONError):
        from_json(b"\xff\xfe{\x00}\x00")
    with pytest.raises(LMGJSONError):
        from_json("[" * 200000)
    # an already decoded document must be an object too
    with pytest.raises(LMGJSONError):
        from_json([1])
    with pytest.raises(LMGJSONError):
        from_json(5)


@pytest.mark.parametrize("bad", [[0], [0, 1, 2], [0, "1"], [0, 1.0], 7, None])
def test_circle_reference_must_be_an_int_pair(q2_two_level, bad):
    for path in (("caps", 0, "circle"), ("cylinders", 0, 1)):
        doc = json.loads(to_json(q2_two_level))
        *parents, last = path
        node = doc
        for key in parents:
            node = node[key]
        node[last] = bad
        with pytest.raises(LMGJSONError):
            from_json(json.dumps(doc))


def test_dot_golden_q2(q2_two_level):
    assert to_dot(q2_two_level) == GOLDEN_DOT_Q2


# ---------------------------------------------------------------------------
# graph primitives
# ---------------------------------------------------------------------------

@given(st.integers(min_value=0, max_value=12).flatmap(
    lambda n: st.tuples(st.permutations(range(n)), st.permutations(range(n)))))
@settings(max_examples=200, deadline=None)
def test_trace_cycles_partitions_a_permutation(perm_and_starts):
    succ, starts = perm_and_starts
    cycles = trace_cycles(succ, starts)
    flat = [x for cyc in cycles for x in cyc]
    assert sorted(flat) == list(range(len(succ)))
    for cyc in cycles:
        assert [succ[x] for x in cyc] == cyc[1:] + cyc[:1]
    # each cycle begins at the first start not covered by an earlier cycle
    covered = set()
    heads = []
    for x in starts:
        if x not in covered:
            heads.append(x)
            covered |= set(next(c for c in cycles if x in c))
    assert [cyc[0] for cyc in cycles] == heads


def _reachable(nodes, pairs, v):
    out = {v}
    grew = True
    while grew:
        grew = False
        for a, b in pairs:
            if (a in out) != (b in out):
                out |= {a, b}
                grew = True
    return [x for x in nodes if x in out]


@given(st.integers(min_value=0, max_value=9).flatmap(
    lambda n: st.tuples(
        st.permutations(range(n)),
        st.lists(st.tuples(st.integers(0, max(n - 1, 0)),
                           st.integers(0, max(n - 1, 0))),
                 max_size=12 if n else 0))))
@settings(max_examples=200, deadline=None)
def test_components_match_naive_reachability(graph):
    nodes, pairs = graph
    expected = []
    for v in nodes:
        if not any(v in comp for comp in expected):
            expected.append(_reachable(nodes, pairs, v))
    assert components(nodes, pairs) == expected
