"""Skeleton tables: a class's graph without its caps, `(atoms, levels,
cylinders)`, is framed and checked once per operation, and each class pays
only for its caps.  Through a warm table every result is the one a fresh
call gives, and the orbit identity of ROADMAP item 17 holds skeleton by
skeleton."""

import dataclasses
import gzip
import json
import math
import random
from fractions import Fraction
from pathlib import Path

import pytest

from mck import morse_graph as mg
from mck.complex_builder import (
    MarkingSpec, ParameterError, build_complex, enumerate_top_classes)

BENCH = Path(__file__).resolve().parent.parent / "bench"


@pytest.fixture(scope="module")
def dump_graphs():
    """The graphs of every class of the four stored benchmark dumps."""
    return [mg.from_json(entry["lmg"])
            for path in sorted((BENCH / "dumps").glob("*.json.gz"))
            for entry in json.loads(gzip.decompress(path.read_bytes()))["classes"]]


def test_one_table_frames_as_fresh_calls_do(dump_graphs):
    # the 1,804 classes in a shuffled order through one table: encodings
    # and framings of `canonicalize` and `canonicalize_mirror` equal those
    # of a fresh call, and so does the skeleton's own encoding and group
    graphs = list(dump_graphs)
    random.Random(5).shuffle(graphs)
    table = mg.SkeletonTable()
    for g in graphs:
        for frame in (mg.canonicalize, mg.canonicalize_mirror,
                      mg.canonical_skeleton):
            assert frame(g, table) == frame(g), frame.__name__
    # the four dumps hold 1,804 classes on 149 skeletons
    assert (len(graphs), len({(g.atoms, g.levels, g.cylinders)
                              for g in graphs})) == (1804, 149)


def _defects(g):
    """(name, broken copy of g) for defects of the caps alone and of the
    skeleton: a cap on a cylinder circle, two caps on one circle, a circle
    left uncapped, a min-disk on an upper circle, a cylinder dropped (the
    same atoms and levels) and the levels reversed (the same atoms and
    cylinders)."""
    caps = list(g.caps)
    mins = [k for k, c in enumerate(caps) if c.kind == "min"]
    maxs = [k for k, c in enumerate(caps) if c.kind == "max"]
    lower_end = g.cylinders[0][1]   # a lower circle that a cylinder uses

    def with_caps(changes):
        new = list(caps)
        for k, circle in changes:
            new[k] = dataclasses.replace(new[k], circle=circle)
        return dataclasses.replace(g, caps=tuple(new))

    yield "cap on a cylinder circle", with_caps([(mins[0], lower_end)])
    yield "duplicate cap circle", with_caps([(mins[1], caps[mins[0]].circle)])
    yield "uncapped circle", dataclasses.replace(g, caps=tuple(caps[1:]))
    yield "min-disk on an upper circle", with_caps(
        [(mins[0], caps[maxs[0]].circle), (maxs[0], caps[mins[0]].circle)])
    yield "cylinder dropped", dataclasses.replace(g, cylinders=g.cylinders[1:])
    yield "levels reversed", dataclasses.replace(g, levels=g.levels[::-1])


def _raised(check):
    with pytest.raises(mg.LMGError) as info:
        check()
    return type(info.value), str(info.value)


def test_warm_table_refuses_what_a_fresh_validation_refuses(dump_graphs):
    # every class with two minima and a cylinder validates through the
    # table, which then holds its skeleton checked; each defect of its caps
    # or of its skeleton raises the error class and message of a
    # validation without a table
    table = mg.SkeletonTable()
    seen = 0
    for g in dump_graphs:
        if g.p < 2 or not g.cylinders:
            continue
        assert mg.validate(g, table) is None
        for name, bad in _defects(g):
            fresh = _raised(lambda: mg.validate(bad))
            assert _raised(lambda: mg.validate(bad, table)) == fresh, name
            if name == "cap on a cylinder circle":
                assert fresh[0] is mg.StructureError
                assert fresh[1].endswith("used twice (cap and cylinder)")
            elif name == "min-disk on an upper circle":
                assert fresh[0] is mg.CapSideError
        seen += 1
    assert seen == 1334


def _orbit_cases():
    """(p, q, r, marked) of every q <= 3 complex under the markings all,
    p,0,r, 1,1,1 and 0,q,0 that `MarkingSpec.check` accepts: 31 of them.
    Item 1's three defective complexes are strict xfails."""
    defective = {(3, 3, 2), (4, 3, 1), (1, 3, 4)}
    for q in (1, 2, 3):
        for p in range(1, q + 2):
            r = q + 2 - p
            for marked in ((p, q, r), (p, 0, r), (1, 1, 1), (0, q, 0)):
                try:
                    MarkingSpec(marked=marked, fixed=(0, 0, 0)).check(p, q, r)
                except ParameterError:
                    continue
                marks = ()
                if marked == (1, 1, 1) and (p, q, r) in defective:
                    marks = pytest.mark.xfail(
                        strict=True, raises=AssertionError,
                        reason="ROADMAP item 1: decode_canonical attaches caps "
                               "to other circles, so the catalog holds other "
                               "classes than its forms name")
                yield pytest.param(p, q, r, marked, marks=marks,
                                   id="%d-%d-%d-%d.%d.%d" % (p, q, r, *marked))


@pytest.mark.parametrize("p, q, r, marked", list(_orbit_cases()))
def test_orbit_identity_on_every_skeleton(p, q, r, marked):
    # Aut(S) acts on X_S, the placements of the marked cap labels on the
    # free circles of skeleton S; its orbits are the classes on S and the
    # stabilizers their groups, so the classes c on S have sum of
    # 1 / |Aut(c)| equal to |X_S| / |Aut(S)|.  Classes are grouped by their
    # skeleton's canonical encoding
    marking = MarkingSpec(marked=marked, fixed=(0, 0, 0))
    K = build_complex(enumerate_top_classes(p, q, r, marking))
    placements = math.perm(p, marked[0]) * math.perm(r, marked[2])
    table = mg.SkeletonTable()
    groups = {}     # skeleton encoding -> [|Aut(S)|, sum of 1 / |Aut(c)|]
    for rec in K.classes:
        enc, order = mg.canonical_skeleton(rec.lmg, table)
        group = groups.setdefault(enc, [order, Fraction(0)])
        assert group[0] == order
        group[1] += Fraction(1, rec.gamma_order)
    wrong = [(order, total) for order, total in groups.values()
             if total != Fraction(placements, order)]
    assert wrong == [], "%d of %d skeletons" % (len(wrong), len(groups))
