import hashlib
import itertools
import math
import re
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mck import linalg
from mck.permutohedron import (
    PartitionError, OrderBoundError, enumerate_partitions, chain_predecessor,
    face_poset_dot, face_str, merged, refinements, sub_blocks,
)
from mck.twist_algebra import _face_admissible
from oracles import (
    ZeroCochain, assignment, coarsenings, composition_signature, covers,
    face_of, face_vertices, induced_face_admissible, partition_of_values,
    refines, refines_eq, relabel,
)


def ordered_bell(n):
    """Independent oracle: a(n) = sum_k C(n,k) a(n-k)."""
    a = [1]
    for m in range(1, n + 1):
        a.append(sum(math.comb(m, k) * a[m - k] for k in range(1, m + 1)))
    return a[n]


# ---------------------------------------------------------------------------
# enumeration
# ---------------------------------------------------------------------------

def test_q1_single_partition():
    parts = enumerate_partitions(1)
    assert len(parts) == 1
    assert parts[0] == ((1,),)


def test_q2_count_and_contents():
    parts = enumerate_partitions(2)
    assert len(parts) == 3
    assert set(parts) == {((1, 2),), ((1,), (2,)), ((2,), (1,))}


def test_q3_count_matches_brute_force():
    # brute force: all surjections {1..3} -> {1..s} via raw product
    count = 0
    for a in itertools.product(range(1, 4), repeat=3):
        s = max(a)
        if set(a) == set(range(1, s + 1)):
            count += 1
    assert count == 13
    assert len(enumerate_partitions(3)) == 13


@pytest.mark.parametrize("q", range(1, 7))
def test_counts_match_ordered_bell(q):
    assert len(enumerate_partitions(q)) == ordered_bell(q)


def test_enumeration_deterministic_and_duplicate_free():
    parts = enumerate_partitions(4)
    assert len(set(parts)) == len(parts)
    assert parts == enumerate_partitions(4)
    # the one form: blocks are nonempty sorted tuples of labels
    assert all(type(b) is tuple and b and list(b) == sorted(b)
               for J in parts for b in J)
    # lexicographic on the assignment tuple
    assignments = [assignment(J) for J in parts]
    assert assignments == sorted(assignments)


def test_bounds_error():
    with pytest.raises(OrderBoundError):
        enumerate_partitions(0)
    with pytest.raises(OrderBoundError):
        enumerate_partitions(9)


# ---------------------------------------------------------------------------
# faces
# ---------------------------------------------------------------------------

def test_face_of_top_q3_is_hexagon():
    J = ((1, 2, 3),)
    face = face_of(J)
    assert face.dim == 2
    assert len(face.vertices) == 6  # q! vertices


def test_face_of_vertex_q2():
    J = ((1,), (2,))
    face = face_of(J)
    assert face.dim == 0
    assert len(face.vertices) == 1


def test_face_of_q4_square():
    # permutations with first two values {1,3}: oracle by direct filter
    J = ((1, 3), (2, 4))
    expected = [pi for pi in itertools.permutations((1, 2, 3, 4))
                if set(pi[:2]) == {1, 3}]
    face = face_of(J)
    assert face.dim == 2
    assert len(face.vertices) == 4
    assert sorted(face.vertices) == sorted(expected)


@pytest.mark.parametrize("q", [2, 3, 4])
def test_face_dim_is_affine_rank(q):
    for J in enumerate_partitions(q):
        face = face_of(J)
        assert face.dim == q - len(J)
        assert linalg.affine_rank([list(map(Fraction, c)) for c in face.coords]) \
            == face.dim


def test_vertex_coordinates_exact_and_doubled():
    face = face_of(((1, 2, 3),))
    offsets = {2 * k - 4 for k in range(1, 4)}  # 2k - (q+1) with q = 3
    for coords in face.coords:
        assert all(isinstance(c, int) for c in coords)
        assert set(coords) == offsets
        assert sum(coords) == 0  # hyperplane orthogonal to (1, .., 1)


def test_total_face_count_is_partition_count():
    for q in (2, 3, 4):
        faces = {face_of(J).vertex_set() for J in enumerate_partitions(q)}
        assert len(faces) == len(enumerate_partitions(q))


# ---------------------------------------------------------------------------
# refinement
# ---------------------------------------------------------------------------

def test_refines_examples():
    a = ((1,), (2,))
    b = ((1, 2),)
    c = ((2,), (1,))
    assert refines(a, b)
    assert refines(c, b)
    assert not refines(c, a)
    assert not refines(a, c)
    assert refines_eq(a, a)
    # a partition of another ground set refines none of {1, 2}
    assert not refines(a, ((1,), (2,), (3,)))


def test_refines_matches_geometric_containment_q5():
    rng = random.Random(20240)
    parts = enumerate_partitions(5)
    for _ in range(150):
        J1, J2 = rng.choice(parts), rng.choice(parts)
        geometric = frozenset(face_vertices(J1)) <= frozenset(face_vertices(J2))
        assert refines_eq(J1, J2) == geometric


def test_sub_blocks():
    J = ((1, 2, 3),)
    J1 = ((2,), (1, 3))
    assert sub_blocks(J1, J) == (((2,), (1, 3)),)
    assert sub_blocks(J, J1) is None
    assert sub_blocks(J, J) == (((1, 2, 3),),)
    # mismatched ground sets: no refinement, and no error
    assert sub_blocks(J, ((1,), (2,))) is None
    # the groups concatenate to J1 and each unites to its block of J
    for Jt in enumerate_partitions(4):
        for Jr in enumerate_partitions(4):
            groups = sub_blocks(Jr, Jt)
            assert (groups is not None) == (frozenset(face_vertices(Jr))
                                            <= frozenset(face_vertices(Jt)))
            if groups is not None:
                assert sum(groups, ()) == Jr
                assert all(sorted(sum(grp, ())) == list(b)
                           for grp, b in zip(groups, Jt))


def test_refinements_and_coarsenings_are_inverse_relations():
    for J in enumerate_partitions(3):
        for J1 in [J, *refinements(J)]:
            assert refines_eq(J1, J)
        for J2 in coarsenings(J):
            assert refines_eq(J, J2)


def test_merged_undoes_exactly_one_cover_split():
    # a cover H of J splits one block of J in two: merging those two blocks
    # gives J back, and merging any two adjacent blocks of H gives a face
    # that H covers
    for J in enumerate_partitions(4):
        for H in covers(J):
            assert [merged(H, k) for k in range(len(H) - 1)].count(J) == 1
            assert all(H in covers(merged(H, k)) for k in range(len(H) - 1))
    J = ((2,), (1, 3))
    assert merged(J, 0) == ((1, 2, 3),)
    for k in (-1, 1):
        with pytest.raises(PartitionError):
            merged(J, k)


def test_chain_predecessor_merges_the_last_divided_block():
    J = ((1, 2, 3), (4, 5))
    target = ((2,), (1,), (3,), (5,), (4,))
    assert face_str(chain_predecessor(J, target)) == "(2|1|3|4,5)"
    target = ((2,), (1,), (3,), (4, 5))
    assert face_str(chain_predecessor(J, target)) == "(2|1,3|4,5)"
    for bad in (J, ((4,), (1, 2, 3), (5,))):
        with pytest.raises(PartitionError, match="not a proper refinement"):
            chain_predecessor(J, bad)


# ---------------------------------------------------------------------------
# composition signatures (face-poset injectivity above a fixed face)
# ---------------------------------------------------------------------------

def test_signature_examples():
    assert composition_signature(((1, 3), (2,))) == (2, 1)
    assert composition_signature(((2,), (1, 3))) == (1, 2)


@pytest.mark.parametrize("q", range(1, 7))
def test_signature_injective_above_every_face(q):
    for Jhat in enumerate_partitions(q):
        seen = {}
        for J in coarsenings(Jhat):
            sig = composition_signature(J)
            assert sig not in seen, (Jhat, J, seen[sig])
            seen[sig] = J


# ---------------------------------------------------------------------------
# evaluating 0-cochains
# ---------------------------------------------------------------------------

def test_partition_of_values_example():
    c = ZeroCochain.of({1: Fraction(3, 10), 2: Fraction(1, 10), 3: Fraction(3, 10)})
    J, s = partition_of_values(c)
    assert J == ((2,), (1, 3))
    assert s == 2


def test_partition_of_values_constant():
    J, s = partition_of_values({1: 1, 2: 1, 3: 1, 4: 1})
    assert s == 1 and J == ((1, 2, 3, 4),)


@given(st.lists(st.fractions(min_value=-5, max_value=5), min_size=1, max_size=6),
       st.randoms(use_true_random=False))
@settings(max_examples=150, deadline=None)
def test_small_perturbations_only_refine(values, rng):
    c = ZeroCochain.of(values)
    J, s = partition_of_values(c)
    distinct = sorted(set(c.values))
    gap = min((b - a for a, b in zip(distinct, distinct[1:])), default=Fraction(1))
    eps = gap / 2
    perturbed = [v + Fraction(rng.randint(-999, 999), 2000) * eps
                 for v in c.values]
    J1, _ = partition_of_values(ZeroCochain.of(perturbed))
    assert refines_eq(J1, J)


def test_every_refinement_is_realized():
    c = ZeroCochain.of({1: Fraction(0), 2: Fraction(0), 3: Fraction(1)})
    J, _ = partition_of_values(c)
    for Jhat in [J, *refinements(J)]:
        realized = realize_refinement(c, J, Jhat)
        J2, _ = partition_of_values(realized)
        assert J2 == Jhat


def realize_refinement(c, J, Jhat, eps=None):
    """Exact rational perturbation of c whose value partition is Jhat <= J."""
    distinct = sorted(set(c.values))
    gap = min((b - a for a, b in zip(distinct, distinct[1:])), default=Fraction(1))
    if eps is None:
        eps = gap / 2
    sub_rank = {x: rank for grp in sub_blocks(Jhat, J)
                for rank, b in enumerate(grp) for x in b}
    q = c.q
    return ZeroCochain.of([c.values[x - 1] + eps * Fraction(sub_rank[x], q + 1)
                           for x in range(1, q + 1)])


# ---------------------------------------------------------------------------
# induced automorphisms
# ---------------------------------------------------------------------------

def test_identity_is_trivially_admissible():
    J = ((1, 2), (3,))
    sigma = {1: 1, 2: 2, 3: 3}
    assert relabel(J, sigma) == J
    assert _face_admissible(sigma, J) and induced_face_admissible(sigma, J)
    # the identity fixes every vertex of the face
    verts = face_vertices(J)
    assert all(tuple(sigma[x] for x in pi) == pi for pi in verts)


def test_swap_on_segment_is_admissible():
    J = ((1, 2),)
    sigma = {1: 2, 2: 1}
    assert relabel(J, sigma) == J
    assert _face_admissible(sigma, J) and induced_face_admissible(sigma, J)
    # the two vertices of the segment are swapped: no vertex is fixed
    verts = face_vertices(J)
    images = [tuple(sigma[x] for x in pi) for pi in verts]
    assert set(images) == set(verts)
    assert all(image != pi for pi, image in zip(verts, images))


def test_non_stabilizing_permutation_reports_image():
    J = ((1,), (2,))
    sigma = {1: 2, 2: 1}
    assert relabel(J, sigma) == ((2,), (1,))
    assert not _face_admissible(sigma, J)
    assert not induced_face_admissible(sigma, J)


def test_face_check_matches_vertex_oracle():
    # every (sigma, J) with q <= 4: the stabilizer check's face predicate
    # against the admissibility read off the face's vertices
    pairs = stabilizing = 0
    for q in range(1, 5):
        parts = enumerate_partitions(q)
        for perm in itertools.permutations(range(1, q + 1)):
            sigma = dict(zip(range(1, q + 1), perm))
            for J in parts:
                ok = induced_face_admissible(sigma, J)
                assert _face_admissible(sigma, J) == ok, (sigma, J)
                pairs += 1
                stabilizing += ok
    assert pairs == 1885
    assert 0 < stabilizing < pairs


@pytest.mark.parametrize("q", [3, 4, 5])
def test_stabilizing_permutations_always_admissible(q):
    # random blockwise permutations, reaching q = 5 beyond the exhaustive
    # comparison above
    rng = random.Random(q * 101)
    parts = enumerate_partitions(q)
    checked = 0
    for J in parts:
        for _ in range(4):
            perm = {}
            for b in J:
                items = list(b)
                shuffled = items[:]
                rng.shuffle(shuffled)
                perm.update(dict(zip(items, shuffled)))
            assert induced_face_admissible(perm, J)
            assert _face_admissible(perm, J)
            checked += 1
    assert checked > 0


# ---------------------------------------------------------------------------
# DOT export
# ---------------------------------------------------------------------------

def test_face_poset_dot_shape():
    dot = face_poset_dot(2)
    assert dot.startswith("digraph face_poset")
    assert dot.count("->") == 2  # two vertices under the segment
    assert '(1,2)' in dot and '(1|2)' in dot and '(2|1)' in dot


# sha256 of face_poset_dot(q), q = 1..6, as the edges were first written:
# each face lists the covers into it by split block, then by the size and
# the members of the lower sub-block
FACE_POSET_SHA256 = (
    "90a8232855b16ddffd302280fcf4fe562df1a95bbd08db9def78ec94bbab3314",
    "f9d1ceb3d3ccb38c7cfd5188cd1fe704996e9be2a3ab6d0e3405d7ff6b4e62c2",
    "5be4b365ef4eeec6f2d3cc456e751cddf6f3ba248401e3c3db020d539e65d784",
    "5ae95de8fc451895c5a81d0b93d1196cfeaf8661d25a3cea3d0d4634c32c8baf",
    "426462594da4a9ad9beb026d03cebe334b373cee8a3f67d8e4e74af891eaa95c",
    "5d450347d33823d8f7d42dc558cef93ca0917e61adde70cc26ef46495ea7d743",
)


@pytest.mark.parametrize("q", range(1, 7))
def test_face_poset_dot_bytes_pinned(q):
    dot = face_poset_dot(q).encode()
    assert hashlib.sha256(dot).hexdigest() == FACE_POSET_SHA256[q - 1]


@pytest.mark.parametrize("q", range(1, 5))
def test_face_poset_dot_edges_are_the_covers(q):
    # the edges, read back through the node labels, are the cover relation
    # found by brute force, each once
    dot = face_poset_dot(q)
    label = dict(re.findall(r'^  (f\d+) \[label="(.*)"\];$', dot, re.M))
    edges = [(label[h], label[j])
             for h, j in re.findall(r"^  (f\d+) -> (f\d+);$", dot, re.M)]
    assert len(edges) == dot.count("->") == len(set(edges))
    assert set(edges) == {(face_str(H), face_str(J))
                          for J in enumerate_partitions(q) for H in covers(J)}
