"""Ordered set partitions and exact permutohedron face geometry.

Conventions
-----------
The ground set is {1..q}.  An ordered partition J = (J_1, ..., J_s) indexes a
face of the order-q permutohedron: the face's vertices are the points
P_pi = sum_k (k - (q+1)/2) e_{pi_k} over permutations pi whose first |J_1|
values form the set J_1, the next |J_2| values the set J_2, and so on.  In
coordinates, axis j of P_pi holds pi^{-1}(j) - (q+1)/2.

The library names vertices by their permutations; the test oracles hold the
coordinates, doubled (2*pi^{-1}(j) - q - 1) so they stay integers.  Nothing
in this module touches floating point.

Refinement order: J' < J means J' splits blocks of J into ordered runs of
consecutive sub-blocks, equivalently the face of J' is contained in the face
of J.  `sub_blocks` is the one walk that decides it and names the runs.
"""

import functools
import itertools
from dataclasses import dataclass

MAX_ORDER = 8  # desk-scale guard for enumeration


class PartitionError(ValueError):
    """Invalid ordered-partition argument."""


class OrderBoundError(ValueError):
    """Permutohedron order outside the supported range."""


# ---------------------------------------------------------------------------
# Ordered partitions
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class OrderedPartition:
    """Ordered partition of {1..q} into nonempty blocks (order significant)."""

    blocks: tuple  # tuple of frozenset[int]
    q: int

    def __post_init__(self):
        seen = set()
        for b in self.blocks:
            if not b:
                raise PartitionError("empty block")
            if seen & b:
                raise PartitionError("blocks not disjoint")
            seen |= b
        if seen != set(range(1, self.q + 1)):
            raise PartitionError("blocks do not partition the ground set {1..%d}" % self.q)

    @classmethod
    def of(cls, blocks, q=None):
        blocks = tuple(frozenset(b) for b in blocks)
        if q is None:
            q = sum(len(b) for b in blocks)
        return cls(blocks, q)

    @property
    def s(self):
        return len(self.blocks)

    def level_of(self, label):
        """1-based block index of a label."""
        for k, b in enumerate(self.blocks):
            if label in b:
                return k + 1
        raise PartitionError("label %r not in ground set" % (label,))

    def assignment(self):
        """The level-assignment tuple (J(1), ..., J(q)), 1-based."""
        lev = {}
        for k, b in enumerate(self.blocks):
            for x in b:
                lev[x] = k + 1
        return tuple(lev[i] for i in range(1, self.q + 1))

    def key(self):
        """Canonical hashable form: tuple of sorted tuples."""
        return tuple(tuple(sorted(b)) for b in self.blocks)

    def relabel(self, sigma):
        """Apply the label permutation sigma (dict or callable) blockwise."""
        f = sigma if callable(sigma) else sigma.__getitem__
        return OrderedPartition.of([frozenset(f(x) for x in b) for b in self.blocks], self.q)

    def __str__(self):
        return "(" + "|".join(",".join(map(str, sorted(b))) for b in self.blocks) + ")"


def enumerate_partitions(q):
    """All ordered set partitions of {1..q}.

    Deterministic order: lexicographic on the level-assignment tuple
    (J(1), ..., J(q)).  The count is the ordered Bell number.
    """
    if not isinstance(q, int) or q < 1 or q > MAX_ORDER:
        raise OrderBoundError("q must be an integer in 1..%d, got %r" % (MAX_ORDER, q))
    return [OrderedPartition.of(blocks, q)
            for blocks in _ordered_partitions_of_set(range(1, q + 1))]


def sub_blocks(J1, J):
    """Per block of J, the tuple of consecutive J1 blocks partitioning it;
    None unless J1 refines J (J1 <= J)."""
    if J1.q != J.q:
        raise PartitionError("mismatched ground sets")
    groups = []
    i = 0
    for b in J.blocks:
        grp = []
        size = 0
        while size < len(b):
            if i == len(J1.blocks) or not J1.blocks[i] <= b:
                return None
            grp.append(J1.blocks[i])
            size += len(J1.blocks[i])
            i += 1
        groups.append(tuple(grp))
    return tuple(groups)


def refines_eq(J1, J2):
    """Reflexive refinement (J1 <= J2)."""
    return sub_blocks(J1, J2) is not None


def _ordered_partitions_of_set(labels):
    """All ordered partitions of a plain set of labels (any ground set)."""
    labels = sorted(labels)
    n = len(labels)
    out = []

    def extend(prefix, used_max):
        pos = len(prefix)
        if pos == n:
            s = max(prefix)
            out.append(tuple(frozenset(labels[i] for i, v in enumerate(prefix) if v == k)
                             for k in range(1, s + 1)))
            return
        for v in range(1, n + 1):
            new_max = max(used_max, v)
            missing = len([w for w in range(1, new_max + 1) if w != v and w not in prefix])
            if missing <= n - pos - 1:
                extend(prefix + (v,), new_max)

    extend((), 0)
    return out


@functools.cache
def _block_orderings(block):
    """The ordered partitions of one frozen block, computed once per block
    (at most 2^q - 1 distinct blocks)."""
    return tuple(_ordered_partitions_of_set(block))


def refinements(J, proper=False):
    """All J' <= J (splitting each block into an ordered partition of itself).

    With proper=True, J itself is excluded.  Deterministic order.
    """
    per_block = [_block_orderings(b) for b in J.blocks]
    out = []
    for combo in itertools.product(*per_block):
        blocks = tuple(itertools.chain.from_iterable(combo))
        J1 = OrderedPartition.of(blocks, J.q)
        if proper and J1.key() == J.key():
            continue
        out.append(J1)
    return out


def hyperface_refinements(J):
    """Refinements obtained by splitting exactly one block into two."""
    out = []
    for k, b in enumerate(J.blocks):
        if len(b) < 2:
            continue
        members = sorted(b)
        # nonempty proper subsets as the lower sub-block
        for r in range(1, len(members)):
            for lower in itertools.combinations(members, r):
                blocks = (J.blocks[:k]
                          + (frozenset(lower), b - frozenset(lower))
                          + J.blocks[k + 1:])
                out.append(OrderedPartition.of(blocks, J.q))
    return out


# ---------------------------------------------------------------------------
# Faces and exact geometry
# ---------------------------------------------------------------------------

def face_vertices(J):
    """Vertex permutations of the face of J, sorted."""
    pools = [itertools.permutations(sorted(b)) for b in J.blocks]
    verts = []
    for combo in itertools.product(*pools):
        verts.append(tuple(itertools.chain.from_iterable(combo)))
    return tuple(sorted(verts))


# ---------------------------------------------------------------------------
# Induced automorphisms and admissibility
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FaceAutReport:
    """Admissibility of the face map induced by a label permutation."""

    image: OrderedPartition
    stabilizes: bool       # sigma maps the face to itself
    trivial: bool          # fixes the face pointwise
    has_fixed_vertex: bool
    subfaces_ok: bool      # each subface maps to itself or to a disjoint face
    admissible: bool


def induced_face_automorphism(sigma, J):
    """Image of the face of J under the axis permutation sigma, plus an
    admissibility report for the induced self-map when sigma stabilizes it.

    sigma maps the vertex pi to sigma o pi.  Admissible means: trivial, or
    fixed-vertex-free with every subface mapping onto itself or onto a face
    disjoint from it.
    """
    f = sigma if callable(sigma) else sigma.__getitem__
    image = J.relabel(f)
    if image.key() != J.key():
        return image, FaceAutReport(image, False, False, False, False, False)
    verts = face_vertices(J)
    moved = {pi: tuple(f(x) for x in pi) for pi in verts}
    trivial = all(moved[pi] == pi for pi in verts)
    fixed = any(moved[pi] == pi for pi in verts)
    subfaces_ok = True
    if not trivial:
        for sub in refinements(J):
            sub_img = sub.relabel(f)
            if sub_img.key() == sub.key():
                continue
            a = frozenset(face_vertices(sub))
            b = frozenset(face_vertices(sub_img))
            if a & b:
                subfaces_ok = False
                break
    admissible = trivial or (not fixed and subfaces_ok)
    return image, FaceAutReport(image, True, trivial, fixed, subfaces_ok, admissible)


# ---------------------------------------------------------------------------
# DOT export of the face poset
# ---------------------------------------------------------------------------

def face_poset_dot(q):
    """Graphviz DOT of the face poset; edges are covering relations of
    refinement (split one block into two)."""
    parts = enumerate_partitions(q)
    name = {J.key(): "f%d" % i for i, J in enumerate(parts)}
    lines = ["digraph face_poset {", '  rankdir="BT";']
    for J in parts:
        lines.append('  %s [label="%s"];' % (name[J.key()], str(J)))
    for J in parts:
        for H in hyperface_refinements(J):
            lines.append("  %s -> %s;" % (name[H.key()], name[J.key()]))
    lines.append("}")
    return "\n".join(lines) + "\n"
