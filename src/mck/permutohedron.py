"""Ordered set partitions and the face poset of the permutohedron.

The ground set is {1..q}.  An ordered partition J = (J_1, ..., J_s) indexes a
face of the order-q permutohedron, of dimension q - s; the test oracles spell
out its vertices.  Nothing in this module touches floating point.

Refinement order: J' < J means J' splits blocks of J into ordered runs of
consecutive sub-blocks, equivalently the face of J' is contained in the face
of J.  `sub_blocks` is the one walk that decides it and names the runs,
`refinements` the one generator, and `merged` undoes a cover (hyperface).
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

    def key(self):
        """Canonical hashable form: tuple of sorted tuples."""
        return tuple(tuple(sorted(b)) for b in self.blocks)

    def relabel(self, sigma):
        """Apply the label permutation sigma (dict or callable) blockwise."""
        f = sigma if callable(sigma) else sigma.__getitem__
        return OrderedPartition.of([frozenset(f(x) for x in b) for b in self.blocks], self.q)

    def merged(self, k):
        """The face this one covers by splitting its block k: blocks k and
        k + 1 joined, the inverse of a cover split."""
        b = self.blocks
        if not 0 <= k < len(b) - 1:
            raise PartitionError("no blocks %d and %d to merge" % (k, k + 1))
        return OrderedPartition(b[:k] + (b[k] | b[k + 1],) + b[k + 2:], self.q)

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


def chain_predecessor(J, target):
    """The refinement of J that a proper refinement `target` covers: the
    last block of J that `target` divides gets its last two target
    sub-blocks merged back, and every other block keeps its target
    sub-blocks.  It is J itself when `target` covers J, and `refinements`
    lists it before `target`."""
    groups = sub_blocks(target, J)
    if groups is None or len(groups) == target.s:
        raise PartitionError("%s is not a proper refinement of %s" % (target, J))
    k = max(i for i, grp in enumerate(groups) if len(grp) > 1)
    return target.merged(sum(map(len, groups[:k + 1])) - 2)


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


def refinements(J):
    """All proper refinements J' < J (each block split into an ordered
    partition of itself).  Deterministic order."""
    per_block = [_block_orderings(b) for b in J.blocks]
    out = []
    for combo in itertools.product(*per_block):
        blocks = tuple(itertools.chain.from_iterable(combo))
        J1 = OrderedPartition.of(blocks, J.q)
        if J1.key() != J.key():
            out.append(J1)
    return out


# ---------------------------------------------------------------------------
# DOT export of the face poset
# ---------------------------------------------------------------------------

def face_poset_dot(q):
    """Graphviz DOT of the face poset; edges are covering relations of
    refinement (split one block into two), read off each cover H as the
    faces `H.merged(k)`.  A face lists the covers into it by (split block,
    lower block size, lower block)."""
    parts = enumerate_partitions(q)
    keys = [J.key() for J in parts]
    name = {jk: "f%d" % i for i, jk in enumerate(keys)}
    into = {jk: [] for jk in keys}  # face -> its covers, (order, name)
    for H, hk in zip(parts, keys):
        for k in range(H.s - 1):
            into[H.merged(k).key()].append(((k, len(hk[k]), hk[k]), name[hk]))
    lines = ["digraph face_poset {", '  rankdir="BT";']
    lines += ['  %s [label="%s"];' % (name[jk], J) for J, jk in zip(parts, keys)]
    for jk, covers in into.items():
        lines += ["  %s -> %s;" % (h, name[jk]) for _, h in sorted(covers)]
    lines.append("}")
    return "\n".join(lines) + "\n"
