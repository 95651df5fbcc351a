"""Ordered set partitions and the face poset of the permutohedron.

The ground set is {1..q}.  An ordered partition J = (J_1, ..., J_s) indexes a
face of the order-q permutohedron, of dimension q - s; the test oracles spell
out its vertices.  It has one form everywhere: the tuple of its blocks, each
the sorted tuple of its labels, such as ((2,), (1, 3)), which is also how a
face is relabeled, memoized and dumped.  The library makes its partitions
itself, so they are not checked when they are made; the one that comes from
a caller, `perturbation.delta`'s cover, is checked by `sub_blocks`.
Nothing in this module touches floating point.

Refinement order: J' < J means J' splits blocks of J into ordered runs of
consecutive sub-blocks, equivalently the face of J' is contained in the face
of J.  `sub_blocks` is the one walk that decides it and names the runs,
`refinements` the one generator, and `merged` undoes a cover (hyperface).
"""

import functools
import itertools

MAX_ORDER = 8  # desk-scale guard for enumeration


class PartitionError(ValueError):
    """Invalid ordered-partition argument."""


class OrderBoundError(ValueError):
    """Permutohedron order outside the supported range."""


# ---------------------------------------------------------------------------
# Ordered partitions
# ---------------------------------------------------------------------------

def face_str(J):
    """J printed with its blocks cut by bars, such as (2|1,3)."""
    return "(" + "|".join(",".join(map(str, b)) for b in J) + ")"


def merged(J, k):
    """The face J covers by splitting its block k: blocks k and k + 1
    joined, the inverse of a cover split."""
    if not 0 <= k < len(J) - 1:
        raise PartitionError("no blocks %d and %d to merge" % (k, k + 1))
    return J[:k] + (tuple(sorted(J[k] + J[k + 1])),) + J[k + 2:]


def enumerate_partitions(q):
    """All ordered set partitions of {1..q}.

    Deterministic order: lexicographic on the level-assignment tuple
    (J(1), ..., J(q)).  The count is the ordered Bell number.
    """
    if not isinstance(q, int) or q < 1 or q > MAX_ORDER:
        raise OrderBoundError("q must be an integer in 1..%d, got %r" % (MAX_ORDER, q))
    return _ordered_partitions_of_set(range(1, q + 1))


def sub_blocks(J1, J):
    """Per block of J, the tuple of consecutive J1 blocks partitioning it;
    None unless J1 refines J (J1 <= J).  J1 may come from a caller, so its
    shape is checked here: its blocks must be nonempty and, run by run, use
    up each block of J exactly, with no label repeated, none from outside
    J and no block left over."""
    groups = []
    i = 0
    for b in J:
        rest = set(b)
        grp = []
        while rest:
            if i == len(J1) or not J1[i]:
                return None
            for x in J1[i]:
                if x not in rest:
                    return None
                rest.remove(x)
            grp.append(J1[i])
            i += 1
        groups.append(tuple(grp))
    return tuple(groups) if i == len(J1) else None


def chain_predecessor(J, target):
    """The refinement of J that a proper refinement `target` covers: the
    last block of J that `target` divides gets its last two target
    sub-blocks merged back, and every other block keeps its target
    sub-blocks.  It is J itself when `target` covers J, and `refinements`
    lists it before `target`."""
    groups = sub_blocks(target, J)
    if groups is None or len(groups) == len(target):
        raise PartitionError("%s is not a proper refinement of %s"
                             % (face_str(target), face_str(J)))
    k = max(i for i, grp in enumerate(groups) if len(grp) > 1)
    return merged(target, sum(map(len, groups[:k + 1])) - 2)


def _ordered_partitions_of_set(labels):
    """All ordered partitions of a plain set of labels (any ground set)."""
    labels = sorted(labels)
    n = len(labels)
    out = []

    def extend(prefix, used_max):
        pos = len(prefix)
        if pos == n:
            s = max(prefix)
            out.append(tuple(
                tuple(labels[i] for i, v in enumerate(prefix) if v == k)
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
    """The ordered partitions of one block, computed once per block (at
    most 2^q - 1 distinct blocks)."""
    return tuple(_ordered_partitions_of_set(block))


def refinements(J):
    """All proper refinements J' < J (each block split into an ordered
    partition of itself).  Deterministic order."""
    out = []
    for combo in itertools.product(*map(_block_orderings, J)):
        J1 = tuple(itertools.chain.from_iterable(combo))
        if J1 != J:
            out.append(J1)
    return out


# ---------------------------------------------------------------------------
# DOT export of the face poset
# ---------------------------------------------------------------------------

def face_poset_dot(q):
    """Graphviz DOT of the face poset; edges are covering relations of
    refinement (split one block into two), read off each cover H as the
    faces `merged(H, k)`.  A face lists the covers into it by (split block,
    lower block size, lower block)."""
    parts = enumerate_partitions(q)
    name = {J: "f%d" % i for i, J in enumerate(parts)}
    into = {J: [] for J in parts}  # face -> its covers, (order, name)
    for H in parts:
        for k in range(len(H) - 1):
            into[merged(H, k)].append(((k, len(H[k]), H[k]), name[H]))
    lines = ["digraph face_poset {", '  rankdir="BT";']
    lines += ['  %s [label="%s"];' % (name[J], face_str(J)) for J in parts]
    for J, covers in into.items():
        lines += ["  %s -> %s;" % (h, name[J]) for _, h in sorted(covers)]
    lines.append("}")
    return "\n".join(lines) + "\n"
