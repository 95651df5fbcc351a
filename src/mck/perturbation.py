"""Saddle resolution: refining the level partition of a leveled graph.

Splitting one level whose saddle set is divided into ordered sub-blocks
B_1 < ... < B_m models a perturbation that pulls the saddle values apart.
Inside the ribbon neighborhood of each old level atom, every sub-level k
carries one curve system C_k: saddles of B_k stay vertices, saddles of lower
sub-blocks are resolved upward (the curve passes above them, through the two
up-sectors), saddles of higher sub-blocks downward.  With slots numbered as
in `morse_graph`, arriving at the incoming slot-s dart the upward resolution
continues from slot s-1, the downward one from slot s+1.

Between consecutive sub-levels the regular interface curves I_k (all blocks
<= k resolved up, the rest down) cut the ribbon into annuli.  Each interface
curve traverses every old edge exactly once, so its edge set matches it both
to the circle below (an upper circle of system C_k, or an old lower circle
of the atom for k = 0) and to the circle above (a lower circle of C_{k+1},
or an old upper circle for k = m).  Saddle-free components of a C_k are kept
transiently: they bound annuli on both sides and merge them.  The maximal
annulus chains are the new complementary regions: chains ending on old
circles extend the caps and cylinders that were attached there, chains
between two new-atom circles become new cylinders.

`delta` reaches a deep refinement through a chain of hyperface splits (one
level into two), always splitting off the first target sub-block of the
lowest divisible level.  The class it reaches does not depend on the chain,
and an explicit chain J -> J1 -> J2 is the composition
`delta(delta(g, J1), J2)`.  `split_level` also takes m >= 2 sub-blocks at
once; the tests compare that direct multi-way split with `delta` by
canonical form.

The complex builder calls `delta` on covers, once per class and cover, and
reaches every deeper face as a cover of `chain_predecessor`, the partition
that `delta`'s own chain passes last.  It calls `delta` on a deep face only
when that face meets a new class and the predecessor's stored
representative is not the graph on `delta`'s chain.

Neither `split_level` nor `delta` validates its result.  The surgery raises
InvariantViolation when an interface curve or an annulus chain does not
match up; the full `morse_graph.validate` runs where a split becomes a
class, in `build_complex` (see its docstring for why that suffices).  Other
callers that keep a split validate it themselves.
"""

import itertools

from . import morse_graph as mg
from .permutohedron import OrderedPartition, sub_blocks


class PerturbationError(ValueError):
    """Invalid refinement or sub-block request."""


class InvariantViolation(RuntimeError):
    """The resolution produced a structurally invalid graph (a bug)."""


# ---------------------------------------------------------------------------
# One-atom surgery
# ---------------------------------------------------------------------------

def _interface_cycles(atom, blk, k):
    """Interface curves I_k as edge-index cycles (each edge used once)."""
    by_out = atom.edge_at_out()
    succ = [by_out[(v, (s + (-1 if blk[v] <= k else +1)) % 4)]
            for _, (v, s) in atom.edges]
    return [frozenset(c) for c in mg.trace_cycles(succ, range(len(succ)))]


def _sublevel_system(atom, blk, k):
    """Curve system C_k of one old atom.

    Returns (new_atoms, transients) where new_atoms is a list of
    (Atom, paths) with paths mapping the new atom's local edge index to the
    frozenset of old edge indices its strand path covers, ordered by smallest
    saddle label; transients is the list of old-edge frozensets of the
    saddle-free closed curves.
    """
    by_out = atom.edge_at_out()

    def resolved_next(cur):
        """The edge after `cur` when its head saddle is resolved."""
        w, s = atom.edges[cur][1]
        if blk[w] == k:
            raise InvariantViolation("strand resolves kept saddle %r" % (w,))
        return by_out[(w, (s + (-1 if blk[w] < k else +1)) % 4)]

    kept = [v for v in atom.saddles if blk[v] == k]
    comp_edges = {}
    used = set()
    for v in kept:
        for slot in mg.OUT_SLOTS:
            o = (v, slot)
            path = []
            cur = by_out[o]
            while True:
                path.append(cur)
                w, s = atom.edges[cur][1]
                if blk[w] == k:
                    comp_edges[o] = ((o, (w, s)), frozenset(path))
                    used.update(path)
                    break
                cur = resolved_next(cur)

    # saddle-free closed curves on the remaining edges, whose heads are all
    # resolved: every edge into a kept saddle ends a strand path
    succ = {e: resolved_next(e) for e in range(len(atom.edges)) if e not in used}
    transients = [frozenset(c) for c in mg.trace_cycles(succ, succ)]

    new_atoms = []
    pairs = [(o[0], i[0]) for (o, i), _ in comp_edges.values()]
    for saddles in mg.components(kept, pairs):
        strands = [comp_edges[(v, slot)] for v in saddles for slot in mg.OUT_SLOTS]
        new_atom = mg.Atom.of(saddles, [e for e, _ in strands])
        path_by_out = {e[0]: path for e, path in strands}
        paths = {idx: path_by_out[o] for idx, (o, _) in enumerate(new_atom.edges)}
        new_atoms.append((new_atom, paths))
    return new_atoms, transients


def _circle_shadows(new_atom, paths):
    """Old-edge shadows of the new atom's circles.

    Returns (lower_shadows, upper_shadows): lists aligned with the canonical
    circle order, each entry (circle_index, frozenset of old edges)."""
    lows, ups = [], []
    for ci, (side, cyc) in enumerate(new_atom.circles):
        shadow = frozenset(itertools.chain.from_iterable(paths[e] for e in cyc))
        (lows if side == "lower" else ups).append((ci, shadow))
    return lows, ups


def _atom_surgery(atom, blk, m):
    """All per-atom data: sub-level systems, interfaces, and annulus chains.

    Returns (systems, chains) where systems[k-1] is the new-atom list of
    sub-level k and chains maps each old circle / new circle handle at the
    bottom of a maximal annulus chain to the handle at its top.  Handles:
      ("oldlow", ci) / ("oldup", ci): original canonical circle index,
      ("new", k, j, ci): circle ci of the j-th new atom of sub-level k.
    """
    systems = []
    transients = {}
    up_shadow = {}
    low_shadow = {}
    for k in range(1, m + 1):
        new_atoms, trans = _sublevel_system(atom, blk, k)
        systems.append(new_atoms)
        transients[k] = set(trans)
        for j, (na, paths) in enumerate(new_atoms):
            lows, ups = _circle_shadows(na, paths)
            for ci, shadow in ups:
                up_shadow[(k, shadow)] = ("new", k, j, ci)
            for ci, shadow in lows:
                low_shadow[(k, shadow)] = ("new", k, j, ci)

    circles = atom.circles
    oldlow = {}
    oldup = {}
    for ci, (side, cyc) in enumerate(circles):
        if side == "lower":
            oldlow[frozenset(cyc)] = ("oldlow", ci)
        else:
            oldup[frozenset(cyc)] = ("oldup", ci)

    annuli = {}
    for k in range(0, m + 1):
        for es in _interface_cycles(atom, blk, k):
            if k == 0:
                down = oldlow.get(es)
            elif (k, es) in up_shadow:
                down = up_shadow[(k, es)]
            elif es in transients[k]:
                down = ("transient", k, es)
            else:
                down = None
            if k == m:
                up = oldup.get(es)
            elif (k + 1, es) in low_shadow:
                up = low_shadow[(k + 1, es)]
            elif es in transients[k + 1]:
                up = ("transient", k + 1, es)
            else:
                up = None
            if down is None or up is None:
                raise InvariantViolation("interface curve %s unmatched at layer %d"
                                         % (sorted(es), k))
            annuli[(k, es)] = (down, up)

    chains = {}
    for (k, es), (down, up) in annuli.items():
        if down[0] == "transient":
            continue
        top = up
        while top[0] == "transient":
            _, kk, ess = top
            top = annuli[(kk, ess)][1]
        chains[down] = top
    return systems, chains


# ---------------------------------------------------------------------------
# split_level and delta
# ---------------------------------------------------------------------------

def split_level(g, level, subblocks):
    """Replace one level by consecutive sub-levels given by `subblocks`.

    `level` is 1-based; `subblocks` an ordered list of disjoint nonempty
    saddle sets partitioning that level's saddles (values increase along the
    list).  m = 1 is the identity.  The result is not validated (see the
    module docstring); the surgery raises InvariantViolation when its curves
    do not match up.
    """
    if not (1 <= level <= len(g.levels)):
        raise PerturbationError("no level %r" % (level,))
    level_saddles = set()
    for a in g.levels[level - 1]:
        level_saddles |= set(g.atoms[a].saddles)
    blocks = [frozenset(b) for b in subblocks]
    if any(not b for b in blocks):
        raise PerturbationError("empty sub-block")
    if set().union(*blocks) != level_saddles or \
            sum(len(b) for b in blocks) != len(level_saddles):
        raise PerturbationError("sub-blocks must partition the level's saddles %s"
                                % sorted(level_saddles))
    m = len(blocks)
    if m == 1:
        return g

    blk = {}
    for k, b in enumerate(blocks, start=1):
        for v in b:
            blk[v] = k

    old_level_atoms = list(g.levels[level - 1])
    surgery = {}
    for a in old_level_atoms:
        surgery[a] = _atom_surgery(g.atoms[a], blk, m)

    # keep every non-split atom, in original index order
    kept = [a for a in range(len(g.atoms)) if a not in old_level_atoms]
    new_index = {a: i for i, a in enumerate(kept)}
    atoms = [g.atoms[a] for a in kept]

    # new atoms, sub-level by sub-level, old atoms in index order
    sub_atom_index = {}
    new_levels = []
    for k in range(1, m + 1):
        lev = []
        for a in old_level_atoms:
            systems, _ = surgery[a]
            for j, (na, _) in enumerate(systems[k - 1]):
                sub_atom_index[(a, k, j)] = len(atoms)
                lev.append(len(atoms))
                atoms.append(na)
        if not lev:
            raise InvariantViolation("empty sub-level %d" % k)
        new_levels.append(tuple(lev))

    levels = ([tuple(new_index[a] for a in lv) for lv in g.levels[:level - 1]]
              + new_levels
              + [tuple(new_index[a] for a in lv) for lv in g.levels[level:]])

    def handle_ref(a, handle):
        _, k, j, ci = handle
        return (sub_atom_index[(a, k, j)], ci)

    # where each old circle of a split atom reattaches
    reattach = {}
    new_cylinders = []
    for a in old_level_atoms:
        _, chains = surgery[a]
        for down, up in chains.items():
            if down[0] == "oldlow":
                if up[0] != "new":
                    raise InvariantViolation("chain from old lower circle ends at %r" % (up,))
                reattach[(a, down[1])] = handle_ref(a, up)
            elif up[0] == "oldup":
                if down[0] != "new":
                    raise InvariantViolation("chain to old upper circle starts at %r" % (down,))
                reattach[(a, up[1])] = handle_ref(a, down)
            else:
                lo = handle_ref(a, down)
                hi = handle_ref(a, up)
                new_cylinders.append((lo, hi))

    def map_circle(ref):
        a, ci = ref
        if a in surgery:
            return reattach[(a, ci)]
        return (new_index[a], ci)

    caps = tuple(mg.Cap(circle=map_circle(tuple(c.circle)), kind=c.kind,
                        label=c.label, marked=c.marked, fixed=c.fixed)
                 for c in g.caps)
    cylinders = tuple(sorted(
        [(map_circle(tuple(lo)), map_circle(tuple(hi))) for lo, hi in g.cylinders]
        + new_cylinders))

    return mg.LMG(q=g.q, p=g.p, r=g.r, levels=tuple(levels), atoms=tuple(atoms),
                  caps=caps, cylinders=cylinders,
                  marked_saddles=g.marked_saddles, fixed_saddles=g.fixed_saddles)


def delta(g, target):
    """The perturbed class attached to a refinement of the level partition.

    Repeats one hyperface split (one level into two) until the level
    partition is `target`: each step splits off the first target sub-block
    of the lowest divisible level.  The result is chain-independent, and,
    like `split_level`'s, not validated.
    """
    cur = g
    while True:
        J = cur.level_partition()
        groups = sub_blocks(target, J)
        if groups is None:
            raise PerturbationError("%s does not refine %s" % (target, J))
        level = next((i for i, grp in enumerate(groups) if len(grp) > 1), None)
        if level is None:
            return cur
        grp = groups[level]
        cur = split_level(cur, level + 1, [grp[0], frozenset().union(*grp[1:])])


def chain_predecessor(J, target):
    """The partition that `delta`'s chain from J passes just before the
    proper refinement `target`.

    The chain splits the divisible blocks of J from the lowest up, peeling
    off one target sub-block at a time, so its last step splits the last
    divided block of J into its last two target sub-blocks."""
    groups = sub_blocks(target, J)
    if groups is None or len(groups) == target.s:
        raise PerturbationError("%s is not a proper refinement of %s"
                                % (target, J))
    k = max(i for i, grp in enumerate(groups) if len(grp) > 1)
    merged = groups[k][:-2] + (groups[k][-2] | groups[k][-1],)
    return OrderedPartition.of(
        itertools.chain(*groups[:k], merged, *groups[k + 1:]), J.q)
