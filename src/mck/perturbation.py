"""Saddle resolution: refining the level partition of a leveled graph.

Splitting one level into a lower sub-block B_1 and an upper sub-block B_2
of its saddles models a perturbation that pulls the two saddle values
apart.  Inside the ribbon neighborhood of each old level atom, each
sub-level k carries one curve system C_k: saddles of B_k stay vertices,
the others are resolved, downward in C_1 (the curve passes below them,
through the two down-sectors) and upward in C_2.  With slots numbered as in
`morse_graph`, arriving at the incoming slot-s dart the upward resolution
continues from slot s-1, the downward one from slot s+1.

Around the sub-levels lie the regular interface curves I_k: I_0 is the
old lower circles, I_1 the curves with B_1 resolved up and B_2 down, and
I_2 the old upper circles.  Each interface curve traverses every old edge
exactly once, so its edge set matches it both to the circle below (an upper
circle of system C_k, or an old lower circle for k = 0) and to the circle
above (a lower circle of C_{k+1}, or an old upper circle for k = 2).  The
interface curves are therefore named by their edge sets, never traced.
Saddle-free components of a C_k are kept transiently, as edge sets: the
interface curves on both sides of one share its edge set.  Each new
complementary region climbs from an old lower circle or a new upper circle,
through the transients with that circle's edge set, to the new lower circle
or old upper circle with it.  Regions ending on old circles extend the caps
and cylinders that were attached there; regions between two new-atom
circles become new cylinders.

The library resolves covers only: `delta` splits one level of the level
partition in two, and the complex builder reaches every deeper face as a
cover of `permutohedron.chain_predecessor`'s partition, read in the class
that partition lies in through a saddle relabeling (None when it is the
identity, which every relabeling is when every saddle is marked).  A split
reads only the graph's skeleton (atoms, levels, cylinders) and moves each
cap's circle by a map that depends on the skeleton alone, so the builder
calls `delta` once per skeleton and cover it meets and serves the other
classes on that skeleton from its split table, moving their caps through
the stored circle map (`build_complex`).  A cover is a tuple of sorted
saddle tuples, the one form of an ordered partition, and the one partition
a caller hands the library: `delta` refuses one that `sub_blocks` does not
accept as a cover of the level partition (PerturbationError).  The surgery
of one atom reads only which of its own saddles go down, so each atom keeps
it per that set (`_atom_surgery`), and with it the new atoms, which thus
live as long as the atom split.

Neither `split_level` nor `delta` validates its result.  The surgery raises
InvariantViolation when a circle's edge set reaches no circle above it, or
when a circle above is reached twice or never; the full
`morse_graph.validate` runs where a split becomes a class, in
`build_complex` (see its docstring for why that suffices).  Other callers
that keep a split validate it themselves.
"""

import itertools

from . import morse_graph as mg
from .morse_graph import InvariantViolation
from .permutohedron import face_str, sub_blocks


class PerturbationError(ValueError):
    """Invalid refinement or sub-block request."""


# ---------------------------------------------------------------------------
# One-atom surgery
# ---------------------------------------------------------------------------

def _sublevel_system(atom, kept, turn):
    """Curve system of one old atom at one sub-level: the saddles in `kept`
    stay vertices, the others are resolved by `turn`, +1 (downward) at the
    lower sub-level and -1 (upward) at the upper one.

    Returns (new_atoms, transients) where new_atoms is a list of
    (Atom, paths) with paths mapping the new atom's local edge index to the
    frozenset of old edge indices its strand path covers, ordered by smallest
    saddle label; transients is the set of old-edge frozensets of the
    saddle-free closed curves.
    """
    by_out = atom.edge_at_out()

    def resolved_next(cur):
        """The edge after `cur` when its head saddle is resolved."""
        w, s = atom.edges[cur][1]
        if w in kept:
            raise InvariantViolation("strand resolves kept saddle %r" % (w,))
        return by_out[(w, (s + turn) % 4)]

    kept_saddles = [v for v in atom.saddles if v in kept]
    comp_edges = {}
    used = set()
    for v in kept_saddles:
        for slot in mg.OUT_SLOTS:
            o = (v, slot)
            path = []
            cur = by_out[o]
            while True:
                path.append(cur)
                w, s = atom.edges[cur][1]
                if w in kept:
                    comp_edges[o] = ((o, (w, s)), frozenset(path))
                    used.update(path)
                    break
                cur = resolved_next(cur)

    # saddle-free closed curves on the remaining edges, whose heads are all
    # resolved: every edge into a kept saddle ends a strand path
    succ = {e: resolved_next(e) for e in range(len(atom.edges)) if e not in used}
    transients = {frozenset(c) for c in mg.trace_cycles(succ, succ)}

    new_atoms = []
    pairs = [(o[0], i[0]) for (o, i), _ in comp_edges.values()]
    for saddles in mg.components(kept_saddles, pairs):
        strands = [comp_edges[(v, slot)] for v in saddles for slot in mg.OUT_SLOTS]
        new_atom = mg.Atom.shared(saddles, [e for e, _ in strands])
        path_by_out = {e[0]: path for e, path in strands}
        paths = {idx: path_by_out[o] for idx, (o, _) in enumerate(new_atom.edges)}
        new_atoms.append((new_atom, paths))
    return new_atoms, transients


def _atom_surgery(atom, lower):
    """Sub-level systems of one old atom and the regions between them, when
    the saddles in `lower` move to the lower sub-level and the rest of the
    atom's saddles to the upper one.

    Returns (systems, reattach, cylinders), all tuples.  systems[k-1] holds
    the new atoms of sub-level k (1 below, 2 above); a new circle is named
    (k, j, ci), circle ci of the j-th new atom of sub-level k, and an old
    circle by its index ci.  reattach[ci] is the new circle that takes the
    place of old circle ci, and cylinders lists the new (lower, upper)
    circle pairs.

    The region above an old lower circle or a new upper circle climbs
    through the transients with the same edge set to the new lower circle
    or old upper circle with that edge set.  Each start must reach such a
    circle, and each circle above must be reached exactly once.  The atom
    keeps the result per its own saddles in `lower`, once every check passed.
    """
    lower = frozenset(atom.saddles) & lower
    return atom.kept(("surgery", lower), lambda: _surgery(atom, lower))


def _surgery(atom, lower):
    """`_atom_surgery` computed afresh."""
    systems = [_sublevel_system(atom, lower, +1),
               _sublevel_system(atom, set(atom.saddles) - lower, -1)]
    starts = []  # (layer, edge set, circle) of every region's lower circle
    ends = {}    # (layer, edge set) -> circle, of every region's upper circle
    for ci, (side, cyc) in enumerate(atom.circles):
        if side == "lower":
            starts.append((0, frozenset(cyc), ci))
        else:
            ends[(3, frozenset(cyc))] = ci
    for k, (new_atoms, _) in enumerate(systems, start=1):
        for j, (na, paths) in enumerate(new_atoms):
            for ci, (side, cyc) in enumerate(na.circles):
                es = frozenset(itertools.chain.from_iterable(paths[e] for e in cyc))
                if side == "lower":
                    ends[(k, es)] = (k, j, ci)
                else:
                    starts.append((k, es, (k, j, ci)))

    reattach, cylinders, reached = {}, [], set()
    for k, es, lo in starts:
        top = k + 1
        while (top, es) not in ends:
            if top > 2 or es not in systems[top - 1][1]:
                raise InvariantViolation("circle %s at layer %d meets nothing "
                                         "at layer %d" % (sorted(es), k, top))
            top += 1
        reached.add((top, es))
        hi = ends[(top, es)]
        if isinstance(lo, int):
            if isinstance(hi, int):
                raise InvariantViolation("old circles %d and %d bound one "
                                         "region" % (lo, hi))
            reattach[lo] = hi
        elif isinstance(hi, int):
            reattach[hi] = lo
        else:
            cylinders.append((lo, hi))
    if not len(reached) == len(starts) == len(ends):
        raise InvariantViolation("%d regions for %d lower and %d upper circles"
                                 % (len(reached), len(starts), len(ends)))
    # every circle above is reached once, so every old circle reattaches
    return (tuple(tuple(na for na, _ in new_atoms) for new_atoms, _ in systems),
            tuple(reattach[ci] for ci in range(len(atom.circles))),
            tuple(cylinders))


# ---------------------------------------------------------------------------
# split_level and delta
# ---------------------------------------------------------------------------

def split_level(g, level, lower):
    """Split one level in two: the saddles in `lower` below, the rest of
    the level's saddles above.

    `level` is 1-based; `lower` a nonempty proper subset of that level's
    saddles.  The result is not validated (see the module docstring); the
    surgery raises InvariantViolation when its circles do not match up.
    """
    if not (1 <= level <= len(g.levels)):
        raise PerturbationError("no level %r" % (level,))
    level_saddles = {v for a in g.levels[level - 1] for v in g.atoms[a].saddles}
    lower = frozenset(lower)
    if not lower or not lower < level_saddles:
        raise PerturbationError("the lower sub-block %s must be a nonempty "
                                "proper subset of the level's saddles %s"
                                % (sorted(lower), sorted(level_saddles)))

    old_level_atoms = list(g.levels[level - 1])
    surgery = {a: _atom_surgery(g.atoms[a], lower) for a in old_level_atoms}

    # keep every non-split atom, in original index order
    kept = [a for a in range(len(g.atoms)) if a not in old_level_atoms]
    new_index = {a: i for i, a in enumerate(kept)}
    atoms = [g.atoms[a] for a in kept]

    # new atoms, sub-level by sub-level, old atoms in index order
    sub_atom_index = {}
    new_levels = []
    for k in (1, 2):
        lev = []
        for a in old_level_atoms:
            for j, na in enumerate(surgery[a][0][k - 1]):
                sub_atom_index[(a, k, j)] = len(atoms)
                lev.append(len(atoms))
                atoms.append(na)
        if not lev:
            raise InvariantViolation("empty sub-level %d" % k)
        new_levels.append(tuple(lev))

    levels = ([tuple(new_index[a] for a in lv) for lv in g.levels[:level - 1]]
              + new_levels
              + [tuple(new_index[a] for a in lv) for lv in g.levels[level:]])

    def atom_circle(a, k, j, ci):
        return (sub_atom_index[(a, k, j)], ci)

    def map_circle(ref):
        a, ci = ref
        if a in surgery:  # the new circle where an old one reattaches
            return atom_circle(a, *surgery[a][1][ci])
        return (new_index[a], ci)

    new_cylinders = [(atom_circle(a, *lo), atom_circle(a, *hi))
                     for a in old_level_atoms for lo, hi in surgery[a][2]]

    caps = []
    for c in g.caps:   # a cap whose circle stays put is kept as it is
        circle = map_circle(tuple(c.circle))
        caps.append(c if circle == c.circle else mg.Cap(
            circle=circle, kind=c.kind, label=c.label, marked=c.marked,
            fixed=c.fixed))
    cylinders = tuple(sorted(
        [(map_circle(tuple(lo)), map_circle(tuple(hi))) for lo, hi in g.cylinders]
        + new_cylinders))

    return mg.LMG(q=g.q, p=g.p, r=g.r, levels=tuple(levels), atoms=tuple(atoms),
                  caps=tuple(caps), cylinders=cylinders,
                  marked_saddles=g.marked_saddles, fixed_saddles=g.fixed_saddles)


def delta(g, cover):
    """The perturbed class attached to a cover of the level partition: one
    level split into two sub-blocks.  `cover` is a tuple of saddle tuples,
    such as ((2,), (1, 3)), and anything that is not a cover of g's level
    partition raises PerturbationError (`sub_blocks` checks its shape).
    Like `split_level`'s, the result is not validated."""
    J = g.level_partition()
    groups = sub_blocks(cover, J)
    if groups is None or len(cover) != len(J) + 1:
        raise PerturbationError("%s is not a cover of %s"
                                % (face_str(cover), face_str(J)))
    level = next(i for i, grp in enumerate(groups) if len(grp) == 2)
    return split_level(g, level + 1, groups[level][0])

