"""Leveled Morse graphs on the closed oriented sphere.

A class of Morse functions is stored as a leveled embedded graph:

* An *atom* is one connected component of a single critical level: a 4-valent
  graph with a rotation system.  Darts at a saddle are numbered by slots
  0..3 in counterclockwise order; even slots are outgoing, odd slots
  incoming, so directions alternate around every vertex.  Edges are oriented
  from an outgoing dart to an incoming dart, and the region where the
  function exceeds the critical value lies to the left of every edge.

* Boundary circles of an atom's ribbon neighborhood are traced with the
  "turn clockwise" rule.  Walking an edge forward and arriving at the slot-s
  incoming dart, the upper circle (region above) continues from slot s-1 and
  the lower circle (region below) from slot s+1, both mod 4.  Every edge
  lies on exactly one upper and one lower circle, always traversed forward,
  so the 4q edge-sides are partitioned by the circles.

* Lower circles are capped by min-disks or serve as upper ends of cylinders
  coming from below; upper circles are capped by max-disks or feed cylinders
  going up.  A cylinder joins an upper circle of a level-i atom to a lower
  circle of a level-j atom with i < j.

Connectivity together with p - q + r = 2 pins the assembled surface to the
sphere, since every complementary region is a disk or a cylinder by
construction.

Circle references are pairs (atom index, circle index) where circles of an
atom are numbered canonically: lower circles first, then upper circles, each
group ordered by smallest contained edge index, each cycle rotated to start
at its smallest edge.  An atom traces its circles once, on first access of
its `circles` attribute.
"""

import itertools
import json
import weakref
from dataclasses import dataclass
from functools import cached_property
from types import MappingProxyType

OUT_SLOTS = (0, 2)
IN_SLOTS = (1, 3)


# ---------------------------------------------------------------------------
# Errors (one class per diagnostic)
# ---------------------------------------------------------------------------

class LMGError(ValueError):
    """Base class for leveled-graph validation failures."""


class StructureError(LMGError):
    """Malformed references, counts, or field inconsistencies."""


class NonAlternatingError(LMGError):
    """An edge does not join an outgoing dart to an incoming dart."""


class UnmatchedDartError(LMGError):
    """Some dart is not covered exactly once by the edge matching."""


class EulerCountError(LMGError):
    """Cap counts violate p - q + r = 2 (or p, r >= 1)."""


class DisconnectedError(LMGError):
    """An atom, or the assembled surface, is not connected."""


class CylinderLevelError(LMGError):
    """A cylinder does not go from a lower level to a strictly higher one."""


class CapSideError(LMGError):
    """A min-disk on an upper circle or a max-disk on a lower circle."""


class LabelCollisionError(LMGError):
    """Duplicate or out-of-range critical point labels."""


class LMGJSONError(LMGError):
    """Malformed serialized graph."""


class InvariantViolation(RuntimeError):
    """An identity that holds for every valid input failed (a bug)."""


# ---------------------------------------------------------------------------
# Graph primitives
# ---------------------------------------------------------------------------

def trace_cycles(succ, starts):
    """Cycles of the successor map `succ` through the elements of `starts`.

    Each cycle is a list in walk order, beginning at the first start not on
    an earlier cycle.  `succ` must permute the elements it reaches.
    """
    seen = set()
    cycles = []
    for start in starts:
        if start in seen:
            continue
        cyc = []
        cur = start
        while cur not in seen:
            seen.add(cur)
            cyc.append(cur)
            cur = succ[cur]
        cycles.append(cyc)
    return cycles


def components(nodes, pairs):
    """Connected components of the graph on `nodes` with edges `pairs`.

    Each component lists its nodes in `nodes` order; components are ordered
    by their first node.
    """
    adj = {v: [] for v in nodes}
    for a, b in pairs:
        adj[a].append(b)
        adj[b].append(a)
    comp_of = {}
    count = 0
    for v in nodes:
        if v in comp_of:
            continue
        comp_of[v] = count
        stack = [v]
        while stack:
            for w in adj[stack.pop()]:
                if w not in comp_of:
                    comp_of[w] = count
                    stack.append(w)
        count += 1
    out = [[] for _ in range(count)]
    for v in nodes:
        out[comp_of[v]].append(v)
    return out


# ---------------------------------------------------------------------------
# Atoms
# ---------------------------------------------------------------------------

_interned = weakref.WeakValueDictionary()   # (saddles, edges) -> live Atom


@dataclass(frozen=True)
class Atom:
    """One level component: saddles with rotation system and edge matching.

    `edges[i] = (out_dart, in_dart)`; edges are kept sorted by out-dart so
    local edge indices are intrinsic.
    """

    saddles: tuple
    edges: tuple

    @classmethod
    def of(cls, saddles, edges):
        return cls(tuple(sorted(saddles)), tuple(sorted(edges)))

    @classmethod
    def shared(cls, saddles, edges):
        """`Atom.of`, interned: while an equal atom from here is alive, that
        same object, so what it keeps is computed once for all its graphs."""
        key = (tuple(sorted(saddles)), tuple(sorted(edges)))
        atom = _interned.get(key)
        if atom is None:
            atom = _interned[key] = cls(*key)
        return atom

    def kept(self, key, compute):
        """`compute()`, run once per key and kept as long as the atom lives:
        "check", "text", ("codes", marked, fixed), ("rebuilt", flip) and
        ("surgery", lower).  A compute that raises keeps nothing."""
        table = self.__dict__.setdefault("_kept", {})
        if key not in table:
            table[key] = compute()
        return table[key]

    def check(self):
        """Raise the LMGError of the atom's first defect; an atom that
        passed keeps that and is not checked again."""
        self.kept("check", self._check)

    def _check(self):
        sset = set(self.saddles)
        if len(sset) != len(self.saddles):
            raise LabelCollisionError("duplicate saddle label in atom")
        outs = {(v, s) for v in sset for s in OUT_SLOTS}
        ins = {(v, s) for v in sset for s in IN_SLOTS}
        seen_out, seen_in = set(), set()
        for e in self.edges:
            if len(e) != 2:
                raise StructureError("edge is not a dart pair: %r" % (e,))
            o, i = e
            if o not in outs and o not in ins:
                raise StructureError("unknown dart %r" % (o,))
            if i not in outs and i not in ins:
                raise StructureError("unknown dart %r" % (i,))
            if o not in outs or i not in ins:
                raise NonAlternatingError(
                    "edge %r does not join an outgoing dart to an incoming dart" % (e,))
            if o in seen_out or i in seen_in:
                raise UnmatchedDartError("dart matched twice in %r" % (e,))
            seen_out.add(o)
            seen_in.add(i)
        if seen_out != outs or seen_in != ins:
            missing = (outs - seen_out) | (ins - seen_in)
            raise UnmatchedDartError("unmatched darts: %s" % sorted(missing))
        pairs = [(o[0], i[0]) for o, i in self.edges]
        if len(components(self.saddles, pairs)) != 1:
            raise DisconnectedError("atom on saddles %s is not connected" % (self.saddles,))

    def edge_at_out(self):
        """Map out-dart -> local edge index."""
        return {e[0]: i for i, e in enumerate(self.edges)}

    def _trace(self, turn):
        """Decompose edges into cycles: after arriving at incoming slot s,
        continue from outgoing slot (s + turn) mod 4.  Walking from each
        smallest unseen edge yields every cycle rotated to its smallest edge,
        in increasing order of that edge."""
        by_out = self.edge_at_out()
        succ = [by_out[(v, (s + turn) % 4)] for _, (v, s) in self.edges]
        return [tuple(c) for c in trace_cycles(succ, range(len(succ)))]

    @cached_property
    def circles(self):
        """Canonical circle tuple: (side, edge cycle), lowers then uppers.

        Lower circles (region below) turn by +1, upper circles (region
        above) by -1; every cycle is traversed forward.  Traced on first
        access and kept: atoms are immutable.
        """
        return tuple([("lower", c) for c in self._trace(+1)]
                     + [("upper", c) for c in self._trace(-1)])


# ---------------------------------------------------------------------------
# The leveled graph
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Cap:
    circle: tuple  # (atom index, circle index)
    kind: str      # "min" | "max"
    label: int
    marked: bool
    fixed: bool


@dataclass(frozen=True)
class LMG:
    """A leveled Morse graph: atoms arranged in levels, capped and tubed."""

    q: int
    p: int
    r: int
    levels: tuple      # tuple of tuple of atom indices, bottom level first
    atoms: tuple       # tuple of Atom
    caps: tuple        # tuple of Cap
    cylinders: tuple   # tuple of ((a,c) lower end = upper circle, (a,c) upper end = lower circle)
    marked_saddles: frozenset
    fixed_saddles: frozenset

    # -- basic derived data ------------------------------------------------

    def atom_levels(self):
        out = {}
        for k, lev in enumerate(self.levels):
            for a in lev:
                out[a] = k + 1
        return out

    def level_partition(self):
        """Ordered partition J of saddle labels by level, as the tuple of
        each level's sorted saddle labels."""
        atoms = self.atoms
        return tuple(tuple(sorted(v for a in lev for v in atoms[a].saddles))
                     for lev in self.levels)

    def marking_counts(self):
        """((p_hat, q_hat, r_hat), (p_star, q_star, r_star))."""
        ph = sum(1 for c in self.caps if c.kind == "min" and c.marked)
        rh = sum(1 for c in self.caps if c.kind == "max" and c.marked)
        ps = sum(1 for c in self.caps if c.kind == "min" and c.fixed)
        rs = sum(1 for c in self.caps if c.kind == "max" and c.fixed)
        return ((ph, len(self.marked_saddles), rh),
                (ps, len(self.fixed_saddles), rs))

    def global_edges(self):
        """Deterministic global edge order: (atom index, local edge index)."""
        return [(a, i) for a in range(len(self.atoms))
                for i in range(len(self.atoms[a].edges))]

    def edge_offsets(self):
        """The position in `global_edges()` of each atom's first edge, then
        the edge count: edge (a, e) sits at offsets[a] + e."""
        return list(itertools.accumulate(
            (len(atom.edges) for atom in self.atoms), initial=0))

    def circle_positions(self, ref, offsets):
        """The positions in `global_edges()` of the edges of circle `ref`,
        (atom index, circle index), in trace order."""
        a, ci = ref
        return [offsets[a] + e for e in self.atoms[a].circles[ci][1]]


# ---------------------------------------------------------------------------
# Skeletons
# ---------------------------------------------------------------------------
#
# A graph's skeleton is the graph without its caps, (atoms, levels,
# cylinders).  The classes of a complex lie on far fewer skeletons than
# there are classes (31,680 on 568 at (5,4,1) all marked), and whatever
# does not read the caps is the same for all of them: the skeleton checks
# of `validate`, the cap-free frame of `canonicalize` and
# `canonicalize_mirror`, and the complex builder's homology model and
# splits.  One operation (a catalog, a build, a reload) keeps one
# `SkeletonTable`; each of its entries keeps those values, each computed
# for the first graph that asks, and each class pays only for its caps.


class Skeleton:
    """One skeleton, `(atoms, levels, cylinders)`, and what was computed on
    it.  An entry is also the table of its one skeleton: a caller that holds
    g's entry passes it where a `SkeletonTable` is taken, and no lookup
    hashes g's skeleton again."""

    __slots__ = ("atoms", "levels", "cylinders", "_kept")

    def __init__(self, atoms, levels, cylinders):
        self.atoms, self.levels, self.cylinders = atoms, levels, cylinders
        self._kept = {}

    atom_levels = LMG.atom_levels

    def skeleton(self, g):
        return self

    def kept(self, key, compute):
        """`compute()`, run once per key and kept as long as the entry
        lives: "check", ("frame", mirrored, q, p, r, marked saddles, fixed
        saddles), and the builder's "model" and ("split", cover).  A
        compute that raises keeps nothing."""
        try:
            return self._kept[key]
        except KeyError:
            value = self._kept[key] = compute()
            return value


class SkeletonTable:
    """One operation's skeletons, keyed by their raw content `(g.atoms,
    g.levels, g.cylinders)`; no table is kept at module level, so nothing
    it holds outlives the operation."""

    __slots__ = ("_entries",)

    def __init__(self):
        self._entries = {}

    def skeleton(self, g):
        """The entry of g's skeleton, made on first sight."""
        key = (g.atoms, g.levels, g.cylinders)
        entry = self._entries.get(key)
        if entry is None:
            entry = self._entries[key] = Skeleton(*key)
        return entry


def _skeleton(g, table):
    """g's entry in `table`, or a throwaway entry when `table` is None."""
    if table is None:
        return Skeleton(g.atoms, g.levels, g.cylinders)
    return table.skeleton(g)


def _check_skeleton(skeleton):
    """The checks of `validate` that read no cap, in its order: atoms,
    placement, saddle labels, cylinder ends, sides and levels, and
    connectivity.  Returns (saddle count, {circle: side} over the circles
    that no cylinder uses)."""
    atoms, levels = skeleton.atoms, skeleton.levels
    if not atoms:
        raise StructureError("no atoms")
    for atom in atoms:
        atom.check()

    placed = [a for lev in levels for a in lev]
    if sorted(placed) != list(range(len(atoms))):
        raise StructureError("levels must list every atom exactly once")
    if any(not lev for lev in levels):
        raise StructureError("empty level")

    labels = [v for atom in atoms for v in atom.saddles]
    if len(set(labels)) != len(labels):
        raise LabelCollisionError("saddle label used by two atoms")
    # 1..q for the q that the atoms hold; a graph's declared q is compared
    # with that count, so no set is built from a declared q
    if set(labels) != set(range(1, len(labels) + 1)):
        raise StructureError("saddle labels must be {1..q}")

    sides = {(a, c): side for a, atom in enumerate(atoms)
             for c, (side, _) in enumerate(atom.circles)}
    paired = set()

    def use(ref):
        if ref not in sides:
            raise StructureError("bad circle reference %r" % (ref,))
        if ref in paired:
            raise StructureError("circle %r used twice (cylinder and "
                                 "cylinder)" % (ref,))
        paired.add(ref)

    levels_of = skeleton.atom_levels()
    for lo, hi in skeleton.cylinders:
        use(tuple(lo))
        use(tuple(hi))
        if sides[tuple(lo)] != "upper":
            raise CapSideError("cylinder lower end %r is not an upper circle" % (lo,))
        if sides[tuple(hi)] != "lower":
            raise CapSideError("cylinder upper end %r is not a lower circle" % (hi,))
        li, lj = levels_of[lo[0]], levels_of[hi[0]]
        if li >= lj:
            raise CylinderLevelError("cylinder pairs level %d with level %d" % (li, lj))

    # surface connectivity through cylinders
    pairs = [(lo[0], hi[0]) for lo, hi in skeleton.cylinders]
    if len(components(range(len(atoms)), pairs)) != 1:
        raise DisconnectedError("assembled surface is not connected")
    return len(labels), {ref: side for ref, side in sides.items()
                         if ref not in paired}


def validate(g, table=None):
    """Full structural validation; returns None on success.

    Raises a distinct LMGError subclass per diagnostic.  How many points are
    marked is the marking's rule (`MarkingSpec.check`), not the graph's.

    The checks that read no cap (`_check_skeleton`) run once per skeleton
    of `table` (a `SkeletonTable` or g's entry in one; None checks afresh)
    and are kept once they pass; every graph then has its caps checked
    against the circles that no cylinder uses.  A graph with defects of
    both kinds reports a skeleton defect first.
    """
    skeleton = _skeleton(g, table)
    q, free = skeleton.kept("check", lambda: _check_skeleton(skeleton))
    if g.q != q:
        raise StructureError("saddle labels must be {1..q}")

    capped = set()
    for cap in g.caps:
        if cap.kind not in ("min", "max"):
            raise StructureError("bad cap kind %r" % (cap.kind,))
        ref = tuple(cap.circle)
        side = free.get(ref)
        if side is None:
            a, c = ref
            if not (0 <= a < len(g.atoms) and 0 <= c < len(g.atoms[a].circles)):
                raise StructureError("bad circle reference %r" % (ref,))
            raise StructureError("circle %r used twice (cap and cylinder)"
                                 % (ref,))
        if ref in capped:
            raise StructureError("circle %r used twice (cap and cap)" % (ref,))
        capped.add(ref)
        if cap.kind == "min" and side != "lower":
            raise CapSideError("min-disk on an upper circle: %r" % (cap,))
        if cap.kind == "max" and side != "upper":
            raise CapSideError("max-disk on a lower circle: %r" % (cap,))
        if cap.fixed and not cap.marked:
            raise StructureError("fixed cap must be marked: %r" % (cap,))
    if len(capped) != len(free):
        a, c = min(free.keys() - capped)
        raise StructureError("circle (%d, %d) neither capped nor paired" % (a, c))

    mins = sorted(c.label for c in g.caps if c.kind == "min")
    maxs = sorted(c.label for c in g.caps if c.kind == "max")
    if len(set(mins)) != len(mins) or len(set(maxs)) != len(maxs):
        raise LabelCollisionError("duplicate extremum label")
    p_actual, r_actual = len(mins), len(maxs)
    if p_actual - g.q + r_actual != 2:
        raise EulerCountError("p - q + r = %d - %d + %d != 2"
                              % (p_actual, g.q, r_actual))
    if p_actual < 1 or r_actual < 1:
        raise EulerCountError("need p >= 1 and r >= 1")
    if (p_actual, r_actual) != (g.p, g.r):
        raise StructureError("declared (p, r) = (%d, %d) but found (%d, %d)"
                             % (g.p, g.r, p_actual, r_actual))
    if mins != list(range(1, p_actual + 1)) or maxs != list(range(1, r_actual + 1)):
        raise LabelCollisionError("extremum labels must be 1..p and 1..r")
    if not g.marked_saddles <= set(range(1, q + 1)):
        raise LabelCollisionError("marked saddle outside {1..q}")
    if not g.fixed_saddles <= g.marked_saddles:
        raise StructureError("fixed saddles must be marked")


# ---------------------------------------------------------------------------
# Canonical form and automorphisms
# ---------------------------------------------------------------------------
#
# A framing is a choice of (i) an ordering of the atoms inside each level and
# (ii) one outgoing root dart per atom.  Each framing yields a deterministic
# relabeling of all darts and hence a full encoding of the structure; the
# canonical form is the lexicographic minimum over framings.  Marked labels
# are embedded in the encoding, unmarked critical points encode as -1, so
# equality of encodings is exactly orientation-preserving level-preserving
# isomorphism fixing marked points.  `canonicalize` is the one pass: it
# returns the minimal encoding and every framing achieving it, considering
# only the framings whose caps can be least; the canonical form is that
# encoding as JSON bytes (`form_bytes`).  Each of those framings yields one
# automorphism (`automorphisms`), and the first places every saddle
# (`saddle_positions`); neither frames the graph again.  Each atom's circle
# maps are computed once per minimal root dart and shared by every framing
# that picks it.
#
# One kernel (`_minimal_framings`) does the minimizing, in two parts.  The
# cap-free frame (`_skeleton_frame`) depends on the skeleton and the
# marking alone: each atom's minimal codes and roots, the atoms of each
# level sorted by code and grouped into runs of equal code, the header,
# level sizes and codes, each atom's circle count, and a memo from
# (arrangement, chosen roots) to that framing's cylinders and dart maps.
# A skeleton's entry (`Skeleton.kept`) keeps it per marking and orientation,
# so the classes on one skeleton share it.  The per-graph pass computes the
# cap blocks, keeps the run orders and roots whose blocks are least, encodes
# the caps once, and compares the framings left by their cylinders alone,
# read off the memo.  `canonicalize_mirror` reads a frame built on the
# mirror's atoms and circle maps, which each atom keeps, so the reload and
# the build frame a mirror without building the mirror graph; `mirror`
# stays the constructor and the reference it is tested against.  A caller
# with no table gets a throwaway entry, so there is one framing path.
# `canonical_skeleton` is the same pass with no caps: its framings are the
# skeleton's automorphisms.
#
# An atom's minimal codes and realizing framings depend only on the atom and
# on which of its saddles are marked or fixed, and one operation meets the
# same atom in many graphs: every capping of a candidate (whose labeling scan
# reads the automorphisms off them first), every class a split leaves an atom
# untouched in, every mirror.  The atom keeps them
# (`_atom_min_codes`), once per distinct (marked saddles, fixed saddles) of
# its own, and hands every later graph the same read-only dart maps and
# circle maps; it keeps its mirror and dual with their circle maps
# (`_rebuilt_atom`) and its splits (`perturbation._atom_surgery`) the same
# way, all through `Atom.kept`.  The sites that rebuild atoms met again and
# again (`from_json`, `decode_canonical`, a split's new atoms and
# `_rebuilt_atom`) intern them with `Atom.shared`, so equal atoms are one
# object while any graph holds one, and what it keeps lives exactly as long.
# A split's new atoms live as long as the atom split, which keeps them, so a
# later split that meets them again finds their codes kept.
# The candidate scan (`_one_level_atoms`) makes plain atoms: its matchings
# are distinct, so interning would only fill the table.


def _atom_traversal(atom, root):
    """Relabel darts from an outgoing root dart.

    Returns (code, dart_map, order): dart_map maps (saddle, slot) to the new
    dart id vertex_index*4 + rotated_slot, code is the hashable atom
    encoding (vertex count, relabeled edge list) and order is the saddle
    discovery order, which numbers the vertices.
    """
    by_out = {e[0]: e for e in atom.edges}
    by_in = {e[1]: e for e in atom.edges}
    rot = {}     # saddle -> slot rotation (new = (old - rot) % 4)
    order = []   # discovery order of saddles
    rot[root[0]] = root[1]
    order.append(root[0])
    i = 0
    while i < len(order):
        v = order[i]
        i += 1
        for new_slot in range(4):
            old_slot = (new_slot + rot[v]) % 4
            d = (v, old_slot)
            partner = by_out[d][1] if old_slot % 2 == 0 else by_in[d][0]
            w, t = partner
            if w not in rot:
                # entry via the partner dart: incoming darts land on slot 1,
                # outgoing on slot 0
                rot[w] = (t - (1 if t % 2 else 0)) % 4
                order.append(w)
    vidx = {v: i for i, v in enumerate(order)}
    dart_map = {(v, s): vidx[v] * 4 + ((s - rot[v]) % 4)
                for v in atom.saddles for s in range(4)}
    edges = tuple(sorted((dart_map[o], dart_map[i]) for o, i in atom.edges))
    return (len(atom.saddles), edges), dart_map, tuple(order)


def _atom_min_codes(atom, marked, fixed):
    """Minimal atom encoding over root darts, with all realizing framings.

    The encoding appends per-vertex saddle tags (label if marked else -1,
    fixed flag) in discovery order.  Each realization is a pair (dart map,
    circle map) for one root dart achieving the minimum: a read-only
    mapping from (saddle, slot) to the new dart id, and a tuple giving the
    relabeled index of each circle.  The atom keeps the value per marked
    and fixed saddles of its own.
    """
    saddles = frozenset(atom.saddles)
    marked, fixed = saddles & marked, saddles & fixed
    return atom.kept(("codes", marked, fixed),
                     lambda: _atom_codes(atom, marked, fixed))


def _atom_codes(atom, marked, fixed):
    """`_atom_min_codes` computed afresh."""
    best = None
    dart_maps = []
    for v in atom.saddles:
        for s in OUT_SLOTS:
            (nv, edges), dmap, order = _atom_traversal(atom, (v, s))
            tags = tuple((x if x in marked else -1, x in fixed) for x in order)
            code = (nv, edges, tags)
            if best is None or code < best:
                best = code
                dart_maps = [dmap]
            elif code == best:
                dart_maps.append(dmap)
    return best, tuple((MappingProxyType(dmap), _relabeled_circles(atom, dmap))
                       for dmap in dart_maps)


def _relabeled_circles(atom, dmap):
    """Circle-index map of an atom under a dart relabeling: entry c is the
    index of the image of circle c of `atom` among the canonical circles of
    the relabeled atom."""
    # relabeled edges sorted by out-dart id define the relabeled edge order
    by_new = sorted(range(len(atom.edges)), key=lambda e: dmap[atom.edges[e][0]])
    new_of_orig = {orig: k for k, orig in enumerate(by_new)}
    # canonical order: lowers then uppers, by smallest edge id
    circles = atom.circles
    idx = sorted(range(len(circles)),
                 key=lambda c: (circles[c][0] != "lower",
                                min(new_of_orig[e] for e in circles[c][1])))
    image = [0] * len(idx)
    for new, orig in enumerate(idx):
        image[orig] = new
    return tuple(image)


def _framing_cylinders(cylinders, pos, circle_maps):
    """The cylinder part of one framing's encoding, the only part in which
    the framings `_minimal_framings` compares differ: each cylinder as its
    two ends (atom position, relabeled circle index) in order, sorted.
    `pos[a]` is the position of atom a and `circle_maps[a]` the circle map
    of the root dart chosen for it."""
    out = []
    for (a, c), (b, d) in cylinders:
        lo, hi = (pos[a], circle_maps[a][c]), (pos[b], circle_maps[b][d])
        out.append((lo, hi) if lo < hi else (hi, lo))
    out.sort()
    return tuple(out)


def _skeleton_frame(skeleton, g, mirrored):
    """The cap-free part of `_minimal_framings` for g's skeleton and
    marking, on the mirror's atoms when `mirrored`: a tuple (head, roots,
    levels, cylinders, circle maps, memo).

    head is the encoding's header, level sizes and atom codes; roots[a] is
    (the realizations of atom a's least code, as `_atom_min_codes` gives
    them, the end mark of its cap blocks, its circle count, and the index
    of every realization); levels[k] is (level k's atoms sorted by code,
    and their runs of equal code, or None when every run has one atom, so
    that the level has that one order); cylinders are in the circles of
    the framed atoms, and circle maps, None unless `mirrored`, take a
    circle of g's atom a to its image.  The memo maps (arrangement,
    realization index per atom) to that framing's cylinders
    (`_framing_cylinders`) and dart maps."""
    atoms, circle_maps, cylinders = skeleton.atoms, None, skeleton.cylinders
    if mirrored:
        atoms, circle_maps = zip(*(_rebuilt_atom(atom, False) for atom in atoms))
        cylinders = [((a, circle_maps[a][c]), (b, circle_maps[b][d]))
                     for (a, c), (b, d) in cylinders]
    code_of, roots = [], []
    for atom in atoms:
        code, realizations = _atom_min_codes(atom, g.marked_saddles,
                                             g.fixed_saddles)
        code_of.append(code)
        roots.append((realizations, ((len(atom.circles),),),
                      tuple(range(len(realizations)))))
    levels, codes = [], []
    for lev in skeleton.levels:
        ordered = tuple(sorted(lev, key=code_of.__getitem__))
        codes += [code_of[a] for a in ordered]
        runs = [tuple(run) for _, run
                in itertools.groupby(ordered, key=code_of.__getitem__)]
        levels.append((ordered, runs if len(runs) < len(ordered) else None))
    head = ((g.q, g.p, g.r, tuple(sorted(g.marked_saddles)),
             tuple(sorted(g.fixed_saddles))),
            tuple(len(lev) for lev in skeleton.levels), tuple(codes))
    return head, roots, levels, cylinders, circle_maps, {}


def _frame(g, table, mirrored):
    """g's cap-free frame, kept on its entry in `table` (None: a throwaway
    entry) per marking and orientation."""
    skeleton = _skeleton(g, table)
    return skeleton.kept(
        ("frame", mirrored, g.q, g.p, g.r, g.marked_saddles, g.fixed_saddles),
        lambda: _skeleton_frame(skeleton, g, mirrored))


def _framing(roots, cylinders, arrangement, picked):
    """The memo's value for one framing: its cylinders and {atom: dart
    map}; `picked[i]` indexes the realizations of atom `arrangement[i]`."""
    pos = {a: i for i, a in enumerate(arrangement)}
    chosen = [roots[a][0][k] for a, k in zip(arrangement, picked)]
    return (_framing_cylinders(cylinders, pos, {
                a: cmap for a, (_, cmap) in zip(arrangement, chosen)}),
            {a: dmap for a, (dmap, _) in zip(arrangement, chosen)})


def _minimal_framings(frame, caps):
    """The one minimization behind `canonicalize`, `canonicalize_mirror`
    and `canonical_skeleton`: the per-graph pass over a cap-free frame
    (`_skeleton_frame`).

    `caps` are the graph's caps, read in the circles of the frame's atoms
    through its circle maps.  A cap enters the encoding as its circle and
    (kind, label if marked else -1, marked, fixed).  Returns the minimal
    encoding and its framings, as `canonicalize` documents them.
    """
    head, roots, levels, cylinders, circle_maps, memo = frame
    on_atom = [[] for _ in roots]   # (circle, rest of the cap entry)
    for cap in caps:
        a, ci = cap.circle
        if circle_maps is not None:
            ci = circle_maps[a][ci]
        on_atom[a].append((ci, (cap.kind, cap.label if cap.marked else -1,
                                cap.marked, cap.fixed)))
    least = []   # atom -> (least cap block, indices of the roots reaching it)
    for (realizations, end, every), on in zip(roots, on_atom):
        if not on:
            least.append((end, every))
            continue
        blocks = [tuple(sorted([(cmap[ci], rest) for ci, rest in on])) + end
                  for _, cmap in realizations]
        if len(blocks) == 1:
            least.append((blocks[0], every))
            continue
        low = min(blocks)
        least.append((low, tuple(k for k, block in enumerate(blocks)
                                 if block == low)))

    level_orders = []
    for ordered, runs in levels:
        if runs is None:
            level_orders.append((ordered,))
            continue
        orders = []
        for run in runs:
            if len(run) == 1:
                orders.append((run,))
                continue
            want = sorted(least[a][0] for a in run)
            orders.append([perm for perm in itertools.permutations(run)
                           if [least[a][0] for a in perm] == want])
        level_orders.append([tuple(itertools.chain.from_iterable(p))
                             for p in itertools.product(*orders)])

    # every candidate places the same least cap blocks at each position
    first = tuple(itertools.chain.from_iterable(
        orders[0] for orders in level_orders))
    cap_part = tuple([((i, ci), *rest) for i, a in enumerate(first)
                      for ci, rest in least[a][0][:-1]])

    best = None
    winners = []
    for combo in itertools.product(*level_orders):
        arrangement = tuple(itertools.chain.from_iterable(combo))
        for picked in itertools.product(*(least[a][1] for a in arrangement)):
            key = (arrangement, picked)
            framing = memo.get(key)
            if framing is None:
                framing = memo[key] = _framing(roots, cylinders, arrangement,
                                               picked)
            cyls, dart_maps = framing
            if best is None or cyls < best:
                best, winners = cyls, []
            if cyls == best:
                winners.append((arrangement, dart_maps))
    return head + (cap_part, best), winners


def canonicalize(g, table=None):
    """(minimal encoding, framings) from one pass over framings: the
    encoding as a nested tuple, and all framings realizing it, as pairs
    (arrangement of atom indices, {atom: dart map}), in the order of the
    exhaustive pass over every product of in-level orders and minimal
    roots.  Two graphs are isomorphic iff their encodings are equal;
    `form_bytes` turns an encoding into the canonical form.  The dart maps
    are read-only and shared with the other graphs of g's skeleton.

    `table` is the operation's `SkeletonTable`, or g's entry in one, whose
    cap-free frame of g's skeleton (`_skeleton_frame`) the pass reads; with
    None the frame is built for this call alone.  A table serves any
    number of markings: the frame is kept per marking.

    Only the framings whose caps can be least are compared.  The header and
    level sizes are fixed, and atoms inside a level are sorted by code and
    only reordered among equal codes, so the codes are the same for every
    framing and the caps decide first.  The caps sort by atom position
    first, so they are one block per position, and a block depends only on
    the atom placed there and on its root.  Every framing has the same
    number of caps, so when one block is a proper prefix of another the
    longer one is smaller (the shorter one is followed by a cap of a later
    position); each block therefore compares as its entries followed by an
    end mark above every entry.  The caps compare as the sequence of blocks,
    and each atom chooses its root on its own, so the least caps are reached
    exactly when every atom takes a root with its least block and every run
    of equal codes is ordered so that its least blocks ascend.  Full
    encodings, cylinders included, are compared only among those framings.

    Every one of those framings places at each position the least blocks of
    its run in ascending order, so all of them have the same caps: the
    header, level sizes and codes come with the frame, the caps are encoded
    once, and the framings are compared by their cylinders alone, which
    the frame's memo holds per framing for every class on the skeleton
    (`_framing_cylinders`).  An atom with one minimal root has its one
    block as its least, and a level or a run of one atom has one order, so
    none of them is compared.
    """
    return _minimal_framings(_frame(g, table, False), g.caps)


def canonicalize_mirror(g, table=None):
    """`canonicalize(mirror(g))`, equal in encoding and framings, without
    building the mirror graph: the frame is built on each atom's mirror and
    circle map, read off `_rebuilt_atom`, which the atom keeps, and kept on
    g's entry in `table` beside `canonicalize`'s.  Mirroring keeps every
    saddle label, so `saddle_positions(g, framings)` places the saddles of
    the mirror."""
    return _minimal_framings(_frame(g, table, True), g.caps)


def canonical_skeleton(g, table=None):
    """(minimal encoding, |Aut(S)|) of g's skeleton S, its graph without
    the caps: `canonicalize`'s pass with no caps.  Its framings are the
    automorphisms of S that preserve levels and orientation and fix the
    marked saddles, one each, so |Aut(S)| is their number.  Graphs of one
    marking have equal skeleton encodings iff their skeletons are
    isomorphic."""
    enc, framings = _minimal_framings(_frame(g, table, False), ())
    return enc, len(framings)


# the encoder of canonical forms: compact, nested lists in their order; an
# encoding is a tree of fresh tuples, so it tracks no cycles
_FORM_ENCODER = json.JSONEncoder(separators=(",", ":"), check_circular=False)


def form_bytes(enc):
    """The canonical byte string of a minimal encoding from `canonicalize`.
    Equal encodings give equal bytes, but tuple order is not byte order."""
    return _FORM_ENCODER.encode(enc).encode("ascii")


def canonical_form(g, table=None):
    """Canonical byte string: equal iff isomorphic by an orientation- and
    level-preserving isomorphism fixing marked labels pointwise.  `table`
    is `canonicalize`'s."""
    return form_bytes(canonicalize(g, table)[0])


def saddle_positions(g, framings):
    """saddle -> (atom position, vertex index) in the first of the minimal
    `framings` of `g` (see `canonicalize`).  For two graphs with one form,
    matching saddles at equal positions is an isomorphism between them."""
    arrangement, dart_maps = framings[0]
    return {v: (i, dart_maps[a][(v, 0)] // 4)
            for i, a in enumerate(arrangement)
            for v in g.atoms[a].saddles}


def decode_canonical(data):
    """Rebuild a representative graph from a canonical form.

    Unmarked critical points get the smallest labels not used by marked ones,
    in encoding order, so re-encoding reproduces the same canonical form.
    """
    try:
        header, level_sizes, atom_codes, caps, cyls = json.loads(data.decode("ascii"))
        q, p, r, marked_saddles, fixed_saddles = header
    except (ValueError, UnicodeDecodeError) as exc:
        raise LMGJSONError("undecodable canonical form: %s" % exc)

    atoms = []
    saddle_labels = []
    taken = set(marked_saddles)
    free = iter(x for x in range(1, q + 1) if x not in taken)
    for nv, edges, tags in atom_codes:
        labels = [tag[0] if tag[0] != -1 else next(free) for tag in tags]
        saddle_labels.append(labels)
        es = [((labels[o // 4], o % 4), (labels[i // 4], i % 4)) for o, i in edges]
        atoms.append(Atom.shared(labels, es))

    levels = []
    k = 0
    for size in level_sizes:
        levels.append(tuple(range(k, k + size)))
        k += size

    # Known defect: circle indices in the encoding number the circles of the
    # atom relabeled by discovery order (vertex i carries darts 4i..4i+3),
    # but the rebuilt atom carries the decoded saddle labels and `Atom.of`
    # sorts its edges by (label, slot).  Whenever the decoded labels do not
    # increase in discovery order the two circle orders can differ; caps and
    # cylinders then land on other circles, and the graph returned is of
    # another class than `data` (test_decode_round_trip_partially_marked is
    # the expected failure that pins this).
    taken_min = {lab for _, kind, lab, m, _ in caps if kind == "min" and m}
    taken_max = {lab for _, kind, lab, m, _ in caps if kind == "max" and m}
    free_min = iter(x for x in range(1, p + 1) if x not in taken_min)
    free_max = iter(x for x in range(1, r + 1) if x not in taken_max)
    cap_objs = []
    for ref, kind, lab, m, fx in caps:
        if lab == -1:
            lab = next(free_min) if kind == "min" else next(free_max)
        cap_objs.append(Cap(circle=tuple(ref), kind=kind, label=lab,
                            marked=bool(m), fixed=bool(fx)))

    cyl_objs = []
    for pair in cyls:
        (a1, c1), (a2, c2) = pair
        # orient: the upper-circle end is the lower end of the cylinder
        side1 = atoms[a1].circles[c1][0]
        lo, hi = ((a1, c1), (a2, c2)) if side1 == "upper" else ((a2, c2), (a1, c1))
        cyl_objs.append((tuple(lo), tuple(hi)))

    return LMG(q=q, p=p, r=r, levels=tuple(levels), atoms=tuple(atoms),
               caps=tuple(cap_objs), cylinders=tuple(sorted(cyl_objs)),
               marked_saddles=frozenset(marked_saddles),
               fixed_saddles=frozenset(fixed_saddles))


@dataclass(frozen=True)
class Automorphism:
    """A structure automorphism: level-preserving, orientation-preserving,
    fixing marked labels pointwise.  It carries the permutations it induces
    on the graph it was computed from.

    `darts` and `saddles` are read-only mappings from each dart (saddle,
    slot) and saddle label to its image.  `edges` and `cylinders` are
    tuples: entry i is the position in `global_edges()` of the image of the
    edge at position i, and the index of the image of cylinder i.  The dart
    map determines the rest, so it alone is hashed."""

    darts: MappingProxyType
    saddles: MappingProxyType
    edges: tuple
    cylinders: tuple

    def __hash__(self):
        return hash(frozenset(self.darts.items()))

    def is_identity(self):
        return all(d == e for d, e in self.darts.items())


def automorphisms(g, framings):
    """All structure automorphisms, identity first, from the framings that
    realize the minimal encoding of `g` (see `canonicalize`).

    Every winning framing differs from a reference one by exactly one
    automorphism, found by composing the two framings' dart relabelings
    atom position by atom position.  One winning framing means the group
    is the identity alone, which is built as it is, with the entries in the
    order the composition gives them.
    """
    ref_arr, ref_maps = framings[0]
    offset = g.edge_offsets()
    if len(framings) == 1:
        return [Automorphism(
            darts=MappingProxyType({d: d for a in ref_arr for d in ref_maps[a]}),
            saddles=MappingProxyType({v: v for atom in g.atoms
                                      for v in atom.saddles}),
            edges=tuple(range(offset[-1])),
            cylinders=tuple(range(len(g.cylinders))))]
    by_out = [atom.edge_at_out() for atom in g.atoms]
    circle_at = {(a, e, side): ci for a, atom in enumerate(g.atoms)
                 for ci, (side, cyc) in enumerate(atom.circles) for e in cyc}
    cylinder_at = {tuple(lo): k for k, (lo, _) in enumerate(g.cylinders)}

    out = []
    for arr, maps in framings:
        darts = {}
        images = [None] * offset[-1]   # global edge -> (atom, local edge)
        for ra, a in zip(ref_arr, arr):
            dart_of = {nid: d for d, nid in maps[a].items()}
            for d, nid in ref_maps[ra].items():
                darts[d] = dart_of[nid]
            for i, (o, _) in enumerate(g.atoms[ra].edges):
                images[offset[ra] + i] = (a, by_out[a][darts[o]])
        circles = {}
        for a, atom in enumerate(g.atoms):
            for ci, (side, cyc) in enumerate(atom.circles):
                ta, te = images[offset[a] + cyc[0]]
                circles[(a, ci)] = (ta, circle_at[(ta, te, side)])
        out.append(Automorphism(
            darts=MappingProxyType(darts),
            saddles=MappingProxyType({v: darts[(v, 0)][0] for atom in g.atoms
                                      for v in atom.saddles}),
            edges=tuple(offset[a] + i for a, i in images),
            cylinders=tuple(cylinder_at[circles[tuple(lo)]]
                            for lo, _ in g.cylinders)))
    out.sort(key=lambda phi: (not phi.is_identity(), sorted(phi.darts.items())))
    return out


# ---------------------------------------------------------------------------
# Mirror and duality
# ---------------------------------------------------------------------------

def _rebuilt_atom(atom, flip):
    """(new atom, circle map) of one atom under `_rebuilt`: entry ci of the
    map is the index of the image of circle ci.  The atom keeps it per
    `flip`; the new atom is interned, so a mirror's mirror is the atom."""
    def rebuild():
        slot_map = (lambda s: (s - 1) % 4) if flip else (lambda s: (1 - s) % 4)
        na = Atom.shared(atom.saddles, [((iv, slot_map(is_)), (ov, slot_map(os)))
                                        for (ov, os), (iv, is_) in atom.edges])
        # old local edge -> new local edge: old (o,i) becomes the new edge
        # whose out-dart is the image of the old in-dart
        by_out = na.edge_at_out()
        bij = [by_out[(iv, slot_map(is_))] for _, (iv, is_) in atom.edges]
        table = {(side, frozenset(cyc)): ci
                 for ci, (side, cyc) in enumerate(na.circles)}
        swap = {"upper": "lower", "lower": "upper"}
        return (na, tuple(
            table[(swap[side] if flip else side, frozenset(bij[e] for e in cyc))]
            for side, cyc in atom.circles))

    return atom.kept(("rebuilt", flip), rebuild)


def _rebuilt(g, flip):
    """Shared machinery for mirror (reverse rotations) and dual (`flip`:
    turn f upside down, so sides, cap kinds and levels swap too)."""
    new_atoms, circle_maps = zip(*(_rebuilt_atom(atom, flip) for atom in g.atoms))

    levels = tuple(tuple(lev) for lev in reversed(g.levels)) if flip else g.levels

    def ref(c):
        a, ci = c
        return (a, circle_maps[a][ci])

    caps = []
    for c in g.caps:
        kind = {"min": "max", "max": "min"}[c.kind] if flip else c.kind
        caps.append(Cap(circle=ref(tuple(c.circle)), kind=kind, label=c.label,
                        marked=c.marked, fixed=c.fixed))
    cyls = []
    for lo, hi in g.cylinders:
        if flip:
            cyls.append((ref(tuple(hi)), ref(tuple(lo))))
        else:
            cyls.append((ref(tuple(lo)), ref(tuple(hi))))
    p, r = (g.r, g.p) if flip else (g.p, g.r)
    return LMG(q=g.q, p=p, r=r, levels=levels, atoms=new_atoms,
               caps=tuple(caps), cylinders=tuple(sorted(cyls)),
               marked_saddles=g.marked_saddles, fixed_saddles=g.fixed_saddles)


def mirror(g):
    """Reverse all cyclic orders (orientation reversal); min/max and levels
    keep their roles, edge directions flip."""
    return _rebuilt(g, flip=False)


def dual(g):
    """Flip the function upside down: levels reverse, minima become maxima,
    edge directions flip, rotations are kept."""
    return _rebuilt(g, flip=True)


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------

# A graph document is written from these templates, keys in sorted order.
# Every graph written has been validated, so its counts, labels and circle
# references are ints, its cap kinds "min" or "max" and its cap flags bools.
_GRAPH_TEXT = ('{"atoms":[%s],"caps":[%s],"cylinders":[%s],'
               '"fixed_saddles":[%s],"levels":[%s],"marked_saddles":[%s],'
               '"p":%d,"q":%d,"r":%d}')
_ATOM_TEXT = '{"darts":%d,"edges":[%s],"saddles":[%s]}'
_CAP_TEXT = ('{"circle":[%d,%d],"fixed":%s,"kind":"%s","label":%d,'
             '"marked":%s}')
_JSON_BOOL = ("false", "true")


def _ints(xs):
    return ",".join(map(str, xs))


def _atom_text(atom):
    """The text of an atom's entry in a graph document, kept on the atom:
    an edge joins dart numbers 4 * (saddle position) + slot."""
    def text():
        pos = {v: 4 * i for i, v in enumerate(atom.saddles)}
        return _ATOM_TEXT % (
            4 * len(atom.saddles),
            ",".join(["[%d,%d]" % (pos[o[0]] + o[1], pos[i[0]] + i[1])
                      for o, i in atom.edges]),
            _ints(atom.saddles))

    return atom.kept("text", text)


def _graph_text(g):
    """The JSON text of a validated leveled graph: compact, keys sorted.
    Catalogs and complex dumps embed it as it is."""
    return _GRAPH_TEXT % (
        ",".join([_atom_text(atom) for atom in g.atoms]),
        ",".join([_CAP_TEXT % (*c.circle, _JSON_BOOL[c.fixed], c.kind,
                               c.label, _JSON_BOOL[c.marked])
                  for c in g.caps]),
        ",".join(["[[%d,%d],[%d,%d]]" % (*lo, *hi) for lo, hi in g.cylinders]),
        _ints(sorted(g.fixed_saddles)),
        ",".join(["[%s]" % _ints(lev) for lev in g.levels]),
        _ints(sorted(g.marked_saddles)),
        g.p, g.q, g.r)


def to_json(g):
    """Stable JSON text for a validated leveled graph: compact, keys sorted,
    the text that catalogs and complex dumps embed."""
    return _graph_text(g)


def _json_list(x, what):
    """x when it is a JSON list: `tuple("")` and `tuple({})` are () too."""
    if type(x) is not list:
        raise LMGJSONError("%s is not a JSON list but a %s"
                           % (what, type(x).__name__))
    return x


def _circle_ref(ref):
    if not (isinstance(ref, list) and len(ref) == 2
            and type(ref[0]) is type(ref[1]) is int):
        raise LMGJSONError("circle reference is not a pair of ints: %r" % (ref,))
    return tuple(ref)


def from_json(doc):
    """Read a leveled graph from JSON text or from an already decoded
    document; raises LMGJSONError naming the offending key."""
    if isinstance(doc, str):
        try:
            doc = json.loads(doc)
        except (ValueError, RecursionError) as exc:
            raise LMGJSONError("invalid JSON: %s" % exc)
    if not isinstance(doc, dict):
        raise LMGJSONError("graph document is not a JSON object")
    for key in ("q", "p", "r", "levels", "atoms", "caps", "cylinders",
                "marked_saddles", "fixed_saddles"):
        if key not in doc:
            raise LMGJSONError("missing key %r" % key)
    try:
        atoms = []   # (saddles, edges), interned once their types are checked
        for ad in _json_list(doc["atoms"], "atoms"):
            saddles = _json_list(ad["saddles"], "atom saddles")
            darts = ad["darts"]
            if type(darts) is not int or darts != 4 * len(saddles):
                raise LMGJSONError("atom darts %r is not 4 per saddle of %r"
                                   % (darts, saddles))
            edges = []
            for o, i in _json_list(ad["edges"], "atom edges"):
                if not (type(o) is type(i) is int
                        and 0 <= o < darts and 0 <= i < darts):
                    raise LMGJSONError("edge %r is not a pair of dart numbers "
                                       "in 0..%d" % ([o, i], darts - 1))
                edges.append(((saddles[o // 4], o % 4), (saddles[i // 4], i % 4)))
            atoms.append((saddles, edges))
        caps = tuple(Cap(circle=_circle_ref(cd["circle"]), kind=cd["kind"],
                         label=cd["label"], marked=cd["marked"],
                         fixed=cd["fixed"])
                     for cd in _json_list(doc["caps"], "caps"))
        cylinders = tuple(sorted((_circle_ref(lo), _circle_ref(hi)) for lo, hi
                                 in _json_list(doc["cylinders"], "cylinders")))
        levels = tuple(tuple(_json_list(lev, "level"))
                       for lev in _json_list(doc["levels"], "levels"))
        marked = _json_list(doc["marked_saddles"], "marked_saddles")
        fixed = _json_list(doc["fixed_saddles"], "fixed_saddles")
        ints = (doc["q"], doc["p"], doc["r"], *(a for lev in levels for a in lev),
                *(v for saddles, _ in atoms for v in saddles),
                *(c.label for c in caps), *marked, *fixed)
        if (any(type(x) is not int for x in ints)
                or any(type(c.kind) is not str or type(c.marked) is not bool
                       or type(c.fixed) is not bool for c in caps)):
            raise LMGJSONError("q, p, r, level entries, saddles, marked and "
                               "fixed saddles and cap labels must be ints, "
                               "cap kinds strings and cap marked/fixed flags "
                               "booleans")
        return LMG(q=doc["q"], p=doc["p"], r=doc["r"], levels=levels,
                   atoms=tuple(Atom.shared(*atom) for atom in atoms),
                   caps=caps, cylinders=cylinders,
                   marked_saddles=frozenset(marked),
                   fixed_saddles=frozenset(fixed))
    except LMGJSONError:
        raise
    except (KeyError, IndexError, TypeError, ValueError) as exc:
        # ValueError: an edge or cylinder entry that does not unpack as a pair
        raise LMGJSONError("malformed graph document: %r" % (exc,))

