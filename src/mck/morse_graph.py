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
from dataclasses import dataclass, replace as dc_replace
from functools import cached_property
from types import MappingProxyType

from .permutohedron import OrderedPartition

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


class MarkCountError(LMGError):
    """Fewer than three marked critical points."""


class LMGJSONError(LMGError):
    """Malformed serialized graph."""


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

    def check(self):
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
        """Ordered partition of saddle labels by level (J)."""
        blocks = []
        for lev in self.levels:
            blk = set()
            for a in lev:
                blk |= set(self.atoms[a].saddles)
            blocks.append(frozenset(blk))
        return OrderedPartition.of(blocks, self.q)

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

    def replace(self, **kw):
        return dc_replace(self, **kw)


@dataclass(frozen=True)
class RegionReport:
    p: int
    q: int
    r: int
    s: int
    t: int
    n: int
    min_disks: tuple   # sorted min labels
    max_disks: tuple   # sorted max labels
    cylinders: tuple   # (lower level, upper level) per cylinder, 1-based


def validate(g, require_marks=True):
    """Full validation; returns a RegionReport on success.

    Raises a distinct LMGError subclass per diagnostic.  `require_marks`
    controls the marked-count condition (more than chi(S^2) = 2 marked
    critical points); structural checks always run.
    """
    if not g.atoms:
        raise StructureError("no atoms")
    for atom in g.atoms:
        atom.check()

    placed = [a for lev in g.levels for a in lev]
    if sorted(placed) != list(range(len(g.atoms))):
        raise StructureError("levels must list every atom exactly once")
    if any(not lev for lev in g.levels):
        raise StructureError("empty level")

    labels = [v for atom in g.atoms for v in atom.saddles]
    if len(set(labels)) != len(labels):
        raise LabelCollisionError("saddle label used by two atoms")
    if set(labels) != set(range(1, g.q + 1)):
        raise StructureError("saddle labels must be {1..q}")

    tables = [atom.circles for atom in g.atoms]
    usage = {}

    def use(ref, what):
        a, c = ref
        if not (0 <= a < len(g.atoms)) or not (0 <= c < len(tables[a])):
            raise StructureError("bad circle reference %r" % (ref,))
        if ref in usage:
            raise StructureError("circle %r used twice (%s and %s)"
                                 % (ref, usage[ref], what))
        usage[ref] = what

    for cap in g.caps:
        if cap.kind not in ("min", "max"):
            raise StructureError("bad cap kind %r" % (cap.kind,))
        use(tuple(cap.circle), "cap")
        side = tables[cap.circle[0]][cap.circle[1]][0]
        if cap.kind == "min" and side != "lower":
            raise CapSideError("min-disk on an upper circle: %r" % (cap,))
        if cap.kind == "max" and side != "upper":
            raise CapSideError("max-disk on a lower circle: %r" % (cap,))
        if cap.fixed and not cap.marked:
            raise StructureError("fixed cap must be marked: %r" % (cap,))

    levels_of = g.atom_levels()
    cyl_levels = []
    for lo, hi in g.cylinders:
        use(tuple(lo), "cylinder")
        use(tuple(hi), "cylinder")
        if tables[lo[0]][lo[1]][0] != "upper":
            raise CapSideError("cylinder lower end %r is not an upper circle" % (lo,))
        if tables[hi[0]][hi[1]][0] != "lower":
            raise CapSideError("cylinder upper end %r is not a lower circle" % (hi,))
        li, lj = levels_of[lo[0]], levels_of[hi[0]]
        if li >= lj:
            raise CylinderLevelError("cylinder pairs level %d with level %d" % (li, lj))
        cyl_levels.append((li, lj))

    for a in range(len(g.atoms)):
        for c in range(len(tables[a])):
            if (a, c) not in usage:
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
    if not g.marked_saddles <= set(range(1, g.q + 1)):
        raise LabelCollisionError("marked saddle outside {1..q}")
    if not g.fixed_saddles <= g.marked_saddles:
        raise StructureError("fixed saddles must be marked")

    # surface connectivity through cylinders
    pairs = [(lo[0], hi[0]) for lo, hi in g.cylinders]
    if len(components(range(len(g.atoms)), pairs)) != 1:
        raise DisconnectedError("assembled surface is not connected")

    (ph, qh, rh), _ = g.marking_counts()
    if require_marks and ph + qh + rh <= 2:
        raise MarkCountError("need more than 2 marked critical points, have %d"
                             % (ph + qh + rh))

    return RegionReport(
        p=p_actual, q=g.q, r=r_actual, s=len(g.levels), t=len(g.atoms),
        n=len(g.cylinders), min_disks=tuple(mins), max_disks=tuple(maxs),
        cylinders=tuple(cyl_levels))


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
# isomorphism fixing marked points.  Every framing achieving the minimum
# yields one automorphism, so `canonicalize` gets the form and the group
# from one pass, and `canonical_positions` the form and the place of every
# saddle in one winning framing.  Each atom's circle maps are computed once
# per minimal root dart and shared by every framing that picks it.

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
    circle map) for one root dart achieving the minimum.
    """
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
    return best, [(dmap, _relabeled_circles(atom, dmap)) for dmap in dart_maps]


def _relabeled_circles(atom, dmap):
    """Circle-index map of an atom under a dart relabeling: each circle
    index of `atom` maps to the index of its image among the canonical
    circles of the relabeled atom."""
    # relabeled edges sorted by out-dart id define the relabeled edge order
    by_new = sorted(range(len(atom.edges)), key=lambda e: dmap[atom.edges[e][0]])
    new_of_orig = {orig: k for k, orig in enumerate(by_new)}
    # canonical order: lowers then uppers, by smallest edge id
    circles = atom.circles
    idx = sorted(range(len(circles)),
                 key=lambda c: (circles[c][0] != "lower",
                                min(new_of_orig[e] for e in circles[c][1])))
    return {orig: new for new, orig in enumerate(idx)}


def _framing_encoding(g, arrangement, codes, circle_maps):
    """Full encoding for one framing.

    arrangement: tuple of original atom indices in framing order (levels
    concatenated); codes: their atom codes in that order; circle_maps[a]:
    the circle map of the root dart chosen for atom a.
    """
    pos = {a: i for i, a in enumerate(arrangement)}

    def ref(circle):
        a, c = circle
        return (pos[a], circle_maps[a][c])

    caps = tuple(sorted(
        (ref(c.circle), c.kind, c.label if c.marked else -1, c.marked, c.fixed)
        for c in g.caps))
    cyls = tuple(sorted(tuple(sorted((ref(lo), ref(hi)))) for lo, hi in g.cylinders))
    header = (g.q, g.p, g.r,
              tuple(sorted(g.marked_saddles)), tuple(sorted(g.fixed_saddles)))
    level_sizes = tuple(len(lev) for lev in g.levels)
    return (header, level_sizes, codes, caps, cyls)


def _min_framings(g):
    """All framings achieving the minimal encoding.

    Returns (encoding, list of (arrangement, {atom: dart_map}))."""
    per_atom = [_atom_min_codes(atom, g.marked_saddles, g.fixed_saddles)
                for atom in g.atoms]

    level_orders = []
    for lev in g.levels:
        ordered = sorted(lev, key=lambda a: per_atom[a][0])
        groups = [list(grp) for _, grp in
                  itertools.groupby(ordered, key=lambda a: per_atom[a][0])]
        perms = [list(p) for p in itertools.product(
            *[list(itertools.permutations(grp)) for grp in groups])]
        level_orders.append([tuple(itertools.chain.from_iterable(p)) for p in perms])

    best = None
    winners = []
    for combo in itertools.product(*level_orders):
        arrangement = tuple(itertools.chain.from_iterable(combo))
        codes = tuple(per_atom[a][0] for a in arrangement)
        for picked in itertools.product(*(per_atom[a][1] for a in arrangement)):
            enc = _framing_encoding(
                g, arrangement, codes,
                {a: cmap for a, (_, cmap) in zip(arrangement, picked)})
            if best is None or enc < best:
                best, winners = enc, []
            if enc == best:
                winners.append((arrangement, {a: dmap for a, (dmap, _)
                                              in zip(arrangement, picked)}))
    return best, winners


def _encode_bytes(enc):
    return json.dumps(enc, separators=(",", ":")).encode("ascii")


def canonical_form(g):
    """Canonical byte string: equal iff isomorphic by an orientation- and
    level-preserving isomorphism fixing marked labels pointwise."""
    enc, _ = _min_framings(g)
    return _encode_bytes(enc)


def canonicalize(g):
    """(canonical form, automorphism group) from one pass over framings."""
    enc, winners = _min_framings(g)
    return _encode_bytes(enc), automorphisms(g, winners)


def canonical_positions(g):
    """(canonical form, saddle -> (atom position, vertex index)) from one
    pass over framings.  Positions are read off the first winning framing,
    so for two graphs with one form, matching saddles at equal positions is
    an isomorphism between them."""
    enc, winners = _min_framings(g)
    arrangement, dart_maps = winners[0]
    positions = {v: (i, dart_maps[a][(v, 0)] // 4)
                 for i, a in enumerate(arrangement)
                 for v in g.atoms[a].saddles}
    return _encode_bytes(enc), positions


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
    free = iter(x for x in range(1, q + 1)
                if x not in set(marked_saddles))
    for nv, edges, tags in atom_codes:
        labels = [tag[0] if tag[0] != -1 else next(free) for tag in tags]
        saddle_labels.append(labels)
        es = [((labels[o // 4], o % 4), (labels[i // 4], i % 4)) for o, i in edges]
        atoms.append(Atom.of(labels, es))

    levels = []
    k = 0
    for size in level_sizes:
        levels.append(tuple(range(k, k + size)))
        k += size

    # circle indices in the encoding refer to the relabeled atoms, which is
    # exactly the labeling the rebuilt atoms carry
    free_min = iter(x for x in range(1, p + 1)
                    if x not in {lab for _, kind, lab, m, _ in caps
                                 if kind == "min" and m})
    free_max = iter(x for x in range(1, r + 1)
                    if x not in {lab for _, kind, lab, m, _ in caps
                                 if kind == "max" and m})
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

    `darts`, `saddles` and `circles` are read-only mappings from each dart
    (saddle, slot), saddle label and circle reference (atom, circle index)
    to its image.  `edges` and `cylinders` are tuples: entry i is the
    position in `global_edges()` of the image of the edge at position i,
    and the index of the image of cylinder i.  The dart map determines the
    rest, so it alone is hashed."""

    darts: MappingProxyType
    saddles: MappingProxyType
    edges: tuple
    circles: MappingProxyType
    cylinders: tuple

    def __hash__(self):
        return hash(frozenset(self.darts.items()))

    def is_identity(self):
        return all(d == e for d, e in self.darts.items())


def automorphisms(g, winners):
    """All structure automorphisms, identity first, from the framings
    `winners` that realize the minimal encoding of `g` (see `canonicalize`).

    Every winning framing differs from a reference one by exactly one
    automorphism, found by composing the two framings' dart relabelings
    atom position by atom position.
    """
    ref_arr, ref_maps = winners[0]
    offset = list(itertools.accumulate(
        (len(atom.edges) for atom in g.atoms), initial=0))
    by_out = [atom.edge_at_out() for atom in g.atoms]
    circle_at = {(a, e, side): ci for a, atom in enumerate(g.atoms)
                 for ci, (side, cyc) in enumerate(atom.circles) for e in cyc}
    cylinder_at = {tuple(lo): k for k, (lo, _) in enumerate(g.cylinders)}

    out = []
    for arr, maps in winners:
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
            circles=MappingProxyType(circles),
            cylinders=tuple(cylinder_at[circles[tuple(lo)]]
                            for lo, _ in g.cylinders)))
    out.sort(key=lambda phi: (not phi.is_identity(), sorted(phi.darts.items())))
    return out


# ---------------------------------------------------------------------------
# Mirror and duality
# ---------------------------------------------------------------------------

def _rebuilt(g, slot_map, swap_updown, reverse_levels):
    """Shared machinery for mirror (reverse rotations) and dual (flip f)."""
    new_atoms = []
    circle_maps = []
    for atom in g.atoms:
        edges = [((iv, slot_map(is_)), (ov, slot_map(os)))
                 for (ov, os), (iv, is_) in atom.edges]
        na = Atom.of(atom.saddles, edges)
        # old local edge -> new local edge: old (o,i) becomes the new edge
        # whose out-dart is the image of the old in-dart
        by_out = na.edge_at_out()
        bij = {k: by_out[(iv, slot_map(is_))]
               for k, ((ov, os), (iv, is_)) in enumerate(atom.edges)}
        table = {}
        for ci, (side, cyc) in enumerate(na.circles):
            table[(side, frozenset(cyc))] = ci
        cmap = {}
        for ci, (side, cyc) in enumerate(atom.circles):
            nside = ({"upper": "lower", "lower": "upper"}[side]
                     if swap_updown else side)
            cmap[ci] = table[(nside, frozenset(bij[e] for e in cyc))]
        new_atoms.append(na)
        circle_maps.append(cmap)

    if reverse_levels:
        levels = tuple(tuple(lev) for lev in reversed(g.levels))
    else:
        levels = g.levels

    def ref(c):
        a, ci = c
        return (a, circle_maps[a][ci])

    caps = []
    for c in g.caps:
        kind = ({"min": "max", "max": "min"}[c.kind] if swap_updown else c.kind)
        caps.append(Cap(circle=ref(tuple(c.circle)), kind=kind, label=c.label,
                        marked=c.marked, fixed=c.fixed))
    cyls = []
    for lo, hi in g.cylinders:
        if swap_updown:
            cyls.append((ref(tuple(hi)), ref(tuple(lo))))
        else:
            cyls.append((ref(tuple(lo)), ref(tuple(hi))))
    p, r = (g.r, g.p) if swap_updown else (g.p, g.r)
    return LMG(q=g.q, p=p, r=r, levels=levels, atoms=tuple(new_atoms),
               caps=tuple(caps), cylinders=tuple(sorted(cyls)),
               marked_saddles=g.marked_saddles, fixed_saddles=g.fixed_saddles)


def mirror(g):
    """Reverse all cyclic orders (orientation reversal); min/max and levels
    keep their roles, edge directions flip."""
    return _rebuilt(g, lambda s: (1 - s) % 4,
                    swap_updown=False, reverse_levels=False)


def dual(g):
    """Flip the function upside down: levels reverse, minima become maxima,
    edge directions flip, rotations are kept."""
    return _rebuilt(g, lambda s: (s - 1) % 4,
                    swap_updown=True, reverse_levels=True)


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------

def to_doc(g):
    """The JSON document of a leveled graph, as plain dicts, lists and
    scalars; catalogs and complex dumps embed it as it is."""
    atoms = []
    for atom in g.atoms:
        spos = {v: i for i, v in enumerate(atom.saddles)}
        atoms.append({
            "saddles": list(atom.saddles),
            "darts": 4 * len(atom.saddles),
            "edges": [[spos[o[0]] * 4 + o[1], spos[i[0]] * 4 + i[1]]
                      for o, i in atom.edges],
        })
    return {
        "q": g.q, "p": g.p, "r": g.r,
        "levels": [list(lev) for lev in g.levels],
        "atoms": atoms,
        "caps": [{"circle": list(c.circle), "kind": c.kind, "label": c.label,
                  "marked": c.marked, "fixed": c.fixed} for c in g.caps],
        "cylinders": [[list(lo), list(hi)] for lo, hi in g.cylinders],
        "marked_saddles": sorted(g.marked_saddles),
        "fixed_saddles": sorted(g.fixed_saddles),
    }


def to_json(g):
    """Stable JSON text for a leveled graph."""
    return json.dumps(to_doc(g), separators=(",", ":"), sort_keys=True)


def _circle_ref(ref):
    if not (isinstance(ref, list) and len(ref) == 2
            and all(type(x) is int for x in ref)):
        raise LMGJSONError("circle reference is not a pair of ints: %r" % (ref,))
    return tuple(ref)


def from_json(doc):
    """Read a leveled graph from JSON text (str or UTF-8 bytes) or from an
    already decoded document; raises LMGJSONError naming the offending key."""
    if isinstance(doc, (str, bytes)):
        try:
            if isinstance(doc, bytes):
                doc = doc.decode("utf-8")
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
        atoms = []
        for ad in doc["atoms"]:
            saddles = list(ad["saddles"])
            darts = ad["darts"]
            if type(darts) is not int or darts != 4 * len(saddles):
                raise LMGJSONError("atom darts %r is not 4 per saddle of %r"
                                   % (darts, saddles))
            edges = []
            for o, i in ad["edges"]:
                if not all(type(x) is int and 0 <= x < darts for x in (o, i)):
                    raise LMGJSONError("edge %r is not a pair of dart numbers "
                                       "in 0..%d" % ([o, i], darts - 1))
                edges.append(((saddles[o // 4], o % 4), (saddles[i // 4], i % 4)))
            atoms.append(Atom.of(saddles, edges))
        caps = tuple(Cap(circle=_circle_ref(cd["circle"]), kind=cd["kind"],
                         label=cd["label"], marked=cd["marked"],
                         fixed=cd["fixed"])
                     for cd in doc["caps"])
        cylinders = tuple(sorted((_circle_ref(lo), _circle_ref(hi))
                                 for lo, hi in doc["cylinders"]))
        levels = tuple(tuple(lev) for lev in doc["levels"])
        marked = tuple(doc["marked_saddles"])
        fixed = tuple(doc["fixed_saddles"])
        ints = (doc["q"], doc["p"], doc["r"], *(a for lev in levels for a in lev),
                *(v for atom in atoms for v in atom.saddles),
                *(c.label for c in caps), *marked, *fixed)
        if (any(type(x) is not int for x in ints)
                or any(type(c.kind) is not str or type(c.marked) is not bool
                       or type(c.fixed) is not bool for c in caps)):
            raise LMGJSONError("q, p, r, level entries, saddles, marked and "
                               "fixed saddles and cap labels must be ints, "
                               "cap kinds strings and cap marked/fixed flags "
                               "booleans")
        return LMG(q=doc["q"], p=doc["p"], r=doc["r"], levels=levels,
                   atoms=tuple(atoms), caps=caps, cylinders=cylinders,
                   marked_saddles=frozenset(marked),
                   fixed_saddles=frozenset(fixed))
    except LMGJSONError:
        raise
    except (KeyError, IndexError, TypeError, ValueError) as exc:
        # ValueError: an edge or cylinder entry that does not unpack as a pair
        raise LMGJSONError("malformed graph document: %r" % (exc,))


def to_dot(g):
    """Graphviz DOT: one subgraph per level, caps and cylinders drawn."""
    lines = ["digraph lmg {", '  rankdir="BT";']
    for k, lev in enumerate(g.levels):
        lines.append('  subgraph cluster_level_%d {' % (k + 1))
        lines.append('    label="level %d";' % (k + 1))
        for a in lev:
            for v in g.atoms[a].saddles:
                mark = "*" if v in g.fixed_saddles else ("+" if v in g.marked_saddles else "")
                lines.append('    s%d [label="s%d%s" shape=circle];' % (v, v, mark))
        lines.append("  }")
    for a, atom in enumerate(g.atoms):
        for i, (o, t) in enumerate(atom.edges):
            lines.append('  s%d -> s%d [label="e%d.%d"];' % (o[0], t[0], a, i))
    for c in g.caps:
        anchor = g.atoms[c.circle[0]].saddles[0]
        node = "%s%d" % (c.kind, c.label)
        shape = "triangle" if c.kind == "max" else "invtriangle"
        mark = "*" if c.fixed else ("+" if c.marked else "")
        lines.append('  %s [label="%s%s" shape=%s];' % (node, node, mark, shape))
        if c.kind == "max":
            lines.append('  s%d -> %s [style=dotted arrowhead=none label="c%d.%d"];'
                         % (anchor, node, c.circle[0], c.circle[1]))
        else:
            lines.append('  %s -> s%d [style=dotted arrowhead=none label="c%d.%d"];'
                         % (node, anchor, c.circle[0], c.circle[1]))
    for k, (lo, hi) in enumerate(g.cylinders):
        lines.append('  s%d -> s%d [style=dashed label="Z%d"];'
                     % (g.atoms[lo[0]].saddles[0], g.atoms[hi[0]].saddles[0], k + 1))
    lines.append("}")
    return "\n".join(lines) + "\n"
