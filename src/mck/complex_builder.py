"""Class catalogs on the sphere and the handle complex they assemble.

One-level classes are enumerated exhaustively: rotation systems on q labeled
4-valent saddles are fixed by the slot convention, so candidates are the
perfect matchings of outgoing to incoming darts, one per orbit of the
saddles' half-turns and the unmarked saddles' relabelings (isomorphic
atoms that fix the marked saddles are capped once), filtered for
connectivity and the requested disk counts, and capped once per orbit of
the atom's automorphisms on the marked cap labels, so that each class is
canonicalized once.  Candidates are valid by
construction (one connected atom, every circle capped on its own side,
labels 1..p and 1..r, a checked marking), so they are not validated one by
one; every emitted class is.
The catalog entry for each class is the decoded canonical representative,
which makes output independent of enumeration order.

The complex is the downward closure of the one-level seeds under saddle
resolution, and each class carries its handle data (index, cylinder ranks,
polytope dimension, symmetry group, handle Poincare polynomial).  A
class's skeleton is its graph without the caps; each operation (a
catalog, a build, a reload) keeps one `mg.SkeletonTable`, and what does not
read the caps is computed once per skeleton of it: the skeleton checks of
`mg.validate`, the cap-free frames of `mg.canonicalize` and
`mg.canonicalize_mirror`, the homology model and polytope dimension
(`handle_record`) and the build's splits (`_split`).  Every
proper refinement of a class's level partition gets an incidence entry,
keyed by the face as a tuple of sorted saddle tuples, the one form of an
ordered partition (`permutohedron`), which the closure relabels and the
dump writes.  Only the covers (hyperfaces) are split, each at most once per
class, and `delta` runs once per skeleton and cover: the other classes on
that skeleton take the stored split and move their caps.  A deeper face is
a cover of the face `permutohedron.chain_predecessor` names, read through a
saddle relabeling into that face's stored representative.
A face with several blocks also covers other faces, and once a class's
face table is complete, each such cover whose target class has a trivial
group is entered for the class of the other face without a split, or
checked against the entry a split made.  Only the top classes' mirrors
are framed; the others are read off the top classes' face tables.  A
failed identity raises `morse_graph.InvariantViolation` naming the class.
"""

import hashlib
import itertools
import json
from dataclasses import dataclass, replace
from fractions import Fraction

from . import morse_graph as mg
from . import twist_algebra as ta
from .permutohedron import chain_predecessor, face_str, merged, refinements
from .perturbation import PerturbationError, delta

MAX_TOP_Q = 4  # exhaustive search guard; scope of `ta._tree_witness`'s proof


class ParameterError(ValueError):
    """Invalid sphere/marking parameters."""


class ScopeError(ValueError):
    """Parameter regime where class identity would need group action data."""


SCOPE_REFUSAL = ("more than one fixed point of some index: class identity "
                 "under equivalence vs isotopy is not resolved at this scope; "
                 "refusing")


# ---------------------------------------------------------------------------
# Marking specifications
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MarkingSpec:
    """How many critical points of each index are marked / fixed.

    Marked points of an index are the ones with the smallest labels; fixed
    points are the first marked ones.
    """

    marked: tuple  # (p_hat, q_hat, r_hat)
    fixed: tuple   # (p_star, q_star, r_star)

    @classmethod
    def all_marked(cls, p, q, r):
        return cls(marked=(p, q, r), fixed=(0, 0, 0))

    def check(self, p, q, r):
        ph, qh, rh = self.marked
        ps, qs, rs = self.fixed
        if not (0 <= ph <= p and 0 <= qh <= q and 0 <= rh <= r):
            raise ParameterError("marked counts exceed critical point counts")
        if not (0 <= ps <= ph and 0 <= qs <= qh and 0 <= rs <= rh):
            raise ParameterError("fixed counts exceed marked counts")
        if ph + qh + rh <= 2:
            raise ParameterError("need more than 2 marked critical points")

    def builder_scope_ok(self):
        """Class identity may conflate equivalence and isotopy only when the
        marked sphere has a trivial pure mapping class group: at most one
        fixed point per index."""
        return all(x <= 1 for x in self.fixed)


def _cap_flags(marking, kind, label):
    ph, qh, rh = marking.marked
    ps, qs, rs = marking.fixed
    if kind == "min":
        return label <= ph, label <= ps
    return label <= rh, label <= rs


def _marked_saddle_sets(marking):
    _, qh, _ = marking.marked
    _, qs, _ = marking.fixed
    return frozenset(range(1, qh + 1)), frozenset(range(1, qs + 1))


def _marking_differs(g, marking):
    """Whether g's cap flags or marked or fixed saddles are not `marking`'s."""
    return (any((cap.marked, cap.fixed) != _cap_flags(marking, cap.kind, cap.label)
                for cap in g.caps)
            or (g.marked_saddles, g.fixed_saddles) != _marked_saddle_sets(marking))


# ---------------------------------------------------------------------------
# One-level enumeration
# ---------------------------------------------------------------------------

def _check_top_params(p, q, r, marking):
    if p - q + r != 2:
        raise ParameterError("p - q + r = %d, need 2 (sphere)" % (p - q + r))
    if p < 1 or r < 1:
        raise ParameterError("need p >= 1 and r >= 1")
    if not (1 <= q <= MAX_TOP_Q):
        raise ParameterError("q must be in 1..%d for exhaustive search" % MAX_TOP_Q)
    marking.check(p, q, r)


def _check_builder_q(q):
    if q > MAX_TOP_Q:
        raise ParameterError("q = %d: complexes are built for q <= %d only"
                             % (q, MAX_TOP_Q))


def _cap_labelings(g_atom, p, r, marking, marked_saddles, fixed_saddles, q):
    """One labeled capping of a connected one-level atom with p lower and r
    upper circles per orbit of its automorphisms and of the permutations of
    the unmarked cap labels.

    A labeling is the placement of the marked labels 1..p_hat on lower and
    1..r_hat on upper circles; the other circles take the unmarked labels
    in circle order.  The automorphisms are the rotation-preserving ones
    that fix the marked saddles: realization k of the atom's minimal codes
    (`mg._atom_min_codes`) sends circle c to cmap_k^-1[cmap_0[c]].  The
    placements run in `itertools.permutations` order, and every one kept
    marks its whole orbit seen.
    """
    ph, _, rh = marking.marked
    circles = g_atom.circles
    lows = [ci for ci, (side, _) in enumerate(circles) if side == "lower"]
    ups = [ci for ci, (side, _) in enumerate(circles) if side == "upper"]
    (_, cmap0), *others = mg._atom_min_codes(
        g_atom, marked_saddles, fixed_saddles)[1]
    autos = []   # each placement is met once, so the identity is left out
    for _, cmap in others:
        back = {k: c for c, k in enumerate(cmap)}
        autos.append([back[k] for k in cmap0])
    seen = set()
    for placed in itertools.product(itertools.permutations(lows, ph),
                                    itertools.permutations(ups, rh)):
        if placed in seen:
            continue
        seen.update(tuple(tuple(a[c] for c in side) for side in placed)
                    for a in autos)
        caps = []
        for kind, side, on in zip(("min", "max"), (lows, ups), placed):
            order = [*on, *[ci for ci in side if ci not in on]]
            for lab, ci in enumerate(order, 1):
                m, f = _cap_flags(marking, kind, lab)
                caps.append(mg.Cap(circle=(0, ci), kind=kind, label=lab,
                                   marked=m, fixed=f))
        yield mg.LMG(q=q, p=p, r=r, levels=((0,),), atoms=(g_atom,),
                     caps=tuple(caps), cylinders=(),
                     marked_saddles=marked_saddles,
                     fixed_saddles=fixed_saddles)


def _orbit_matchings(q, marked_saddles):
    """One out-to-in dart matching on q labeled saddles per orbit of G_s.

    G_s is generated by the half-turn of any saddle (slot s to s xor 2, which
    swaps its two outgoing and its two incoming darts) and by every
    permutation of the saddles not in `marked_saddles`.  The scan runs over
    all (2q)! matchings in `itertools.permutations` order of the incoming
    darts and keeps the first of each orbit; every matching it keeps marks
    its whole orbit seen.
    """
    saddles = range(1, q + 1)
    outs = [(v, s) for v in saddles for s in mg.OUT_SLOTS]
    ins = [(v, s) for v in saddles for s in mg.IN_SLOTS]
    free = [v for v in saddles if v not in marked_saddles]
    # per group element: the position of the out-dart that moves to each
    # out-dart, and the position each in-dart moves to
    moves = []
    for image in itertools.permutations(free):
        to = dict(zip(free, image))
        for turns in itertools.product((0, 2), repeat=q):
            move = {(v, s): (to.get(v, v), s ^ turns[v - 1])
                    for v in saddles for s in range(4)}
            source = {move[d]: j for j, d in enumerate(outs)}
            moves.append(([source[d] for d in outs],
                          [ins.index(move[d]) for d in ins]))
    kept, seen = [], set()
    for perm in itertools.permutations(range(len(ins))):
        if perm in seen:
            continue
        kept.append(tuple(zip(outs, [ins[k] for k in perm])))
        seen.update(tuple([to_in[perm[j]] for j in source])
                    for source, to_in in moves)
    return kept


def _one_level_atoms(p, q, r, matchings):
    """The connected atoms of the matchings with p lower and r upper circles.

    Each matching joins every outgoing dart to one incoming dart, so every
    atom alternates and matches each dart once; only connectivity can fail."""
    saddles = list(range(1, q + 1))
    for edges in matchings:
        if len(mg.components(saddles, [(o[0], i[0]) for o, i in edges])) != 1:
            continue
        atom = mg.Atom.of(saddles, list(edges))
        sides = [side for side, _ in atom.circles]
        if sides.count("lower") == p and sides.count("upper") == r:
            yield atom


def _top_forms(p, q, r, marking, matchings):
    """The canonical forms of the valid candidates of `matchings` (the
    `_orbit_matchings` scan), one per one-level class, in scan order.

    No two atoms of `_orbit_matchings` have one tagged atom code (the first
    element of `mg._atom_min_codes`: vertex count, relabeled edges and
    per-vertex marked label and fixed flag), and together they have every
    code of the full scan, because two connected atoms on saddles 1..q have
    one tagged code exactly when an element of G_s maps one matching to the
    other.  Equal codes mean a rotation-preserving isomorphism that fixes
    every marked saddle.  It maps outgoing darts to outgoing darts, so it
    turns each saddle by 0 or 2 slots and permutes the unmarked ones: it is
    an element of G_s.  Each element of G_s is such an isomorphism.  So the
    atoms of the scan are pairwise non-isomorphic, and every class has
    one of them.

    Each atom is capped once per orbit of its automorphisms and of the
    unmarked cap labels (`_cap_labelings`), and that is once per class.  An
    isomorphism of two one-level graphs on one atom is a rotation-preserving
    automorphism of the atom that fixes the marked saddles, and it maps
    caps to caps with an equal (label if marked, marked, fixed) tag: it
    maps one placement of the marked labels onto the other, and the
    unmarked labels are told apart by nothing.  Conversely each such
    automorphism, with any permutation of the unmarked labels, is an
    isomorphism.  So the forms are pairwise distinct, and
    `enumerate_top_classes` checks that.

    `_cap_labelings` computes the atom's minimal codes
    (`mg._atom_min_codes`) first; the atom keeps them for the canonical
    forms of all its cappings, which share one skeleton, so one cap-free
    frame.  It is kept on an entry of the atom's own (`mg.Skeleton`), not in
    the operation's table: the scan's atoms are distinct, so no later graph
    has that skeleton, and the atom and its frame are dropped once its
    cappings are framed.
    """
    marked_s, fixed_s = _marked_saddle_sets(marking)
    forms = []
    for atom in _one_level_atoms(p, q, r, matchings):
        skeleton = None
        for g in _cap_labelings(atom, p, r, marking, marked_s, fixed_s, q):
            if skeleton is None:
                skeleton = mg.Skeleton(g.atoms, g.levels, g.cylinders)
            forms.append(mg.canonical_form(g, skeleton))
    return forms


def enumerate_top_classes(p, q, r, marking=None):
    """All one-level classes with the given parameters, canonical order.

    Entries are decoded canonical representatives, so the catalog is a pure
    function of (p, q, r, marking).  Every capping the scan keeps is a
    class of its own; two with one canonical form raise InvariantViolation.
    The classes are validated through one `mg.SkeletonTable`.
    """
    if marking is None:
        marking = MarkingSpec.all_marked(p, q, r)
    _check_top_params(p, q, r, marking)
    matchings = _orbit_matchings(q, _marked_saddle_sets(marking)[0])
    forms = sorted(_top_forms(p, q, r, marking, matchings))
    for a, b in zip(forms, forms[1:]):
        if a == b:
            raise mg.InvariantViolation(
                "class %s: two cappings kept as distinct one-level classes "
                "have one canonical form" % class_id(a))
    table = mg.SkeletonTable()
    out = []
    for cf in forms:
        g = mg.decode_canonical(cf)
        mg.validate(g, table)
        out.append(g)
    return out


# ---------------------------------------------------------------------------
# Handle records and the complex
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class HandleRecord:
    """Per-class handle data."""

    class_id: str
    canonical: bytes
    lmg: object
    index: int        # q - s
    s: int
    n: int            # torus directions: every core (`ta.classify_circles`)
    dim_upoly: int
    handle_dim: int   # index + n + dim_upoly
    gamma_order: int
    mirror: str       # class id of the mirror; None until the build reads it
    all_admissible: bool
    all_free: bool
    poincare: tuple   # handle Poincare polynomial coefficients

    @property
    def mirror_self(self):
        return self.mirror == self.class_id


@dataclass(frozen=True)
class ComplexK:
    """Catalog of handle records plus the incidence map between classes."""

    p: int
    q: int
    r: int
    marking: MarkingSpec
    classes: tuple     # HandleRecord, sorted by canonical form
    incidence: tuple   # (class_id, face key, target class_id)
    top_count: int


def class_id(canonical):
    return "c" + hashlib.sha256(canonical).hexdigest()[:16]


def _poincare(n, autos):
    """Poincare polynomial of the closed handle: invariants of the exterior
    algebra on the n torus directions under the symmetry group's permutation
    action.  Every cylinder core is a torus direction (`ta.classify_circles`),
    so the group permutes them as it permutes the cylinders."""
    acc = [0] * (n + 1)
    for phi in autos:
        # det(I + t P) over cycles: a length-m cycle contributes 1 - (-t)^m
        poly = [1]
        for cyc in mg.trace_cycles(phi.cylinders, range(n)):
            m = len(cyc)
            factor = [0] * (m + 1)
            factor[0] = 1
            factor[m] = -(-1) ** m
            poly = _poly_mul(poly, factor)
        poly += [0] * (n + 1 - len(poly))
        acc = [a + b for a, b in zip(acc, poly[:n + 1])]
    out = []
    for x in acc:
        v, rem = divmod(x, len(autos))
        if rem != 0 or v < 0:
            raise mg.InvariantViolation("non-integral invariant dimension")
        out.append(v)
    return tuple(out)


def _poly_mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x == 0:
            continue
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def handle_record(g, enc, framings, mirror_enc, table):
    """Compute the full handle record of one validated class from its
    framing pass `enc, framings = mg.canonicalize(g)`.  The canonical bytes
    are encoded here, once per class.  `mirror_enc` is the minimal encoding
    of `mg.mirror(g)`, as `mg.canonicalize_mirror(g)` gives it without
    building the mirror graph; the record's `mirror` is `class_id` of its
    bytes, encoded only when it is not `enc`.  `complex_from_json` frames
    each mirror.  `build_complex` frames the top classes' mirrors only and
    reads the others off the top classes' face tables once the closure is
    done (`_mirror_ids`), so it passes None, which leaves `mirror` None
    until then.

    `table` is the caller's `mg.SkeletonTable`, one per complex, or g's
    entry in it: the entry of a class's skeleton, its graph without the
    caps, `(g.atoms, g.levels, g.cylinders)`, keeps its homology model and
    polytope dimension.  `ta.homology_model` and `ta.u_polytope` read only
    the atoms (which hold every saddle, so q too), the cylinders and the
    number of levels, so classes that differ only in their caps get equal
    values.  They are computed, certificates included, for the first class
    that meets its skeleton, and kept only once both functions have
    returned, so a failure names that class.  The caps enter through the
    group, so the group, the stabilizer check, the torus directions and the
    Poincare polynomial stay per class.

    Both callers hand in validated graphs (`build_complex` validates its
    seeds and every split it registers as a class; `_graph_from_json` every
    stored one), so the classification does not validate again.  An
    InvariantViolation is raised again with the class id in front."""
    canonical = mg.form_bytes(enc)
    cid = class_id(canonical)
    autos = mg.automorphisms(g, framings)
    try:
        n = ta.classify_circles(g)

        def model_and_dim():
            model = ta.homology_model(g)
            return model, ta.u_polytope(g, model)

        model, dim_upoly = table.skeleton(g).kept("model", model_and_dim)
        admissible, free = ta.check_stab_action(g, model, autos)
        poincare = _poincare(n, autos)
    except mg.InvariantViolation as exc:
        raise mg.InvariantViolation(
            "class %s: %s" % (cid, exc)) from exc
    if mirror_enc is None:
        mirror = None
    elif mirror_enc == enc:
        mirror = cid
    else:
        mirror = class_id(mg.form_bytes(mirror_enc))
    s = len(g.levels)
    index = g.q - s
    return HandleRecord(
        class_id=cid, canonical=canonical, lmg=g,
        index=index, s=s, n=n,
        dim_upoly=dim_upoly, handle_dim=index + n + dim_upoly,
        gamma_order=len(autos), mirror=mirror,
        all_admissible=admissible, all_free=free,
        poincare=poincare)


def _relabel(face, rho):
    """The face key `face` with saddle v read as rho[v - 1]."""
    return tuple(tuple(sorted(rho[v - 1] for v in block)) for block in face)


def _split(table, skeleton, g, cover):
    """(`delta(g, cover)`, its entry in `table`), served from the entry
    `skeleton` of g's skeleton when a graph on it was split along `cover`
    before.  The entry keeps per cover the split's entry in `table` and its
    circle map {old cap circle: new cap circle}, read off the caps, which
    `split_level` copies in order, moving only their circles; none of it
    depends on the caps.  A hit builds the split on the atoms, levels and
    cylinders of that entry and moves g's own caps through the map, so it
    reaches the split's entry without hashing a skeleton; a cap circle
    missing from the map raises InvariantViolation.  A miss calls `delta`,
    so each kept (skeleton, cover) has passed its cover check."""
    h = None

    def split():
        nonlocal h
        h = delta(g, cover)
        return table.skeleton(h), {old.circle: new.circle
                                   for old, new in zip(g.caps, h.caps)}

    target, moved = skeleton.kept(("split", cover), split)
    if h is not None:
        return h, target
    caps = []
    for cap in g.caps:
        circle = moved.get(cap.circle)
        if circle is None:
            raise mg.InvariantViolation("cap circle %s has no image in the "
                                        "split of its skeleton" % (cap.circle,))
        caps.append(cap if circle == cap.circle else mg.Cap(
            circle, cap.kind, cap.label, cap.marked, cap.fixed))
    return mg.LMG(q=g.q, p=g.p, r=g.r, levels=target.levels,
                  atoms=target.atoms, caps=tuple(caps),
                  cylinders=target.cylinders,
                  marked_saddles=g.marked_saddles,
                  fixed_saddles=g.fixed_saddles), target


def _face_plan(J, shared):
    """(face, chain predecessor, others) per proper face of J, in
    `refinements` order: others are the faces of J other than the
    predecessor that the face covers, `merged(face, k)` for some k."""
    faces = refinements(J)
    proper = set(faces)
    plan = []
    for J1 in faces:
        before = chain_predecessor(J, J1)
        covered = (merged(J1, k) for k in range(len(J1) - 1))
        plan.append((shared(J1), before,
                     tuple(F for F in covered if F in proper and F != before)))
    return plan


def build_complex(seeds):
    """Downward closure of one-level seeds under saddle resolution.

    Each class other than a seed's stores the cover split that first
    reaches it.  Only (class, cover) pairs are split, each at most once:
    `covers` maps a class and a cover face of its representative to the
    target class and a saddle relabeling of the split graph into the
    target's representative, matched by `saddle_positions` (the identity
    when the split is that representative).  A deeper entry (g, J1) takes
    the entry of `chain_predecessor(J, J1)`, which `refinements` lists
    earlier and J1 covers, relabels J1 into that class's representative and
    looks the cover up.  By induction this is the class that a chain of
    cover splits from g to J1 reaches, and that class does not depend on
    the chain.  The faces of J, their predecessors and the other faces each
    covers depend on J only, so they are listed once per distinct level
    partition (`_face_plan`).  A face is a tuple of sorted saddle tuples
    throughout: it is relabeled, memoized, split and dumped in that one
    form.  Faces, relabelings and class ids are shared objects, so the memo
    and the incidence entries hold references, not copies.

    Skeleton table.  A split reads only the skeleton of the graph it
    splits, `(atoms, levels, cylinders)`, and the cover; `split_level`
    copies the caps in order and moves only their circles.  The build keeps
    one `mg.SkeletonTable`, made fresh per build; each class gets its
    representative's entry once, when it is registered, and the entry
    keeps per cover (in that representative's labels) the split's own entry
    and its circle map (`_split`).  A (class, cover) pair whose skeleton was
    split along that cover before takes the stored skeleton and moves its
    own caps through the map, so it gets the graph `delta` would give; a
    cap circle missing from the map raises InvariantViolation naming the
    class and face.  Only a miss calls `delta`, which keeps its cover check
    and its PerturbationError: a hit repeats a (skeleton, cover) that passed
    them.  The split's entry comes with it, so the split is framed,
    validated and given its homology model through that entry, and no
    skeleton is hashed again for it.

    Identity relabelings.  A relabeling equal to the identity is None, as
    a class's own entry is, and `_relabel` and the compositions skip it.
    An isomorphism between two classes' graphs fixes the marked saddles,
    so with every saddle marked every relabeling is the identity, and
    `saddle_positions` is called neither for a cover nor for a registered
    class (`saddle_at` holds None).

    Derived cover entries.  Once g's face table is complete, each face F1
    of g whose class c1 has a trivial group (`gamma_order` 1) gives an
    entry for every other proper face F of J that F1 covers (F =
    `merged(F1, k)`, not F1's chain predecessor): with (c0, rho_F) and
    (c1, rho_F1) the table's entries, covers[(c0, rho_F(F1))] =
    (c1, rho_F1 . rho_F^-1).  The entry is exact.  `split_level` carries
    every saddle label and touches only the atoms of the level it splits,
    so splits of two levels commute, and a block split in three gets the
    same curve system on each sub-level whichever of its two cuts comes
    first (a saddle resolved downward stays so, and so does one resolved
    upward).  The split graphs of two chains of covers from g to F1 thus
    differ only in how atoms and circles are numbered: they are isomorphic
    by a map that fixes every saddle label.  Their class is c1, and a
    relabeling into a representative with a trivial group is unique, so
    splitting rep c0 along rho_F(F1), which is rho_F applied to the split
    of g's graph at F along F1, gives c1 and that relabeling.  A key the
    memo already holds must agree in class and relabeling, or the build
    raises InvariantViolation naming the class.  The outputs do not
    change: only splits whose target class is already registered are
    skipped, so the same splits register the same classes in the same
    order, and every stored representative is the same graph.  Through a
    class with a larger group two chains may give relabelings that differ
    by an automorphism, and the one a split reads off `saddle_positions`
    decides which graph a later split registers, so such a face gives no
    entry.

    Each graph that becomes a representative (a seed or a cover split) is
    framed once by `canonicalize`, and its handle record is computed when
    the class is registered, from that same pass and its skeleton's entry,
    which keeps the homology model and polytope dimension.  Each pass reads
    the cap-free frame its skeleton's entry keeps, so a skeleton is framed
    once per build (1,232 frames for 119,520 passes at `(5,4,1)` all
    marked), and each graph pays only for its caps.
    Classes are looked up by the minimal encoding of that pass, a tuple;
    only a registered class has it turned into canonical bytes, and the
    classes are output in the order of those bytes.
    Reversing the orientation permutes the classes and commutes with every
    cover split, so only the top classes' mirrors are framed; once the
    closure is done, every other class's mirror is read off the top
    classes' face tables, each a contiguous slice of the incidence entries
    (`_mirror_ids`).  That also checks that the faces giving a class agree
    on its mirror, that the map is an involution, and that it is defined on
    every class with more than one level, so a seed set whose closure is
    not mirror-closed below the top level raises InvariantViolation.

    Every seed is validated and must carry the first seed's marking, one
    that `MarkingSpec.check` accepts, and q <= MAX_TOP_Q (ParameterError
    otherwise).  A split is validated when it is registered as a new class;
    an invalid one, or an InvariantViolation of the split, raises
    InvariantViolation naming the class and face split, and a failure in
    the new class's handle record names that class alone (`handle_record`).
    A split whose encoding is already known is not validated, and need not
    be.  The encoding records every atom placed in a level (its edges and
    the labels of its marked saddles), the level sizes, and every cap and
    cylinder by circle, so equal encodings make the split isomorphic to a
    validated representative, and every check of `mg.validate` that an
    isomorphism preserves holds for it too.  Two checks read what the
    encoding cannot see: atoms missing from `levels` (a framing visits only
    placed atoms), and the labels of unmarked saddles and unmarked caps,
    which all encode as -1, so a repeated or out-of-range unmarked label
    would not show.  `split_level`'s construction rules out both.  It keeps
    every untouched atom in its level and puts each new atom in exactly one
    of two new sub-levels; each saddle of the split level lies in exactly
    one new atom, a component of its sub-block's curve system; and caps are
    copied with their kind, label and flags, only their circles moved.  A
    split served from the table is built the same way, on a skeleton that
    `split_level` made.  A split thus carries its input's saddle and cap
    labels, and its input is a seed or a registered class, validated
    already."""
    if not seeds:
        raise ParameterError("no seed classes")
    g0 = seeds[0]
    p, q, r = g0.p, g0.q, g0.r
    _check_builder_q(q)
    marking = MarkingSpec(*g0.marking_counts())
    marking.check(p, q, r)
    if not marking.builder_scope_ok():
        raise ScopeError(SCOPE_REFUSAL)
    table = mg.SkeletonTable()
    for g in seeds:
        if len(g.levels) != 1:
            raise ParameterError("seeds must be one-level classes")
        if (g.p, g.q, g.r) != (p, q, r):
            raise ParameterError("seeds mix parameter sets")
        mg.validate(g, table)
        if _marking_differs(g, marking):
            raise ParameterError("seed marking differs from the first "
                                 "seed's %r" % (marking,))

    known = {}      # minimal encoding -> class index, in order met
    records = []    # class index -> handle record of the first graph met
    saddle_at = []  # class index -> position -> saddle of representative
    queue = []
    # one shared object per distinct face and relabeling: the cover memo
    # and the incidence entries hold references, not copies (peak RSS 250
    # MB after building q = 4 `(5,4,1)` all marked, 293 MB without it)
    pool = {}
    plans = {}      # level partition -> `_face_plan`
    skeleton_of = []    # class index -> skeleton entry of representative
    identity = tuple(range(1, q + 1))
    # an isomorphism fixes marked saddles, so with every saddle marked
    # every relabeling is the identity and no saddle is located
    all_marked = len(g0.marked_saddles) == q

    def shared(x):
        return pool.setdefault(x, x)

    def relabeling(images):
        """The shared relabeling with `images`, None for the identity."""
        rho = tuple(images)
        return None if rho == identity else shared(rho)

    def register(enc, g, framings, skeleton):
        known[enc] = len(records)
        records.append(handle_record(g, enc, framings, None, skeleton))
        skeleton_of.append(skeleton)
        saddle_at.append(None if all_marked else {
            at: v for v, at in mg.saddle_positions(g, framings).items()})
        queue.append(known[enc])

    for g in seeds:
        skeleton = table.skeleton(g)
        enc, framings = mg.canonicalize(g, skeleton)
        if enc not in known:
            register(enc, g, framings, skeleton)
    top_count = len(known)

    # (class, cover face of its representative) -> (target class, saddle
    # relabeling of that split into the target's representative, as the
    # tuple of images of saddles 1..q, or None for the identity)
    covers = {}
    incidence = []
    tops = [None] * top_count   # top class -> its slice of `incidence`
    while queue:
        c = queue.pop()
        g = records[c].lmg
        J = g.level_partition()
        plan = plans.get(J)
        if plan is None:
            plan = plans[J] = _face_plan(J, shared)
        if c < top_count:
            tops[c] = (len(incidence), len(incidence) + len(plan))
        # face -> (class of delta(g, face), saddle relabeling of delta(g,
        # face) into the class's representative, or None for the identity)
        reached = {J: (c, None)}
        for face, before, _ in plan:
            c0, rho0 = reached[before]
            K = face if rho0 is None else _relabel(face, rho0)
            key = (c0, shared(K))
            if key not in covers:
                try:
                    h, skeleton = _split(table, skeleton_of[c0],
                                         records[c0].lmg, K)
                    enc, framings = mg.canonicalize(h, skeleton)
                    if enc not in known:
                        mg.validate(h, skeleton)
                except mg.LMGError as exc:
                    raise mg.InvariantViolation(
                        "class %s: face %s: resolution produced an invalid "
                        "graph: %s" % (records[c0].class_id, face_str(K),
                                       exc)) from exc
                except (mg.InvariantViolation, PerturbationError) as exc:
                    raise mg.InvariantViolation("class %s: face %s: %s" % (
                        records[c0].class_id, face_str(K), exc)) from exc
                # outside the try: a failing handle record names its own class
                if enc not in known:
                    register(enc, h, framings, skeleton)
                c1 = known[enc]
                rho = None
                if not all_marked:
                    at = saddle_at[c1]
                    pos = mg.saddle_positions(h, framings)
                    rho = relabeling(at[pos[v]] for v in identity)
                covers[key] = (c1, rho)
            c1, rho1 = covers[key]
            if rho0 is not None:
                rho1 = rho0 if rho1 is None else relabeling(
                    rho1[w - 1] for w in rho0)
            reached[face] = (c1, rho1)
            incidence.append((records[c].class_id, face, records[c1].class_id))
        # derived cover entries: face F1 of g, whose class has a trivial
        # group, covers each face F of `others` too; read the cover of F's
        # class that F1 is, through F's relabeling, off the table
        for face, _, others in plan:
            c1, rho1 = reached[face]
            if not others or records[c1].gamma_order != 1:
                continue
            for other in others:
                c0, rho0 = reached[other]
                if rho0 is None:
                    K, rho = face, rho1
                else:
                    back = [0] * q
                    for v, w in enumerate(rho0, 1):
                        back[w - 1] = v
                    K = _relabel(face, rho0)
                    rho = relabeling(back if rho1 is None
                                     else (rho1[v - 1] for v in back))
                held = covers.get((c0, K))
                if held is None:
                    covers[(c0, shared(K))] = (c1, rho)
                elif held != (c1, rho):
                    raise mg.InvariantViolation(
                        "class %s: its cover %s reaches class %s by %s, but "
                        "the faces of class %s give class %s by %s" % (
                            records[c0].class_id, face_str(K),
                            records[held[0]].class_id,
                            list(held[1] or identity),
                            records[c].class_id, records[c1].class_id,
                            list(rho or identity)))

    for c, m in enumerate(_mirror_ids(records, skeleton_of, known, saddle_at,
                                      incidence, tops)):
        records[c] = replace(records[c], mirror=m)
    return ComplexK(p=p, q=q, r=r, marking=marking,
                    classes=tuple(sorted(records, key=lambda rec: rec.canonical)),
                    incidence=tuple(sorted(incidence)),
                    top_count=top_count)


def _mirror_ids(records, skeleton_of, known, saddle_at, incidence, tops):
    """Class index -> class id of its representative's mirror, read off the
    top classes' face tables: `tops[t]` is the slice of `incidence` that
    holds top class t's entries, one per proper face, in the order of the
    one `_face_plan` that every top class shares.

    Only the top classes' mirrors are framed, by `mg.canonicalize_mirror`
    on the skeleton entries `skeleton_of` holds, which builds no mirror
    graph; its encoding is looked up in `known`, and
    sigma_t, the saddle relabeling of mirror(rep t) into rep m(t), is
    matched by `saddle_positions` on rep t.  The class at face F of t then
    has as its mirror the class at face sigma_t(F) of m(t), exactly:
    mirroring commutes with a level split and keeps every saddle label, so
    mirror(split(rep t, F)) is isomorphic to split(rep m(t), sigma_t(F));
    every proper ordered partition of 1..q, sigma_t(F) among them, is a
    face of m(t); and by chain independence every class of the closure is
    the class at some face of some top class.  A sigma_t equal to the
    identity is None, and so is every one when `saddle_at` holds None
    (every saddle marked): then F is read as itself and no saddle is
    located.  A top class whose mirror is not a class keeps its framed
    mirror's id and gives no face a mirror.
    An InvariantViolation names the class when its faces give two mirrors,
    when m(m(c)) is not c, or when a class with more than one level has no
    mirror: the complex of a mirror-closed seed set is mirror-closed."""
    identity = tuple(range(1, records[0].lmg.q + 1))
    mirror = {}     # class id -> class id of its mirror in the complex
    outside = {}    # top class -> class id of a mirror not in the complex
    moved = {}      # sigma -> place in a top's slice of sigma(F), per face F
    for t, (start, end) in enumerate(tops):
        g = records[t].lmg
        enc, framings = mg.canonicalize_mirror(g, skeleton_of[t])
        m = known.get(enc)
        if m is None:
            outside[t] = class_id(mg.form_bytes(enc))
            continue
        mirror[records[t].class_id] = records[m].class_id
        at = saddle_at[m]
        sigma = None
        if at is not None:
            pos = mg.saddle_positions(g, framings)
            sigma = tuple(at[pos[v]] for v in identity)
            if sigma == identity:
                sigma = None
        if sigma not in moved:
            faces = [face for _, face, _ in incidence[start:end]]
            place = {face: k for k, face in enumerate(faces)}
            moved[sigma] = [place[face if sigma is None
                                  else _relabel(face, sigma)]
                            for face in faces]
        lo = tops[m][0]
        for (_, _, target), k in zip(incidence[start:end], moved[sigma]):
            m1 = incidence[lo + k][2]
            held = mirror.setdefault(target, m1)
            if held != m1:
                raise mg.InvariantViolation(
                    "class %s: its faces give the mirrors %s and %s"
                    % (target, held, m1))
    out = []
    for c, rec in enumerate(records):
        m = mirror.get(rec.class_id)
        if m is None and rec.s > 1:
            raise mg.InvariantViolation("class %s: its mirror is not a class "
                                        "of the complex" % rec.class_id)
        if m is not None and mirror.get(m) != rec.class_id:
            raise mg.InvariantViolation(
                "class %s: the mirror of its mirror %s is not itself"
                % (rec.class_id, m))
        out.append(outside[c] if m is None else m)
    return out


# ---------------------------------------------------------------------------
# Invariants of the complex
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class EulerReport:
    formula: int
    independent: Fraction
    agree: bool
    note: str


def euler_characteristic(K):
    """The top-class count formula against the additive handle sum.

    Formula value: (-1)^(q-1) times the number of one-level classes.
    Independent value: over classes, (-1)^(q-s) [n = 0] / |Gamma| (each
    compact handle factor contributes its compactly supported Euler
    characteristic; the polytope factor contributes 1).  Every handle is
    compact: every core is a torus direction (`ta.classify_circles`).
    """
    formula = (-1) ** (K.q - 1) * K.top_count
    indep = Fraction(0)
    for rec in K.classes:
        if rec.n == 0:
            indep += Fraction((-1) ** (K.q - rec.s), rec.gamma_order)
    agree = (indep == formula)
    note = "" if agree else (
        "formula and handle sum disagree; nontrivial symmetry groups on "
        "d = 0 classes contribute 1/|Gamma|: reported verbatim")
    return EulerReport(formula=formula, independent=indep, agree=agree,
                       note=note)


def q_polynomial(K):
    """Coefficients of the handle-counting polynomial: per class, t^(q-s)
    times its handle Poincare polynomial."""
    coeffs = []
    for rec in K.classes:
        for j, c in enumerate(rec.poincare):
            deg = rec.index + j
            while len(coeffs) <= deg:
                coeffs.append(0)
            coeffs[deg] += c
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    if not coeffs:
        coeffs = [0]
    if any(c < 0 for c in coeffs):
        raise mg.InvariantViolation("negative handle-count coefficient")
    return coeffs


def betti0(K):
    """Number of connected components of the incidence graph."""
    ids = [rec.class_id for rec in K.classes]
    return len(mg.components(ids, [(src, dst) for src, _, dst in K.incidence]))


def complex_dimension(K):
    """Largest handle dimension."""
    return max(rec.handle_dim for rec in K.classes)


def complex_rank(K):
    """Largest handle index."""
    return max(rec.index for rec in K.classes)


@dataclass(frozen=True)
class MorseSmaleReport:
    q_coeffs: tuple
    q_alternating: tuple        # partial sums q_j - q_{j-1} + ...
    betti: tuple                # () when not provided
    betti_le_q: bool
    alternating_ok: bool
    zero_slots_ok: bool         # beta_j = 0 for j >= 3q - 2
    dim_bound: int
    note: str


def morse_smale_report(K, betti=None):
    """Alternating-sum table of the handle counts, checked against supplied
    Betti numbers when given.  Full Betti numbers of the complex are not
    computed at this scope (no cell structure is built for skew handles)."""
    qs = tuple(q_polynomial(K))
    alt = []
    for j in range(len(qs)):
        alt.append(sum((-1) ** (j - i) * qs[i] for i in range(j + 1)))
    dim_bound = 3 * K.q - 2  # homology vanishes from this degree on
    if betti is None:
        return MorseSmaleReport(
            q_coeffs=qs, q_alternating=tuple(alt), betti=(),
            betti_le_q=True, alternating_ok=True, zero_slots_ok=True,
            dim_bound=dim_bound,
            note="Betti numbers above degree 0 are not reproduced at this "
                 "scope; handle counts reported only")
    betti = tuple(int(b) for b in betti)
    if any(b < 0 for b in betti):
        raise ParameterError("negative Betti number")
    width = max(len(qs), len(betti))
    qq = qs + (0,) * (width - len(qs))
    bb = betti + (0,) * (width - len(betti))
    betti_le_q = all(bb[j] <= qq[j] for j in range(width))
    alternating_ok = all(
        sum((-1) ** (j - i) * bb[i] for i in range(j + 1))
        <= sum((-1) ** (j - i) * qq[i] for i in range(j + 1))
        for j in range(width))
    zero_slots_ok = all(bb[j] == 0 for j in range(dim_bound, width))
    return MorseSmaleReport(
        q_coeffs=qs, q_alternating=tuple(alt), betti=betti,
        betti_le_q=betti_le_q, alternating_ok=alternating_ok,
        zero_slots_ok=zero_slots_ok, dim_bound=dim_bound,
        note="Betti numbers above degree 0 are supplied, not computed")


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------

# the encoder of params, report fields, faces and canonical forms: compact,
# keys sorted; every value it encodes is a tree just built here, so it
# tracks no cycles.  Graphs and class entries are written from templates.
_ENCODER = json.JSONEncoder(separators=(",", ":"), sort_keys=True,
                            check_circular=False)

# a dump's class entry, keys in sorted order: the id, the canonical form,
# the graph and the `_record_fields` that the reload checks it against
_CLASS_TEXT = ('{"admissible":%s,"c":0,"canonical":%s,"d":%d,'
               '"dim_upoly":%d,"e":0,"free":%s,"free_exact":true,'
               '"gamma_order":%d,"handle_dim":%d,"id":"%s","index":%d,'
               '"lmg":%s,"mirror_self":%s,"n":%d,"nu0":%d,"poincare":[%s],'
               '"s":%d,"t":%d}')


def _pieces(fields, lists):
    """The text of the JSON object with the keys of `fields` and `lists`,
    in sorted order, piece by piece: a value of `fields` is encoded whole,
    and a value of `lists` is an iterable of the encoded texts of its
    entries, written one at a time."""
    encode = _ENCODER.encode
    for i, key in enumerate(sorted(fields.keys() | lists.keys())):
        yield ("," if i else "{") + encode(key) + ":"
        if key in fields:
            yield encode(fields[key])
            continue
        sep = "["
        for text in lists[key]:
            yield sep + text
            sep = ","
        yield "[]" if sep == "[" else "]"
    yield "}"


def _emit(fields, lists, fh):
    """The `_pieces` joined, or written to `fh` as they are made."""
    if fh is None:
        return "".join(_pieces(fields, lists))
    fh.writelines(_pieces(fields, lists))
    return None


def _params_doc(p, q, r, marking):
    return {"p": p, "q": q, "r": r, "marked": list(marking.marked),
            "fixed": list(marking.fixed)}


def _record_fields(rec):
    """The per-class fields of a dump entry that are derived from its lmg;
    c, d, nu0, e and free_exact are constant (`ta.classify_circles`)."""
    return {
        "index": rec.index, "s": rec.s, "t": len(rec.lmg.atoms), "n": rec.n,
        "c": 0, "d": rec.n, "nu0": rec.n, "e": 0,
        "dim_upoly": rec.dim_upoly, "handle_dim": rec.handle_dim,
        "gamma_order": rec.gamma_order, "mirror_self": rec.mirror_self,
        "admissible": rec.all_admissible, "free": rec.all_free,
        "free_exact": True,
        "poincare": list(rec.poincare),
    }


def _report_fields(K):
    """The global invariants a dump reports."""
    chi = euler_characteristic(K)
    return {
        "chi": {"formula": chi.formula,
                "independent": [chi.independent.numerator,
                                chi.independent.denominator],
                "agree": chi.agree, "skipped": False},
        "Q": q_polynomial(K),
        "dim": complex_dimension(K),
        "rank": complex_rank(K),
        "top_count": K.top_count,
    }


def complex_to_json(K, fh=None):
    """The JSON dump of K, returned as text, or written to the open text
    file `fh` one class and one incidence entry at a time."""
    fields = dict(_report_fields(K), params=_params_doc(K.p, K.q, K.r,
                                                        K.marking))
    classes = (_class_text(rec) for rec in K.classes)
    return _emit(fields, {"classes": classes,
                          "incidence": _incidence_texts(K.incidence)}, fh)


def _class_text(rec):
    """The text of a dump's class entry.  A class id is "c" and hex digits,
    so it is written unescaped; the canonical form holds quoted strings."""
    boolean = mg._JSON_BOOL
    return _CLASS_TEXT % (
        boolean[rec.all_admissible],
        _ENCODER.encode(rec.canonical.decode("ascii")), rec.n,
        rec.dim_upoly, boolean[rec.all_free], rec.gamma_order,
        rec.handle_dim, rec.class_id, rec.index, mg._graph_text(rec.lmg),
        boolean[rec.mirror_self], rec.n, rec.n, mg._ints(rec.poincare),
        rec.s, len(rec.lmg.atoms))


def _incidence_texts(incidence):
    """The encoded incidence entries, each distinct face encoded once.  A
    class id is "c" and hex digits, so it is written unescaped."""
    faces = {}
    for src, face, dst in incidence:
        text = faces.get(face)
        if text is None:
            text = faces[face] = _ENCODER.encode([list(b) for b in face])
        yield '["%s",%s,"%s"]' % (src, text, dst)


def _json_equal(a, b):
    """Equality of decoded JSON values that also tells true from 1 and 1
    from 1.0."""
    if type(a) is not type(b):
        return False
    if isinstance(a, dict):
        return a.keys() == b.keys() and all(_json_equal(a[k], b[k]) for k in a)
    if isinstance(a, list):
        return len(a) == len(b) and all(map(_json_equal, a, b))
    return a == b


def _check_stored(where, stored, derived):
    """Refuse a document whose stored fields differ from the derived ones."""
    for field, value in derived.items():
        if field not in stored or not _json_equal(stored[field], value):
            raise mg.LMGJSONError(
                "%s: stored %s %r does not match the recomputed %r"
                % (where, field, stored.get(field), value))


def _params_from_json(doc):
    """(p, q, r, marking) of a document's params, type-checked and valid."""
    p, q, r, marked, fixed = (doc["params"][k]
                              for k in ("p", "q", "r", "marked", "fixed"))
    if not (type(marked) is type(fixed) is list and len(marked) == len(fixed) == 3
            and all(type(x) is int for x in (p, q, r, *marked, *fixed))):
        raise mg.LMGJSONError("params need int p, q, r and three-int marked "
                              "and fixed lists")
    marking = MarkingSpec(marked=tuple(marked), fixed=tuple(fixed))
    try:
        marking.check(p, q, r)
    except ParameterError as exc:
        raise mg.LMGJSONError("params: %s" % exc)
    return p, q, r, marking


def _graph_from_json(entry, p, q, r, marking, where, table):
    """(one stored graph, its entry in `table`), the graph on the entry's
    atoms, levels and cylinders and validated through the entry, with the
    document's (p, q, r) and the cap flags and marked and fixed saddles its
    marking gives.  The entry must be a JSON object, not text holding one.
    An error is raised again, of its own class, with `where`, the entry's
    place, in front."""
    try:
        if not isinstance(entry, dict):
            raise mg.LMGJSONError("graph entry is not a JSON object")
        g = mg.from_json(entry)
        if (g.p, g.q, g.r) != (p, q, r):
            raise mg.LMGJSONError("graph (p, q, r) differs from the params")
        skeleton = table.skeleton(g)
        if skeleton.cylinders is not g.cylinders:
            # the graph shares its skeleton's tuples, as a build's splits do
            g = mg.LMG(q=g.q, p=g.p, r=g.r, levels=skeleton.levels,
                       atoms=skeleton.atoms, caps=g.caps,
                       cylinders=skeleton.cylinders,
                       marked_saddles=g.marked_saddles,
                       fixed_saddles=g.fixed_saddles)
        mg.validate(g, skeleton)
        if _marking_differs(g, marking):
            raise mg.LMGJSONError(
                "graph marking differs from the params' marked %s and fixed %s"
                % (list(marking.marked), list(marking.fixed)))
    except mg.LMGError as exc:
        raise type(exc)("%s: %s" % (where, exc)) from exc
    return g, skeleton


def _incidence_entry(src, face, dst, faces):
    """One stored incidence entry, its face read as one shared object per
    distinct face in `faces`, as the build shares them."""
    if not (type(src) is type(dst) is str and type(face) is list and all(
            type(b) is list and all(type(x) is int for x in b) for b in face)):
        raise mg.LMGJSONError("malformed incidence entry %r" % ([src, face, dst],))
    face = tuple(tuple(b) for b in face)
    return src, faces.setdefault(face, face), dst


def _check_incidence(records, incidence):
    """Each class has one entry per proper face of its level partition, and
    each entry leads to a stored class with one level per face block.  The
    faces are listed once per distinct level partition."""
    s_of = {rec.class_id: rec.s for rec in records}
    faces = {}
    for src, face, dst in incidence:
        if src not in s_of or s_of.get(dst) != len(face):
            raise mg.LMGJSONError("class %s: face %r leads to no stored class "
                                  "with s = %d" % (src, face, len(face)))
        faces.setdefault(src, []).append(face)
    wanted = {}     # level partition -> its proper faces, sorted
    for rec in records:
        J = rec.lmg.level_partition()
        want = wanted.get(J)
        if want is None:
            want = wanted[J] = sorted(refinements(J))
        if sorted(faces.get(rec.class_id, [])) != want:
            raise mg.LMGJSONError("class %s: stored incidence entries do not "
                                  "match its %d faces" % (rec.class_id, len(want)))


def _check_mirrors(records, incidence):
    """The mirror is a map on the stored classes: an involution wherever a
    class's mirror is stored, defined on every class with more than one
    level, and mapping the targets of each class's entries onto the targets
    of its mirror's entries, as multisets."""
    by_id = {rec.class_id: rec for rec in records}
    for rec in records:
        m = by_id.get(rec.mirror)
        if m is None and rec.s > 1:
            raise mg.LMGJSONError("class %s: its mirror %s is not stored"
                                  % (rec.class_id, rec.mirror))
        if m is not None and m.mirror != rec.class_id:
            raise mg.LMGJSONError("class %s: the mirror of its mirror %s is "
                                  "not itself" % (rec.class_id, rec.mirror))
    targets = {}
    for src, _, dst in incidence:
        targets.setdefault(src, []).append(dst)
    for rec in records:
        if rec.mirror in by_id:
            mapped = sorted(by_id[dst].mirror
                            for dst in targets.get(rec.class_id, ()))
            if mapped != sorted(targets.get(rec.mirror, ())):
                raise mg.LMGJSONError(
                    "class %s: the mirrors of its entries' targets are not "
                    "the targets of its mirror %s" % (rec.class_id, rec.mirror))


def complex_from_json(doc):
    """Rebuild a complex from its JSON dump (text or the decoded object),
    revalidating every class and refusing it unless every class is listed
    once, every stored record, global invariant and incidence face list
    equals its recomputation, and the framed mirrors pass `_check_mirrors`.
    A marking that `build_complex` refuses is refused here too, with the
    same `ScopeError`, and so is q > MAX_TOP_Q, with `ParameterError`.
    Each class is looked up once in the reload's `mg.SkeletonTable`, and
    its validation, its framing, its mirror's framing and its homology
    model read its skeleton's entry: a skeleton is checked, framed in each
    orientation and modeled once (568 skeletons for 31,680 classes at
    `(5,4,1)` all marked)."""
    try:
        doc = json.loads(doc) if isinstance(doc, str) else doc
        p, q, r, marking = _params_from_json(doc)
        entries = mg._json_list(doc["classes"], "complex classes")
        lmgs = [entry["lmg"] for entry in entries]
        faces = {}
        incidence = tuple(sorted(_incidence_entry(*entry, faces) for entry
                                 in mg._json_list(doc["incidence"], "incidence")))
    except (KeyError, TypeError, json.JSONDecodeError, RecursionError) as exc:
        raise mg.LMGJSONError("malformed complex document: %r" % (exc,))
    if not entries:
        raise mg.LMGJSONError("complex document has no classes")
    _check_builder_q(q)
    if not marking.builder_scope_ok():
        raise ScopeError(SCOPE_REFUSAL)
    records = []
    seen = set()
    table = mg.SkeletonTable()
    for i, (entry, lmg) in enumerate(zip(entries, lmgs)):
        g, skeleton = _graph_from_json(
            lmg, p, q, r, marking, "classes[%d] (id %r)" % (i, entry.get("id")),
            table)
        enc, framings = mg.canonicalize(g, skeleton)
        rec = handle_record(g, enc, framings,
                            mg.canonicalize_mirror(g, skeleton)[0], skeleton)
        if rec.class_id != entry.get("id"):
            raise mg.LMGJSONError("class id %s does not match its graph"
                                  % entry.get("id"))
        if rec.class_id in seen:
            raise mg.LMGJSONError("class %s is listed twice" % rec.class_id)
        seen.add(rec.class_id)
        _check_stored("class " + rec.class_id, entry,
                      dict(_record_fields(rec),
                           canonical=rec.canonical.decode("ascii")))
        records.append(rec)
    records.sort(key=lambda rec: rec.canonical)
    _check_incidence(records, incidence)
    _check_mirrors(records, incidence)
    top_count = sum(1 for rec in records if rec.s == 1)
    K = ComplexK(p=p, q=q, r=r, marking=marking, classes=tuple(records),
                 incidence=incidence, top_count=top_count)
    _check_stored("complex document", doc, _report_fields(K))
    return K


def catalog_to_json(classes, p, q, r, marking, fh=None):
    """The JSON catalog of `classes`, returned as text, or written to the
    open text file `fh` one class at a time."""
    return _emit({"params": _params_doc(p, q, r, marking)},
                 {"classes": (mg._graph_text(g) for g in classes)},
                 fh)


def catalog_from_json(doc):
    """The classes and (p, q, r, marking) of a decoded catalog document;
    every class is revalidated.  A catalog with no classes is refused as
    malformed, like a complex dump with none."""
    try:
        p, q, r, marking = _params_from_json(doc)
        entries = mg._json_list(doc["classes"], "catalog classes")
    except (KeyError, TypeError) as exc:
        raise mg.LMGJSONError("malformed catalog document: %r" % (exc,))
    if not entries:
        raise mg.LMGJSONError("catalog document has no classes")
    table = mg.SkeletonTable()
    classes = [_graph_from_json(entry, p, q, r, marking, "classes[%d]" % i,
                                table)[0]
               for i, entry in enumerate(entries)]
    return classes, p, q, r, marking


def class_poset_dot(K):
    """Graphviz DOT of the class poset (incidence arrows upward)."""
    lines = ["digraph class_poset {", '  rankdir="BT";']
    for rec in K.classes:
        lines.append('  %s [label="%s\\nindex %d, s=%d, n=%d, dim %d"];'
                     % (rec.class_id, rec.class_id, rec.index, rec.s,
                        rec.n, rec.handle_dim))
    seen = set()
    for src, _, dst in K.incidence:
        if (src, dst) in seen:
            continue
        seen.add((src, dst))
        lines.append("  %s -> %s;" % (dst, src))
    lines.append("}")
    return "\n".join(lines) + "\n"
