"""Test oracles: searches that decide a result without the closure.

Direct enumeration of every class is a completeness oracle for the closure:
brute force over level partitions, per-level atom splittings, matchings,
circle pairings and cap labelings.  It never resolves a saddle, so the tests
compare its class set with the downward closure of the one-level catalog.
`merge_all_levels` searches the one-level catalog for a seed above a class.
`closure_by_delta` is the closure that resolves every proper refinement of
every class with its own `delta` chain from the top, which the library's
closure over covers must reproduce byte for byte.
`fraction_rref` is the plain Gauss-Jordan elimination over Fraction that
the library's fraction-free `rref` is checked against.
`transvections` and `algebra_json` spell out the Dehn-twist action and a
per-class algebra dump that only the tests read.  `box_vertices`
enumerates the vertices of a box cut by slabs, the reference for the
library's certified polytope dimension, and `polytope_vertices` applies it
to a small handle polytope.  The permutohedron helpers at the end
(coarsenings, strict refinement, composition signatures, face coordinates
and the value partition of a 0-cochain) state the face geometry that the
library relies on without computing.
Imported by the tests; pytest does not collect it.
"""

import itertools
import json
from dataclasses import dataclass
from fractions import Fraction

from mck import complex_builder as cb
from mck import linalg
from mck import morse_graph as mg
from mck import twist_algebra as ta
from mck.permutohedron import (
    OrderedPartition, PartitionError, enumerate_partitions, face_vertices,
    refinements, refines_eq)
from mck.perturbation import InvariantViolation, PerturbationError, delta


def fraction_rref(matrix):
    """Reduced row echelon form over Fraction, as (R, pivots): divide each
    pivot row by its pivot, then clear the pivot column in every other
    row."""
    R = [[Fraction(x) for x in row] for row in matrix]
    if not R:
        return R, []
    pivots = []
    r = 0
    for c in range(len(R[0])):
        pivot = next((i for i in range(r, len(R)) if R[i][c] != 0), None)
        if pivot is None:
            continue
        R[r], R[pivot] = R[pivot], R[r]
        inv = R[r][c]
        R[r] = [x / inv for x in R[r]]
        for i in range(len(R)):
            if i != r and R[i][c] != 0:
                f = R[i][c]
                R[i] = [a - f * b for a, b in zip(R[i], R[r])]
        pivots.append(c)
        r += 1
        if r == len(R):
            break
    return R, pivots


def _set_partitions(items):
    items = sorted(items)
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for part in _set_partitions(rest):
        for i in range(len(part)):
            yield part[:i] + [part[i] | {first}] + part[i + 1:]
        yield part + [{first}]


def _connected_matchings(saddles):
    outs = [(v, s) for v in saddles for s in mg.OUT_SLOTS]
    ins = [(v, s) for v in saddles for s in mg.IN_SLOTS]
    for perm in itertools.permutations(ins):
        atom = mg.Atom.of(saddles, list(zip(outs, perm)))
        try:
            atom.check()
        except mg.LMGError:
            continue
        yield atom


def enumerate_classes_direct(p, q, r, marking=None, max_q=2):
    """All classes with these parameters (every level count), in canonical
    order.  Exponential: guarded to q <= max_q."""
    if marking is None:
        marking = cb.MarkingSpec.all_marked(p, q, r)
    if q > max_q:
        raise cb.ParameterError("direct enumeration is guarded to q <= %d" % max_q)
    if p - q + r != 2 or p < 1 or r < 1:
        raise cb.ParameterError("not a sphere parameter set")
    marking.check(p, q, r)
    marked_s, fixed_s = cb._marked_saddle_sets(marking)
    forms = {}
    for J in enumerate_partitions(q):
        level_sets = [sorted(b) for b in J.blocks]
        per_level_splits = [list(_set_partitions(b)) for b in level_sets]
        for split_combo in itertools.product(*per_level_splits):
            groups = [[sorted(x) for x in lev] for lev in split_combo]
            atom_groups = [grp for lev in groups for grp in lev]
            atom_level = [k + 1 for k, lev in enumerate(groups) for _ in lev]
            per_atom = [list(_connected_matchings(grp)) for grp in atom_groups]
            for atoms in itertools.product(*per_atom):
                levels = []
                for k in range(len(groups)):
                    levels.append(tuple(i for i in range(len(atoms))
                                        if atom_level[i] == k + 1))
                uppers, lowers = [], []
                for ai, atom in enumerate(atoms):
                    for ci, (side, _) in enumerate(atom.circles):
                        (uppers if side == "upper" else lowers).append(
                            (ai, ci, atom_level[ai]))
                for g in _assemble(p, q, r, marking, marked_s, fixed_s,
                                   atoms, tuple(levels), uppers, lowers):
                    forms.setdefault(mg.canonical_form(g), None)
    return [mg.decode_canonical(cf) for cf in sorted(forms)]


def _assemble(p, q, r, marking, marked_s, fixed_s, atoms, levels, uppers, lowers):
    """All capped-and-tubed assemblies of a fixed atom arrangement."""
    def pairings(ups, lows):
        if not ups:
            yield [], lows
            return
        u = ups[0]
        # u stays uncapped-by-cylinder: becomes a max cap
        for rest, low_left in pairings(ups[1:], lows):
            yield rest, low_left
        for lo in lows:
            if lo[2] > u[2]:
                remaining = [x for x in lows if x != lo]
                for rest, low_left in pairings(ups[1:], remaining):
                    yield [(u, lo)] + rest, low_left

    for cyls, low_left in pairings(uppers, lowers):
        up_caps = [u for u in uppers if u not in {c[0] for c in cyls}]
        if len(low_left) != p or len(up_caps) != r:
            continue
        cylinders = tuple(sorted(((u[0], u[1]), (lo[0], lo[1]))
                                 for u, lo in cyls))
        for min_labels in itertools.permutations(range(1, p + 1)):
            for max_labels in itertools.permutations(range(1, r + 1)):
                caps = []
                for (ai, ci, _), lab in zip(sorted(low_left), min_labels):
                    m, f = cb._cap_flags(marking, "min", lab)
                    caps.append(mg.Cap(circle=(ai, ci), kind="min", label=lab,
                                       marked=m, fixed=f))
                for (ai, ci, _), lab in zip(sorted(up_caps), max_labels):
                    m, f = cb._cap_flags(marking, "max", lab)
                    caps.append(mg.Cap(circle=(ai, ci), kind="max", label=lab,
                                       marked=m, fixed=f))
                g = mg.LMG(q=q, p=p, r=r, levels=levels, atoms=tuple(atoms),
                           caps=tuple(caps), cylinders=cylinders,
                           marked_saddles=marked_s, fixed_saddles=fixed_s)
                try:
                    mg.validate(g)
                except mg.LMGError:
                    continue
                yield g


def merge_all_levels(g, seeds=None):
    """An s = 1 graph whose perturbations reproduce `g`.

    Searches the one-level catalog with the same parameters and marking for a
    seed f and a face assignment shaped like g's level partition such that
    delta(f, .) has g's canonical form.  Unmarked saddle relabelings of the
    face are part of the search.  Pass `seeds` to reuse an already enumerated
    catalog.
    """
    if len(g.levels) == 1:
        return g
    (ph, qh, rh), (ps, qs, rs) = g.marking_counts()
    marked_mins = sorted(c.label for c in g.caps if c.kind == "min" and c.marked)
    marked_maxs = sorted(c.label for c in g.caps if c.kind == "max" and c.marked)
    if (marked_mins != list(range(1, ph + 1))
            or marked_maxs != list(range(1, rh + 1))
            or sorted(g.marked_saddles) != list(range(1, qh + 1))):
        raise PerturbationError("merge requires marked labels in standard form "
                                "(initial label segments)")
    marking = cb.MarkingSpec(marked=(ph, qh, rh), fixed=(ps, qs, rs))

    target_key = mg.canonical_form(g)
    J = g.level_partition()
    unmarked = [x for x in range(1, g.q + 1) if x not in g.marked_saddles]
    faces = []
    seen = set()
    for perm in itertools.permutations(unmarked):
        sub = dict(zip(unmarked, perm))
        sub.update({x: x for x in g.marked_saddles})
        face = J.relabel(sub)
        if face.key() not in seen:
            seen.add(face.key())
            faces.append(face)

    if seeds is None:
        seeds = cb.enumerate_top_classes(g.p, g.q, g.r, marking)
    for seed in seeds:
        for face in faces:
            if mg.canonical_form(delta(seed, face)) == target_key:
                return seed
    raise InvariantViolation("no one-level seed reproduces the class; "
                             "downward-closure completeness violated")


def closure_by_delta(seeds, marking=None):
    """The complex of `seeds` with every incidence entry resolved by its own
    `delta`: each class keeps the first graph met, in the library's queue
    and refinement order."""
    if not seeds:
        raise cb.ParameterError("no seed classes")
    g0 = seeds[0]
    p, q, r = g0.p, g0.q, g0.r
    if marking is None:
        (ph, qh, rh), (ps, qs, rs) = g0.marking_counts()
        marking = cb.MarkingSpec(marked=(ph, qh, rh), fixed=(ps, qs, rs))
    if not marking.builder_scope_ok():
        raise cb.ScopeError("more than one fixed point of some index")
    for g in seeds:
        if len(g.levels) != 1:
            raise cb.ParameterError("seeds must be one-level classes")
        if (g.p, g.q, g.r) != (p, q, r):
            raise cb.ParameterError("seeds mix parameter sets")
        mg.validate(g, require_marks=False)

    known = {}
    incidence = []
    queue = []
    for g in seeds:
        cf = mg.canonical_form(g)
        if cf not in known:
            known[cf] = g
            queue.append(cf)
    top_count = len(known)

    while queue:
        cf = queue.pop()
        g = known[cf]
        src = cb.class_id(cf)
        J = g.level_partition()
        for J1 in refinements(J, proper=True):
            h = delta(g, J1)
            cf1 = mg.canonical_form(h)
            if cf1 not in known:
                known[cf1] = h
                queue.append(cf1)
            incidence.append((src, J1.key(), cb.class_id(cf1)))

    records = tuple(cb.handle_record(known[cf]) for cf in sorted(known))
    return cb.ComplexK(p=p, q=q, r=r, marking=marking, classes=records,
                       incidence=tuple(sorted(incidence)),
                       top_count=top_count)


@dataclass(frozen=True)
class Transvection:
    """Action of the Dehn twist about one cylinder core on dual coordinates:
    u -> u + u(core) * (transverse-edge functional)."""

    cylinder: int
    core: tuple    # core-class row over kept-edge coordinates
    matrix: tuple  # (n + m) x (n + m) rows of Fraction


def transvections(g, model):
    """One transvection per cylinder; their displacements span rank n."""
    n, m = model.n, len(model.basis)
    dim = n + m
    out = []
    for ell in range(n):
        mat = linalg.identity(dim)
        for j in range(m):
            mat[ell][n + j] += model.gamma[ell][j]
        out.append(Transvection(cylinder=ell, core=model.gamma[ell],
                                matrix=tuple(tuple(r) for r in mat)))
    if linalg.rank([list(t.core) for t in out]) != n:
        raise ta.AlgebraInvariantViolation("translation lattice rank below n")
    return out


def box_vertices(slab_rows, bound, ambient):
    """Vertices of the box [1, bound]^ambient cut by the slab constraints
    1 <= row.u <= bound, sorted; empty when the polytope is.

    A vertex has ambient tight constraints: some box coordinates pinned to a
    bound plus k tight slabs; pinned coordinates are substituted so only a
    k x k system remains, with k at most the (small) slab count."""
    lo, hi = Fraction(1), Fraction(bound)
    nslab = len(slab_rows)
    verts = set()
    for k in range(0, min(nslab, ambient) + 1):
        for free in itertools.combinations(range(ambient), k):
            pinned = [j for j in range(ambient) if j not in free]
            for slabs in itertools.combinations(range(nslab), k):
                A = [[slab_rows[si][j] for j in free] for si in slabs]
                for pins in itertools.product((lo, hi), repeat=len(pinned)):
                    offs = [sum(slab_rows[si][j] * v
                                for j, v in zip(pinned, pins))
                            for si in slabs]
                    for sides in itertools.product((lo, hi), repeat=k):
                        x = linalg.solve_square(
                            A, [sv - off for sv, off in zip(sides, offs)])
                        if x is None or not all(lo <= xj <= hi for xj in x):
                            continue
                        point = [None] * ambient
                        for j, v in zip(pinned, pins):
                            point[j] = v
                        for j, v in zip(free, x):
                            point[j] = v
                        ok = True
                        for row in slab_rows:
                            val = sum((rv * pv for rv, pv in zip(row, point)),
                                      Fraction(0))
                            if not (lo <= val <= hi):
                                ok = False
                                break
                        if ok:
                            verts.add(tuple(point))
    return sorted(verts)


def polytope_vertices(polytope):
    """The sorted vertex tuple of a handle polytope when ambient <= 6, else
    None."""
    if polytope.ambient > 6:
        return None
    return tuple(box_vertices(polytope.slabs, polytope.bound,
                              polytope.ambient))


def _frac_pair(x):
    f = Fraction(x)
    return [f.numerator, f.denominator]


def algebra_json(g, model=None, classification=None, polytope=None):
    """Per-class algebra dump with rationals as numerator/denominator pairs."""
    if model is None:
        model = ta.homology_model(g)
    if classification is None:
        classification = ta.classify_circles(g)
    if polytope is None:
        polytope = ta.u_polytope(g, model)
    tvs = transvections(g, model)
    vertices = polytope_vertices(polytope)
    doc = {
        "edges": [list(e) for e in model.edges],
        "deleted": list(model.deleted),
        "basis": list(model.basis),
        "expansion": [[_frac_pair(x) for x in row] for row in model.expansion],
        "transvections": [[[_frac_pair(x) for x in row] for row in t.matrix]
                          for t in tvs],
        "cores": [[_frac_pair(x) for x in t.core] for t in tvs],
        "circles": {
            "n": classification.n, "nu0": classification.nu0,
            "e": classification.e, "d": classification.d,
            "c": classification.c,
            "families": [list(f) for f in classification.families],
            "order": list(classification.order),
            "A": sorted(classification.A), "B": sorted(classification.B),
        },
        "polytope": {
            "rows": [[_frac_pair(x) for x in row] for row in polytope.rows],
            "lo": 1, "hi": polytope.bound, "dim": polytope.dim,
            "vertices": None if vertices is None else
                [[_frac_pair(x) for x in v] for v in vertices],
        },
    }
    return json.dumps(doc, separators=(",", ":"), sort_keys=True)


def composition_signature(J):
    """Block sizes (|J_1|, ..., |J_s|) in block order."""
    return tuple(len(b) for b in J.blocks)


def refines(J1, J2):
    """Strict refinement: J1 obtained from J2 by splitting blocks into
    ordered runs of consecutive sub-blocks (J1 != J2)."""
    return J1.key() != J2.key() and refines_eq(J1, J2)


def coarsenings(J):
    """All J' with J <= J' (merging runs of consecutive blocks), incl. J."""
    s = J.s
    out = []
    # choose cut positions among the s-1 gaps
    for cuts in itertools.product((False, True), repeat=s - 1):
        blocks = []
        cur = set(J.blocks[0])
        for i, cut in enumerate(cuts):
            if cut:
                blocks.append(frozenset(cur))
                cur = set(J.blocks[i + 1])
            else:
                cur |= J.blocks[i + 1]
        blocks.append(frozenset(cur))
        out.append(OrderedPartition.of(blocks, J.q))
    return out


@dataclass(frozen=True)
class PermFace:
    """A face of the permutohedron of order q.

    `vertices` are the generating permutations pi (1-based value tuples);
    `coords` the matching vertex coordinate vectors, doubled to stay integral:
    coordinate j of vertex pi is 2*pi^{-1}(j) - q - 1.
    """

    partition: OrderedPartition
    dim: int
    vertices: tuple
    coords: tuple

    def vertex_set(self):
        return frozenset(self.vertices)


def _doubled_coords(pi):
    q = len(pi)
    inv = [0] * (q + 1)
    for pos, val in enumerate(pi, start=1):
        inv[val] = pos
    return tuple(2 * inv[j] - q - 1 for j in range(1, q + 1))


def face_of(J):
    """The permutohedron face indexed by the ordered partition J."""
    verts = face_vertices(J)
    return PermFace(partition=J, dim=J.q - J.s, vertices=verts,
                    coords=tuple(_doubled_coords(pi) for pi in verts))


@dataclass(frozen=True)
class ZeroCochain:
    """Exact rational saddle values c_1..c_q, indexed by label."""

    values: tuple  # tuple of Fraction, position i holds c_{i+1}

    @classmethod
    def of(cls, values):
        if isinstance(values, dict):
            q = len(values)
            if set(values) != set(range(1, q + 1)):
                raise PartitionError("values must be defined on exactly {1..q}")
            return cls(tuple(Fraction(values[i]) for i in range(1, q + 1)))
        return cls(tuple(Fraction(v) for v in values))

    @property
    def q(self):
        return len(self.values)


def partition_of_values(cochain):
    """Group labels by equal value, blocks ordered by increasing value.

    Returns (J, s) where s is the number of distinct values.
    """
    if isinstance(cochain, dict):
        cochain = ZeroCochain.of(cochain)
    by_value = {}
    for label, v in enumerate(cochain.values, start=1):
        by_value.setdefault(v, set()).add(label)
    blocks = [frozenset(by_value[v]) for v in sorted(by_value)]
    J = OrderedPartition.of(blocks, cochain.q)
    return J, len(blocks)
