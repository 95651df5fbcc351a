"""Test oracles: searches that decide a result without the closure.

Direct enumeration of every class is a completeness oracle for the closure:
brute force over level partitions, per-level atom splittings, matchings,
circle pairings and cap labelings.  It never resolves a saddle, so the tests
compare its class set with the downward closure of the one-level catalog.
`matchings` is the full scan of dart matchings that the library cuts to one
per relabeling orbit, and `cap_labelings` the full scan of an atom's cap
labelings that the library cuts to one per orbit of its automorphisms.
`merge_all_levels` searches the one-level catalog for a seed above a class.
The library splits covers only; `delta_chain` reaches any refinement by a
chain of them, and `closure_by_delta` is the closure that resolves every
proper refinement of every class with its own chain from the top, which the
library's closure over covers must reproduce byte for byte.
`fraction_rref` is the plain Gauss-Jordan elimination over Fraction that
the library's fraction-free `rref` is checked against.
`exhaustive_canonicalize` encodes every framing in full
(`framing_encoding`), the reference for the library's pruned
`canonicalize` and `canonicalize_mirror`, and `circle_images` reads an
automorphism's action on circles off its edge map.
`transvections` and `algebra_json` spell out the Dehn-twist action and a
per-class algebra dump that only the tests read.  `box_vertices`
enumerates the vertices of a box cut by slabs, the reference for the
library's certified polytope dimension; `polytope_slabs` reads a handle
polytope's H-representation off the homology model, and
`polytope_vertices` applies `box_vertices` to a small one.
`to_doc` builds a graph's document as dicts and lists, and
`whole_catalog_json` and `whole_complex_json` build a catalog or a dump
from it as one document and serialize it in one call: the references for
the library's serializers, which write each graph and class entry from a
template and the document one entry at a time.  The
permutohedron helpers at the end (coarsenings, reflexive and strict
refinement, covers, composition signatures, face vertices and coordinates,
the induced face map's admissibility read off the vertices, a partition's
relabeling and level assignment and the value partition of a 0-cochain)
state the face geometry that the library relies on without computing.
Partitions are the library's one form, tuples of sorted saddle tuples.
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
    PartitionError, enumerate_partitions, face_str, refinements, sub_blocks)
from mck.morse_graph import InvariantViolation
from mck.perturbation import PerturbationError, delta


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


def matchings(saddles):
    """Every out-to-in dart matching on `saddles`, in the order of
    `itertools.permutations` of the incoming darts: the full scan, of which
    the library's `_orbit_matchings(q, ...)` keeps the first matching of
    each orbit when `saddles` is 1..q."""
    outs = [(v, s) for v in saddles for s in mg.OUT_SLOTS]
    ins = [(v, s) for v in saddles for s in mg.IN_SLOTS]
    for perm in itertools.permutations(ins):
        yield tuple(zip(outs, perm))


def cap_labelings(g_atom, p, r, marking, marked_saddles, fixed_saddles, q):
    """All p! r! labeled cappings of a connected one-level atom with p lower
    and r upper circles: the full scan, of which the library's
    `_cap_labelings` keeps one per orbit of the atom's automorphisms and of
    the unmarked cap labels."""
    circles = g_atom.circles
    lows = [ci for ci, (side, _) in enumerate(circles) if side == "lower"]
    ups = [ci for ci, (side, _) in enumerate(circles) if side == "upper"]
    for min_labels in itertools.permutations(range(1, p + 1)):
        for max_labels in itertools.permutations(range(1, r + 1)):
            caps = []
            for ci, lab in zip(lows, min_labels):
                m, f = cb._cap_flags(marking, "min", lab)
                caps.append(mg.Cap(circle=(0, ci), kind="min", label=lab,
                                   marked=m, fixed=f))
            for ci, lab in zip(ups, max_labels):
                m, f = cb._cap_flags(marking, "max", lab)
                caps.append(mg.Cap(circle=(0, ci), kind="max", label=lab,
                                   marked=m, fixed=f))
            yield mg.LMG(q=q, p=p, r=r, levels=((0,),), atoms=(g_atom,),
                         caps=tuple(caps), cylinders=(),
                         marked_saddles=marked_saddles,
                         fixed_saddles=fixed_saddles)


def _connected_matchings(saddles):
    for edges in matchings(saddles):
        atom = mg.Atom.of(saddles, list(edges))
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
        level_sets = [sorted(b) for b in J]
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
    delta_chain(f, .) has g's canonical form.  Unmarked saddle relabelings of
    the face are part of the search.  Pass `seeds` to reuse an already
    enumerated catalog.
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
        face = relabel(J, sub)
        if face not in seen:
            seen.add(face)
            faces.append(face)

    if seeds is None:
        seeds = cb.enumerate_top_classes(g.p, g.q, g.r, marking)
    for seed in seeds:
        for face in faces:
            if mg.canonical_form(delta_chain(seed, face)) == target_key:
                return seed
    raise InvariantViolation("no one-level seed reproduces the class; "
                             "downward-closure completeness violated")


def delta_chain(g, target):
    """The class of a refinement `target` of g's level partition, reached
    by library cover splits: each splits off the first target sub-block of
    the lowest divisible level.  The class does not depend on the chain;
    `target` equal to the level partition gives g itself."""
    while True:
        J = g.level_partition()
        groups = sub_blocks(target, J)
        if groups is None:
            raise PerturbationError("%s does not refine %s"
                                    % (face_str(target), face_str(J)))
        level = next((i for i, grp in enumerate(groups) if len(grp) > 1), None)
        if level is None:
            return g
        grp = groups[level]
        rest = tuple(sorted(itertools.chain.from_iterable(grp[1:])))
        g = delta(g, J[:level] + (grp[0], rest) + J[level + 1:])


def closure_by_delta(seeds, marking=None):
    """The complex of `seeds` with every incidence entry resolved by its own
    `delta_chain`: each class keeps the first graph met, in the library's
    queue and refinement order, and is validated when it is met,
    independently of the library's own validation."""
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
        mg.validate(g)

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
        for J1 in refinements(J):
            h = delta_chain(g, J1)
            cf1 = mg.canonical_form(h)
            if cf1 not in known:
                mg.validate(h)
                known[cf1] = h
                queue.append(cf1)
            incidence.append((src, J1, cb.class_id(cf1)))

    records = tuple(cb.handle_record(known[cf], *mg.canonicalize(known[cf]),
                                     mg.canonicalize(mg.mirror(known[cf]))[0],
                                     mg.SkeletonTable())
                    for cf in sorted(known))
    return cb.ComplexK(p=p, q=q, r=r, marking=marking, classes=records,
                       incidence=tuple(sorted(incidence)),
                       top_count=top_count)


def _whole_json(doc):
    return json.dumps(doc, separators=(",", ":"), sort_keys=True)


def _params_doc(p, q, r, marking):
    return {"p": p, "q": q, "r": r, "marked": list(marking.marked),
            "fixed": list(marking.fixed)}


def to_doc(g):
    """The JSON document of a leveled graph, as plain dicts, lists and
    scalars: the reference for the text that `mg.to_json` writes."""
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


def whole_catalog_json(classes, p, q, r, marking):
    """A catalog's text, the whole document built and then serialized."""
    return _whole_json({"params": _params_doc(p, q, r, marking),
                        "classes": [to_doc(g) for g in classes]})


def whole_complex_json(K):
    """A complex dump's text, the whole document built and then
    serialized."""
    return _whole_json({
        "params": _params_doc(K.p, K.q, K.r, K.marking),
        "classes": [{
            "id": rec.class_id,
            "canonical": rec.canonical.decode("ascii"),
            "lmg": to_doc(rec.lmg),
            **cb._record_fields(rec),
        } for rec in K.classes],
        "incidence": [[src, [list(b) for b in face], dst]
                      for src, face, dst in K.incidence],
        **cb._report_fields(K),
    })


def framing_encoding(g, arrangement, codes, circle_maps):
    """The full encoding of one framing, built as it is.

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


def exhaustive_canonicalize(g):
    """`mg.canonicalize` without pruning: every product of in-level atom
    orders (permutations of equal atom codes) and minimal roots is encoded,
    and the least encoding is returned with every framing reaching it, in
    the order met."""
    per_atom = [mg._atom_min_codes(atom, g.marked_saddles, g.fixed_saddles)
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
            enc = framing_encoding(
                g, arrangement, codes,
                {a: cmap for a, (_, cmap) in zip(arrangement, picked)})
            if best is None or enc < best:
                best, winners = enc, []
            if enc == best:
                winners.append((arrangement, {a: dmap for a, (dmap, _)
                                              in zip(arrangement, picked)}))
    return best, winners


@dataclass(frozen=True)
class Transvection:
    """Action of the Dehn twist about one cylinder core on dual coordinates:
    u -> u + u(core) * (transverse-edge functional)."""

    cylinder: int
    core: tuple    # core-class row over kept-edge coordinates
    matrix: tuple  # (n + m) x (n + m) rows of Fraction


def circle_images(g, phi):
    """The circle map of the automorphism `phi` of `g`: each circle
    reference (atom, circle index) to its image, the circle on the same
    side through the image of its first edge."""
    offset = g.edge_offsets()
    circles = [(a, ci, side, cyc) for a, atom in enumerate(g.atoms)
               for ci, (side, cyc) in enumerate(atom.circles)]
    at = {(offset[a] + e, side): (a, ci) for a, ci, side, cyc in circles
          for e in cyc}
    return {(a, ci): at[(phi.edges[offset[a] + cyc[0]], side)]
            for a, ci, side, cyc in circles}


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
        raise InvariantViolation("translation lattice rank below n")
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


def polytope_slabs(g, model):
    """The handle polytope of `g` as (slabs, bound, ambient): the box
    [1, bound]^ambient over the kept edges, cut by 1 <= row . u <= bound for
    the expansion row of each traded edge."""
    return ([model.expansion[d] for d in model.deleted],
            ta.double_factorial_bound(g.q, len(g.levels)), len(model.basis))


def polytope_vertices(g, model):
    """The sorted vertex tuple of the handle polytope of `g` when it has at
    most 6 kept edges, else None."""
    slabs, bound, ambient = polytope_slabs(g, model)
    if ambient > 6:
        return None
    return tuple(box_vertices(slabs, bound, ambient))


def _frac_pair(x):
    f = Fraction(x)
    return [f.numerator, f.denominator]


def algebra_json(g, model=None):
    """Per-class algebra dump with rationals as numerator/denominator pairs.
    Every core is a torus direction (`classify_circles`), so the circle
    block is n = nu0 = d with e = c = 0."""
    if model is None:
        model = ta.homology_model(g)
    n = ta.classify_circles(g)
    tvs = transvections(g, model)
    vertices = polytope_vertices(g, model)
    doc = {
        "edges": [list(e) for e in model.edges],
        "deleted": list(model.deleted),
        "basis": list(model.basis),
        "expansion": [[_frac_pair(x) for x in row] for row in model.expansion],
        "transvections": [[[_frac_pair(x) for x in row] for row in t.matrix]
                          for t in tvs],
        "cores": [[_frac_pair(x) for x in t.core] for t in tvs],
        "circles": {"n": n, "nu0": n, "e": 0, "d": n, "c": 0},
        "polytope": {
            "rows": [[_frac_pair(x) for x in row] for row in model.expansion],
            "lo": 1, "hi": polytope_slabs(g, model)[1],
            "dim": ta.u_polytope(g, model),
            "vertices": None if vertices is None else
                [[_frac_pair(x) for x in v] for v in vertices],
        },
    }
    return json.dumps(doc, separators=(",", ":"), sort_keys=True)


def relabel(J, sigma):
    """J with each label x read as sigma[x] (sigma a mapping)."""
    return tuple(tuple(sorted(sigma[x] for x in b)) for b in J)


def ground_size(J):
    """q, the number of labels J partitions."""
    return sum(map(len, J))


def assignment(J):
    """The level-assignment tuple (J(1), ..., J(q)), 1-based."""
    lev = {x: k for k, b in enumerate(J, start=1) for x in b}
    return tuple(lev[i] for i in range(1, ground_size(J) + 1))


def composition_signature(J):
    """Block sizes (|J_1|, ..., |J_s|) in block order."""
    return tuple(len(b) for b in J)


def refines_eq(J1, J2):
    """Reflexive refinement (J1 <= J2)."""
    return sub_blocks(J1, J2) is not None


def refines(J1, J2):
    """Strict refinement: J1 obtained from J2 by splitting blocks into
    ordered runs of consecutive sub-blocks (J1 != J2)."""
    return J1 != J2 and refines_eq(J1, J2)


def covers(J):
    """The covers (hyperfaces) of J: the strict refinements with one block
    more, searched among all ordered partitions of {1..q}."""
    return [H for H in enumerate_partitions(ground_size(J))
            if len(H) == len(J) + 1 and refines(H, J)]


def coarsenings(J):
    """All J' with J <= J' (merging runs of consecutive blocks), incl. J."""
    out = []
    # choose cut positions among the s-1 gaps
    for cuts in itertools.product((False, True), repeat=len(J) - 1):
        blocks = []
        cur = set(J[0])
        for i, cut in enumerate(cuts):
            if cut:
                blocks.append(tuple(sorted(cur)))
                cur = set(J[i + 1])
            else:
                cur |= set(J[i + 1])
        blocks.append(tuple(sorted(cur)))
        out.append(tuple(blocks))
    return out


def face_vertices(J):
    """Vertex permutations of the face of J, sorted.

    The face of J = (J_1, ..., J_s) in the order-q permutohedron has the
    vertices P_pi = sum_k (k - (q+1)/2) e_{pi_k} over the permutations pi
    whose first |J_1| values form the set J_1, the next |J_2| values the set
    J_2, and so on.  In coordinates, axis j of P_pi holds
    pi^{-1}(j) - (q+1)/2."""
    pools = [itertools.permutations(b) for b in J]
    return tuple(sorted(tuple(itertools.chain.from_iterable(combo))
                        for combo in itertools.product(*pools)))


def induced_face_admissible(sigma, J):
    """Admissibility of the face map that the label permutation sigma (a
    dict) induces on the face of J, decided on the vertices: sigma maps the
    vertex pi to sigma o pi.  Admissible means that sigma stabilizes the face
    and the map is trivial, or fixed-vertex-free with every subface mapping
    onto itself or onto a face disjoint from it."""
    if relabel(J, sigma) != J:
        return False
    moved = {pi: tuple(sigma[x] for x in pi) for pi in face_vertices(J)}
    if all(image == pi for pi, image in moved.items()):
        return True
    if any(image == pi for pi, image in moved.items()):
        return False
    for sub in refinements(J):
        image = relabel(sub, sigma)
        if (image != sub and
                set(face_vertices(sub)) & set(face_vertices(image))):
            return False
    return True


@dataclass(frozen=True)
class PermFace:
    """A face of the permutohedron of order q.

    `vertices` are the generating permutations pi (1-based value tuples);
    `coords` the matching vertex coordinate vectors, doubled to stay integral:
    coordinate j of vertex pi is 2*pi^{-1}(j) - q - 1.
    """

    partition: tuple
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
    return PermFace(partition=J, dim=ground_size(J) - len(J), vertices=verts,
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
    J = tuple(tuple(sorted(by_value[v])) for v in sorted(by_value))
    return J, len(J)
