"""Test oracles: searches that decide a result without the closure.

Direct enumeration of every class is a completeness oracle for the closure:
brute force over level partitions, per-level atom splittings, matchings,
circle pairings and cap labelings.  It never resolves a saddle, so the tests
compare its class set with the downward closure of the one-level catalog.
`merge_all_levels` searches the one-level catalog for a seed above a class.
`transvections` and `algebra_json` spell out the Dehn-twist action and a
per-class algebra dump that only the tests read.
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
from mck.permutohedron import enumerate_partitions
from mck.perturbation import InvariantViolation, PerturbationError, delta


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
            "vertices": None if polytope.vertices is None else
                [[_frac_pair(x) for x in v] for v in polytope.vertices],
        },
    }
    return json.dumps(doc, separators=(",", ":"), sort_keys=True)
