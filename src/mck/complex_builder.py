"""Class catalogs on the sphere and the handle complex they assemble.

One-level classes are enumerated exhaustively: rotation systems on q labeled
4-valent saddles are fixed by the slot convention, so candidates are the
perfect matchings of outgoing to incoming darts, filtered for connectivity
and the requested disk counts, deduplicated by tagged atom code (isomorphic
atoms that fix the marked saddles are capped once), capped in every
labeling, and deduplicated by canonical form.  Candidates are valid by
construction (one connected atom, every circle capped on its own side,
labels 1..p and 1..r, a checked marking), so they are not validated one by
one; every emitted class is.
The catalog entry for each class is the decoded canonical representative,
which makes output independent of enumeration order and of worker
scheduling.

The complex is the downward closure of the one-level seeds under saddle
resolution, and each class carries its handle data (index, cylinder ranks,
polytope dimension, symmetry group, handle Poincare polynomial).  Every
proper refinement of a class's level partition gets an incidence entry, but
only the covers (hyperfaces) are split, each once per class: a deeper face
is the cover of the face that `delta`'s chain passes just before it, read
through a saddle relabeling into that face's stored representative.
"""

import hashlib
import itertools
import json
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from fractions import Fraction

from . import morse_graph as mg
from . import twist_algebra as ta
from .permutohedron import refinements
from .perturbation import chain_predecessor, delta

MAX_TOP_Q = 4  # desk-scale guard for exhaustive one-level search


class ParameterError(ValueError):
    """Invalid sphere/marking parameters."""


class ScopeError(ValueError):
    """Parameter regime where class identity would need group action data."""


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


def _cap_labelings(g_atom, p, r, marking, marked_saddles, fixed_saddles, q):
    """All labeled cappings of a connected one-level atom with p lower and
    r upper circles."""
    circles = g_atom.circles
    lows = [ci for ci, (side, _) in enumerate(circles) if side == "lower"]
    ups = [ci for ci, (side, _) in enumerate(circles) if side == "upper"]
    for min_labels in itertools.permutations(range(1, p + 1)):
        for max_labels in itertools.permutations(range(1, r + 1)):
            caps = []
            for ci, lab in zip(lows, min_labels):
                m, f = _cap_flags(marking, "min", lab)
                caps.append(mg.Cap(circle=(0, ci), kind="min", label=lab,
                                   marked=m, fixed=f))
            for ci, lab in zip(ups, max_labels):
                m, f = _cap_flags(marking, "max", lab)
                caps.append(mg.Cap(circle=(0, ci), kind="max", label=lab,
                                   marked=m, fixed=f))
            yield mg.LMG(q=q, p=p, r=r, levels=((0,),), atoms=(g_atom,),
                         caps=tuple(caps), cylinders=(),
                         marked_saddles=marked_saddles,
                         fixed_saddles=fixed_saddles)


def _matchings(q):
    """All out-to-in dart matchings on q labeled saddles."""
    saddles = list(range(1, q + 1))
    outs = [(v, s) for v in saddles for s in mg.OUT_SLOTS]
    ins = [(v, s) for v in saddles for s in mg.IN_SLOTS]
    for perm in itertools.permutations(ins):
        yield tuple(zip(outs, perm))


def _one_level_atoms(p, q, r, matchings):
    """The connected atoms of the matchings with p lower and r upper circles.

    `_matchings` joins each outgoing dart to one incoming dart, so every
    atom alternates and matches each dart once; only connectivity can fail."""
    saddles = list(range(1, q + 1))
    for edges in matchings:
        if len(mg.components(saddles, [(o[0], i[0]) for o, i in edges])) != 1:
            continue
        atom = mg.Atom.of(saddles, list(edges))
        sides = [side for side, _ in atom.circles]
        if sides.count("lower") == p and sides.count("upper") == r:
            yield atom


def _top_candidates_chunk(args):
    """Worker: canonical forms of the valid candidates in one matching chunk.

    Only the first atom with each tagged atom code (the first element of
    `_atom_min_codes`: vertex count, relabeled edges and per-vertex marked
    label and fixed flag) is capped.  This loses no class.  Two atoms with
    one tagged code are isomorphic by a rotation-preserving map that fixes
    every marked saddle and sends lower circles to lower circles and upper
    to upper.  Cap flags depend only on (kind, label), and every labeling is
    enumerated, so both atoms give the same set of canonical forms.  Each
    chunk deduplicates on its own and the union of forms is the same, so
    the result does not depend on worker scheduling.
    """
    p, q, r, marking, matchings = args
    marked_s, fixed_s = _marked_saddle_sets(marking)
    forms = set()
    seen = set()
    for atom in _one_level_atoms(p, q, r, matchings):
        code = mg._atom_min_codes(atom, marked_s, fixed_s)[0]
        if code in seen:
            continue
        seen.add(code)
        for g in _cap_labelings(atom, p, r, marking, marked_s, fixed_s, q):
            forms.add(mg.canonical_form(g))
    return forms


def enumerate_top_classes(p, q, r, marking=None, jobs=1):
    """All one-level classes with the given parameters, canonical order.

    Entries are decoded canonical representatives, so the catalog is a pure
    function of (p, q, r, marking).  The candidate scan runs in at most
    min(jobs, CPU count, matchings) worker processes.
    """
    if marking is None:
        marking = MarkingSpec.all_marked(p, q, r)
    _check_top_params(p, q, r, marking)
    if jobs < 1:
        raise ParameterError("jobs must be at least 1, got %r" % (jobs,))
    matchings = list(_matchings(q))
    workers = min(jobs, os.cpu_count() or 1, len(matchings))
    if workers > 1:
        chunk = (len(matchings) + workers - 1) // workers
        argsets = [(p, q, r, marking, matchings[i:i + chunk])
                   for i in range(0, len(matchings), chunk)]
        forms = set()
        with ProcessPoolExecutor(max_workers=len(argsets)) as pool:
            for got in pool.map(_top_candidates_chunk, argsets):
                forms |= got
    else:
        forms = _top_candidates_chunk((p, q, r, marking, matchings))
    out = []
    for cf in sorted(forms):
        g = mg.decode_canonical(cf)
        mg.validate(g)
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
    t: int
    n: int
    c: int
    d: int
    nu0: int
    e: int
    dim_upoly: int
    handle_dim: int   # index + n + dim_upoly
    gamma_order: int
    mirror_self: bool
    all_admissible: bool
    all_free: bool
    free_exact: bool
    poincare: tuple   # handle Poincare polynomial coefficients


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

    def by_id(self):
        return {rec.class_id: rec for rec in self.classes}


def class_id(canonical):
    return "c" + hashlib.sha256(canonical).hexdigest()[:16]


def _poincare(classification, autos):
    """Poincare polynomial of the closed handle: invariants of the exterior
    algebra on the d torus directions under the symmetry group's permutation
    action."""
    d = classification.d
    order = classification.order
    pos_of_orig = {orig: i + 1 for i, orig in enumerate(order)}
    b_positions = sorted(classification.B)
    acc = [0] * (d + 1)
    for phi in autos:
        perm = {}
        for bp in b_positions:
            image = pos_of_orig[phi.cylinders[order[bp - 1]]]
            if image not in classification.B:
                raise ta.AlgebraInvariantViolation(
                    "automorphism does not preserve the torus directions")
            perm[bp] = image
        # det(I + t P) over cycles: a length-m cycle contributes 1 - (-t)^m
        poly = [1]
        for cyc in mg.trace_cycles(perm, b_positions):
            m = len(cyc)
            factor = [0] * (m + 1)
            factor[0] = 1
            factor[m] = -(-1) ** m
            poly = _poly_mul(poly, factor)
        poly += [0] * (d + 1 - len(poly))
        acc = [a + b for a, b in zip(acc, poly[:d + 1])]
    out = []
    for x in acc:
        v, rem = divmod(x, len(autos))
        if rem != 0 or v < 0:
            raise ta.AlgebraInvariantViolation("non-integral invariant dimension")
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


def handle_record(g):
    """Compute the full handle record of one validated class.

    Both callers hand in validated graphs (`build_complex` validates its
    seeds and `split_level` every resolved class; `_graph_from_json` every
    stored one), so the classification does not validate again."""
    classification = ta.classify_circles(g, validated=True)
    canonical, autos = mg.canonicalize(g)
    model = ta.homology_model(g)
    poly = ta.u_polytope(g, model)
    stab = ta.check_stab_action(g, model, autos, classification)
    s, n = len(g.levels), len(g.cylinders)
    index = g.q - s
    pc = _poincare(classification, autos)
    return HandleRecord(
        class_id=class_id(canonical), canonical=canonical, lmg=g,
        index=index, s=s, t=len(g.atoms), n=n,
        c=classification.c, d=classification.d,
        nu0=classification.nu0, e=classification.e,
        dim_upoly=poly.dim, handle_dim=index + n + poly.dim,
        gamma_order=len(autos),
        mirror_self=(mg.canonical_form(mg.mirror(g)) == canonical),
        all_admissible=stab.all_admissible, all_free=stab.all_free,
        free_exact=all(c.free_exact for c in stab.checks),
        poincare=pc)


def build_complex(seeds, marking=None):
    """Downward closure of one-level seeds under saddle resolution.

    Each class stores the first graph met, `delta(g, J1)` for the first
    entry (g, J1) that reaches it, so the output is that of resolving every
    entry with its own `delta`.  Only the (class, cover) pairs are split:
    `covers` maps a class and a cover face of its representative to the
    target class and a saddle relabeling of the split graph into the
    target's representative, matched by `canonical_positions`.  A deeper
    entry (g, J1) takes the entry of `chain_predecessor(J, J1)`, which
    `refinements` lists earlier, relabels J1 into that class's
    representative and looks the cover up; `delta` is transitive, so this
    is the class `delta(g, J1)` lies in.  When the target is met for the
    first time, the split is `delta(g, J1)` itself if the predecessor's
    representative is `delta(g, J0)`; otherwise `delta(g, J1)` is computed.
    Faces, relabelings and class ids are shared objects, so the memo and
    the incidence entries hold references, not copies.

    The seeds are validated here; every class resolved from them is
    validated by `split_level`, so `handle_record` gets valid graphs only."""
    if not seeds:
        raise ParameterError("no seed classes")
    g0 = seeds[0]
    p, q, r = g0.p, g0.q, g0.r
    if marking is None:
        (ph, qh, rh), (ps, qs, rs) = g0.marking_counts()
        marking = MarkingSpec(marked=(ph, qh, rh), fixed=(ps, qs, rs))
    if not marking.builder_scope_ok():
        raise ScopeError("more than one fixed point of some index: class "
                         "identity under equivalence vs isotopy is not "
                         "resolved at this scope; refusing")
    for g in seeds:
        if len(g.levels) != 1:
            raise ParameterError("seeds must be one-level classes")
        if (g.p, g.q, g.r) != (p, q, r):
            raise ParameterError("seeds mix parameter sets")
        mg.validate(g, require_marks=False)

    known = {}      # canonical form -> representative, the first graph met
    ids = {}        # canonical form -> class id
    saddle_at = {}  # canonical form -> position -> saddle of representative
    queue = []
    pool = {}       # one shared object per distinct face and relabeling

    def shared(x):
        return pool.setdefault(x, x)

    def register(cf, g, pos):
        known[cf], ids[cf] = g, class_id(cf)
        saddle_at[cf] = {at: v for v, at in pos.items()}
        queue.append(cf)

    for g in seeds:
        cf, pos = mg.canonical_positions(g)
        if cf not in known:
            register(cf, g, pos)
    top_count = len(known)

    # (class, cover face of its representative) -> (target class, saddle
    # relabeling of that split into the target's representative, as the
    # tuple of images of saddles 1..q)
    covers = {}
    incidence = []
    while queue:
        cf = queue.pop()
        g = known[cf]
        J = g.level_partition()
        # face -> (class of delta(g, face), saddle relabeling of delta(g,
        # face) into the class's representative, or None when delta(g, face)
        # is that representative)
        reached = {J.key(): (cf, None)}
        for J1 in refinements(J, proper=True):
            c0, rho0 = reached[chain_predecessor(J, J1).key()]
            K = J1 if rho0 is None else J1.relabel(lambda v: rho0[v - 1])
            key = (c0, shared(K.key()))
            met = False
            if key not in covers:
                h = delta(known[c0], K)
                cf1, pos = mg.canonical_positions(h)
                met = cf1 not in known
                if met:
                    # the first graph met is delta(g, J1), which is h when
                    # delta(g, J0) is the representative of c0
                    if rho0 is None:
                        register(cf1, h, pos)
                    else:
                        first = delta(g, J1)
                        register(cf1, first, mg.canonical_positions(first)[1])
                at = saddle_at[cf1]
                covers[key] = (cf1, shared(tuple(at[pos[v]]
                                                 for v in range(1, q + 1))))
            cf1, rho1 = covers[key]
            if met:
                rho1 = None
            elif rho0 is not None:
                rho1 = shared(tuple(rho1[w - 1] for w in rho0))
            face = shared(J1.key())
            reached[face] = (cf1, rho1)
            incidence.append((ids[cf], face, ids[cf1]))

    records = tuple(handle_record(known[cf]) for cf in sorted(known))
    return ComplexK(p=p, q=q, r=r, marking=marking, classes=records,
                    incidence=tuple(sorted(incidence)),
                    top_count=top_count)


# ---------------------------------------------------------------------------
# Invariants of the complex
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class EulerReport:
    formula: int
    independent: Fraction
    agree: bool
    skipped: bool
    note: str


def euler_characteristic(K):
    """The top-class count formula against the additive handle sum.

    Formula value: (-1)^(q-1) times the number of one-level classes.
    Independent value: over classes, (-1)^(q-s) [d = 0] / |Gamma| (each
    compact handle factor contributes its compactly supported Euler
    characteristic; the polytope factor contributes 1).  Only evaluated in
    the compact case c = 0 for every handle.
    """
    formula = (-1) ** (K.q - 1) * K.top_count
    if any(rec.c > 0 for rec in K.classes):
        return EulerReport(formula=formula, independent=Fraction(0),
                           agree=False, skipped=True,
                           note="non-compact scope: some handle has c > 0; "
                                "independent sum skipped")
    indep = Fraction(0)
    for rec in K.classes:
        if rec.d == 0:
            indep += Fraction((-1) ** (K.q - rec.s), rec.gamma_order)
    agree = (indep == formula)
    note = "" if agree else (
        "formula and handle sum disagree; nontrivial symmetry groups on "
        "d = 0 classes contribute 1/|Gamma|: reported verbatim")
    return EulerReport(formula=formula, independent=indep, agree=agree,
                       skipped=False, note=note)


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
        raise ta.AlgebraInvariantViolation("negative handle-count coefficient")
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

def _record_fields(rec):
    """The per-class fields of a dump entry that are derived from its lmg."""
    return {
        "index": rec.index, "s": rec.s, "t": rec.t, "n": rec.n,
        "c": rec.c, "d": rec.d, "nu0": rec.nu0, "e": rec.e,
        "dim_upoly": rec.dim_upoly, "handle_dim": rec.handle_dim,
        "gamma_order": rec.gamma_order, "mirror_self": rec.mirror_self,
        "admissible": rec.all_admissible, "free": rec.all_free,
        "free_exact": rec.free_exact,
        "poincare": list(rec.poincare),
    }


def _report_fields(K):
    """The global invariants a dump reports."""
    chi = euler_characteristic(K)
    return {
        "chi": {"formula": chi.formula,
                "independent": [chi.independent.numerator,
                                chi.independent.denominator],
                "agree": chi.agree, "skipped": chi.skipped},
        "Q": q_polynomial(K),
        "dim": complex_dimension(K),
        "rank": complex_rank(K),
        "top_count": K.top_count,
    }


def complex_to_json(K):
    doc = {
        "params": {"p": K.p, "q": K.q, "r": K.r,
                   "marked": list(K.marking.marked),
                   "fixed": list(K.marking.fixed)},
        "classes": [{
            "id": rec.class_id,
            "canonical": rec.canonical.decode("ascii"),
            "lmg": mg.to_doc(rec.lmg),
            **_record_fields(rec),
        } for rec in K.classes],
        "incidence": [[src, [list(b) for b in face], dst]
                      for src, face, dst in K.incidence],
        **_report_fields(K),
    }
    return json.dumps(doc, separators=(",", ":"), sort_keys=True)


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


def _graph_from_json(entry, p, q, r, marking):
    """One stored graph, validated, with the document's (p, q, r) and the
    cap flags and marked and fixed saddles its marking gives."""
    g = mg.from_json(entry)
    if (g.p, g.q, g.r) != (p, q, r):
        raise mg.LMGJSONError("graph (p, q, r) differs from the params")
    mg.validate(g, require_marks=False)
    if (any((cap.marked, cap.fixed) != _cap_flags(marking, cap.kind, cap.label)
            for cap in g.caps)
            or (g.marked_saddles, g.fixed_saddles) != _marked_saddle_sets(marking)):
        raise mg.LMGJSONError("graph marking differs from the params' "
                              "marked %s and fixed %s"
                              % (list(marking.marked), list(marking.fixed)))
    return g


def _incidence_entry(src, face, dst):
    if not (type(src) is type(dst) is str and type(face) is list and all(
            type(b) is list and all(type(x) is int for x in b) for b in face)):
        raise mg.LMGJSONError("malformed incidence entry %r" % ([src, face, dst],))
    return src, tuple(tuple(b) for b in face), dst


def _check_incidence(records, incidence):
    """Each class has one entry per proper face of its level partition, and
    each entry leads to a stored class with one level per face block."""
    s_of = {rec.class_id: rec.s for rec in records}
    faces = {}
    for src, face, dst in incidence:
        if src not in s_of or s_of.get(dst) != len(face):
            raise mg.LMGJSONError("class %s: face %r leads to no stored class "
                                  "with s = %d" % (src, face, len(face)))
        faces.setdefault(src, []).append(face)
    for rec in records:
        want = [J1.key() for J1 in
                refinements(rec.lmg.level_partition(), proper=True)]
        if sorted(faces.get(rec.class_id, [])) != sorted(want):
            raise mg.LMGJSONError("class %s: stored incidence entries do not "
                                  "match its %d faces" % (rec.class_id, len(want)))


def complex_from_json(text):
    """Rebuild a complex from its JSON dump, revalidating every class and
    refusing it unless every stored record, global invariant and incidence
    face list equals its recomputation."""
    try:
        doc = json.loads(text)
        p, q, r, marking = _params_from_json(doc)
        entries = doc["classes"]
        lmgs = [entry["lmg"] for entry in entries]
        incidence = tuple(sorted(_incidence_entry(*entry)
                                 for entry in doc["incidence"]))
    except (KeyError, TypeError, json.JSONDecodeError, RecursionError) as exc:
        raise mg.LMGJSONError("malformed complex document: %r" % (exc,))
    if not entries:
        raise mg.LMGJSONError("complex document has no classes")
    records = []
    for entry, lmg in zip(entries, lmgs):
        rec = handle_record(_graph_from_json(lmg, p, q, r, marking))
        if rec.class_id != entry.get("id"):
            raise mg.LMGJSONError("class id %s does not match its graph"
                                  % entry.get("id"))
        _check_stored("class " + rec.class_id, entry,
                      dict(_record_fields(rec),
                           canonical=rec.canonical.decode("ascii")))
        records.append(rec)
    records.sort(key=lambda rec: rec.canonical)
    _check_incidence(records, incidence)
    top_count = sum(1 for rec in records if rec.s == 1)
    K = ComplexK(p=p, q=q, r=r, marking=marking, classes=tuple(records),
                 incidence=incidence, top_count=top_count)
    _check_stored("complex document", doc, _report_fields(K))
    return K


def catalog_to_json(classes, p, q, r, marking):
    doc = {
        "params": {"p": p, "q": q, "r": r,
                   "marked": list(marking.marked),
                   "fixed": list(marking.fixed)},
        "classes": [mg.to_doc(g) for g in classes],
    }
    return json.dumps(doc, separators=(",", ":"), sort_keys=True)


def catalog_from_json(text):
    try:
        doc = json.loads(text)
        p, q, r, marking = _params_from_json(doc)
        entries = list(doc["classes"])
    except (KeyError, TypeError, json.JSONDecodeError, RecursionError) as exc:
        raise mg.LMGJSONError("malformed catalog document: %r" % (exc,))
    classes = [_graph_from_json(entry, p, q, r, marking) for entry in entries]
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
