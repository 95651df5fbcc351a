"""Class catalogs on the sphere and the handle complex they assemble.

One-level classes are enumerated exhaustively: rotation systems on q labeled
4-valent saddles are fixed by the slot convention, so candidates are the
perfect matchings of outgoing to incoming darts, filtered for connectivity
and the requested disk counts, capped in every labeling, and deduplicated by
canonical form.  The catalog entry for each class is the decoded canonical
representative, which makes output independent of enumeration order and of
worker scheduling.

The complex is the downward closure of the one-level seeds under saddle
resolution: every proper refinement of a class's level partition is resolved
and registered, and each class carries its handle data (index, cylinder
ranks, polytope dimension, symmetry group, handle Poincare polynomial).
"""

import hashlib
import itertools
import json
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from fractions import Fraction

from . import morse_graph as mg
from . import twist_algebra as ta
from .permutohedron import refinements
from .perturbation import delta

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

    def key(self):
        return (self.marked, self.fixed)


def _cap_flags(marking, kind, label):
    ph, qh, rh = marking.marked
    ps, qs, rs = marking.fixed
    if kind == "min":
        return label <= ph, label <= ps
    return label <= rh, label <= rs


def _marked_saddle_sets(marking, q):
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
    """All labeled cappings of a connected one-level atom."""
    circles = g_atom.circles()
    lows = [ci for ci, (side, _) in enumerate(circles) if side == "lower"]
    ups = [ci for ci, (side, _) in enumerate(circles) if side == "upper"]
    if len(lows) != p or len(ups) != r:
        return
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


def _top_candidates_chunk(args):
    """Worker: canonical forms of the valid candidates in one matching chunk."""
    p, q, r, marking_key, matchings, cache = args
    marking = MarkingSpec(marked=marking_key[0], fixed=marking_key[1])
    marked_s, fixed_s = _marked_saddle_sets(marking, q)
    saddles = list(range(1, q + 1))
    forms = set()
    cache_new = {}
    for edges in matchings:
        atom = mg.Atom.of(saddles, list(edges))
        try:
            atom.check()
        except mg.LMGError:
            continue
        for g in _cap_labelings(atom, p, r, marking, marked_s, fixed_s, q):
            try:
                mg.validate(g)
            except mg.LMGError:
                continue
            fp = mg.to_json(g)
            hit = cache.get(fp)
            if hit is not None:
                forms.add(bytes.fromhex(hit))
                continue
            cf = mg.canonical_form(g)
            forms.add(cf)
            cache_new[fp] = cf.hex()
    return forms, cache_new


def enumerate_top_classes(p, q, r, marking=None, jobs=1, cache=None):
    """All one-level classes with the given parameters, canonical order.

    Entries are decoded canonical representatives, so the catalog is a pure
    function of (p, q, r, marking).  `cache` is an optional mutable mapping
    from candidate fingerprints to canonical-form hex (a pure memo).
    """
    if marking is None:
        marking = MarkingSpec.all_marked(p, q, r)
    _check_top_params(p, q, r, marking)
    cache = {} if cache is None else cache
    matchings = list(_matchings(q))
    forms = set()
    if jobs > 1 and len(matchings) > 1:
        chunk = (len(matchings) + jobs - 1) // jobs
        parts = [matchings[i:i + chunk] for i in range(0, len(matchings), chunk)]
        argsets = [(p, q, r, marking.key(), part, dict(cache)) for part in parts]
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            for got, new in pool.map(_top_candidates_chunk, argsets):
                forms |= got
                cache.update(new)
    else:
        got, new = _top_candidates_chunk((p, q, r, marking.key(), matchings, cache))
        forms = got
        cache.update(new)
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


def _poincare(g, classification, autos, checks):
    """Poincare polynomial of the closed handle: invariants of the exterior
    algebra on the d torus directions under the symmetry group's permutation
    action."""
    d = classification.d
    order = classification.order
    pos_of_orig = {orig: i + 1 for i, orig in enumerate(order)}
    b_positions = sorted(classification.B)
    acc = [Fraction(0)] * (d + 1)
    for phi in autos:
        cyl_map = phi.cylinder_map(g)
        perm = {}
        for bp in b_positions:
            orig = order[bp - 1]
            image = pos_of_orig[cyl_map[orig]]
            if image not in classification.B:
                raise ta.AlgebraInvariantViolation(
                    "automorphism does not preserve the torus directions")
            perm[bp] = image
        # det(I + t P) over cycles: a length-m cycle contributes 1 - (-t)^m
        poly = [Fraction(1)]
        for cyc in mg.trace_cycles(perm, b_positions):
            m = len(cyc)
            factor = [Fraction(0)] * (m + 1)
            factor[0] = Fraction(1)
            factor[m] = -Fraction(-1) ** m
            poly = _poly_mul(poly, factor)
        poly += [Fraction(0)] * (d + 1 - len(poly))
        acc = [a + b for a, b in zip(acc, poly[:d + 1])]
    out = []
    for x in acc:
        v = x / len(autos)
        if v.denominator != 1 or v < 0:
            raise ta.AlgebraInvariantViolation("non-integral invariant dimension")
        out.append(int(v))
    return tuple(out)


def _poly_mul(a, b):
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x == 0:
            continue
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def handle_record(g, canonical=None):
    """Compute the full handle record of one validated class."""
    if canonical is None:
        canonical = mg.canonical_form(g)
    rep = mg.validate(g, require_marks=False)
    model = ta.homology_model(g)
    classification = ta.classify_circles(g)
    poly = ta.u_polytope(g, model)
    autos = mg.automorphisms(g)
    stab = ta.check_stab_action(g, model, autos, classification)
    index = g.q - rep.s
    pc = _poincare(g, classification, autos, stab.checks)
    return HandleRecord(
        class_id=class_id(canonical), canonical=canonical, lmg=g,
        index=index, s=rep.s, t=rep.t, n=rep.n,
        c=classification.c, d=classification.d,
        nu0=classification.nu0, e=classification.e,
        dim_upoly=poly.dim, handle_dim=index + rep.n + poly.dim,
        gamma_order=len(autos),
        mirror_self=(mg.canonical_form(mg.mirror(g)) == canonical),
        all_admissible=stab.all_admissible, all_free=stab.all_free,
        free_exact=all(c.free_exact for c in stab.checks),
        poincare=pc)


def build_complex(seeds, marking=None):
    """Downward closure of one-level seeds under saddle resolution."""
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

    known = {}
    incidence = []
    queue = []
    for g in seeds:
        cf = mg.canonical_form(g)
        if cf not in known:
            known[cf] = g
            queue.append(cf)
    top = sorted(known)

    while queue:
        cf = queue.pop()
        g = known[cf]
        src = class_id(cf)
        J = g.level_partition()
        for J1 in refinements(J, proper=True):
            h = delta(g, J1)
            cf1 = mg.canonical_form(h)
            if cf1 not in known:
                known[cf1] = h
                queue.append(cf1)
            incidence.append((src, _face_key(J1), class_id(cf1)))

    records = tuple(handle_record(known[cf], cf) for cf in sorted(known))
    return ComplexK(p=p, q=q, r=r, marking=marking, classes=records,
                    incidence=tuple(sorted(set(incidence))),
                    top_count=len(top))


def _face_key(J):
    return tuple(tuple(sorted(b)) for b in J.blocks)


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
            "lmg": json.loads(mg.to_json(rec.lmg)),
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


def complex_from_json(text):
    """Rebuild a complex from its JSON dump, revalidating every class,
    recomputing all per-class records and the global invariants, and
    refusing the dump when a stored value differs from its recomputation."""
    try:
        doc = json.loads(text)
        params = doc["params"]
        marking = MarkingSpec(marked=tuple(params["marked"]),
                              fixed=tuple(params["fixed"]))
        entries = doc["classes"]
        incidence = tuple(sorted((src, tuple(tuple(b) for b in face), dst)
                                 for src, face, dst in doc["incidence"]))
    except (KeyError, ValueError, TypeError) as exc:
        raise mg.LMGJSONError("malformed complex document: %r" % (exc,))
    if not entries:
        raise mg.LMGJSONError("complex document has no classes")
    records = []
    for entry in entries:
        g = mg.from_json(json.dumps(entry["lmg"]))
        mg.validate(g, require_marks=False)
        cf = mg.canonical_form(g)
        if class_id(cf) != entry["id"]:
            raise mg.LMGJSONError("class id %s does not match its graph"
                                  % entry["id"])
        rec = handle_record(g, cf)
        _check_stored("class " + rec.class_id, entry, _record_fields(rec))
        records.append(rec)
    records.sort(key=lambda rec: rec.canonical)
    known = {rec.class_id for rec in records}
    for src, _, dst in incidence:
        if src not in known or dst not in known:
            raise mg.LMGJSONError("incidence references unknown class")
    top_count = sum(1 for rec in records if rec.s == 1)
    K = ComplexK(p=params["p"], q=params["q"], r=params["r"],
                 marking=marking, classes=tuple(records),
                 incidence=incidence, top_count=top_count)
    _check_stored("complex document", doc, _report_fields(K))
    return K


def catalog_to_json(classes, p, q, r, marking):
    doc = {
        "params": {"p": p, "q": q, "r": r,
                   "marked": list(marking.marked),
                   "fixed": list(marking.fixed)},
        "classes": [json.loads(mg.to_json(g)) for g in classes],
    }
    return json.dumps(doc, separators=(",", ":"), sort_keys=True)


def catalog_from_json(text):
    try:
        doc = json.loads(text)
        params = doc["params"]
        marking = MarkingSpec(marked=tuple(params["marked"]),
                              fixed=tuple(params["fixed"]))
        classes = [mg.from_json(json.dumps(entry)) for entry in doc["classes"]]
    except (KeyError, ValueError, TypeError) as exc:
        raise mg.LMGJSONError("malformed catalog document: %r" % (exc,))
    for g in classes:
        mg.validate(g, require_marks=False)
    return classes, params["p"], params["q"], params["r"], marking


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
