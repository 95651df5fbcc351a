"""Exact linear algebra of a leveled graph: relative homology, cylinder
classification, cohomology polytopes, and the stabilizer check.

The punctured surface (extrema removed) deformation-retracts onto the graph
obtained from the level graph by trading one crossing edge per cylinder for
a transverse edge through it.  Relative 1-homology (mod the saddle set) is
then free on the 2q edges of that graph; the traded edges e_1..e_n expand
over the remaining ones through one relation per cylinder: the two boundary
circles of a cylinder are homologous cross-sections, so the sum of the edges
on its upper boundary equals the sum on its lower boundary.

The relations, the expansions and the core classes are integral, and all
of it runs over int: an expansion entry that is not an integer raises.
Fractions appear only where a value is a true quotient: the bounds of one
back-substitution step and the rotation offsets of the stabilizer check.
Coordinates on the dual space are (u~_1..u~_n, u'_{n+1}..u'_{2q}): values
on the transverse edges followed by values on the kept graph edges.

The dimension of the edge-value polytope is certified, not enumerated: a
polytope is full-dimensional exactly when its strict system is feasible, and
Fourier-Motzkin elimination over the integers decides that and yields an
interior point (integer numerators over one common denominator), which is
checked against every inequality in integers.  Every multi-level class of
every q <= 3 complex, and of q = 4 (5, 4, 1), has such a point, so a strict
system without one (an empty polytope, or one with implicit equalities) is
an invariant violation, not a dimension to derive some other way.
"""

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

from . import linalg
from . import morse_graph as mg
from .permutohedron import induced_face_automorphism


class TwistAlgebraError(ValueError):
    """Invalid input for the algebra layer."""


class UnsupportedScopeError(TwistAlgebraError):
    """Input outside the sphere scope."""


class AlgebraInvariantViolation(RuntimeError):
    """An exact identity that must hold failed (a bug)."""


def double_factorial_bound(q, s):
    """(2q-1)!! / (2q-2s+1)!!, the upper edge-value bound; an integer."""
    out = 1
    for odd in range(2 * q - 2 * s + 3, 2 * q, 2):
        out *= odd
    return out


# ---------------------------------------------------------------------------
# Homology model
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class HomologyModel:
    """Edge-class expansions and the cylinder-adapted basis.

    edges: global (atom, local) ids, deterministic order;
    deleted: per cylinder, the traded edge's position in `edges`;
    basis: positions of the kept edges, ascending;
    expansion: 2q rows over the kept-edge columns, row i expanding edge i;
    gamma: per cylinder, the core-circle class over the kept-edge columns.
    """

    edges: tuple
    deleted: tuple
    basis: tuple
    expansion: tuple   # tuple of tuples of int
    gamma: tuple       # tuple of tuples of int
    relations: tuple   # per cylinder, the +-1 relation row over all 2q edges

    @property
    def n(self):
        return len(self.deleted)


def _circle_attachments(g):
    """Maps edge-side -> region: ("cap", k) or ("cyl", k) per circle."""
    owner = {}
    for k, cap in enumerate(g.caps):
        owner[tuple(cap.circle)] = ("cap", k)
    for k, (lo, hi) in enumerate(g.cylinders):
        owner[tuple(lo)] = ("cyl", k)
        owner[tuple(hi)] = ("cyl", k)
    up_region, down_region = {}, {}
    for a, atom in enumerate(g.atoms):
        for ci, (side, cyc) in enumerate(atom.circles):
            reg = owner[(a, ci)]
            for e in cyc:
                if side == "upper":
                    up_region[(a, e)] = reg
                else:
                    down_region[(a, e)] = reg
    return up_region, down_region


def _circle_edges(g, ref):
    """Global edge ids on a circle, in trace order."""
    a, ci = ref
    _, cyc = g.atoms[a].circles[ci]
    return [(a, e) for e in cyc]


def _choose_deleted(g):
    """One traded edge per cylinder, greedily smallest on its upper boundary.

    Each deletion must merge the cylinder's region with a different region so
    that the count of cap-free regions drops by one; backtracks if the greedy
    order gets stuck (a valid sequence always exists on the sphere, where the
    region-merge graph is forced to stay a forest).
    """
    up_region, down_region = _circle_attachments(g)
    n = len(g.cylinders)
    candidates = []
    for k, (lo, hi) in enumerate(g.cylinders):
        cand = sorted(_circle_edges(g, hi))
        candidates.append(cand)

    def find(parent, x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def search(k, parent, capped, picked):
        if k == n:
            return picked
        for e in candidates[k]:
            r1 = find(parent, down_region[e])
            r2 = find(parent, up_region[e])
            if r1 == r2:
                continue
            if capped[r1] and capped[r2]:
                continue
            p2 = dict(parent)
            c2 = dict(capped)
            p2[r1] = r2
            c2[r2] = c2[r1] or c2[r2]
            out = search(k + 1, p2, c2, picked + [e])
            if out is not None:
                return out
        return None

    parent = {}
    capped = {}
    for k in range(len(g.caps)):
        parent[("cap", k)] = ("cap", k)
        capped[("cap", k)] = True
    for k in range(n):
        parent[("cyl", k)] = ("cyl", k)
        capped[("cyl", k)] = False
    picked = search(0, parent, capped, [])
    if picked is None:
        raise AlgebraInvariantViolation("no valid edge-deletion sequence exists")
    return picked


def homology_model(g):
    """Build the cylinder-adapted basis and the exact integer expansion
    matrix."""
    edges = g.global_edges()
    pos = {e: i for i, e in enumerate(edges)}
    nq2 = len(edges)
    n = len(g.cylinders)

    relations = []
    for lo, hi in g.cylinders:
        row = [0] * nq2
        for e in _circle_edges(g, hi):
            row[pos[e]] += 1
        for e in _circle_edges(g, lo):
            row[pos[e]] -= 1
        relations.append(tuple(row))

    deleted_edges = _choose_deleted(g)
    deleted = tuple(pos[e] for e in deleted_edges)
    row_of = {d: k for k, d in enumerate(deleted)}
    basis = tuple(i for i in range(nq2) if i not in row_of)
    m = len(basis)

    # solve the n relations for the deleted edges over the kept ones in one
    # elimination: [A | -R_kept] reduces to [I | X], row k of X expanding
    # deleted edge k; the kept edges expand as unit rows
    R, pivots = linalg.rref([[rel[d] for d in deleted]
                             + [-rel[b] for b in basis] for rel in relations])
    if pivots[:n] != list(range(n)):
        raise AlgebraInvariantViolation("cylinder relations are singular on "
                                        "the traded edges")
    unit = {b: tuple(1 if j == k else 0 for j in range(m))
            for k, b in enumerate(basis)}
    expansion = []
    for i in range(nq2):
        if i in row_of:
            row = tuple(R[row_of[i]][n:])
            if any(type(x) is not int for x in row):
                raise AlgebraInvariantViolation("non-integral expansion of "
                                                "traded edge %d" % i)
            expansion.append(row)
        else:
            expansion.append(unit[i])

    # exactness certificate: every relation vanishes on the expansions
    for k, rel in enumerate(relations):
        acc = [0] * m
        for coef, erow in zip(rel, expansion):
            if coef:
                acc = [a + coef * x for a, x in zip(acc, erow)]
        if any(acc):
            raise AlgebraInvariantViolation("expansion does not satisfy "
                                            "cylinder relation %d" % k)

    gamma = []
    for lo, hi in g.cylinders:
        row = [0] * m
        for e in _circle_edges(g, lo):
            row = [a + b for a, b in zip(row, expansion[pos[e]])]
        if not any(row):
            raise AlgebraInvariantViolation("vanishing core class")
        gamma.append(tuple(row))

    return HomologyModel(edges=tuple(edges), deleted=deleted, basis=basis,
                         expansion=tuple(expansion), gamma=tuple(gamma),
                         relations=tuple(relations))


# ---------------------------------------------------------------------------
# Circle classification
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CircleClassification:
    """Cylinder cores sorted by how they sit around the fixed points.

    nu0 counts cores with a side holding at most one fixed point; the
    remaining cores group into parallel families (consecutive cores bounding
    fixed-point-free annuli with no other such core between).  `order` lists
    original cylinder indices in the renumbering nu0-first, families next
    (chain order), loose cores last; A and B are 1-based index sets in that
    renumbering.  d = rank of the identity-isotopic twist subgroup, c its
    complement: c + d = n.
    """

    n: int
    nu0: int
    families: tuple   # tuples of original cylinder indices, chain order
    order: tuple      # new position (0-based) -> original cylinder index
    e: int
    d: int
    c: int
    A: frozenset      # 1-based positions in the new numbering
    B: frozenset


def _fixed_point_places(g):
    """Fixed points per atom and per cap."""
    atom_fixed = [sum(1 for v in atom.saddles if v in g.fixed_saddles)
                  for atom in g.atoms]
    cap_fixed = [1 if cap.fixed else 0 for cap in g.caps]
    cap_atom = [cap.circle[0] for cap in g.caps]
    return atom_fixed, cap_fixed, cap_atom


def _tree_sides(g):
    """For each cylinder, (atoms on its lower-end side, atoms on the other);
    removing a cylinder disconnects the sphere's assembly tree."""
    atoms = range(len(g.atoms))
    pairs = [(lo[0], hi[0]) for lo, hi in g.cylinders]
    out = []
    for k, (lo, _) in enumerate(g.cylinders):
        comps = mg.components(atoms, pairs[:k] + pairs[k + 1:])
        comp = frozenset(next(c for c in comps if lo[0] in c))
        out.append((comp, frozenset(atoms) - comp))
    return out


def _between(sides, cylinders, a, b):
    """Atoms strictly between the cores of cylinders a and b: intersect the
    b-facing side of a with the a-facing side of b."""
    ends_a = {cylinders[a][0][0], cylinders[a][1][0]}
    ends_b = {cylinders[b][0][0], cylinders[b][1][0]}
    sa = next(s for s in sides[a] if ends_b <= s)
    sb = next(s for s in sides[b] if ends_a <= s)
    return sa & sb


def classify_circles(g, validated=False):
    """Classification of the cylinder cores; sphere scope only.

    `g` is validated first unless the caller has already done so
    (`validated=True`)."""
    if not validated:
        try:
            mg.validate(g, require_marks=False)
        except mg.EulerCountError as exc:
            raise UnsupportedScopeError("only the sphere is supported: %s" % exc)
    n = len(g.cylinders)
    if n != len(g.atoms) - 1:
        raise AlgebraInvariantViolation("sphere assembly graph is not a tree")

    atom_fixed, cap_fixed, cap_atom = _fixed_point_places(g)

    def fixed_in(atom_set):
        total = sum(atom_fixed[a] for a in atom_set)
        total += sum(cap_fixed[k] for k in range(len(g.caps))
                     if cap_atom[k] in atom_set)
        return total

    sides = _tree_sides(g)
    side_fixed = [(fixed_in(s1), fixed_in(s2)) for s1, s2 in sides]
    nu0_set = sorted(k for k in range(n) if min(side_fixed[k]) <= 1)
    nu0_members = set(nu0_set)
    rest = [k for k in range(n) if k not in nu0_members]

    # parallel adjacency among the remaining cores
    adj = {k: set() for k in rest}
    pairs = []
    for a, b in itertools.combinations(rest, 2):
        middle = _between(sides, g.cylinders, a, b)
        if fixed_in(middle) != 0:
            continue
        blocked = False
        for c0 in rest:
            if c0 in (a, b):
                continue
            lo, hi = g.cylinders[c0]
            if lo[0] in middle and hi[0] in middle:
                blocked = True
                break
        if not blocked:
            adj[a].add(b)
            adj[b].add(a)
            pairs.append((a, b))

    families = []
    loose = []
    for comp in mg.components(rest, pairs):
        if len(comp) == 1:
            loose.extend(comp)
            continue
        comp = set(comp)
        ends = sorted(x for x in comp if len(adj[x] & comp) <= 1)
        if not ends:
            raise AlgebraInvariantViolation("parallel family is not a chain")
        chain = [min(ends)]
        in_chain = {chain[0]}
        while len(chain) < len(comp):
            nxt = [w for w in adj[chain[-1]] & comp if w not in in_chain]
            if len(nxt) != 1:
                raise AlgebraInvariantViolation("parallel family is not a chain")
            chain.append(nxt[0])
            in_chain.add(nxt[0])
        families.append(tuple(chain))

    order = list(nu0_set)
    fam_bounds = [len(order)]
    for fam in families:
        order.extend(fam)
        fam_bounds.append(len(order))
    order.extend(loose)

    e = len(families)
    nu_e = fam_bounds[-1]
    d = nu_e - e
    c = n - d
    A = set(fam_bounds[1:]) | set(range(nu_e + 1, n + 1))
    B = set(range(1, n + 1)) - A
    if len(B) != d or len(A) != c:
        raise AlgebraInvariantViolation("A/B split does not match d = nu_e - e")
    return CircleClassification(n=n, nu0=len(nu0_set), families=tuple(families),
                                order=tuple(order), e=e, d=d, c=c,
                                A=frozenset(A), B=frozenset(B))


# ---------------------------------------------------------------------------
# Cohomology polytopes
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class UPolytope:
    """Exact H-representation of the kept-coordinate polytope:
    1 <= row . u' <= bound for every edge row of the expansion matrix.

    `dim` is certified by `_polytope_dim`: 0 for a one-level class (bound
    1), else `ambient`.
    """

    rows: tuple      # 2q rows over the kept-edge coordinates
    slabs: tuple     # the rows of the traded edges; the others are unit rows
    bound: int
    ambient: int
    dim: int

    @property
    def is_point(self):
        return self.dim == 0


def _strict_system(slab_rows, bound, ambient):
    """Integer rows (a, b) of the strict system a . u < b of the polytope:
    1 < u_j < bound, then 1 < row . u < bound, where a rational row is first
    scaled by the common denominator of its entries."""
    system = []
    for j in range(ambient):
        unit = tuple(1 if i == j else 0 for i in range(ambient))
        system.append((tuple(-x for x in unit), -1))
        system.append((unit, bound))
    for row in slab_rows:
        ints, scale = linalg.integer_row(row)
        system.append((tuple(-x for x in ints), -scale))
        system.append((tuple(ints), bound * scale))
    return system


def _reduced(system):
    """Divide each row by the gcd of its entries, keep the tightest right
    side per left side, and drop rows without variables; None when one of
    those reads 0 < b with b <= 0."""
    out = {}
    for a, b in system:
        if not any(a):
            if b <= 0:
                return None
            continue
        k = math.gcd(b, *a)
        a, b = tuple(x // k for x in a), b // k
        if a not in out or b < out[a]:
            out[a] = b
    return out


def _strict_witness(system, ambient):
    """A point with a . u < b for every row, as (numerators, D): integer
    numerators over one positive common denominator D; None when there is
    none.  Every variable must be bounded on both sides by rows of its own
    (the box rows do that).

    Fourier-Motzkin: eliminating u_k adds a positive integer combination of
    every pair of rows with opposite signs on u_k, and strictness survives
    such combinations.  The point is then built by back-substitution, with
    each u_k midway between the bounds that the rows of its step give it."""
    rows = _reduced(system)
    steps = []
    for k in range(ambient):
        if rows is None:
            return None
        steps.append(rows)
        nxt = [(a, b) for a, b in rows.items() if a[k] == 0]
        for ap, bp in rows.items():
            if ap[k] <= 0:
                continue
            for an, bn in rows.items():
                if an[k] < 0:
                    fp, fn = -an[k], ap[k]
                    nxt.append((tuple(fp * x + fn * y for x, y in zip(ap, an)),
                                fp * bp + fn * bn))
        rows = _reduced(nxt)
    if rows is None:
        return None
    nums, D = [0] * ambient, 1
    for k in reversed(range(ambient)):
        # u_k is still 0 here, so a . nums sums the later coordinates only:
        # a[k] u_k < (b D - a . nums) / D
        lows, highs = [], []
        for a, b in steps[k].items():
            if a[k]:
                edge = Fraction(b * D - sum(x * v for x, v in zip(a, nums)),
                                a[k] * D)
                (highs if a[k] > 0 else lows).append(edge)
        mid = (max(lows) + min(highs)) / 2
        scale = mid.denominator // math.gcd(D, mid.denominator)
        if scale != 1:
            nums = [v * scale for v in nums]
            D *= scale
        nums[k] = mid.numerator * (D // mid.denominator)
    return nums, D


def _polytope_dim(slab_rows, bound, ambient):
    """Dimension of the box [1, bound]^ambient cut by 1 <= row . u <= bound,
    never guessed.

    bound 1: the box is the all-ones point.  Otherwise an interior point of
    the strict system, checked exactly against every inequality, certifies
    full dimension: with the point as numerators x over D > 0, every value
    a . x, box coordinates included, must lie strictly between D and
    bound * D.  A strict system without a solution raises: the polytope is
    empty or lies in a proper affine subspace, which no class has."""
    if bound == 1:
        if all(sum(row) == 1 for row in slab_rows):
            return 0
        raise AlgebraInvariantViolation("empty edge-value polytope")
    witness = _strict_witness(_strict_system(slab_rows, bound, ambient),
                              ambient)
    if witness is None:
        raise AlgebraInvariantViolation("edge-value polytope is empty or not "
                                        "full-dimensional")
    nums, D = witness
    values = nums + [sum(x * v for x, v in zip(row, nums)) for row in slab_rows]
    if not (D > 0 and all(D < v < bound * D for v in values)):
        raise AlgebraInvariantViolation("interior-point certificate of the "
                                        "edge-value polytope fails")
    return ambient


def u_polytope(g, model):
    """The polytope of positive edge values within the double-factorial
    bound, in kept-edge coordinates; `_polytope_dim` certifies that it is
    the all-ones point (one level) or full-dimensional, and raises
    otherwise."""
    q = g.q
    s = len(g.levels)
    bound = double_factorial_bound(q, s)
    ambient = len(model.basis)
    slabs = tuple(model.expansion[d] for d in model.deleted)
    return UPolytope(rows=tuple(model.expansion), slabs=slabs, bound=bound,
                     ambient=ambient,
                     dim=_polytope_dim(slabs, bound, ambient))


# ---------------------------------------------------------------------------
# Stabilizer action checks
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AutomorphismCheck:
    """Admissibility and freeness data for one non-identity structure
    automorphism."""

    consistent: bool          # edge action descends to the quotient
    face_admissible: bool
    pi_trivial: bool          # loose/non-nu0 cores all fixed
    a_trivial: bool
    b_trivial: bool
    rho_trivial: bool
    degeneracies_ok: bool
    free: bool
    free_exact: bool          # False when only the mod-1 test applied (c > 0)
    cycle_obstructions: tuple  # ((cycle tuple), Fraction offset mod 1)
    admissible: bool


@dataclass(frozen=True)
class StabReport:
    checks: tuple
    all_admissible: bool
    all_free: bool


def _quotient_matrix(model, edge_perm):
    """Matrix of the edge action on the kept-coordinate quotient."""
    return [list(model.expansion[edge_perm[b]]) for b in model.basis]


def _circle_offset(psi, cyc):
    """Rotation offset, as a fraction of a turn, of an edge permutation on
    one boundary circle given as its edges' positions in trace order."""
    image0 = psi[cyc[0]]
    if image0 not in cyc:
        raise AlgebraInvariantViolation("boundary circle not preserved")
    o, L = cyc.index(image0), len(cyc)
    if any(psi[cyc[i]] != cyc[(i + o) % L] for i in range(L)):
        raise AlgebraInvariantViolation("circle image is not a rotation")
    return Fraction(o, L)


def check_stab_action(g, model, autos, classification=None):
    """Run the admissibility checklist and the fixed-point-freeness test on
    every non-identity structure automorphism.

    The identity is admissible and free by definition and is not checked, so
    a trivial group gives no checks.  Consistency (the edge action commutes
    with the expansion) is tested on the traded edges only: a kept edge
    basis[k] expands to the unit row e_k, where it holds by construction."""
    if classification is None:
        classification = classify_circles(g)
    J = g.level_partition()
    n = model.n
    identity = linalg.identity(len(model.basis))
    nu0_orig = set(classification.order[:classification.nu0])
    moved = [phi for phi in autos if not phi.is_identity()]
    pos = {e: i for i, e in enumerate(model.edges)}

    def circle_positions(ref):
        a, ci = ref
        return [pos[(a, e)] for e in g.atoms[a].circles[ci][1]]

    checks = []
    for phi in moved:
        B = _quotient_matrix(model, phi.edges)
        Bt = list(map(list, zip(*B)))
        consistent = all(
            list(model.expansion[phi.edges[i]]) ==
            linalg.mat_vec(Bt, list(model.expansion[i]))
            for i in model.deleted)
        _, facerep = induced_face_automorphism(lambda x: phi.saddles[x], J)
        pi_trivial = all(phi.cylinders[k] == k
                         for k in range(n) if k not in nu0_orig)
        a_trivial = linalg.mat_eq(B, identity)
        b_trivial = all(v == w for v, w in phi.saddles.items())
        rho_trivial = all(phi.cylinders[k] == k for k in range(n))
        if b_trivial:
            deg_ok = rho_trivial and linalg.mat_eq(linalg.mat_mul(B, B),
                                                   identity)
        else:
            deg_ok = not a_trivial

        obstructions = []
        for cyc in mg.trace_cycles(phi.cylinders, range(n)):
            psi = list(range(len(model.edges)))
            for _ in cyc:
                psi = [phi.edges[i] for i in psi]
            lo, hi = g.cylinders[cyc[0]]
            off = (_circle_offset(psi, circle_positions(hi))
                   - _circle_offset(psi, circle_positions(lo))) % 1
            obstructions.append((tuple(cyc), off))

        checks.append(AutomorphismCheck(
            consistent=consistent,
            face_admissible=facerep.admissible,
            pi_trivial=pi_trivial,
            a_trivial=a_trivial, b_trivial=b_trivial,
            rho_trivial=rho_trivial, degeneracies_ok=deg_ok,
            free=any(off != 0 for _, off in obstructions),
            free_exact=classification.c == 0,
            cycle_obstructions=tuple(obstructions),
            admissible=(consistent and facerep.admissible and pi_trivial
                        and deg_ok)))

    return StabReport(checks=tuple(checks),
                      all_admissible=all(c.admissible for c in checks),
                      all_free=all(c.free for c in checks))
