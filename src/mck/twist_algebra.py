"""Exact linear algebra of a leveled graph: relative homology, cylinder
classification, cohomology polytopes, and the stabilizer check.  Each
function a handle record calls returns what the record stores:
`classify_circles` the torus directions n, `u_polytope` the polytope
dimension and `check_stab_action` the pair (admissible, free).  An
identity that holds for every class or every structure automorphism is
checked, and its failure raises `morse_graph.InvariantViolation`.

The punctured surface (extrema removed) deformation-retracts onto the graph
obtained from the level graph by trading one crossing edge per cylinder, the
smallest edge of the cylinder's upper-end circle, for a transverse edge
through it.  Relative 1-homology (mod the saddle set) is then free on the 2q
edges of that graph; the traded edges e_1..e_n expand over the remaining
ones through one relation per cylinder: the two boundary circles of a
cylinder are homologous cross-sections, so the sum of the edges on its upper
boundary equals the sum on its lower boundary.  The expansions built on the
traded edges are checked, so no choice of them is trusted unverified.

The relations, the expansions and the core classes are integral, and all
of it runs over int: an expansion entry that is not an integer raises.
Fractions appear only where a value is a true quotient: the rotation
offsets of the stabilizer check.
Coordinates on the dual space are (u~_1..u~_n, u'_{n+1}..u'_{2q}): values
on the transverse edges followed by values on the kept graph edges.

The cylinder classification is the scope fact of `classify_circles`: a
class has at most chi(S^2) + 1 = 3 fixed points, so every core has a side
with at most one of them.  Every core is then a torus direction of the
twist subgroup (d = nu0 = n, c = e = 0), and the stabilizer's freeness test
on the rotation offsets of the cores is exact.

The dimension of the edge-value polytope is certified, not enumerated: an
interior point (integer numerators over one common denominator), checked
against every inequality in integers, shows that the polytope is
full-dimensional.  The point comes from the assembly tree: one value per
atom, scaled across each cylinder by the edge counts of its two circles,
fits the box whenever the largest value is below bound times the
smallest, and `_tree_witness` proves that it does for every class with
q <= 4, the scope `complex_builder` enforces.  A point that does not fit
is an invariant violation, not a dimension to derive some other way.
"""

from dataclasses import dataclass
from fractions import Fraction

from . import linalg
from . import morse_graph as mg


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


def _traded_edges(g):
    """The traded edge of each cylinder: the smallest edge of its upper-end
    circle, which bounds the atom above the cylinder from below.

    Trading edge e merges the cylinder with the region (cap or cylinder) on
    the upper side of e, and a valid choice never merges two regions that
    are already joined, nor two capped ones.  A union-find search that
    tries each cylinder's edges smallest first, in cylinder order, accepts
    its first candidate on every valid graph: each earlier pick points a
    cylinder at a region on its upper atom's upper side, so the pick
    pointers rise strictly in level.  The cylinder being traded is thus the
    only sink of its component, which holds no cap and nothing attached
    above its upper atom, so neither refusal can occur.  `homology_model`
    still certifies the choice: the relations must be nonsingular and
    integral on the traded edges and vanish on the expansions."""
    return [(a, min(g.atoms[a].circles[ci][1])) for _, (a, ci) in g.cylinders]


def homology_model(g):
    """Build the cylinder-adapted basis and the exact integer expansion
    matrix.  Global edge (a, e) sits at position offset[a] + e
    (`g.edge_offsets()`)."""
    edges = g.global_edges()
    offset = g.edge_offsets()
    nq2 = offset[-1]
    n = len(g.cylinders)

    relations = []
    for lo, hi in g.cylinders:
        row = [0] * nq2
        for i in g.circle_positions(hi, offset):
            row[i] += 1
        for i in g.circle_positions(lo, offset):
            row[i] -= 1
        relations.append(tuple(row))

    deleted = tuple(offset[a] + e for a, e in _traded_edges(g))
    row_of = {d: k for k, d in enumerate(deleted)}
    basis = tuple(i for i in range(nq2) if i not in row_of)
    m = len(basis)

    # solve the n relations for the deleted edges over the kept ones in one
    # elimination: [A | -R_kept] reduces to [I | X], row k of X expanding
    # deleted edge k; the kept edges expand as unit rows
    R, pivots = linalg.rref([[rel[d] for d in deleted]
                             + [-rel[b] for b in basis] for rel in relations])
    if pivots[:n] != list(range(n)):
        raise mg.InvariantViolation("cylinder relations are singular on "
                                    "the traded edges")
    # the unit row of kept edge basis[k] is ramp[m - 1 - k:2 * m - 1 - k]
    ramp = (0,) * (m - 1) + (1,) + (0,) * (m - 1)
    expansion = []
    k = 0
    for i in range(nq2):
        if i in row_of:
            row = tuple(R[row_of[i]][n:])
            if any(type(x) is not int for x in row):
                raise mg.InvariantViolation("non-integral expansion of "
                                            "traded edge %d" % i)
            expansion.append(row)
        else:
            expansion.append(ramp[m - 1 - k:2 * m - 1 - k])
            k += 1

    # exactness certificate: every relation vanishes on the expansions
    for k, rel in enumerate(relations):
        acc = [0] * m
        for coef, erow in zip(rel, expansion):
            if coef:
                acc = [a + coef * x for a, x in zip(acc, erow)]
        if any(acc):
            raise mg.InvariantViolation("expansion does not satisfy "
                                        "cylinder relation %d" % k)

    gamma = []
    for lo, hi in g.cylinders:
        row = [0] * m
        for i in g.circle_positions(lo, offset):
            row = [a + b for a, b in zip(row, expansion[i])]
        if not any(row):
            raise mg.InvariantViolation("vanishing core class")
        gamma.append(tuple(row))

    return HomologyModel(edges=tuple(edges), deleted=deleted, basis=basis,
                         expansion=tuple(expansion), gamma=tuple(gamma),
                         relations=tuple(relations))


# ---------------------------------------------------------------------------
# Circle classification
# ---------------------------------------------------------------------------

MAX_FIXED_POINTS = 3  # chi(S^2) + 1


def classify_circles(g):
    """The number of torus directions of a validated graph, n: every
    cylinder core is one at the builder's scope.

    A core counts in nu0 when one of its sides holds at most one fixed
    point; the others would form e parallel families, and d = nu0 +
    (cores in families) - e would be the rank of the identity-isotopic
    twist subgroup, c = n - d its complement.  The builder allows at most
    one fixed point per index, so a class has at most chi(S^2) + 1 = 3
    (fixed saddles and fixed caps), and the two sides of a core share them:
    one side holds at most one.  So e = c = 0 and d = nu0 = n."""
    n = len(g.cylinders)
    if n != len(g.atoms) - 1:
        raise mg.InvariantViolation("sphere assembly graph is not a tree")
    fixed = len(g.fixed_saddles) + sum(1 for cap in g.caps if cap.fixed)
    if fixed > MAX_FIXED_POINTS:
        raise mg.InvariantViolation(
            "%d fixed points, more than chi(S^2) + 1 = %d"
            % (fixed, MAX_FIXED_POINTS))
    return n


# ---------------------------------------------------------------------------
# Cohomology polytopes
# ---------------------------------------------------------------------------

def _tree_witness(g, model, bound):
    """A strict interior point of the edge-value polytope built from the
    assembly tree, as (numerators over the kept edges, D); None when the
    tree's values do not fit the box.

    Cylinder relations: give every edge of atom a one value lambda_a.  A
    circle c of atom a runs over edges of a only, so it sums to
    |c| lambda_a, and the relation of a cylinder (lo, hi) holds exactly
    when |lo| lambda_lo = |hi| lambda_hi, lambda_x being the value of the
    atom of circle x.  The cylinders form a tree on the atoms
    (n = atoms - 1, `classify_circles`), so a walk from atom 0 sets each
    lambda once, lambda_b = lambda_a |lo| / |hi| across a cylinder from
    a's side (|hi| / |lo| from b's), and then every relation holds.  The
    path to an atom divides by one circle size of each cylinder on it, at
    most once per cylinder, and lambda_0 = prod |lo| |hi| over all
    cylinders holds all of those factors, so every division is exact and
    every lambda a positive integer.

    Strict box: scaling every lambda by c = (lmax + bound lmin) /
    (2 lmin lmax) keeps the relations and puts every edge value between
    (lmax + bound lmin) / (2 lmax) and (lmax + bound lmin) / (2 lmin); the
    first exceeds 1 and the second is below bound exactly when
    lmax < bound lmin.  The values of the traded edges are among them, and
    they are the slab rows applied to the kept values, since the relations
    determine a traded edge from the kept ones (`homology_model`), so every
    slab holds strictly too.  `_polytope_dim` checks all of it in integers
    anyway.

    The point fits at q <= 4.  Let x_0 .. x_m be the tree path from an atom
    of least lambda to one of largest, and c_i- and c_i+ the circles of x_i
    on its cylinders towards x_{i-1} and x_{i+1}.  Then

        lmax / lmin = |c_0+| * prod_{0<i<m} |c_i+| / |c_i-| / |c_m-|.

    The upper circles of an atom with k saddles are the cycles of one
    permutation of its 2k edges, and so are its lower circles: a circle has
    at most 2k edges, and two circles on one side share no edge, so their
    ratio is at most 2k - 1.  The atoms of the path are distinct.
    - s >= 3: the ratio is at most prod 2 k_i <= 2^q, as 2k <= 2^k; that is
      8 < 15 = bound at q = 3 and 16 < 35 <= bound at q = 4.
    - s = 2: every cylinder joins the two levels, so the two circles of an
      interior atom lie on one side.  One cylinder gives at most 2 (q - 1)
      < 2q - 1 = bound, since the other atom holds a saddle.  Two give
      2 k_0 (2 k_1 - 1) with k_0 + k_1 <= q - 1: 2 < 5 at q = 3 and at most
      6 < 7 at q = 4.  Three need four atoms, all with k = 1 at q = 4, and
      give 2.
    - s = 1: the bound is 1 and there is no point (None); `_polytope_dim`
      checks the all-ones point without one.
    """
    adjacent = [[] for _ in g.atoms]
    lam0 = 1
    for (a, ca), (b, cb) in g.cylinders:
        lo = len(g.atoms[a].circles[ca][1])
        hi = len(g.atoms[b].circles[cb][1])
        adjacent[a].append((b, lo, hi))
        adjacent[b].append((a, hi, lo))
        lam0 *= lo * hi
    lam = [0] * len(g.atoms)
    lam[0] = lam0
    stack = [0]
    while stack:
        a = stack.pop()
        for b, num, den in adjacent[a]:
            if not lam[b]:
                lam[b] = lam[a] * num // den
                stack.append(b)
    lmin, lmax = min(lam), max(lam)
    if lmax >= bound * lmin:
        return None
    scale = lmax + bound * lmin
    return ([lam[model.edges[b][0]] * scale for b in model.basis],
            2 * lmin * lmax)


def _polytope_dim(slab_rows, bound, witness):
    """Dimension of the box [1, bound]^ambient cut by 1 <= row . u <= bound,
    never guessed.

    bound 1: the box is the all-ones point.  Otherwise the interior point
    `witness`, checked exactly against every inequality, certifies full
    dimension: with the point as numerators x over D > 0, every value
    a . x, box coordinates included, must lie strictly between D and
    bound * D.  No point (`_tree_witness` found none) and a point that
    fails the check both raise: `_tree_witness` proves a point for every
    class in scope, so either is a bug, whatever the polytope is."""
    if bound == 1:
        if all(sum(row) == 1 for row in slab_rows):
            return 0
        raise mg.InvariantViolation("empty edge-value polytope")
    if witness is None:
        raise mg.InvariantViolation("the assembly tree's point does not "
                                    "fit the edge-value box")
    nums, D = witness
    values = nums + [sum(x * v for x, v in zip(row, nums)) for row in slab_rows]
    if not (D > 0 and all(D < v < bound * D for v in values)):
        raise mg.InvariantViolation("interior-point certificate of the "
                                    "edge-value polytope fails")
    return len(nums)


def u_polytope(g, model):
    """The dimension of the polytope of positive edge values within the
    double-factorial bound, in kept-edge coordinates: 0 for a one-level
    class, whose polytope is the all-ones point (bound 1), else the number
    of kept edges.  `_polytope_dim` certifies it with the assembly tree's
    point (`_tree_witness`) and raises otherwise."""
    bound = double_factorial_bound(g.q, len(g.levels))
    return _polytope_dim([model.expansion[d] for d in model.deleted], bound,
                         _tree_witness(g, model, bound))


# ---------------------------------------------------------------------------
# Stabilizer action checks
# ---------------------------------------------------------------------------

def _circle_offset(psi, cyc):
    """Rotation offset, as a fraction of a turn, of an edge permutation on
    one boundary circle given as its edges' positions in trace order."""
    image0 = psi[cyc[0]]
    if image0 not in cyc:
        raise mg.InvariantViolation("boundary circle not preserved")
    o, L = cyc.index(image0), len(cyc)
    if any(psi[cyc[i]] != cyc[(i + o) % L] for i in range(L)):
        raise mg.InvariantViolation("circle image is not a rotation")
    return Fraction(o, L)


def _face_admissible(sigma, J):
    """The face clause of `check_stab_action`: whether the saddle
    permutation sigma (a mapping) stabilizes the ordered partition J."""
    return all(tuple(sorted(sigma[v] for v in b)) == b for b in J)


def check_stab_action(g, model, autos):
    """(admissible, free) of the stabilizer's action on the handle: whether
    every non-identity structure automorphism passes the degeneracy clause,
    and whether each has a nonzero rotation offset on some cylinder cycle.
    The identity is admissible and free by definition and is not checked.
    So a trivial group has nothing to set up: when no automorphism moves a
    dart, the pair (True, True) returns before the level partition, the
    identity matrix and the edge positions are built.  The test is
    `is_identity`, not the group's size, so a single automorphism that
    moves something still meets every clause.

    Two more clauses of admissibility hold for every structure
    automorphism, so they are invariant checks, and a failure raises
    InvariantViolation:
    - consistency, the edge action commutes with the expansion.  An
      automorphism maps each cylinder to a cylinder, and each circle to a
      circle on the same side, so it permutes the cylinder relations, and
      its action on the edges descends to the quotient that the expansion
      coordinatizes.  It is tested on the traded edges only: a kept edge
      basis[k] expands to the unit row e_k, where it holds by construction.
    - the face clause, sigma stabilizes the level partition J, sigma the
      saddle permutation.  `canonicalize` permutes atoms only inside a
      level, so an automorphism preserves each level.  The face map sigma
      induces on the face of J is admissible exactly when sigma stabilizes
      J: sigma o pi = pi for no vertex pi unless sigma is the identity, and
      a refinement J' with sigma(J') != J' shares no vertex with sigma(J'),
      whose blocks have the same sizes in the same order.

    Degeneracy: an automorphism fixing every saddle must fix every cylinder
    and act on the quotient as an involution; one that moves a saddle must
    act on the quotient nontrivially."""
    moved = [phi for phi in autos if not phi.is_identity()]
    if not moved:
        return True, True
    J = g.level_partition()
    n = model.n
    identity = linalg.identity(len(model.basis))
    base = g.edge_offsets()
    admissible = free = True
    for phi in moved:
        # row k: the image of kept edge basis[k] over the kept edges
        B = [list(model.expansion[phi.edges[b]]) for b in model.basis]
        Bt = list(map(list, zip(*B)))
        if any(list(model.expansion[phi.edges[i]])
               != linalg.mat_vec(Bt, list(model.expansion[i]))
               for i in model.deleted):
            raise mg.InvariantViolation("the edge action does not "
                                        "commute with the expansion")
        if not _face_admissible(phi.saddles, J):
            raise mg.InvariantViolation("the saddle map does not "
                                        "stabilize the level partition")
        if all(v == w for v, w in phi.saddles.items()):
            admissible &= (all(phi.cylinders[k] == k for k in range(n))
                           and linalg.mat_mul(B, B) == identity)
        else:
            admissible &= B != identity

        offsets = []
        for cyc in mg.trace_cycles(phi.cylinders, range(n)):
            psi = list(range(len(model.edges)))
            for _ in cyc:
                psi = [phi.edges[i] for i in psi]
            lo, hi = (g.circle_positions(ref, base)
                      for ref in g.cylinders[cyc[0]])
            offsets.append((_circle_offset(psi, hi)
                            - _circle_offset(psi, lo)) % 1)
        free &= any(offsets)
    return admissible, free
