"""Batch command line front end.

Commands: enumerate, complex, euler, qpoly, dim, facelattice, export-dot.
All reports are exact (integers and fraction strings, never floats) and all
file outputs are byte-identical for identical configurations.  Catalogs and
complex dumps, in an `--out` file or on standard output, are written as they
are encoded, one class and one incidence entry at a time, so the whole
document is never held in memory; the global invariants of a dump are
computed before its file is opened.

Exit codes: 0 success, 2 invalid parameters, 3 I/O or parse failure
(a closed standard output included), 4 internal invariant violation
(`morse_graph.InvariantViolation`, from any layer: an "invariant
violation:" line on stderr, naming the class when one is at fault).  No
exit prints a traceback.

Every input file is re-derived when it is read: catalogs are revalidated
graph by graph, and a complex dump must list each class once and match its
recomputed handle records, global invariants and per-class faces, or the
command exits with 3.

`euler` always prints both values of chi: every handle is compact at this
scope (every cylinder core is a torus direction, `classify_circles`).
"""

import argparse
import functools
import json
import math
import os
import sys
from fractions import Fraction

from . import complex_builder as cb
from . import morse_graph as mg
from . import permutohedron as ph
from . import perturbation as pt

EXIT_PARAMS = 2
EXIT_IO = 3
EXIT_INVARIANT = 4


class CliError(Exception):
    def __init__(self, code, message):
        super().__init__(message)
        self.code = code


def _parse_triple(text, what):
    try:
        parts = tuple(int(x) for x in text.split(","))
    except ValueError:
        raise CliError(EXIT_PARAMS, "%s must be 'a,b,c' integers, got %r"
                       % (what, text))
    if len(parts) != 3:
        raise CliError(EXIT_PARAMS, "%s must have three entries" % what)
    return parts


def _marking(args, p, q, r):
    if args.marked == "all":
        marked = (p, q, r)
    else:
        marked = _parse_triple(args.marked, "--marked")
    if args.fixed == "none":
        fixed = (0, 0, 0)
    else:
        fixed = _parse_triple(args.fixed, "--fixed")
    return cb.MarkingSpec(marked=marked, fixed=fixed)


def _frac_str(x):
    f = Fraction(x)
    return str(f.numerator) if f.denominator == 1 else "%d/%d" % (
        f.numerator, f.denominator)


def _read(path):
    """The JSON object in file `path`, decoded once."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except (OSError, UnicodeDecodeError) as exc:
        raise CliError(EXIT_IO, "cannot read %s: %s" % (path, exc))
    except (ValueError, RecursionError) as exc:
        raise CliError(EXIT_IO, "invalid JSON in %s: %s" % (path, exc))
    if not isinstance(doc, dict):
        raise CliError(EXIT_IO, "corrupted input %s: document is not a JSON "
                       "object" % path)
    return doc


def _write(path, emit, end="\n"):
    """Call `emit(fh)` with `fh` the file `path` open for writing, or with
    standard output, followed by `end`, when no path is given."""
    if not path:
        emit(sys.stdout)
        sys.stdout.write(end)
        return
    try:
        with open(path, "w", encoding="utf-8") as fh:
            emit(fh)
    except OSError as exc:
        raise CliError(EXIT_IO, "cannot write %s: %s" % (path, exc))


def _catalog_seeds(path, doc):
    """The one-level seeds of the catalog `doc` read from `path`."""
    if "incidence" in doc:
        raise CliError(EXIT_PARAMS, "%s: expected a catalog, got a "
                       "complex dump" % path)
    try:
        classes = cb.catalog_from_json(doc)[0]
    except mg.LMGJSONError as exc:
        raise CliError(EXIT_IO, "corrupted catalog %s: %s" % (path, exc))
    if any(len(g.levels) != 1 for g in classes):
        raise CliError(EXIT_PARAMS, "catalog must contain one-level seeds "
                       "only; provide a complex dump instead")
    return classes


def _load_complex_or_catalog(path):
    """Complex from either a complex dump or a catalog of seeds."""
    doc = _read(path)
    if "incidence" not in doc:
        return cb.build_complex(_catalog_seeds(path, doc))
    try:
        return cb.complex_from_json(doc)
    except mg.LMGJSONError as exc:
        raise CliError(EXIT_IO, "corrupted input %s: %s" % (path, exc))


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


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------

def cmd_enumerate(args):
    if args.jobs != 1:
        raise CliError(EXIT_PARAMS, "--jobs must be 1 (enumeration runs in "
                       "one process), got %d" % args.jobs)
    marking = _marking(args, args.p, args.q, args.r)
    classes = cb.enumerate_top_classes(args.p, args.q, args.r, marking)
    _write(args.out, lambda fh: cb.catalog_to_json(
        classes, args.p, args.q, args.r, marking, fh))
    print("classes: %d" % len(classes))
    print("s=1: %d" % len(classes))  # every catalog class has one level
    return 0


def cmd_complex(args):
    K = cb.build_complex(_catalog_seeds(args.input, _read(args.input)))
    cb._report_fields(K)  # an invariant that fails here leaves no file
    _write(args.out, lambda fh: cb.complex_to_json(K, fh))
    print("classes: %d" % len(K.classes))
    print("incidence entries: %d" % len(K.incidence))
    return 0


def cmd_euler(args):
    K = _load_complex_or_catalog(args.input)
    chi = cb.euler_characteristic(K)
    print("formula: %d, independent: %s, %s"
          % (chi.formula, _frac_str(chi.independent),
             "AGREE" if chi.agree else "DISAGREE"))
    if not chi.agree:
        print(chi.note)
    return 0


def cmd_qpoly(args):
    K = _load_complex_or_catalog(args.input)
    betti = None
    if args.betti is not None:
        try:
            betti = [int(x) for x in args.betti.split(",")]
        except ValueError:
            raise CliError(EXIT_PARAMS, "--betti must be comma-separated integers")
    report = cb.morse_smale_report(K, betti)
    print("Q: %s" % " ".join(str(c) for c in report.q_coeffs))
    print("alternating sums: %s" % " ".join(str(c) for c in report.q_alternating))
    b0 = cb.betti0(K)
    print("beta_0 (incidence graph): %d" % b0)
    print("beta_0 <= q_0: %s" % ("ok" if b0 <= report.q_coeffs[0] else "VIOLATED"))
    if report.betti:
        print("betti: %s" % " ".join(str(b) for b in report.betti))
        print("betti <= q: %s" % ("ok" if report.betti_le_q else "VIOLATED"))
        print("alternating inequalities: %s"
              % ("ok" if report.alternating_ok else "VIOLATED"))
        print("zero slots j >= %d: %s"
              % (report.dim_bound, "ok" if report.zero_slots_ok else "VIOLATED"))
    print("note: %s" % report.note)
    return 0


def cmd_dim(args):
    K = _load_complex_or_catalog(args.input)
    print("%d" % cb.complex_dimension(K))
    return 0


def cmd_facelattice(args):
    parts = ph.enumerate_partitions(args.q)
    print("vertices: %d, faces: %d" % (math.factorial(args.q), len(parts)))
    return 0


def cmd_export_dot(args):
    if args.what == "faces":
        if args.q is None:
            raise CliError(EXIT_PARAMS, "--q is required for --what faces")
        text = ph.face_poset_dot(args.q)
    elif args.what == "classes":
        if args.input is None:
            raise CliError(EXIT_PARAMS, "--input is required for --what classes")
        K = _load_complex_or_catalog(args.input)
        text = cb.class_poset_dot(K)
    else:  # "graph", the last of the parser's choices
        if args.input is None:
            raise CliError(EXIT_PARAMS, "--input is required for --what graph")
        classes = _catalog_seeds(args.input, _read(args.input))
        if not (0 <= args.index < len(classes)):
            raise CliError(EXIT_PARAMS, "--index out of range (%d classes)"
                           % len(classes))
        text = to_dot(classes[args.index])
    _write(args.out, lambda fh: fh.write(text), end="")
    return 0


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

def build_parser():
    ap = argparse.ArgumentParser(
        prog="mck",
        description="Leveled Morse graphs on the sphere: catalogs, handle "
                    "complexes, and exact invariant reports.")
    sub = ap.add_subparsers(dest="command", required=True)

    def add_marking(p):
        p.add_argument("--marked", default="all",
                       help="'all' or 'p_hat,q_hat,r_hat' (default all)")
        p.add_argument("--fixed", default="none",
                       help="'none' or 'p_star,q_star,r_star' (default none)")

    pe = sub.add_parser("enumerate", help="enumerate one-level classes")
    pe.add_argument("--p", type=int, required=True)
    pe.add_argument("--q", type=int, required=True)
    pe.add_argument("--r", type=int, required=True)
    add_marking(pe)
    pe.add_argument("--out", help="catalog JSON path (stdout when omitted)")
    pe.add_argument("--jobs", type=int, default=1,
                    help="must be 1: enumeration runs in one process; the "
                         "flag stays so that command lines passing "
                         "'--jobs 1' still run")
    pe.set_defaults(func=cmd_enumerate)

    pc = sub.add_parser("complex", help="downward closure of a seed catalog")
    pc.add_argument("--input", required=True, help="catalog JSON")
    pc.add_argument("--out", help="complex JSON path (stdout when omitted)")
    pc.set_defaults(func=cmd_complex)

    pu = sub.add_parser("euler", help="Euler characteristic, both ways")
    pu.add_argument("--input", required=True, help="catalog or complex JSON")
    pu.set_defaults(func=cmd_euler)

    pq = sub.add_parser("qpoly", help="handle-count polynomial and "
                                      "Morse-Smale table")
    pq.add_argument("--input", required=True, help="catalog or complex JSON")
    pq.add_argument("--betti", help="comma-separated Betti numbers to check")
    pq.set_defaults(func=cmd_qpoly)

    pd = sub.add_parser("dim", help="dimension of the complex")
    pd.add_argument("--input", required=True, help="catalog or complex JSON")
    pd.set_defaults(func=cmd_dim)

    pf = sub.add_parser("facelattice", help="permutohedron census")
    pf.add_argument("--q", type=int, required=True)
    pf.set_defaults(func=cmd_facelattice)

    px = sub.add_parser("export-dot", help="DOT exports")
    px.add_argument("--what", required=True, choices=["faces", "classes", "graph"])
    px.add_argument("--q", type=int)
    px.add_argument("--input")
    px.add_argument("--index", type=int, default=0,
                    help="class index for --what graph")
    px.add_argument("--out")
    px.set_defaults(func=cmd_export_dot)
    return ap


@functools.cache
def _parser():
    """`build_parser()`, built once per process: a parse keeps no state in
    the parser, and each call of `main` would otherwise build the seven
    sub-parsers again."""
    return build_parser()


def main(argv=None):
    args = _parser().parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError as exc:
        # the reader of stdout is gone; point stdout at devnull so that the
        # interpreter's flush at exit does not fail a second time
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        print("error: cannot write standard output: %s" % exc,
              file=sys.stderr)
        return EXIT_IO
    except CliError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return exc.code
    except (cb.ParameterError, cb.ScopeError, ph.OrderBoundError,
            ph.PartitionError, pt.PerturbationError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_PARAMS
    except mg.LMGJSONError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_IO
    except mg.LMGError as exc:
        print("error: invalid input graph: %s" % exc, file=sys.stderr)
        return EXIT_IO
    except mg.InvariantViolation as exc:
        print("invariant violation: %s" % exc, file=sys.stderr)
        return EXIT_INVARIANT


if __name__ == "__main__":
    sys.exit(main())
