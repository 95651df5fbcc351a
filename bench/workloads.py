"""The benchmark's workloads: operations, their inputs and their checks.

An operation is one catalog (`mck enumerate`), one complex build (`mck
complex`) or one dump reload.  `Op.run` times only the calls into mck and
returns ([(start, end)], output); `Op.check` returns a list of problems found in
that output, compared against the values recorded in expected.json.  The
seed only permutes input order; every workload is exhaustive.
"""

import contextlib
import gzip
import hashlib
import importlib
import io
import json
import random
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
DUMPS = HERE / "dumps"
EXPECTED_PATH = HERE / "expected.json"

Q3_SPLITS = ((4, 1), (3, 2), (2, 3), (1, 4))

# (p, q, r, --marked).  Every q <= 2 split, the q = 3 (4, 1) split all
# marked, and the q = 3 (3, 2) split with the partial markings whose
# unmarked labels are a correctness hazard for closure over covers.
CLOSURE_JOBS = (
    (2, 1, 1, "all"), (1, 1, 2, "all"),
    (3, 2, 1, "all"), (2, 2, 2, "all"), (1, 2, 3, "all"),
    (4, 3, 1, "all"), (3, 3, 2, "1,1,1"), (3, 3, 2, "0,3,0"),
)
# Every q = 3 split with all points marked, extrema only, one point of
# each index, and saddles only.
CATALOG_JOBS = tuple(
    (p, 3, r, marked) for p, r in Q3_SPLITS
    for marked in ("all", "%d,0,%d" % (p, r), "1,1,1", "0,3,0"))
RELOAD_JOBS = ((4, 3, 1, "all"), (3, 3, 2, "all"),
               (3, 3, 2, "1,1,1"), (3, 3, 2, "0,3,0"))

WORKLOADS = ("closure_sweep", "catalog_markings", "report_reload")


def import_mck(root):
    """Import mck from `root`/src and nowhere else; ImportError otherwise."""
    src = Path(root).resolve() / "src"
    sys.path.insert(0, str(src))
    try:
        mck = importlib.import_module("mck")
        importlib.import_module("mck.cli")
    finally:
        sys.path.remove(str(src))
    if src not in Path(mck.__file__).resolve().parents:
        raise ImportError("mck was imported from %s, not from %s"
                          % (mck.__file__, src))
    return mck


def job_key(job):
    p, q, r, marked = job
    return "%d-%d-%d-%s" % (p, q, r, marked.replace(",", "."))


def sha256(data):
    if isinstance(data, str):
        data = data.encode("utf-8")
    return hashlib.sha256(data).hexdigest()


def order_free(text):
    """Complex dump without the parts that depend on the order of the seeds.

    `build_complex` keeps, for each multi-level class, the representative
    it met first, so the stored `lmg` depends on the order of the seeds; with
    unmarked saddles the labels of the incidence faces, which are read off
    that representative, do too (see README.md).  This drops `lmg` and, when
    some saddle is unmarked, keeps only the block sizes of each face.
    """
    doc = json.loads(text)
    for entry in doc["classes"]:
        del entry["lmg"]
    if doc["params"]["marked"][1] < doc["params"]["q"]:
        doc["incidence"] = sorted([src, [len(b) for b in face], dst]
                                  for src, face, dst in doc["incidence"])
    return json.dumps(doc, separators=(",", ":"), sort_keys=True)


def load_expected():
    return json.loads(EXPECTED_PATH.read_text(encoding="utf-8"))


def read_dump(job, expected):
    """Stored complex dump text, checked against its recorded sha256."""
    key = job_key(job)
    text = gzip.decompress((DUMPS / (key + ".json.gz")).read_bytes())
    if sha256(text) != expected["complexes"][key]["sha256"]:
        raise ValueError("stored dump %s does not match its sha256" % key)
    return text.decode("utf-8")


@contextlib.contextmanager
def _quiet():
    with contextlib.redirect_stdout(io.StringIO()):
        yield


def _enumerate_argv(job, out):
    p, q, r, marked = job
    return ["enumerate", "--p", str(p), "--q", str(q), "--r", str(r),
            "--marked", marked, "--jobs", "1", "--out", str(out)]


def _check_complex(errors, job, text, exp):
    """Counts, Q, chi, dim and rank of a complex dump."""
    q = job[1]
    doc = json.loads(text)
    chi = doc["chi"]
    got = {"classes": len(doc["classes"]), "incidence": len(doc["incidence"]),
           "top_count": doc["top_count"], "Q": doc["Q"],
           "chi": chi["formula"]}
    for field, value in got.items():
        if value != exp[field]:
            errors.append("%s: %s %r != expected %r"
                          % (job_key(job), field, value, exp[field]))
    if not chi["agree"] or chi["independent"] != [chi["formula"], 1]:
        errors.append("%s: chi does not agree: %r" % (job_key(job), chi))
    if doc["dim"] != (3 * q - 2 if q > 1 else 0):
        errors.append("%s: dim %d" % (job_key(job), doc["dim"]))
    if doc["rank"] != q - 1:
        errors.append("%s: rank %d" % (job_key(job), doc["rank"]))
    return doc


class ClosureOp:
    """`mck enumerate --out` then `mck complex --input --out`, in process.

    With a seed, the class order of the catalog file is permuted before
    `complex` reads it; without one the catalog is read as written.
    """

    def __init__(self, mck, job, workdir, seed=None):
        self.mck, self.job, self.key = mck, job, job_key(job)
        self.catalog = workdir / ("catalog-%s.json" % self.key)
        self.dump = workdir / ("complex-%s.json" % self.key)
        self.order_seed = None if seed is None else "%s:%s" % (seed, self.key)

    def run(self):
        cli = self.mck.cli
        with _quiet():
            t0 = perf_counter()
            rc_enum = cli.main(_enumerate_argv(self.job, self.catalog))
            t1 = perf_counter()
        catalog = self.catalog.read_text(encoding="utf-8")
        if self.order_seed is not None:
            doc = json.loads(catalog)
            random.Random(self.order_seed).shuffle(doc["classes"])
            self.catalog.write_text(
                json.dumps(doc, separators=(",", ":"), sort_keys=True),
                encoding="utf-8")
        with _quiet():
            t2 = perf_counter()
            rc_complex = cli.main(["complex", "--input", str(self.catalog),
                                   "--out", str(self.dump)])
            t3 = perf_counter()
        dump = self.dump.read_text(encoding="utf-8")
        return [(t0, t1), (t2, t3)], (rc_enum, rc_complex, catalog, dump)

    def check(self, out, expected):
        rc_enum, rc_complex, catalog, dump = out
        if (rc_enum, rc_complex) != (0, 0):
            return ["%s: exit codes %d, %d" % (self.key, rc_enum, rc_complex)]
        errors = []
        exp_cat = expected["catalogs"][self.key]
        if sha256(catalog) != exp_cat["sha256"]:
            errors.append("%s: catalog sha256 differs" % self.key)
        exp = expected["complexes"][self.key]
        doc = _check_complex(errors, self.job, dump, exp)
        if sha256(order_free(dump)) != exp["sha256_order_free"]:
            errors.append("%s: complex sha256 (order-free part) differs"
                          % self.key)
        mg = self.mck.morse_graph
        for entry in doc["classes"]:
            g = mg.from_json(json.dumps(entry["lmg"]))
            if mg.canonical_form(g).decode("ascii") != entry["canonical"]:
                errors.append("%s: lmg of %s is not its canonical class"
                              % (self.key, entry["id"]))
        return errors


class CatalogOp:
    """`mck enumerate --out`, in process."""

    def __init__(self, mck, job, workdir):
        self.mck, self.job, self.key = mck, job, job_key(job)
        self.catalog = workdir / ("catalog-%s.json" % self.key)

    def run(self):
        with _quiet():
            t0 = perf_counter()
            rc = self.mck.cli.main(_enumerate_argv(self.job, self.catalog))
            t1 = perf_counter()
        return [(t0, t1)], (rc, self.catalog.read_bytes())

    def check(self, out, expected):
        rc, data = out
        if rc != 0:
            return ["%s: exit code %d" % (self.key, rc)]
        exp = expected["catalogs"][self.key]
        errors = []
        if sha256(data) != exp["sha256"]:
            errors.append("%s: catalog sha256 differs" % self.key)
        if len(json.loads(data)["classes"]) != exp["classes"]:
            errors.append("%s: class count differs" % self.key)
        return errors


class ReloadOp:
    """`complex_from_json` on a stored dump whose classes and incidence
    entries are shuffled, then the reports `mck euler/qpoly/dim` print and
    a `complex_to_json` round trip."""

    def __init__(self, mck, job, expected, seed):
        self.mck, self.job, self.key = mck, job, job_key(job)
        doc = json.loads(read_dump(job, expected))
        rng = random.Random("%s:%s" % (seed, self.key))
        rng.shuffle(doc["classes"])
        rng.shuffle(doc["incidence"])
        self.text = json.dumps(doc)

    def run(self):
        cb = self.mck.complex_builder
        t0 = perf_counter()
        K = cb.complex_from_json(self.text)
        chi = cb.euler_characteristic(K)
        report = cb.morse_smale_report(K)
        b0 = cb.betti0(K)
        dim = cb.complex_dimension(K)
        dump = cb.complex_to_json(K)
        t1 = perf_counter()
        return [(t0, t1)], (chi, list(report.q_coeffs), b0, dim, dump)

    def check(self, out, expected):
        chi, q_coeffs, b0, dim, dump = out
        exp = expected["complexes"][self.key]
        errors = []
        if sha256(dump) != exp["sha256"]:
            errors.append("%s: round trip is not byte-identical" % self.key)
        doc = _check_complex(errors, self.job, dump, exp)
        if (chi.formula, q_coeffs, b0, dim) != (
                exp["chi"], exp["Q"], exp["betti0"], doc["dim"]):
            errors.append("%s: reports %r differ from the dump"
                          % (self.key, (chi.formula, q_coeffs, b0, dim)))
        if not chi.agree:
            errors.append("%s: chi does not agree" % self.key)
        return errors


def prepare(mck, name, seed, workdir, expected):
    """The operations of one pass of workload `name`, in seed order."""
    rng = random.Random("%s:%s" % (name, seed))
    if name == "closure_sweep":
        ops = [ClosureOp(mck, job, workdir, seed) for job in CLOSURE_JOBS]
    elif name == "catalog_markings":
        ops = [CatalogOp(mck, job, workdir) for job in CATALOG_JOBS]
    elif name == "report_reload":
        ops = [ReloadOp(mck, job, expected, seed) for job in RELOAD_JOBS]
    else:
        raise ValueError("unknown workload %r" % name)
    rng.shuffle(ops)
    return ops


def class_count(name, expected):
    """Input size of one pass: classes produced or reloaded."""
    if name == "catalog_markings":
        return sum(expected["catalogs"][job_key(j)]["classes"]
                   for j in CATALOG_JOBS)
    jobs = CLOSURE_JOBS if name == "closure_sweep" else RELOAD_JOBS
    return sum(expected["complexes"][job_key(j)]["classes"] for j in jobs)
