"""Check or record the benchmark's expected outputs and stored dumps.

    python3 bench/golden.py           # rebuild everything, compare byte for byte
    python3 bench/golden.py --write   # rewrite expected.json and dumps/

Every catalog the workloads write and every complex they build or reload is
rebuilt from the current code with the catalog order as `enumerate` wrote
it.  The check exits with status 1 when a catalog, a complex dump or a
recorded value differs from what is stored, so a break of the
byte-identical output contract shows here even when the workloads' own
checks (which leave out what depends on the order of the seeds) pass.  It takes
about a minute.
"""

import argparse
import gzip
import json
import sys
import tempfile
from pathlib import Path

import workloads as wl

ROOT = Path(__file__).resolve().parent.parent


def _unique(*groups):
    return tuple(dict.fromkeys(job for group in groups for job in group))


def rebuild(mck, workdir):
    """(expected document, {dump key: dump text}) from the current code."""
    expected = {"catalogs": {}, "complexes": {}}
    dumps = {}
    cb = mck.complex_builder
    complex_jobs = _unique(wl.CLOSURE_JOBS, wl.RELOAD_JOBS)
    for job in _unique(wl.CATALOG_JOBS, complex_jobs):
        key = wl.job_key(job)
        if job in complex_jobs:
            _, (rc_enum, rc_complex, catalog, dump) = wl.ClosureOp(
                mck, job, workdir).run()
        else:
            _, (rc_enum, data) = wl.CatalogOp(mck, job, workdir).run()
            rc_complex, catalog = 0, data.decode("utf-8")
        if (rc_enum, rc_complex) != (0, 0):
            raise RuntimeError("%s: exit codes %d, %d"
                               % (key, rc_enum, rc_complex))
        expected["catalogs"][key] = {
            "classes": len(json.loads(catalog)["classes"]),
            "sha256": wl.sha256(catalog)}
        if job not in complex_jobs:
            continue
        doc = json.loads(dump)
        entry = {"classes": len(doc["classes"]),
                 "incidence": len(doc["incidence"]),
                 "top_count": doc["top_count"], "Q": doc["Q"],
                 "chi": doc["chi"]["formula"],
                 "sha256": wl.sha256(dump),
                 "sha256_order_free": wl.sha256(wl.order_free(dump))}
        if job in wl.RELOAD_JOBS:
            K = cb.complex_from_json(dump)
            if cb.complex_to_json(K) != dump:
                raise RuntimeError("%s: reload round trip differs" % key)
            entry["betti0"] = cb.betti0(K)
            dumps[key] = dump
        expected["complexes"][key] = entry
    return expected, dumps


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--write", action="store_true",
                    help="rewrite expected.json and dumps/ instead of checking")
    args = ap.parse_args(argv)
    mck = wl.import_mck(ROOT)
    work_root = ROOT / ".bench_work"
    work_root.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=work_root) as tmp:
        expected, dumps = rebuild(mck, Path(tmp))
    if args.write:
        wl.EXPECTED_PATH.write_text(
            json.dumps(expected, indent=1, sort_keys=True) + "\n",
            encoding="utf-8")
        wl.DUMPS.mkdir(exist_ok=True)
        for key, text in dumps.items():
            (wl.DUMPS / (key + ".json.gz")).write_bytes(
                gzip.compress(text.encode("utf-8"), 9, mtime=0))
        print("wrote expected.json and %d dumps" % len(dumps))
        return 0
    problems = []
    stored = wl.load_expected()
    for section in ("catalogs", "complexes"):
        for key in sorted(set(stored[section]) | set(expected[section])):
            if stored[section].get(key) != expected[section].get(key):
                problems.append("%s %s: stored %r, rebuilt %r" % (
                    section, key, stored[section].get(key),
                    expected[section].get(key)))
    for job in wl.RELOAD_JOBS:
        key = wl.job_key(job)
        try:
            same = wl.read_dump(job, stored) == dumps[key]
        except (OSError, ValueError) as exc:
            problems.append("dump %s: %s" % (key, exc))
            continue
        if not same:
            problems.append("dump %s: rebuilt bytes differ" % key)
    for line in problems:
        print(line)
    print("golden check: %s (%d catalogs, %d complexes, %d dumps)" % (
        "FAILED" if problems else "ok", len(expected["catalogs"]),
        len(expected["complexes"]), len(dumps)))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
