#!/usr/bin/env python3
"""Fails when a deterministic BENCH result drifts from its committed JSON.

    python3 bench/check_bench_json.py build BENCH_fig4.json BENCH_ext_dedup.json ...

Each named file is read twice: the committed copy at the repository root and the
fresh copy a bench run wrote into the given directory. The two must have the same
structure; integers, strings and bools must match exactly, and floats must match
within a relative tolerance of 1e-9 (compiler flags such as -march may move the
last digits of a simulated float). Keys listed in REPORT_ONLY are measured on the
real functional plane and move with the build, so a difference there is printed
but does not fail the check. Exits 1 on any other difference or a missing file.
"""
import json
import os
import sys

REL_TOL = 1e-9
REPORT_ONLY = {"worst_restored_kv_error"}

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def compare(committed, fresh, path, drifts, notes):
    if path.rsplit(".", 1)[-1] in REPORT_ONLY:
        if committed != fresh:
            notes.append("%s: %r -> %r (report-only)" % (path, committed, fresh))
        return
    if type(committed) is not type(fresh):
        drifts.append("%s: type %s -> %s" % (path, type(committed).__name__,
                                             type(fresh).__name__))
    elif isinstance(committed, dict):
        if committed.keys() != fresh.keys():
            drifts.append("%s: keys %s -> %s" % (path, sorted(committed), sorted(fresh)))
            return
        for key in committed:
            compare(committed[key], fresh[key], "%s.%s" % (path, key), drifts, notes)
    elif isinstance(committed, list):
        if len(committed) != len(fresh):
            drifts.append("%s: length %d -> %d" % (path, len(committed), len(fresh)))
            return
        for i, (a, b) in enumerate(zip(committed, fresh)):
            compare(a, b, "%s[%d]" % (path, i), drifts, notes)
    elif isinstance(committed, float):
        if abs(committed - fresh) > REL_TOL * max(abs(committed), abs(fresh)):
            drifts.append("%s: %r -> %r" % (path, committed, fresh))
    elif committed != fresh:
        drifts.append("%s: %r -> %r" % (path, committed, fresh))


def main():
    if len(sys.argv) < 3:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    fresh_dir, names = sys.argv[1], sys.argv[2:]
    failed = False
    for name in names:
        try:
            with open(os.path.join(ROOT, name)) as f:
                committed = json.load(f)
            with open(os.path.join(fresh_dir, name)) as f:
                fresh = json.load(f)
        except (OSError, ValueError) as e:
            print("%s: cannot compare: %s" % (name, e))
            failed = True
            continue
        drifts, notes = [], []
        compare(committed, fresh, name, drifts, notes)
        for line in notes:
            print(line)
        for line in drifts:
            print("DRIFT " + line)
        print("%s: %s" % (name, "drifted" if drifts else "matches"))
        failed = failed or bool(drifts)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
