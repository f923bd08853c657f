#!/usr/bin/env python3
"""Compare two measurement ledgers arm by arm.

Usage: python3 bench/delta.py COMMITTED NEW

Both files are ledgers as bench/main.exe and bench/micro.exe write them:
{"experiment", "config", "metrics"}, each row of "metrics" being
{"arm": {<keys>}, <raw measurements>}.  For every arm present in both
files the script prints each number that changed with its relative
change, and every other field that changed (a digest, a recovery list, a
degradation).  Arms present in only one file are counted, not listed
one by one.  Changes beyond 25 % are flagged.  The comparison is
advisory: the exit status is 0 unless a file is not a ledger of the same
experiment as the other.
"""

import json
import sys

FLAG = 25.0


def load(path):
    with open(path) as f:
        d = json.load(f)
    if set(d) != {"experiment", "config", "metrics"}:
        sys.exit(f"delta: {path}: not a ledger (expected experiment, config, metrics)")
    rows = {}
    for row in d["metrics"]:
        key = json.dumps(row["arm"], sort_keys=True)
        rows[key] = {k: v for k, v in row.items() if k != "arm"}
    return d["experiment"], rows


def is_number(v):
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def main(argv):
    if len(argv) != 3:
        sys.exit("usage: delta.py COMMITTED NEW")
    old_name, old = load(argv[1])
    new_name, new = load(argv[2])
    if old_name != new_name:
        sys.exit(f"delta: {argv[1]} holds {old_name}, {argv[2]} holds {new_name}")
    changed = 0
    for key in sorted(set(old) & set(new)):
        a, b = old[key], new[key]
        for field in sorted(set(a) | set(b)):
            va, vb = a.get(field), b.get(field)
            if va == vb:
                continue
            changed += 1
            if is_number(va) and is_number(vb):
                delta = 100.0 * (vb / va - 1.0) if va else float("inf")
                flag = "   << changed by more than 25 %" if abs(delta) > FLAG else ""
                print(f"{key} {field}: {vb} vs {va} ({delta:+.1f}%){flag}")
            else:
                print(f"{key} {field}: {json.dumps(vb)} vs {json.dumps(va)}")
    only_old, only_new = len(set(old) - set(new)), len(set(new) - set(old))
    print(
        f"{new_name}: {len(set(old) & set(new))} arms compared, {changed} fields changed; "
        f"{only_old} arms only in {argv[1]}, {only_new} only in {argv[2]}"
    )


if __name__ == "__main__":
    main(sys.argv)
