#!/usr/bin/env python3
"""Compares two benchmark result records, refusing unlike runs.

    python3 perfbench/compare.py BASE.json NEW.json

The records are the result-*.json files perfbench writes next to its
build (.bench_build/run/). Two runs compare only when they ran the same
workload, seed, length and trace mode on the same machine (core count,
CPU model, build type, ALCOP_THREADS) with identical inputs (the
checksum of the generated request list); otherwise this exits 2 and says
which field differs. Otherwise it prints each metric of both runs and
the change as a share of the base.
"""

import json
import sys

SAME = ["workload", "seed", "seconds", "trace", "input_checksum"]


def main(argv):
    if len(argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    with open(argv[1]) as f:
        base = json.load(f)
    with open(argv[2]) as f:
        new = json.load(f)
    refused = [key for key in SAME if base.get(key) != new.get(key)]
    refused += ["machine." + key for key in sorted(set(base["machine"]) | set(new["machine"]))
                if base["machine"].get(key) != new["machine"].get(key)]
    if refused:
        for key in refused:
            print("refused: %s differs" % key, file=sys.stderr)
        return 2
    print("%-32s %14s %14s %9s" % ("metric", "base", "new", "change"))
    for name, metric in base["metrics"].items():
        a = metric["value"]
        b = new["metrics"].get(name, {}).get("value")
        change = "" if not a or b is None else "%+.1f%%" % (100.0 * (b - a) / a)
        print("%-32s %14.6g %14s %9s %s" % (name, a, "-" if b is None else "%.6g" % b,
                                           change, metric["unit"]))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
