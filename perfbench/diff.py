#!/usr/bin/env python3
"""Per-layer diff of two traced benchmark runs.

    python3 perfbench/diff.py BASE CHANGE

BASE and CHANGE are `<workload>.layers.json` files written by a
`--trace 1` run (run.py prints the directory that holds them), or
directories holding such files; with directories every workload present on
both sides is compared. Counts are compared exactly. Times are shown as
the median and quartiles of their per-simulation samples, with the ratio
of the medians, so a change can show in which layer its saving appears.
"""
import glob
import json
import os
import statistics
import sys


def load(path):
    """Returns {workload: layers} from a layers file or a directory of them."""
    files = ([path] if os.path.isfile(path)
             else sorted(glob.glob(os.path.join(path, "*.layers.json"))))
    out = {}
    for name in files:
        with open(name) as f:
            layers = json.load(f)
        out[layers["workload"]] = layers
    return out


def quartiles(samples):
    if len(samples) < 2:
        return samples[0], samples[0], samples[0]
    q1, q2, q3 = statistics.quantiles(samples, n=4)
    return q1, statistics.median(samples), q3


def fmt_time(samples):
    q1, med, q3 = quartiles(samples)
    return f"{med:.6g} [{q1:.6g}, {q3:.6g}]"


def diff(base, change):
    lines = [f"workload {base['workload']}: seed {base['seed']} vs "
             f"seed {change['seed']}",
             f"  {'count':34} {'base':>18} {'change':>18}  diff"]
    for name in sorted(set(base["counts"]) | set(change["counts"])):
        a = base["counts"].get(name)
        b = change["counts"].get(name)
        mark = "=" if a == b else (f"{b - a:+.17g}" if None not in (a, b)
                                   else "missing")
        lines.append(f"  {name:34} {a!s:>18} {b!s:>18}  {mark}")
    lines.append(f"  {'time: median [q1, q3]':34} {'base':>30} "
                 f"{'change':>30}  change/base")
    for name in sorted(set(base["times"]) | set(change["times"])):
        a = base["times"].get(name)
        b = change["times"].get(name)
        if not a or not b:
            lines.append(f"  {name:34} missing on one side")
            continue
        ma, mb = statistics.median(a), statistics.median(b)
        ratio = f"{mb / ma:.4f}" if ma else "-"
        lines.append(f"  {name:34} {fmt_time(a):>30} {fmt_time(b):>30}  "
                     f"{ratio}")
    return "\n".join(lines)


def main(argv):
    if len(argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    base, change = load(argv[1]), load(argv[2])
    common = sorted(set(base) & set(change))
    if not common:
        print("no workload traced on both sides", file=sys.stderr)
        return 1
    print("\n\n".join(diff(base[w], change[w]) for w in common))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
