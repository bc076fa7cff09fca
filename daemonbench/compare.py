#!/usr/bin/env python3
"""Compares benchmark results of a parent and a change.

Run pairs alternately, then report:

    python3 daemonbench/compare.py run --parent DIR --change DIR \\
        --out pairs.jsonl [--workloads a,b] [--pairs 10] [--first-seed 1]
    python3 daemonbench/compare.py report pairs.jsonl [--benchmark BENCHMARK.json]

`run` runs `python3 daemonbench/run.py` in each checkout (DIR is a checkout
root), once per side per pair, both sides on the pair's seed, alternating
which side runs first, and appends every result line to the JSONL file.
Every run lasts the parent's BENCHMARK.json run_seconds, the length its
bounds were measured at.
Both checkouts should carry the same benchmark code; `run` warns when the
daemonbench directories differ. `--change` may be omitted to measure one
side's own run-to-run spread.

`report` prints, for each workload and end-to-end metric of BENCHMARK.json,
each side's median and quartiles, the change's win fraction and a label:

  failed            a change run was incorrect, or the change failed a
                    larger share of its operations than the parent; no gain
                    counts then;
  improved          the change wins at least 9/10 of the pairs (ties count
                    for neither) and the medians differ by more than the
                    parent's interquartile range;
  worse-than-bound  the change's median is worse than the parent's by more
                    than the metric's bound;
  unresolved        fewer than 10 pairs, or the parent's interquartile
                    range is wider than the bound and not every change run
                    beats every parent run;
  unchanged         otherwise.

It also prints, per workload and side, the incorrect runs and the failed
operations over the attempted ones.
"""

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys


def tree_digest(root):
    digest = hashlib.sha256()
    top = os.path.join(root, "daemonbench")
    for dirpath, dirnames, filenames in os.walk(top):
        dirnames.sort()
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            digest.update(os.path.relpath(path, root).encode())
            with open(path, "rb") as f:
                digest.update(f.read())
    return digest.hexdigest()


def run_one(root, workload, seed, seconds):
    cmd = [sys.executable, "daemonbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=root, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode not in (0, 1) or not lines:
        raise SystemExit(f"{root}: {' '.join(cmd)} exited {proc.returncode}")
    return json.loads(lines[-1])


def cmd_run(args):
    sides = [("parent", args.parent)]
    if args.change:
        sides.append(("change", args.change))
        if tree_digest(args.parent) != tree_digest(args.change):
            print("warning: the two checkouts carry different benchmark code",
                  file=sys.stderr)
    with open(os.path.join(args.parent, "BENCHMARK.json")) as f:
        spec = json.load(f)
    workloads = args.workloads.split(",") if args.workloads else [
        w["name"] for w in spec["workloads"]]
    seconds = spec["run_seconds"]
    with open(args.out, "a") as out:
        for pair in range(args.pairs):
            seed = args.first_seed + pair
            order = sides if pair % 2 == 0 else list(reversed(sides))
            for workload in workloads:
                for side, root in order:
                    result = run_one(root, workload, seed, seconds)
                    row = {"side": side, "pair": pair, "seed": seed,
                           "workload": workload, "result": result}
                    out.write(json.dumps(row) + "\n")
                    out.flush()
                    print(f"pair {pair} {workload} {side}: "
                          + json.dumps(result["metrics"]))


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def failure_share(counts):
    _, failed, attempted = counts
    return failed / attempted if attempted else 1.0


def label(parent, change, better, bound):
    p1, pmed, p3 = quartiles([v for _, v in sorted(parent.items())])
    cmed = statistics.median(change.values())
    sign = 1 if better == "lower" else -1
    common = sorted(set(parent) & set(change))
    wins = sum(1 for k in common if sign * (parent[k] - change[k]) > 0)
    win_fraction = wins / len(common) if common else 0.0
    worse_by = sign * (cmed - pmed) / pmed if pmed else 0.0
    spread = (p3 - p1) / abs(pmed) if pmed else 0.0
    all_better = all(sign * (p - c) > 0 for p in parent.values()
                     for c in change.values())
    if len(common) >= 10 and win_fraction >= 0.9 and \
            sign * (pmed - cmed) > (p3 - p1):
        verdict = "improved"
    elif worse_by > bound:
        verdict = "worse-than-bound"
    elif len(common) < 10 or (spread > bound and not all_better):
        verdict = "unresolved"
    else:
        verdict = "unchanged"
    return verdict, win_fraction, worse_by


def cmd_report(args):
    with open(args.benchmark) as f:
        spec = json.load(f)
    table = {}
    failures = {}  # (workload, side) -> [incorrect runs, failed, attempted]
    with open(args.results) as f:
        for line in f:
            row = json.loads(line)
            counts = failures.setdefault((row["workload"], row["side"]), [0, 0, 0])
            counts[0] += 0 if row["result"]["correct"] else 1
            counts[1] += row["result"]["failed"]
            counts[2] += row["result"]["attempted"]
            for name, m in row["result"]["metrics"].items():
                key = (row["workload"], name)
                table.setdefault(key, {}).setdefault(row["side"], {})[row["pair"]] = m["value"]
    print(f"{'workload':<12} {'metric':<14} {'side':<7} {'n':>3} {'q1':>12} "
          f"{'median':>12} {'q3':>12} {'spread':>7}  verdict")
    for (workload, name), sides in sorted(table.items()):
        m = next((m for m in spec["end_to_end"] if m["name"] == name), None)
        if m is None:
            continue
        for side in ("parent", "change"):
            if side not in sides:
                continue
            values = list(sides[side].values())
            q1, med, q3 = quartiles(values)
            spread = (q3 - q1) / abs(med) if med else 0.0
            verdict = ""
            if side == "change" and "parent" in sides:
                v, wins, worse = label(sides["parent"], sides["change"],
                                       m["better"], m["bound"])
                pf = failures[(workload, "parent")]
                cf = failures[(workload, "change")]
                if cf[0] > 0 or failure_share(cf) > failure_share(pf):
                    v = "failed"
                verdict = (f"{v} (wins {wins:.2f}, worse by {worse:+.3f}, "
                           f"bound {m['bound']})")
            elif side == "parent" and "change" not in sides:
                verdict = ("spread within bound/3" if spread < m["bound"] / 3
                           else f"spread above bound/3 ({m['bound'] / 3:.3f})")
            print(f"{workload:<12} {name:<14} {side:<7} {len(values):>3} "
                  f"{q1:>12.4g} {med:>12.4g} {q3:>12.4g} {spread:>7.3f}  {verdict}")
    print()
    for (workload, side), (incorrect, failed, attempted) in sorted(failures.items()):
        print(f"{workload:<12} {side:<7} incorrect runs {incorrect}, "
              f"failed {failed}/{attempted} operations")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    run = sub.add_parser("run")
    run.add_argument("--parent", required=True)
    run.add_argument("--change")
    run.add_argument("--out", required=True)
    run.add_argument("--workloads")
    run.add_argument("--pairs", type=int, default=10)
    run.add_argument("--first-seed", type=int, default=1)
    report = sub.add_parser("report")
    report.add_argument("results")
    report.add_argument("--benchmark", default="BENCHMARK.json")
    args = parser.parse_args()
    if args.command == "run":
        cmd_run(args)
    else:
        cmd_report(args)


if __name__ == "__main__":
    main()
