#!/usr/bin/env python3
"""Alternating A/B runs of the repository benchmark between two commits.

Usage, from the repository root:

    python3 tools/ab_pairs.py --base HEAD~1 --change HEAD \\
        --workloads cold_csv explore_tradeoff --seeds 901 902 903 \\
        --seconds 40 --scratch /tmp/ab

Each commit is exported with `git archive` into its own tree under
--scratch (reused when it already exists), so neither run sees the working
directory. Every tree first builds through one short discarded run. Then,
per workload and per seed, the base tree and the change tree run
`benchmark/run.py` untraced and back to back, one pair per seed, with the
side that runs first alternating from pair to pair (base first on the first
pair).

For each workload and each end-to-end metric of BENCHMARK.json, the report
prints both medians, both interquartile ranges, the change's win count over
the pairs, the relative move of the medians (positive = worse, whichever way
the metric is better) against the metric's bound, each run's `correct` flag
and `failed` count, and the seeds. It names a gain only with at least 10
pairs of distinct seeds, every run correct, no change run failing more
operations than its paired base run (nor the change side more in total),
wins in at least 9 of 10 pairs, and a median better by more than the base's
interquartile range; fewer pairs can only show whether a metric stayed
within its bound.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
MIN_GAIN_PAIRS = 10
MIN_WIN_SHARE = 0.9


def fail(message):
    print("tools/ab_pairs.py: " + message, file=sys.stderr)
    sys.exit(2)


def resolve(commit):
    out = subprocess.run(
        ["git", "-C", ROOT, "rev-parse", "--verify", commit + "^{commit}"],
        capture_output=True,
        text=True,
    )
    if out.returncode != 0:
        fail("not a commit: " + commit)
    return out.stdout.strip()


def export(sha, scratch):
    """The commit's files in scratch/ab_<sha12>, exported once."""
    tree = os.path.join(scratch, "ab_" + sha[:12])
    if os.path.isfile(os.path.join(tree, "benchmark", "run.py")):
        return tree
    os.makedirs(tree, exist_ok=True)
    archive = subprocess.Popen(
        ["git", "-C", ROOT, "archive", sha], stdout=subprocess.PIPE
    )
    untar = subprocess.run(["tar", "-x", "-C", tree], stdin=archive.stdout)
    archive.stdout.close()
    if archive.wait() != 0 or untar.returncode != 0:
        fail("could not export " + sha)
    return tree


def run(tree, workload, seed, seconds):
    """One untraced benchmark run; its JSON result, or None when it printed
    none."""
    out = subprocess.run(
        [
            sys.executable,
            os.path.join(tree, "benchmark", "run.py"),
            "--workload", workload,
            "--seed", str(seed),
            "--seconds", repr(seconds),
            "--trace", "0",
        ],
        cwd=tree,
        stdout=subprocess.PIPE,
        text=True,
    )
    lines = [line for line in out.stdout.splitlines() if line.strip()]
    if not lines:
        return None
    try:
        return json.loads(lines[-1])
    except ValueError:
        return None


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4, method="inclusive")
    return q[0], q[2]


def metric_value(result, name):
    if result is None:
        return None
    entry = result.get("metrics", {}).get(name)
    return None if entry is None else entry.get("value")


def failed_count(result):
    """The run's failed operations; None when it reported no count."""
    failed = result.get("failed")
    return failed if isinstance(failed, (int, float)) else None


def report(workload, seeds, pairs, metrics):
    print("\n== %s: %d pairs, seeds %s" % (workload, len(pairs), seeds))
    # A repeated seed is a replaced pair, not a new one.
    all_correct = len(set(seeds)) == len(seeds)
    more_failed = False
    failed_totals = {"base": 0, "change": 0}
    for seed, (base, change) in zip(seeds, pairs):
        flags, failed = [], {}
        for label, result in (("base", base), ("change", change)):
            if result is None:
                flags.append("%s: no result" % label)
                all_correct = False
                continue
            correct = bool(result.get("correct"))
            all_correct = all_correct and correct
            failed[label] = failed_count(result)
            if failed[label] is None:
                all_correct = False
            else:
                failed_totals[label] += failed[label]
            flags.append(
                "%s: correct=%s failed=%s"
                % (label, str(correct).lower(), result.get("failed"))
            )
        if None not in (failed.get("base"), failed.get("change")) and (
            failed["change"] > failed["base"]
        ):
            more_failed = True
            flags.append("CHANGE FAILS MORE")
        print("  seed %-6d %s" % (seed, "  ".join(flags)))
    if failed_totals["change"] > failed_totals["base"]:
        more_failed = True
    print(
        "  failed operations: base %g, change %g"
        % (failed_totals["base"], failed_totals["change"])
    )
    print(
        "  %-22s %11s %11s %11s %11s %6s %8s  %s"
        % ("metric", "base med", "change med", "base IQR", "change IQR",
           "wins", "move", "verdict")
    )
    for name, better, bound in metrics:
        base_values, change_values, wins = [], [], 0
        for base, change in pairs:
            b, c = metric_value(base, name), metric_value(change, name)
            if b is None or c is None:
                continue
            base_values.append(b)
            change_values.append(c)
            if (c < b) if better == "lower" else (c > b):
                wins += 1
        if not base_values:
            print("  %-22s (not reported)" % name)
            continue
        base_med = statistics.median(base_values)
        change_med = statistics.median(change_values)
        base_q1, base_q3 = quartiles(base_values)
        change_q1, change_q3 = quartiles(change_values)
        # Signed so that a positive move is always a gain.
        gain = (base_med - change_med) if better == "lower" else (change_med - base_med)
        move = -gain / base_med if base_med != 0 else 0.0
        n = len(base_values)
        if (
            n >= MIN_GAIN_PAIRS
            and all_correct
            and not more_failed
            and wins >= MIN_WIN_SHARE * n
            and gain > base_q3 - base_q1
        ):
            verdict = "gain"
        elif bound is not None and move > bound:
            verdict = "REGRESSION (bound %g)" % bound
        elif bound is not None:
            verdict = "within bound %g" % bound
        else:
            verdict = "-"
        if not all_correct:
            verdict += ", incorrect or repeated runs"
        if more_failed:
            verdict += ", change fails more operations"
        print(
            "  %-22s %11.5g %11.5g %11.5g %11.5g %3d/%-2d %+7.1f%%  %s"
            % (name, base_med, change_med, base_q3 - base_q1,
               change_q3 - change_q1, wins, n, 100.0 * move, verdict)
        )


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", required=True, help="the parent commit")
    parser.add_argument("--change", required=True, help="the commit under test")
    parser.add_argument("--workloads", required=True, nargs="+")
    parser.add_argument("--seeds", required=True, nargs="+", type=int)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--scratch", required=True,
                        help="directory for the exported trees and their builds")
    args = parser.parse_args()

    base_tree = export(resolve(args.base), args.scratch)
    change_tree = export(resolve(args.change), args.scratch)
    with open(os.path.join(change_tree, "BENCHMARK.json")) as f:
        declared = json.load(f)
    metrics = [(m["name"], m["better"], m.get("bound"))
               for m in declared.get("end_to_end", [])]

    # One short discarded run per tree builds it, so no timed run pays the
    # build.
    for tree in (base_tree, change_tree):
        run(tree, args.workloads[0], 0, 1.0)

    for workload in args.workloads:
        pairs = []
        for i, seed in enumerate(args.seeds):
            if i % 2 == 0:
                base = run(base_tree, workload, seed, args.seconds)
                change = run(change_tree, workload, seed, args.seconds)
            else:
                change = run(change_tree, workload, seed, args.seconds)
                base = run(base_tree, workload, seed, args.seconds)
            pairs.append((base, change))
            print("  %s seed %d done" % (workload, seed), file=sys.stderr)
        report(workload, args.seeds, pairs, metrics)


if __name__ == "__main__":
    main()
