#!/usr/bin/env python3
"""Paired perfbench comparison of a parent revision against the working tree.

Builds perfbench twice -- once from a `git worktree` checkout of the parent
revision, once from the working tree -- into separate CARGO_TARGET_DIRs,
then runs N alternating pairs of one workload (pair i uses seed
SEED_BASE + i; even pairs run the parent first, odd pairs the change
first, so slow host drift hits both sides alike). It prints one row per
pair, each side's median and quartiles, how many pairs the change won,
and whether the median gain exceeds the parent's own quartile distance.
A gain is claimed only when both hold: the change wins at least 9 of 10
pairs and the median moves by more than the parent's interquartile
range.

Runs whose `host:` lines differ are never compared: the tool stops with
exit 2 when any run reports a different host fingerprint.

usage: python3 tools/perf_pairs.py --workload NAME [--parent REV]
           [--pairs N] [--seconds S] [--seed-base B] [--metric NAME]
           [--work-dir DIR]

Run from anywhere inside the repository. The work directory (default
.bench_build/perf_pairs) holds the parent worktree and both build trees;
later calls reuse them and only rebuild what changed.

Exit codes: 0 report printed (whatever the verdict), 2 bad usage, build
failure or differing hosts, 3 a run failed or reported incorrect output.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WIN_SHARE = 0.9  # the change must win at least this share of the pairs


def quantile(values, q):
    """Linear-interpolation quantile (numpy's default) of a non-empty list."""
    ordered = sorted(values)
    pos = (len(ordered) - 1) * q
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def summary(values):
    """(first quartile, median, third quartile) of a non-empty list."""
    return quantile(values, 0.25), quantile(values, 0.5), quantile(values, 0.75)


def improved(parent, change, better):
    """True when `change` beats `parent` in direction `better`."""
    return change > parent if better == "higher" else change < parent


def verdict(pairs, better):
    """Summarises [(parent, change), ...] for a metric whose `better` is
    "higher" or "lower": a dict with both sides' quartiles, the win count,
    the median gain in the better direction, the parent's quartile
    distance, and whether the gain is claimed (wins >= 90% of pairs and
    gain > the parent's quartile distance)."""
    parents = [p for p, _ in pairs]
    changes = [c for _, c in pairs]
    p_q1, p_med, p_q3 = summary(parents)
    c_q1, c_med, c_q3 = summary(changes)
    wins = sum(1 for p, c in pairs if improved(p, c, better))
    gain = c_med - p_med if better == "higher" else p_med - c_med
    spread = p_q3 - p_q1
    return {
        "parent": (p_q1, p_med, p_q3),
        "change": (c_q1, c_med, c_q3),
        "wins": wins,
        "pairs": len(pairs),
        "gain": gain,
        "parent_iqr": spread,
        "claimed": wins >= WIN_SHARE * len(pairs) and gain > spread,
    }


def parse_run(stdout):
    """(host line, result dict) from perfbench's stdout; the host line is
    None when absent. The last line is the JSON result."""
    lines = stdout.rstrip("\n").split("\n")
    host = next((line for line in lines if line.startswith("host:")), None)
    return host, json.loads(lines[-1])


def metric_direction(metric):
    """"higher"/"lower" for an end-to-end metric BENCHMARK.json declares
    (the runs are untraced, so per-layer metrics are absent), else None."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for entry in spec.get("end_to_end", []):
        if entry["name"] == metric:
            return entry["better"]
    return None


def git(*args, cwd=ROOT):
    return subprocess.run(["git", *args], cwd=cwd, check=True, text=True,
                          stdout=subprocess.PIPE).stdout.strip()


def checkout_parent(rev, where):
    """A detached worktree of `rev` at `where`, reused when already there."""
    sha = git("rev-parse", "--verify", rev + "^{commit}")
    if (where / ".git").exists():
        git("checkout", "--quiet", "--detach", sha, cwd=where)
    else:
        git("worktree", "prune")
        git("worktree", "add", "--quiet", "--detach", str(where), sha)
    return sha


def build(src, target):
    """Configures (once) and builds perfbench from checkout `src` into
    `target`/perfbench the way perfbench/run.py does; False on failure."""
    bdir = target / "perfbench"
    steps = []
    if not (bdir / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(src / "perfbench"), "-B", str(bdir),
                      "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps.append(["cmake", "--build", str(bdir), "-j", jobs])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, check=False).returncode:
            print(f"perf_pairs: build step failed: {' '.join(step)}",
                  file=sys.stderr)
            return False
    return True


def run_side(src, target, workload, seed, seconds):
    """One perfbench run from checkout `src` built into `target`; returns
    (host line, result) or raises RuntimeError."""
    env = dict(os.environ, CARGO_TARGET_DIR=str(target))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=src, env=env, stdout=subprocess.PIPE, text=True, check=False)
    if done.returncode != 0:
        raise RuntimeError(f"perfbench in {src} exited {done.returncode}")
    host, result = parse_run(done.stdout)
    if not result.get("correct"):
        raise RuntimeError(f"perfbench in {src} reported incorrect output")
    return host, result


def format_row(seed, parent, change):
    ratio = change / parent if parent else float("nan")
    return f"{seed:>6}  {parent:>14.6g}  {change:>14.6g}  {ratio:>7.3f}x"


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--parent", default="HEAD",
                        help="parent revision (default HEAD)")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--seed-base", type=int, default=201)
    parser.add_argument("--metric", default="tx_per_s")
    parser.add_argument("--work-dir", default=".bench_build/perf_pairs")
    args = parser.parse_args(argv)

    better = metric_direction(args.metric)
    if better is None or args.pairs < 1:
        print(f"perf_pairs: unknown metric {args.metric!r} or no pairs",
              file=sys.stderr)
        return 2
    work = Path(args.work_dir)
    if not work.is_absolute():
        work = ROOT / work
    work.mkdir(parents=True, exist_ok=True)
    try:
        sha = checkout_parent(args.parent, work / "parent-src")
    except subprocess.CalledProcessError as err:
        print(f"perf_pairs: cannot check out {args.parent}: {err}",
              file=sys.stderr)
        return 2
    sides = {"parent": (work / "parent-src", work / "parent"),
             "change": (ROOT, work / "change")}
    if not all(build(src, target) for src, target in sides.values()):
        return 2
    print(f"perf_pairs: {args.workload} {args.metric} ({better} is better), "
          f"parent {sha[:12]} vs working tree, {args.pairs} pairs x "
          f"{args.seconds} s")

    pairs, hosts = [], set()
    print(f"{'seed':>6}  {'parent':>14}  {'change':>14}  {'ratio':>8}")
    for i in range(args.pairs):
        seed = args.seed_base + i
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        values = {}
        for side in order:
            src, target = sides[side]
            try:
                host, result = run_side(src, target, args.workload, seed,
                                        args.seconds)
            except (RuntimeError, ValueError) as err:
                print(f"perf_pairs: {side} seed {seed}: {err}",
                      file=sys.stderr)
                return 3
            hosts.add(host)
            if len(hosts) > 1:
                print(f"perf_pairs: host lines differ, refusing to compare: "
                      f"{sorted(map(str, hosts))}", file=sys.stderr)
                return 2
            values[side] = result["metrics"][args.metric]["value"]
        pairs.append((values["parent"], values["change"]))
        print(format_row(seed, values["parent"], values["change"]),
              flush=True)

    v = verdict(pairs, better)
    for side in ("parent", "change"):
        q1, med, q3 = v[side]
        print(f"{side}: median {med:.6g}, quartiles {q1:.6g}-{q3:.6g}")
    print(f"change won {v['wins']}/{v['pairs']} pairs; median gain "
          f"{v['gain']:.6g} vs parent quartile distance "
          f"{v['parent_iqr']:.6g}")
    print("verdict: gain " + ("claimed" if v["claimed"] else "not shown"))
    return 0


if __name__ == "__main__":
    sys.exit(main())
