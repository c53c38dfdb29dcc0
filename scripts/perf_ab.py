#!/usr/bin/env python3
"""A/B the served-path benchmark: a base revision against the working tree.

    scripts/perf_ab.py --base REV [--pairs N] [--seconds S] [--workload W ...]

Builds `perfbench/` twice — the base revision's (its committed files,
unpacked by `git archive` into `.bench_out/base-<sha>/`) and the working
tree's — then runs, for each workload, N pairs of `--seconds S` runs,
alternating which binary goes first, with both runs of pair i on seed i + 1.
Every run is one `perfbench --workload W --seed i+1 --seconds S --trace 0`
process; its last stdout line is the JSON result.

For every end-to-end metric `BENCHMARK.json` declares, it prints the base
and head medians with their interquartile ranges, the head/base ratio of
the medians, and the pairs the head won (by the metric's `better`
direction). A metric whose base-side IQR / median exceeds its `bound` is
marked `(!)`: its spread alone exceeds the change the bound allows, so
the A/B cannot resolve it. A run that reports `correct: false` or fails is counted and
shown; its metrics are left out. `--json FILE` also writes every run.

Exit status: 0 when every run was correct, 1 otherwise, 2 on bad usage or a
failed build.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
OUT = os.path.join(ROOT, ".bench_out")
BINARY = os.path.join("perfbench", "target", "release", "swsample-perfbench")


def run(cmd, **kw):
    return subprocess.run(cmd, check=True, **kw)


def build(tree):
    """Build `tree`'s perfbench in release mode; return the binary path."""
    run(
        ["cargo", "build", "--quiet", "--release", "--offline",
         "--manifest-path", os.path.join(tree, "perfbench", "Cargo.toml")],
        cwd=tree,
    )
    return os.path.join(tree, BINARY)


def base_tree(rev):
    """Unpack `rev`'s committed files into `.bench_out/base-<sha>/`."""
    sha = run(["git", "rev-parse", "--verify", rev + "^{commit}"], cwd=ROOT,
              capture_output=True, text=True).stdout.strip()
    tree = os.path.join(OUT, "base-" + sha[:12])
    if not os.path.isdir(tree):
        os.makedirs(OUT, exist_ok=True)
        partial = tree + ".partial"
        shutil.rmtree(partial, ignore_errors=True)
        os.makedirs(partial)
        archive = subprocess.Popen(["git", "archive", sha], cwd=ROOT,
                                   stdout=subprocess.PIPE)
        run(["tar", "-x", "-C", partial], stdin=archive.stdout)
        if archive.wait() != 0:
            raise subprocess.CalledProcessError(archive.returncode, "git archive")
        os.rename(partial, tree)
    return sha, tree


def measure(binary, workload, seed, seconds):
    """One perfbench run: its metrics, or None if it failed or was wrong."""
    proc = subprocess.run(
        [binary, "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr)
        return None
    result = json.loads(lines[-1])
    if not result.get("correct"):
        return None
    return {name: m["value"] for name, m in result["metrics"].items()}


def quartiles(values):
    """(q1, median, q3), by linear interpolation between order statistics."""
    v = sorted(values)

    def at(q):
        pos = q * (len(v) - 1)
        lo = int(pos)
        hi = min(lo + 1, len(v) - 1)
        return v[lo] + (v[hi] - v[lo]) * (pos - lo)

    return at(0.25), at(0.5), at(0.75)


def fmt(x):
    return f"{x:.4g}"


def main():
    spec = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))
    names = [w["name"] for w in spec["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--base", required=True, help="base revision (any git rev)")
    ap.add_argument("--pairs", type=int, default=10, help="alternating pairs per workload")
    ap.add_argument("--seconds", type=float, default=spec.get("run_seconds", 15))
    ap.add_argument("--workload", action="append", choices=names,
                    help="workload to run (repeatable; default: all)")
    ap.add_argument("--json", help="also write every run to this file")
    args = ap.parse_args()
    if args.pairs < 1 or args.seconds <= 0:
        ap.error("--pairs must be at least 1 and --seconds positive")
    workloads = args.workload or names
    metrics = spec["end_to_end"]

    try:
        sha, tree = base_tree(args.base)
        binaries = {"base": build(tree), "head": build(ROOT)}
    except subprocess.CalledProcessError as e:
        print(f"perf_ab: build failed: {e}", file=sys.stderr)
        return 2

    print(f"# base {sha[:12]} vs working tree; {args.pairs} pairs x {args.seconds:g} s "
          "per workload, alternating order")
    runs = []
    failures = 0
    for workload in workloads:
        pairs = []
        for i in range(args.pairs):
            order = ["base", "head"] if i % 2 == 0 else ["head", "base"]
            pair = {}
            for side in order:
                pair[side] = measure(binaries[side], workload, i + 1, args.seconds)
                runs.append({"workload": workload, "pair": i, "side": side,
                             "seed": i + 1, "metrics": pair[side]})
            failures += sum(pair[s] is None for s in order)
            pairs.append(pair)
        print(f"\n## {workload}")
        print("| metric | base median (IQR) | head median (IQR) | head/base | head wins |")
        print("|---|---|---|---|---|")
        unresolved = []
        for m in metrics:
            name, higher = m["name"], m["better"] == "higher"
            both = [p for p in pairs
                    if p["base"] is not None and p["head"] is not None
                    and name in p["base"] and name in p["head"]]
            if not both:
                print(f"| {name} | - | - | - | 0/0 |")
                continue
            b = quartiles([p["base"][name] for p in both])
            h = quartiles([p["head"][name] for p in both])
            wins = sum((p["head"][name] > p["base"][name]) if higher
                       else (p["head"][name] < p["base"][name]) for p in both)
            ratio = h[1] / b[1] if b[1] else float("nan")
            spread = (b[2] - b[0]) / abs(b[1]) if b[1] else float("inf")
            if spread > m["bound"]:
                name += " (!)"
                unresolved.append(f"{m['name']}: base IQR/median {spread:.3f} "
                                  f"> bound {m['bound']:g}")
            print(f"| {name} | {fmt(b[1])} ({fmt(b[2] - b[0])}) | "
                  f"{fmt(h[1])} ({fmt(h[2] - h[0])}) | {ratio:.3f} | {wins}/{len(both)} |")
        for line in unresolved:
            print(f"(!) {line}: the spread exceeds the bound, so this A/B cannot resolve it")
        bad = sum(p[s] is None for p in pairs for s in ("base", "head"))
        if bad:
            print(f"\n{bad} run(s) failed or reported incorrect answers")
    if args.json:
        with open(args.json, "w") as f:
            json.dump({"base": sha, "runs": runs}, f, indent=1)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
