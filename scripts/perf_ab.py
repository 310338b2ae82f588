#!/usr/bin/env python3
"""Paired A/B runs of the repository benchmark (perfbench) between two revisions.

Run from anywhere inside the repository:

    python3 scripts/perf_ab.py PARENT_REV CHANGE_REV [--pairs 10] [--seconds S]
        [--seed 3] [--workloads lan_steady,crash_replay] [--pin-alignment]
        [--scratch DIR] [--json OUT.json]
    python3 scripts/perf_ab.py --self-test [REV] [same options]

Each revision's committed tree is exported (`git archive`) into a fresh
directory under --scratch (default: the system temporary directory), as
.../a and .../b, so both sides' build and work directories have paths of
equal length: path length alone has moved `lan_steady` peak RSS by about
1 MB.  Each side runs its own perfbench/run.py, unchanged, with its own
CARGO_TARGET_DIR.  One discarded run per side builds it first.  Then, per
workload, `--pairs` pairs of untraced runs alternate which side goes first.
The directory is removed afterwards.

Metric names, directions ("better") and bounds come from the parent's
BENCHMARK.json.  The script prints one markdown table row per workload and
end-to-end metric: median [Q1, Q3] of each side, the change / parent ratio of
the medians, the pairs the change won (ties count for neither side), and a
verdict: worse than the bound, beyond the parent's quartiles, or inside them.

`--pin-alignment` builds both sides with CXXFLAGS="-falign-functions=64
-falign-loops=32 -falign-jumps=32", so that code placement alone cannot move
a result.  `--self-test` runs one revision (default HEAD) against itself and
passes when no metric is worse than its bound and every change median lies
inside the first side's quartile spread.

Exits non-zero, loudly, if any run exits non-zero or reports `correct: false`
or `failed > 0`; also if a metric is worse than its bound, or a self-test
fails.
"""

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile

ALIGNMENT_FLAGS = "-falign-functions=64 -falign-loops=32 -falign-jumps=32"


class RunFailed(Exception):
    pass


def git(*args):
    return subprocess.run(["git", *args], check=True, capture_output=True,
                          text=True).stdout.strip()


def describe(rev):
    """The revision as given, its commit and the trees perfbench builds from."""
    commit = git("rev-parse", "--verify", rev + "^{commit}")
    return {
        "rev": rev,
        "commit": commit,
        "src_tree": git("rev-parse", commit + ":src"),
        "perfbench_tree": git("rev-parse", commit + ":perfbench"),
    }


def export(commit, dest):
    os.makedirs(dest)
    archive = subprocess.Popen(["git", "archive", commit], stdout=subprocess.PIPE)
    untar = subprocess.run(["tar", "-x", "-C", dest], stdin=archive.stdout)
    archive.stdout.close()
    if archive.wait() != 0 or untar.returncode != 0:
        raise RunFailed("cannot export %s into %s" % (commit, dest))


class Side:
    def __init__(self, label, info, root, cxxflags):
        self.label = label
        self.info = info
        self.root = root
        self.env = dict(os.environ, CARGO_TARGET_DIR=os.path.join(root, ".bench_build"))
        if cxxflags is not None:
            self.env["CXXFLAGS"] = cxxflags

    def run(self, workload, seed, seconds):
        command = [sys.executable, "perfbench/run.py", "--workload", workload,
                   "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
        proc = subprocess.run(command, cwd=self.root, env=self.env,
                              capture_output=True, text=True)
        where = "%s (%s) %s seed=%s" % (self.label, self.info["rev"], workload, seed)
        if proc.returncode != 0:
            raise RunFailed("%s exited %d:\n%s" % (where, proc.returncode,
                                                   proc.stderr[-4000:]))
        lines = proc.stdout.strip().splitlines()
        try:
            result = json.loads(lines[-1])
        except (IndexError, ValueError):
            raise RunFailed("%s printed no JSON result:\n%s" % (where, proc.stdout[-2000:]))
        if result.get("correct") is not True or result.get("failed") != 0:
            raise RunFailed("%s: correct=%s failed=%s" % (where, result.get("correct"),
                                                          result.get("failed")))
        return result


def spread(values):
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def summarize(metric, parent, change):
    """One table row: both sides' spreads, the ratio, wins and the verdict."""
    lower = metric["better"] == "lower"
    bound = metric["bound"]
    a = spread(parent)
    b = spread(change)
    wins = sum(1 for x, y in zip(parent, change) if (y < x if lower else y > x))
    losses = sum(1 for x, y in zip(parent, change) if (y > x if lower else y < x))
    ratio = b["median"] / a["median"] if a["median"] else (1.0 if not b["median"] else None)
    limit = a["median"] * (1 + bound if lower else 1 - bound)
    if (b["median"] > limit) if lower else (b["median"] < limit):
        verdict = "worse than bound"
    elif a["q1"] <= b["median"] <= a["q3"]:
        verdict = "inside parent quartiles"
    else:
        better = b["median"] < a["q1"] if lower else b["median"] > a["q3"]
        verdict = "beyond parent quartiles, %s" % ("better" if better else "worse")
    return {
        "metric": metric["name"],
        "unit": metric["unit"],
        "better": metric["better"],
        "bound": bound,
        "parent": a,
        "change": b,
        "ratio": ratio,
        "wins": wins,
        "losses": losses,
        "ties": len(parent) - wins - losses,
        "verdict": verdict,
    }


def fmt(value):
    if abs(value) >= 1000:
        return "{:,.0f}".format(value)
    if abs(value) >= 10:
        return "{:.2f}".format(value)
    if abs(value) >= 1:
        return "{:.3f}".format(value)
    return "{:.4g}".format(value)


def print_table(rows, pairs):
    print("| workload | metric | parent | change | change / parent | wins | verdict |")
    print("|---|---|---|---|---|---|---|")
    for row in rows:
        a, b = row["parent"], row["change"]
        ratio = "n/a" if row["ratio"] is None else "%.3f" % row["ratio"]
        print("| %s | %s | %s [%s, %s] | %s [%s, %s] | %s | %d/%d | %s |" % (
            row["workload"], row["metric"], fmt(a["median"]), fmt(a["q1"]), fmt(a["q3"]),
            fmt(b["median"]), fmt(b["q1"]), fmt(b["q3"]), ratio, row["wins"], pairs,
            row["verdict"]))


def host_info():
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as cpuinfo:
            for line in cpuinfo:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    compiler = subprocess.run(["c++", "--version"], capture_output=True, text=True)
    return {
        "cpu": cpu,
        "cpus": os.cpu_count(),
        "compiler": compiler.stdout.splitlines()[0] if compiler.returncode == 0 else None,
    }


def measure(args, parent_info, change_info, scratch):
    cxxflags = ALIGNMENT_FLAGS if args.pin_alignment else None
    sides = []
    for label, info, name in (("parent", parent_info, "a"), ("change", change_info, "b")):
        root = os.path.join(scratch, name)
        export(info["commit"], root)
        sides.append(Side(label, info, root, cxxflags))

    with open(os.path.join(sides[0].root, "BENCHMARK.json")) as spec_file:
        spec = json.load(spec_file)
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    workloads = args.workloads.split(",") if args.workloads else [w["name"] for w in
                                                                   spec["workloads"]]
    metrics = spec["end_to_end"]

    for side in sides:
        print("perf_ab: building %s (%s)" % (side.label, side.info["commit"][:12]),
              file=sys.stderr, flush=True)
        side.run(workloads[0], args.seed, 0)

    runs = []
    rows = []
    for workload in workloads:
        values = {side.label: {m["name"]: [] for m in metrics} for side in sides}
        for pair in range(args.pairs):
            order = sides if pair % 2 == 0 else sides[::-1]
            for position, side in enumerate(order):
                result = side.run(workload, args.seed, seconds)
                measured = {name: metric["value"] for name, metric in result["metrics"].items()}
                runs.append({"workload": workload, "pair": pair, "side": side.label,
                             "position": position, "attempted": result["attempted"],
                             "failed": result["failed"], "metrics": measured})
                for m in metrics:
                    values[side.label][m["name"]].append(measured[m["name"]])
            print("perf_ab: %s pair %d/%d done" % (workload, pair + 1, args.pairs),
                  file=sys.stderr, flush=True)
        for m in metrics:
            row = summarize(m, values["parent"][m["name"]], values["change"][m["name"]])
            rows.append(dict(row, workload=workload))

    settings = {"pairs": args.pairs, "seconds": seconds, "seed": args.seed,
                "workloads": workloads, "pin_alignment": args.pin_alignment,
                "cxxflags": cxxflags}
    return settings, runs, rows


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("revs", nargs="*", metavar="REV",
                        help="parent and change revisions (one, default HEAD, with --self-test)")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=None,
                        help="run length (default: run_seconds from BENCHMARK.json)")
    parser.add_argument("--seed", type=int, default=3)
    parser.add_argument("--workloads", default=None,
                        help="comma-separated (default: every BENCHMARK.json workload)")
    parser.add_argument("--pin-alignment", action="store_true")
    parser.add_argument("--self-test", action="store_true")
    parser.add_argument("--scratch", default=None,
                        help="where to make the directory for the exported trees "
                        "(default: the system temporary directory)")
    parser.add_argument("--json", default=None, help="write runs and summary here")
    args = parser.parse_args()

    if args.self_test:
        if len(args.revs) > 1:
            parser.error("--self-test takes at most one revision")
        revs = (args.revs or ["HEAD"]) * 2
    elif len(args.revs) != 2:
        parser.error("give a parent and a change revision")
    else:
        revs = args.revs
    if args.pairs < 2:
        parser.error("--pairs must be at least 2 for quartiles")

    parent_info, change_info = describe(revs[0]), describe(revs[1])
    scratch = tempfile.mkdtemp(prefix="perf_ab-", dir=args.scratch)
    try:
        settings, runs, rows = measure(args, parent_info, change_info, scratch)
    except RunFailed as error:
        print("perf_ab: RUN FAILED: %s" % error, file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    print("parent = %s (%s), change = %s (%s); %d pairs of %g s per workload, seed %d%s" % (
        revs[0], parent_info["commit"][:12], revs[1], change_info["commit"][:12],
        settings["pairs"], settings["seconds"], settings["seed"],
        ", alignment pinned" if args.pin_alignment else ""))
    print_table(rows, args.pairs)

    failures = ["%s %s: worse than its bound %g" % (r["workload"], r["metric"], r["bound"])
                for r in rows if r["verdict"] == "worse than bound"]
    if args.self_test:
        failures += ["%s %s: change median outside the first side's quartiles"
                     % (r["workload"], r["metric"])
                     for r in rows if r["verdict"] != "inside parent quartiles"
                     and r["verdict"] != "worse than bound"]
    if args.json:
        record = {"parent": parent_info, "change": change_info, "settings": settings,
                  "host": host_info(), "self_test": args.self_test,
                  "passed": not failures, "summary": rows, "runs": runs}
        with open(args.json, "w") as out:
            json.dump(record, out, indent=1, sort_keys=True)
            out.write("\n")
    for failure in failures:
        print("perf_ab: FAIL: %s" % failure, file=sys.stderr)
    if args.self_test:
        print("perf_ab: self-test %s" % ("failed" if failures else "passed"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
