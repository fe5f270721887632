#!/usr/bin/env python3
"""Build and run the repository benchmark.

Run from the repository root:

    python3 _perfbench/run.py --workload train-ps-local --seed 1 --seconds 22 --trace 0
    python3 _perfbench/run.py compare DIR_A DIR_B   # compare two sets of run records
    python3 _perfbench/run.py overhead [DIR]        # traced against untraced throughput
    python3 _perfbench/run.py test                  # the benchmark's own Go tests

The benchmark is a Go module of its own (_perfbench/go.mod) that builds
against the repository's source at the root. Every build artefact, the
Go caches and the run records stay under .bench_build/ in the root.
The last line of a run's standard output is the JSON summary.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "perfbench")
RESULTS = os.path.join(BUILD, "results")

# Host fields that must agree before two result sets are compared.
HOST_KEYS = ("cpu", "num_cpu", "gomaxprocs", "go_version")


def go_env():
    """Keeps the Go toolchain's caches, config and temp files in the checkout."""
    env = dict(os.environ)
    dirs = {
        "GOCACHE": "gocache",
        "GOMODCACHE": "gomodcache",
        "GOPATH": "gopath",
        "HOME": "home",
        "XDG_CONFIG_HOME": "home/.config",
        "XDG_CACHE_HOME": "home/.cache",
        "TMPDIR": "tmp",
        "GOTMPDIR": "tmp",
    }
    for key, sub in dirs.items():
        path = os.path.join(BUILD, sub)
        os.makedirs(path, exist_ok=True)
        env[key] = path
    env.update(GOPROXY="off", GOTOOLCHAIN="local", GOTELEMETRY="off", GOFLAGS="", CGO_ENABLED="0")
    return env


def build(env):
    """Builds the benchmark binary; its errors go to standard error."""
    proc = subprocess.run(["go", "build", "-o", BINARY, "."], cwd=HERE, env=env,
                          stdout=sys.stderr, stderr=sys.stderr, timeout=800)
    return proc.returncode == 0


def run(args):
    env = go_env()
    if not build(env):
        print("run.py: benchmark build failed", file=sys.stderr)
        return 1
    cmd = [BINARY, "-workload", args.workload, "-seed", str(args.seed),
           "-seconds", str(args.seconds), "-trace", str(args.trace), "-out", RESULTS]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, timeout=175)
    except subprocess.TimeoutExpired:
        print("run.py: benchmark run exceeded 175 s", file=sys.stderr)
        return 1
    return proc.returncode


def test():
    env = go_env()
    return subprocess.run(["go", "test", "-count=1", "."], cwd=HERE, env=env).returncode


def load(directory):
    """Reads every run record in a directory, grouped by (workload, trace)."""
    groups = {}
    for name in sorted(os.listdir(directory)):
        if not name.endswith(".json") or name.endswith("_spans.json"):
            continue
        with open(os.path.join(directory, name)) as f:
            rec = json.load(f)
        if "summary" in rec:
            groups.setdefault((rec["workload"], rec["trace"]), []).append(rec)
    return groups


def host_of(records):
    """The distinct host fingerprints of a record set."""
    return {tuple((k, r["host"][k]) for k in HOST_KEYS) for r in records}


def compare(args):
    """Prints per-metric medians and quartile spreads of two record sets.

    Refuses (exit 2) when the two sets were measured on different hosts:
    absolute times from different CPUs, core counts or toolchains are not
    comparable.
    """
    a, b = load(args.base), load(args.head)
    status = 0
    for key in sorted(set(a) & set(b)):
        ha, hb = host_of(a[key]), host_of(b[key])
        if len(ha) != 1 or len(hb) != 1 or ha != hb:
            fields = [k for k in HOST_KEYS
                      if len({r["host"][k] for r in a[key] + b[key]}) > 1]
            print(f"{key[0]} trace={int(key[1])}: refusing to compare: the runs were measured on "
                  f"different hosts ({', '.join(fields)} differ):\n"
                  f"  base {sorted(ha)}\n  head {sorted(hb)}")
            status = 2
            continue
        commits = {r["host"]["commit"] + "/" + r["host"]["source"] for r in a[key]}, \
                  {r["host"]["commit"] + "/" + r["host"]["source"] for r in b[key]}
        print(f"{key[0]} trace={int(key[1])}: base {len(a[key])} runs {sorted(commits[0])}, "
              f"head {len(b[key])} runs {sorted(commits[1])}")
        names = sorted(set.intersection(*(set(r["summary"]["metrics"]) for r in a[key] + b[key])))
        for name in names:
            va = [r["summary"]["metrics"][name]["value"] for r in a[key]]
            vb = [r["summary"]["metrics"][name]["value"] for r in b[key]]
            unit = a[key][0]["summary"]["metrics"][name]["unit"]
            ma, mb = statistics.median(va), statistics.median(vb)
            ratio = mb / ma if ma else float("nan")
            print(f"  {name:32s} base {ma:12.5g} ({spread(va)})  head {mb:12.5g} ({spread(vb)})  "
                  f"head/base {ratio:7.4f} {unit}")
    for key in sorted(set(a) ^ set(b)):
        print(f"{key[0]} trace={int(key[1])}: only in one set")
    return status


def overhead(args):
    """Tracing overhead per workload: traced against untraced seeds_per_s."""
    groups = load(args.dir)
    for wl in sorted({w for w, _ in groups}):
        plain, traced = groups.get((wl, False)), groups.get((wl, True))
        if not plain or not traced:
            print(f"{wl}: needs both untraced and traced records")
            continue
        if host_of(plain) != host_of(traced) or len(host_of(plain)) != 1:
            print(f"{wl}: refusing: host fingerprints differ")
            continue
        u = statistics.median(r["summary"]["metrics"]["seeds_per_s"]["value"] for r in plain)
        t = statistics.median(r["summary"]["metrics"]["trace.seeds_per_s"]["value"] for r in traced)
        print(f"{wl}: untraced {u:.5g} seeds/s ({len(plain)} runs), traced {t:.5g} seeds/s "
              f"({len(traced)} runs), overhead {1 - t / u:+.3f}")
    return 0


def spread(values):
    """Interquartile range over the median, as a share."""
    if len(values) < 2:
        return "n=1"
    q = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return f"n={len(values)} iqr/med {(q[2] - q[0]) / med:.3f}" if med else f"n={len(values)}"


def main():
    if len(sys.argv) > 1 and sys.argv[1] == "compare":
        p = argparse.ArgumentParser(prog="run.py compare")
        p.add_argument("base", help="directory of run records of the base commit")
        p.add_argument("head", help="directory of run records of the changed commit")
        return compare(p.parse_args(sys.argv[2:]))
    if len(sys.argv) > 1 and sys.argv[1] == "overhead":
        p = argparse.ArgumentParser(prog="run.py overhead")
        p.add_argument("dir", nargs="?", default=RESULTS, help="directory of run records")
        return overhead(p.parse_args(sys.argv[2:]))
    if len(sys.argv) > 1 and sys.argv[1] == "test":
        return test()
    p = argparse.ArgumentParser(description="Build and run one benchmark workload.")
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=20)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return run(p.parse_args())


if __name__ == "__main__":
    sys.exit(main())
