#!/usr/bin/env python3
"""The repository's benchmark: one workload per process, outputs checked.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --selfcheck

Run from the repository root. The first run builds the program from source
(CMake, Release) into $CARGO_TARGET_DIR/perfbench (default .bench_build).
--trace 0 runs perfbench_e2e, which calls only the user-facing API, and
reports every end_to_end metric of BENCHMARK.json; --trace 1 runs
perfbench_trace and reports every per_layer metric (0 for layers the
workload does not exercise; manifest.json maps each metric to its
workload). A failed output check exits non-zero and prints no numbers.

The last stdout line is the result:
    {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
The line before it holds the run context (host, build, seed, sample counts,
CPU steal), which is also stored with the result under
$CARGO_TARGET_DIR/results/.

--selfcheck runs every workload at a tiny size through this same
command, asserts every named metric appears with its unit and every output
check passes, and checks that a directory holding only the benchmark's own
files fails cleanly.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
DEADLINE_S = 175.0


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(1)


def load_json(path):
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        fail("cannot read %s: %s" % (path, e))


def out_dir():
    return os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))


def build(target):
    bdir = os.path.join(out_dir(), "perfbench")
    if not os.path.exists(os.path.join(bdir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", bdir, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.call(cmd, stdout=sys.stderr, stderr=sys.stderr) != 0:
            shutil.rmtree(bdir, ignore_errors=True)
            fail("cmake configure failed")
    cmd = ["cmake", "--build", bdir, "--target", target,
           "-j", str(os.cpu_count() or 1)]
    if subprocess.call(cmd, stdout=sys.stderr, stderr=sys.stderr) != 0:
        fail("build of %s failed" % target)
    return bdir


def cpu_times():
    with open("/proc/stat") as f:
        fields = f.readline().split()[1:]
    return [int(x) for x in fields]


def steal_share(before, after):
    delta = [b - a for a, b in zip(before, after)]
    total = sum(delta[:8])  # user..steal; guest time is inside user
    return delta[7] / total if total > 0 and len(delta) > 7 else 0.0


def cache_value(bdir, key):
    try:
        with open(os.path.join(bdir, "CMakeCache.txt")) as f:
            for line in f:
                if line.startswith(key + ":"):
                    return line.split("=", 1)[1].strip()
    except OSError:
        pass
    return ""


def source_rev():
    """HEAD when ROOT is itself a git checkout, else "none"."""
    try:
        out = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "--show-toplevel", "HEAD"],
            capture_output=True, text=True, timeout=10)
        lines = out.stdout.split()
        if out.returncode == 0 and len(lines) == 2 and \
                os.path.realpath(lines[0]) == os.path.realpath(ROOT):
            return lines[1]
    except (OSError, subprocess.SubprocessError):
        pass
    return "none"


def source_digest():
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in sorted(os.walk(os.path.join(ROOT, top))):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()


def context(bdir, args, steal, wall, result):
    compiler = cache_value(bdir, "CMAKE_CXX_COMPILER")
    try:
        version = subprocess.run([compiler, "--version"], capture_output=True,
                                 text=True, timeout=10).stdout.splitlines()[0]
    except (OSError, IndexError, subprocess.SubprocessError):
        version = compiler
    build_type = cache_value(bdir, "CMAKE_BUILD_TYPE")
    flags = " ".join(x for x in (
        cache_value(bdir, "CMAKE_CXX_FLAGS"),
        cache_value(bdir, "CMAKE_CXX_FLAGS_" + build_type.upper())) if x)
    return {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace, "tiny": args.tiny,
        "nproc": os.cpu_count(), "compiler": version,
        "build_type": build_type, "cxx_flags": flags,
        "git_rev": source_rev(), "source_sha256": source_digest(),
        "cpu_steal_share": steal, "process_wall_s": wall,
        "samples": result.get("samples", {}), "info": result.get("info", {}),
        "checks": result.get("checks", []),
    }


def run(args):
    start = time.monotonic()
    bench = load_json(os.path.join(ROOT, "BENCHMARK.json"))
    manifest = load_json(os.path.join(HERE, "manifest.json"))
    if args.workload not in {w["name"] for w in bench["workloads"]}:
        fail("unknown workload %r" % args.workload)
    if args.seconds is None:
        args.seconds = bench["run_seconds"]
    target = "perfbench_trace" if args.trace else "perfbench_e2e"
    bdir = build(target)

    state = os.path.join(out_dir(), "state")
    os.makedirs(state, exist_ok=True)
    results = os.path.join(out_dir(), "results")
    os.makedirs(results, exist_ok=True)
    stem = "%s-seed%d-trace%d%s" % (args.workload, args.seed, args.trace,
                                     "-tiny" if args.tiny else "")
    cmd = [os.path.join(bdir, target), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--state-dir", state]
    if args.trace:
        cmd += ["--trace", "--spans", os.path.join(results, stem + ".spans.csv")]
    if args.tiny:
        cmd.append("--tiny")

    before = cpu_times()
    t0 = time.monotonic()
    timeout = max(10.0, DEADLINE_S - (t0 - start))
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        fail("%s timed out after %.0f s" % (target, timeout))
    wall = time.monotonic() - t0
    steal = steal_share(before, cpu_times())
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        fail("%s exited %d without a result" % (target, proc.returncode))
    bad = [c for c in result["checks"] if not c["ok"]]
    if proc.returncode != 0 or bad:
        for c in bad:
            print("perfbench: check failed: %s (%s)" % (c["name"], c["detail"]),
                  file=sys.stderr)
        fail("%s exited %d" % (target, proc.returncode))

    expected = bench["per_layer" if args.trace else "end_to_end"]
    layer_of = manifest["per_layer"]
    got = result["metrics"]
    metrics = {}
    for m in expected:
        name, unit = m["name"], m["unit"]
        if name in got:
            if got[name]["unit"] != unit or got[name]["value"] is None:
                fail("metric %s: got %r, want unit %s" % (name, got[name], unit))
            metrics[name] = {"value": got[name]["value"], "unit": unit}
        elif args.trace and layer_of.get(name, {}).get("workload") not in (
                args.workload, "all"):
            metrics[name] = {"value": 0, "unit": unit}  # layer not exercised
        else:
            fail("metric %s missing from %s" % (name, args.workload))
    extra = set(got) - set(metrics)
    if extra:
        fail("metrics not in BENCHMARK.json: %s" % sorted(extra))

    ctx = context(bdir, args, steal, wall, result)
    line = {"correct": True, "attempted": result["attempted"],
            "failed": result["failed"], "metrics": metrics}
    with open(os.path.join(results, stem + ".json"), "w") as f:
        json.dump({"context": ctx, "result": line}, f, indent=1)
    print(json.dumps({"context": ctx}))
    print(json.dumps(line))


def selfcheck():
    bench = load_json(os.path.join(ROOT, "BENCHMARK.json"))
    manifest = load_json(os.path.join(HERE, "manifest.json"))
    names = [w["name"] for w in bench["workloads"]]
    problems = []
    layer_names = {m["name"] for m in bench["per_layer"]}
    if layer_names != set(manifest["per_layer"]):
        problems.append("manifest.json per_layer map != BENCHMARK.json per_layer")
    for w in names:
        for trace in (0, 1):
            cmd = [sys.executable, os.path.abspath(__file__), "--workload", w,
                   "--seed", str(manifest["selfcheck_seed"]), "--seconds", "1",
                   "--trace", str(trace), "--tiny"]
            proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                                  cwd=ROOT)
            label = "%s trace %d" % (w, trace)
            if proc.returncode != 0:
                problems.append("%s: exit %d" % (label, proc.returncode))
                continue
            line = json.loads(proc.stdout.strip().splitlines()[-1])
            if set(line) != {"correct", "attempted", "failed", "metrics"}:
                problems.append("%s: result keys %s" % (label, sorted(line)))
            if line["correct"] is not True or line["attempted"] < 1:
                problems.append("%s: not correct" % label)
            for m in bench["per_layer" if trace else "end_to_end"]:
                got = line["metrics"].get(m["name"])
                if got is None or got["unit"] != m["unit"]:
                    problems.append("%s: metric %s missing or mis-united"
                                    % (label, m["name"]))
            print("selfcheck: %s ok" % label, file=sys.stderr)

    # Outside a full checkout (only BENCHMARK.json and the benchmark's own
    # files) the build must fail: non-zero exit and no result line.
    bare = os.path.join(out_dir(), "selfcheck-bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload",
                           names[0], "--seed", "1", "--seconds", "1",
                           "--trace", "0"], cwd=bare, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True,
                          env=dict(os.environ, CARGO_TARGET_DIR=".bench_build"))
    if proc.returncode == 0 or proc.stdout.strip():
        problems.append("bare directory: exit %d with output %r"
                        % (proc.returncode, proc.stdout[-200:]))
    shutil.rmtree(bare, ignore_errors=True)

    for p in problems:
        print("selfcheck: FAIL " + p, file=sys.stderr)
    print("selfcheck: %s" % ("FAIL" if problems else "OK"), file=sys.stderr)
    return 1 if problems else 0


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float,
                   help="timed work per run (default: BENCHMARK.json's run_seconds)")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true",
                   help="self-check sizes (not comparable with full runs)")
    p.add_argument("--selfcheck", action="store_true")
    args = p.parse_args()
    if args.selfcheck:
        sys.exit(selfcheck())
    if not args.workload:
        fail("--workload is required")
    if args.seed < 0:
        fail("--seed must be non-negative")
    run(args)


if __name__ == "__main__":
    main()
