#!/usr/bin/env python3
"""Build kopbench from the enclosing checkout and run one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --selftest

The first call configures and builds perfbench/ (which compiles ../src)
into $CARGO_TARGET_DIR/perfbench, or .bench_build/perfbench when that is
unset; later calls only re-check the build.  The binary's own report goes
to stdout, and the last line is one JSON object holding exactly the
metrics BENCHMARK.json declares for the mode: end_to_end with --trace 0,
per_layer with --trace 1.  Exits non-zero, printing no result, when the
build or the run fails.
"""
import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 850


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build")
    return os.path.join(os.path.abspath(target), "perfbench")


def build():
    out = build_dir()
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, stderr=sys.stderr, check=True,
                       timeout=BUILD_TIMEOUT_S)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", out, "-j", jobs, "--target", "kopbench"],
                   stdout=sys.stderr, stderr=sys.stderr, check=True,
                   timeout=BUILD_TIMEOUT_S)
    return os.path.join(out, "kopbench")


def declared(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return spec["per_layer" if trace else "end_to_end"]


def run_kopbench(binary, workload, seed, seconds, trace, minimal=False):
    """Run one workload; return (report lines, parsed result object)."""
    run_root = os.path.join(ROOT, ".bench_run")
    workdir = os.path.join(run_root, "%s-%d-%d" % (workload, seed, os.getpid()))
    args = [binary, "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", "1" if trace else "0",
            "--data", os.path.join(HERE, "data"), "--workdir", workdir]
    if trace:
        args += ["--trace-out", os.path.join(run_root, "trace-%s.json" % workload)]
    if minimal:
        args.append("--minimal")
    try:
        proc = subprocess.run(args, stdout=subprocess.PIPE, stderr=sys.stderr,
                              text=True, timeout=RUN_TIMEOUT_S)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    lines = proc.stdout.rstrip("\n").split("\n")
    if proc.returncode != 0:
        raise RuntimeError("kopbench exited with %d" % proc.returncode)
    return lines[:-1], json.loads(lines[-1])


def narrow(raw, trace):
    """The result object: only the declared metrics, unit-checked."""
    metrics = {}
    for m in declared(trace):
        got = raw["metrics"].get(m["name"])
        if got is None:
            raise RuntimeError("metric %s was not measured" % m["name"])
        if got["unit"] != m["unit"]:
            raise RuntimeError("metric %s has unit %s, declared %s"
                               % (m["name"], got["unit"], m["unit"]))
        metrics[m["name"]] = {"value": got["value"], "unit": got["unit"]}
    return {"correct": bool(raw["correct"]), "attempted": int(raw["attempted"]),
            "failed": int(raw["failed"]), "metrics": metrics}


def selftest(binary):
    """Minimal-size run of every workload in both modes, plus the fault checks."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        workloads = [w["name"] for w in json.load(f)["workloads"]]
    problems = []
    workdir = os.path.join(ROOT, ".bench_run", "selftest-%d" % os.getpid())
    try:
        proc = subprocess.run([binary, "--selftest", "--workdir", workdir],
                              stdout=subprocess.PIPE, stderr=sys.stderr, text=True,
                              timeout=RUN_TIMEOUT_S)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(proc.stdout, end="")
    if proc.returncode != 0:
        problems.append("fault checks failed")
    for workload in workloads:
        for trace in (False, True):
            try:
                lines, raw = run_kopbench(binary, workload, 1, 1, trace, minimal=True)
                result = narrow(raw, trace)
            except (RuntimeError, ValueError) as e:
                problems.append("%s trace=%d: %s" % (workload, trace, e))
                continue
            for line in lines:
                if line.startswith("VIOLATION"):
                    problems.append("%s trace=%d: %s" % (workload, trace, line))
            if not result["correct"] or result["failed"] != 0:
                problems.append("%s trace=%d: correct=%s failed=%d"
                                % (workload, trace, result["correct"], result["failed"]))
            if not trace:
                for name, m in result["metrics"].items():
                    if not m["value"] > 0:
                        problems.append("%s: end-to-end metric %s is %r"
                                        % (workload, name, m["value"]))
            print("selftest %-16s trace=%d: %d metrics with units"
                  % (workload, trace, len(result["metrics"])))
    for p in problems:
        print("SELFTEST FAILURE: " + p)
    print("selftest: %s" % ("ok" if not problems else "FAILED"))
    return 0 if not problems else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selftest", action="store_true")
    args = ap.parse_args()
    if not args.selftest and not args.workload:
        ap.error("--workload is required")
    # Compilers and the benchmark keep their temporary files in the checkout.
    tmp = os.path.join(ROOT, ".bench_run", "tmp")
    os.makedirs(tmp, exist_ok=True)
    os.environ["TMPDIR"] = tmp
    try:
        binary = build()
        if args.selftest:
            return selftest(binary)
        lines, raw = run_kopbench(binary, args.workload, args.seed, args.seconds,
                                  bool(args.trace))
        result = narrow(raw, bool(args.trace))
    except (subprocess.SubprocessError, OSError, RuntimeError, ValueError,
            KeyError) as e:
        print("error: %s" % e, file=sys.stderr)
        return 1
    for line in lines:
        print(line)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
