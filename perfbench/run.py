#!/usr/bin/env python3
"""The CATS benchmark: build, run one workload, check, report.

Run from the repository root:

  python3 perfbench/run.py --workload crawl_detect --seed 1 --seconds 10 --trace 0
  python3 perfbench/run.py --smoke            # every workload, tiny size
  python3 perfbench/run.py compare BASE HEAD  # result files or directories

A run builds perfbench/build/cats_perfbench from source (CMake, RelWithDebInfo)
when needed, runs the workload, stamps the result with the host and code it
ran on, saves it under perfbench/build/results/, prints every metric with
its unit, and prints as its last line one JSON object with the keys
correct, attempted, failed and metrics. It exits non-zero when an output
check fails. See perfbench/README.md for the workloads and metrics.
"""

import argparse
import hashlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
REPO_DIR = BENCH_DIR.parent
BUILD_DIR = BENCH_DIR / "build"
RESULTS_DIR = BUILD_DIR / "results"
BINARY = BUILD_DIR / "cats_perfbench"
BUILD_TYPE = "RelWithDebInfo"
RUN_TIMEOUT_S = 170


def fail(message, code=2):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def load_spec():
    path = REPO_DIR / "BENCHMARK.json"
    if not path.is_file():
        fail(f"{path} not found")
    return json.loads(path.read_text())


def nproc():
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def build():
    """Configures (once) and builds the benchmark binary; logs to build.log."""
    if not (REPO_DIR / "src" / "CMakeLists.txt").is_file():
        fail("the system's sources (src/) are not next to perfbench/")
    if shutil.which("cmake") is None:
        fail("cmake not found")
    BUILD_DIR.mkdir(parents=True, exist_ok=True)
    log_path = BUILD_DIR / "build.log"
    steps = []
    if not (BUILD_DIR / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
                      f"-DCMAKE_BUILD_TYPE={BUILD_TYPE}"])
    steps.append(["cmake", "--build", str(BUILD_DIR), "--target",
                  "cats_perfbench", "-j", str(nproc())])
    with open(log_path, "a") as log:
        for cmd in steps:
            done = subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT)
            if done.returncode != 0:
                tail = log_path.read_text().splitlines()[-20:]
                print("\n".join(tail), file=sys.stderr)
                fail(f"build step failed: {' '.join(cmd)}", 1)


def cmake_cache():
    cache = {}
    path = BUILD_DIR / "CMakeCache.txt"
    if path.is_file():
        for line in path.read_text().splitlines():
            if "=" in line and not line.startswith(("#", "//")):
                key, _, value = line.partition("=")
                cache[key.split(":")[0]] = value
    return cache


def cpu_model():
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def code_identity():
    """git sha when the checkout is a repository, plus a digest of the
    sources the benchmark builds (always available)."""
    sha = "none"
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=REPO_DIR,
                              capture_output=True, text=True, timeout=10)
        if done.returncode == 0:
            sha = done.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha256()
    for root in (REPO_DIR / "src", BENCH_DIR):
        for path in sorted(root.rglob("*")):
            if BUILD_DIR in path.parents or not path.is_file():
                continue
            digest.update(str(path.relative_to(REPO_DIR)).encode())
            digest.update(path.read_bytes())
    return sha, digest.hexdigest()[:16]


def host_stamp():
    cache = cmake_cache()
    build_type = cache.get("CMAKE_BUILD_TYPE", "")
    compiler = cache.get("CMAKE_CXX_COMPILER", "c++")
    try:
        version = subprocess.run([compiler, "--version"], capture_output=True,
                                 text=True, timeout=10).stdout.splitlines()[0]
    except (OSError, IndexError, subprocess.SubprocessError):
        version = compiler
    flags = " ".join(filter(None, [
        cache.get("CMAKE_CXX_FLAGS", ""),
        cache.get(f"CMAKE_CXX_FLAGS_{build_type.upper()}", ""),
        "-Wall -Wextra -std=c++20"]))
    return {"nproc": nproc(), "cpu_model": cpu_model(), "compiler": version,
            "build_type": build_type, "cmake_flags": flags}


def run_binary(workload, seed, seconds, trace, tiny=False):
    """Runs one workload; returns the binary's JSON object (or exits)."""
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    tag = f"{workload}-seed{seed}-trace{trace}" + ("-tiny" if tiny else "")
    work_dir = BUILD_DIR / f"work-{os.getpid()}"
    cmd = [str(BINARY), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--spans", str(RESULTS_DIR / f"{tag}.spans.jsonl"),
           "--work-dir", str(work_dir)]
    if tiny:
        cmd.append("--tiny")
    try:
        done = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{workload} did not finish within {RUN_TIMEOUT_S} s", 1)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    if done.returncode != 0 or not done.stdout.strip():
        sys.stderr.write(done.stderr[-2000:])
        fail(f"{workload} exited with code {done.returncode}", 1)
    out = json.loads(done.stdout.strip().splitlines()[-1])
    out["tag"] = tag
    return out


def check_metrics(out, expected):
    """Every expected metric present with its unit; returns problems."""
    problems = []
    for spec in expected:
        got = out["metrics"].get(spec["name"])
        if got is None:
            problems.append(f"missing metric {spec['name']}")
        elif got["unit"] != spec["unit"]:
            problems.append(f"{spec['name']}: unit {got['unit']} != "
                            f"{spec['unit']}")
        elif not isinstance(got["value"], (int, float)) or \
                not math.isfinite(got["value"]):
            problems.append(f"{spec['name']}: not a finite number")
    names = {s["name"] for s in expected}
    problems += [f"unexpected metric {n}" for n in out["metrics"]
                 if n not in names]
    return problems


# Traced crawl_detect: these layer self-times plus the unattributed
# remainder add up to the traced total (seconds).
CRAWL_LAYERS = ["platform.render_s", "collect.parse_s", "collect.normalize_s",
                "collect.crawler_overhead_s", "core.validate_s",
                "core.extract_s", "core.rules_s", "ml.predict_s",
                "trace.unattributed_s"]
# Traced serve_*: CPU per request splits into these layers (predict and
# drift run once per batch) plus the unattributed remainder.
SERVE_LAYERS = ["serve.codec_us", "core.stage_us", "serve.unattributed_us"]
SERVE_BATCH_LAYERS = ["ml.predict_us", "drift.observe_us"]


def layer_sum_problems(out, workload):
    m = {k: v["value"] for k, v in out["metrics"].items()}
    if workload == "crawl_detect":
        total, parts = m["trace.total_s"], sum(m[k] for k in CRAWL_LAYERS)
    else:
        batch = out["details"].get("predict_batch_size", 1)
        total = m["process.cpu_us_per_req"]
        parts = sum(m[k] for k in SERVE_LAYERS) + \
            sum(m[k] for k in SERVE_BATCH_LAYERS) / batch
    if total <= 0 or abs(parts - total) > 1e-6 * total:
        return [f"{workload}: layers sum to {parts}, traced total {total}"]
    return []


def report(out, expected, workload, stamp):
    """Prints the human-readable lines; returns the final result object."""
    host = stamp["host"]
    print(f"# {out['tag']}  host: {host['nproc']} x {host['cpu_model']}, "
          f"{host['compiler']}, {host['build_type']}; code "
          f"{stamp['git_sha'][:12]} ({stamp['tree_digest']})")
    print(f"# workload {workload['name']}: {workload['why']}")
    for name, metric in out["metrics"].items():
        print(f"{name} = {metric['value']:.6g} {metric['unit']}")
    for name, metric in out.get("extra_metrics", {}).items():
        print(f"{name} = {metric['value']:.6g} {metric['unit']}  (also measured)")
    print(f"failed_ratio = {out['failed_ratio']:.6g} ratio "
          f"({out['failed']} of {out['attempted']})")
    details = out.get("details", {})
    for key in ("p50_samples", "p99_samples_beyond", "timed_passes",
                "latency_note"):
        if key in details:
            print(f"# {key}: {details[key]}")
    for error in out.get("errors", []):
        print(f"# CHECK FAILED: {error}")
    return {"correct": out["correct"], "attempted": out["attempted"],
            "failed": out["failed"],
            "metrics": {s["name"]: out["metrics"][s["name"]]
                        for s in expected if s["name"] in out["metrics"]}}


def run(args):
    spec = load_spec()
    workloads = {w["name"]: w for w in spec["workloads"]}
    if args.workload not in workloads:
        fail(f"unknown workload {args.workload!r}; one of {sorted(workloads)}")
    build()
    out = run_binary(args.workload, args.seed, args.seconds, args.trace)
    expected = spec["per_layer"] if args.trace else spec["end_to_end"]
    problems = check_metrics(out, expected)
    if args.trace:
        problems += layer_sum_problems(out, args.workload)
    sha, digest = code_identity()
    stamp = {"host": host_stamp(), "git_sha": sha, "tree_digest": digest,
             "seed": args.seed, "workload": args.workload,
             "trace": args.trace, "seconds": args.seconds}
    out["errors"] = out.get("errors", []) + problems
    out["correct"] = bool(out["correct"]) and not problems
    out["stamp"] = stamp
    (RESULTS_DIR / f"{out['tag']}.json").write_text(json.dumps(out, indent=1))
    result = report(out, expected, workloads[args.workload], stamp)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def smoke(_args):
    """Each workload at the tiny size, untraced and traced: every named
    metric is emitted with its unit, and the traced layers add up."""
    spec = load_spec()
    build()
    problems = []
    for workload in [w["name"] for w in spec["workloads"]]:
        for trace in (0, 1):
            out = run_binary(workload, 1, 2, trace, tiny=True)
            expected = spec["per_layer"] if trace else spec["end_to_end"]
            found = check_metrics(out, expected) + out.get("errors", [])
            if not out["correct"]:
                found.append("output check failed")
            if trace:
                found += layer_sum_problems(out, workload)
            status = "ok" if not found else "FAIL"
            print(f"smoke {workload} trace={trace}: {status} "
                  f"({len(out['metrics'])} metrics)")
            problems += [f"{workload} trace={trace}: {p}" for p in found]
    for p in problems:
        print(f"  {p}")
    print("smoke: " + ("ok" if not problems else "FAILED"))
    return 0 if not problems else 1


def load_results(path):
    path = Path(path)
    files = sorted(path.glob("*.json")) if path.is_dir() else [path]
    return [json.loads(f.read_text()) for f in files]


def compare(args):
    """Median of each metric per (workload, trace) on both sides, with the
    end-to-end bounds applied. Refuses results whose host stamps differ."""
    spec = load_spec()
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    base, head = load_results(args.base), load_results(args.head)
    if any("stamp" not in r for r in base + head):
        fail("refusing to compare unstamped results", 3)
    hosts = {json.dumps(r["stamp"]["host"], sort_keys=True)
             for r in base + head}
    if len(hosts) != 1:
        fail("refusing to compare results from different hosts:\n  " +
             "\n  ".join(sorted(hosts)), 3)
    groups = sorted({(r["stamp"]["workload"], r["stamp"]["trace"])
                     for r in base + head})
    regressed = False
    for workload, trace in groups:
        print(f"# {workload} trace={trace}")
        medians = []
        for results in (base, head):
            rows = [r for r in results if r["stamp"]["workload"] == workload
                    and r["stamp"]["trace"] == trace]
            names = rows[0]["metrics"] if rows else {}
            medians.append({n: statistics.median(
                r["metrics"][n]["value"] for r in rows) for n in names})
        for name, b in medians[0].items():
            h = medians[1].get(name)
            if h is None:
                continue
            change = (h - b) / b if b else 0.0
            line = f"{name:36s} {b:14.6g} {h:14.6g} {change:+8.2%}"
            metric = bounds.get(name)
            if metric is not None:
                worse = change if metric["better"] == "lower" else -change
                if worse > metric["bound"]:
                    regressed = True
                    line += "  REGRESSION"
            print(line)
    return 1 if regressed else 0


def main():
    if len(sys.argv) > 1 and sys.argv[1] == "compare":
        parser = argparse.ArgumentParser(prog="run.py compare")
        parser.add_argument("base")
        parser.add_argument("head")
        return compare(parser.parse_args(sys.argv[2:]))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args()
    if args.smoke:
        return smoke(args)
    if not args.workload:
        parser.error("--workload is required")
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
