#!/usr/bin/env python3
"""Bench runner: executes gridsub bench binaries and records a JSON report.

Each listed bench is run once; wall time, peak RSS, exit status, and
captured stdout are written to a single JSON file (one entry per bench)
together with the git revision, so successive PRs accumulate a comparable
perf trajectory in the repo-root BENCH_*.json files. Peak RSS comes from
the kernel's accounting for the child (wait4 → ru_maxrss), so memory
regressions show up in the same diffs as time regressions
(scripts/compare_bench.py reports both).

--progress forwards GRIDSUB_PROGRESS=1 to the benches and lets their
stderr flow straight to the terminal, so long campaigns show
completed/total + ETA lines while they run.

bench_perf_micro (google-benchmark) is handled specially: it is run with
--benchmark_format=json and its structured output is written to the
--micro-json path with the gridsub build type added to the context.

Build-type guard: the runner reads the gridsub_build_info.json stamp the
CMake configure writes at the build root and refuses to record numbers
from a non-Release (or sanitized) build; --allow-debug downgrades the
refusal to a loud warning. Diff two recorded micro JSONs with
scripts/compare_bench.py.
"""

import argparse
import datetime
import json
import os
import platform
import subprocess
import sys
import tempfile
import threading
import time

MICRO_BENCH = "bench_perf_micro"


def run_with_rusage(args, timeout, env=None, stderr_passthrough=False):
    """Runs one bench child and returns (entry, stdout_text, stderr_text).

    Uses os.wait4 so the entry records the child's true peak RSS
    (ru_maxrss, KiB on Linux) alongside wall time and exit status —
    subprocess.run cannot surface rusage. stdout/stderr go to temp files
    (pipes would deadlock on multi-megabyte campaign output with nobody
    draining them mid-run); with stderr_passthrough the child's stderr
    stays on the terminal instead, for live --progress meters. A watchdog
    timer kills the child at the timeout, since there is no wait4 variant
    with one."""
    if not hasattr(os, "wait4"):  # non-POSIX fallback: no rusage
        start = time.monotonic()
        try:
            proc = subprocess.run(args, capture_output=True, text=True,
                                  timeout=timeout, env=env)
        except subprocess.TimeoutExpired:
            return ({"wall_seconds": round(time.monotonic() - start, 4),
                     "exit_code": None,
                     "error": f"timed out after {timeout}s"}, "", "")
        entry = {"wall_seconds": round(time.monotonic() - start, 4),
                 "exit_code": proc.returncode}
        return entry, proc.stdout, proc.stderr
    with tempfile.TemporaryFile() as out_fh, \
            tempfile.TemporaryFile() as err_fh:
        err_target = None if stderr_passthrough else err_fh
        start = time.monotonic()
        proc = subprocess.Popen(args, stdout=out_fh, stderr=err_target,
                                env=env)
        timed_out = threading.Event()

        def _kill():
            timed_out.set()
            proc.kill()

        watchdog = threading.Timer(timeout, _kill)
        watchdog.start()
        try:
            _, status, rusage = os.wait4(proc.pid, 0)
        finally:
            watchdog.cancel()
        elapsed = time.monotonic() - start
        # The child is already reaped; hand Popen its exit status so its
        # destructor doesn't try to wait again.
        proc.returncode = (-os.WTERMSIG(status) if os.WIFSIGNALED(status)
                           else os.WEXITSTATUS(status))
        if timed_out.is_set():
            return ({"wall_seconds": round(elapsed, 4),
                     "exit_code": None,
                     "peak_rss_kb": rusage.ru_maxrss,
                     "error": f"timed out after {timeout}s"}, "", "")
        entry = {
            "wall_seconds": round(elapsed, 4),
            "exit_code": proc.returncode,
            "peak_rss_kb": rusage.ru_maxrss,
        }
        out_fh.seek(0)
        stdout = out_fh.read().decode("utf-8", errors="replace")
        err_fh.seek(0)
        stderr = err_fh.read().decode("utf-8", errors="replace")
        return entry, stdout, stderr


def read_build_info(bin_dir):
    """Locates the gridsub_build_info.json stamp CMake writes at the build
    root (bin_dir is usually <build>/bench, so walk a few levels up)."""
    directory = os.path.abspath(bin_dir)
    for _ in range(4):
        path = os.path.join(directory, "gridsub_build_info.json")
        if os.path.exists(path):
            try:
                with open(path) as fh:
                    return json.load(fh)
            except (OSError, json.JSONDecodeError):
                return None
        parent = os.path.dirname(directory)
        if parent == directory:
            break
        directory = parent
    return None


def enforce_release_build(build_info, allow_debug):
    """Performance JSON recorded from a non-Release build is misleading at
    best; refuse to run unless the caller explicitly overrides, and then
    still warn loudly (the warning also lands in CI logs)."""
    if build_info is None:
        print("[bench] WARNING: no gridsub_build_info.json found near the "
              "bin dir; cannot verify the build type (configure with the "
              "current CMakeLists to get the stamp)", file=sys.stderr)
        return None
    build_type = str(build_info.get("build_type", "unknown"))
    sanitized = bool(build_info.get("asan", False))
    if build_type.lower() == "release" and not sanitized:
        return build_type
    problem = (f"sanitized ({build_type})" if sanitized
               else f"build type '{build_type}'")
    if not allow_debug:
        print(f"[bench] REFUSING to record benchmarks from a {problem} "
              "build. Configure with --preset release (or pass "
              "--allow-debug to record anyway, loudly).", file=sys.stderr)
        sys.exit(2)
    banner = "!" * 66
    print(f"{banner}\n[bench] WARNING: recording benchmarks from a "
          f"{problem} build — numbers are NOT comparable to Release "
          f"baselines\n{banner}", file=sys.stderr)
    return build_type


def git_revision(repo_root):
    try:
        out = subprocess.run(
            ["git", "-C", repo_root, "rev-parse", "--short", "HEAD"],
            capture_output=True, text=True, timeout=10)
        return out.stdout.strip() or "unknown"
    except OSError:
        return "unknown"


def run_report_bench(path, timeout, quick, progress=False):
    # Campaign benches honour GRIDSUB_BENCH_QUICK=1 by shrinking
    # replications (never axis coverage) so smoke runs stay fast. Set the
    # variable explicitly both ways: a full run must not silently inherit
    # quick mode from the caller's shell.
    env = dict(os.environ, GRIDSUB_BENCH_QUICK="1" if quick else "0")
    if progress:
        env["GRIDSUB_PROGRESS"] = "1"
    else:
        env.pop("GRIDSUB_PROGRESS", None)
    entry, stdout, stderr = run_with_rusage(
        [path], timeout, env=env, stderr_passthrough=progress)
    if entry.get("error"):
        return entry
    entry["stdout_lines"] = stdout.splitlines()
    if not progress:  # passthrough stderr went to the terminal, not to us
        entry["stderr_tail"] = stderr.splitlines()[-5:]
    return entry


def run_micro_bench(path, micro_json, quick, timeout, build_type=None):
    args = [path, "--benchmark_format=json"]
    if quick:
        # Plain double form: the "0.05s" suffix syntax needs benchmark >= 1.8.
        args.append("--benchmark_min_time=0.05")
    entry, stdout, stderr = run_with_rusage(args, timeout)
    if entry.get("error"):
        return entry
    if entry["exit_code"] == 0:
        try:
            payload = json.loads(stdout)
        except json.JSONDecodeError:
            entry["error"] = "non-JSON benchmark output"
            return entry
        # google-benchmark's "library_build_type" describes the benchmark
        # library, not gridsub; record the library under test explicitly so
        # compare_bench.py can flag debug-vs-release comparisons.
        payload.setdefault("context", {})["gridsub_build_type"] = (
            build_type or "unknown")
        with open(micro_json, "w") as fh:
            json.dump(payload, fh, indent=2)
            fh.write("\n")
        entry["written"] = os.path.basename(micro_json)
        entry["benchmark_count"] = len(payload.get("benchmarks", []))
    else:
        entry["stderr_tail"] = stderr.splitlines()[-5:]
    return entry


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("benches", nargs="+",
                        help="bench target names (binaries in --bin-dir)")
    parser.add_argument("--bin-dir", required=True)
    parser.add_argument("--out", required=True,
                        help="aggregate JSON report path")
    parser.add_argument("--micro-json", default=None,
                        help="where to write bench_perf_micro's native JSON")
    parser.add_argument("--quick", action="store_true",
                        help="short micro-bench repetitions for smoke runs")
    parser.add_argument("--allow-debug", action="store_true",
                        help="record benches from a non-Release build "
                             "anyway (a loud warning replaces the refusal)")
    parser.add_argument("--timeout", type=float, default=600.0,
                        help="per-bench timeout in seconds")
    parser.add_argument("--progress", action="store_true",
                        help="forward GRIDSUB_PROGRESS=1 and stream bench "
                             "stderr to the terminal (live completed/total "
                             "+ ETA lines)")
    args = parser.parse_args()

    build_info = read_build_info(args.bin_dir)
    build_type = enforce_release_build(build_info, args.allow_debug)

    repo_root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    report = {
        "schema": "gridsub-bench-v1",
        "timestamp_utc": datetime.datetime.now(datetime.timezone.utc)
        .isoformat(timespec="seconds"),
        "git_revision": git_revision(repo_root),
        "host": platform.node(),
        "cpu_count": os.cpu_count(),
        "gridsub_build_type": build_type or "unknown",
        "quick": args.quick,
        "results": {},
    }

    failures = 0
    names = list(dict.fromkeys(args.benches))
    if args.micro_json and MICRO_BENCH not in names:
        micro_path = os.path.join(args.bin_dir, MICRO_BENCH)
        if os.path.exists(micro_path):
            names.append(MICRO_BENCH)

    for name in names:
        path = os.path.join(args.bin_dir, name)
        if not os.path.exists(path):
            print(f"[bench] FAIL {name}: binary not found", file=sys.stderr)
            report["results"][name] = {"error": "binary not found"}
            failures += 1
            continue
        print(f"[bench] running {name} ...", flush=True)
        if name == MICRO_BENCH and args.micro_json:
            entry = run_micro_bench(path, args.micro_json, args.quick,
                                    args.timeout, build_type)
        else:
            entry = run_report_bench(path, args.timeout, args.quick,
                                     args.progress)
        report["results"][name] = entry
        if entry.get("exit_code") != 0 or entry.get("error"):
            failures += 1
            print(f"[bench] FAIL {name}: {entry.get('error', 'nonzero exit')}",
                  file=sys.stderr)
        else:
            print(f"[bench] ok   {name} ({entry['wall_seconds']}s)",
                  flush=True)

    with open(args.out, "w") as fh:
        json.dump(report, fh, indent=2)
        fh.write("\n")
    print(f"[bench] wrote {args.out} ({len(report['results'])} benches, "
          f"{failures} failures)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
