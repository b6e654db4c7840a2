#!/usr/bin/env python3
"""Build the gridsub benchmark program from source and run one workload.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload <crossweek|des_scale|advisor> \\
        --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --smoke

The first form configures a Release build of the repository's library
plus gridsub_perfbench under $CARGO_TARGET_DIR (default .bench_build), builds it
(a no-op when up to date) and runs it. Its last stdout
line is the JSON result. Build output goes to stderr. Without --workload
every workload runs in turn.

--smoke runs every workload at its tiny size on a second seed, traced and
untraced, and checks that each passes its output checks and reports
exactly the metric names BENCHMARK.json lists.

Exit codes: 0 success, 1 build or run failure or a failed output check
(the JSON line then reads "correct": false), 2 usage error or no gridsub
sources beside this directory.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("crossweek", "des_scale", "advisor")
SMOKE_SEED = 7
RUN_TIMEOUT_S = 170


def log(message):
    print(f"perfbench: {message}", file=sys.stderr, flush=True)


def source_digest():
    """SHA-256 over the sources the program is built from (checkouts may
    not be git repositories)."""
    h = hashlib.sha256()
    files = [ROOT / "CMakeLists.txt"]
    for base in (ROOT / "src", HERE):
        files += [p for p in base.rglob("*") if p.is_file()
                  and "__pycache__" not in p.parts]
    for path in sorted(files):
        h.update(str(path.relative_to(ROOT)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def revision():
    rev = "src-sha256:" + source_digest()
    if (ROOT / ".git").exists() and shutil.which("git"):
        try:
            head = subprocess.run(
                ["git", "-C", str(ROOT), "rev-parse", "--short=12", "HEAD"],
                capture_output=True, text=True, timeout=10, check=True)
            rev = "git:" + head.stdout.strip() + "," + rev
        except (subprocess.SubprocessError, OSError):
            pass
    return rev


def build_dir():
    target = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if not target.is_absolute():
        target = Path.cwd() / target
    return target / "perfbench"


def build():
    """Configures (once) and builds the program; returns its path."""
    out = build_dir()
    jobs = str(max(1, min(os.cpu_count() or 1, 4)))
    if not (out / "CMakeCache.txt").exists():
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        cmd = ["cmake", "-S", str(HERE), "-B", str(out),
               "-DCMAKE_BUILD_TYPE=Release", *generator]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            log("configure failed")
            sys.exit(1)
    cmd = ["cmake", "--build", str(out), "--target", "gridsub_perfbench",
           "-j", jobs]
    if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
        log("build failed")
        sys.exit(1)
    return out / "gridsub_perfbench"


def program_args(binary, workload, seed, seconds, trace, size, rev):
    return [str(binary), "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace),
            "--size", size, "--out", str(ROOT / ".bench_out"),
            "--revision", rev]


def smoke(binary, rev):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    want = {0: [m["name"] for m in spec["end_to_end"]],
            1: [m["name"] for m in spec["per_layer"]]}
    ok = True
    for workload in WORKLOADS:
        for trace in (0, 1):
            args = program_args(binary, workload, SMOKE_SEED, 1, trace,
                               "tiny", rev)
            proc = subprocess.run(args, capture_output=True, text=True,
                                  timeout=RUN_TIMEOUT_S)
            lines = proc.stdout.strip().splitlines()
            try:
                result = json.loads(lines[-1])
            except (IndexError, json.JSONDecodeError):
                result = {}
            problems = []
            if proc.returncode != 0:
                problems.append(f"exit code {proc.returncode}")
            if result.get("correct") is not True:
                problems += [l for l in lines if l.startswith("check FAILED")]
                problems.append("not correct")
            if result.get("failed", 1) != 0:
                problems.append(f"failed = {result.get('failed')}")
            if list(result.get("metrics", {})) != want[trace]:
                problems.append("metric names differ from BENCHMARK.json")
            status = "ok" if not problems else "FAIL: " + "; ".join(problems)
            print(f"smoke {workload} seed={SMOKE_SEED} trace={trace}: {status}",
                  flush=True)
            ok = ok and not problems
    return 0 if ok else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=20090611)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args()

    if not ((ROOT / "CMakeLists.txt").is_file()
            and (ROOT / "src" / "CMakeLists.txt").is_file()):
        log(f"no gridsub sources in {ROOT}; nothing to build")
        return 2

    binary = build()
    rev = revision()
    if args.smoke:
        return smoke(binary, rev)
    status = 0
    for workload in [args.workload] if args.workload else WORKLOADS:
        args_list = program_args(binary, workload, args.seed, args.seconds,
                                args.trace, "full", rev)
        try:
            code = subprocess.run(args_list, timeout=RUN_TIMEOUT_S).returncode
        except subprocess.TimeoutExpired:
            log(f"gridsub_perfbench exceeded {RUN_TIMEOUT_S} s on {workload}")
            code = 1
        status = status or code
    return status


if __name__ == "__main__":
    sys.exit(main())
