#!/usr/bin/env python3
"""Bad-input wall for the command-line tools.

Runs each tool on inputs that used to abort it, overflow a cast or pass
unchecked, and requires a clean end: exit status 1 (a library error) or 2
(a usage error), exactly one line on stderr, and no signal.

    python3 scripts/check_cli_errors.py --bin-dir build/tools

Exits 0 when every case ends cleanly, 1 otherwise.
"""

import argparse
import os
import subprocess
import sys
import tempfile


def cases(trace, missing):
    plan = ["gridsub_plan", "--in", trace]
    custom = ["gridsub_tracegen", "--mean", "500", "--stddev", "700"]
    swf = ["gridsub_swfconvert", "--in", trace]
    return [
        plan + ["--max-b", "0"],
        plan + ["--max-b", "3000000000"],
        plan + ["--step", "0"],
        plan + ["--step", "-5"],
        plan + ["--step", "nan"],
        plan + ["--objective", "latency", "--budget", "nan"],
        ["gridsub_plan", "--in", missing],
        ["gridsub_fit", "--in", missing],
        custom + ["--probes", "0"],
        custom + ["--probes", "-5"],
        custom + ["--rho", "2"],
        ["gridsub_tracegen", "--dataset", "nope"],
        swf + ["--max-jobs", "-1"],
        swf + ["--user", "2.5"],
        swf + ["--group", "1e30"],
        swf + ["--seed", "nan"],
    ]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--bin-dir", required=True,
                        help="directory holding the built gridsub tools")
    args = parser.parse_args()
    failures = 0
    with tempfile.TemporaryDirectory() as tmp:
        trace = os.path.join(tmp, "t.csv")
        subprocess.run([os.path.join(args.bin_dir, "gridsub_tracegen"),
                        "--dataset", "2007-51", "--out", trace],
                       check=True, capture_output=True, timeout=60)
        missing = os.path.join(tmp, "missing.csv")
        for argv in cases(trace, missing):
            shown = " ".join(argv).replace(tmp, "$TMP")
            run = subprocess.run(
                [os.path.join(args.bin_dir, argv[0]), *argv[1:]],
                stdin=subprocess.DEVNULL, capture_output=True, text=True,
                timeout=60)
            lines = run.stderr.splitlines()
            if run.returncode in (1, 2) and len(lines) == 1:
                print(f"ok    exit {run.returncode}: {shown}")
                continue
            failures += 1
            how = (f"signal {-run.returncode}" if run.returncode < 0
                   else f"exit {run.returncode}")
            print(f"FAIL  {how}, {len(lines)} stderr lines: {shown}")
            for line in lines[:5]:
                print(f"        {line}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
