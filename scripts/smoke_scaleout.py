#!/usr/bin/env python3
"""Scale-out smoke: interrupted+resumed and sharded+merged campaign runs
must produce byte-identical JSON to the straight-through run.

Drives a real campaign bench binary (default: bench_ablation_sample_size,
whose cells are deterministic in the cell seed) through the three
workflows end to end:

  1. straight    — one uninterrupted run with --checkpoint-dir; the bench
                   writes the canonical <campaign>.json next to its
                   checkpoint;
  2. interrupted — the straight run's checkpoint is truncated (dropping
                   whole records plus leaving a partial trailing line,
                   i.e. exactly what kill -9 mid-append leaves) and the
                   bench is re-run on it, resuming the missing cells;
  3. sharded     — three processes each run --shard i/3 into a shared
                   directory and gridsub_campaign_merge folds the shard
                   checkpoints into one JSON;
  3b. shuffled   — the same shards with one shard's records reversed:
                   --window 2 must fail with the merge tool's stall
                   error, a --window of at least the campaign's cell
                   count must merge byte-identically, and a --window that
                   is not a positive integer must exit 2.

A staged bench (default: bench_table6_cross_week, whose tune stage
parameterizes the transfer campaign) then exercises stage-output
checkpointing the same way:

  4. staged kill — the published fit-stage output is cut back down to a
                   torn mid-fit .stage.ckpt and the bench re-run: it must
                   resume the fit cell-by-cell, republish the stage, and
                   print byte-identical tables + transfer JSON;
  5. staged shards — three sequential --shard i/3 runs share a directory;
                   shard 0 publishes the fit stage, shards 1-2 must LOAD
                   it (asserted on their stderr) instead of re-fitting,
                   and the streamed shard merge must reproduce the
                   straight run's transfer JSON.

Any byte difference between (2)/(3)/(3b)/(4)/(5) and its straight reference —
JSON or bench stdout — is a failure. Exercises the same binaries and
flags a multi-host user would, unlike the unit suites which drive the
library API.
"""

import argparse
import filecmp
import os
import shutil
import subprocess
import sys
import tempfile

CAMPAIGN = "ablation_sample_size"
STAGE = "table6_tune"
STAGED_CAMPAIGN = "table6_transfer"


def run(cmd, env_extra=None, **kwargs):
    env = dict(os.environ)
    env.pop("GRIDSUB_SHARD", None)
    env.pop("GRIDSUB_CHECKPOINT_DIR", None)
    env["GRIDSUB_BENCH_QUICK"] = "1"
    env.update(env_extra or {})
    print(f"[smoke] $ {' '.join(cmd)}"
          + (f"  ({' '.join(f'{k}={v}' for k, v in env_extra.items())})"
             if env_extra else ""), flush=True)
    return subprocess.run(cmd, env=env, check=True, text=True,
                          capture_output=True, **kwargs)


def fail(msg):
    print(f"[smoke] FAIL: {msg}", file=sys.stderr)
    return 1


def merge(args, *options):
    """Runs the merge tool; a failing exit is the caller's to judge."""
    cmd = [args.merge_tool, *options]
    print(f"[smoke] $ {' '.join(cmd)}", flush=True)
    return subprocess.run(cmd, text=True, capture_output=True)


def shuffled_flow(args, work, shards, ref_json, n_cells):
    """Flow 3b: the merge tool's --window contract on a reversed shard."""
    shuffled = os.path.join(work, "shuffled")
    shutil.copytree(shards, shuffled)
    first = os.path.join(shuffled, sorted(os.listdir(shuffled))[0])
    with open(first, "rb") as fh:
        header, *records = fh.readlines()
    with open(first, "wb") as fh:
        fh.write(header)
        fh.writelines(reversed(records))

    inputs = ["--dir", shuffled, "--name", CAMPAIGN]
    r = merge(args, *inputs, "--window", "2",
              "--out", os.path.join(work, "stalled.json"))
    if r.returncode != 1 or "not found within the reorder window" \
            not in r.stderr:
        return fail(f"--window 2 on a reversed shard did not stall cleanly "
                    f"(exit {r.returncode}, stderr: {r.stderr!r})")
    for window in (str(n_cells), "1000000000"):
        out = os.path.join(work, f"shuffled-{window}.json")
        r = merge(args, *inputs, "--window", window, "--out", out)
        if r.returncode != 0:
            return fail(f"--window {window} on a reversed shard failed "
                        f"(exit {r.returncode}, stderr: {r.stderr!r})")
        if not filecmp.cmp(out, ref_json, shallow=False):
            return fail(f"--window {window} merged JSON of a reversed shard "
                        "differs from straight run")
    for bad in ("-1", "0", "2.5", "12abc", "abc"):
        r = merge(args, *inputs, "--window", bad)
        if r.returncode != 2:
            return fail(f"--window {bad!r} exited {r.returncode}, not 2 "
                        f"(stderr: {r.stderr!r})")
    print(f"[smoke] ok   reversed shard: --window 2 stalls cleanly, "
          f"--window >= {n_cells} cells is byte-identical, bad --window "
          "values exit 2")
    return 0


def staged_flows(args, work, staged, staged_resume, staged_shards):
    """Flows 4 and 5: fit-stage kill+resume and stage sharing across
    shards, driven through the staged bench binary."""
    staged_bench = os.path.join(args.bin_dir, args.staged_bench)

    # 4a. Straight staged run: publishes <stage>.stage and writes the
    # canonical transfer JSON next to it.
    s_ref = run([staged_bench], {"GRIDSUB_CHECKPOINT_DIR": staged})
    s_ref_json = os.path.join(staged, f"{STAGED_CAMPAIGN}.json")
    stage_file = os.path.join(staged, f"{STAGE}.stage")
    if not os.path.exists(s_ref_json):
        return fail(f"staged straight run wrote no {s_ref_json}")
    if not os.path.exists(stage_file):
        return fail(f"staged straight run published no {stage_file}")

    # 4b. Mid-fit kill: a published .stage file is one identity header
    # line followed by a complete cell checkpoint, so dropping the header
    # and truncating mid-record reconstructs exactly what kill -9 leaves
    # behind in <stage>.stage.ckpt before the stage was ever published.
    with open(stage_file, "rb") as fh:
        ckpt_lines = fh.readlines()[1:]
    n_keep = 1 + (len(ckpt_lines) - 1) // 2
    with open(os.path.join(staged_resume, f"{STAGE}.stage.ckpt"),
              "wb") as fh:
        fh.writelines(ckpt_lines[:n_keep])
        fh.write(ckpt_lines[n_keep][:max(len(ckpt_lines[n_keep]) - 20, 5)])
    s_resumed = run([staged_bench],
                    {"GRIDSUB_CHECKPOINT_DIR": staged_resume})
    if "(resumed" not in s_resumed.stderr:
        return fail("staged resume did not report resumed fit cells "
                    f"(stderr: {s_resumed.stderr!r})")
    if s_resumed.stdout != s_ref.stdout:
        return fail("staged resume stdout differs from straight run")
    if not filecmp.cmp(os.path.join(staged_resume,
                                    f"{STAGED_CAMPAIGN}.json"),
                       s_ref_json, shallow=False):
        return fail("staged resume transfer JSON differs from straight run")
    print(f"[smoke] ok   killed-mid-fit stage resumed byte-identically "
          f"(resumed {n_keep - 1} of {len(ckpt_lines) - 1} fit cells)")

    # 5. Staged shards: run sequentially so shard 0 publishes the fit
    # stage before its siblings start — they must load it, not re-fit.
    for i in range(3):
        r = run([staged_bench], {"GRIDSUB_CHECKPOINT_DIR": staged_shards,
                                 "GRIDSUB_SHARD": f"{i}/3"})
        if i > 0 and f"[stage] {STAGE}: loaded" not in r.stderr:
            return fail(f"shard {i} re-fit the stage instead of loading "
                        f"shard 0's (stderr: {r.stderr!r})")
    merged = os.path.join(work, "staged-merged.json")
    run([args.merge_tool, "--dir", staged_shards,
         "--name", STAGED_CAMPAIGN, "--out", merged])
    if not filecmp.cmp(merged, s_ref_json, shallow=False):
        return fail("staged 3-shard merged JSON differs from straight run")
    print("[smoke] ok   3 shards shared one fit stage; streamed merge is "
          "byte-identical")
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--bin-dir", required=True,
                        help="directory holding the bench binaries")
    parser.add_argument("--merge-tool", required=True,
                        help="path to gridsub_campaign_merge")
    parser.add_argument("--bench", default=f"bench_{CAMPAIGN}")
    parser.add_argument("--staged-bench", default="bench_table6_cross_week",
                        help="staged bench for the fit-stage kill/shard "
                             "flows (pass '' to skip them)")
    parser.add_argument("--keep", action="store_true",
                        help="keep the work directory for inspection")
    args = parser.parse_args()

    bench = os.path.join(args.bin_dir, args.bench)
    work = tempfile.mkdtemp(prefix="gridsub-smoke-scaleout-")
    straight = os.path.join(work, "straight")
    resume = os.path.join(work, "resume")
    shards = os.path.join(work, "shards")
    staged = os.path.join(work, "staged-straight")
    staged_resume = os.path.join(work, "staged-resume")
    staged_shards = os.path.join(work, "staged-shards")
    for d in (straight, resume, shards,
              staged, staged_resume, staged_shards):
        os.makedirs(d)

    try:
        # 1. Straight-through run (the reference).
        ref = run([bench], {"GRIDSUB_CHECKPOINT_DIR": straight})
        ref_json = os.path.join(straight, f"{CAMPAIGN}.json")
        ref_ckpt = os.path.join(straight, f"{CAMPAIGN}.ckpt")
        if not os.path.exists(ref_json):
            return fail(f"straight run wrote no {ref_json}")

        # 2. Interrupted + resumed: keep the header and the first half of
        # the records, then clip 20 bytes off the next record to fake the
        # mid-append kill.
        with open(ref_ckpt, "rb") as fh:
            lines = fh.readlines()
        n_keep = 1 + (len(lines) - 1) // 2
        with open(os.path.join(resume, f"{CAMPAIGN}.ckpt"), "wb") as fh:
            fh.writelines(lines[:n_keep])
            fh.write(lines[n_keep][:max(len(lines[n_keep]) - 20, 5)])
        resumed = run([bench], {"GRIDSUB_CHECKPOINT_DIR": resume})
        if resumed.stdout != ref.stdout:
            return fail("resumed bench stdout differs from straight run")
        if not filecmp.cmp(os.path.join(resume, f"{CAMPAIGN}.json"),
                           ref_json, shallow=False):
            return fail("resumed campaign JSON differs from straight run")
        print(f"[smoke] ok   interrupted+resumed run is byte-identical "
              f"(resumed {len(lines) - n_keep} of {len(lines) - 1} cells)")

        # 3. Three shards + merge.
        for i in range(3):
            run([bench], {"GRIDSUB_CHECKPOINT_DIR": shards,
                          "GRIDSUB_SHARD": f"{i}/3"})
        merged = os.path.join(work, "merged.json")
        run([args.merge_tool, "--dir", shards, "--name", CAMPAIGN,
             "--out", merged])
        if not filecmp.cmp(merged, ref_json, shallow=False):
            return fail("3-shard merged JSON differs from straight run")
        print("[smoke] ok   3-shard merged run is byte-identical")

        code = shuffled_flow(args, work, shards, ref_json, len(lines) - 1)
        if code:
            return code

        if args.staged_bench:
            code = staged_flows(args, work, staged, staged_resume,
                                staged_shards)
            if code:
                return code
        print("[smoke] scale-out smoke passed")
        return 0
    except subprocess.CalledProcessError as e:
        sys.stderr.write(e.stderr or "")
        return fail(f"command failed with exit code {e.returncode}")
    finally:
        if args.keep:
            print(f"[smoke] work dir kept at {work}")
        else:
            shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
