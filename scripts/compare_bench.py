#!/usr/bin/env python3
"""Diff two gridsub bench JSON files — micro or report format.

Two input shapes are recognised automatically:

* google-benchmark JSON (BENCH_perf_micro.json): benchmarks matched by
  name, times normalised to nanoseconds, speedup factor per row.
* gridsub-bench-v1 reports (scripts/run_benches.py output): benches
  matched by name, wall seconds AND peak RSS diffed side by side, so a
  memory regression in the streaming campaign pipeline blocks the same
  way a time regression does.

Both shapes warn when the two files come from different hosts, build
types or CPU counts (`num_cpus` / `cpu_count`): their times are then not
directly comparable.

Use --format markdown to publish the table as a CI job summary.

Exit code is 0 unless a threshold is given: --fail-below X fails when any
benchmark's speedup falls below X (i.e. a regression worse than 1/X);
--fail-rss-above Y fails when any bench's peak RSS grew by more than a
factor of Y (report format only). By default the diff is informational —
bench noise on shared CI runners should not block merges.
"""

import argparse
import json
import sys

UNIT_TO_NS = {"ns": 1.0, "us": 1e3, "ms": 1e6, "s": 1e9}


def load_payload(path):
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        sys.exit(f"compare_bench: cannot read {path}: {exc}")


def load(path):
    payload = load_payload(path)
    benches = {}
    for entry in payload.get("benchmarks", []):
        if entry.get("run_type") == "aggregate":
            continue  # compare raw runs, not mean/median/stddev rows
        unit = UNIT_TO_NS.get(entry.get("time_unit", "ns"))
        if unit is None or "real_time" not in entry:
            continue
        benches[entry["name"]] = {
            "ns": entry["real_time"] * unit,
            "items_per_second": entry.get("items_per_second"),
        }
    return payload.get("context", {}), benches


def fmt_time(ns):
    for unit, scale in (("s", 1e9), ("ms", 1e6), ("us", 1e3)):
        if ns >= scale:
            return f"{ns / scale:.2f} {unit}"
    return f"{ns:.0f} ns"


def is_report(payload):
    return payload.get("schema") == "gridsub-bench-v1"


def load_report(payload):
    """Extracts {name: {wall, rss_kb}} from a gridsub-bench-v1 report,
    skipping benches that errored (their numbers mean nothing)."""
    benches = {}
    for name, entry in payload.get("results", {}).items():
        if entry.get("error") or entry.get("exit_code") != 0:
            continue
        benches[name] = {
            "wall": entry.get("wall_seconds"),
            "rss_kb": entry.get("peak_rss_kb"),  # None on pre-RSS reports
        }
    return benches


def fmt_rss(kb):
    if kb is None:
        return "-"
    if kb >= 1024 * 1024:
        return f"{kb / (1024 * 1024):.2f} GiB"
    if kb >= 1024:
        return f"{kb / 1024:.1f} MiB"
    return f"{kb} KiB"


def compare_reports(base_payload, new_payload, md, fail_below,
                    fail_rss_above):
    base = load_report(base_payload)
    new = load_report(new_payload)
    names = [n for n in base if n in new]

    rows = []
    worst_speed = None
    worst_rss = None
    for name in names:
        b, n = base[name], new[name]
        speedup = (b["wall"] / n["wall"]
                   if b["wall"] and n["wall"] else None)
        rss_ratio = (n["rss_kb"] / b["rss_kb"]
                     if b["rss_kb"] and n["rss_kb"] else None)
        rows.append((name, b, n, speedup, rss_ratio))
        if speedup is not None and (worst_speed is None
                                    or speedup < worst_speed):
            worst_speed = speedup
        if rss_ratio is not None and (worst_rss is None
                                      or rss_ratio > worst_rss):
            worst_rss = rss_ratio

    if md:
        print("| bench | wall (base) | wall (cand) | speedup "
              "| RSS (base) | RSS (cand) | RSS ratio |")
        print("|---|---:|---:|---:|---:|---:|---:|")
    else:
        width = max((len(n) for n in names), default=12)
        print(f"{'bench':<{width}}  {'wall base':>10}  {'wall cand':>10}  "
              f"{'speedup':>8}  {'rss base':>10}  {'rss cand':>10}  "
              f"{'rss ratio':>9}")
    for name, b, n, speedup, rss_ratio in rows:
        speed_s = f"{speedup:.2f}x" if speedup is not None else "-"
        rss_s = f"{rss_ratio:.2f}x" if rss_ratio is not None else "-"
        mark = ""
        if rss_ratio is not None and rss_ratio >= 1.5:
            mark = " ⚠️ RSS" if md else " (RSS GREW)"
        elif speedup is not None and speedup <= 0.8:
            mark = " ⚠️" if md else " (SLOWER)"
        if md:
            print(f"| `{name}` | {b['wall']}s | {n['wall']}s | {speed_s} "
                  f"| {fmt_rss(b['rss_kb'])} | {fmt_rss(n['rss_kb'])} "
                  f"| {rss_s}{mark} |")
        else:
            print(f"{name:<{width}}  {b['wall']:>9}s  {n['wall']:>9}s  "
                  f"{speed_s:>8}  {fmt_rss(b['rss_kb']):>10}  "
                  f"{fmt_rss(n['rss_kb']):>10}  {rss_s:>9}{mark}")

    prefix = "- " if md else ""
    for name in sorted(set(base) - set(new)):
        print(f"{prefix}only in baseline: {name}")
    for name in sorted(set(new) - set(base)):
        print(f"{prefix}only in candidate: {name}")
    for key in ("gridsub_build_type", "quick", "host", "cpu_count"):
        a, b = base_payload.get(key), new_payload.get(key)
        if a != b:
            print(f"{prefix}warning: {key} differs: baseline={a} "
                  f"candidate={b}")

    if not rows:
        print(f"{prefix}no common benches to compare")
        return 1
    if fail_below is not None and worst_speed is not None \
            and worst_speed < fail_below:
        print(f"{prefix}FAIL: worst speedup {worst_speed:.2f}x is below "
              f"--fail-below {fail_below}")
        return 1
    if fail_rss_above is not None and worst_rss is not None \
            and worst_rss > fail_rss_above:
        print(f"{prefix}FAIL: worst peak-RSS ratio {worst_rss:.2f}x is "
              f"above --fail-rss-above {fail_rss_above}")
        return 1
    return 0


def context_warnings(base_ctx, new_ctx):
    warnings = []
    # library_build_type describes google-benchmark itself (often a debug
    # distro build); only the library under test must be Release.
    for key in ("gridsub_build_type", "library_build_type"):
        a, b = base_ctx.get(key, "?"), new_ctx.get(key, "?")
        if str(a).lower() != str(b).lower():
            warnings.append(f"{key} differs: baseline={a} candidate={b}")
    gridsub_type = str(new_ctx.get("gridsub_build_type", "?"))
    if gridsub_type.lower() not in ("release", "?"):
        warnings.append(
            f"candidate gridsub_build_type is '{gridsub_type}', not Release")
    if base_ctx.get("host_name") != new_ctx.get("host_name"):
        warnings.append(
            f"hosts differ: baseline={base_ctx.get('host_name', '?')} "
            f"candidate={new_ctx.get('host_name', '?')} — times are not "
            "directly comparable")
    if base_ctx.get("num_cpus") != new_ctx.get("num_cpus"):
        warnings.append(
            f"CPU counts differ: baseline={base_ctx.get('num_cpus', '?')} "
            f"candidate={new_ctx.get('num_cpus', '?')} — times are not "
            "directly comparable")
    return warnings


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("baseline", help="baseline BENCH_perf_micro.json")
    parser.add_argument("candidate", help="candidate BENCH_perf_micro.json")
    parser.add_argument("--format", choices=("text", "markdown"),
                        default="text")
    parser.add_argument("--fail-below", type=float, default=None,
                        metavar="X",
                        help="exit 1 if any benchmark's speedup is below X "
                             "(e.g. 0.8 tolerates a 20%% regression)")
    parser.add_argument("--fail-rss-above", type=float, default=None,
                        metavar="Y",
                        help="exit 1 if any bench's peak RSS grew by more "
                             "than a factor of Y (gridsub-bench-v1 "
                             "reports only; e.g. 1.5 tolerates +50%%)")
    args = parser.parse_args()

    base_payload = load_payload(args.baseline)
    new_payload = load_payload(args.candidate)
    if is_report(base_payload) or is_report(new_payload):
        if not (is_report(base_payload) and is_report(new_payload)):
            sys.exit("compare_bench: cannot mix a gridsub-bench-v1 report "
                     "with a google-benchmark micro JSON")
        return compare_reports(base_payload, new_payload,
                               args.format == "markdown",
                               args.fail_below, args.fail_rss_above)

    base_ctx, base = load(args.baseline)
    new_ctx, new = load(args.candidate)

    names = [n for n in base if n in new]
    only_base = sorted(set(base) - set(new))
    only_new = sorted(set(new) - set(base))

    rows = []
    worst = None
    for name in names:
        speedup = base[name]["ns"] / new[name]["ns"]
        rows.append((name, base[name]["ns"], new[name]["ns"], speedup))
        if worst is None or speedup < worst:
            worst = speedup

    md = args.format == "markdown"
    if md:
        print("| benchmark | baseline | candidate | speedup |")
        print("|---|---:|---:|---:|")
    else:
        width = max((len(n) for n in names), default=12)
        print(f"{'benchmark':<{width}}  {'baseline':>10}  "
              f"{'candidate':>10}  speedup")
    for name, b_ns, n_ns, speedup in rows:
        mark = ""
        if speedup >= 1.25:
            mark = " (faster)" if not md else " 🚀"
        elif speedup <= 0.8:
            mark = " (SLOWER)" if not md else " ⚠️"
        if md:
            print(f"| `{name}` | {fmt_time(b_ns)} | {fmt_time(n_ns)} | "
                  f"{speedup:.2f}x{mark} |")
        else:
            print(f"{name:<{width}}  {fmt_time(b_ns):>10}  "
                  f"{fmt_time(n_ns):>10}  {speedup:.2f}x{mark}")

    prefix = "- " if md else ""
    for name in only_base:
        print(f"{prefix}only in baseline: {name}")
    for name in only_new:
        print(f"{prefix}only in candidate: {name}")
    for warning in context_warnings(base_ctx, new_ctx):
        print(f"{prefix}warning: {warning}")

    if not rows:
        print(f"{prefix}no common benchmarks to compare")
        return 1
    if args.fail_below is not None and worst < args.fail_below:
        print(f"{prefix}FAIL: worst speedup {worst:.2f}x is below "
              f"--fail-below {args.fail_below}")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
