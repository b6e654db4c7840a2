#!/usr/bin/env python3
"""Find library functions that no shipped binary links (no external deps).

A function in src/ that only the tests reach is a candidate for deletion:
it costs reading and maintenance, yet no bench, example, tool or the
benchmark program can run it.  A function that nothing reaches, tests
included, is dead code.  This script finds both at link level.

It configures and builds two trees under --build-dir (default
build-scan/, git-ignored):

  main/       the repository with GRIDSUB_BUILD_TESTS=ON: libgridsub,
              every bench, example and tool, and the test executables
              (everything under main/tests/);
  perfbench/  the benchmark program, perfbench/gridsub_perfbench.

Both compile at -O0 -g -ffunction-sections -fdata-sections and link with
-Wl,--gc-sections, so an executable defines a library function only if
some path from its main() reaches it, and -O0 keeps calls out of line so
no caller hides behind an inlined copy.  The scan then lists every
global function symbol (nm type T or W) of libgridsub.a that

  * has a mangled name starting _ZN7gridsub or _ZNK7gridsub,
  * is located (nm -l) in a src/**/*.cpp file, and
  * is defined in no shipped executable (one outside main/tests/).

Symbols that demangle alike (complete- and base-object constructors,
say) count as one function, reached if any of them is.

Two kinds of function are out of its reach.  Functions defined in
headers (templates, inline and constexpr functions, in-class member
definitions) are emitted into each object that uses them, not located
in a src/**/*.cpp file, so the scan cannot tell a test-only one from a
shipped one.  Virtual functions are linked through their class's
vtable whenever the class is constructed, whether or not anything
calls them, so an override no caller reaches still looks shipped (the
deleted clone() overrides were such).  Comparing the -O0 test
executables against the shipped ones by hand finds those.

A listed function that no executable defines, tests included, is an
error whatever the allowlist says: nothing can run it, so it goes.
Every other entry must be on scripts/test_only_allowlist.txt with a
reason; the script fails on an entry missing from it, and on an
allowlist line the scan no longer reports, so the list cannot go stale.

  python3 scripts/test_only_scan.py [--build-dir DIR] [--jobs N]

Exit code 0 when the scan matches the allowlist, 1 otherwise.
"""

import argparse
import os
import re
import subprocess
import sys

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ALLOWLIST = os.path.join(REPO, "scripts", "test_only_allowlist.txt")
REASONS = ("recovery", "reference", "api")

SCAN_FLAGS = [
    "-DCMAKE_BUILD_TYPE=Debug",
    "-DCMAKE_CXX_FLAGS_DEBUG=-O0 -g",
    "-DCMAKE_CXX_FLAGS=-ffunction-sections -fdata-sections",
    "-DCMAKE_EXE_LINKER_FLAGS=-Wl,--gc-sections",
]
LIB_PREFIXES = ("_ZN7gridsub", "_ZNK7gridsub")
SRC_CPP_RE = re.compile(r"/src/.+\.cpp:\d+$")


def log(msg):
    print(f"[test-only] {msg}", file=sys.stderr, flush=True)


def run(cmd, **kwargs):
    return subprocess.run(cmd, check=True, text=True, **kwargs)


def build(build_dir, jobs):
    """Configures and builds both trees; returns (main dir, perfbench dir)."""
    main_dir = os.path.join(build_dir, "main")
    perf_dir = os.path.join(build_dir, "perfbench")
    for source, out, extra in (
            (REPO, main_dir, ["-DGRIDSUB_BUILD_TESTS=ON"]),
            (os.path.join(REPO, "perfbench"), perf_dir, [])):
        log(f"configure {os.path.relpath(out, REPO)}")
        run(["cmake", "-S", source, "-B", out, *SCAN_FLAGS, *extra],
            stdout=subprocess.DEVNULL)
        log(f"build {os.path.relpath(out, REPO)}")
        run(["cmake", "--build", out, "-j", str(jobs)],
            stdout=subprocess.DEVNULL)
    return main_dir, perf_dir


def executables(*roots):
    """ELF executables under `roots`, skipping CMake's compiler probes."""
    found = []
    for root in roots:
        for dirpath, dirnames, files in os.walk(root):
            dirnames[:] = [d for d in dirnames if d != "CMakeFiles"]
            for name in files:
                path = os.path.join(dirpath, name)
                if not os.access(path, os.X_OK) or os.path.islink(path):
                    continue
                with open(path, "rb") as fh:
                    if fh.read(4) == b"\x7fELF":
                        found.append(path)
    return sorted(found)


def library_functions(archive):
    """{mangled name: src-relative location} of the library's functions."""
    out = run(["nm", "--defined-only", "-l", archive],
              capture_output=True).stdout
    functions = {}
    for line in out.splitlines():
        fields = line.split(None, 2)
        if len(fields) != 3 or fields[1] not in ("T", "W"):
            continue
        name, _, location = fields[2].partition("\t")
        if not name.startswith(LIB_PREFIXES):
            continue
        if not SRC_CPP_RE.search(location):
            continue
        functions[name] = location[location.rindex("/src/") + 1:]
    return functions


def defined_symbols(binaries):
    """Union of the symbols that `binaries` define."""
    symbols = set()
    for binary in binaries:
        out = run(["nm", "--defined-only", binary],
                  capture_output=True).stdout
        symbols.update(line.split()[-1] for line in out.splitlines()
                       if line.strip())
    return symbols


def demangle(names):
    out = run(["c++filt"], input="\n".join(names) + "\n",
              capture_output=True).stdout
    return dict(zip(names, out.splitlines()))


def read_allowlist():
    """{demangled name: (reason, line number)}; exits on a malformed line."""
    entries = {}
    with open(ALLOWLIST, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            reason, _, name = line.partition(" ")
            name = name.strip()
            if reason not in REASONS or not name:
                sys.exit(f"{ALLOWLIST}:{lineno}: expected "
                         f"'<{'|'.join(REASONS)}> <function>', got {line!r}")
            entries[name] = (reason, lineno)
    return entries


def main():
    parser = argparse.ArgumentParser(
        description=__doc__.split("\n\n")[0],
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--build-dir", default=os.path.join(REPO, "build-scan"),
                        help="scan build root (default: build-scan/)")
    parser.add_argument("--jobs", type=int, default=os.cpu_count() or 1,
                        help="parallel build jobs (default: all CPUs)")
    args = parser.parse_args()

    main_dir, perf_dir = build(os.path.abspath(args.build_dir), args.jobs)
    archive = os.path.join(main_dir, "src", "libgridsub.a")
    functions = library_functions(archive)
    tests_dir = os.path.join(main_dir, "tests") + os.sep
    binaries = executables(main_dir, perf_dir)
    tests = [b for b in binaries if b.startswith(tests_dir)]
    shipped = [b for b in binaries if not b.startswith(tests_dir)]
    reached = defined_symbols(shipped)
    tested = defined_symbols(tests)
    log(f"{len(functions)} library functions, {len(shipped)} shipped "
        f"and {len(tests)} test executables")

    names = demangle(sorted(functions))
    by_function = {}
    for mangled, pretty in names.items():
        by_function.setdefault(pretty, []).append(mangled)
    test_only, dead = {}, {}
    for pretty, mangled in by_function.items():
        if any(m in reached for m in mangled):
            continue
        where = test_only if any(m in tested for m in mangled) else dead
        where[pretty] = functions[mangled[0]]

    allowed = read_allowlist()
    errors = [f"linked by nothing, tests included: {pretty} ({dead[pretty]})"
              for pretty in sorted(dead, key=lambda p: (dead[p], p))]
    for pretty in sorted(test_only, key=lambda p: (test_only[p], p)):
        if pretty in allowed:
            print(f"{allowed[pretty][0]:9}  {pretty}  ({test_only[pretty]})")
        else:
            errors.append(f"not on the allowlist: {pretty} "
                          f"({test_only[pretty]})")
    for pretty, (_, lineno) in sorted(allowed.items(), key=lambda e: e[1][1]):
        if pretty not in test_only and pretty not in dead:
            errors.append(f"{os.path.relpath(ALLOWLIST, REPO)}:{lineno}: "
                          f"stale, a shipped binary reaches it or it is "
                          f"gone: {pretty}")
    for error in errors:
        log(error)
    log(f"{len(test_only)} function(s) only tests reach, {len(dead)} "
        f"nothing reaches, {len(errors)} problem(s)")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
