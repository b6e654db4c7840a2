#!/usr/bin/env python3
"""Docs link-check + markdown lint (no external deps, CI-friendly).

Checks README.md, ROADMAP.md, and docs/**/*.md:

  * every relative markdown link / image target exists in the repo
    (http(s)/mailto links are not fetched — CI must not depend on the
    network);
  * #anchors into markdown files (same-file or cross-file) match a real
    heading, using GitHub's slug rules;
  * code fences are balanced;
  * no trailing whitespace.

Also cross-checks the determinism-lint waivers: every
`gridsub-lint: allow(<rule>)` in src/, tools/, and tests/ must name a
rule that exists in scripts/lint_determinism.py's rule table, so a
renamed or retired rule cannot leave stale allows behind.  (The linter
itself flags unknown allows, but only inside the directories it scans;
this sweep covers the whole tree.)

Also cross-checks the test count: docs/architecture.md's "N ctest tests
(M GoogleTest suites ..." must match tests/CMakeLists.txt, where M is
the number of suites in the GRIDSUB_TESTS_* lists and N adds the
literally named add_test() tooling entries and one golden test per
GRIDSUB_GOLDEN_BENCHES entry.

Exit code 1 with a file:line report on any violation.
"""

import os
import re
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
from lint_determinism import EXTENSIONS, RULES  # noqa: E402

ALLOW_NAME_RE = re.compile(r"gridsub-lint:\s*allow(?:-file)?\(\s*([\w-]+)\s*\)")

TEST_LIST_RE = re.compile(r"\bset\(\s*GRIDSUB_TESTS_\w+(.*?)\)", re.S)
GOLDEN_LIST_RE = re.compile(r"\bset\(\s*GRIDSUB_GOLDEN_BENCHES(.*?)\)", re.S)
# A literal name only: the golden loop's add_test(NAME golden_${bench} ...)
# is counted through GOLDEN_LIST_RE instead.
TOOLING_TEST_RE = re.compile(r"add_test\(\s*NAME\s+([A-Za-z_][\w-]*)\s")
CMAKE_COMMENT_RE = re.compile(r"(^|\s)#[^\n]*")
DOC_TEST_COUNT_RE = re.compile(r"(\d+) ctest tests \((\d+) GoogleTest suites")

LINK_RE = re.compile(r"!?\[[^\]]*\]\(([^)\s]+)(?:\s+\"[^\"]*\")?\)")
HEADING_RE = re.compile(r"^#{1,6}\s+(.*?)\s*#*\s*$")


def slugify(heading):
    """GitHub-style anchor slug: lowercase, drop punctuation, dash spaces."""
    text = re.sub(r"`([^`]*)`", r"\1", heading)
    text = re.sub(r"[^\w\- ]", "", text, flags=re.UNICODE)
    return text.strip().lower().replace(" ", "-")


def strip_code(lines):
    """Blank out fenced code blocks so links inside them are not checked."""
    out, fenced = [], False
    for line in lines:
        if line.lstrip().startswith("```"):
            fenced = not fenced
            out.append("")
            continue
        out.append("" if fenced else line)
    return out


def heading_slugs(path):
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    slugs, seen = set(), {}
    for line in strip_code(lines):
        m = HEADING_RE.match(line)
        if not m:
            continue
        slug = slugify(m.group(1))
        # GitHub de-duplicates repeated headings with -1, -2, ...
        if slug in seen:
            seen[slug] += 1
            slug = f"{slug}-{seen[slug]}"
        else:
            seen[slug] = 0
        slugs.add(slug)
    return slugs


def check_file(repo_root, path, errors):
    with open(path, encoding="utf-8") as fh:
        raw = fh.read().splitlines()

    fence_count = sum(1 for l in raw if l.lstrip().startswith("```"))
    if fence_count % 2 != 0:
        errors.append(f"{path}: unbalanced code fences")
    for lineno, line in enumerate(raw, 1):
        if line != line.rstrip():
            errors.append(f"{path}:{lineno}: trailing whitespace")

    base = os.path.dirname(path)
    for lineno, line in enumerate(strip_code(raw), 1):
        for target in LINK_RE.findall(line):
            if re.match(r"^[a-z][a-z0-9+.-]*:", target):  # URL scheme
                continue
            target, _, anchor = target.partition("#")
            dest = path if not target else os.path.normpath(
                os.path.join(base, target))
            if target and not os.path.exists(dest):
                errors.append(f"{path}:{lineno}: broken link '{target}'")
                continue
            if anchor and dest.endswith(".md"):
                if anchor not in heading_slugs(dest):
                    errors.append(
                        f"{path}:{lineno}: anchor '#{anchor}' not found "
                        f"in {os.path.relpath(dest, repo_root)}")


def check_lint_allows(repo_root, errors):
    """Flag allow() directives naming rules the linter no longer has."""
    fixture_dir = os.path.join(repo_root, "tests", "lint_fixtures")
    for top in ("src", "tools", "tests"):
        root = os.path.join(repo_root, top)
        if not os.path.isdir(root):
            continue
        for dirpath, _dirnames, files in os.walk(root):
            if os.path.abspath(dirpath).startswith(fixture_dir):
                continue  # fixtures contain intentionally-broken allows
            for name in sorted(files):
                if not name.endswith(EXTENSIONS):
                    continue
                path = os.path.join(dirpath, name)
                with open(path, encoding="utf-8") as fh:
                    for lineno, line in enumerate(fh, 1):
                        for rule in ALLOW_NAME_RE.findall(line):
                            if rule not in RULES:
                                errors.append(
                                    f"{os.path.relpath(path, repo_root)}"
                                    f":{lineno}: stale allow — rule "
                                    f"'{rule}' is not in "
                                    "lint_determinism.py's rule table")


def count_registered_tests(cmake_path):
    """(GoogleTest suites, other tests) registered in tests/CMakeLists.txt:
    the other tests are the tooling checks plus one golden per bench."""
    with open(cmake_path, encoding="utf-8") as fh:
        text = CMAKE_COMMENT_RE.sub(r"\1", fh.read())
    suites = sum(len(body.split()) for body in TEST_LIST_RE.findall(text))
    goldens = sum(len(body.split()) for body in GOLDEN_LIST_RE.findall(text))
    return suites, len(TOOLING_TEST_RE.findall(text)) + goldens


def check_test_counts(repo_root, errors):
    """Flag a docs/architecture.md test count that tests/ no longer has."""
    cmake = os.path.join(repo_root, "tests", "CMakeLists.txt")
    doc = os.path.join(repo_root, "docs", "architecture.md")
    if not (os.path.exists(cmake) and os.path.exists(doc)):
        return
    suites, tooling = count_registered_tests(cmake)
    rel = os.path.relpath(doc, repo_root)
    found = False
    with open(doc, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            for m in DOC_TEST_COUNT_RE.finditer(line):
                found = True
                total, gtest = int(m.group(1)), int(m.group(2))
                if (total, gtest) != (suites + tooling, suites):
                    errors.append(
                        f"{rel}:{lineno}: says {total} ctest tests "
                        f"({gtest} GoogleTest suites), but "
                        f"tests/CMakeLists.txt registers "
                        f"{suites + tooling} ({suites} GoogleTest suites "
                        f"+ {tooling} tooling and golden tests)")
    if not found:
        errors.append(f"{rel}: no 'N ctest tests (M GoogleTest suites' "
                      "count found to check against tests/CMakeLists.txt")


def main():
    repo_root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    targets = [os.path.join(repo_root, "README.md"),
               os.path.join(repo_root, "ROADMAP.md")]
    docs_dir = os.path.join(repo_root, "docs")
    if os.path.isdir(docs_dir):
        for dirpath, _, files in os.walk(docs_dir):
            targets.extend(os.path.join(dirpath, f) for f in sorted(files)
                           if f.endswith(".md"))

    errors = []
    for path in targets:
        if not os.path.exists(path):
            errors.append(f"{path}: missing")
            continue
        check_file(repo_root, path, errors)
    check_lint_allows(repo_root, errors)
    check_test_counts(repo_root, errors)

    for error in errors:
        print(f"[docs] {error}", file=sys.stderr)
    checked = ", ".join(os.path.relpath(p, repo_root) for p in targets)
    if errors:
        print(f"[docs] {len(errors)} problem(s) in: {checked}",
              file=sys.stderr)
        return 1
    print(f"[docs] ok: {checked}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
