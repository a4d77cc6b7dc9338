#!/usr/bin/env python3
"""End-to-end test for tools/adios_lint against the fixture corpus.

Every fixture line carrying a ``// expect: <rule>`` marker (in a source)
or a ``<!-- expect: <rule> -->`` marker (in a docs table) must produce
exactly one finding of that rule on that line, and the analyzer must
produce nothing else. The fixture tree's ``tests/`` and ``examples/``
hold no markers: they only assign knobs, which the default-off-knob rule
reads. Also checks the ``--stats`` config-field counts and the exit-code
contract:

  0  no findings (clean subset run)
  1  findings printed
  2  usage error (unknown rule)

Run directly (``python3 tests/adios_lint_test.py``) or via ctest as the
``adios_lint_fixtures`` test. Stdlib only.
"""

import os
import re
import subprocess
import sys

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
FIXTURES = os.path.join(REPO_ROOT, "tests", "adios_lint_fixtures")
LINT = os.path.join(REPO_ROOT, "tools", "adios_lint")

EXPECT_RE = re.compile(r"//\s*expect:\s*([a-z-]+)")
MD_EXPECT_RE = re.compile(r"<!--\s*expect:\s*([a-z-]+)\s*-->")
FINDING_RE = re.compile(r"^(.*?):(\d+): \[([a-z-]+)\] (.*)$")


def collect_expected():
    """Scan fixture sources and docs for expect markers."""
    expected = set()
    markers = (("src", (".h", ".hpp", ".cc", ".cpp"), EXPECT_RE),
               ("docs", (".md",), MD_EXPECT_RE))
    for subdir, exts, pattern in markers:
        for dirpath, _, names in os.walk(os.path.join(FIXTURES, subdir)):
            for name in sorted(names):
                if not name.endswith(exts):
                    continue
                path = os.path.join(dirpath, name)
                rel = os.path.relpath(path, FIXTURES)
                with open(path, encoding="utf-8") as f:
                    for lineno, line in enumerate(f, start=1):
                        m = pattern.search(line)
                        if m:
                            expected.add((rel, lineno, m.group(1)))
    return expected


def run_lint(args):
    proc = subprocess.run(
        [sys.executable, LINT] + args,
        capture_output=True,
        text=True,
    )
    return proc


def parse_findings(stdout):
    actual = set()
    for line in stdout.splitlines():
        line = line.strip()
        if not line:
            continue
        m = FINDING_RE.match(line)
        if not m:
            raise AssertionError(f"unparseable finding line: {line!r}")
        path, lineno, rule = m.group(1), int(m.group(2)), m.group(3)
        rel = os.path.relpath(os.path.join(os.getcwd(), path), FIXTURES) \
            if not os.path.isabs(path) else os.path.relpath(path, FIXTURES)
        actual.add((rel, lineno, rule))
    return actual


def fail(msg):
    print(f"FAIL: {msg}", file=sys.stderr)
    sys.exit(1)


def main():
    expected = collect_expected()
    if not expected:
        fail("no `// expect:` markers found -- fixture corpus missing?")

    # Full corpus: every marker fires, nothing else does, exit code 1.
    proc = run_lint(["--root", FIXTURES, os.path.join(FIXTURES, "src")])
    if proc.returncode != 1:
        fail(
            f"expected exit 1 on fixture corpus, got {proc.returncode}\n"
            f"stdout:\n{proc.stdout}\nstderr:\n{proc.stderr}"
        )
    actual = parse_findings(proc.stdout)
    missing = expected - actual
    unexpected = actual - expected
    if missing or unexpected:
        lines = []
        for rel, lineno, rule in sorted(missing):
            lines.append(f"  missing:    {rel}:{lineno} [{rule}]")
        for rel, lineno, rule in sorted(unexpected):
            lines.append(f"  unexpected: {rel}:{lineno} [{rule}]")
        fail("finding mismatch:\n" + "\n".join(lines))

    # Clean subset: the known-good files alone produce nothing, exit 0.
    # env-knob is left out: it walks the root's src/, bench/ and examples/
    # whatever the input files, so it would report env_knob_bad.cc here;
    # the full-corpus run above shows env_knob_good.cc stays quiet.
    good = [
        os.path.join(FIXTURES, "src", name)
        for name in ("suspend_good.cc", "coro_suspend_good.cc", "trace_good.cc",
                     "knob_good.cc", "knob_section_good.cc", "suppressed_ok.cc")
    ]
    per_file_rules = "suspend-safety,trace-pairing,sim-time-hygiene,default-off-knob"
    proc = run_lint(["--root", FIXTURES, "--stats", "--rules", per_file_rules] + good)
    if proc.returncode != 0 or proc.stdout.strip():
        fail(
            f"expected clean run on good fixtures, got exit "
            f"{proc.returncode}\nstdout:\n{proc.stdout}"
        )
    # --stats counts every config-struct field (GoodConfig's seven,
    # SubOptions' one and WholeConfig's three; WholeOptions' one), so CI
    # logs track the size of the knob surface.
    if " 12 config fields," not in proc.stderr:
        fail(f"expected '12 config fields' in --stats output, got:\n"
             f"{proc.stderr}")
    # GoodConfig::swept_knob is the one field only tests/ assigns.
    if " 1 assigned only by tests/," not in proc.stderr:
        fail(f"expected '1 assigned only by tests/' in --stats output, got:\n"
             f"{proc.stderr}")

    # Usage error: unknown rule name exits 2.
    proc = run_lint(["--root", FIXTURES, "--rules", "no-such-rule",
                     os.path.join(FIXTURES, "src")])
    if proc.returncode != 2:
        fail(f"expected exit 2 for unknown rule, got {proc.returncode}")

    print(f"OK: {len(expected)} expected findings matched, "
          f"clean subset clean, usage errors exit 2")
    return 0


if __name__ == "__main__":
    sys.exit(main())
