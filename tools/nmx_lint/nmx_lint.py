#!/usr/bin/env python3
"""nmx-lint: repo-specific static checks for the NewMadeleine/MPICH2 sim.

Four passes guard the invariants the runtime test tiers depend on:

  determinism        no wall clocks, no unseeded entropy, no hash-map
                     iteration order leaking into results in the simulated
                     layers (src/sim, net, nmad, nemesis, pioman, ch3, mpi,
                     coll, baseline, obs)
  wire-conformance   every wire::Entry::Kind enumerator is charged in
                     header_bytes(), named in kind_name(), counted by
                     kNumKinds and pinned in tests/wire_test.cpp
  engine-capacity    lambdas handed to Engine::schedule*/schedule_in* use the
                     *_checked forms (compile-time SmallFn bound) and their
                     captures fit the inline event slot
  thread-discipline  engine-context APIs (e.g. Fabric::transmit) are never
                     called from actor bodies, and actor-blocking APIs never
                     from engine callbacks

Frontends: a builtin lexical frontend (zero dependencies, runs everywhere)
and an optional clang.cindex frontend over compile_commands.json that
upgrades the type-sensitive evidence when python-clang is installed
(--frontend=auto picks it up). Suppress a finding with
`// nmx-lint: allow(<check>) <justification>` on or directly above the line.

Usage:
  nmx_lint.py --repo . --build-dir build            # lint the tree
  nmx_lint.py --self-test                           # fixture corpus
  nmx_lint.py --assert-non-vacuous                  # each check must bite
"""

from __future__ import annotations

import argparse
import glob
import os
import re
import sys
from typing import Dict, List, Optional, Set, Tuple

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from nmxlint import clang_frontend  # noqa: E402
from nmxlint.checks import (  # noqa: E402
    ALL_CHECKS,
    Context,
    build_context,
    check_determinism,
    check_engine_capacity,
    check_thread_discipline,
    check_wire_conformance,
)
from nmxlint.source import CHECK_NAMES, Finding, SourceFile  # noqa: E402

DETERMINISM_SCOPE = ("src/sim", "src/nmad", "src/net", "src/obs", "src/mpi", "src/ch3",
                     "src/baseline", "src/coll", "src/nemesis", "src/pioman")
_EXPECT_RE = re.compile(r"//\s*EXPECT:\s*([a-z\-]+(?:\s*,\s*[a-z\-]+)*)")


def _load(paths: List[str]) -> List[SourceFile]:
    return [SourceFile(p) for p in sorted(paths)]


def _glob_sources(root: str, subdirs: Tuple[str, ...]) -> List[str]:
    out: List[str] = []
    for sub in subdirs:
        for ext in ("hpp", "cpp", "h", "cc"):
            out.extend(glob.glob(os.path.join(root, sub, "**", f"*.{ext}"),
                                 recursive=True))
    return sorted(set(out))


def _parse_inline_bytes(repo: str) -> int:
    smallfn = os.path.join(repo, "src/sim/smallfn.hpp")
    if os.path.exists(smallfn):
        with open(smallfn) as f:
            m = re.search(r"kInlineBytes\s*=\s*(\d+)", f.read())
            if m:
                return int(m.group(1))
    return 104


def lint_tree(repo: str, build_dir: Optional[str], frontend: str,
              enabled: Set[str]) -> List[Finding]:
    all_src = _load(_glob_sources(repo, ("src",)))
    det_files = [sf for sf in all_src
                 if any(os.path.relpath(sf.path, repo).startswith(d)
                        for d in DETERMINISM_SCOPE)]
    ctx = Context(inline_bytes=_parse_inline_bytes(repo))
    build_context(all_src, ctx)
    wire_hpp = os.path.join(repo, "src/nmad/wire.hpp")
    wire_test = os.path.join(repo, "tests/wire_test.cpp")
    if os.path.exists(wire_hpp):
        ctx.wire_header = SourceFile(wire_hpp)
    if os.path.exists(wire_test):
        ctx.wire_test = SourceFile(wire_test)

    by_path = {os.path.realpath(sf.path): sf for sf in all_src}
    evidence = None
    if frontend in ("auto", "clang") and build_dir is not None:
        evidence = clang_frontend.collect(build_dir, list(by_path))
        if evidence is None and frontend == "clang":
            print("nmx-lint: --frontend=clang requested but libclang/"
                  "compile_commands.json unavailable", file=sys.stderr)
            sys.exit(2)
    if evidence is not None:
        print(f"nmx-lint: clang frontend ({len(evidence.parsed_files)} TUs)")
    else:
        print("nmx-lint: builtin frontend (python-clang not available)")

    findings: List[Finding] = []
    for sf in all_src:
        findings.extend(sf.bad_suppressions)
    if "determinism" in enabled:
        if evidence is not None:
            det_paths = {os.path.realpath(sf.path) for sf in det_files}
            findings.extend(
                f for f in clang_frontend.determinism_findings(evidence, by_path)
                if os.path.realpath(f.path) in det_paths)
        else:
            findings.extend(check_determinism(det_files, ctx))
    if "wire-conformance" in enabled:
        findings.extend(check_wire_conformance(all_src, ctx))
    if "engine-capacity" in enabled:
        if evidence is not None:
            findings.extend(clang_frontend.capacity_findings(
                evidence, by_path, ctx.inline_bytes))
        else:
            findings.extend(check_engine_capacity(all_src, ctx))
    if "thread-discipline" in enabled:
        findings.extend(check_thread_discipline(all_src, ctx))
    return findings


# ---------------------------------------------------------------------------
# fixture self-test
# ---------------------------------------------------------------------------

def _expectations(sf: SourceFile) -> Set[Tuple[str, int, str]]:
    out: Set[Tuple[str, int, str]] = set()
    for line_no in range(1, sf.num_lines() + 1):
        m = _EXPECT_RE.search(sf.line_text(line_no))
        if m is not None:
            for check in re.split(r"\s*,\s*", m.group(1)):
                out.add((sf.path, line_no, check))
    return out


def self_test(fixtures: str, enabled: Set[str], quiet: bool = False) -> int:
    """0 when every must-flag fixture line is flagged by exactly its check
    and must-pass fixtures are clean. The corpus pins the builtin frontend:
    the clang frontend is exercised on the real tree, where both must agree
    on zero findings."""
    flat = _load(glob.glob(os.path.join(fixtures, "*.cpp")))
    expected: Set[Tuple[str, int, str]] = set()
    for sf in flat:
        expected |= _expectations(sf)

    ctx = Context()
    build_context(flat, ctx)
    found: List[Finding] = []
    for sf in flat:
        found.extend(sf.bad_suppressions)
    if "determinism" in enabled:
        found.extend(check_determinism(flat, ctx))
    if "engine-capacity" in enabled:
        found.extend(check_engine_capacity(flat, ctx))
    if "thread-discipline" in enabled:
        found.extend(check_thread_discipline(flat, ctx))

    for wire_dir in sorted(glob.glob(os.path.join(fixtures, "wire_*"))):
        hdr_path = os.path.join(wire_dir, "wire.hpp")
        test_path = os.path.join(wire_dir, "wire_test.cpp")
        if not os.path.isdir(wire_dir) or not os.path.exists(hdr_path):
            continue
        wctx = Context()
        wctx.wire_header = SourceFile(hdr_path)
        wctx.wire_test = SourceFile(test_path) if os.path.exists(test_path) else None
        expected |= _expectations(wctx.wire_header)
        if wctx.wire_test is not None:
            expected |= _expectations(wctx.wire_test)
        if "wire-conformance" in enabled:
            found.extend(check_wire_conformance([], wctx))

    got = {(f.path, f.line, f.check) for f in found}
    missing = expected - got
    surplus = got - expected
    if not quiet:
        for f in sorted(found, key=lambda f: (f.path, f.line)):
            mark = "ok   " if (f.path, f.line, f.check) in expected else "EXTRA"
            print(f"  {mark} {f.format()}")
    ok = not missing and not surplus
    for path, line, check in sorted(missing):
        print(f"MISSING expected finding {path}:{line} [{check}]")
    for path, line, check in sorted(surplus):
        print(f"SURPLUS unexpected finding {path}:{line} [{check}]")
    print(f"self-test: {len(expected)} expected, {len(got)} found, "
          f"{len(missing)} missing, {len(surplus)} surplus -> "
          f"{'PASS' if ok else 'FAIL'}")
    return 0 if ok else 1


def assert_non_vacuous(fixtures: str) -> int:
    """Every check must have at least one fixture only *it* catches:
    disabling the check must break the self-test."""
    rc = self_test(fixtures, set(CHECK_NAMES), quiet=True)
    if rc != 0:
        print("non-vacuous: baseline self-test failed")
        return 1
    failures = 0
    for check in CHECK_NAMES:
        enabled = set(CHECK_NAMES) - {check}
        rc = self_test(fixtures, enabled, quiet=True)
        verdict = "bites (self-test fails without it)" if rc != 0 else \
            "VACUOUS — no fixture depends on it"
        print(f"  {check}: {verdict}")
        if rc == 0:
            failures += 1
    return 1 if failures else 0


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--repo", default=os.path.join(os.path.dirname(
        os.path.abspath(__file__)), "..", ".."))
    ap.add_argument("--build-dir", default=None,
                    help="build dir with compile_commands.json (clang frontend)")
    ap.add_argument("--frontend", choices=("auto", "builtin", "clang"),
                    default="auto")
    ap.add_argument("--disable", action="append", default=[],
                    metavar="CHECK", help="disable one check (repeatable)")
    ap.add_argument("--self-test", action="store_true",
                    help="run the fixture corpus instead of the tree")
    ap.add_argument("--assert-non-vacuous", action="store_true",
                    help="verify each check has a fixture only it catches")
    ap.add_argument("--fixtures", default=os.path.join(
        os.path.dirname(os.path.abspath(__file__)), "fixtures"))
    ap.add_argument("--list-checks", action="store_true")
    args = ap.parse_args()

    if args.list_checks:
        for name in ALL_CHECKS:
            print(name)
        return 0
    for name in args.disable:
        if name not in CHECK_NAMES:
            ap.error(f"unknown check '{name}' (see --list-checks)")
    enabled = set(CHECK_NAMES) - set(args.disable)

    if args.assert_non_vacuous:
        return assert_non_vacuous(args.fixtures)
    if args.self_test:
        return self_test(args.fixtures, enabled)

    repo = os.path.abspath(args.repo)
    build_dir = args.build_dir
    if build_dir is None and os.path.exists(
            os.path.join(repo, "build", "compile_commands.json")):
        build_dir = os.path.join(repo, "build")
    frontend = "builtin" if args.frontend == "builtin" else args.frontend
    findings = lint_tree(repo, build_dir, frontend, enabled)
    for f in sorted(findings, key=lambda f: (f.path, f.line)):
        print(f.format())
    n = len(findings)
    print(f"nmx-lint: {n} finding{'s' if n != 1 else ''} "
          f"({', '.join(sorted(enabled))})")
    return 1 if findings else 0


if __name__ == "__main__":
    sys.exit(main())
