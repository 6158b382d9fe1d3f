#!/usr/bin/env python3
"""sparkopt-lint: project-specific determinism & hygiene rules.

Rule-based source scanner for the contracts the compiler cannot check
(the compile-time layer is Clang Thread Safety Analysis, see
src/common/thread_safety.h). Catalog, rationale, and how to add a rule:
DESIGN.md section 11.

Usage:
  sparkopt_lint.py [--root DIR]     # lint src/ bench/ tests/ examples/
                                    # and tools/bench_schema.json
  sparkopt_lint.py --selftest       # run the golden-fixture suite
  sparkopt_lint.py --list-rules

Suppression: append `// lint:allow(<rule-id>): <reason>` on the flagged
line or the line directly above it. The reason is mandatory by
convention (reviewed, not machine-checked).

Exit status: 0 clean, 1 findings, 2 usage/internal error.
"""

import argparse
import json
import os
import re
import sys

# ---------------------------------------------------------------------------
# Source preprocessing
# ---------------------------------------------------------------------------


def strip_comments_and_strings(text):
    """Blanks out comments and string/char literal bodies, preserving
    line structure, so token rules don't fire on prose or log messages."""
    out = []
    i, n = 0, len(text)
    state = "code"  # code | line_comment | block_comment | string | char
    while i < n:
        c = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if state == "code":
            if c == "/" and nxt == "/":
                state = "line_comment"
                out.append("  ")
                i += 2
            elif c == "/" and nxt == "*":
                state = "block_comment"
                out.append("  ")
                i += 2
            elif c == '"':
                # Raw strings: skip to the matching delimiter verbatim.
                if out and out[-1] == "R":
                    m = re.match(r'R"([^(\s]*)\(', text[i - 1 :])
                    if m:
                        end = text.find(")" + m.group(1) + '"', i)
                        if end == -1:
                            end = n - 1
                        seg = text[i - 1 : end + len(m.group(1)) + 2]
                        out[-1] = " "
                        out.append("".join("\n" if ch == "\n" else " " for ch in seg[1:]))
                        i = end + len(m.group(1)) + 2
                        continue
                state = "string"
                out.append('"')
                i += 1
            elif c == "'":
                state = "char"
                out.append("'")
                i += 1
            else:
                out.append(c)
                i += 1
        elif state == "line_comment":
            if c == "\n":
                state = "code"
                out.append("\n")
            else:
                out.append(" ")
            i += 1
        elif state == "block_comment":
            if c == "*" and nxt == "/":
                state = "code"
                out.append("  ")
                i += 2
            else:
                out.append("\n" if c == "\n" else " ")
                i += 1
        elif state in ("string", "char"):
            quote = '"' if state == "string" else "'"
            if c == "\\":
                out.append("  ")
                i += 2
            elif c == quote:
                state = "code"
                out.append(quote)
                i += 1
            else:
                out.append("\n" if c == "\n" else " ")
                i += 1
    return "".join(out)


_ALLOW_RE = re.compile(r"lint:allow\(([a-z0-9-]+)\)")


def collect_allows(raw_lines):
    """line number (1-based) -> set of rule ids allowed on that line."""
    allows = {}
    for ln, line in enumerate(raw_lines, 1):
        for rule in _ALLOW_RE.findall(line):
            allows.setdefault(ln, set()).add(rule)
    return allows


# ---------------------------------------------------------------------------
# Rules. Each rule: id, description, applies(relpath) -> bool,
# check(ctx) -> yields (line, message). relpath uses '/' separators.
# ---------------------------------------------------------------------------


class FileCtx:
    def __init__(self, relpath, raw, root="."):
        self.relpath = relpath
        self.raw = raw
        self.root = root  # for rules that consult repo-level registries
        self.raw_lines = raw.splitlines()
        self.stripped = strip_comments_and_strings(raw)
        self.stripped_lines = self.stripped.splitlines()


def _token_rule(pattern, message):
    rx = re.compile(pattern)
    def check(ctx):
        for ln, line in enumerate(ctx.stripped_lines, 1):
            if rx.search(line):
                yield ln, message
    return check


RULES = []


def rule(rule_id, description, applies):
    def wrap(fn):
        RULES.append(
            {"id": rule_id, "description": description, "applies": applies,
             "check": fn})
        return fn
    return wrap


def _in(*prefixes, exts=(".h", ".cc", ".cpp"), exclude=()):
    def applies(relpath):
        return (relpath.startswith(prefixes)
                and relpath.endswith(exts)
                and relpath not in exclude)
    return applies


rule(
    "raw-mutex",
    "std sync primitives in src/ must go through the annotated wrappers in "
    "common/thread_safety.h (sparkopt::Mutex/SharedMutex/CondVar + RAII "
    "guards), so Clang Thread Safety Analysis covers them",
    _in("src/", exclude=("src/common/thread_safety.h",)),
)(_token_rule(
    r"std::(recursive_mutex|timed_mutex|shared_mutex|mutex\b|"
    r"condition_variable|lock_guard|unique_lock|shared_lock|scoped_lock)",
    "raw std sync primitive; use sparkopt::Mutex/SharedMutex/CondVar and "
    "the RAII guards from common/thread_safety.h"))

rule(
    "unseeded-rng",
    "all randomness flows through the explicitly seeded sparkopt::Rng "
    "(common/rng.h); rand()/std::random_device/std engines break "
    "bit-reproducibility",
    _in("src/", "bench/", "tests/", "examples/",
        exclude=("src/common/rng.h",)),
)(_token_rule(
    r"\brand\s*\(|\bsrand\s*\(|\brandom_device\b|\bmt19937|"
    r"\bdefault_random_engine\b|\bminstd_rand|\bdrand48\b|\blrand48\b",
    "unseeded / non-deterministic RNG; use sparkopt::Rng (common/rng.h) "
    "with an explicit seed"))

rule(
    "wall-clock",
    "no wall-clock reads in solver/model/result paths: results must be a "
    "pure function of inputs + seed (steady_clock durations for metrics "
    "are fine; obs/ owns timestamps)",
    _in("src/"),
)(_token_rule(
    r"\bsystem_clock\b|\bgettimeofday\s*\(|\btime\s*\(|\blocaltime"
    r"|\bgmtime|\bclock_gettime\s*\(|\bctime\s*\(",
    "wall-clock read in a deterministic path; derive timing from "
    "steady_clock durations (obs helpers) or pass timestamps in"))

@rule(
    "unordered-iter",
    "iterating an unordered container yields platform/run-dependent order; "
    "in result paths use std::map, a sorted vector, or sort before "
    "iterating",
    _in("src/"),
)
def _unordered_iter(ctx):
    decl_rx = re.compile(
        r"unordered_(?:map|set|multimap|multiset)\s*<[^;{()]*>\s*[&*]*\s*(\w+)")
    names = set()
    for line in ctx.stripped_lines:
        for name in decl_rx.findall(line):
            names.add(name)
    if not names:
        return
    range_for = re.compile(r"for\s*\([^;()]*:\s*\*?(\w+)\s*\)")
    begin_call = re.compile(r"(\w+)\.c?begin\s*\(\)")
    for ln, line in enumerate(ctx.stripped_lines, 1):
        for rx in (range_for, begin_call):
            m = rx.search(line)
            if m and m.group(1) in names:
                yield ln, (f"iteration over unordered container "
                           f"'{m.group(1)}' has nondeterministic order; "
                           "use an ordered container or sort first")
                break


@rule(
    "pragma-once",
    "every header carries #pragma once (include guards drift; duplicate "
    "inclusion breaks the annotation macros)",
    _in("src/", "bench/", "tests/", exts=(".h",)),
)
def _pragma_once(ctx):
    if not any(line.strip() == "#pragma once" for line in ctx.raw_lines[:30]):
        yield 1, "header is missing '#pragma once' (expected near the top)"

rule(
    "naked-new",
    "no naked new/malloc outside arena/pool code: ownership goes through "
    "make_unique/containers, hot paths through caller-owned scratch "
    "buffers (see pareto_flat.h)",
    _in("src/"),
)(_token_rule(
    r"\bnew\b|\bmalloc\s*\(|\bcalloc\s*\(|\brealloc\s*\(|\bfree\s*\(",
    "naked new/malloc; use std::make_unique, a container, or a "
    "caller-owned scratch/arena"))

@rule(
    "bench-result",
    "machine-readable RESULT lines are emitted only via "
    "benchutil::EmitJson (bench_util.h), so the driver's parsers see one "
    "format",
    _in("bench/", "examples/", exts=(".cc", ".cpp")),
)
def _bench_result(ctx):
    rx = re.compile(r'"RESULT[ \\]')
    for ln, line in enumerate(ctx.raw_lines, 1):
        if rx.search(line):
            yield ln, ("hand-rolled RESULT line; emit through "
                       "benchutil::EmitJson (bench_util.h)")


SCHEMA_PATH = "tools/bench_schema.json"
_EMIT_RX = re.compile(r'EmitJson\(\s*"([^"]+)"')
_SCHEMA_CACHE = {}


def _bench_schema_names(root):
    """Registered RESULT names from tools/bench_schema.json, or None when
    the registry is missing/unparseable (cached per root)."""
    path = os.path.abspath(os.path.join(root, SCHEMA_PATH))
    if path not in _SCHEMA_CACHE:
        try:
            with open(path, encoding="utf-8") as f:
                _SCHEMA_CACHE[path] = set(json.load(f).get("results", {}))
        except (OSError, ValueError):
            _SCHEMA_CACHE[path] = None
    return _SCHEMA_CACHE[path]


@rule(
    "bench-result-schema",
    "every RESULT name passed to benchutil::EmitJson must be registered in "
    "tools/bench_schema.json, so bench_snapshot.sh knows its key fields and "
    "bench_diff.py its metrics/thresholds",
    _in("bench/", "examples/", exts=(".cc", ".cpp")),
)
def _bench_result_schema(ctx):
    # Raw lines: the name lives inside a string literal, which the
    # stripped view blanks out.
    uses = [(ln, name) for ln, line in enumerate(ctx.raw_lines, 1)
            for name in _EMIT_RX.findall(line)]
    if not uses:
        return
    registered = _bench_schema_names(ctx.root)
    if registered is None:
        yield uses[0][0], ("tools/bench_schema.json is missing or "
                           "unparseable; RESULT names cannot be validated")
        return
    for ln, name in uses:
        if name not in registered:
            yield ln, (f"RESULT name '{name}' is not registered in "
                       "tools/bench_schema.json; declare its keys, metrics, "
                       "and thresholds there")


_EMITTED_CACHE = {}


def _emitted_result_names(root):
    """RESULT names passed as string literals to EmitJson in code (not
    comments) under bench/ and examples/ (cached per root)."""
    key = os.path.abspath(root)
    if key not in _EMITTED_CACHE:
        names = set()
        for relpath in iter_source_files(root):
            if not relpath.startswith(("bench/", "examples/")):
                continue
            with open(os.path.join(root, relpath), encoding="utf-8",
                      errors="replace") as f:
                raw = f.read()
            code_lines = strip_comments_and_strings(raw).splitlines()
            for raw_line, code in zip(raw.splitlines(), code_lines):
                if "EmitJson(" in code:
                    names.update(_EMIT_RX.findall(raw_line))
        _EMITTED_CACHE[key] = names
    return _EMITTED_CACHE[key]


@rule(
    "bench-schema-emitter",
    "every RESULT registered in tools/bench_schema.json must have an "
    "EmitJson(\"<name>\" emitter under bench/ or examples/, so the registry "
    "carries no gate for a deleted bench (reverse of bench-result-schema)",
    lambda relpath: relpath == SCHEMA_PATH,
)
def _bench_schema_emitter(ctx):
    try:
        registered = json.loads(ctx.raw).get("results", {})
    except ValueError:
        yield 1, "tools/bench_schema.json is unparseable"
        return
    emitted = _emitted_result_names(ctx.root)
    for name in registered:
        if name in emitted:
            continue
        entry = re.compile(r'^\s*"' + re.escape(name) + r'"\s*:\s*\{')
        ln = next((i for i, line in enumerate(ctx.raw_lines, 1)
                   if entry.match(line)), 1)
        yield ln, (f"RESULT '{name}' is registered but nothing under "
                   f"bench/ or examples/ emits it via EmitJson; delete the "
                   "entry or restore its emitter")


# ---------------------------------------------------------------------------
# Driver
# ---------------------------------------------------------------------------

SCAN_DIRS = ("src", "bench", "tests", "examples")
SOURCE_EXTS = (".h", ".cc", ".cpp")


def iter_source_files(root):
    for d in SCAN_DIRS:
        top = os.path.join(root, d)
        if not os.path.isdir(top):
            continue
        for dirpath, dirnames, filenames in os.walk(top):
            dirnames.sort()
            for fn in sorted(filenames):
                if fn.endswith(SOURCE_EXTS):
                    path = os.path.join(dirpath, fn)
                    yield os.path.relpath(path, root).replace(os.sep, "/")
    # The RESULT registry is linted too (rule bench-schema-emitter).
    if os.path.isfile(os.path.join(root, SCHEMA_PATH)):
        yield SCHEMA_PATH


def lint_file(root, relpath):
    with open(os.path.join(root, relpath), encoding="utf-8",
              errors="replace") as f:
        raw = f.read()
    ctx = FileCtx(relpath, raw, root)
    allows = collect_allows(ctx.raw_lines)
    findings = []
    for r in RULES:
        if not r["applies"](relpath):
            continue
        for ln, message in r["check"](ctx):
            allowed = (r["id"] in allows.get(ln, ()) or
                       r["id"] in allows.get(ln - 1, ()))
            if not allowed:
                findings.append((relpath, ln, r["id"], message))
    return findings


def lint_tree(root):
    findings = []
    for relpath in iter_source_files(root):
        findings.extend(lint_file(root, relpath))
    return findings


def print_findings(findings):
    for relpath, ln, rule_id, message in findings:
        print(f"{relpath}:{ln}: [{rule_id}] {message}")


# ---------------------------------------------------------------------------
# Self-test over the golden fixtures in tools/lint/testdata/
# ---------------------------------------------------------------------------


def selftest():
    here = os.path.dirname(os.path.abspath(__file__))
    testdata = os.path.join(here, "testdata")
    ok = True

    # Pass tree: every fixture must come back clean (including the
    # lint:allow fixtures — the suppression mechanism itself is under
    # test here).
    pass_findings = lint_tree(os.path.join(testdata, "pass"))
    if pass_findings:
        ok = False
        print("selftest: expected zero findings in testdata/pass, got:")
        print_findings(pass_findings)

    # Fail tree: findings must match expected.txt exactly.
    fail_root = os.path.join(testdata, "fail")
    got = sorted(f"{p}:{ln}: {rid}"
                 for p, ln, rid, _ in lint_tree(fail_root))
    with open(os.path.join(fail_root, "expected.txt"), encoding="utf-8") as f:
        expected = sorted(line.strip() for line in f
                          if line.strip() and not line.startswith("#"))
    if got != expected:
        ok = False
        print("selftest: testdata/fail findings mismatch")
        for line in sorted(set(expected) - set(got)):
            print(f"  missing: {line}")
        for line in sorted(set(got) - set(expected)):
            print(f"  extra:   {line}")

    # Every rule must have at least one seeded violation it catches.
    covered = {line.split()[-1] for line in expected}
    for r in RULES:
        if r["id"] not in covered:
            ok = False
            print(f"selftest: rule '{r['id']}' has no failing fixture")

    print("selftest: OK" if ok else "selftest: FAILED")
    return 0 if ok else 1


def main(argv):
    ap = argparse.ArgumentParser(prog="sparkopt-lint",
                                 description=__doc__.splitlines()[0])
    ap.add_argument("--root", default=".",
                    help="repo root to scan (default: cwd)")
    ap.add_argument("--selftest", action="store_true",
                    help="run the golden-fixture suite")
    ap.add_argument("--list-rules", action="store_true")
    args = ap.parse_args(argv)

    if args.list_rules:
        for r in RULES:
            print(f"{r['id']}: {r['description']}")
        return 0
    if args.selftest:
        return selftest()

    findings = lint_tree(args.root)
    print_findings(findings)
    n = len(findings)
    print(f"sparkopt-lint: {n} finding(s)")
    return 1 if n else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
