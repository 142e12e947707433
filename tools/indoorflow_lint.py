#!/usr/bin/env python3
"""Repo-specific lint for indoorflow: invariants clang-tidy can't express.

Checks (each can be skipped with --skip <name>):

  headers       Every public header under src/ is self-contained: it
                compiles as its own translation unit with only the repo
                root on the include path.
  threading     Threading primitives (std::thread, std::mutex, atomics,
                ...) appear only in the allowlist of files whose locking
                discipline carries Clang thread-safety annotations. New
                concurrency must be annotated before it ships.
  annotations   Any header that declares a mutex member (std::mutex or the
                annotated Mutex wrapper) also uses INDOORFLOW_GUARDED_BY,
                i.e. the lock actually guards something the compiler can
                check.
  status        Fallible public APIs (Read*/Write*/Load*/Save*/Parse*/
                Open* at namespace scope in src/ headers) return Status or
                Result<T>, never void/bool — the repo's no-exceptions
                error model (src/common/status.h).
  banned        Banned calls in library code: rand()/srand() (use
                src/common/random.h's deterministic Rng), printf/puts on
                stdout (libraries must not write to stdout; tools and
                examples may), sprintf/strcpy/gets (unbounded).
  atomics       std::atomic/std::atomic_flag appear only in the metrics
                registry (src/common/metrics.*) and the logging sink's
                level gate (src/common/log.cc). Everywhere else, shared
                state goes behind the annotated Mutex so the thread-safety
                analysis can see it; lock-free code needs a lint allowlist
                entry and a TSan-stressed test to ship.
  stderr        Library code never writes to stderr directly: diagnostics
                go through the structured logging sink (src/common/log.h)
                so every line is leveled, tagged, and machine-parseable.
                Only the sink itself (log.cc) and the abort paths in
                status.h — which must not depend on the sink being alive —
                may touch stderr.
  spans         Span recording stays inside the tracing subsystem: raw
                Chrome-sink emission (EmitTraceEvent) and the Trace
                recording entry points (StartSpan/EndSpan/RecordSpan)
                appear only in src/common/trace.* plus the sanctioned
                hooks (the sink itself in metrics.*, the executor's
                per-task events, the engine's per-query event). Everything
                else records through the RAII Span API so per-request
                trees stay well-formed.
  ranks         Every Mutex in src/ is constructed with an explicit
                LockRank (src/common/mutex.h) so the debug validator and
                the Clang acquired_before/after analysis can order it, and
                raw std::mutex never appears outside the wrapper itself.
  includes      Quote includes in src/ are repo-rooted (#include
                "src/...") and point at files that exist, the src/ header
                graph is acyclic, and — when compile_commands.json is
                available (--compile-commands, default
                <root>/build/compile_commands.json) — every src/ .cc is
                listed there, i.e. actually built and visible to
                clang-tidy and the thread-safety analysis.
  docs          Markdown under docs/ (plus README.md and ROADMAP.md) does
                not rot: intra-repo links resolve, backticked repo paths
                (src/..., docs/..., tools/..., ...) exist in the tree,
                `EngineConfig::member` citations name real EngineConfig
                fields, `--flag` citations name real CLI flags
                (indoorflow_cli or a tools/*.py argparse flag), and dotted
                metric citations (`serve.shed`, `query.snapshot.count`)
                name metrics src/ actually registers — literal
                counter/gauge/histogram names plus the EngineMetrics
                prefix cross product.
  ci            .github/workflows/ci.yml keeps its hygiene: every action
                `uses:` is version-pinned, a top-level concurrency group
                cancels superseded runs, jobs that apt-install cache
                /var/cache/apt/archives, jobs that compile carry a ccache
                cache block, and every `cmake -B` configure exports
                compile_commands.json (the includes check and clang-tidy
                depend on it).

Usage:
  tools/indoorflow_lint.py [--root DIR] [--cxx COMPILER]
                           [--compile-commands FILE] [--skip CHECK]...
                           [CHECK ...]

Naming checks positionally runs only those checks (e.g.
`tools/indoorflow_lint.py docs`). Exit status is the number of failed
checks (0 = clean).
"""

from __future__ import annotations

import argparse
import json
import os
import re
import subprocess
import sys
import tempfile

# Files allowed to use threading primitives. Every entry either defines the
# annotation macros or carries INDOORFLOW_GUARDED_BY-annotated state (and is
# stressed by tests/concurrency_test.cc under TSan).
THREADING_ALLOWLIST = {
    "src/common/deadline.h",
    "src/common/executor.h",
    "src/common/executor.cc",
    "src/common/expo_server.h",
    "src/common/expo_server.cc",
    "src/common/log.cc",
    "src/common/metrics.h",
    "src/common/metrics.cc",
    "src/common/mutex.h",
    "src/common/mutex.cc",
    "src/common/thread_annotations.h",
    "src/common/trace.h",
    "src/common/trace.cc",
    "src/core/engine.h",
    "src/core/engine.cc",
    "src/core/flow_matrix.h",
    "src/core/flow_matrix.cc",
    "src/core/query_profile.h",
    "src/core/query_profile.cc",
    "src/core/streaming.h",
    "src/core/streaming.cc",
    "src/core/ur_cache.h",
    "src/core/ur_cache.cc",
    "src/index/dynamic_rtree.h",
    "src/index/dynamic_rtree.cc",
    "src/serve/query_service.h",
    "src/serve/query_service.cc",
}

# Files allowed to hold lock-free state. Far stricter than the threading
# allowlist: atomics are invisible to the Clang thread-safety analysis, so
# each entry must earn its place with a TSan-stressed test
# (tests/metrics_test.cc, tests/flow_matrix_test.cc + concurrency_test.cc).
ATOMICS_ALLOWLIST = {
    "src/common/deadline.h",
    # ParallelFor's shared index cursor (increments only; results
    # publish under the batch Mutex). TSan-stressed by ExecutorTest and
    # ExecutorConcurrencyTest.
    "src/common/executor.cc",
    "src/common/log.cc",
    "src/common/metrics.h",
    "src/common/metrics.cc",
    # Stream clock (cross-shard CAS max) and track count; see the
    # thread-safety note in streaming.h.
    "src/core/streaming.h",
}

# Files allowed to write to stderr. log.cc owns the sink; status.h's abort
# helpers must work even when the sink is torn down, and mutex.cc's
# lock-rank violation path must not log (the sink holds a ranked lock of
# its own — logging from the failure path could deadlock).
STDERR_ALLOWLIST = {
    "src/common/log.h",
    "src/common/log.cc",
    "src/common/mutex.cc",
    "src/common/status.h",
}

STDERR_TOKENS = re.compile(r"\bstderr\b|std::cerr\b|std::clog\b")

# Files allowed to emit spans or Chrome-sink events directly. Everything
# else must record through the RAII Span API (src/common/trace.h) so
# per-request span trees stay well-formed and bounded.
SPANS_ALLOWLIST = {
    "src/common/trace.h",
    "src/common/trace.cc",
    "src/common/metrics.h",   # the Chrome-trace sink + ScopedTimer
    "src/common/metrics.cc",
    "src/common/executor.cc",  # per-task executor events (pre-span-tree)
    "src/core/engine.cc",      # QueryMetricsScope's per-query sink event
}

SPANS_TOKENS = re.compile(
    r"\bEmitTraceEvent\s*\(|->\s*(?:StartSpan|EndSpan|RecordSpan)\s*\(")

ATOMICS_TOKENS = re.compile(r"std::atomic(?:_flag)?\b")

THREADING_TOKENS = re.compile(
    r"std::(thread|jthread|mutex|shared_mutex|recursive_mutex|timed_mutex|"
    r"atomic|atomic_flag|condition_variable|lock_guard|unique_lock|"
    r"shared_lock|scoped_lock|future|promise|async)\b"
    r"|\b(?:indoorflow::)?(Mutex|MutexLock)\b"
)

# Namespace-scope fallible-API declarations in public headers. The name must
# continue with an uppercase letter so predicates like ReadingsFeasible()
# don't match.
FALLIBLE_DECL = re.compile(
    r"^(?P<ret>[A-Za-z_][\w:<>,&*\s]*?)\b"
    r"(?:Read|Write|Load|Save|Parse|Open)[A-Z]\w*\s*\("
)

BANNED_CALLS = [
    # (regex, message). Word boundaries keep Rng::NextDouble etc. clean.
    (re.compile(r"(?<![\w:.])rand\s*\(\s*\)"),
     "rand(): use the seeded deterministic Rng (src/common/random.h)"),
    (re.compile(r"(?<![\w:.])srand\s*\("),
     "srand(): use the seeded deterministic Rng (src/common/random.h)"),
    (re.compile(r"(?<![\w:.])(?:std::)?printf\s*\("),
     "printf(): library code must not write to stdout"),
    (re.compile(r"(?<![\w:.])(?:std::)?puts\s*\("),
     "puts(): library code must not write to stdout"),
    (re.compile(r"(?<![\w:.])(?:std::)?sprintf\s*\("),
     "sprintf(): unbounded; use snprintf or std::string formatting"),
    (re.compile(r"(?<![\w:.])(?:std::)?strcpy\s*\("),
     "strcpy(): unbounded; use std::string"),
    (re.compile(r"(?<![\w:.])(?:std::)?gets\s*\("),
     "gets(): never"),
]


def strip_comments_and_strings(text: str) -> str:
    """Blanks out comments and string/char literals, preserving line count."""
    out = []
    i = 0
    n = len(text)
    while i < n:
        c = text[i]
        if c == "/" and i + 1 < n and text[i + 1] == "/":
            end = text.find("\n", i)
            end = n if end < 0 else end
            i = end
        elif c == "/" and i + 1 < n and text[i + 1] == "*":
            end = text.find("*/", i + 2)
            end = n - 2 if end < 0 else end
            out.append("\n" * text.count("\n", i, end + 2))
            i = end + 2
        elif c in "\"'":
            quote = c
            j = i + 1
            while j < n:
                if text[j] == "\\":
                    j += 2
                    continue
                if text[j] == quote:
                    break
                j += 1
            out.append(quote + quote)
            i = j + 1
        else:
            out.append(c)
            i += 1
    return "".join(out)


def strip_comments(text: str) -> str:
    """Blanks comments but keeps string literals, preserving line count.

    check_includes needs this variant: the include path itself is a string
    literal, which strip_comments_and_strings would blank out.
    """
    out = []
    i = 0
    n = len(text)
    while i < n:
        c = text[i]
        if c == "/" and i + 1 < n and text[i + 1] == "/":
            end = text.find("\n", i)
            end = n if end < 0 else end
            i = end
        elif c == "/" and i + 1 < n and text[i + 1] == "*":
            end = text.find("*/", i + 2)
            end = n - 2 if end < 0 else end
            out.append("\n" * text.count("\n", i, end + 2))
            i = end + 2
        else:
            out.append(c)
            i += 1
    return "".join(out)


def repo_files(root: str, subdirs: tuple[str, ...],
               exts: tuple[str, ...]) -> list[str]:
    found = []
    for subdir in subdirs:
        base = os.path.join(root, subdir)
        for dirpath, _, names in os.walk(base):
            for name in sorted(names):
                if name.endswith(exts):
                    path = os.path.join(dirpath, name)
                    found.append(os.path.relpath(path, root))
    return sorted(found)


def check_headers(root: str, cxx: str, errors: list[str]) -> None:
    headers = repo_files(root, ("src",), (".h",))
    with tempfile.TemporaryDirectory() as tmp:
        for header in headers:
            tu = os.path.join(tmp, "self_contained.cc")
            with open(tu, "w", encoding="utf-8") as f:
                f.write(f'#include "{header}"\n')
            cmd = [cxx, "-std=c++20", "-fsyntax-only", "-I", root, tu]
            try:
                proc = subprocess.run(cmd, capture_output=True, text=True)
            except FileNotFoundError:
                errors.append(f"compiler not found: {cxx} (use --cxx)")
                return
            if proc.returncode != 0:
                tail = proc.stderr.strip().splitlines()
                detail = tail[0] if tail else "compiler error"
                errors.append(f"{header}: not self-contained: {detail}")


def check_threading(root: str, errors: list[str]) -> None:
    for path in repo_files(root, ("src",), (".h", ".cc")):
        if path in THREADING_ALLOWLIST:
            continue
        text = strip_comments_and_strings(
            open(os.path.join(root, path), encoding="utf-8").read())
        for lineno, line in enumerate(text.splitlines(), 1):
            match = THREADING_TOKENS.search(line)
            if match:
                errors.append(
                    f"{path}:{lineno}: {match.group(0)} outside the "
                    "threading allowlist — annotate the file with "
                    "thread_annotations.h invariants and add it to "
                    "THREADING_ALLOWLIST in tools/indoorflow_lint.py")


def check_annotations(root: str, errors: list[str]) -> None:
    for path in repo_files(root, ("src",), (".h",)):
        if path in ("src/common/thread_annotations.h", "src/common/mutex.h"):
            continue
        text = strip_comments_and_strings(
            open(os.path.join(root, path), encoding="utf-8").read())
        # Ranked members look like `Mutex mu_ INDOORFLOW_ACQUIRED_AFTER(...)
        # = Mutex(LockRank::kX);`, so match only the declaration head.
        if re.search(r"\b(?:std::mutex|Mutex)\s+\w+", text):
            if "INDOORFLOW_GUARDED_BY" not in text:
                errors.append(
                    f"{path}: declares a mutex member but no "
                    "INDOORFLOW_GUARDED_BY annotation — the lock guards "
                    "nothing the compiler can check")


def check_status(root: str, errors: list[str]) -> None:
    for path in repo_files(root, ("src",), (".h",)):
        text = strip_comments_and_strings(
            open(os.path.join(root, path), encoding="utf-8").read())
        brace_depth = 0
        for lineno, line in enumerate(text.splitlines(), 1):
            stripped = line.strip()
            # Only namespace-scope free functions: skip class bodies, where
            # depth > 1 (namespace indoorflow { == depth 1).
            if brace_depth <= 1 and stripped and not stripped.startswith("#"):
                match = FALLIBLE_DECL.match(stripped)
                if match:
                    ret = match.group("ret").strip()
                    if not (ret.startswith("Status") or
                            ret.startswith("Result<") or
                            ret.startswith("::indoorflow::Status") or
                            "Result<" in ret):
                        errors.append(
                            f"{path}:{lineno}: fallible API returns "
                            f"'{ret}' — fallible public functions return "
                            "Status or Result<T> (src/common/status.h)")
            brace_depth += line.count("{") - line.count("}")


def check_banned(root: str, errors: list[str]) -> None:
    for path in repo_files(root, ("src",), (".h", ".cc")):
        text = strip_comments_and_strings(
            open(os.path.join(root, path), encoding="utf-8").read())
        for lineno, line in enumerate(text.splitlines(), 1):
            for pattern, message in BANNED_CALLS:
                if pattern.search(line):
                    errors.append(f"{path}:{lineno}: {message}")


def check_atomics(root: str, errors: list[str]) -> None:
    for path in repo_files(root, ("src",), (".h", ".cc")):
        if path in ATOMICS_ALLOWLIST:
            continue
        text = strip_comments_and_strings(
            open(os.path.join(root, path), encoding="utf-8").read())
        for lineno, line in enumerate(text.splitlines(), 1):
            match = ATOMICS_TOKENS.search(line)
            if match:
                errors.append(
                    f"{path}:{lineno}: {match.group(0)} outside the atomics "
                    "allowlist — put shared state behind the annotated Mutex "
                    "(src/common/mutex.h), or add a TSan-stressed test and "
                    "an ATOMICS_ALLOWLIST entry in tools/indoorflow_lint.py")


def check_stderr(root: str, errors: list[str]) -> None:
    for path in repo_files(root, ("src",), (".h", ".cc")):
        if path in STDERR_ALLOWLIST:
            continue
        text = strip_comments_and_strings(
            open(os.path.join(root, path), encoding="utf-8").read())
        for lineno, line in enumerate(text.splitlines(), 1):
            match = STDERR_TOKENS.search(line)
            if match:
                errors.append(
                    f"{path}:{lineno}: {match.group(0)} outside the stderr "
                    "allowlist — emit diagnostics through the structured "
                    "logging sink (src/common/log.h) instead")


def check_spans(root: str, errors: list[str]) -> None:
    for path in repo_files(root, ("src",), (".h", ".cc")):
        if path in SPANS_ALLOWLIST:
            continue
        text = strip_comments_and_strings(
            open(os.path.join(root, path), encoding="utf-8").read())
        for lineno, line in enumerate(text.splitlines(), 1):
            match = SPANS_TOKENS.search(line)
            if match:
                errors.append(
                    f"{path}:{lineno}: raw span emission "
                    f"({match.group(0).strip()}...) outside "
                    "src/common/trace.* — record through the RAII Span "
                    "API (Span children, AddEvent, RecordChild) so "
                    "request span trees stay well-formed, or add a "
                    "SPANS_ALLOWLIST entry with justification")


# --- ranks check ------------------------------------------------------------

# The wrapper and its machinery are the only places allowed to name
# std::mutex or construct a Mutex without a rank.
RANKS_EXEMPT = {
    "src/common/mutex.h",
    "src/common/mutex.cc",
    "src/common/thread_annotations.h",
}

# A Mutex variable/member declaration head. `\s+\w` keeps Mutex* / Mutex&
# parameters and MutexLock out.
MUTEX_DECL = re.compile(r"\bMutex\s+(\w+)")


def check_ranks(root: str, errors: list[str]) -> None:
    for path in repo_files(root, ("src",), (".h", ".cc")):
        if path in RANKS_EXEMPT:
            continue
        text = strip_comments_and_strings(
            open(os.path.join(root, path), encoding="utf-8").read())
        for match in re.finditer(r"\bstd::mutex\b", text):
            lineno = text.count("\n", 0, match.start()) + 1
            errors.append(
                f"{path}:{lineno}: raw std::mutex — use the rank-annotated "
                "Mutex (src/common/mutex.h) so lock ordering is checked")
        for match in MUTEX_DECL.finditer(text):
            # The declaration span runs to the terminating ';' and must
            # pick its position in the lock order explicitly.
            end = text.find(";", match.end())
            span = text[match.start():end if end >= 0 else len(text)]
            if "LockRank::" not in span:
                lineno = text.count("\n", 0, match.start()) + 1
                errors.append(
                    f"{path}:{lineno}: Mutex '{match.group(1)}' has no "
                    "LockRank — construct it as Mutex(LockRank::k...) and "
                    "add INDOORFLOW_ACQUIRED_BEFORE/AFTER fences (see "
                    "docs/STATIC_ANALYSIS.md)")


# --- includes check ---------------------------------------------------------

INCLUDE_DIRECTIVE = re.compile(r'^[ \t]*#[ \t]*include[ \t]+"([^"]+)"',
                               re.MULTILINE)


def check_includes(root: str, errors: list[str],
                   compile_commands: str | None = None) -> None:
    src_files = repo_files(root, ("src",), (".h", ".cc"))
    header_deps: dict[str, list[str]] = {}
    for path in src_files:
        text = strip_comments(
            open(os.path.join(root, path), encoding="utf-8").read())
        deps = []
        for match in INCLUDE_DIRECTIVE.finditer(text):
            target = match.group(1)
            lineno = text.count("\n", 0, match.start()) + 1
            if not target.startswith("src/"):
                errors.append(
                    f'{path}:{lineno}: #include "{target}" is not '
                    "repo-rooted — quote includes in src/ start with src/ "
                    "so every file compiles with only the repo root on the "
                    "include path")
                continue
            if not os.path.exists(os.path.join(root, target)):
                errors.append(
                    f'{path}:{lineno}: #include "{target}" does not exist '
                    "in the tree")
                continue
            deps.append(target)
        if path.endswith(".h"):
            header_deps[path] = [d for d in deps if d.endswith(".h")]

    # Cycle detection over the src/ header graph (iterative DFS with a gray
    # set; each cycle is reported once, at its first discovery).
    state: dict[str, int] = {}  # 1 = on stack, 2 = done
    for start in sorted(header_deps):
        if state.get(start):
            continue
        stack: list[tuple[str, int]] = [(start, 0)]
        path_stack = []
        while stack:
            node, child = stack.pop()
            if child == 0:
                state[node] = 1
                path_stack.append(node)
            deps = header_deps.get(node, [])
            advanced = False
            for k in range(child, len(deps)):
                dep = deps[k]
                if state.get(dep) == 1:
                    cycle = path_stack[path_stack.index(dep):] + [dep]
                    errors.append(
                        "header include cycle: " + " -> ".join(cycle))
                elif not state.get(dep):
                    stack.append((node, k + 1))
                    stack.append((dep, 0))
                    advanced = True
                    break
            if not advanced:
                state[node] = 2
                path_stack.pop()

    # Coverage: every src/ .cc must be in the compilation database, or the
    # thread-safety analysis and clang-tidy silently skip it.
    cc_path = compile_commands or os.path.join(root, "build",
                                               "compile_commands.json")
    if not os.path.exists(cc_path):
        return  # nothing exported yet (fresh checkout): graph checks only
    compiled: set[str] = set()
    for entry in json.load(open(cc_path, encoding="utf-8")):
        file_path = entry.get("file", "")
        if not os.path.isabs(file_path):
            file_path = os.path.join(entry.get("directory", ""), file_path)
        try:
            rel = os.path.relpath(os.path.realpath(file_path),
                                  os.path.realpath(root))
        except ValueError:
            continue
        compiled.add(rel)
    for path in src_files:
        if path.endswith(".cc") and path not in compiled:
            errors.append(
                f"{path}: missing from {os.path.relpath(cc_path, root)} — "
                "add it to a CMake target so static analysis covers it")


# --- docs check -------------------------------------------------------------

# A backticked repo path like `src/core/engine.cc` (a ':' suffix such as
# :289 naturally falls outside the character class, so cited line numbers
# don't break existence checks).
DOC_PATH_TOKEN = re.compile(
    r"`((?:src|docs|tools|tests|bench|examples|fuzz)/[\w./\-]+)")

# Markdown inline link targets: [text](target). Anchors and web URLs are
# skipped at the call site.
DOC_LINK = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")

DOC_CONFIG_TOKEN = re.compile(r"`EngineConfig::(\w+)")

# A CLI flag cited at the start of a backtick span (`--threads`,
# `--cache on|off`). Flags with underscores belong to external tools
# (google-benchmark, gtest) and are not validated.
DOC_FLAG_TOKEN = re.compile(r"`--([a-z0-9][a-z0-9_-]*)")

# Flags every tool accepts without declaring.
DOC_BUILTIN_FLAGS = {"help"}

# A backticked dotted metric citation (`serve.shed`, `query.snapshot.count`).
# Only tokens whose first segment is a family root that src/ actually
# registers are validated — other dotted backtick spans (file names, JSON
# keys) are left alone.
DOC_METRIC_TOKEN = re.compile(r"`([a-z][a-z0-9_]*(?:\.[a-z0-9_]+)+)`")

# A metric registered with a literal name:
#   metrics.counter("serve.shed"), registry->gauge("streaming.tracks"), ...
METRIC_REGISTRATION = re.compile(
    r'\b(?:counter|gauge|histogram)\(\s*"([a-z0-9_.]+)"')

# The engine's per-query-kind families are registered through a shared
# prefix: EngineMetrics("query.snapshot.") builds each instrument with
# `prefix + "count"` etc. The real name set is the cross product.
METRIC_PREFIX = re.compile(r'EngineMetrics\(\s*"([a-z0-9_.]+)"')
METRIC_PREFIX_SUFFIX = re.compile(
    r'\b(?:counter|gauge|histogram)\(\s*prefix\s*\+\s*"([a-z0-9_.]+)"')

# Dotted names attached to traces rather than the metrics registry
# (EmitTraceEvent("executor.task"), span->AddEvent(hit ? "urcache.hit" :
# "urcache.miss")) share family roots with metrics and are citable too.
TRACE_NAME_CALL = re.compile(r"\b(?:EmitTraceEvent|AddEvent)\(([^;]*)")
DOTTED_LITERAL = re.compile(r'"([a-z0-9_]+(?:\.[a-z0-9_]+)+)"')


def collect_engine_config_members(root: str) -> set[str]:
    """Member names of struct EngineConfig, parsed from engine.h."""
    path = os.path.join(root, "src", "core", "engine.h")
    members: set[str] = set()
    if not os.path.exists(path):
        return members
    text = strip_comments_and_strings(
        open(path, encoding="utf-8").read())
    block = re.search(r"struct EngineConfig \{(.*?)\n\};", text, re.S)
    if not block:
        return members
    for line in block.group(1).splitlines():
        decl = re.match(
            r"\s*[A-Za-z_][\w:<>,\s*&]*?\s(\w+)\s*(?:=[^;]*)?;", line)
        if decl:
            members.add(decl.group(1))
    return members


def collect_cli_flags(root: str) -> set[str]:
    """Flag names accepted by indoorflow_cli plus tools/*.py argparse."""
    flags: set[str] = set(DOC_BUILTIN_FLAGS)
    cli = os.path.join(root, "tools", "indoorflow_cli.cc")
    if os.path.exists(cli):
        text = open(cli, encoding="utf-8").read()
        flags.update(re.findall(
            r'Get(?:Or|Int|Double)?\(\s*"([a-z0-9-]+)"', text))
    for path in repo_files(root, ("tools",), (".py",)):
        text = open(os.path.join(root, path), encoding="utf-8").read()
        flags.update(re.findall(
            r'add_argument\(\s*"--([a-z0-9-]+)"', text))
    return flags


def collect_metric_names(root: str) -> set[str]:
    """Every instrument name src/ registers or emits: literal
    counter/gauge/histogram names, the EngineMetrics prefix x suffix
    cross product, and trace span/event names."""
    names: set[str] = set()
    prefixes: set[str] = set()
    suffixes: set[str] = set()
    for path in repo_files(root, ("src",), (".h", ".cc")):
        text = open(os.path.join(root, path), encoding="utf-8").read()
        names.update(METRIC_REGISTRATION.findall(text))
        prefixes.update(METRIC_PREFIX.findall(text))
        suffixes.update(METRIC_PREFIX_SUFFIX.findall(text))
        for call in TRACE_NAME_CALL.finditer(text):
            names.update(DOTTED_LITERAL.findall(call.group(1)))
    for prefix in prefixes:
        for suffix in suffixes:
            names.add(prefix + suffix)
    return names


def check_docs(root: str, errors: list[str]) -> None:
    doc_files = repo_files(root, ("docs",), (".md",))
    for extra in ("README.md", "ROADMAP.md"):
        if os.path.exists(os.path.join(root, extra)):
            doc_files.append(extra)
    config_members = collect_engine_config_members(root)
    cli_flags = collect_cli_flags(root)
    metric_names = collect_metric_names(root)
    metric_roots = {name.split(".", 1)[0] for name in metric_names}
    for path in doc_files:
        full = os.path.join(root, path)
        base = os.path.dirname(full)
        for lineno, line in enumerate(
                open(full, encoding="utf-8").read().splitlines(), 1):
            for match in DOC_LINK.finditer(line):
                target = match.group(1).split("#", 1)[0]
                if not target or "://" in target or \
                        target.startswith("mailto:"):
                    continue
                candidates = (os.path.normpath(os.path.join(base, target)),
                              os.path.normpath(os.path.join(root, target)))
                if not any(os.path.exists(c) for c in candidates):
                    errors.append(
                        f"{path}:{lineno}: broken link target "
                        f"'{match.group(1)}'")
            for match in DOC_PATH_TOKEN.finditer(line):
                token = match.group(1)
                # Glob/brace shorthand (`src/x.*`, `src/x.{h,cc}`) is not a
                # literal path; the `*`/`{` sits just past the match.
                if "{" in token or "*" in token or \
                        line[match.end(1):match.end(1) + 1] in ("*", "{"):
                    continue
                token = token.rstrip(".")
                # A citation may name a build target (`tools/indoorflow_cli`,
                # `examples/metrics_dump`) rather than a file; accept it when
                # the source it is built from exists.
                candidates = [token] + [
                    token + ext for ext in (".cc", ".cpp", ".py")]
                if not any(os.path.exists(os.path.join(root, c))
                           for c in candidates):
                    errors.append(
                        f"{path}:{lineno}: cited path '{token}' does not "
                        "exist in the tree")
            if config_members:
                for match in DOC_CONFIG_TOKEN.finditer(line):
                    if match.group(1) not in config_members:
                        errors.append(
                            f"{path}:{lineno}: 'EngineConfig::"
                            f"{match.group(1)}' is not a member of "
                            "EngineConfig (src/core/engine.h)")
            for match in DOC_FLAG_TOKEN.finditer(line):
                flag = match.group(1)
                if "_" in flag:
                    continue  # external tool flag (benchmark/gtest style)
                if flag not in cli_flags:
                    errors.append(
                        f"{path}:{lineno}: '--{flag}' is not a flag of "
                        "indoorflow_cli or any tools/*.py script")
            for match in DOC_METRIC_TOKEN.finditer(line):
                token = match.group(1)
                if token.split(".", 1)[0] not in metric_roots:
                    continue  # not a metric family this repo registers
                if token in metric_names:
                    continue
                # A family citation (`query.snapshot`) is fine when real
                # metrics live under it.
                if any(name.startswith(token + ".")
                       for name in metric_names):
                    continue
                errors.append(
                    f"{path}:{lineno}: metric '{token}' is not registered "
                    "anywhere under src/")


CI_WORKFLOW = os.path.join(".github", "workflows", "ci.yml")
CI_USES = re.compile(r"^\s*-?\s*uses:\s*(\S+)")
# A job header: exactly two spaces of indent under the top-level `jobs:`.
CI_JOB = re.compile(r"^  ([A-Za-z0-9_-]+):\s*(#.*)?$")


def split_ci_jobs(lines: list[str]) -> dict[str, str]:
    """Maps job name -> that job's text chunk from the workflow yaml.

    Purely indentation-based (no yaml dependency): everything from one
    two-space-indented key under ``jobs:`` to the next belongs to that job.
    """
    jobs: dict[str, list[str]] = {}
    in_jobs = False
    current = None
    for line in lines:
        if line.rstrip() == "jobs:":
            in_jobs = True
            current = None
            continue
        if not in_jobs:
            continue
        if line.strip() and not line.startswith(" "):
            in_jobs = False  # back at column 0: a new top-level key
            current = None
            continue
        match = CI_JOB.match(line)
        if match:
            current = match.group(1)
            jobs[current] = []
        elif current is not None:
            jobs[current].append(line)
    return {name: "\n".join(chunk) for name, chunk in jobs.items()}


def check_ci(root: str, errors: list[str]) -> None:
    """CI-workflow hygiene: the properties that keep CI fast, reproducible,
    and cancel-safe must survive yaml refactors.

      * every `uses:` is pinned (`@vN` / `@sha`) — unpinned actions float
      * a top-level `concurrency:` group with `cancel-in-progress: true` —
        superseded pushes must not queue full runs behind themselves
      * every job that apt-installs also caches /var/cache/apt/archives,
        and every job that compiles has a ccache cache block
      * every `cmake -B` configure passes CMAKE_EXPORT_COMPILE_COMMANDS=ON
        so the includes lint and clang-tidy always have a fresh database
    """
    path = os.path.join(root, CI_WORKFLOW)
    if not os.path.exists(path):
        errors.append(f"{CI_WORKFLOW} is missing")
        return
    lines = open(path, encoding="utf-8").read().splitlines()
    text = "\n".join(lines)

    for lineno, line in enumerate(lines, 1):
        match = CI_USES.match(line)
        if not match:
            continue
        action = match.group(1)
        if action.startswith("./") or action.startswith("docker://"):
            continue  # local composite actions / digests pin differently
        if "@" not in action:
            errors.append(
                f"{CI_WORKFLOW}:{lineno}: action '{action}' is not "
                "pinned to a version (use name@vN or name@sha)")

    if not re.search(r"^concurrency:", text, re.MULTILINE):
        errors.append(
            f"{CI_WORKFLOW}: missing top-level 'concurrency:' block "
            "(superseded pushes should cancel in-flight runs)")
    elif not re.search(r"^\s+cancel-in-progress:\s*true\s*$", text,
                       re.MULTILINE):
        errors.append(
            f"{CI_WORKFLOW}: concurrency block lacks "
            "'cancel-in-progress: true'")

    for name, chunk in split_ci_jobs(lines).items():
        if "apt-get install" in chunk and \
                "/var/cache/apt/archives" not in chunk:
            errors.append(
                f"{CI_WORKFLOW}: job '{name}' apt-installs without an "
                "apt cache block (path: /var/cache/apt/archives)")
        configures = chunk.count("cmake -B")
        if configures == 0:
            continue
        if "CCACHE_DIR" not in chunk:
            errors.append(
                f"{CI_WORKFLOW}: job '{name}' compiles without a ccache "
                "cache block (path: CCACHE_DIR)")
        exports = chunk.count("CMAKE_EXPORT_COMPILE_COMMANDS=ON")
        if exports < configures:
            errors.append(
                f"{CI_WORKFLOW}: job '{name}' has {configures} 'cmake -B' "
                f"configure(s) but only {exports} pass(es) "
                "-DCMAKE_EXPORT_COMPILE_COMMANDS=ON")


CHECKS = {
    "headers": check_headers,
    "threading": check_threading,
    "annotations": check_annotations,
    "ranks": check_ranks,
    "includes": check_includes,
    "status": check_status,
    "banned": check_banned,
    "atomics": check_atomics,
    "stderr": check_stderr,
    "spans": check_spans,
    "docs": check_docs,
    "ci": check_ci,
}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--root", default=os.path.dirname(
        os.path.dirname(os.path.abspath(__file__))))
    parser.add_argument("--cxx", default=os.environ.get("CXX", "c++"))
    parser.add_argument("--compile-commands", default=None,
                        help="compilation database for the includes "
                             "coverage check (default: "
                             "<root>/build/compile_commands.json)")
    parser.add_argument("--skip", action="append", default=[],
                        choices=sorted(CHECKS), help="skip one check")
    parser.add_argument("checks", nargs="*", metavar="CHECK",
                        help="run only the named checks (default: all); "
                             "one of: " + ", ".join(sorted(CHECKS)))
    args = parser.parse_args()

    unknown = sorted(set(args.checks) - set(CHECKS))
    if unknown:
        parser.error("unknown check(s): " + ", ".join(unknown))
    selected = set(args.checks) if args.checks else set(CHECKS)

    failed = 0
    for name, check in CHECKS.items():
        if name not in selected:
            continue
        if name in args.skip:
            print(f"[ SKIP ] {name}")
            continue
        errors: list[str] = []
        if name == "headers":
            check(args.root, args.cxx, errors)
        elif name == "includes":
            check(args.root, errors, args.compile_commands)
        else:
            check(args.root, errors)
        if errors:
            failed += 1
            print(f"[ FAIL ] {name}")
            for error in errors:
                print(f"         {error}")
        else:
            print(f"[  OK  ] {name}")
    return failed


if __name__ == "__main__":
    sys.exit(main())
