#!/usr/bin/env python3
"""worm-lint: WORM-invariant lint for the strongworm tree.

The compiler-enforced discipline (clang thread-safety analysis, [[nodiscard]])
catches lock and dropped-result bugs *inside* one translation unit. This lint
enforces the architectural invariants that no single-TU analysis can see:

  scpu-isolation      The SCPU is the trust anchor; every host interaction
                      must cross the serialized mailbox/channel pipeline.
                      Nothing outside the allowlisted wrappers may include or
                      name the SCPU internals (scpu_device.hpp, key_cache.hpp).
                      scpu/cost_model.hpp is a public parameter block and is
                      exempt.

  wall-clock          All time comes from the discrete-event SimClock so runs
                      are deterministic and the paper's latency model is the
                      only clock. std::chrono / time() / clock_gettime & co.
                      are banned in src/ outside the clock's own
                      implementation and the socket layer's real-I/O
                      deadline helpers (common/net). (bench/ and tests/ live
                      outside src/ and may time real execution.)

  dropped-result      Calling a fallible crypto/verify/write API as a bare
                      statement discards the verdict or the only handle to
                      the data. The compiler enforces this per-TU via
                      [[nodiscard]]; the lint (a) catches bare-statement
                      calls lexically so the rule holds even for code paths
                      compiled without -Werror, and (b) meta-checks that the
                      listed APIs still carry [[nodiscard]] in their headers
                      so the compiler gate cannot silently rot.

  raw-mutex           Bare std::mutex / std::shared_mutex / lock guards are
                      invisible to thread-safety analysis. src/ must use the
                      annotated wrappers from common/annotations.hpp (which
                      is itself the one allowed definition site).
                      std::condition_variable_any and std::once_flag /
                      std::call_once are allowed: they compose with the
                      annotated wrappers.

  blocking-under-state-mu
                      The write pipeline's committer needs state_mu_ to make
                      progress, so blocking on the pipeline while holding the
                      store lock (ticket .get(), drain_writes(), pipeline
                      claim_slot()/drain()/shutdown_drop()) is a deadlock
                      waiting for its schedule. Inside a scope that
                      constructed a MutexLock/ExclusiveLock/SharedLock on
                      state_mu_, those calls are banned; non-blocking
                      ticket asks (ready()) are fine.

  server-store-isolation
                      The network front-end (src/server/) and the cluster
                      layer (src/cluster/) serve mutually distrusting
                      principals and must route every store operation through
                      the session layer (worm/session.hpp), where the
                      principal and freshness watermark live. Naming
                      WormStore or including worm/worm_store.hpp from either
                      scope bypasses that choke point.

  fault-bypass        Fault points are declared only via the
                      WORM_FAULT_POINT(injector, "site") macro, which is
                      null-safe and keeps the complete fault surface
                      greppable. Calling FaultInjector::evaluate_site()
                      directly anywhere in src/ outside common/fault.{hpp,cpp}
                      (the injector itself plus the macro's definition site)
                      hides an injection site from that inventory.

  include-cycle       Project-relative #include edges inside src/ must form a
                      DAG. A header cycle compiles today only by accident of
                      guard ordering, breaks the moment someone reorders
                      includes, and — because worm-analyze derives cross-TU
                      facts from per-file scans — would let a fact silently
                      depend on scan order. Each strongly-connected component
                      of the include graph is reported once, with the cycle
                      spelled out.

  crypto-isolation    The raw crypto kernels — SHA-256 block compression
                      (process_block/process_blocks), the Montgomery limb
                      kernels (mont_mul_into/mont_mul64_into and the
                      MULX/ADX product, mont_mul64_adx<N> and the
                      context's mont_mul64_adx_ pointer to it), and the
                      global backend override (force_backend) — are
                      implementation detail of src/crypto/. Code elsewhere
                      in src/ must use the public Sha256 / ChainedHash /
                      MontgomeryCtx APIs so runtime backend dispatch and the
                      device cost model stay centralized (bench/ and tests/
                      live outside src/ and may pin backends for A/B
                      measurement).

  file-io             common::File (common/file.{hpp,cpp}) is the one way
                      src/ touches a file: an owned descriptor whose reads
                      and writes loop over short transfers and EINTR, and
                      whose failures name the file. Nothing else in src/
                      may include <fstream> or <filesystem>, name
                      std::ifstream / std::ofstream / std::fstream /
                      std::filesystem, or call ::open, ::pread, ::pwrite,
                      ::ftruncate, ::fsync, ::fdatasync or (std::)rename,
                      so the journal's and the platters' durability has one
                      place to land. The socket layer (common/net) keeps
                      its own descriptors: none of these calls is a socket
                      call.

Usage:
  worm_lint.py [--repo DIR] [--compile-commands FILE] [--as-src FILE...]

Default mode scans DIR/src (headers and sources). When a
compile_commands.json is present (DIR/build/compile_commands.json, or the
path given with --compile-commands) the lint cross-checks it: every src/
translation unit the build knows about must be covered by the scan, so a
source added to the build but hidden from the lint is itself a finding.

--as-src treats the given files as if they lived under src/ (fixture mode:
tests/lint_fixtures/ feeds known-bad snippets through the same rules). The
[[nodiscard]] meta-check is skipped in fixture mode since it inspects the
real headers, not the fixture.

Exit status: 0 when clean, 1 when any finding is reported, 2 on usage error.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from pathlib import Path

# --- rule configuration ------------------------------------------------------

SCPU_INTERNAL_HEADERS = ("scpu/scpu_device.hpp", "scpu/key_cache.hpp")
SCPU_INTERNAL_SYMBOLS = ("ScpuDevice", "KeyCache")
# Files allowed to touch SCPU internals:
#   src/scpu/**            the SCPU implementation itself
#   src/worm/firmware.*    the firmware wrapper that *is* the SCPU side of
#                          the mailbox boundary
#   src/baseline/**        the non-WORM Merkle baseline deliberately talks to
#                          the coprocessor directly; it exists to measure what
#                          the mailbox discipline costs (documented exception)
SCPU_ALLOWLIST = re.compile(r"^src/(scpu/|worm/firmware\.|baseline/)")

WALL_CLOCK_PATTERN = re.compile(
    r"std::chrono\b|[^\w.]gettimeofday\s*\(|[^\w.]clock_gettime\s*\(|"
    r"[^\w.]time\s*\(\s*(?:NULL|nullptr|0)?\s*\)|[^\w.]localtime\s*\(|"
    r"[^\w.]gmtime\s*\(|steady_clock\b|system_clock\b|high_resolution_clock\b"
)
# The clock itself, the Duration/SimTime value types it hands out, and the
# socket layer: real networking needs real kernel time for poll timeouts and
# I/O deadlines (net.hpp documents the accommodation — now_real()/sleep_real()
# never feed simulation logic).
WALL_CLOCK_ALLOWLIST = re.compile(
    r"^src/common/(sim_clock\.(hpp|cpp)|time\.hpp|net\.cpp)$")

# Fallible APIs whose result must never be dropped. Each entry is
# (method name, header that must declare it [[nodiscard]]). The name list
# feeds the bare-statement scan; the header list feeds the meta-check.
FALLIBLE_APIS = [
    ("rsa_verify", "src/crypto/rsa.hpp"),
    ("verify_read", "src/worm/client_verifier.hpp"),
    ("verify_deletion_proof", "src/worm/client_verifier.hpp"),
    ("verify_sigbox", "src/worm/client_verifier.hpp"),
    ("write_batch", "src/worm/worm_store.hpp"),
    ("read_many", "src/worm/worm_store.hpp"),
    ("read_many", "src/server/client/worm_client.hpp"),
    ("write_async", "src/worm/worm_store.hpp"),
    ("try_write_async", "src/worm/worm_store.hpp"),
    ("resolve", "src/cluster/shard_map.hpp"),
]

# A bare statement that begins with an (optionally qualified) call to one of
# the fallible APIs: `rsa_verify(...)`, `store.write_batch(...)`,
# `verifier->verify_read(...)`. Assignments, returns, conditions and explicit
# `(void)` discards all fail this match because the line starts differently;
# continuation lines (`bool ok =` on the previous line) are excluded by the
# statement-boundary check in lint_file.
_FALLIBLE_NAMES = "|".join(name for name, _ in FALLIBLE_APIS)
DROPPED_CALL_PATTERN = re.compile(
    r"^\s*(?:[A-Za-z_]\w*(?:\[\w+\])?\s*(?:\.|->|::)\s*)*(?:%s)\s*\("
    % _FALLIBLE_NAMES
)
# Characters that can precede the start of a statement. `)` admits the
# brace-less `if (cond)\n  rsa_verify(...);` body, which is still a drop.
_STATEMENT_BOUNDARY = ";{}):"

RAW_MUTEX_PATTERN = re.compile(
    r"std::(?:mutex|shared_mutex|recursive_mutex|timed_mutex|"
    r"shared_timed_mutex|condition_variable|lock_guard|unique_lock|"
    r"shared_lock|scoped_lock)\b"
)
RAW_MUTEX_ALLOWLIST = re.compile(r"^src/common/annotations\.hpp$")

# A scoped guard taking the store lock: `common::ExclusiveLock lk(state_mu_)`
# (paren or brace init). The guard's scope is tracked by brace depth; while
# one is live, blocking pipeline waits are banned — the committer thread
# needs state_mu_ to retire admissions, so waiting on it under the lock is a
# deadlock. `ready()` and `unassigned()` are non-blocking and stay legal.
STATE_LOCK_PATTERN = re.compile(
    r"\b(?:MutexLock|ExclusiveLock|SharedLock)\s+\w+\s*[({]\s*state_mu_\b"
)
BLOCKING_WAIT_PATTERN = re.compile(
    r"\bdrain_writes\s*\(|"
    r"(?:\.|->)\s*(?:get|submit|claim_slot|drain|shutdown_drop)\s*\("
)

# src/server/ and src/cluster/ may only reach the store through WormSession:
# the raw store type (or its header) appearing there bypasses the
# principal/freshness choke point. worm/session.hpp itself includes the store
# header — that is the one sanctioned crossing, and it lives outside both
# scopes. The cluster layer is held to the server's discipline because it is
# the same trust position: code that fronts stores on behalf of principals.
SERVER_ISOLATION_SCOPE = re.compile(r"^src/(?:server|cluster)/")
SERVER_STORE_PATTERN = re.compile(
    r"\bWormStore\b|#\s*include\s*[<\"]worm/worm_store\.hpp[>\"]"
)

FAULT_BYPASS_PATTERN = re.compile(r"\bevaluate_site\s*\(")
# The injector's own implementation and the WORM_FAULT_POINT macro definition.
FAULT_BYPASS_ALLOWLIST = re.compile(r"^src/common/fault\.(hpp|cpp)$")

# Project-relative include directive: `#include "worm/worm_store.hpp"`.
# System/<> includes never participate in src/-internal cycles. The path is a
# string literal, which strip_comments_and_strings blanks — so the directive
# is recognized on the stripped line (ruling out commented-out includes) and
# the path is then read back from the raw line.
PROJECT_INCLUDE_STRIPPED = re.compile(r'#\s*include\s*""')
PROJECT_INCLUDE_PATTERN = re.compile(r'#\s*include\s*"([^"]+)"')

# Raw crypto-kernel entry points; callable only from src/crypto/ itself.
CRYPTO_KERNEL_PATTERN = re.compile(
    r"\b(?:process_blocks?|mont_mul(?:64)?_into|mont_mul64_adx_?"
    r"(?:\s*<\s*\w+\s*>)?|force_backend)\s*\(")
CRYPTO_KERNEL_ALLOWLIST = re.compile(r"^src/crypto/")

# Every other way to open, read, write, resize, sync or rename a file. The
# syscalls must be spelled global (`::pread(`): a member or a qualified
# name (`file_.write_at(`, `File::rename_to(`) is not a match.
FILE_IO_PATTERN = re.compile(
    r"#\s*include\s*<(?:fstream|filesystem)>|"
    r"\bstd::(?:(?:basic_)?[io]?fstream|filesystem)\b|"
    r"(?:\bstd|(?<![\w:]))::(?:open|pread|pwrite|ftruncate|fsync|fdatasync|"
    r"rename)\s*\(")
FILE_IO_ALLOWLIST = re.compile(r"^src/common/file\.(hpp|cpp)$")


class Finding:
    def __init__(self, rule: str, path: str, line: int, message: str):
        self.rule = rule
        self.path = path
        self.line = line
        self.message = message

    def __str__(self) -> str:
        return f"{self.path}:{self.line}: [{self.rule}] {self.message}"


def strip_comments_and_strings(text: str) -> str:
    """Blanks comments and string/char literals, preserving line structure.

    Rules must not fire on prose ('std::mutex' in a design comment) or on
    log strings. Newlines inside block comments are kept so reported line
    numbers stay true.
    """
    out = []
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if c == "/" and nxt == "/":
            while i < n and text[i] != "\n":
                i += 1
        elif c == "/" and nxt == "*":
            i += 2
            while i + 1 < n and not (text[i] == "*" and text[i + 1] == "/"):
                if text[i] == "\n":
                    out.append("\n")
                i += 1
            i += 2
        elif c in "\"'":
            quote = c
            i += 1
            while i < n and text[i] != quote:
                i += 2 if text[i] == "\\" else 1
            i += 1
            out.append('""' if quote == '"' else "' '")
        else:
            out.append(c)
            i += 1
    return "".join(out)


def _starts_statement(lines: list[str], lineno: int) -> bool:
    """True when 1-based line `lineno` begins a new statement.

    Scans back for the previous non-blank code character; a line whose
    predecessor ends mid-expression (`=`, `&&`, `(`, ...) is a continuation,
    not a bare-statement call.
    """
    for prev in range(lineno - 2, -1, -1):
        stripped = lines[prev].rstrip()
        if stripped:
            return stripped[-1] in _STATEMENT_BOUNDARY
    return True  # first code line of the file


def lint_file(rel: str, text: str) -> list[Finding]:
    findings: list[Finding] = []
    code = strip_comments_and_strings(text)
    lines = code.split("\n")

    scpu_exempt = bool(SCPU_ALLOWLIST.match(rel))
    server_scoped = bool(SERVER_ISOLATION_SCOPE.match(rel))
    clock_exempt = bool(WALL_CLOCK_ALLOWLIST.match(rel))
    mutex_exempt = bool(RAW_MUTEX_ALLOWLIST.match(rel))
    fault_exempt = bool(FAULT_BYPASS_ALLOWLIST.match(rel))
    crypto_exempt = bool(CRYPTO_KERNEL_ALLOWLIST.match(rel))
    file_io_exempt = bool(FILE_IO_ALLOWLIST.match(rel))

    # blocking-under-state-mu scope tracking: brace depth at which each live
    # state_mu_ guard was constructed; a guard dies when depth drops below it.
    depth = 0
    state_guards: list[int] = []

    for lineno, line in enumerate(lines, start=1):
        end_depth = depth + line.count("{") - line.count("}")
        if STATE_LOCK_PATTERN.search(line):
            state_guards.append(end_depth)
        elif state_guards and BLOCKING_WAIT_PATTERN.search(line):
            findings.append(Finding(
                "blocking-under-state-mu", rel, lineno,
                "blocking pipeline wait while holding state_mu_; the "
                "committer needs the store lock to make progress — release "
                "the guard before get()/drain()/claim_slot()"))
        depth = end_depth
        while state_guards and depth < state_guards[-1]:
            state_guards.pop()
        if not scpu_exempt:
            for header in SCPU_INTERNAL_HEADERS:
                if re.search(r'#\s*include\s*[<"]%s[>"]' % re.escape(header), line):
                    findings.append(Finding(
                        "scpu-isolation", rel, lineno,
                        f"includes SCPU internal header {header}; host code "
                        "must go through the mailbox/channel pipeline"))
            for sym in SCPU_INTERNAL_SYMBOLS:
                if re.search(r"\b%s\b" % sym, line):
                    findings.append(Finding(
                        "scpu-isolation", rel, lineno,
                        f"names SCPU internal type {sym}; host code must go "
                        "through the mailbox/channel pipeline"))

        if not clock_exempt and WALL_CLOCK_PATTERN.search(line):
            findings.append(Finding(
                "wall-clock", rel, lineno,
                "wall-clock/chrono use outside SimClock; all src/ time must "
                "flow through the simulated clock"))

        if DROPPED_CALL_PATTERN.match(line) and _starts_statement(lines, lineno):
            findings.append(Finding(
                "dropped-result", rel, lineno,
                "result of a fallible crypto/verify/write API is discarded; "
                "consume it or cast to (void) with a justification"))

        if not mutex_exempt and RAW_MUTEX_PATTERN.search(line):
            findings.append(Finding(
                "raw-mutex", rel, lineno,
                "raw std synchronization primitive; use the annotated "
                "wrappers from common/annotations.hpp so thread-safety "
                "analysis can see the lock"))

        if server_scoped and SERVER_STORE_PATTERN.search(line):
            findings.append(Finding(
                "server-store-isolation", rel, lineno,
                "direct WormStore access from src/server/ or src/cluster/; "
                "the front-end must go through the session layer "
                "(worm/session.hpp) so every operation carries a principal "
                "and freshness state"))

        if not fault_exempt and FAULT_BYPASS_PATTERN.search(line):
            findings.append(Finding(
                "fault-bypass", rel, lineno,
                "direct evaluate_site() call; declare fault points with "
                "WORM_FAULT_POINT(injector, \"site\") so the fault surface "
                "stays null-safe and greppable"))

        if not crypto_exempt and CRYPTO_KERNEL_PATTERN.search(line):
            findings.append(Finding(
                "crypto-isolation", rel, lineno,
                "direct crypto kernel call (SHA-256 block function, "
                "Montgomery limb kernel, or backend override) outside "
                "src/crypto/; use the public Sha256/ChainedHash/"
                "MontgomeryCtx API so backend dispatch and cost accounting "
                "stay centralized"))

        if not file_io_exempt and FILE_IO_PATTERN.search(line):
            findings.append(Finding(
                "file-io", rel, lineno,
                "file access outside common::File; open, read, write, "
                "resize, sync and rename files through common/file.hpp so "
                "src/ has one way to touch a file"))

    return findings


def check_nodiscard_declarations(repo: Path) -> list[Finding]:
    """Meta-check: the fallible APIs must still be declared [[nodiscard]]."""
    findings: list[Finding] = []
    for name, header in FALLIBLE_APIS:
        path = repo / header
        if not path.is_file():
            findings.append(Finding(
                "dropped-result", header, 0,
                f"expected header declaring {name}() is missing"))
            continue
        code = strip_comments_and_strings(path.read_text())
        lines = code.split("\n")
        decl_re = re.compile(r"[\w>&:\]]\s+%s\s*\(" % re.escape(name))
        declared_at = [i for i, l in enumerate(lines) if decl_re.search(l)]
        if not declared_at:
            findings.append(Finding(
                "dropped-result", header, 0,
                f"could not find declaration of {name}(); update worm_lint's "
                "FALLIBLE_APIS map"))
            continue
        for i in declared_at:
            window = "\n".join(lines[max(0, i - 2): i + 1])
            if "[[nodiscard]]" not in window:
                findings.append(Finding(
                    "dropped-result", header, i + 1,
                    f"{name}() is fallible but not declared [[nodiscard]]"))
    return findings


def check_include_cycles(file_map: dict[str, str]) -> list[Finding]:
    """Whole-tree rule: the src/ project-include graph must be acyclic.

    file_map maps src/-relative paths to file text. Edges are the
    project-relative includes that resolve to another scanned file, so the
    rule sees exactly the tree (or fixture set) under lint. Each
    strongly-connected component with more than one member is reported once,
    anchored at its lexicographically-first file, with one concrete cycle
    spelled out.
    """
    findings: list[Finding] = []
    graph: dict[str, list[str]] = {}
    include_line: dict[tuple[str, str], int] = {}
    for rel, text in file_map.items():
        code = strip_comments_and_strings(text)
        raw_lines = text.split("\n")
        edges: list[str] = []
        for lineno, line in enumerate(code.split("\n"), start=1):
            if not PROJECT_INCLUDE_STRIPPED.search(line):
                continue
            m = PROJECT_INCLUDE_PATTERN.search(raw_lines[lineno - 1])
            if not m:
                continue
            target = "src/" + m.group(1)
            if target == rel:
                findings.append(Finding(
                    "include-cycle", rel, lineno, "file includes itself"))
            elif target in file_map and target not in edges:
                edges.append(target)
                include_line[(rel, target)] = lineno
        graph[rel] = edges

    # Iterative Tarjan: SCCs without recursion (the include graph is shallow,
    # but Python's default recursion limit is not a contract worth leaning on).
    index: dict[str, int] = {}
    low: dict[str, int] = {}
    on_stack: set[str] = set()
    stack: list[str] = []
    counter = [0]
    cycles: list[list[str]] = []

    def strongconnect(root: str) -> None:
        work = [(root, 0)]
        while work:
            node, ei = work[-1]
            if ei == 0:
                index[node] = low[node] = counter[0]
                counter[0] += 1
                stack.append(node)
                on_stack.add(node)
            recurse = False
            edges = graph[node]
            while ei < len(edges):
                nxt = edges[ei]
                ei += 1
                if nxt not in index:
                    work[-1] = (node, ei)
                    work.append((nxt, 0))
                    recurse = True
                    break
                if nxt in on_stack:
                    low[node] = min(low[node], index[nxt])
            if recurse:
                continue
            work.pop()
            if low[node] == index[node]:
                comp = []
                while True:
                    w = stack.pop()
                    on_stack.discard(w)
                    comp.append(w)
                    if w == node:
                        break
                if len(comp) > 1:
                    cycles.append(comp)
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[node])

    for rel in sorted(graph):
        if rel not in index:
            strongconnect(rel)

    for comp in cycles:
        members = set(comp)
        first = min(comp)
        # Walk in-component edges from the anchor until a node repeats; in an
        # SCC every member has such an edge, so this always closes a loop.
        chain = [first]
        node = first
        while True:
            node = next(t for t in graph[node] if t in members)
            chain.append(node)
            if chain.count(node) > 1:
                break
        findings.append(Finding(
            "include-cycle", first, include_line.get((chain[0], chain[1]), 0),
            "header include cycle: " + " -> ".join(chain) + "; break it with "
            "a forward declaration or by hoisting the shared types"))
    return findings


def discover_sources(repo: Path, compile_commands: Path | None) -> tuple[list[Path], list[Finding]]:
    findings: list[Finding] = []
    src = repo / "src"
    files = sorted(p for p in src.rglob("*")
                   if p.suffix in (".hpp", ".cpp", ".h", ".cc")
                   and "CMakeFiles" not in p.parts)

    cc = compile_commands
    if cc is None:
        candidate = repo / "build" / "compile_commands.json"
        if candidate.is_file():
            cc = candidate
    if cc is not None and cc.is_file():
        scanned = {p.resolve() for p in files}
        try:
            for entry in json.loads(cc.read_text()):
                tu = Path(entry["file"])
                if not tu.is_absolute():
                    tu = Path(entry["directory"]) / tu
                tu = tu.resolve()
                if repo.resolve() / "src" in tu.parents and tu not in scanned:
                    findings.append(Finding(
                        "coverage", str(tu), 0,
                        "translation unit is in compile_commands.json but "
                        "not covered by the lint scan"))
        except (json.JSONDecodeError, KeyError) as e:
            findings.append(Finding(
                "coverage", str(cc), 0, f"unreadable compile_commands.json: {e}"))
    return files, findings


def main(argv: list[str]) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    ap.add_argument("--repo", type=Path, default=Path(__file__).resolve().parent.parent)
    ap.add_argument("--compile-commands", type=Path, default=None)
    ap.add_argument("--as-src", nargs="+", type=Path, default=None,
                    help="lint these files as if they lived under src/ "
                         "(fixture mode; skips the [[nodiscard]] meta-check)")
    args = ap.parse_args(argv)

    findings: list[Finding] = []
    file_map: dict[str, str] = {}
    if args.as_src:
        for path in args.as_src:
            if not path.is_file():
                print(f"worm-lint: no such file: {path}", file=sys.stderr)
                return 2
            # Fixtures keep their parent directory when it names a src/
            # subtree (tests/lint_fixtures/server/x.cpp lints as
            # src/server/x.cpp) so path-scoped rules apply to them.
            parent = path.parent.name
            rel = (f"src/{parent}/{path.name}"
                   if parent not in ("", "lint_fixtures") else
                   f"src/{path.name}")
            text = path.read_text()
            file_map[rel] = text
            findings.extend(lint_file(rel, text))
    else:
        repo = args.repo
        if not (repo / "src").is_dir():
            print(f"worm-lint: {repo} has no src/ directory", file=sys.stderr)
            return 2
        files, cov = discover_sources(repo, args.compile_commands)
        findings.extend(cov)
        for path in files:
            rel = path.relative_to(repo).as_posix()
            text = path.read_text()
            file_map[rel] = text
            findings.extend(lint_file(rel, text))
        findings.extend(check_nodiscard_declarations(repo))
    findings.extend(check_include_cycles(file_map))

    for f in findings:
        print(f)
    if findings:
        print(f"worm-lint: {len(findings)} finding(s)", file=sys.stderr)
        return 1
    print("worm-lint: clean")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
