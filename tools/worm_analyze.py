#!/usr/bin/env python3
"""worm-analyze: cross-TU semantic analysis for the strongworm tree.

worm_lint.py checks lexical, single-file invariants. This tool checks the
*global* architectural invariants that need a view of every translation unit
at once — the properties the paper's security argument rests on but no
compiler flag or per-file regex can prove:

  lock-order       Extracts every MutexLock/ExclusiveLock/SharedLock guard
                   construction (plus REQUIRES/assert_held facts), computes
                   the set of locks held at every call site, propagates
                   "acquires B while holding A" edges through the cross-TU
                   call graph, and fails on any cycle in the resulting global
                   lock-order graph. An acyclic graph means no schedule of
                   the annotated locks can deadlock; a cycle names the exact
                   acquisition chain that can. The same held sets flag a
                   call that crosses the store's mailbox (channel_), directly
                   or through the call graph, with state_mu_ held: every
                   crossing runs with the store lock released, or every
                   reader and admission waits for the SCPU again.

  wire-taint       Bytes read from the network (common/net read_some) are
                   untrusted until they pass a strict protocol:: decoder or
                   an auth/verifier check. Tracks taint through assignments,
                   take_frame, and cross-TU function parameters; a tainted
                   value reaching a WormSession operation or a store
                   mutation API is a finding — it means attacker-controlled
                   bytes hit the trust boundary without structural
                   validation.

  journal-ordering The WAL discipline: on every mutation path, the journal
                   append must dominate the durable-state mutation (VRDT
                   put_active/put_deleted/apply_window/trim_below). A
                   mutation with no preceding journal event in its function
                   is a finding, unless it sits inside the journal *replay*
                   fold (where mutations are derived from the WAL itself),
                   inside an *answer fold* (apply_answer_locked,
                   apply_write_ack_locked, apply_lit_update,
                   apply_strengthen_results: the functions that apply one
                   SCPU answer) or carries an explicit
                   `// analyze[journal-ordering]: why` waiver. In exchange,
                   every call of an answer fold outside a replay loop or
                   another fold must be dominated by journal_answer(), the
                   call that journals the answer it applies.

  wire-abi         Freezes the wire ABI: opcode/status/envelope-tag/
                   shredding-policy numeric values, protocol constants and
                   serialized field order are extracted from protocol.hpp/
                   status.hpp/envelopes.hpp/record_store.hpp/protocol.cpp
                   and compared against docs/wire_abi.lock.
                   Any drift fails; regenerating the lock with --update-lock
                   refuses value changes to *existing* entries unless
                   kProtocolVersion was bumped (additions are fine). See
                   docs/PROTOCOL.md for the update procedure.

Facts come from a deterministic lexical extractor with no toolchain
dependency, so verdicts are byte-identical on any machine. Per-TU facts are
cached under --cache-dir (default build/analyze_cache/), keyed by the SHA-256
of the file contents + tool version, so re-analysis touches only edited
files and a stale cache can never produce a stale verdict.

Usage:
  worm_analyze.py [--repo DIR]
                  [--pass lock-order,wire-taint,journal-ordering,wire-abi]
                  [--files TU...] [--cache-dir DIR]
                  [--lock FILE] [--update-lock] [--verbose]

--files switches to fixture mode: the given files are the whole program
(cross-TU passes see exactly that set; wire-abi is skipped unless --lock is
also given, in which case the first .hpp files stand in for the real wire
headers via their basenames).

Exit status: 0 clean, 1 findings, 2 on usage/parse error.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import re
import sys
from pathlib import Path

TOOL_VERSION = "2"

ALL_PASSES = ("lock-order", "wire-taint", "journal-ordering", "wire-abi")

GUARD_TYPES = ("MutexLock", "ExclusiveLock", "SharedLock")

# Lock expressions whose textual form hides the owning type: both sides of
# the write-pipeline ticket handshake name TicketState::mu through different
# handles. Checked against the normalized (whitespace-stripped, -> = .)
# mutex expression *suffix*.
LOCK_ALIASES = {
    "ticket.mu": "detail::TicketState::mu",
    "state_.mu": "detail::TicketState::mu",
}

# Every call through the store's mailbox member crosses to the SCPU, except
# the three that frame a command or read the transport's own counts. Every
# crossing runs with state_mu_ released, so reads and admissions proceed
# while the SCPU works (DESIGN.md §7).
MAILBOX = "channel_"
MAILBOX_LOCAL = ("prepare", "set_next_seq", "wire_stats")
STORE_LOCK = "state_mu_"

# Durable-state mutations (receiver `vrdt_`) and the journal events that
# must dominate them.
MUTATION_METHODS = ("put_active", "put_deleted", "apply_window", "trim_below")
JOURNAL_FUNCS = (
    "journal_put_deleted", "journal_trim_below", "journal_queued_write",
)
# The functions that apply one SCPU answer to host state, and the call that
# journals that answer before any of them runs. The litigation and
# strengthening applies rewrite an active entry through put_active.
ANSWER_FOLDS = ("apply_answer_locked", "apply_write_ack_locked",
                "apply_lit_update", "apply_strengthen_results")
ANSWER_JOURNAL = "journal_answer"
JOURNAL_RECEIVER_METHODS = ("append", "checkpoint")  # journal_.append / .checkpoint
WAIVER_RE = re.compile(r"analyze\[journal-ordering\]\s*:\s*\S")

# wire-taint vocabulary.
TAINT_SOURCES = ("read_some",)
TAINT_PROPAGATORS = ("take_frame",)
TAINT_SANITIZERS = (
    "decode_request", "decode_response", "decode_read_outcome",
    "decode_write_request", "decode_lit_request", "msg_op_from_u8",
    "wire_status_from_u16", "check", "check_session_token",
    "verify_read", "verify_deletion_proof", "verify_sigbox",
    "verify_epoch_cert",
)
TAINT_SINK_RECEIVERS = ("session",)  # conn.session->..., session_->...
TAINT_SINK_METHODS = (
    "read", "write", "write_async", "try_write_async", "lit_hold",
    "lit_release",
)

# wire-abi surface: header -> enums of interest; constants matched by name.
ABI_ENUMS = {
    "src/server/protocol.hpp": ("MsgOp",),
    "src/worm/status.hpp": ("WireStatus", "ErrorCode"),
    "src/worm/envelopes.hpp": ("EnvelopeTag",),
    "src/storage/record_store.hpp": ("ShredPolicy",),
}
ABI_CONSTANTS = {
    "src/server/protocol.hpp": (
        "kProtocolVersion", "kAttSnCurrent", "kAttEpochCert",
        "kMaxFrameBytes", "kMaxReadBatchSns",
    ),
}
# Serialized field order: every ByteWriter call sequence in these encoder
# functions is part of the frozen ABI.
ABI_FIELD_ORDER_FUNCS = {
    "src/server/protocol.cpp": (
        "encode_request_body", "encode_response_body", "encode_read_outcome",
        "encode_write_request", "encode_lit_request", "encode_frame",
    ),
}
SERIAL_METHODS = (
    "u8", "u16", "u32", "u64", "i64", "boolean", "blob", "str", "raw",
    "patch_u32", "serialize",
)


class AnalyzeError(Exception):
    """Fatal analysis error (parse failure, bad invocation): exit 2."""


class Finding:
    def __init__(self, pass_name: str, path: str, line: int, message: str):
        self.pass_name = pass_name
        self.path = path
        self.line = line
        self.message = message

    def __str__(self) -> str:
        return f"{self.path}:{self.line}: [{self.pass_name}] {self.message}"


# --------------------------------------------------------------------------
# Shared lexical helpers
# --------------------------------------------------------------------------

def strip_comments_and_strings(text: str) -> str:
    """Blanks comments and string/char literals, preserving line structure."""
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


CALL_RE = re.compile(
    r"((?:[A-Za-z_]\w*\s*(?:\.|->|::)\s*)*)([A-Za-z_]\w*)\s*\(")
KEYWORDS = frozenset((
    "if", "while", "for", "switch", "return", "catch", "sizeof", "throw",
    "alignof", "decltype", "new", "delete", "case", "static_cast",
    "dynamic_cast", "const_cast", "reinterpret_cast", "static_assert",
    "noexcept", "defined", "assert", "alignas", "typeid", "co_await",
    "operator", "explicit", "requires",
))


def normalize_chain(chain: str) -> str:
    return chain.replace("->", ".").replace(" ", "").rstrip(".:")


# --------------------------------------------------------------------------
# Fact schema
#
# One TU produces {"functions": [FunctionFacts...]}. FunctionFacts:
#   qname   "WormStore::read" / "free_fn"
#   cls     enclosing class qualifier ("" for free functions)
#   line    definition line
#   events  ordered list of dicts, each with "kind", "line", "depth":
#     acquire   guard construction / assert_held: +"lock", +"guard"
#     release   explicit guard.unlock(): +"guard"
#     call      +"callee", +"recv" (normalized receiver chain), +"args"
#               (raw argument text), +"stmt" (whole statement text)
#     serial    ByteWriter call inside the function: +"method"
#     scope_end a brace closed a scope on this line (its guards are dead)
#     replay_begin / replay_end   journal-replay fold scope markers
#   requires  locks the function's declaration REQUIRES (seeds held set)
# --------------------------------------------------------------------------

GUARD_RE = re.compile(
    r"\b(MutexLock|ExclusiveLock|SharedLock)\s+(\w+)\s*[({]([^;{}]*?)[)}]")
ASSERT_HELD_RE = re.compile(
    r"([A-Za-z_][\w.>-]*?)\s*(?:\.|->)\s*assert_held(?:_shared)?\s*\(")
REQUIRES_RE = re.compile(
    r"\bREQUIRES(?:_SHARED)?\s*\(([^)]*)\)")
REPLAY_FOR_RE = re.compile(
    r"\bfor\s*\(.*\b(?:JournalRecord\b|replay\s*\.\s*records)")


class TextExtractor:
    """Deterministic lexical fact extractor. Parses the clang-format style
    this repo is written in; it does not aim to parse arbitrary C++."""

    CLASS_RE = re.compile(
        r"^(?:template\s*<.*>\s*)?"
        r"(?:class|struct|union)\s+(?:alignas\s*\([^)]*\)\s*)?"
        r"(?:\[\[[^\]]*\]\]\s*)?([\w:]+)", re.S)
    QUALIFIER_MACROS = frozenset((
        "REQUIRES", "REQUIRES_SHARED", "EXCLUDES", "ACQUIRE", "RELEASE",
        "ACQUIRE_SHARED", "RELEASE_SHARED", "RETURN_CAPABILITY",
        "noexcept", "throw", "decltype",
    ))

    def __init__(self, rel: str, text: str):
        self.rel = rel
        self.code = strip_comments_and_strings(text)
        self.raw_lines = text.split("\n")
        self.lines = self.code.split("\n")

    def extract(self) -> dict:
        self._check_balanced()
        functions = []
        for span in self._find_functions():
            fn = {
                "qname": span["qname"],
                "cls": span["cls"],
                "line": span["line"],
                "events": [],
                "requires": self._requires_locks(span["sig"], span["cls"]),
            }
            self._scan_body(fn, span)
            functions.append(fn)
        return {"functions": functions}

    def _find_functions(self) -> list[dict]:
        """Character scan pairing every brace, classifying each opened scope
        as namespace / class / function / other. Returns one span per
        outermost function body (lambdas and nested blocks stay inside it)."""
        code = self.code
        spans: list[dict] = []
        stack: list[dict] = []
        class_stack: list[str] = []
        in_fn = 0
        pending: list[str] = []
        pending_line = 1
        line = 1
        for i, c in enumerate(code):
            if c == "\n":
                line += 1
                if pending:
                    pending.append(" ")
                continue
            if c == "{":
                sig = "".join(pending).strip()
                kind, name = self._classify(sig, in_fn > 0)
                entry = {"kind": kind, "name": name, "line": pending_line}
                if kind == "fn":
                    if in_fn == 0:
                        cls = (name.rsplit("::", 1)[0] if "::" in name
                               else "::".join(class_stack))
                        entry.update({
                            "qname": (name if "::" in name
                                      else (f"{cls}::{name}" if cls
                                            else name)),
                            "cls": cls, "sig": sig,
                            "body_start_idx": i + 1,
                            "body_start_line": line,
                        })
                    in_fn += 1
                elif kind == "class":
                    class_stack.append(name)
                stack.append(entry)
                pending = []
                pending_line = line
                continue
            if c == "}":
                entry = stack.pop() if stack else {"kind": "other"}
                if entry["kind"] == "fn":
                    in_fn -= 1
                    if in_fn == 0:
                        entry["end_idx"] = i
                        entry["end_line"] = line
                        spans.append(entry)
                elif entry["kind"] == "class":
                    if class_stack:
                        class_stack.pop()
                pending = []
                pending_line = line
                continue
            if in_fn:
                continue
            if c == ";":
                pending = []
                pending_line = line
                continue
            if pending or not c.isspace():
                if not pending:
                    pending_line = line
                pending.append(c)
        return spans

    def _classify(self, sig: str, inside_fn: bool) -> tuple[str, str]:
        if inside_fn:
            return "other", ""
        if not sig or sig.endswith(("=", ",")):
            return "other", ""
        if re.match(r"^namespace\b|^extern\s*\"", sig):
            return "ns", ""
        if re.match(r"^(?:template\s*<.*>\s*)?enum\b", sig, re.S):
            return "other", ""
        m = self.CLASS_RE.match(sig)
        if m is not None:
            return "class", m.group(1)
        name = self._fn_name(sig)
        if name is not None:
            return "fn", name
        return "other", ""

    def _fn_name(self, sig: str) -> str | None:
        """Identifier before the first top-level paren group, when `sig`
        reads as a function definition header."""
        ident = None
        depth = 0
        angle = 0
        token = ""
        for c in sig:
            if c == "(" and angle == 0:
                if depth == 0:
                    if token:
                        ident = token
                        break
                    return None  # paren group with no name: not a function
                depth += 1
            elif c == ")" and angle == 0:
                depth = max(0, depth - 1)
            elif depth == 0:
                if c == "<":
                    angle += 1
                    token = ""
                elif c == ">":
                    angle = max(0, angle - 1)
                elif angle:
                    pass
                elif c.isalnum() or c in "_:~":
                    token += c
                else:
                    token = ""
        if ident is None:
            return None
        ident = ident.strip(":")
        last = ident.split("::")[-1].lstrip("~")
        if not last or last in KEYWORDS or ident in self.QUALIFIER_MACROS:
            return None
        if "operator" in ident:
            return None
        return ident

    def _scan_body(self, fn: dict, span: dict) -> None:
        body = self.code[span["body_start_idx"]:span["end_idx"]]
        depth = 1
        replay_stack: list[int] = []
        lineno = span["body_start_line"]
        for raw_chunk in body.split("\n"):
            end_depth = depth + raw_chunk.count("{") - raw_chunk.count("}")
            low = depth
            running = depth
            for ch in raw_chunk:
                running += (ch == "{") - (ch == "}")
                low = min(low, running)
            if low < depth:
                # A scope closed on this line: the guards it held are gone,
                # even if the next event sits in a sibling scope.
                fn["events"].append(
                    {"kind": "scope_end", "line": lineno, "depth": low})
            self._scan_line(fn, lineno, raw_chunk, end_depth, replay_stack)
            if REPLAY_FOR_RE.search(raw_chunk):
                replay_stack.append(end_depth)
                fn["events"].append(
                    {"kind": "replay_begin", "line": lineno,
                     "depth": end_depth})
            depth = end_depth
            while replay_stack and depth < replay_stack[-1]:
                replay_stack.pop()
                fn["events"].append(
                    {"kind": "replay_end", "line": lineno, "depth": depth})
            lineno += 1

    def _check_balanced(self) -> None:
        depth = 0
        for lineno, line in enumerate(self.lines, start=1):
            for ch in line:
                if ch == "{":
                    depth += 1
                elif ch == "}":
                    depth -= 1
                    if depth < 0:
                        raise AnalyzeError(
                            f"{self.rel}:{lineno}: unbalanced '}}' — the "
                            "file does not parse; fix the syntax error "
                            "before analyzing")
        if depth != 0:
            raise AnalyzeError(
                f"{self.rel}:{len(self.lines)}: {depth} unclosed '{{' at "
                "end of file — the file does not parse; fix the syntax "
                "error before analyzing")

    def _requires_locks(self, sig: str, cls: str) -> list[str]:
        locks = []
        for m in REQUIRES_RE.finditer(sig):
            for expr in m.group(1).split(","):
                lock = normalize_lock(normalize_chain(expr), cls)
                if lock:
                    locks.append(lock)
        return locks

    def _scan_line(self, fn: dict, lineno: int, line: str, depth: int,
                   replay_stack: list[int]) -> None:
        for m in GUARD_RE.finditer(line):
            kind, guard, arg = m.groups()
            lock = normalize_lock(normalize_chain(arg), fn["cls"])
            fn["events"].append(
                {"kind": "acquire", "line": lineno, "depth": depth,
                 "lock": lock, "guard": guard,
                 "shared": kind == "SharedLock"})
        for m in ASSERT_HELD_RE.finditer(line):
            lock = normalize_lock(normalize_chain(m.group(1)), fn["cls"])
            fn["events"].append(
                {"kind": "assert", "line": lineno, "depth": depth,
                 "lock": lock})
        for m in CALL_RE.finditer(line):
            recv, callee = m.groups()
            if callee in KEYWORDS or callee in GUARD_TYPES:
                continue
            recv_n = normalize_chain(recv)
            if callee in ("unlock", "lock") and recv_n:
                fn["events"].append(
                    {"kind": "release" if callee == "unlock" else "reacquire",
                     "line": lineno, "depth": depth, "guard": recv_n})
                continue
            if callee in SERIAL_METHODS and recv_n in ("w", "r"):
                fn["events"].append(
                    {"kind": "serial", "line": lineno, "depth": depth,
                     "method": callee})
            args = self._call_args(line, m.end() - 1)
            fn["events"].append(
                {"kind": "call", "line": lineno, "depth": depth,
                 "callee": callee, "recv": recv_n, "args": args,
                 "stmt": line.strip(),
                 "raw": (self.raw_lines[lineno - 1]
                         if lineno - 1 < len(self.raw_lines) else ""),
                 "in_replay": bool(replay_stack)})

    @staticmethod
    def _call_args(line: str, open_paren: int) -> str:
        depth = 0
        for i in range(open_paren, len(line)):
            if line[i] == "(":
                depth += 1
            elif line[i] == ")":
                depth -= 1
                if depth == 0:
                    return line[open_paren + 1:i]
        return line[open_paren + 1:]


def normalize_lock(expr: str, cls: str) -> str:
    """Canonical lock identity for a mutex expression inside class `cls`."""
    expr = expr.strip().removeprefix("this.").removeprefix("*")
    if not expr:
        return ""
    for suffix, alias in LOCK_ALIASES.items():
        if expr == suffix or expr.endswith("." + suffix):
            return alias
    last = expr.split(".")[-1]
    if "::" in last:
        return last  # already qualified (Class::static_mu)
    return f"{cls}::{last}" if cls else last


# --------------------------------------------------------------------------
# Fact cache
# --------------------------------------------------------------------------

class FactCache:
    def __init__(self, cache_dir: Path | None):
        self.dir = cache_dir
        self.hits = 0
        self.misses = 0
        if self.dir is not None:
            self.dir.mkdir(parents=True, exist_ok=True)

    def key(self, content: bytes) -> str:
        h = hashlib.sha256()
        h.update(TOOL_VERSION.encode())
        h.update(content)
        return h.hexdigest()

    def load(self, key: str) -> dict | None:
        if self.dir is None:
            return None
        path = self.dir / f"{key}.json"
        if not path.is_file():
            return None
        try:
            facts = json.loads(path.read_text())
            self.hits += 1
            return facts
        except (json.JSONDecodeError, OSError):
            return None

    def store(self, key: str, facts: dict) -> None:
        if self.dir is None:
            return
        (self.dir / f"{key}.json").write_text(json.dumps(facts))


def extract_tu(rel: str, path: Path, cache: FactCache) -> dict:
    content = path.read_bytes()
    key = cache.key(content)
    cached = cache.load(key)
    if cached is not None:
        return cached
    cache.misses += 1
    facts = TextExtractor(rel, content.decode(errors="replace")).extract()
    cache.store(key, facts)
    return facts


# --------------------------------------------------------------------------
# Program model: all TU facts + cross-TU call resolution
# --------------------------------------------------------------------------

class Program:
    def __init__(self):
        self.functions: dict[str, dict] = {}   # qname -> FunctionFacts
        self.by_name: dict[str, list[str]] = {}  # unqualified -> qnames
        self.files: dict[str, str] = {}        # qname -> rel path
        self.per_file: dict[str, list[dict]] = {}  # rel path -> FunctionFacts

    def add_tu(self, rel: str, facts: dict) -> None:
        self.per_file.setdefault(rel, []).extend(facts.get("functions", []))
        for fn in facts.get("functions", []):
            qname = fn["qname"]
            # Prefer the definition with events (a .cpp body) over an
            # inline redeclaration; first definition wins otherwise.
            if qname in self.functions and not fn["events"]:
                continue
            self.functions[qname] = fn
            self.files[qname] = rel
            self.by_name.setdefault(qname.split("::")[-1], []).append(qname)

    # Method names std containers and streams share: matching one to an
    # in-tree class by name-uniqueness alone would wire e.g. a std::map's
    # insert() to an in-tree insert() and invent call-graph edges, so these
    # also need the receiver to plausibly name the candidate's class.
    GENERIC_METHODS = frozenset((
        "insert", "erase", "clear", "find", "push_back", "emplace",
        "emplace_back", "pop_back", "reserve", "resize", "at", "count",
        "swap", "assign", "append", "get", "reset", "release", "store",
        "load", "put", "add", "remove", "merge", "contains", "close", "flush",
    ))

    def resolve(self, caller: dict, callee: str, recv: str = "") -> str | None:
        """Callee name -> qualified definition, or None when external."""
        if callee in self.functions:
            return callee
        cls = caller.get("cls", "")
        # A call through a member object (records_.write) names that
        # object's method, not the caller's class's namesake.
        if cls and recv in ("", "this", cls.split("::")[-1]):
            cand = f"{cls}::{callee}"
            if cand in self.functions:
                return cand
        cands = self.by_name.get(callee, [])
        if len(cands) == 1:
            cand = cands[0]
            if callee in self.GENERIC_METHODS and "::" in cand:
                if not self._recv_matches(recv, cand.rsplit("::", 1)[0]):
                    return None
            return cand
        return None

    @staticmethod
    def _recv_matches(recv: str, cls: str) -> bool:
        tail = recv.split(".")[-1].strip("_").replace("_", "").lower()
        cname = cls.split("::")[-1].replace("_", "").lower()
        return len(tail) >= 4 and (tail in cname or cname in tail)


def build_program(tus: list[tuple[str, dict]]) -> Program:
    prog = Program()
    for rel, facts in tus:
        prog.add_tu(rel, facts)
    return prog


# --------------------------------------------------------------------------
# Pass 1: lock-order
# --------------------------------------------------------------------------

def held_sets_at_calls(fn: dict):
    """Yields (held:list[lock], event) for each call event, plus the list of
    direct (held, acquired, line) triples for acquire events."""
    # guards: list of [lock, depth, guard_name, live]
    live: list[list] = []
    acquires: list[tuple[tuple[str, ...], str, int]] = []
    calls: list[tuple[tuple[str, ...], dict]] = []
    for lock in fn.get("requires", []):
        live.append([lock, 0, None, True])
    for ev in fn["events"]:
        depth = ev.get("depth", 0)
        live = [g for g in live if g[1] <= depth]
        kind = ev["kind"]
        if kind == "acquire":
            held = tuple(g[0] for g in live if g[3])
            if ev.get("lock"):
                acquires.append((held, ev["lock"], ev["line"]))
                live.append([ev["lock"], depth, ev.get("guard"), True])
        elif kind == "assert":
            # assert_held documents a lock taken by the caller: it joins
            # the held set but is not an acquisition edge itself.
            if ev.get("lock") and ev["lock"] not in (
                    g[0] for g in live if g[3]):
                live.append([ev["lock"], depth, None, True])
        elif kind == "release":
            guard = ev.get("guard")
            for g in reversed(live):
                if g[2] == guard and g[3]:
                    g[3] = False
                    break
        elif kind == "reacquire":
            guard = ev.get("guard")
            for g in reversed(live):
                if g[2] == guard and not g[3]:
                    g[3] = True
                    break
        elif kind == "call":
            held = tuple(g[0] for g in live if g[3])
            calls.append((held, ev))
    return acquires, calls


def pass_lock_order(prog: Program) -> list[Finding]:
    findings: list[Finding] = []

    # Per-function direct facts.
    direct_acq: dict[str, list[tuple[tuple[str, ...], str, int]]] = {}
    fn_calls: dict[str, list[tuple[tuple[str, ...], dict]]] = {}
    for qname, fn in prog.functions.items():
        acquires, calls = held_sets_at_calls(fn)
        direct_acq[qname] = acquires
        fn_calls[qname] = calls

    # Effective acquire sets (locks a call into F may take), to fixpoint.
    eff: dict[str, set[str]] = {
        q: {lock for _, lock, _ in direct_acq[q]} for q in prog.functions}
    changed = True
    while changed:
        changed = False
        for qname, fn in prog.functions.items():
            for _, ev in fn_calls[qname]:
                callee = prog.resolve(fn, ev["callee"], ev.get("recv", ""))
                if callee is None:
                    continue
                extra = eff[callee] - eff[qname]
                if extra:
                    eff[qname] |= extra
                    changed = True

    # Edge set: lock A -> lock B ("B acquired while A held"), with witness.
    edges: dict[tuple[str, str], str] = {}

    def add_edge(a: str, b: str, where: str) -> None:
        if a != b:
            edges.setdefault((a, b), where)
        else:
            findings.append(Finding(
                "lock-order", where.split(":")[0],
                int(where.split(":")[1]),
                f"re-acquires {a} while already holding it (self-deadlock "
                "on a non-recursive mutex)"))

    for qname, fn in prog.functions.items():
        rel = prog.files[qname]
        for held, lock, line in direct_acq[qname]:
            for a in held:
                add_edge(a, lock, f"{rel}:{line}")
        for held, ev in fn_calls[qname]:
            if not held:
                continue
            callee = prog.resolve(fn, ev["callee"], ev.get("recv", ""))
            if callee is None:
                continue
            for b in eff[callee]:
                for a in held:
                    if a != b:
                        edges.setdefault(
                            (a, b),
                            f"{rel}:{ev['line']} (via call to {callee})")

    # Calls that cross the mailbox, directly or through the call graph,
    # while the store lock is held.
    def crosses(ev: dict) -> bool:
        recv = ev.get("recv", "")
        return (recv.split(".")[-1] == MAILBOX
                and ev["callee"] not in MAILBOX_LOCAL)

    def reaches_crossing(fn: dict, ev: dict) -> bool:
        callee = prog.resolve(fn, ev["callee"], ev.get("recv", ""))
        return crosses(ev) or (callee is not None and callee in crossers)

    crossers: set[str] = set()
    changed = True
    while changed:
        changed = False
        for qname, fn in prog.functions.items():
            if qname not in crossers and any(
                    reaches_crossing(fn, ev) for _, ev in fn_calls[qname]):
                crossers.add(qname)
                changed = True
    for qname, fn in prog.functions.items():
        for held, ev in fn_calls[qname]:
            lock = next((h for h in held
                         if h.split("::")[-1] == STORE_LOCK), None)
            if lock is None or not reaches_crossing(fn, ev):
                continue
            how = (f"{MAILBOX}.{ev['callee']}" if crosses(ev) else
                   f"via {prog.resolve(fn, ev['callee'], ev.get('recv', ''))}")
            findings.append(Finding(
                "lock-order", prog.files[qname], ev["line"],
                f"crosses the mailbox ({how}) while holding {lock}: every "
                "crossing runs with the store lock released, or reads and "
                "admissions wait for the SCPU"))

    # Cycle detection over the lock graph.
    graph: dict[str, set[str]] = {}
    for (a, b) in edges:
        graph.setdefault(a, set()).add(b)
        graph.setdefault(b, set())

    index = {}
    low = {}
    on_stack = set()
    stack: list[str] = []
    counter = [0]
    sccs: list[list[str]] = []

    def strongconnect(v: str) -> None:
        work = [(v, iter(sorted(graph[v])))]
        index[v] = low[v] = counter[0]
        counter[0] += 1
        stack.append(v)
        on_stack.add(v)
        while work:
            node, it = work[-1]
            advanced = False
            for w in it:
                if w not in index:
                    index[w] = low[w] = counter[0]
                    counter[0] += 1
                    stack.append(w)
                    on_stack.add(w)
                    work.append((w, iter(sorted(graph[w]))))
                    advanced = True
                    break
                if w in on_stack:
                    low[node] = min(low[node], index[w])
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[node])
            if low[node] == index[node]:
                scc = []
                while True:
                    w = stack.pop()
                    on_stack.discard(w)
                    scc.append(w)
                    if w == node:
                        break
                sccs.append(scc)

    for v in sorted(graph):
        if v not in index:
            strongconnect(v)

    for scc in sccs:
        if len(scc) < 2:
            continue
        members = sorted(scc)
        witness = []
        for a in members:
            for b in members:
                if (a, b) in edges:
                    witness.append(f"  {a} -> {b} at {edges[(a, b)]}")
        first = edges[next((a, b) for a in members for b in members
                           if (a, b) in edges)]
        findings.append(Finding(
            "lock-order", first.split(":")[0],
            int(first.split(":")[1].split(" ")[0]),
            "lock-order cycle — these locks are acquired in inconsistent "
            "order and can deadlock:\n" + "\n".join(witness)))
    return findings


# --------------------------------------------------------------------------
# Pass 2: wire-taint
# --------------------------------------------------------------------------

IDENT_RE = re.compile(r"[A-Za-z_][\w.]*(?:->[\w.]+)*")
ASSIGN_RE = re.compile(
    r"^\s*(?:[\w:<>,&*\s]+?\s+)?([A-Za-z_][\w.>-]*)\s*=\s*(.*)$")


def taint_scope(rel: str, fixture_mode: bool) -> bool:
    return fixture_mode or rel.startswith("src/server/")


def expr_idents(expr: str) -> set[str]:
    return {normalize_chain(m.group(0))
            for m in IDENT_RE.finditer(expr.replace("->", "."))}


def pass_wire_taint(prog: Program, fixture_mode: bool) -> list[Finding]:
    findings: list[Finding] = []

    # Function summaries: parameter indices that reach a sink unsanitized.
    # Parameters are matched positionally by scanning the definition line's
    # parameter names out of the raw signature is unreliable in text mode,
    # so summaries key on parameter *names* found in the body instead:
    # callers mark the callee risky if any of its named "risky params" is
    # fed a tainted argument. Seed: functions that pass a param-named token
    # straight into a sink. Iterate to fixpoint through callees.
    risky_params: dict[str, set[str]] = {q: set() for q in prog.functions}

    def sink_call(ev: dict) -> bool:
        recv_last = ev["recv"].split(".")[-1] if ev["recv"] else ""
        return (ev["callee"] in TAINT_SINK_METHODS
                and recv_last in TAINT_SINK_RECEIVERS)

    def scan_function(qname: str, fn: dict, taint_seed: set[str],
                      report: bool) -> set[str]:
        """Propagates taint through one function body. Returns the set of
        seed names that reached a sink. Reports findings when `report`."""
        rel = prog.files[qname]
        tainted: set[str] = set(taint_seed)
        reached: set[str] = set()
        for ev in fn["events"]:
            if ev["kind"] != "call":
                continue
            args = ev.get("args", "")
            arg_ids = expr_idents(args)
            stmt = ev.get("stmt", "") or ""
            # Source: read_some(sock, buf, n) taints buf.
            if ev["callee"] in TAINT_SOURCES:
                parts = [normalize_chain(a) for a in args.split(",")]
                if len(parts) >= 2:
                    tainted.add(parts[1])
                continue
            # Sanitizer call: its result is clean; an assignment from it
            # does not taint the lhs.
            sanitized = ev["callee"] in TAINT_SANITIZERS
            hit = {t for t in tainted
                   if any(i == t or i.startswith(t + ".") for i in arg_ids)}
            if sink_call(ev) and hit:
                reached |= hit & taint_seed
                if report:
                    findings.append(Finding(
                        "wire-taint", rel, ev["line"],
                        f"untrusted bytes ({', '.join(sorted(hit))}) reach "
                        f"session operation {ev['callee']}() without "
                        "passing a protocol:: strict decoder or verifier — "
                        "wire input must be decoded before it can touch "
                        "the store"))
                continue
            # Cross-TU: feeding a tainted arg into a callee whose matching
            # work reaches a sink.
            callee_q = prog.resolve(fn, ev["callee"], ev.get("recv", ""))
            if callee_q is not None and hit and not sanitized:
                if risky_params[callee_q]:
                    reached |= hit & taint_seed
                    if report:
                        findings.append(Finding(
                            "wire-taint", rel, ev["line"],
                            f"untrusted bytes ({', '.join(sorted(hit))}) "
                            f"flow into {ev['callee']}(), which passes "
                            "them to a session/store sink without "
                            "decoding"))
            # Assignment propagation from the raw statement text.
            m = ASSIGN_RE.match(stmt)
            if m is not None:
                lhs = normalize_chain(m.group(1))
                rhs_ids = expr_idents(m.group(2))
                rhs_tainted = any(
                    any(i == t or i.startswith(t + ".") for i in rhs_ids)
                    for t in tainted)
                if sanitized:
                    tainted.discard(lhs)
                elif rhs_tainted and (
                        ev["callee"] in TAINT_PROPAGATORS
                        or prog.resolve(fn, ev["callee"], ev.get("recv", "")) is None
                        or not risky_params.get(
                            prog.resolve(fn, ev["callee"], ev.get("recv", "")) or "", set())):
                    if ev["callee"] in TAINT_PROPAGATORS or rhs_tainted:
                        tainted.add(lhs)
        return reached

    # Fixpoint over risky-param summaries: seed each function with every
    # plausible parameter-like name it uses before defining.
    scoped = {q: fn for q, fn in prog.functions.items()
              if taint_scope(prog.files[q], fixture_mode)}
    changed = True
    rounds = 0
    while changed and rounds < 10:
        changed = False
        rounds += 1
        for qname, fn in scoped.items():
            # Candidate param names: identifiers used in sink/callee args
            # that are never assigned beforehand — approximated by seeding
            # each candidate and seeing whether it reaches a sink.
            candidates = set()
            for ev in fn["events"]:
                if ev["kind"] == "call" and (
                        sink_call(ev)
                        or prog.resolve(fn, ev["callee"], ev.get("recv", "")) is not None):
                    candidates |= {i.split(".")[0]
                                   for i in expr_idents(ev.get("args", ""))}
            for cand in sorted(candidates):
                if cand in risky_params[qname]:
                    continue
                if scan_function(qname, fn, {cand}, report=False):
                    risky_params[qname].add(cand)
                    changed = True

    # Final reporting run: taint starts only at real net-read sources.
    for qname, fn in scoped.items():
        scan_function(qname, fn, set(), report=True)
    return findings


# --------------------------------------------------------------------------
# Pass 3: journal-ordering
# --------------------------------------------------------------------------

# Which journal appends can cover which mutation. Entries are added and
# windows applied only by the answer folds, so nothing else covers them.
JOURNAL_COVERS = {
    "put_active": (),
    "put_deleted": ("journal_put_deleted",),
    "apply_window": (),
    "trim_below": ("journal_trim_below",),
}
# Intent records and raw journal appends cover any mutation kind: they put
# a durable record ahead of whatever follows.
JOURNAL_GENERIC = ("journal_intent",)


def pass_journal_ordering(prog: Program) -> list[Finding]:
    """Scope-based dominance approximation: a journal append covers every
    later matching mutation until the scope it appeared in closes. A journal
    inside a branch therefore does NOT bless mutations after the branch, or
    in a sibling branch — it didn't necessarily execute on their path. The
    same rule makes journal_answer() cover the answer folds called after
    it."""
    findings: list[Finding] = []
    for qname, fn in prog.functions.items():
        rel = prog.files[qname]
        in_fold = qname.split("::")[-1] in ANSWER_FOLDS
        credits: list[tuple[str, int]] = []  # (journal name | "*", depth)
        for ev in fn["events"]:
            if ev["kind"] == "scope_end":
                # A closed scope takes its appends with it, also when a
                # sibling branch opens at the same depth (`} else {`).
                credits = [c for c in credits if c[1] <= ev["depth"]]
                continue
            if ev["kind"] != "call":
                continue
            depth = ev.get("depth", 0)
            credits = [c for c in credits if c[1] <= depth]
            callee = ev["callee"]
            recv_last = ev["recv"].split(".")[-1] if ev["recv"] else ""
            if callee in JOURNAL_FUNCS or callee == ANSWER_JOURNAL:
                credits.append((callee, depth))
                continue
            if callee in ANSWER_FOLDS:
                if in_fold or ev.get("in_replay"):
                    continue  # the fold's caller, or the WAL, has the answer
                if not any(name == ANSWER_JOURNAL for name, _ in credits):
                    findings.append(Finding(
                        "journal-ordering", rel, ev["line"],
                        f"{callee}() applies an SCPU answer with no "
                        f"dominating {ANSWER_JOURNAL}() on this path — the "
                        "answer must be journaled before it is applied, or "
                        "a crash leaves host state the journal cannot "
                        "replay"))
                continue
            if callee in JOURNAL_GENERIC or (
                    recv_last == "journal_"
                    and callee in JOURNAL_RECEIVER_METHODS):
                credits.append(("*", depth))
                continue
            if recv_last == "vrdt_" and callee in MUTATION_METHODS:
                if ev.get("in_replay") or in_fold:
                    continue  # replay or answer fold: the WAL is the source
                if WAIVER_RE.search(ev.get("raw", "")):
                    continue
                ok = any(name == "*" or name in JOURNAL_COVERS[callee]
                         for name, _ in credits)
                if not ok:
                    findings.append(Finding(
                        "journal-ordering", rel, ev["line"],
                        f"durable-state mutation vrdt_.{callee}() with no "
                        "dominating journal append on this path — the WAL "
                        "must record every mutation before it is applied "
                        "(a crash here loses or forks state). Journal "
                        "first, or waive with `// analyze[journal-"
                        "ordering]: <reason>`"))
    return findings


# --------------------------------------------------------------------------
# Pass 4: wire-abi
# --------------------------------------------------------------------------

ENUM_RE = re.compile(
    r"enum\s+class\s+(\w+)\s*(?::\s*[\w:\s]+?)?\{(.*?)\}", re.S)
ENUM_ENTRY_RE = re.compile(r"(\w+)\s*(?:=\s*([^,}]+))?\s*(?:,|$)")
CONST_RE = re.compile(
    r"constexpr\s+[\w:<>\s]+?\b(k\w+)\s*=\s*([^;]+);")


def _eval_value(expr: str) -> int:
    expr = expr.strip()
    m = re.match(r"^(\d+)u?\s*<<\s*(\d+)u?$", expr)
    if m:
        return int(m.group(1)) << int(m.group(2))
    m = re.match(r"^(\d+)u?$", expr)
    if m:
        return int(m.group(1))
    raise AnalyzeError(f"wire-abi: cannot evaluate constant `{expr}`")


def extract_abi(repo: Path, enum_map: dict, const_map: dict,
                field_map: dict, prog: Program | None) -> dict:
    abi: dict[str, dict] = {"enums": {}, "consts": {}, "fields": {},
                            "protocol_version": None}
    for rel, enums in enum_map.items():
        path = repo / rel
        if not path.is_file():
            raise AnalyzeError(f"wire-abi: missing wire header {rel}")
        code = strip_comments_and_strings(path.read_text())
        for m in ENUM_RE.finditer(code):
            name, body = m.groups()
            if name not in enums:
                continue
            entries = {}
            next_val = 0
            for em in ENUM_ENTRY_RE.finditer(body):
                ename, eval_ = em.groups()
                if not ename:
                    continue
                if eval_ is not None:
                    next_val = _eval_value(eval_)
                entries[ename] = next_val
                next_val += 1
            abi["enums"][name] = entries
    for rel, consts in const_map.items():
        path = repo / rel
        code = strip_comments_and_strings(path.read_text())
        for m in CONST_RE.finditer(code):
            cname, cval = m.groups()
            if cname in consts:
                abi["consts"][cname] = _eval_value(cval)
    abi["protocol_version"] = abi["consts"].get("kProtocolVersion")
    if prog is not None:
        for rel, funcs in field_map.items():
            for fname in funcs:
                fn = next(
                    (f for f in prog.per_file.get(rel, [])
                     if f["qname"].split("::")[-1] == fname), None)
                if fn is None:
                    raise AnalyzeError(
                        f"wire-abi: encoder {fname}() not found in {rel}; "
                        "update ABI_FIELD_ORDER_FUNCS")
                seq = [ev["method"] for ev in fn["events"]
                       if ev["kind"] == "serial"]
                abi["fields"][fname] = seq
    return abi


def abi_to_lines(abi: dict) -> list[str]:
    lines = [
        "# strongworm wire-ABI lock file. Machine-written; do not edit by",
        "# hand. Regenerate with:  python3 tools/worm_analyze.py",
        "#   --pass wire-abi --update-lock",
        "# Changing an existing value requires bumping kProtocolVersion",
        "# first (see docs/PROTOCOL.md, 'Wire-ABI freeze').",
        f"protocol_version {abi['protocol_version']}",
    ]
    for ename in sorted(abi["enums"]):
        for entry, val in sorted(abi["enums"][ename].items(),
                                 key=lambda kv: (kv[1], kv[0])):
            lines.append(f"enum {ename} {entry} {val}")
    for cname in sorted(abi["consts"]):
        lines.append(f"const {cname} {abi['consts'][cname]}")
    for fname in sorted(abi["fields"]):
        lines.append(f"fieldorder {fname} {' '.join(abi['fields'][fname])}")
    return lines


def parse_lock_file(text: str) -> dict:
    abi: dict = {"enums": {}, "consts": {}, "fields": {},
                 "protocol_version": None}
    for line in text.split("\n"):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if parts[0] == "protocol_version":
            abi["protocol_version"] = int(parts[1])
        elif parts[0] == "enum":
            abi["enums"].setdefault(parts[1], {})[parts[2]] = int(parts[3])
        elif parts[0] == "const":
            abi["consts"][parts[1]] = int(parts[2])
        elif parts[0] == "fieldorder":
            abi["fields"][parts[1]] = parts[2:]
    return abi


def diff_abi(locked: dict, current: dict) -> tuple[list[str], list[str]]:
    """Returns (breaking, additions): breaking = changed/removed existing
    entries; additions = new entries absent from the lock."""
    breaking: list[str] = []
    additions: list[str] = []
    for ename, entries in locked["enums"].items():
        cur = current["enums"].get(ename)
        if cur is None:
            breaking.append(f"enum {ename} removed")
            continue
        for entry, val in entries.items():
            if entry not in cur:
                breaking.append(f"enum {ename}::{entry} removed "
                                f"(was {val})")
            elif cur[entry] != val:
                breaking.append(f"enum {ename}::{entry} changed "
                                f"{val} -> {cur[entry]}")
    for ename, entries in current["enums"].items():
        locked_entries = locked["enums"].get(ename, {})
        for entry, val in entries.items():
            if entry not in locked_entries:
                additions.append(f"enum {ename}::{entry} = {val}")
    for cname, val in locked["consts"].items():
        if cname not in current["consts"]:
            breaking.append(f"const {cname} removed (was {val})")
        elif current["consts"][cname] != val:
            if cname == "kProtocolVersion":
                continue  # the sanctioned way to change the rest
            breaking.append(f"const {cname} changed "
                            f"{val} -> {current['consts'][cname]}")
    for cname, val in current["consts"].items():
        if cname not in locked["consts"]:
            additions.append(f"const {cname} = {val}")
    for fname, seq in locked["fields"].items():
        cur = current["fields"].get(fname)
        if cur is None:
            breaking.append(f"fieldorder {fname} removed")
        elif cur != seq:
            breaking.append(
                f"fieldorder {fname} changed: {' '.join(seq)} -> "
                f"{' '.join(cur)}")
    for fname, seq in current["fields"].items():
        if fname not in locked["fields"]:
            additions.append(f"fieldorder {fname} = {' '.join(seq)}")
    return breaking, additions


def pass_wire_abi(repo: Path, lock_path: Path, update: bool,
                  prog: Program | None) -> list[Finding]:
    current = extract_abi(repo, ABI_ENUMS, ABI_CONSTANTS,
                          ABI_FIELD_ORDER_FUNCS, prog)
    rel_lock = str(lock_path)
    if update:
        if lock_path.is_file():
            locked = parse_lock_file(lock_path.read_text())
            breaking, _ = diff_abi(locked, current)
            if breaking and current["protocol_version"] == \
                    locked["protocol_version"]:
                return [Finding(
                    "wire-abi", rel_lock, 0,
                    "refusing --update-lock: existing wire values changed "
                    "without a kProtocolVersion bump:\n  "
                    + "\n  ".join(breaking)
                    + "\nBump kProtocolVersion in src/server/protocol.hpp, "
                    "then re-run --update-lock")]
        lock_path.parent.mkdir(parents=True, exist_ok=True)
        lock_path.write_text("\n".join(abi_to_lines(current)) + "\n")
        print(f"wire-abi: lock file written: {lock_path}")
        return []
    if not lock_path.is_file():
        return [Finding(
            "wire-abi", rel_lock, 0,
            "wire-ABI lock file is missing; generate it with "
            "--pass wire-abi --update-lock and commit it")]
    locked = parse_lock_file(lock_path.read_text())
    breaking, additions = diff_abi(locked, current)
    findings = []
    for b in breaking:
        findings.append(Finding(
            "wire-abi", rel_lock, 0,
            f"frozen wire ABI drifted: {b} — clients built against the "
            "locked ABI would misparse frames. Bump kProtocolVersion and "
            "regenerate the lock (--update-lock), or revert the change"))
    for a in additions:
        findings.append(Finding(
            "wire-abi", rel_lock, 0,
            f"wire surface gained `{a}` but docs/wire_abi.lock was not "
            "regenerated — run --pass wire-abi --update-lock and commit "
            "the lock"))
    return findings


# --------------------------------------------------------------------------
# Driver
# --------------------------------------------------------------------------

def discover_tus(repo: Path) -> list[Path]:
    src = repo / "src"
    if not src.is_dir():
        raise AnalyzeError(f"{repo} has no src/ directory")
    return sorted(p for p in src.rglob("*")
                  if p.suffix in (".hpp", ".cpp", ".h", ".cc")
                  and "CMakeFiles" not in p.parts)


def main(argv: list[str]) -> int:
    ap = argparse.ArgumentParser(
        description=__doc__.split("\n", 1)[0],
        formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--repo", type=Path,
                    default=Path(__file__).resolve().parent.parent)
    ap.add_argument("--pass", dest="passes", default=",".join(ALL_PASSES),
                    help="comma-separated subset of: " + ", ".join(ALL_PASSES))
    ap.add_argument("--files", nargs="+", type=Path, default=None,
                    help="fixture mode: analyze exactly these TUs as the "
                         "whole program")
    ap.add_argument("--cache-dir", type=Path, default=None,
                    help="per-TU fact cache (default build/analyze_cache; "
                         "'none' disables)")
    ap.add_argument("--lock", type=Path, default=None,
                    help="wire-ABI lock file (default docs/wire_abi.lock)")
    ap.add_argument("--update-lock", action="store_true")
    ap.add_argument("--verbose", action="store_true")
    args = ap.parse_args(argv)

    passes = tuple(p.strip() for p in args.passes.split(",") if p.strip())
    for p in passes:
        if p not in ALL_PASSES:
            print(f"worm-analyze: unknown pass `{p}` (choose from: "
                  f"{', '.join(ALL_PASSES)})", file=sys.stderr)
            return 2

    repo = args.repo
    fixture_mode = args.files is not None

    if args.cache_dir is None:
        cache_dir = None if fixture_mode else repo / "build" / "analyze_cache"
    elif str(args.cache_dir) == "none":
        cache_dir = None
    else:
        cache_dir = args.cache_dir
    cache = FactCache(cache_dir)

    try:
        if fixture_mode:
            tu_paths = args.files
            for p in tu_paths:
                if not p.is_file():
                    print(f"worm-analyze: no such file: {p}",
                          file=sys.stderr)
                    return 2
        else:
            tu_paths = discover_tus(repo)

        tus: list[tuple[str, dict]] = []
        for path in tu_paths:
            rel = (path.relative_to(repo).as_posix()
                   if not fixture_mode and path.is_relative_to(repo)
                   else path.name if fixture_mode
                   else path.as_posix())
            tus.append((rel, extract_tu(rel, path, cache)))
        prog = build_program(tus)

        findings: list[Finding] = []
        if "lock-order" in passes:
            findings.extend(pass_lock_order(prog))
        if "wire-taint" in passes:
            findings.extend(pass_wire_taint(prog, fixture_mode))
        if "journal-ordering" in passes:
            findings.extend(pass_journal_ordering(prog))
        if "wire-abi" in passes and not fixture_mode:
            lock_path = args.lock or repo / "docs" / "wire_abi.lock"
            findings.extend(
                pass_wire_abi(repo, lock_path, args.update_lock, prog))
    except AnalyzeError as e:
        print(f"worm-analyze: error: {e}", file=sys.stderr)
        return 2

    if args.verbose:
        print(f"worm-analyze: tus={len(tus)} "
              f"functions={len(prog.functions)} cache_hits={cache.hits} "
              f"cache_misses={cache.misses}", file=sys.stderr)

    for f in findings:
        print(f)
    if findings:
        print(f"worm-analyze: {len(findings)} finding(s)", file=sys.stderr)
        return 1
    print(f"worm-analyze: clean ({', '.join(passes)})")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
