#!/usr/bin/env python3
"""Tests for tools/worm_lint.py.

Asserts (a) the real tree lints clean, (b) every known-bad fixture in
tests/lint_fixtures/ is flagged with the expected rule, (c) the good fixture
— which deliberately skirts each rule's edge — produces zero findings, and
(d) seeding a fixture violation into src/ makes the tree lint fail.

Run directly or via ctest (registered as WormLint.Suite).
"""

import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
LINT = REPO / "tools" / "worm_lint.py"
FIXTURES = REPO / "tests" / "lint_fixtures"

EXPECTED_RULE = {
    "bad_scpu_bypass.cpp": "scpu-isolation",
    "bad_wall_clock.cpp": "wall-clock",
    "bad_dropped_verify.cpp": "dropped-result",
    "bad_raw_mutex.cpp": "raw-mutex",
    "bad_fault_bypass.cpp": "fault-bypass",
    "bad_blocking_wait.cpp": "blocking-under-state-mu",
    "bad_crypto_kernel.cpp": "crypto-isolation",
    "bad_file_io.cpp": "file-io",
    # Live in server/ and cluster/ subdirectories so --as-src maps them to
    # src/server/ and src/cluster/, the two scopes the rule guards.
    "server/bad_direct_store.cpp": "server-store-isolation",
    "cluster/bad_direct_store.cpp": "server-store-isolation",
}

failures = []


def check(name, cond, detail=""):
    status = "ok" if cond else "FAIL"
    print(f"[{status}] {name}" + (f" — {detail}" if detail and not cond else ""))
    if not cond:
        failures.append(name)


def run_lint(*args):
    return subprocess.run(
        [sys.executable, str(LINT), *args], capture_output=True, text=True)


def main():
    # (a) the real tree is clean.
    r = run_lint("--repo", str(REPO))
    check("tree-clean", r.returncode == 0, f"rc={r.returncode}\n{r.stdout}")

    # (b) each bad fixture is flagged, with the rule it was written to trip.
    for fixture, rule in EXPECTED_RULE.items():
        path = FIXTURES / fixture
        r = run_lint("--as-src", str(path))
        check(f"{fixture}:flagged", r.returncode == 1,
              f"rc={r.returncode}\n{r.stdout}{r.stderr}")
        check(f"{fixture}:rule", f"[{rule}]" in r.stdout,
              f"expected [{rule}] in:\n{r.stdout}")

    # crypto-isolation flags each of its fixture's six calls (process_blocks,
    # force_backend, the 32- and 64-bit portable Montgomery products, and the
    # MULX/ADX product by name and through the context's pointer), so a
    # kernel renamed out of the rule's pattern shows up here.
    r = run_lint("--as-src", str(FIXTURES / "bad_crypto_kernel.cpp"))
    check("bad_crypto_kernel.cpp:every-call",
          r.stdout.count("[crypto-isolation]") == 6,
          f"expected 6 findings, one per call:\n{r.stdout}")

    # file-io flags each of its fixture's 13 marked lines: both headers,
    # the three stream types, std::filesystem, the six syscalls and
    # std::rename. So a file API dropped from the rule's pattern shows up
    # here.
    r = run_lint("--as-src", str(FIXTURES / "bad_file_io.cpp"))
    check("bad_file_io.cpp:every-call",
          r.stdout.count("[file-io]") == 13,
          f"expected 13 findings, one per marked line:\n{r.stdout}")

    # (c) the near-miss fixture is clean: no false positives on comments,
    # strings, continuations, (void) discards or the annotated wrappers.
    r = run_lint("--as-src", str(FIXTURES / "good_patterns.cpp"))
    check("good_patterns:clean", r.returncode == 0,
          f"rc={r.returncode}\n{r.stdout}")

    # The session-layer shape is clean inside src/server/ and src/cluster/
    # (comments naming the store type don't count; only code does).
    r = run_lint("--as-src", str(FIXTURES / "server" / "good_session_use.cpp"))
    check("good_session_use:clean", r.returncode == 0,
          f"rc={r.returncode}\n{r.stdout}")
    r = run_lint("--as-src",
                 str(FIXTURES / "cluster" / "good_session_use.cpp"))
    check("cluster_good_session_use:clean", r.returncode == 0,
          f"rc={r.returncode}\n{r.stdout}")

    # include-cycle needs both halves of the loop on one invocation: the rule
    # runs over the whole scanned edge set, and reports the SCC exactly once.
    r = run_lint("--as-src", str(FIXTURES / "cycle" / "bad_cycle_a.hpp"),
                 str(FIXTURES / "cycle" / "bad_cycle_b.hpp"))
    check("include-cycle:flagged",
          r.returncode == 1 and r.stdout.count("[include-cycle]") == 1
          and "bad_cycle_a.hpp -> src/cycle/bad_cycle_b.hpp" in r.stdout,
          f"rc={r.returncode}\n{r.stdout}")
    # Each half alone has a dangling include (no edge), so no cycle — the
    # rule only counts edges into files it actually scanned.
    r = run_lint("--as-src", str(FIXTURES / "cycle" / "bad_cycle_a.hpp"))
    check("include-cycle:half-alone-clean", r.returncode == 0,
          f"rc={r.returncode}\n{r.stdout}")
    # The linear chain with a forward-declared back-reference is the fix
    # shape, and must stay clean.
    r = run_lint("--as-src", str(FIXTURES / "cycle" / "good_chain_a.hpp"),
                 str(FIXTURES / "cycle" / "good_chain_b.hpp"))
    check("include-cycle:chain-clean", r.returncode == 0,
          f"rc={r.returncode}\n{r.stdout}")

    # (d) seeding a violation into src/ fails the tree scan: copy the repo's
    # src/ + the headers the meta-check reads into a scratch repo, drop a bad
    # fixture in, and lint it.
    with tempfile.TemporaryDirectory() as tmp:
        scratch = Path(tmp) / "repo"
        shutil.copytree(REPO / "src", scratch / "src")
        (scratch / "tools").mkdir()
        shutil.copy(LINT, scratch / "tools" / "worm_lint.py")
        r = run_lint("--repo", str(scratch))
        check("scratch-clean", r.returncode == 0,
              f"rc={r.returncode}\n{r.stdout}")
        shutil.copy(FIXTURES / "bad_wall_clock.cpp",
                    scratch / "src" / "worm" / "bad_wall_clock.cpp")
        r = run_lint("--repo", str(scratch))
        check("seeded-violation-fails",
              r.returncode == 1 and "[wall-clock]" in r.stdout,
              f"rc={r.returncode}\n{r.stdout}")

    if failures:
        print(f"\n{len(failures)} check(s) failed: {', '.join(failures)}")
        return 1
    print("\nall checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
