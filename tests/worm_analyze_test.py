#!/usr/bin/env python3
"""Tests for tools/worm_analyze.py.

Asserts (a) the real tree analyzes clean on all four passes, (b) each pass
flags its known-bad fixture and accepts its known-good twin (lock-order has
two pairs: a cross-TU cycle, and mailbox crossings made with state_mu_
held), (c) a fixture that fails to parse yields a diagnostic and
exit 2 — not a crash and not a clean verdict, (d) the per-TU fact cache hits
on a second run and is invalidated when the file changes, and (e) mutating a
frozen wire value in a scratch tree fails the wire-abi pass and
--update-lock refuses to bless it until kProtocolVersion is bumped.

Run directly or via ctest (registered as WormAnalyze.Suite).
"""

import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
ANALYZE = REPO / "tools" / "worm_analyze.py"
FIXTURES = REPO / "tests" / "analyze_fixtures"

failures = []


def check(name, cond, detail=""):
    status = "ok" if cond else "FAIL"
    print(f"[{status}] {name}" + (f" — {detail}" if detail and not cond else ""))
    if not cond:
        failures.append(name)


def run_analyze(*args):
    return subprocess.run(
        [sys.executable, str(ANALYZE), *args],
        capture_output=True, text=True)


def fixture_run(passes, *files):
    return run_analyze("--pass", passes, "--files",
                       *[str(FIXTURES / f) for f in files])


def make_scratch(tmp):
    """Scratch copy of the tree: src/, the ABI lock, and the tool."""
    scratch = Path(tmp) / "repo"
    shutil.copytree(REPO / "src", scratch / "src")
    (scratch / "docs").mkdir()
    shutil.copy(REPO / "docs" / "wire_abi.lock",
                scratch / "docs" / "wire_abi.lock")
    (scratch / "tools").mkdir()
    shutil.copy(ANALYZE, scratch / "tools" / "worm_analyze.py")
    return scratch


def main():
    # (a) the real tree is clean on every pass.
    r = run_analyze("--repo", str(REPO), "--cache-dir", "none")
    check("tree-clean", r.returncode == 0,
          f"rc={r.returncode}\n{r.stdout}{r.stderr}")

    # (b) per-pass seeded violations and their clean twins.
    r = fixture_run("lock-order", "lock_order_bad_a.cpp",
                    "lock_order_bad_b.cpp")
    check("lock-order:bad-flagged",
          r.returncode == 1 and "[lock-order]" in r.stdout
          and "mu_a_" in r.stdout and "mu_b_" in r.stdout,
          f"rc={r.returncode}\n{r.stdout}")
    r = fixture_run("lock-order", "lock_order_good.cpp")
    check("lock-order:good-clean", r.returncode == 0,
          f"rc={r.returncode}\n{r.stdout}")
    # Crossings made with state_mu_ held: a write crossing directly and
    # through a helper, a duty's, and a litigation command's. The three-step
    # shape (closed scope or unlock window) and framing are not.
    r = fixture_run("lock-order", "crossing_bad.cpp")
    check("lock-order:crossing-under-state-mu-flagged",
          r.returncode == 1 and r.stdout.count("crosses the mailbox") == 4
          and "crossing_bad.cpp:14:" in r.stdout
          and "(via Store::send_chunk)" in r.stdout
          and "(via Store::do_strengthen_batch)" in r.stdout
          and "crossing_bad.cpp:47:" in r.stdout
          and "(channel_.send_ok)" in r.stdout,
          f"rc={r.returncode}\n{r.stdout}")
    r = fixture_run("lock-order", "crossing_good.cpp")
    check("lock-order:crossing-released-clean", r.returncode == 0,
          f"rc={r.returncode}\n{r.stdout}")

    r = fixture_run("wire-taint", "taint_bad.cpp")
    check("wire-taint:bad-flagged",
          r.returncode == 1 and "[wire-taint]" in r.stdout
          and r.stdout.count("taint_bad.cpp") >= 2,
          f"rc={r.returncode}\n{r.stdout}")
    r = fixture_run("wire-taint", "taint_good.cpp")
    check("wire-taint:good-clean", r.returncode == 0,
          f"rc={r.returncode}\n{r.stdout}")

    # An unjournaled mutation, one journaled only in a branch, an answer
    # applied before it is journaled, two journaled only in a branch
    # (applied after it, and applied in its sibling), and an entry-editing
    # fold applied with no journaled answer.
    r = fixture_run("journal-ordering", "journal_bad.cpp")
    check("journal:bad-flagged",
          r.returncode == 1 and "[journal-ordering]" in r.stdout
          and r.stdout.count(": [journal-ordering]") == 6
          and "journal_bad.cpp:13: " in r.stdout
          and "journal_bad.cpp:21: " in r.stdout
          and r.stdout.count("applies an SCPU answer") == 4
          and "journal_bad.cpp:26: " in r.stdout
          and "journal_bad.cpp:35: " in r.stdout
          and "journal_bad.cpp:43: " in r.stdout
          and "journal_bad.cpp:50: " in r.stdout,
          f"rc={r.returncode}\n{r.stdout}")
    r = fixture_run("journal-ordering", "journal_good.cpp")
    check("journal:good-clean", r.returncode == 0,
          f"rc={r.returncode}\n{r.stdout}")

    # (c) parse failure: diagnostic naming the file, exit 2, no traceback.
    r = fixture_run("lock-order", "parse_error.cpp")
    check("parse-error:exit2", r.returncode == 2,
          f"rc={r.returncode}\n{r.stdout}{r.stderr}")
    check("parse-error:diagnostic",
          "parse_error.cpp" in r.stderr and "does not parse" in r.stderr
          and "Traceback" not in r.stderr,
          r.stderr)

    # (d) fact cache: second identical run hits the cache; editing the file
    # invalidates it (the verdict must flip, not go stale).
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp) / "case.cpp"
        cache = Path(tmp) / "cache"
        shutil.copy(FIXTURES / "journal_bad.cpp", work)
        args = ("--pass", "journal-ordering", "--files", str(work),
                "--cache-dir", str(cache), "--verbose")
        r1 = run_analyze(*args)
        r2 = run_analyze(*args)
        check("cache:first-miss",
              r1.returncode == 1 and "cache_misses=1" in r1.stderr,
              f"rc={r1.returncode}\n{r1.stderr}")
        check("cache:second-hit",
              r2.returncode == 1 and "cache_hits=1" in r2.stderr,
              f"rc={r2.returncode}\n{r2.stderr}")
        shutil.copy(FIXTURES / "journal_good.cpp", work)
        r3 = run_analyze(*args)
        check("cache:invalidated-on-edit",
              r3.returncode == 0 and "cache_misses=1" in r3.stderr,
              f"rc={r3.returncode}\n{r3.stdout}{r3.stderr}")

    # (e) wire-ABI freeze on a scratch tree.
    with tempfile.TemporaryDirectory() as tmp:
        scratch = make_scratch(tmp)
        proto = scratch / "src" / "server" / "protocol.hpp"
        status_hpp = scratch / "src" / "worm" / "status.hpp"

        r = run_analyze("--repo", str(scratch), "--pass", "wire-abi",
                        "--cache-dir", "none")
        check("abi:scratch-clean", r.returncode == 0,
              f"rc={r.returncode}\n{r.stdout}{r.stderr}")

        # Renumber an existing status value: drift must fail the pass...
        status_hpp.write_text(status_hpp.read_text().replace(
            "kBusy = 64", "kBusy = 99"))
        r = run_analyze("--repo", str(scratch), "--pass", "wire-abi",
                        "--cache-dir", "none")
        check("abi:drift-fails",
              r.returncode == 1 and "kBusy" in r.stdout
              and "64 -> 99" in r.stdout,
              f"rc={r.returncode}\n{r.stdout}")

        # ...and --update-lock must refuse to bless it without a version bump.
        r = run_analyze("--repo", str(scratch), "--pass", "wire-abi",
                        "--update-lock", "--cache-dir", "none")
        check("abi:update-refused-without-bump",
              r.returncode == 1 and "kProtocolVersion" in r.stdout,
              f"rc={r.returncode}\n{r.stdout}")

        # Bump the protocol version: now the regen goes through and the
        # subsequent check is clean.
        proto.write_text(proto.read_text().replace(
            "kProtocolVersion = 5", "kProtocolVersion = 6"))
        r = run_analyze("--repo", str(scratch), "--pass", "wire-abi",
                        "--update-lock", "--cache-dir", "none")
        check("abi:update-after-bump", r.returncode == 0,
              f"rc={r.returncode}\n{r.stdout}{r.stderr}")
        r = run_analyze("--repo", str(scratch), "--pass", "wire-abi",
                        "--cache-dir", "none")
        check("abi:clean-after-regen", r.returncode == 0,
              f"rc={r.returncode}\n{r.stdout}")

        # A purely additive change (new enum entry) is not breaking, but
        # still fails until the lock is regenerated — no silent drift.
        status_hpp.write_text(status_hpp.read_text().replace(
            "kSnMismatch = 69,", "kSnMismatch = 69,\n  kThrottled = 70,"))
        r = run_analyze("--repo", str(scratch), "--pass", "wire-abi",
                        "--cache-dir", "none")
        check("abi:addition-needs-regen",
              r.returncode == 1 and "kThrottled" in r.stdout,
              f"rc={r.returncode}\n{r.stdout}")
        r = run_analyze("--repo", str(scratch), "--pass", "wire-abi",
                        "--update-lock", "--cache-dir", "none")
        check("abi:addition-regen-ok", r.returncode == 0,
              f"rc={r.returncode}\n{r.stdout}{r.stderr}")

    if failures:
        print(f"\n{len(failures)} check(s) failed: {', '.join(failures)}")
        return 1
    print("\nall checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
