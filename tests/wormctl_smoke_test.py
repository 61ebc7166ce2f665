#!/usr/bin/env python3
"""Restart smoke test for the wormctl CLI.

Drives the real binary over its file-backed disk in a fresh temp dir, one
process per command, so every step boots the deployment from what the last
one persisted. The block allocator is not among those files: each boot
derives it from the adopted VRDT, and a record written after a restart must
not land on a live record's blocks.

Usage: wormctl_smoke_test.py <path-to-wormctl>
(registered with ctest as Wormctl.RestartSmoke)
"""

import subprocess
import sys
import tempfile
from pathlib import Path

failures = []


def check(name, cond, detail=""):
    status = "ok" if cond else "FAIL"
    print(f"[{status}] {name}" + (f" — {detail}" if detail and not cond else ""))
    if not cond:
        failures.append(name)


def main():
    if len(sys.argv) != 2:
        print(__doc__)
        return 2
    wormctl = sys.argv[1]

    with tempfile.TemporaryDirectory() as tmp:
        store = Path(tmp) / "store"
        store.mkdir()

        def run(*args):
            r = subprocess.run([wormctl, str(store), *args],
                               capture_output=True, text=True)
            return r.returncode, r.stdout + r.stderr

        def get_reads(sn, verdict, text=None):
            rc, out = run("get", str(sn))
            ok = rc == 0 and f"SN {sn}: {verdict}" in out
            if text is not None:
                ok = ok and f"  {text}" in out
            check(f"get {sn} reads {verdict}", ok, f"rc={rc}\n{out}")

        rc, out = run("init")
        check("init", rc == 0, f"rc={rc}\n{out}")

        puts = [(1, "30", "first record"), (2, "30", "second record"),
                (3, "1", "short-lived")]
        for sn, days, text in puts:
            rc, out = run("put", days, text)
            check(f"put {sn}", rc == 0 and f"stored as SN {sn}" in out,
                  f"rc={rc}\n{out}")
        for sn, _, text in puts:
            get_reads(sn, "authentic", text)

        # Written after three restarts: must take a free block, not SN 1's.
        rc, out = run("put", "30", "fourth record")
        check("put 4", rc == 0 and "stored as SN 4" in out, f"rc={rc}\n{out}")
        get_reads(4, "authentic", "fourth record")
        get_reads(1, "authentic", "first record")

        rc, out = run("tick", "48")
        check("tick past the short retention", rc == 0, f"rc={rc}\n{out}")
        get_reads(3, "deleted-verified")

        rc, out = run("audit")
        check("audit clean", rc == 0 and "0 finding(s)" in out,
              f"rc={rc}\n{out}")

        # The allocator is derived at boot, so no file holds it.
        files = sorted(p.name for p in store.iterdir())
        check("persists only clock, disk, NVRAM and VRDT",
              files == ["clock.bin", "disk.bin", "nvram.bin", "vrdt.bin"],
              str(files))

        rc, out = run("get", "abc")
        check("get abc exits 2", rc == 2, f"rc={rc}\n{out}")

    if failures:
        print(f"{len(failures)} check(s) failed: {', '.join(failures)}")
        return 1
    print("all checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
