#!/usr/bin/env python3
"""Check fpcvm's --accel option end to end.

--accel=on, its synonym --accel=threaded, and --accel=off must print
the same program output and write a byte-identical --stats-json
document (simulated numbers do not depend on the host backend), and an
unknown value must exit 2 with the usage message.

Usage: check_accel_option.py <fpcvm> <primes.mm>
"""

import pathlib
import subprocess
import sys
import tempfile


def run(cmd):
    return subprocess.run(
        [str(c) for c in cmd], capture_output=True, text=True, timeout=120
    )


def main():
    if len(sys.argv) != 3:
        print(__doc__)
        return 2
    fpcvm, primes = sys.argv[1], sys.argv[2]
    failures = []

    with tempfile.TemporaryDirectory() as tmp:
        outputs = {}
        for mode in ("on", "threaded", "off"):
            stats = pathlib.Path(tmp) / f"{mode}.json"
            p = run([fpcvm, f"--accel={mode}", f"--stats-json={stats}",
                     primes, "200"])
            if p.returncode != 0:
                failures.append(f"--accel={mode}: exit {p.returncode}: "
                                f"{p.stderr!r}")
                continue
            outputs[mode] = (p.stdout, stats.read_bytes())
        for mode in ("threaded", "off"):
            if "on" in outputs and mode in outputs:
                if outputs[mode][0] != outputs["on"][0]:
                    failures.append(f"--accel={mode}: program output "
                                    "differs from --accel=on")
                if outputs[mode][1] != outputs["on"][1]:
                    failures.append(f"--accel={mode}: stats JSON "
                                    "differs from --accel=on")

    p = run([fpcvm, "--accel=bogus", primes, "200"])
    if p.returncode != 2 or "usage:" not in p.stderr:
        failures.append(f"--accel=bogus: exit {p.returncode}, "
                        f"stderr {p.stderr[:200]!r}")

    for f in failures:
        print(f"FAIL: {f}")
    if not failures:
        print("ok: --accel=on|threaded|off agree; --accel=bogus is a "
              "usage error")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
