#!/usr/bin/env python3
"""Check the drivers' command-line parsing end to end.

Every malformed value must exit 2 with the usage text and a first line
that names the flag (or the argument), and simple|mesa|ifu|banked and
I1..I4 must name the same machines in every driver. The inputs start
at most one worker and no listener even if a malformed value got
through: fpcserve preloads a missing file, which stops it before it
listens; negatives go through fpcvm; worker counts past 32 bits wrap
to 1 when truncated; fpcprobe's port wraps to a socket listened on
here, which must see no connection.

Usage: check_cli_usage.py <fpcvm> <fpcrun> <fpcserve> <fpcreplay>
                          <fpcprobe> <programs-dir>
"""

import pathlib
import re
import socket
import subprocess
import sys
import tempfile

failures = []


def run(cmd):
    try:
        return subprocess.run([str(c) for c in cmd], capture_output=True,
                              text=True, timeout=60)
    except subprocess.TimeoutExpired:
        return subprocess.CompletedProcess(cmd, None, "", "timed out")


def check(label, ok, detail=""):
    print(f"{'ok' if ok else 'FAIL'}: {label} {'' if ok else detail}")
    if not ok:
        failures.append(label)


def masked(text):
    return re.sub(r"[0-9.]+ s wall, [0-9.]+ jobs/s", "", text)


def main():
    if len(sys.argv) != 7:
        print(__doc__)
        return 2
    vm, batch, serve, replay, probe = sys.argv[1:6]
    primes = pathlib.Path(sys.argv[6]) / "primes.mm"

    with tempfile.TemporaryDirectory() as tmp, socket.socket() as sock:
        missing = f"--preload=p={pathlib.Path(tmp) / 'missing.mm'}"
        rec = pathlib.Path(tmp) / "r.fpcr"
        sock.bind(("127.0.0.1", 0))
        sock.listen(4)
        sock.setblocking(False)
        port = sock.getsockname()[1]

        # (command, what the first stderr line must name)
        malformed = [([vm, arg, primes, "10"], arg.split("=")[0])
                     for arg in ("--banks=abc", "--banks=-1", "--banks=+4",
                                 "--banks=4x", "--banks=4294967296",
                                 "--metrics-interval=-5",
                                 "--timeslice=18446744073709551616",
                                 "--trace-capacity=", "--impl=I5",
                                 "--entry=main", "--banks", "--stats=1",
                                 "--no-such-flag")]
        malformed += [([serve, "--workers=1", arg, missing],
                       arg.split("=")[0])
                      for arg in ("--default-weight=abc", "--port=70000",
                                  "--workers=4294967297",
                                  "--tenant=gold:abc", "--slo=gold:fast",
                                  "--quota-window-ms=1e3")]
        malformed += [
            ([vm, primes, "1x"], "'1x'"),
            ([batch, "--workers=4294967297", "--jobs=1", primes], "--workers"),
            ([batch, "--workers=1", "--jobs=abc", primes], "--jobs"),
            ([batch, "--workers=1", "--jobs=1", "--synthetic",
              f"--record-out={rec}"], "--record-out"),
            ([replay, "record", primes, "10", "--linkage=bogus",
              f"--out={rec}"], "--linkage"),
            ([replay, "record", primes, "10", "--interval=abc",
              f"--out={rec}"], "--interval"),
            ([probe, f"--port={port + 65536}", "read"], "--port"),
            ([probe, f"--port={port}", "detach", "abc"], "'abc'"),
        ]
        for cmd, needle in malformed:
            label = " ".join(pathlib.Path(str(c)).name for c in cmd[:3])
            p = run(cmd)
            first = p.stderr.splitlines()[0] if p.stderr else ""
            check(f"{label}: usage error naming {needle}",
                  p.returncode == 2 and "usage:" in p.stderr
                  and needle in first,
                  f"(exit {p.returncode}, {first!r})")
        try:
            sock.accept()[0].close()
            check("fpcprobe: no connection attempted", False)
        except BlockingIOError:
            check("fpcprobe: no connection attempted", True)
        check("fpcreplay: malformed record wrote nothing", not rec.exists())
        p = run([serve, "--workers=1", "--default-weight=2.5", "--port=0",
                 missing])
        check("fpcserve: well-formed values reach the preload",
              p.returncode == 1 and "cannot open" in p.stderr,
              f"(exit {p.returncode}, {p.stderr[:200]!r})")

        # I1..I4 name the same machines as simple|mesa|ifu|banked.
        def stats(tool, impl, *rest):
            p = run([tool, f"--impl={impl}", "--stats", *rest, primes, "20"])
            return p.returncode, masked(p.stdout)

        for token, name in (("I1", "simple"), ("I2", "mesa"),
                            ("I3", "ifu"), ("I4", "banked")):
            a = stats(vm, token)
            check(f"fpcvm --impl={token} == --impl={name}",
                  a[0] == 0 and a == stats(vm, name), f"(exit {a[0]})")
        check("fpcvm --impl=I4 != --impl=mesa",
              stats(vm, "I4") != stats(vm, "mesa"))
        a = stats(batch, "I3", "--workers=1", "--jobs=1")
        check("fpcrun --impl=I3 == --impl=ifu",
              a[0] == 0 and a == stats(batch, "ifu", "--workers=1",
                                       "--jobs=1"), f"(exit {a[0]})")
        p = run([replay, "record", primes, "20", "--impl=I4", f"--out={rec}"])
        check("fpcreplay record --impl=I4", p.returncode == 0,
              f"(exit {p.returncode}, {p.stderr[:200]!r})")
        p = run([replay, "diverge", rec, "--engine=ifu"])
        check("fpcreplay diverge --engine=ifu",
              p.returncode == 0 and "I4-banked vs I3-ifu" in p.stdout,
              f"(exit {p.returncode}, {p.stdout[:200]!r})")

        # Program arguments keep their signed 16-bit wrap.
        base = run([vm, primes, "20"]).stdout
        for arg in ("65556", "-65516"):
            p = run([vm, primes, arg])
            check(f"fpcvm program argument {arg} wraps to 20",
                  p.returncode == 0 and p.stdout == base,
                  f"(exit {p.returncode})")

    print(f"\n{len(failures)} command-line check(s) failed" if failures
          else "\nall command-line checks passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
