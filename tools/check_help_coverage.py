#!/usr/bin/env python3
"""Help-coverage checker: every flag a driver declares must be listed in
its --help output exactly once, and vice versa.

Usage:
    check_help_coverage.py <driver-binary> <driver-source.cc> <options.cc>

The declared set comes from the option table's declaration form
(`flag("--x", ...)`, `value("--x", ...)`, `choice("--x", ...)`): the
calls in the driver source, the calls in each shared group of
options.cc the driver source calls (`engineOptions(` ...), and those
the table itself makes (inside `OptionTable::` members, e.g. --help).
The documented set comes from running `<driver> --help` and collecting
the option lines (two spaces, then the flag; wrapped help text is
indented further). The two sets must be equal, and no flag may be
documented twice. Exits 0 on success, 1 with the difference otherwise.
Stdlib only.
"""

import re
import subprocess
import sys

DECL_RE = re.compile(r'\b(?:flag|value|choice)\(\s*"(--[a-z][a-z0-9-]*)"')
# A function definition in the repository's style: its name opens a
# line and the braces of its body sit in column 0.
FUNC_RE = re.compile(r"^([A-Za-z_][\w:]*)\([^;{]*\n\{\n(.*?)^\}",
                     re.M | re.S)
HELP_FLAG_RE = re.compile(r"^  (--[a-z][a-z0-9-]*)")


def read(path):
    with open(path, "r", encoding="utf-8") as f:
        return f.read()


def declared_flags(driver_src, shared_src):
    flags = set(DECL_RE.findall(driver_src))
    for name, body in FUNC_RE.findall(shared_src):
        group = DECL_RE.findall(body)
        if name.startswith("OptionTable::"):
            flags.update(group)
        elif group and re.search(r"\b%s\(" % re.escape(name), driver_src):
            flags.update(group)
    return flags


def documented_flags(binary):
    proc = subprocess.run([binary, "--help"], capture_output=True,
                          text=True)
    if proc.returncode != 0:
        sys.stderr.write(
            "check_help_coverage: '%s --help' exited %d\n"
            % (binary, proc.returncode))
        sys.exit(1)
    counts = {}
    for line in proc.stdout.splitlines():
        m = HELP_FLAG_RE.match(line)
        if m:
            flag = m.group(1)
            counts[flag] = counts.get(flag, 0) + 1
    return counts


def main(argv):
    if len(argv) != 4:
        sys.stderr.write(__doc__)
        return 2
    binary, source, shared = argv[1], argv[2], argv[3]

    parsed = declared_flags(read(source), read(shared))
    if not parsed:
        sys.stderr.write(
            "check_help_coverage: no declared flags found in %s and %s "
            "(declaration form changed?)\n" % (source, shared))
        return 1
    documented = documented_flags(binary)

    ok = True
    for flag, n in sorted(documented.items()):
        if n != 1:
            sys.stderr.write(
                "check_help_coverage: %s listed %d times in --help\n"
                % (flag, n))
            ok = False
    undocumented = parsed - set(documented)
    unparsed = set(documented) - parsed
    for flag in sorted(undocumented):
        sys.stderr.write(
            "check_help_coverage: %s is parsed but missing from "
            "--help\n" % flag)
        ok = False
    for flag in sorted(unparsed):
        sys.stderr.write(
            "check_help_coverage: %s is in --help but never parsed\n"
            % flag)
        ok = False
    if not ok:
        return 1
    print("check_help_coverage: OK (%d flags)" % len(parsed))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
