#!/usr/bin/env python3
"""Compare two fpc-bench-v1 JSON documents metric by metric.

Usage: bench_diff.py <baseline.json> <candidate.json> [--threshold=0.25]
       [--lower-is-better=prefix,prefix,...]
       [--informational=prefix,prefix,...]

Prints a delta table over the shared `metrics` maps and exits 1 when
any metric regressed by more than the threshold (relative). Metrics
are assumed higher-is-better unless their name starts with one of the
lower-is-better prefixes (defaults cover wall-clock and miss/drop
counters). Metrics whose name starts with an informational prefix
(default `attr_` — host-time latency attribution) are printed but
never gate: they are wall-clock measurements of a shared runner, not
simulated invariants. Metrics present on only one side are reported
but never fail the comparison — benches grow columns over time. Numeric cells
of shared `tables` are diffed too, but informationally only: table
rows mix host-noisy and simulated numbers, so only the curated
`metrics` map gates.

A document may also declare absolute floors under `gates`
({"metric": {"min": value}}, from JsonReport::gate). Every floor
declared by either document is enforced on the candidate: a candidate
below a floor, or missing a gated metric, fails whatever the baseline
measured.

Shared-runner numbers are noisy: the default threshold is generous,
and CI treats this as a smoke check on the committed baselines, not a
microbenchmark gate.
"""

import json
import sys

DEFAULT_THRESHOLD = 0.25
DEFAULT_LOWER_IS_BETTER = ("wall_", "ms_", "misses_", "dropped_", "slow_")
DEFAULT_INFORMATIONAL = ("attr_",)


def load(path):
    with open(path) as f:
        doc = json.load(f)
    if doc.get("schema") != "fpc-bench-v1":
        sys.exit(f"bench_diff: {path}: not an fpc-bench-v1 document "
                 f"(schema {doc.get('schema')!r})")
    return doc


def parse_cell(cell):
    """A table cell as a float, or None when it isn't numeric."""
    text = str(cell).strip().rstrip("%")
    try:
        return float(text)
    except ValueError:
        return None


def diff_tables(base_doc, cand_doc):
    base_tables = base_doc.get("tables", {})
    cand_tables = cand_doc.get("tables", {})
    for name in sorted(set(base_tables) & set(cand_tables)):
        bt, ct = base_tables[name], cand_tables[name]
        if bt.get("headers") != ct.get("headers"):
            print(f"table {name}: headers differ, skipped")
            continue
        headers = bt["headers"]

        def keyed(rows):
            # Rows are identified by their label cells; the first
            # column is always a label even when it parses as a
            # number (e.g. a worker count).
            out = {}
            for row in rows:
                key = tuple(str(c) for i, c in enumerate(row)
                            if i == 0 or parse_cell(c) is None)
                out[key] = row
            return out

        base_rows, cand_rows = keyed(bt["rows"]), keyed(ct["rows"])
        print(f"table {name}:")
        for key in base_rows:
            if key not in cand_rows:
                print(f"  {' / '.join(key)}: only in baseline")
                continue
            brow, crow = base_rows[key], cand_rows[key]
            deltas = []
            for col, b, c in zip(headers, brow, crow):
                bv, cv = parse_cell(b), parse_cell(c)
                if bv is None or cv is None or bv == cv:
                    continue
                rel = (cv - bv) / abs(bv) if bv else float("inf")
                deltas.append(f"{col} {bv:g}->{cv:g} ({rel:+.1%})")
            label = " / ".join(key) or "(row)"
            print(f"  {label}: " +
                  ("; ".join(deltas) if deltas else "unchanged"))
        for key in cand_rows:
            if key not in base_rows:
                print(f"  {' / '.join(key)}: only in candidate")


def main(argv):
    paths = []
    threshold = DEFAULT_THRESHOLD
    lower_prefixes = DEFAULT_LOWER_IS_BETTER
    info_prefixes = DEFAULT_INFORMATIONAL
    for arg in argv[1:]:
        if arg.startswith("--threshold="):
            threshold = float(arg.split("=", 1)[1])
        elif arg.startswith("--lower-is-better="):
            lower_prefixes = tuple(
                p for p in arg.split("=", 1)[1].split(",") if p)
        elif arg.startswith("--informational="):
            info_prefixes = tuple(
                p for p in arg.split("=", 1)[1].split(",") if p)
        elif arg.startswith("--"):
            print(__doc__)
            return 2
        else:
            paths.append(arg)
    if len(paths) != 2:
        print(__doc__)
        return 2

    base_doc, cand_doc = load(paths[0]), load(paths[1])
    if base_doc.get("bench") != cand_doc.get("bench"):
        print(f"bench_diff: comparing different benches: "
              f"{base_doc.get('bench')!r} vs {cand_doc.get('bench')!r}")
    base, cand = base_doc.get("metrics", {}), cand_doc.get("metrics", {})

    shared = sorted(set(base) & set(cand))
    only_base = sorted(set(base) - set(cand))
    only_cand = sorted(set(cand) - set(base))
    regressions = []

    width = max((len(n) for n in shared), default=10)
    print(f"bench: {cand_doc.get('bench')}  "
          f"({len(shared)} shared metrics, threshold {threshold:.0%})")
    for name in shared:
        b, c = float(base[name]), float(cand[name])
        lower_better = name.startswith(lower_prefixes)
        informational = name.startswith(info_prefixes)
        if b == 0:
            rel = 0.0 if c == 0 else float("inf")
        else:
            rel = (c - b) / abs(b)
        # A regression is movement in the bad direction past threshold.
        bad = rel > threshold if lower_better else rel < -threshold
        if informational:
            marker = " (informational)"
        else:
            marker = " REGRESSED" if bad else ""
            if bad:
                regressions.append(name)
        print(f"  {name:<{width}}  {b:>14.4f} -> {c:>14.4f}  "
              f"{rel:+8.1%}{marker}")
    for name in only_base:
        print(f"  {name}: only in baseline")
    for name in only_cand:
        print(f"  {name}: only in candidate")

    gates = dict(base_doc.get("gates", {}))
    gates.update(cand_doc.get("gates", {}))
    for name in sorted(gates):
        floor = float(gates[name]["min"])
        if name not in cand:
            print(f"  gate {name} >= {floor:g}: missing in candidate "
                  f"FAILED")
            regressions.append(name)
            continue
        ok = float(cand[name]) >= floor
        print(f"  gate {name} >= {floor:g}: {float(cand[name]):.4f} "
              f"{'ok' if ok else 'FAILED'}")
        if not ok:
            regressions.append(name)

    diff_tables(base_doc, cand_doc)

    if regressions:
        print(f"\n{len(regressions)} metric(s) regressed past "
              f"{threshold:.0%} or failed a gate: "
              f"{', '.join(regressions)}")
        return 1
    print("\nno regressions past threshold")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
