#!/usr/bin/env python3
"""Compares two bench `--json` result files cell by cell.

usage: scripts/bench_diff.py <baseline.json> <fresh.json>

Prints every table cell and metric that differs between the two files and
exits 1 if any does (2 on a usage error). Sections and tables are matched
by position, metrics by name. The `wall_clock` metric (host seconds spent
on the run) is the one field ignored; every other number a bench records
is virtual time or a count, identical from run to run at one seed.
"""

import json
import sys

IGNORED_METRICS = {"wall_clock"}


def cell(row, col):
    return row[col] if col < len(row) else "<missing>"


def diff_table(where, base, fresh, out):
    header = base.get("header", [])
    if header != fresh.get("header", []):
        out.append(f"{where} header: {header} -> {fresh.get('header', [])}")
    base_rows, fresh_rows = base.get("rows", []), fresh.get("rows", [])
    if len(base_rows) != len(fresh_rows):
        out.append(f"{where} rows: {len(base_rows)} -> {len(fresh_rows)}")
    for r, (b, f) in enumerate(zip(base_rows, fresh_rows)):
        for c in range(max(len(b), len(f))):
            if cell(b, c) != cell(f, c):
                column = header[c] if c < len(header) else f"column {c}"
                out.append(f"{where} row {r} ({cell(b, 0)}) {column}: "
                           f"{cell(b, c)} -> {cell(f, c)}")


def metrics(section):
    return {m["name"]: (m.get("value"), m.get("unit"))
            for m in section.get("metrics", [])
            if m["name"] not in IGNORED_METRICS}


def diff(base, fresh):
    out = []
    base_sections = base.get("sections", [])
    fresh_sections = fresh.get("sections", [])
    if len(base_sections) != len(fresh_sections):
        out.append(f"sections: {len(base_sections)} -> "
                   f"{len(fresh_sections)}")
    for b, f in zip(base_sections, fresh_sections):
        where = f"[{b.get('title', '')}]"
        if b.get("title") != f.get("title"):
            out.append(f"{where} title -> [{f.get('title', '')}]")
        base_tables, fresh_tables = b.get("tables", []), f.get("tables", [])
        if len(base_tables) != len(fresh_tables):
            out.append(f"{where} tables: {len(base_tables)} -> "
                       f"{len(fresh_tables)}")
        for t, (bt, ft) in enumerate(zip(base_tables, fresh_tables)):
            diff_table(f"{where} table {t}", bt, ft, out)
        base_metrics, fresh_metrics = metrics(b), metrics(f)
        for name in sorted(base_metrics.keys() | fresh_metrics.keys()):
            old = base_metrics.get(name, "<missing>")
            new = fresh_metrics.get(name, "<missing>")
            if old != new:
                out.append(f"{where} metric {name}: {old} -> {new}")
    return out


def main(argv):
    if len(argv) != 3:
        print(__doc__.strip().splitlines()[2], file=sys.stderr)
        return 2
    with open(argv[1]) as f:
        base = json.load(f)
    with open(argv[2]) as f:
        fresh = json.load(f)
    differences = diff(base, fresh)
    for line in differences:
        print(line)
    if differences:
        print(f"{len(differences)} difference(s): {argv[1]} vs {argv[2]}")
        return 1
    print(f"identical (ignoring {', '.join(sorted(IGNORED_METRICS))}): "
          f"{argv[1]} vs {argv[2]}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
