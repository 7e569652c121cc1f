#!/usr/bin/env python3
"""Compares two bench `--json` result files cell by cell.

usage: scripts/bench_diff.py <baseline.json> <fresh.json>

Prints every table cell and metric that differs between the two files and
exits 1 if any does (2 on a usage error). Sections and tables are matched
by position, metrics by name. Every number a bench records is virtual time
or a count, identical from run to run at one seed, except the cells it
declares host-measured: table columns listed in "host_columns", rows whose
label is listed in "host_rows", and metrics marked "host": true (such as
wall_clock). Those are printed as trend lines and never fail the
comparison. A declaration in either file counts, so baselines written
before a cell was declared stay valid.
"""

import json
import sys


def cell(row, col):
    return row[col] if col < len(row) else "<missing>"


def diff_table(where, base, fresh, out, trends):
    header = base.get("header", [])
    if header != fresh.get("header", []):
        out.append(f"{where} header: {header} -> {fresh.get('header', [])}")
    host_columns = set(base.get("host_columns", [])) | set(
        fresh.get("host_columns", []))
    host_rows = set(base.get("host_rows", [])) | set(
        fresh.get("host_rows", []))
    base_rows, fresh_rows = base.get("rows", []), fresh.get("rows", [])
    if len(base_rows) != len(fresh_rows):
        out.append(f"{where} rows: {len(base_rows)} -> {len(fresh_rows)}")
    for r, (b, f) in enumerate(zip(base_rows, fresh_rows)):
        for c in range(max(len(b), len(f))):
            column = header[c] if c < len(header) else f"column {c}"
            line = (f"{where} row {r} ({cell(b, 0)}) {column}: "
                    f"{cell(b, c)} -> {cell(f, c)}")
            host_row = c > 0 and cell(b, 0) in host_rows  # label compared
            if column in host_columns or host_row:
                trends.append(line)
            elif cell(b, c) != cell(f, c):
                out.append(line)


def metrics(section):
    return {m["name"]: (m.get("value"), m.get("unit"))
            for m in section.get("metrics", [])}


def host_metrics(section):
    return {m["name"] for m in section.get("metrics", []) if m.get("host")}


def diff(base, fresh):
    """Returns (differences, trends): lines that fail, lines that inform."""
    out, trends = [], []
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
            diff_table(f"{where} table {t}", bt, ft, out, trends)
        base_metrics, fresh_metrics = metrics(b), metrics(f)
        host = host_metrics(b) | host_metrics(f)
        for name in sorted(base_metrics.keys() | fresh_metrics.keys()):
            old = base_metrics.get(name, "<missing>")
            new = fresh_metrics.get(name, "<missing>")
            line = f"{where} metric {name}: {old} -> {new}"
            if name in host:
                trends.append(line)
            elif old != new:
                out.append(line)
    return out, trends


def main(argv):
    if len(argv) != 3:
        print(__doc__.strip().splitlines()[2], file=sys.stderr)
        return 2
    with open(argv[1]) as f:
        base = json.load(f)
    with open(argv[2]) as f:
        fresh = json.load(f)
    differences, trends = diff(base, fresh)
    for line in trends:
        print(f"trend (host-measured): {line}")
    for line in differences:
        print(line)
    if differences:
        print(f"{len(differences)} difference(s): {argv[1]} vs {argv[2]}")
        return 1
    print(f"identical ({len(trends)} host-measured cell(s) reported as "
          f"trends): {argv[1]} vs {argv[2]}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
