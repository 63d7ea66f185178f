"""Structured report documents: a key-value header plus named CSV table blocks.

Every pipeline stage that produces evidence (decompositions, tracing runs,
stability checks, demos) renders to this one format so reports stay diffable
and machine-readable without a serialization dependency. Table blocks are
written and read by the stdlib `csv` module, so any cell text round-trips.
"""

from __future__ import annotations

import csv
import io
import os
import tempfile

PASS = "pass"
FAIL = "fail"
RESOLUTION_LIMITED = "resolution-limited"

EXIT_CODES = {PASS: 0, FAIL: 1, RESOLUTION_LIMITED: 2}


def _format_value(value):
    if isinstance(value, float):
        return repr(value)
    return str(value)


class Report:
    """An ordered key-value header plus named table blocks.

    Tables are stored as (columns, rows); rows are sequences matching the
    column count. Rendering is deterministic: header keys and table names
    keep insertion order.
    """

    def __init__(self, **header):
        self.header = dict(header)
        self.tables = {}

    def set(self, key, value):
        self.header[key] = value

    def add_table(self, name, columns, rows):
        self.tables[name] = (list(columns), [list(r) for r in rows])

    @property
    def verdict(self):
        return self.header.get("verdict", PASS)

    @property
    def exit_code(self):
        return EXIT_CODES.get(self.verdict, 1)

    def to_text(self):
        out = io.StringIO()
        for key, value in self.header.items():
            out.write(f"{key}: {_format_value(value)}\n")
        minimal = csv.writer(out, lineterminator="\n")
        # minimal quoting leaves a carriage return bare, and csv.reader would
        # take it for a line end; rows holding one quote every cell
        quoted = csv.writer(out, lineterminator="\n", quoting=csv.QUOTE_ALL)
        for name, (columns, rows) in self.tables.items():
            out.write(f"\n[table {name}]\n")
            for row in [columns] + rows:
                cells = [_format_value(v) for v in row]
                (quoted if any("\r" in c for c in cells) else minimal).writerow(cells)
        return out.getvalue()

    def write(self, path):
        """Atomically write the rendered report (temp file + rename)."""
        directory = os.path.dirname(os.path.abspath(path))
        fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
        try:
            with os.fdopen(fd, "w") as handle:
                handle.write(self.to_text())
            os.replace(tmp, path)
        except BaseException:
            if os.path.exists(tmp):
                os.unlink(tmp)
            raise


def parse_report(text):
    """Inverse of Report.to_text, for round-trip tests and CLI consumers."""
    report = Report()
    # csv.reader pulls the lines of a table block from the same iterator,
    # so a quoted cell may span lines
    lines = io.StringIO(text)
    for line in lines:
        if not line.strip():
            break
        key, _, value = line.partition(":")
        report.header[key.strip()] = value.strip()
    reader = csv.reader(lines)
    for line in lines:
        line = line.strip()
        if line.startswith("[table ") and line.endswith("]"):
            columns = next(reader, [])
            rows = []
            for row in reader:
                if not row:  # the blank line that ends the block
                    break
                rows.append(row)
            report.tables[line[len("[table "):-1]] = (columns, rows)
    return report
