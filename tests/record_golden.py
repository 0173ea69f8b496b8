"""Re-record entries of tests/data/cli_golden.json.

    PYTHONPATH=src python tests/record_golden.py 'ARGV' ['ARGV' ...]

Each ARGV is one command line after ``rosterstat``, quoted as one shell word
and split as a shell would split it, for example
'analyze --builtin corrected --method pooled --output machine'. Each is run
through rosterstat.cli.main in this process with standard output captured;
the entry with that argv takes the new stdout and exit code, or a new entry
is appended when none has that argv. The file is written back as
``json.dumps(records, indent=1) + "\\n"``, its own format, so no other entry
changes by a byte. pytest does not collect this file.
"""

from __future__ import annotations

import contextlib
import io
import json
import shlex
import sys
from pathlib import Path

from rosterstat.cli import main as rosterstat_main

GOLDEN = Path(__file__).with_name("data") / "cli_golden.json"


def record(argv: list[str]) -> dict:
    """The golden entry for one command line: its argv, exit code and stdout."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = rosterstat_main(argv)
    return {"argv": argv, "exit_code": code, "stdout": out.getvalue()}


def main(lines: list[str]) -> int:
    if not lines:
        print(__doc__, file=sys.stderr)
        return 2
    records = json.loads(GOLDEN.read_text(encoding="utf-8"))
    for line in lines:
        entry = record(shlex.split(line))
        index = next((i for i, old in enumerate(records) if old["argv"] == entry["argv"]),
                     None)
        if index is None:
            records.append(entry)
            print(f"appended: {line}", file=sys.stderr)
        else:
            records[index] = entry
            print(f"replaced: {line}", file=sys.stderr)
    GOLDEN.write_text(json.dumps(records, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
