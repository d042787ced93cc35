#!/usr/bin/env python3
"""Record the scan and CLI references the benchmark checks against.

    python3 perfbench/record_reference.py

Run it only on code whose outputs are known to be right.  It records the
scan's per-cell census and wIIHash, and each CLI command's exit code and
the SHA-256 of its stdout and of every file it writes.  The benchmark then
treats any difference as a failed op.
"""

import json
import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import workloads  # noqa: E402


def main() -> int:
    out = HERE / "reference"
    out.mkdir(exist_ok=True)
    grid = workloads.run_scan(workloads.SCAN_RESOLUTION)
    rows = workloads.scan_rows(grid)
    cells = ",\n".join(json.dumps(row) for row in rows)
    (out / "scan.json").write_text(
        f'{{"resolution": {workloads.SCAN_RESOLUTION},\n"cells": [\n{cells}\n]}}\n'
    )

    cli = {}
    for label, argv, written in workloads.CLI_COMMANDS:
        result = workloads.run_cli(argv, written)
        cli[label] = {"returncode": result.returncode, "stdout": result.stdout,
                      "files": result.files}
    (out / "cli.json").write_text(json.dumps(cli, indent=1, sort_keys=True) + "\n")
    print(f"recorded {len(rows)} scan cells and {len(cli)} CLI commands in {out}",
          file=sys.stderr)
    return 0


if __name__ == "__main__":
    os.chdir(HERE.parent)
    sys.exit(main())
