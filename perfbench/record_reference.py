"""Record the seed-0 reference values that run.py compares outputs with.

    python3 perfbench/record_reference.py

Runs every operation of every workload once at seed 0, at full and at
smoke-test size, and writes a summary of each output (sampled rows and
column sums, see ``workloads.summarize``) to reference.json.  Record
only from a commit whose outputs are trusted: the benchmark then flags
any later change beyond ``workloads.REF_RTOL``/``REF_ATOL``.
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile
from pathlib import Path

import run
import workloads as wl


def record(iso, tiny: bool, workdir: Path) -> dict:
    summaries = {}
    for name in wl.WORKLOADS:
        for op in wl.build(iso, name, 0, tiny, workdir).ops:
            table = op.table(op.collect(op.call()))
            problems = op.check(table)
            if problems:
                raise SystemExit(f"{op.key}: {'; '.join(problems)}")
            summaries[op.key] = wl.summarize(table)
    return summaries


def main() -> int:
    iso = run.import_package()
    workdir = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=run.ROOT))
    try:
        payload = {
            "commit": run.git_commit(),
            "source_sha256": run.source_digest(),
            "full": record(iso, False, workdir),
            "tiny": record(iso, True, workdir),
        }
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    run.REFERENCE_FILE.write_text(json.dumps(payload, indent=1) + "\n")
    print(f"wrote {len(payload['full']) + len(payload['tiny'])} references to {run.REFERENCE_FILE}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
