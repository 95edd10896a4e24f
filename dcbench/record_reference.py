"""Record the reference values the benchmark compares outputs against.

Run once, at the commit whose results are taken as correct:

    python3 dcbench/record_reference.py

Every op of every workload runs once; its output must pass the independent
checks before its value, argmin and size are written to ``reference.json``.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

import checks
import corpus
import run


def main() -> int:
    cli = run.import_deepconn()
    reference = {}
    for workload in corpus.WORKLOADS:
        workroot = run.HERE / ".work"
        workroot.mkdir(exist_ok=True)
        with tempfile.TemporaryDirectory(dir=workroot) as tmp:
            runner = run.Runner(cli, workload, Path(tmp))
            runner.run_pass(runner.corpus.ops)
        reference[workload] = {}
        for op in runner.corpus.ops:
            status, stdout, written = runner.first[op.op_id]
            if status != 0:
                raise SystemExit(f"{op.op_id}: exit {status}")
            report = json.loads(stdout)
            out_doc = json.loads(written) if written else None
            found = checks.problems(op.argv, runner.corpus.docs[op.doc], report, out_doc)
            if found:
                raise SystemExit(f"{op.op_id}: {found}")
            reference[workload][op.op_id] = checks.summary(report)
    lines = []
    for workload, ops in reference.items():
        rows = ",\n".join(f"    {json.dumps(k)}: {json.dumps(v)}" for k, v in ops.items())
        lines.append(f"  {json.dumps(workload)}: {{\n{rows}\n  }}")
    text = "{\n" + ",\n".join(lines) + "\n}\n"
    run.REFERENCE.write_text(text, encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
