"""Record bench/golden.json: the accepted input candidates and their outputs.

    python3 bench/record_golden.py

For every slot of every workload this walks candidates 0, 1, 2, ... (see
workloads.py), keeps those that meet the slot's precondition, give the slot's
exit code and pass the theorem oracles, and stores their exit code and the
sha256 of their `--json` report.  Run it only at a commit whose outputs are
trusted: every later benchmark run must reproduce these bytes exactly.
"""

from __future__ import annotations

import importlib
import json
import shutil
import sys

import checks
import run
import workloads

MAX_CANDIDATES = 5000


def _meets(package, slot: workloads.Slot, docs) -> bool:
    if slot.command == "reay":
        return True  # a non-spanning set is refused with exit 2
    for doc in docs:
        report = package.validate(package.loads_model(workloads.doc_text(doc)))
        if not report.positively_spanning:
            return False
        if slot.needs == "witness_rich" and not report.witness_rich:
            return False
    return True


def _pool(workload: str, slot: workloads.Slot, accept) -> list:
    pool = []
    for index in range(MAX_CANDIDATES):
        docs = slot.build(workloads.candidate_rng(workload, slot.name, index))
        entry = accept(slot, index, docs)
        if entry is not None:
            pool.append(entry)
            if len(pool) == slot.pool:
                return pool
    raise SystemExit(f"slot {workload}/{slot.name}: too few candidates accepted")


def main() -> int:
    package = run.import_program()
    cli = importlib.import_module("radrank.cli")
    workdir = run.OUT / "record"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)

    def accept(slot, index, docs):
        if not _meets(package, slot, docs):
            return None
        paths = []
        for part, doc in enumerate(docs):
            path = workdir / f"{part}.json"
            path.write_text(workloads.doc_text(doc), encoding="utf-8")
            paths.append(str(path))
        code, stdout = run.run_cli(cli, [slot.command, *paths, "--json"])
        digest = checks.report_digest(stdout)
        job = workloads.CliJob(slot, docs, [], slot.exit_code, digest)
        if checks.check_cli(job, code, stdout) is not None:
            return None
        return [index, code, digest]

    golden: dict = {}
    try:
        for workload, slots in workloads.SLOTS.items():
            golden[workload] = {}
            for slot in slots:
                golden[workload][slot.name] = _pool(workload, slot, accept)
                print(workload, slot.name, golden[workload][slot.name], file=sys.stderr)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    workloads.GOLDEN.write_text(json.dumps(golden, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
