"""The benchmark's recorded `enumerate-v`, `mprop`, `rank`, `iso` and `reay`
jobs, replayed: each input is rebuilt from `bench/workloads.py`, and each
job must give the exit code and report digest recorded in
`bench/golden.json`, so the report bytes are checked without running the
benchmark.  The V-sized reports check the member writers, the rank and reay
reports the chain search that both reach, and the iso reports the circuit
search, on relabelled copies and on non-isomorphic pairs."""

import hashlib
import sys
from pathlib import Path

import pytest

from radrank.cli import main

# the benchmark's own module, as `bench/test_bench.py` imports it
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))
import workloads  # noqa: E402

GOLDEN = workloads.load_golden()


def _jobs(workload, commands):
    return [
        (workload, slot, index, code, digest)
        for slot in workloads.SLOTS[workload]
        if slot.command in commands
        for index, code, digest in GOLDEN[workload][slot.name]
    ]


V_SIZED = _jobs("cli-cold", ("enumerate-v", "mprop"))
RANK = _jobs("cli-cold", ("rank",))
ISO = _jobs("cli-cold", ("iso",))
REAY = _jobs("reay", ("reay",))
JOBS = V_SIZED + RANK + ISO + REAY


def _slots(jobs):
    return {slot.name for _, slot, *_ in jobs}


def test_every_v_sized_slot_is_replayed():
    assert _slots(V_SIZED) == {
        "enum-r2-12", "enum-d3-12", "enum-r4-11", "enum-d1-11",
        "mprop-d2-12", "mprop-r2-11", "mprop-d1-11",
    }


def test_every_rank_slot_is_replayed():
    assert _slots(RANK) == {
        "rank-d1-12", "rank-r3-11", "rank-r1-12", "rank-d2-11", "rank-r2-11",
    }
    assert len(RANK) == 14


def test_every_iso_slot_is_replayed():
    assert _slots(ISO) == {
        "iso-copy-d1-12", "iso-d1-d3-12", "iso-copy-r1-12", "iso-d1-d3-11",
    }
    assert len(ISO) == 11


def test_every_reay_slot_is_replayed():
    assert _slots(REAY) == {"reay-n9-r2", "reay-n9-r3"}
    assert len(REAY) == 56


@pytest.mark.parametrize(
    "workload,slot,index,code,digest", JOBS,
    ids=[f"{job[1].name}-{job[2]}" for job in JOBS],
)
def test_recorded_report(capsys, tmp_path, workload, slot, index, code, digest):
    paths = []
    docs = slot.build(workloads.candidate_rng(workload, slot.name, index))
    for part, doc in enumerate(docs):
        path = tmp_path / f"{part}.json"
        path.write_text(workloads.doc_text(doc), encoding="utf-8")
        paths.append(str(path))
    assert main([slot.command, *paths, "--json"]) == code
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest
