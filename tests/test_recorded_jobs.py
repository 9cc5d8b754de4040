"""The benchmark's recorded `enumerate-v` and `mprop` jobs, replayed: each
input is rebuilt from `bench/workloads.py`, and each job must give the exit
code and report digest recorded in `bench/golden.json`, so the bytes of the
V-sized reports are checked without running the benchmark."""

import hashlib
import sys
from pathlib import Path

import pytest

from radrank.cli import main

# the benchmark's own module, as `bench/test_bench.py` imports it
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))
import workloads  # noqa: E402

WORKLOAD = "cli-cold"
GOLDEN = workloads.load_golden()[WORKLOAD]
JOBS = [
    (slot, index, code, digest)
    for slot in workloads.SLOTS[WORKLOAD]
    if slot.command in ("enumerate-v", "mprop")
    for index, code, digest in GOLDEN[slot.name]
]


def test_every_v_sized_slot_is_replayed():
    assert {slot.name for slot, *_ in JOBS} == {
        "enum-r2-12", "enum-d3-12", "enum-r4-11", "enum-d1-11",
        "mprop-d2-12", "mprop-r2-11", "mprop-d1-11",
    }


@pytest.mark.parametrize(
    "slot,index,code,digest", JOBS, ids=[f"{job[0].name}-{job[1]}" for job in JOBS]
)
def test_recorded_report(capsys, tmp_path, slot, index, code, digest):
    paths = []
    docs = slot.build(workloads.candidate_rng(WORKLOAD, slot.name, index))
    for part, doc in enumerate(docs):
        path = tmp_path / f"{part}.json"
        path.write_text(workloads.doc_text(doc), encoding="utf-8")
        paths.append(str(path))
    assert main([slot.command, *paths, "--json"]) == code
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest
