"""Seeded inputs and the job schedule of each benchmark workload.

Every input file is made here, from a string-seeded RNG: candidate `index` of
slot `slot` in workload `w` always has the same bytes.  `golden.json` holds,
per slot, the candidate indices accepted when the outputs were recorded
(`record_golden.py`), with each job's exit code and report digest.

A run works through whole rounds; each round holds every job of the
workload once, in an order drawn from the run's `--seed`.  So every run does
the same work, whatever the seed, and the outputs can be compared byte for
byte with the recorded ones.  The program sees nothing but the files
written here and the argv built for them.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

GOLDEN = Path(__file__).resolve().parent / "golden.json"

Doc = dict  # a JSON document: a model or a labelled vector set


def candidate_rng(workload: str, slot: str, index: int) -> random.Random:
    return random.Random(f"{workload}/{slot}/{index}")


def _fmt(q: Fraction) -> str:
    return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


def _model(rank: int, classes: dict[str, list[Fraction]]) -> Doc:
    return {
        "ambient_rank": rank,
        "primes": [
            {"id": pid, "class": [_fmt(x) for x in classes[pid]]}
            for pid in sorted(classes)
        ],
    }


def doc_text(doc: Doc) -> str:
    return json.dumps(doc, indent=2) + "\n"


# --- generators ---------------------------------------------------------------

def _ids(prefix: str, count: int) -> list[str]:
    return [f"{prefix}{i:02d}" for i in range(count)]


def d_type(rng: random.Random, kind: str, k: int) -> Doc:
    """Rank-1 alternating-sign family of the paper's counterexamples.

    d1: classes +-1; d2: +-1/2^n; d3: one zero class, then +-1.  The seed
    only decides which id gets which class, so instances of one shape have
    the same support family up to relabelling.
    """
    ids = _ids("P", k)
    rng.shuffle(ids)
    classes = {}
    for n, pid in enumerate(ids):
        sign = -1 if n % 2 else 1
        if kind == "d3" and n == 0:
            classes[pid] = [Fraction(0)]
        elif kind == "d2":
            classes[pid] = [Fraction(sign, 2**n)]
        else:
            classes[pid] = [Fraction(sign)]
    return _model(1, classes)


def random_model(rng: random.Random, rank: int, count: int) -> Doc:
    classes = {
        pid: [Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(rank)]
        for pid in _ids("p", count)
    }
    return _model(rank, classes)


def relabelled(rng: random.Random, doc: Doc) -> Doc:
    """The same class data under shuffled new ids."""
    new_ids = _ids("q", len(doc["primes"]))
    rng.shuffle(new_ids)
    return {
        "ambient_rank": doc["ambient_rank"],
        "primes": sorted(
            ({"id": pid, "class": entry["class"]} for pid, entry in zip(new_ids, doc["primes"])),
            key=lambda entry: entry["id"],
        ),
    }


def vector_set(rng: random.Random, count: int, rank: int) -> Doc:
    labels = _ids("g", count)
    rng.shuffle(labels)
    return {
        "labels": labels,
        "vectors": [[str(rng.randint(-4, 4)) for _ in range(rank)] for _ in labels],
    }


# --- slots --------------------------------------------------------------------

@dataclass(frozen=True)
class Slot:
    """One kind of job of a workload: a CLI command and the shape of its input.

    `needs` names the precondition a candidate must meet to be recorded
    ("spanning" or "witness_rich"); `exit_code` is the exit status the job
    must return; `pool` is how many candidates are recorded.
    """

    name: str
    command: str
    build: Callable[[random.Random], list[Doc]]
    exit_code: int = 0
    needs: str = "spanning"
    pool: int = 2


def _d(kind, k):
    return lambda rng: [d_type(rng, kind, k)]


def _r(rank, count):
    return lambda rng: [random_model(rng, rank, count)]


def _iso_copy(make):
    def build(rng):
        (doc,) = make(rng)
        return [doc, relabelled(rng, doc)]

    return build


def _iso_d1_d3(k):
    return lambda rng: [d_type(rng, "d1", k), d_type(rng, "d3", k)]


# Each slot has a fixed shape: family or rank, and prime count.  Two inputs
# per slot, but more for four shapes, so that the median and the tail each
# fall among close job costs instead of in a gap between shapes, where they
# would jump between runs.  Of the 41 jobs of a round, the 11 of the three
# slowest shapes (1.7-2.1 s a job) hold the tail, the 31st job, and the six
# of rank on d1(12) (0.8 s) bring the median, the 21st, into the 0.8-0.95 s
# jobs.
CLI_COLD = (
    Slot("rank-d1-12", "rank", _d("d1", 12), pool=6),
    Slot("enum-r2-12", "enumerate-v", _r(2, 12), pool=3),
    Slot("iso-copy-d1-12", "iso", _iso_copy(_d("d1", 12))),
    Slot("mprop-d2-12", "mprop", _d("d2", 12), needs="witness_rich"),
    Slot("rank-r3-11", "rank", _r(3, 11)),
    Slot("enum-d3-12", "enumerate-v", _d("d3", 12)),
    Slot("iso-d1-d3-12", "iso", _iso_d1_d3(12), exit_code=1, pool=5),
    Slot("mprop-r2-11", "mprop", _r(2, 11), needs="witness_rich"),
    Slot("rank-r1-12", "rank", _r(1, 12)),
    Slot("enum-r4-11", "enumerate-v", _r(4, 11), pool=3),
    Slot("iso-copy-r1-12", "iso", _iso_copy(_r(1, 12))),
    Slot("mprop-d1-11", "mprop", _d("d1", 11), needs="witness_rich"),
    Slot("rank-d2-11", "rank", _d("d2", 11)),
    Slot("enum-d1-11", "enumerate-v", _d("d1", 11)),
    Slot("iso-d1-d3-11", "iso", _iso_d1_d3(11), exit_code=1),
    Slot("rank-r2-11", "rank", _r(2, 11)),
)


def _vectors(count, rank):
    return lambda rng: [vector_set(rng, count, rank)]


# 9 vectors in rank 2 and 3: 0.4-1.1 s a job, so a round of 56 jobs takes
# 30-40 s, as a cli-cold round does, and a run is one whole round.  The job
# costs then lie close together around the median and the tail percentile
# (p82 with 56 jobs).  10 vectors take 1.2-2.3 s a job, 11 vectors 3-5 s and
# 12 vectors 6-12 s: a round mixing sizes would put gaps in the job costs,
# and a median or tail that falls in a gap jumps between runs.
REAY = (
    Slot("reay-n9-r2", "reay", _vectors(9, 2), pool=28),
    Slot("reay-n9-r3", "reay", _vectors(9, 3), pool=28),
)

SLOTS = {"cli-cold": CLI_COLD, "reay": REAY}


def load_golden() -> dict:
    with open(GOLDEN, encoding="utf-8") as handle:
        return json.load(handle)


# --- per-run inputs -----------------------------------------------------------

@dataclass
class CliJob:
    slot: Slot
    docs: list[Doc]
    argv: list[str]
    exit_code: int
    digest: str


def cli_jobs(workload: str, golden: dict, workdir: Path) -> list[CliJob]:
    """Write every recorded input of the workload under `workdir` and return
    its jobs, one per input: a round of the workload."""
    jobs = []
    for slot in SLOTS[workload]:
        for index, exit_code, digest in golden[workload][slot.name]:
            docs = slot.build(candidate_rng(workload, slot.name, index))
            paths = []
            for part, doc in enumerate(docs):
                path = workdir / f"{slot.name}-{index}-{part}.json"
                path.write_text(doc_text(doc), encoding="utf-8")
                paths.append(str(path))
            argv = [slot.command, *paths, "--json"]
            jobs.append(CliJob(slot, docs, argv, exit_code, digest))
    return jobs


def rounds(items: list, seed) -> Callable[[int], object]:
    """Job number -> item, going through rounds that each hold every item
    once, in an order drawn from the seed."""
    rng = random.Random(seed)
    order: list = []

    def pick(j: int):
        while len(order) <= j:
            order.extend(rng.sample(items, len(items)))
        return order[j]

    return pick
