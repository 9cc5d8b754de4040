"""Correctness gate for benchmark jobs.

Two kinds of check, both applied to every timed job:

* the recorded values: the exit code and the sha256 of the `--json` report
  bytes must equal those in `golden.json`, so any change in a report shows;
* theorem oracles that share no code with the program: recovered rank equals
  the linear rank of the class vectors, Reay blocks partition the labels, and
  so on.

Each check returns None when the job is right, otherwise a one-line reason.
"""

from __future__ import annotations

import hashlib
import json
from fractions import Fraction
from typing import Optional


def report_digest(stdout: str) -> str:
    return hashlib.sha256(stdout.encode("utf-8")).hexdigest()


def linear_rank(rows: list[list[Fraction]]) -> int:
    """Rank by plain Gauss-Jordan elimination over Fractions."""
    rows = [list(r) for r in rows]
    rank = 0
    width = len(rows[0]) if rows else 0
    for col in range(width):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        for i in range(len(rows)):
            if i != rank and rows[i][col]:
                f = rows[i][col] / rows[rank][col]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[rank])]
        rank += 1
    return rank


def _classes(doc: dict) -> list[list[Fraction]]:
    return [[Fraction(x) for x in p["class"]] for p in doc["primes"]]


def _ids(doc: dict) -> list[str]:
    return sorted(p["id"] for p in doc["primes"])


def _check_rank(docs, results) -> Optional[str]:
    want = linear_rank(_classes(docs[0]))
    if results["rank"] != want:
        return f"rank {results['rank']} != linear rank {want}"
    return None


def _check_enumerate(docs, results) -> Optional[str]:
    members = results["members"]
    if results["count"] != len(members):
        return "count differs from the number of members"
    keys = [(len(s), s) for s in members]
    if keys != sorted(keys) or len(set(map(tuple, members))) != len(members):
        return "members are not in canonical (size, ids) order"
    # A positively spanning set has a strictly positive zero combination of
    # all its classes, so the full prime set is principal.
    if _ids(docs[0]) not in members:
        return "the full prime set is missing from V"
    return None


def _check_mprop(docs, results) -> Optional[str]:
    families = results["families"]
    ids = _ids(docs[0])
    if [f["prime"] for f in families] != ids:
        return "families are not one star per prime"
    for family in families:
        if not family["members"] or any(
            family["prime"] not in s for s in family["members"]
        ):
            return f"star of {family['prime']} has a member without it"
    return None


def _check_iso(docs, results) -> Optional[str]:
    mapping = results["isomorphism"]
    if mapping is None:
        return None
    if sorted(mapping) != _ids(docs[0]) or sorted(mapping.values()) != _ids(docs[1]):
        return "isomorphism is not a bijection of the prime ids"
    return None


def _check_reay(docs, results) -> Optional[str]:
    blocks = results["blocks"]
    labels = sorted(docs[0]["labels"])
    flat = sorted(label for block in blocks for label in block)
    if flat != labels or any(not block for block in blocks):
        return "blocks do not partition the labels"
    if results["cardinality"] != len(blocks):
        return "cardinality differs from the number of blocks"
    return None


ORACLES = {
    "rank": _check_rank,
    "enumerate-v": _check_enumerate,
    "mprop": _check_mprop,
    "iso": _check_iso,
    "reay": _check_reay,
}


def check_cli(job, code: int, stdout: str) -> Optional[str]:
    """Gate one CLI job: recorded exit code and report digest, then oracle."""
    if code != job.exit_code:
        return f"exit code {code}, expected {job.exit_code}"
    if report_digest(stdout) != job.digest:
        return "report bytes differ from the recorded digest"
    try:
        results = json.loads(stdout)["results"]
    except (ValueError, KeyError) as exc:
        return f"unreadable report: {exc}"
    return ORACLES[job.slot.command](job.docs, results)
