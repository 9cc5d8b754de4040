"""Tests of the benchmark itself:  python3 -m pytest bench -q"""

from __future__ import annotations

import json
import random
import sys

import pytest

import checks
import run
import tracing
import workloads

# --- the tail rule ------------------------------------------------------------


@pytest.mark.parametrize("n", [11, 12, 25, 100, 1000, 77861])
def test_tail_leaves_exactly_ten_samples_beyond(n):
    samples = random.Random(n).sample(range(10 * n), n)
    value, pct = run.tail(samples)
    assert sum(1 for x in samples if x > value) == run.TAIL_BEYOND
    assert pct == pytest.approx(100.0 * (n - 10) / n)


def test_tail_is_the_highest_such_percentile():
    samples = list(range(1, 101))
    assert run.tail(samples) == (90, 90.0)
    # One more sample moves the tail up: 101 samples, 91 at or below.
    assert run.tail(samples + [101]) == (91, pytest.approx(100 * 91 / 101))


@pytest.mark.parametrize("n", [1, 5, 10])
def test_tail_without_enough_samples_is_the_maximum(n):
    samples = list(range(n))
    assert run.tail(samples) == (n - 1, 100.0)


# --- self time ----------------------------------------------------------------


def _span(parent, start, end, fn=0, job=0, extra=None):
    return [job, parent, fn, start, end, 0, extra]


def test_self_time_on_a_synthetic_tree():
    spans = [
        _span(-1, 0, 100),  # 0: root
        _span(0, 10, 30),  # 1: child
        _span(1, 12, 18),  # 2: grandchild
        _span(0, 40, 70),  # 3: child
        _span(0, 60, 80),  # 4: child overlapping 3 (counted once)
        _span(0, 95, 120),  # 5: child running past the root (clipped)
    ]
    assert tracing.self_times(spans) == [
        100 - (20 + 40 + 5),
        20 - 6,
        6,
        30,
        20,
        25,
    ]


def test_layer_metrics_arithmetic():
    szc, vm, en = tracing.SZC, tracing.V_MEMBER, tracing.ENUMERATE
    spans = [
        _span(-1, 0, 1_000_000, fn=en, extra=1),  # enumerate_v, 1 member
        _span(0, 0, 400_000, fn=vm),  # v_membership that issues an LP
        _span(1, 100_000, 300_000, fn=szc, extra=(2, 3, True)),
        _span(0, 500_000, 600_000, fn=vm),  # cache hit: no LP
        _span(-1, 0, 5, fn=szc, job=-1, extra=(9, 9, True)),  # outside jobs
    ]
    got = tracing.layer_metrics(spans, jobs=2)
    assert got["model.v_membership.calls"] == 2
    assert got["model.v_membership.hit_frac"] == 0.5
    assert got["model.enumerate_v.subsets_tested"] == 2
    assert got["model.enumerate_v.member_frac"] == 0.5
    assert got["ratlin.strict_zero_combination.calls"] == 1
    assert got["ratlin.lp.tableau_cells"] == 2 * (3 + 2)
    assert got["ratlin.lp.feasible_frac"] == 1.0
    # enumerate_v: 1 ms minus 0.4 + 0.1 ms of children, over 2 jobs
    assert got["model.enumerate_v.self_ms"] == pytest.approx(0.25)
    assert got["model.v_membership.self_ms"] == pytest.approx((0.2 + 0.1) / 2)


# --- wrapper coverage ---------------------------------------------------------


@pytest.fixture
def package():
    pkg = run.import_program()
    __import__("radrank.cli")
    return pkg


def test_install_rebinds_every_reference_and_uninstall_restores(package):
    originals = {
        name: getattr(sys.modules[f"radrank.{layer}"], fn)
        for name, (layer, fn) in zip(tracing.NAMES, tracing.WRAPPED)
    }
    tracer = tracing.Tracer()
    modules = list(tracing.package_modules().values())
    bound = [
        (mod, attr)
        for mod in modules
        for attr, value in vars(mod).items()
        if any(value is f for f in originals.values())
    ]
    # Names bound by `from .x import y` must be among the rebound ones.
    for where, attr in [
        ("model", "strict_zero_combination"),
        ("cones", "cone_member"),
        ("rank", "cone_member"),
        ("rank", "enumerate_v"),
        ("semilattice", "enumerate_v"),
        ("cli", "enumerate_v"),
        ("cli", "max_weak_reay"),
    ]:
        assert (sys.modules[f"radrank.{where}"], attr) in bound
    with tracer.installed():
        for mod in modules:
            for value in vars(mod).values():
                assert not any(value is f for f in originals.values())
    for mod, attr in bound:
        assert any(getattr(mod, attr) is f for f in originals.values())


def _traced(job):
    tracer = tracing.Tracer()
    with tracer.installed():
        tracer.job = 0
        job()
    return tracing.layer_metrics(tracer.spans, 1)


def _write(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(workloads.doc_text(doc), encoding="utf-8")
    return str(path)


def test_tiny_cli_cold_jobs_reach_every_cli_cold_layer(package, tmp_path):
    rng = random.Random(1)
    d1 = _write(tmp_path, "d1.json", workloads.d_type(rng, "d1", 4))
    d3 = _write(tmp_path, "d3.json", workloads.d_type(rng, "d3", 4))
    cli = sys.modules["radrank.cli"]

    def jobs():
        for argv, code in [
            (["rank", d1], 0),
            (["enumerate-v", d1], 0),
            (["mprop", d1], 0),
            (["iso", d1, d3], 1),
        ]:
            assert run.run_cli(cli, argv + ["--json"])[0] == code

    got = _traced(jobs)
    for name in [
        "cli.main", "model.loads_model", "model.validate", "model.v_membership",
        "model.enumerate_v", "rank.recover_rank", "semilattice.find_iso",
        "semilattice.mprop", "ratlin.strict_zero_combination",
        "ratlin.cone_member", "ratlin.linear_rank",
        "cones.positively_spans_its_span",
    ]:
        assert got[f"{name}.calls"] > 0, name
    assert got["ratlin.lp.tableau_cells"] > 0
    # five fresh loads (iso loads two), each enumerating 2**4 - 1 subsets
    assert got["model.enumerate_v.subsets_tested"] == 5 * (2**4 - 1)


def test_tiny_reay_job_reaches_every_reay_layer(package, tmp_path):
    doc = {"labels": ["a", "b", "c", "d"],
           "vectors": [["1", "0"], ["-1", "0"], ["0", "1"], ["0", "-1"]]}
    path = _write(tmp_path, "v.json", doc)
    cli = sys.modules["radrank.cli"]
    got = _traced(lambda: run.run_cli(cli, ["reay", path, "--json"]))
    for name in [
        "cli.main", "cones.max_weak_reay", "cones.longest_closed_chain",
        "cones.positively_spans_its_span", "ratlin.cone_member",
    ]:
        assert got[f"{name}.calls"] > 0, name
    assert got["cones.longest_closed_chain.predicate_calls"] == 2**4


def test_wrapper_records_exceptions(package):
    tracer = tracing.Tracer()
    with tracer.installed():
        tracer.job = 0
        with pytest.raises(ValueError):
            sys.modules["radrank.ratlin"].strict_zero_combination([])
    assert tracing.layer_metrics(tracer.spans, 1)["ratlin.strict_zero_combination.errors"] == 1


# --- correctness gate ---------------------------------------------------------


def test_gate_rejects_changed_bytes_and_wrong_answers():
    slot = workloads.Slot("t", "rank", lambda rng: [])
    doc = workloads.d_type(random.Random(2), "d1", 4)
    report = json.dumps({"results": {"rank": 1}})
    job = workloads.CliJob(slot, [doc], [], 0, checks.report_digest(report))
    assert checks.check_cli(job, 0, report) is None
    assert checks.check_cli(job, 1, report).startswith("exit code")
    assert "digest" in checks.check_cli(job, 0, report + " ")
    wrong = json.dumps({"results": {"rank": 2}})
    job.digest = checks.report_digest(wrong)
    assert "linear rank" in checks.check_cli(job, 0, wrong)


def test_reay_oracle():
    docs = [{"labels": ["a", "b", "c"]}]
    assert checks.ORACLES["reay"](docs, {"cardinality": 2, "blocks": [["a"], ["b", "c"]]}) is None
    assert checks.ORACLES["reay"](docs, {"cardinality": 2, "blocks": [["a"], ["a", "c"]]})


# --- inputs and the contract file ---------------------------------------------


def test_candidates_are_reproducible():
    for workload in workloads.SLOTS:
        for slot in workloads.SLOTS[workload]:
            a = slot.build(workloads.candidate_rng(workload, slot.name, 7))
            b = slot.build(workloads.candidate_rng(workload, slot.name, 7))
            assert list(map(workloads.doc_text, a)) == list(map(workloads.doc_text, b))


def test_benchmark_json_matches_the_runner():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.SLOTS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert all(0 < m["bound"] <= 0.25 for m in spec["end_to_end"])
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == (
        tracing.metric_specs()
    )


class _Rounds:
    round_size = 3
    report_bytes = 0

    def run(self, j):
        return j

    def check(self, j, outcome):
        return None if outcome == j else "wrong"


@pytest.mark.parametrize("seconds,jobs", [(0.0, 3), (0.05, None)])
def test_timed_loop_runs_whole_rounds(seconds, jobs):
    times, failed = run.timed_loop(_Rounds(), seconds=seconds)
    assert not failed
    assert len(times) % 3 == 0 and len(times) >= 3
    if jobs is not None:
        assert len(times) == jobs
    assert len(run.timed_loop(_Rounds(), count=5)[0]) == 5
