import sys

import pytest

import radrank
import radrank.cones
from modelgen import fresh_rng, random_model, random_spanning_model


@pytest.fixture(scope="session")
def spanning_population():
    """110 positively spanning models, ambient rank 0-3, 3-8 primes."""
    rng = fresh_rng()
    return tuple(random_spanning_model(rng) for _ in range(110))


@pytest.fixture(scope="session")
def small_population():
    """50 unconstrained models with 3-6 primes (spanning not required)."""
    rng = fresh_rng(salt=1)
    return tuple(random_model(rng, 3, 6) for _ in range(50))


@pytest.fixture(scope="session")
def witness_rich_small(spanning_population):
    return tuple(
        m
        for m in spanning_population
        if len(m.ids()) <= 6 and radrank.validate(m).witness_rich
    )


@pytest.fixture
def walk_decisions(monkeypatch):
    """The (prefix mask, index) pairs that `cones.principal_table`'s circuit
    walk decides, in order, filled while the test runs.  The walk hands each
    level of prefix states to `_decide_tableaux` or `_decide_signs`, and
    those decide every index above each state's largest, so the pairs are
    read off the states they are given."""
    decided = []
    for name in ("_decide_tableaux", "_decide_signs"):
        real = getattr(radrank.cones, name)

        def counted(count, *args, real=real):
            decided.extend(
                (prefix, i)
                for prefix, last, *_ in args[-1]
                for i in range(last + 1, count)
            )
            return real(count, *args)

        monkeypatch.setattr(radrank.cones, name, counted)
    return decided


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    acceptance = sys.modules.get("test_acceptance")
    if acceptance is None or not getattr(acceptance, "RESULTS", None):
        return
    terminalreporter.write_line("")
    for num in sorted(acceptance.RESULTS):
        label, passed = acceptance.RESULTS[num]
        verdict = "PASS" if passed else "FAIL"
        terminalreporter.write_line(f"criterion {num} ({label}): {verdict}")
