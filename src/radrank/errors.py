"""Shared exception types."""


class DimensionError(ValueError):
    """Vector or matrix dimensions do not agree."""


class ResourceLimitError(RuntimeError):
    """An exhaustive search was refused for exceeding WORK_BUDGET."""


# Most primes or generators an exhaustive subset search (at most
# sum_{k <= rank} C(n, k + 1) exact circuit decisions, then a 2^n table
# given its verdicts by n^2 big-int operations; 2^n chain predicate calls)
# may run over; beyond it the search is refused, not left to run.
WORK_BUDGET = 12


def check_budget(count: int, what: str) -> None:
    """Refuse `what`, a search over `count` primes or generators, above budget."""
    if count > WORK_BUDGET:
        raise ResourceLimitError(
            f"refused {what}: {count} exceeds WORK_BUDGET = {WORK_BUDGET}"
        )


class PreconditionError(ValueError):
    """An operation's precondition does not hold for the given input."""


class StructureError(RuntimeError):
    """The input is too degenerate for the requested structure."""


class ModelFormatError(ValueError):
    """A serialized model or auxiliary file is malformed."""
