"""Exception types and the search budget shared by the solvers."""

from __future__ import annotations

import time

# Loops tick their budget this many nodes at a time, plus the remainder
# when they end.
TICK_BATCH = 256


class RegexParseError(ValueError):
    """Raised when a regular expression string cannot be parsed."""


class RgpSchemaError(ValueError):
    """Raised when an RGP JSON document violates the input schema."""


class PreconditionError(ValueError):
    """Raised when an operation is called outside its stated domain."""


class CapExceededError(RuntimeError):
    """Raised when an enumeration grows past its configured size cap."""


class BudgetExceededError(RuntimeError):
    """Raised when a search exceeds its node or time budget.

    Distinct from a "no solution" answer: the search was cut short and
    the instance remains undecided.
    """


class NotAcyclicError(RuntimeError):
    """Pattern simplification found a directed cycle: a definite NO
    for any directed-path target."""


class NotBalancedError(RuntimeError):
    """The pattern's a-subgraph admits no level function: a definite NO
    for any directed-path target."""


class SearchBudget:
    """Mutable node/time budget threaded through a solver call tree.

    A single budget instance accumulates across sub-searches (for example
    the per-arc sub-solves inside an n-core check), so one verdict gets
    one overall cap.
    """

    def __init__(self, max_nodes: int = 10_000_000, max_seconds: float = 60.0):
        self.max_nodes = max_nodes
        self.max_seconds = max_seconds
        self.nodes = 0
        self._started = time.monotonic()

    def tick(self, n: int = 1) -> None:
        self.nodes += n
        if self.nodes > self.max_nodes:
            raise BudgetExceededError(
                f"search exceeded {self.max_nodes} nodes")
        if time.monotonic() - self._started > self.max_seconds:
            raise BudgetExceededError(
                f"search exceeded {self.max_seconds:.0f} seconds")
