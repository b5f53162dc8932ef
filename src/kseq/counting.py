"""Exact counts of partitions with no k-sequence, capped multiplicities, and
a minimum part bound, plus a brute-force enumeration oracle.

A partition has a k-sequence when k consecutive part sizes all occur.  The
counts come from the run-length recurrence ``series.run_length_states`` over
the sizes above the bound: a size is either skipped (run resets) or used with
some multiplicity (run extends, forbidden at length k).  The recurrence packs
each state into one big integer whose nonzero slots run from the first weight
the state can reach (a run of j sizes ending at m weighs at least
m + (m-1) + ... + (m-j+1)) to n_max, so sizes near n_max cost little; the
table is the sum of the states, unpacked once.  All arithmetic is big-integer
exact.
"""
from __future__ import annotations

from .precision import record
from .series import TruncatedSeries, run_length_states, unpack

ENUMERATION_LIMIT = 45


@record
class Constraint:
    """(k, r, B): no k-sequence, parts occur at most r times, parts > B.

    ``r=None`` means unbounded multiplicity (an explicit variant, not a
    sentinel count).  k=1 is rejected: only the empty partition would qualify.
    """

    k: int
    r: int | None = None
    min_part_bound: int = 0

    def __post_init__(self):
        if self.k < 2:
            raise ValueError("k must be >= 2")
        if self.r is not None and self.r < 1:
            raise ValueError("r must be >= 1 or None for unbounded")
        if self.min_part_bound < 0:
            raise ValueError("min part bound must be >= 0")

    @property
    def unbounded(self) -> bool:
        return self.r is None

    def label(self) -> str:
        r = "inf" if self.r is None else str(self.r)
        return f"p[k={self.k},r={r},>{self.min_part_bound}]"


@record
class CountTable:
    constraint: Constraint
    values: tuple

    def __getitem__(self, n: int) -> int:
        return self.values[n]

    def series(self) -> TruncatedSeries:
        return TruncatedSeries(self.values, len(self.values) - 1)


def count_constrained(constraint: Constraint, n_max: int) -> CountTable:
    """Exact p_{k,r,>B}(n) for n = 0..n_max by the run-length DP."""
    if n_max < 0:
        raise ValueError("n_max must be >= 0")
    k, r, bound = constraint.k, constraint.r, constraint.min_part_bound
    states = run_length_states(k, n_max, range(bound + 1, n_max + 1), r)
    return CountTable(constraint, unpack(sum(states), n_max))


def gk_coefficients(k: int, n_max: int) -> CountTable:
    """p_k(n) = p_{k,inf,>0}(n): the G_k coefficient table."""
    return count_constrained(Constraint(k), n_max)


def enumerate_oracle(constraint: Constraint, n: int) -> int:
    """Count by generating every qualifying partition of n explicitly.

    Exponential; refuses n > 45 so accidental large calls cannot hang a run.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    if n > ENUMERATION_LIMIT:
        raise ValueError(f"enumeration oracle is limited to n <= {ENUMERATION_LIMIT}")
    k, r, bound = constraint.k, constraint.r, constraint.min_part_bound
    # parts chosen in decreasing size; run tracks consecutive sizes present
    # below (and including) the previously chosen size; depth <= n <= 45
    def descend(remaining: int, max_size: int, prev_size: int, run: int) -> int:
        if remaining == 0:
            return 1
        total = 0
        top = min(remaining, max_size)
        for size in range(top, bound, -1):
            new_run = run + 1 if size == prev_size - 1 else 1
            if new_run >= k:
                continue
            max_mult = remaining // size if r is None else min(r, remaining // size)
            for mult in range(1, max_mult + 1):
                total += descend(remaining - mult * size, size - 1, size, new_run)
        return total

    return descend(n, n, n + 2, 0)
