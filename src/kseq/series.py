"""Truncated formal power series in q with exact integer coefficients.

This is the shared exact layer: generating functions are carried as plain
big-integer coefficient vectors up to an explicit truncation order, so identity
checks are bit-exact.  Evaluation at q = e^(-s) converts to mpmath floats at
the boundary and reports a truncation-tail estimate.

Series are immutable; every operation returns a fresh object.  The module
also holds the one run-length recurrence (``run_length_states``) that both the
constrained-count DP and the formal transfer-matrix product are built on.  It
packs each state into one big integer: slot i, of B bits, holds the
coefficient of q^(n_max - i), so a multiply by q^m is a right shift by m*B that
also drops the weights past n_max, and a state that starts at a high weight is
a small integer.  ``unpack`` turns a packed state back into coefficients.
Each partial sum, of the skipped state or of a finite-r multiply, counts a set
of partitions, so no slot passes p(n_max) < 2^B and none carries (``_slot_bits``).

Half of the recurrence needs no sweep.  A size m above h = floor((n_max+1)/2)
weighs more than n_max twice over, next to m - 1, or beside any other size
above h, so it is used at most once, alone among those sizes, with a run of
length 1.  ``run_length_states`` steps through the sizes up to h only and
finishes the rest in closed form from T, the sum of the states: the partitions
that skip the last size b are T (1 + q^a + ... + q^(b-1)), one capped prefix
sum, those that use it T q^b, and no longer run is left.  ``product_form``
expands its divisors 1/(1 - q^m) on the same packed integers, then applies
its numerators (1 - q^m) to the unpacked coefficients.
"""
from __future__ import annotations

import math
from typing import Iterable

import mpmath

from .precision import DEFAULT_DIGITS, record, working


@record
class TruncatedSeries:
    """Coefficients of 1, q, ..., q^n_max as exact integers."""

    coeffs: tuple
    n_max: int

    def __post_init__(self):
        if self.n_max < 0:
            raise ValueError("n_max must be >= 0")
        if len(self.coeffs) != self.n_max + 1:
            raise ValueError("coeffs length must be n_max + 1")
        if not isinstance(self.coeffs, tuple):
            object.__setattr__(self, "coeffs", tuple(self.coeffs))

    def __getitem__(self, n: int) -> int:
        return self.coeffs[n]

    def _check_match(self, other: "TruncatedSeries"):
        if self.n_max != other.n_max:
            raise ValueError(
                f"truncation orders differ: {self.n_max} != {other.n_max}"
            )

    def __mul__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        """Convolution truncated at n_max, by one big-integer multiply.

        Each factor is packed with ``size`` bytes per coefficient.  A product
        coefficient sums at most n_max + 1 terms a_i b_j, so its magnitude is
        at most max|a| max|b| (n_max + 1) < 2^(8 size - 1) = half; every slot,
        inputs included, holds its value plus ``half``, in [0, 2^(8 size)), so
        no slot carries or borrows into the next.
        """
        self._check_match(other)
        n = self.n_max
        bound = max(1, *map(abs, self.coeffs)) * max(1, *map(abs, other.coeffs)) * (n + 1)
        size = (bound.bit_length() + 8) // 8
        half = 1 << (8 * size - 1)
        bias = int.from_bytes(half.to_bytes(size, "little") * (n + 1), "little")
        a, b = (int.from_bytes(b"".join((c + half).to_bytes(size, "little") for c in x.coeffs), "little")
                for x in (self, other))
        low = ((a - bias) * (b - bias) + bias) & ((1 << 8 * size * (n + 1)) - 1)
        raw = low.to_bytes(size * (n + 1), "little")
        return TruncatedSeries(
            tuple(int.from_bytes(raw[i:i + size], "little") - half for i in range(0, len(raw), size)), n)


# Slot width.  Every slot value, at every step of run_length_states, counts a
# set of partitions of its weight w <= n_max.  A state counts the partitions
# with one run length, so the states count disjoint sets, and each partial sum
# of the skipped state (states 1..k-1 first, then state 0) counts a union of
# them.  In _mul_packed, the direct finite-r sum after i copies holds the
# partitions in which size m occurs 1..i times, the doubling those in which it
# occurs 1..2^j times, and the doubling's unbounded product U, before the
# r-cap subtracts the ones with size m more than r times, holds them all.  So
# every slot is at most p(w) <= p(n_max) < e^{pi sqrt(2 n_max/3)} (Apostol,
# Introduction to Analytic Number Theory, Thm 14.5), below 2^B for
# B >= pi sqrt(2 n_max/3)/ln 2; the extra bit covers the float rounding of
# that bound.  No add carries out of a slot and no subtraction borrows into
# one (the r-cap subtracts a set of partitions from a superset), so the
# packed arithmetic is bit-exact.  The closed-form top half of
# run_length_states is one capped prefix sum T (q + ... + q^(b-a)) at a
# shift of one slot, applied to T q^(a-1): each of its slots, at every
# doubling step, counts the partitions with exactly one part in [a, b-1] (or
# a wider range the cap then removes) and the rest from T, whose parts are at
# most h < a, so again a set of partitions of w.
#
# product_form packs a product of divisors 1/(1 - q^m) in which no m occurs
# more than mu times.  Each partial product, and each doubling step inside
# one, has nonnegative coefficients at most those of prod_{n>=1}
# (1 - q^n)^{-mu}, and the saddle bound of the same theorem, with mu pi^2/6
# in place of pi^2/6, gives [q^w] (q;q)^{-mu} <= e^{pi sqrt(2 mu w/3)}: the
# slot width for mu * n_max holds them.
def _slot_bits(n_max: int) -> int:
    bits = math.pi * math.sqrt(2 * n_max / 3) / math.log(2) + 1
    return 8 * math.ceil(bits / 8)


def run_length_states(k: int, n_max: int, sizes: range, r: int | None = None) -> list:
    """The run-length recurrence behind A_k, over the part sizes in ``sizes``.

    Returns k packed states (read them with ``unpack``): state j counts the
    partitions of weights 0..n_max into the sizes processed so far, each used
    at most r times (r=None: unbounded), in which no k consecutive sizes all
    occur and the run of consecutive sizes present up to the last one
    processed has length j.  A size is either skipped (the run resets to 0) or
    used (the run grows by one, and reaching k is forbidden).  Over sizes
    1..N this is the formal transfer-matrix product prod m(n) e_1, whose
    subdiagonal z(n) multiplies by q^n/(1-q^n).

    Slot i of a state holds the coefficient of q^(n_max - i), so a state's
    tail, its coefficients from the first weight that can be nonzero, is its
    low slots.  State 0 holds the empty partition in the top slot; using size
    m moves a state's start up by m, so over consecutive sizes state j >= 1
    after size m starts at weight m + (m-1) + ... + (m-j+1), has that many
    fewer slots, and is 0 once that passes n_max.

    ``sizes`` is a range of consecutive sizes.  Those above h =
    floor((n_max+1)/2) take no step of their own: the module docstring gives
    the closed form that ends the recurrence there.
    """
    width = _slot_bits(n_max)
    states = [1 << (n_max * width)] + [0] * (k - 1)
    h = (n_max + 1) // 2
    for m in range(sizes.start, min(sizes.stop, h + 1)):
        used = [_mul_packed(x, m * width, r) for x in states[:-1]]
        # the short states first, so only the last add is full length
        states = [sum(states[1:]) + states[0]] + used
    a, b = max(sizes.start, h + 1), sizes.stop - 1
    if a > b:
        return states
    # each of sizes a..b is used at most once, alone among them, with a run of 1
    total = sum(states[1:]) + states[0]
    skipped = total if a == b else total + _mul_packed(total >> (a - 1) * width, width, b - a)
    return [skipped, total >> b * width] + [0] * (k - 2)


def _mul_packed(x: int, shift: int, r: int | None) -> int:
    # x * (q^m + q^{2m} + ... + q^{rm}) at shift = m * slot width, every way
    # to use size m; r=None is x * q^m/(1-q^m).  The shift multiplies by q^m
    # and truncates at n_max; the doubling multiplies by (1 + q^m)(1 + q^{2m})
    # (1 + q^{4m})... until the shift passes every nonzero slot.
    x >>= shift
    if r is not None and r <= (x.bit_length() // shift).bit_length() + 1:
        # r - 1 shorter and shorter copies against log2(length/shift) full
        # passes; timed (n_max 1200, 30..1200 slots, m 1..16), direct wins to
        # this bound + 1 and loses from + 2, and at r = n_max it is 2.5x slower
        total = x
        for _ in range(r - 1):
            x >>= shift
            total += x
        return total
    step = shift
    while step < x.bit_length():
        x += x >> step
        step += step
    if r is not None:
        x -= x >> (r * shift)
    return x


def unpack(packed: int, n_max: int, width: int | None = None) -> tuple:
    """Coefficients of 1, q, ..., q^n_max of a packed ``run_length_states``
    state, or of a sum of them; ``width`` is the slot width in bits, by
    default ``_slot_bits(n_max)``."""
    width = (width or _slot_bits(n_max)) // 8
    raw = packed.to_bytes((n_max + 1) * width, "big")
    return tuple(int.from_bytes(raw[i:i + width], "big") for i in range(0, len(raw), width))


def product_form(
    factors: Iterable[tuple], n_max: int
) -> TruncatedSeries:
    """Expand prod_{n>=1} (1 - q^{a n + b})^e exactly, truncated at n_max.

    ``factors`` is an iterable of (period a, residue b, exponent e) with
    a >= 1 and e in {-1, +1}.  Only indices with a*n + b <= n_max contribute.
    The empty list gives the constant series 1.

    The divisors 1/(1 - q^m) are expanded on one packed integer, as in
    ``run_length_states``; each numerator (1 - q^m) is then one pass over
    its unpacked coefficients.
    """
    factors = tuple(factors)
    # uses[m]: how many divisors 1/(1 - q^m) there are; their most, mu, sets
    # the slot width (_slot_bits)
    uses = [0] * (n_max + 1)
    for a, b, e in factors:
        if a < 1:
            raise ValueError(f"period must be >= 1, got {a}")
        if e not in (-1, 1):
            raise ValueError(f"exponent must be -1 or +1, got {e}")
        if a + b < 1:
            raise ValueError(f"factor ({a}, {b}, {e}) hits exponent {a + b} < 1")
        if e == -1:
            for m in range(a + b, n_max + 1, a):
                uses[m] += 1
    width = _slot_bits(max(uses) * n_max)
    den = 1 << (n_max * width)
    for a, b, e in factors:
        if e == -1:
            for m in range(a + b, n_max + 1, a):
                den += _mul_packed(den, m * width, None)
    coeffs = list(unpack(den, n_max, width))
    for a, b, e in factors:
        if e == 1:
            for m in range(a + b, n_max + 1, a):
                coeffs[m:] = [x - y for x, y in zip(coeffs[m:], coeffs)]
    return TruncatedSeries(coeffs, n_max)


@record
class EvalResult:
    """Value of a truncated series at q = e^(-s) plus a tail estimate.

    ``tail_estimate`` extrapolates |sum_{n > n_max} c_n q^n| from the growth
    of the last retained coefficients; it is an estimate, not a proven bound.
    ``within_tol`` records whether it met the caller's tolerance (None when
    no tolerance was requested or the growth ratio made the geometric
    estimate diverge).
    """

    value: mpmath.mpf
    tail_estimate: mpmath.mpf
    within_tol: bool | None


def eval_at(
    series: TruncatedSeries,
    s,
    digits: int = DEFAULT_DIGITS,
    tol=None,
) -> EvalResult:
    """Evaluate sum_n c_n e^(-n s) for s > 0 by Horner's rule, as
    ``mpmath.polyval`` on the coefficients from the top down."""
    with working(digits):
        s = mpmath.mpf(s)
        if s <= 0:
            raise ValueError("s must be positive")
        q = mpmath.exp(-s)
        tail = _tail_estimate(series, q)
        ok = None if tol is None else bool(tail <= mpmath.mpf(tol))
        return EvalResult(mpmath.polyval(series.coeffs[::-1], q), tail, ok)


def _tail_estimate(series: TruncatedSeries, q) -> mpmath.mpf:
    # Geometric continuation of the coefficient growth seen near the cutoff:
    # |tail| <= |c_last| * rho * q^{n_max+1} / (1 - rho q), rho the largest
    # recent ratio of consecutive nonzero coefficients.
    coeffs = series.coeffs
    nz = [(i, abs(c)) for i, c in enumerate(coeffs) if c != 0]
    if not nz:
        return mpmath.mpf(0)
    last_i, last_c = nz[-1]
    rho = mpmath.mpf(1)
    window = nz[-8:]
    for (i0, c0), (i1, c1) in zip(window, window[1:]):
        r = (mpmath.mpf(c1) / c0) ** (mpmath.mpf(1) / (i1 - i0))
        rho = max(rho, r)
    growth = rho * q
    lead = mpmath.mpf(last_c) * rho ** (series.n_max + 1 - last_i) * q ** (series.n_max + 1)
    if growth >= 1:
        return mpmath.mpf("inf")
    return lead / (1 - growth)
