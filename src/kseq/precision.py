"""Configurable-precision scalars and the shared bracketed Newton solver.

All numeric kernels in this package run mpmath under an explicit decimal-digit
budget (default 50) plus a fixed guard, so delivered results remain good to the
requested precision after long accumulations.  Values whose magnitudes span
hundreds of orders of magnitude (matrix products over thousands of factors) are
carried as plain mpf natural logs, with -inf for a zero, and never leave the
log domain between rescalings.

Everything here is immutable and side-effect free; sharing across threads or
parameter grids is safe.
"""
from __future__ import annotations

import functools
import operator

import mpmath
from mpmath import mpf
from mpmath.libmp import (
    fzero, mpf_abs, mpf_add, mpf_div, mpf_le, mpf_lt, mpf_mul, mpf_shift, mpf_sub,
    round_nearest,
)

DEFAULT_DIGITS = 50

# Extra digits carried internally so that results delivered at `digits`
# precision survive ~10^4 accumulated operations with headroom.
GUARD_DIGITS = 15


def record(cls):
    """Class decorator for the package's data classes, in place of
    ``dataclasses.dataclass(frozen=True)``, which compiles each method from
    source text and imports ``inspect`` on every start-up.  The annotated
    class attributes, in order, are the fields.  Adds ``__init__``
    (positional or keyword, with the class-level values as defaults, then
    ``__post_init__`` when the class has one), and ``__repr__``, ``__eq__``
    and ``__hash__`` as a frozen dataclass writes them.  Instances raise
    ``AttributeError`` on assignment or deletion, so ``__post_init__`` sets
    derived attributes with ``object.__setattr__``."""
    name = cls.__qualname__
    fields = tuple(cls.__dict__.get("__annotations__", ()))
    defaults = tuple(cls.__dict__[f] for f in fields if f in cls.__dict__)
    required = len(fields) - len(defaults)
    if any(f in cls.__dict__ for f in fields[:required]):
        raise TypeError(f"{name}: a field without a default follows one with a default")
    astuple = (operator.attrgetter(*fields) if len(fields) > 1
               else lambda self: (getattr(self, fields[0]),))
    set_field = object.__setattr__
    post_init = hasattr(cls, "__post_init__")

    def bind(args, kwargs) -> tuple:
        values = dict(zip(fields, args))
        for key, value in kwargs.items():
            if key not in fields or key in values:
                raise TypeError(f"{name}() got an unexpected or repeated argument {key!r}")
            values[key] = value
        values = {**dict(zip(fields[required:], defaults)), **values}
        if len(args) > len(fields) or len(values) < len(fields):
            raise TypeError(f"{name}() takes {required} to {len(fields)} arguments "
                            f"({', '.join(fields)}), got {len(args)} and {sorted(kwargs)}")
        return tuple(values[f] for f in fields)

    def __init__(self, *args, **kwargs):
        if kwargs or not required <= len(args) <= len(fields):
            args = bind(args, kwargs)
        elif len(args) < len(fields):
            args += defaults[len(args) - required:]
        for f, value in zip(fields, args):
            set_field(self, f, value)
        if post_init:
            self.__post_init__()

    def __repr__(self):
        items = ", ".join(map("{}={!r}".format, fields, astuple(self)))
        return f"{type(self).__qualname__}({items})"

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return astuple(self) == astuple(other)
        return NotImplemented

    def __hash__(self):
        return hash(astuple(self))

    def __setattr__(self, key, value):
        raise AttributeError(f"cannot assign to field {key!r}")

    def __delattr__(self, key):
        raise AttributeError(f"cannot delete field {key!r}")

    for method in (__init__, __repr__, __eq__, __hash__, __setattr__, __delattr__):
        method.__qualname__ = f"{name}.{method.__name__}"
        setattr(cls, method.__name__, method)
    return cls


def working(digits: int = DEFAULT_DIGITS):
    """mpmath context at the requested precision plus the internal guard."""
    return mpmath.workdps(digits + GUARD_DIGITS)


# An arithmetic for _newton_in_bracket: (sub, div, mid, lt, close, zero, box,
# unbox), with close(nx, x) the step test |nx - x| <= eps |nx|, and box/unbox
# the maps between its raw numbers and the numbers fn takes and returns
_FLOAT = (operator.sub, operator.truediv, lambda a, b: (a + b) / 2, operator.lt,
          lambda nx, x: abs(nx - x) <= 1e-10 * abs(nx), 0.0, lambda x: x, lambda x: x)


@functools.cache
def _mpf_arithmetic(prec: int) -> tuple:
    """Raw mpf tuples at ``prec`` bits, rounded to nearest as the mpf operators
    round, so each step equals its mpf-operator form bit for bit (abs needs no
    rounding: it only meets values already rounded to ``prec``), with eps
    10^-(dps-3) at that precision."""
    rnd = round_nearest
    with mpmath.workprec(prec):
        eps = (mpmath.mpf(10) ** (-(mpmath.mp.dps - 3)))._mpf_
    return (
        lambda a, b: mpf_sub(a, b, prec, rnd),
        lambda a, b: mpf_div(a, b, prec, rnd),
        lambda a, b: mpf_shift(mpf_add(a, b, prec, rnd), -1),
        mpf_lt,
        lambda nx, x: mpf_le(mpf_abs(mpf_sub(nx, x, prec, rnd)),
                             mpf_mul(eps, mpf_abs(nx), prec, rnd)),
        fzero, mpmath.mp.make_mpf, operator.attrgetter("_mpf_"))


def _newton_in_bracket(fn, dfn, lo, hi, x, max_steps: int, fail, arith=None):
    """Root of ``fn``, increasing through its one root in (lo, hi), by Newton
    from x.  A step moving x by at most eps|x| is the answer, wherever it lands;
    an unconverged step that leaves the sign bracket becomes a bisection.
    Runs on raw mpf at the working precision with eps = 10^-(dps-3), or in
    ``arith`` (``_FLOAT``); ``fn`` and ``dfn`` take and return mpf (or float).
    Raises ``fail(x, bracket width)`` after ``max_steps`` steps."""
    sub, div, mid, lt, close, zero, box, unbox = arith or _mpf_arithmetic(mpmath.mp.prec)
    lo, hi, x = unbox(lo), unbox(hi), unbox(x)
    for _ in range(max_steps):
        boxed = box(x)
        fx = unbox(fn(boxed))
        if fx == zero:
            return boxed
        lo, hi = (lo, x) if lt(zero, fx) else (x, hi)
        dfx = unbox(dfn(boxed))
        if dfx != zero:
            nx = sub(x, div(fx, dfx))
            if close(nx, x):
                return box(nx)
            if lt(lo, nx) and lt(nx, hi):
                x = nx
                continue
        nx = mid(lo, hi)
        if close(nx, x):
            return box(nx)
        x = nx
    raise fail(box(x), box(sub(hi, lo)))


def _float_newton(fn, dfn, lo: float, hi: float, x: float):
    """``_newton_in_bracket`` in Python floats to a 1e-10 step, which leaves
    the root good to double precision; None instead of a root that is not
    finite or not inside (lo, hi), or after 60 steps or an overflow."""
    try:
        x = _newton_in_bracket(fn, dfn, lo, hi, x, 60, lambda *_: ArithmeticError(), _FLOAT)
    except ArithmeticError:  # OverflowError and ZeroDivisionError among them
        return None
    return x if lo < x < hi else None


@record
class LogValue:
    """A positive number as the natural log of its magnitude: the type of
    ``transfer.GkEvalResult.value``, read back with :meth:`log`.  Every other
    log-domain value in the package is a plain mpf."""

    log_mag: mpf

    def log(self) -> mpf:
        return self.log_mag
