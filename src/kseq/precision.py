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


@functools.cache
def _eps(prec: int) -> mpf:
    """10^-(dps-3) at ``prec`` bits: the step test of ``_newton_in_bracket``."""
    with mpmath.workprec(prec):
        return mpmath.mpf(10) ** (-(mpmath.mp.dps - 3))


def _newton_in_bracket(fn, dfn, lo, hi, x, max_steps: int, fail, eps=None):
    """Root of ``fn``, increasing through its one root in (lo, hi), by Newton
    from x.  A step moving x by at most eps|x| is the answer, wherever it lands;
    an unconverged step that leaves the sign bracket becomes a bisection.
    One loop in plain operators: on mpf at the working precision, each rounded
    to nearest, with eps 10^-(dps-3) by default, or on floats with the
    caller's eps.  Raises ``fail(x, bracket width)`` after ``max_steps`` steps.
    On mpf the operators cost about 2% of the serial quick check list over
    arithmetic on raw mpf tuples, and 3-7% of its c08 (2-core VM, mpmath 1.3.0
    on its python backend); the polynomial evaluations are most of the work."""
    if eps is None:
        eps = _eps(mpmath.mp.prec)
    for _ in range(max_steps):
        fx = fn(x)
        if fx == 0:
            return x
        lo, hi = (lo, x) if fx > 0 else (x, hi)
        dfx = dfn(x)
        if dfx != 0:
            nx = x - fx / dfx
            if abs(nx - x) <= eps * abs(nx):
                return nx
            if lo < nx < hi:
                x = nx
                continue
        nx = (lo + hi) / 2
        if abs(nx - x) <= eps * abs(nx):
            return nx
        x = nx
    raise fail(x, hi - lo)


def _float_newton(fn, dfn, lo: float, hi: float, x: float):
    """``_newton_in_bracket`` on Python floats with eps 1e-10, which leaves
    the root good to double precision, for the seed of an mpf solve; None
    instead of a root that is not finite or not inside (lo, hi), or after 60
    steps or an overflow."""
    try:
        x = _newton_in_bracket(fn, dfn, lo, hi, x, 60, lambda *_: ArithmeticError(), 1e-10)
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
