"""Exact and asymptotic computations for partitions without k-sequences."""

from .counting import Constraint, CountTable, count_constrained, enumerate_oracle, gk_coefficients
from .precision import DEFAULT_DIGITS, LogValue
from .series import TruncatedSeries, eval_at, product_form
from .transfer import gk_eval, iterate_product, z_of

__version__ = "0.1.0"

__all__ = [
    "Constraint",
    "CountTable",
    "DEFAULT_DIGITS",
    "LogValue",
    "TruncatedSeries",
    "count_constrained",
    "enumerate_oracle",
    "eval_at",
    "gk_coefficients",
    "gk_eval",
    "iterate_product",
    "product_form",
    "z_of",
    "__version__",
]
