"""Scheduler portfolio: evaluate several pipelines, keep the best per instance.

Members are pipeline specs (see :mod:`repro.pipeline`); the legacy member
names remain valid aliases (:data:`repro.pipeline.LEGACY_MEMBER_SPECS` pins
each to its canonical spec, and :func:`repro.pipeline.run_member` runs one
member on one instance).  Public API: :class:`Portfolio`,
:class:`PortfolioResult`, :data:`DEFAULT_MEMBERS`,
:func:`format_portfolio_table` and :func:`reduce_to_portfolio_rows`.
"""

from repro.portfolio.portfolio import (
    DEFAULT_MEMBERS,
    Portfolio,
    PortfolioResult,
    format_portfolio_table,
    reduce_to_portfolio_rows,
)

# resolve_member is re-exported: the repository benchmark (perfbench/)
# imports it from this package
from repro.pipeline import resolve_member

__all__ = [
    "DEFAULT_MEMBERS",
    "Portfolio",
    "PortfolioResult",
    "format_portfolio_table",
    "reduce_to_portfolio_rows",
    "resolve_member",
]
