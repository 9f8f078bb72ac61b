"""Exact arithmetic for multiple zeta and zeta-star values at non-positive
integer points.

The package computes, in exact rational arithmetic:

* regular and reverse values of multiple zeta functions and multiple
  zeta-star functions at tuples of non-positive integers, each by several
  independent routes (limit recurrences, Stirling-kernel closed forms, and
  a Gregory-coefficient route for the plain reverse values);
* the asymptotic coefficients attached to each limit direction, with their
  staircase recurrences, explicit formula, parity law, and star-shift law;
* the supporting special functions: Bernoulli polynomials of arbitrary
  order, Stirling numbers and their one-parameter polynomial deformations,
  and generalized Gregory coefficients.

Every identity relating these quantities is checkable through
:func:`mzv.verify.run_suite`; the :mod:`mzv.cli` module exposes the same
functionality as the ``mzv`` command.
"""

from .asymptotic import (
    asym_coeff,
    c_ir,
    c_ir_explicit,
    c_ir_recurrence,
    gregory,
    origin_rev_gregory,
    parity_check,
    rev_via_gregory,
    star_coeff_relation_check,
)
from .bernoulli import (
    bernoulli_higher_at,
    bernoulli_higher_order,
    bernoulli_number,
    bernoulli_poly,
    bernoulli_poly_at,
    choi_identity_check,
    choi_value,
    hurwitz_zeta_neg,
    zeta_neg,
    zeta_star_neg,
)
from .kernel import BivariateSeries, RationalPolynomial
from .stirling import (
    stirling_first,
    stirling_poly_first,
    stirling_poly_first_at,
    stirling_poly_second,
    stirling_poly_second_at,
    stirling_second,
    stirling_transform_apply,
)
from .values import (
    ValueKind,
    akiyama_tanigawa_reg,
    akiyama_tanigawa_rev,
    iter_index_tuples,
    mzf_reg,
    mzf_rev,
    mzf_rev_stirling,
    mzsf_reg,
    mzsf_rev,
    mzsf_rev_stirling,
    prop_zero_padding_check,
    sign_theorem_check,
    value,
)
from .verify import SUITE_NAMES, Bounds, SuiteResult, run_suite, run_suites

__version__ = "1.0.0"

__all__ = [
    "BivariateSeries",
    "Bounds",
    "RationalPolynomial",
    "SUITE_NAMES",
    "SuiteResult",
    "ValueKind",
    "akiyama_tanigawa_reg",
    "akiyama_tanigawa_rev",
    "asym_coeff",
    "bernoulli_higher_at",
    "bernoulli_higher_order",
    "bernoulli_number",
    "bernoulli_poly",
    "bernoulli_poly_at",
    "c_ir",
    "c_ir_explicit",
    "c_ir_recurrence",
    "choi_identity_check",
    "choi_value",
    "gregory",
    "hurwitz_zeta_neg",
    "iter_index_tuples",
    "mzf_reg",
    "mzf_rev",
    "mzf_rev_stirling",
    "mzsf_reg",
    "mzsf_rev",
    "mzsf_rev_stirling",
    "origin_rev_gregory",
    "parity_check",
    "prop_zero_padding_check",
    "rev_via_gregory",
    "run_suite",
    "run_suites",
    "sign_theorem_check",
    "star_coeff_relation_check",
    "stirling_first",
    "stirling_poly_first",
    "stirling_poly_first_at",
    "stirling_poly_second",
    "stirling_poly_second_at",
    "stirling_second",
    "stirling_transform_apply",
    "value",
    "zeta_neg",
    "zeta_star_neg",
]
