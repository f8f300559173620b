"""Exact computational toolkit for restricted root systems, Weyl groups,
a-hyperbolic ranks, proper-action rank tests, and the obstruction to
standard compact quotients of reductive homogeneous spaces."""

from . import cartan, catalog, criteria, errors, linalg, obstruction, rootspace, weyl
from .catalog import attributes, derived_invariants, parse_descriptor, parse_simple
from .criteria import (
    Subspace,
    antipodal_orbit_check,
    check_proper_embedded,
    cocompact_dimension_check,
    necessary_conditions,
    subspace_from_text,
)
from .obstruction import candidate_combinations, candidate_simple_parts, standard_form_verdict
from .rootspace import build_root_system, direct_sum, is_dominant, reflect
from .weyl import (
    ahyp_dimension,
    dominant_representative,
    enumerate_weyl,
    fixed_cone,
    is_antipodal,
    longest_element,
    minus_w0,
    weyl_order,
)

__version__ = "0.1.0"

__all__ = [
    "attributes",
    "ahyp_dimension",
    "antipodal_orbit_check",
    "build_root_system",
    "candidate_combinations",
    "candidate_simple_parts",
    "cartan",
    "catalog",
    "check_proper_embedded",
    "cocompact_dimension_check",
    "criteria",
    "derived_invariants",
    "direct_sum",
    "dominant_representative",
    "enumerate_weyl",
    "errors",
    "fixed_cone",
    "is_antipodal",
    "is_dominant",
    "linalg",
    "longest_element",
    "minus_w0",
    "necessary_conditions",
    "obstruction",
    "parse_descriptor",
    "parse_simple",
    "reflect",
    "rootspace",
    "standard_form_verdict",
    "Subspace",
    "subspace_from_text",
    "weyl",
    "weyl_order",
]
