"""Exact computational toolkit for restricted root systems, Weyl groups,
a-hyperbolic ranks, proper-action rank tests, and the obstruction to
standard compact quotients of reductive homogeneous spaces.

The submodules and the names re-exported here load on first access
(PEP 562), so `import ckforms` loads no submodule and a command loads only
the layers it uses."""

from importlib import import_module

_SUBMODULES = ("cartan", "catalog", "criteria", "errors", "linalg", "obstruction",
               "rootspace", "weyl")

# each re-exported name -> the submodule that defines it
_HOMES = {name: module for module, names in (
    ("catalog", "attributes derived_invariants parse_descriptor parse_simple"),
    ("criteria", "Subspace antipodal_orbit_check check_proper_embedded "
                 "cocompact_dimension_check necessary_conditions subspace_from_text"),
    ("obstruction", "candidate_combinations candidate_simple_parts standard_form_verdict"),
    ("rootspace", "build_root_system direct_sum is_dominant"),
    ("weyl", "ahyp_dimension dominant_representative enumerate_weyl fixed_cone "
             "is_antipodal longest_element minus_w0 weyl_order"),
) for name in names.split()}

__version__ = "0.1.0"

__all__ = [
    "attributes", "ahyp_dimension", "antipodal_orbit_check", "build_root_system",
    "candidate_combinations", "candidate_simple_parts", "cartan", "catalog",
    "check_proper_embedded", "cocompact_dimension_check", "criteria",
    "derived_invariants", "direct_sum", "dominant_representative", "enumerate_weyl",
    "errors", "fixed_cone", "is_antipodal", "is_dominant", "linalg", "longest_element",
    "minus_w0", "necessary_conditions", "obstruction", "parse_descriptor",
    "parse_simple", "rootspace", "standard_form_verdict", "Subspace",
    "subspace_from_text", "weyl", "weyl_order",
]


def __getattr__(name: str):
    if name in _SUBMODULES:
        return import_module(f"{__name__}.{name}")
    if name in _HOMES:
        return getattr(import_module(f"{__name__}.{_HOMES[name]}"), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
