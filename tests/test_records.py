"""Semantics of the package's result records: every stored field is
read-only, derived state (`RootSystem._cache` / `simple_roots`, and
`Subspace._rows` / `dim` from construction and `basis`, built from `_rows`
on first read) stays out of equality and hashing, and construction-time
validation holds under `python -O`."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import ckforms
from ckforms import cartan, weyl
from ckforms.catalog import (
    cocompact_dimension_check,
    derived_invariants,
    necessary_conditions,
    parse_descriptor,
    parse_simple,
    table1_rows,
)
from ckforms.criteria import Subspace, antipodal_orbit_check, check_proper_embedded
from ckforms.obstruction import standard_form_verdict
from ckforms.rootspace import build_root_system

from helpers import fundamental_coweights, in_root_span, vector

A4 = build_root_system("A", 4)


def _instances():
    """One instance of each record type, keyed by type name, with the names
    of its stored fields."""
    desc = parse_descriptor("sl(3,R)+so(3)")
    reports = necessary_conditions(desc, desc, desc)
    verdict = standard_form_verdict(parse_simple("sl(9,R)"), parse_descriptor("so(3,6)"))
    candidate = verdict.witnesses[0]
    a_h = Subspace(A4, (vector([1, 0, 0, 0, -1]),))
    return {
        "W0": (cartan.w0_of(cartan.cartan_matrix("A", 3), cartan.w0_length("A", 3)),
               ("chain", "minus_w0", "ahyp")),
        "SimpleRealForm": (desc.noncompact_parts[0],
                           ("name", "family", "params", "restricted_type",
                            "restricted_rank", "dim_g", "dim_k", "dim_p",
                            "rank_maxcompact", "is_complex_as_real")),
        "CompactPart": (desc.compact_parts[0], ("name", "dim", "rank")),
        "ReductiveDescriptor": (desc, ("text", "noncompact_parts", "compact_parts",
                                       "split_center_dim", "compact_center_dim")),
        "DerivedInvariants": (derived_invariants(desc),
                              ("rank_R", "ahyp", "d", "rank_maxcompact_sum")),
        "Table1Row": (table1_rows(2)[0],
                      ("family", "k", "form", "expected_ahyp", "expected_rank")),
        "Subspace": (a_h, ("system", "spanning_vectors", "basis", "dim")),
        "Check": (reports.checks[0], ("name", "lhs", "rhs", "passed")),
        "PropernessReport": (reports, ("checks", "overall")),
        "CocompactReport": (cocompact_dimension_check(desc, desc, desc),
                            ("d_g", "d_h", "d_l", "equal", "required_d")),
        "ProperCheck": (check_proper_embedded(A4, a_h, a_h),
                        ("proper", "w_index", "element", "witness")),
        "AntipodalReport": (antipodal_orbit_check(A4, a_h.basis[0]),
                            ("antipodal", "dominant_rep")),
        "BudgetUse": (candidate.budgets.ahyp, ("used", "limit")),
        "Budgets": (candidate.budgets, ("ahyp", "rank", "maxcompact", "dim")),
        "CandidateReport": (candidate, ("derived_parts", "d_interval", "budgets")),
        "StandardFormVerdict": (verdict, ("required_d", "verdict", "max_achievable",
                                          "witnesses", "top_candidates")),
        "RootSystem": (A4, ("label", "blocks", "ambient_dim", "rank", "simple_rows", "den",
                            "cartan", "simple_roots")),
        "FixedCone": (weyl.fixed_cone(A4), ("b_basis", "system")),
    }


INSTANCES = _instances()


@pytest.mark.parametrize("name", sorted(INSTANCES))
def test_every_stored_field_is_read_only(name):
    record, fields = INSTANCES[name]
    assert type(record).__name__ == name
    for field in fields:
        value = getattr(record, field)
        with pytest.raises(AttributeError):
            setattr(record, field, value)
        assert getattr(record, field) is value


def test_root_system_equality_and_hash_ignore_the_cache():
    cached = build_root_system("E", 6)
    fundamental_coweights(cached)
    assert in_root_span(cached, cached.simple_roots[0])
    fresh = build_root_system.__wrapped__("E", 6)
    assert fresh is not cached
    assert "coweights" in cached._cache and "complement" not in cached._cache
    assert not fresh._cache
    assert fresh == cached and hash(fresh) == hash(cached)


def test_subspaces_from_the_same_vectors_are_equal():
    vecs = (vector([1, 0, 0, 0, -1]), vector([1, 1, 0, -1, -1]))
    first, second = Subspace(A4, vecs), Subspace(A4, vecs)
    assert first is not second and first.basis is not second.basis
    assert first == second and hash(first) == hash(second)
    assert (first.dim, first.basis) == (second.dim, second.basis)


def test_subspace_validation_survives_optimize():
    code = (
        "import sys\n"
        "from ckforms.criteria import Subspace\n"
        "from ckforms.errors import DimensionMismatch, NotInSpan\n"
        "from fractions import Fraction\n"
        "from ckforms.rootspace import build_root_system\n"
        "A4 = build_root_system('A', 4)\n"
        "print('optimize', sys.flags.optimize)\n"
        "for bad, error in (([1, 0, 0, -1], DimensionMismatch),\n"
        "                   ([1, 0, 0, 0, 0], NotInSpan)):\n"
        "    try:\n"
        "        Subspace(A4, (tuple(map(Fraction, bad)),))\n"
        "    except error:\n"
        "        print('raised', error.__name__)\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(ckforms.__file__).resolve().parents[1]))
    result = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                            capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines() == [
        "optimize 1", "raised DimensionMismatch", "raised NotInSpan"]
