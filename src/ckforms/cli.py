"""Command-line front end.

Exit codes: 0 when the computation completed (the verdict itself never
changes the exit code), 2 on usage/parse/input errors, 3 when a Weyl
enumeration cap is exceeded, 4 when a runtime cross-check of a computed
result fails (a fault in the package, not in the input).  `--json` emits a
report conforming to docs/report-schema.json; rationals are serialized as
'p/q' strings.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .errors import (
    DEFAULT_CAP,
    MAX_RESTRICTED_RANK,
    CapExceeded,
    DimensionMismatch,
    InternalInconsistency,
    NotInSpan,
    NotSemisimple,
    ParseError,
    SpaceObstruction,
    UnsupportedSystem,
)

_USAGE_ERRORS = (
    ParseError, NotSemisimple, UnsupportedSystem, DimensionMismatch,
    NotInSpan, SpaceObstruction, OSError,
)


def _fmt_vector(v) -> list[str]:
    return [str(x) for x in v]


def _fmt_matrix(m) -> list[list[str]]:
    return [[str(x) for x in row] for row in m]


def _attr_payload(form) -> dict:
    return {
        "name": form.name,
        "restricted_system": form.restricted_label,
        "real_rank": form.real_rank,
        "ahyp_rank": form.ahyp,
        "dim_g": form.dim_g,
        "dim_k": form.dim_k,
        "dim_p": form.dim_p,
        "rank_maxcompact": form.rank_maxcompact,
    }


def _candidate_payload(c) -> dict:
    return {
        "parts": [p.name for p in c.derived_parts],
        "d_interval": list(c.d_interval),
        "budgets": {
            key: {"used": b.used, "limit": b.limit}
            for key, b in (
                ("ahyp", c.budgets.ahyp),
                ("rank", c.budgets.rank),
                ("maxcompact", c.budgets.maxcompact),
                ("dim", c.budgets.dim),
            )
        },
    }


# ---------------------------------------------------------------------------
# commands: each imports the layers it runs, so a process loads only those

def cmd_info(args) -> dict:
    from . import catalog

    desc = catalog.parse_descriptor(args.algebra)
    parts = [_attr_payload(p) for p in desc.noncompact_parts]
    totals = catalog.derived_invariants(desc)
    details = {
        "descriptor": desc.text,
        "parts": parts,
        "compact_parts": [{"name": p.name, "dim": p.dim, "rank": p.rank}
                          for p in desc.compact_parts],
        "split_center_dim": desc.split_center_dim,
        "compact_center_dim": desc.compact_center_dim,
        "totals": {
            "real_rank": totals.rank_R,
            "ahyp_rank": totals.ahyp,
            "d": totals.d,
            "rank_maxcompact": totals.rank_maxcompact_sum,
        },
    }
    return {
        "command": "info",
        "inputs": {"algebra": args.algebra},
        "verdict": "Info",
        "checks": [],
        "witnesses": [],
        "details": details,
    }


def _render_info(report) -> str:
    d = report["details"]
    lines = [f"descriptor: {d['descriptor'] or '(trivial)'}"]
    for p in d["parts"]:
        lines.append(f"  {p['name']}:")
        lines.append(f"    restricted system : {p['restricted_system']}")
        lines.append(f"    real rank         : {p['real_rank']}")
        lines.append(f"    a-hyperbolic rank : {p['ahyp_rank']}")
        lines.append(f"    dim g / k / p     : {p['dim_g']} / {p['dim_k']} / {p['dim_p']}")
        lines.append(f"    max compact rank  : {p['rank_maxcompact']}")
    for p in d["compact_parts"]:
        lines.append(f"  {p['name']}: compact, dim {p['dim']}, rank {p['rank']}")
    if d["split_center_dim"]:
        lines.append(f"  split center: R^{d['split_center_dim']}")
    if d["compact_center_dim"]:
        lines.append(f"  compact center: u(1)^{d['compact_center_dim']}")
    t = d["totals"]
    lines.append(f"totals: real rank {t['real_rank']}, a-hyperbolic rank {t['ahyp_rank']}, "
                 f"d {t['d']}, max compact rank {t['rank_maxcompact']}")
    return "\n".join(lines)


def cmd_table1(args) -> dict:
    from . import catalog

    if 2 * args.kmax + 1 > MAX_RESTRICTED_RANK:
        raise ParseError(f"kmax {args.kmax} would tabulate restricted rank "
                         f"{2 * args.kmax + 1}, above the limit {MAX_RESTRICTED_RANK}")
    rows = catalog.table1_rows(args.kmax)
    scan_rank = min(2 * args.kmax + 1, 8)
    extras = catalog.completeness_mismatches(scan_rank)
    checks = []
    for row in rows:
        form = row.form
        checks.append({"name": f"{form.name}.ahyp", "lhs": form.ahyp,
                       "rhs": row.expected_ahyp, "passed": form.ahyp == row.expected_ahyp})
        checks.append({"name": f"{form.name}.real_rank", "lhs": form.real_rank,
                       "rhs": row.expected_rank, "passed": form.real_rank == row.expected_rank})
    checks.append({"name": "completeness", "lhs": len(extras), "rhs": 0,
                   "passed": not extras})
    verdict = "Complete" if all(c["passed"] for c in checks) else "ExtraMismatches"
    details = {
        "rows": [{"family": r.family, "k": r.k, "algebra": r.form.name,
                  "ahyp_rank": r.form.ahyp, "real_rank": r.form.real_rank} for r in rows],
        "completeness_scan_max_rank": scan_rank,
        "unexpected": [f.name for f in extras],
    }
    return {
        "command": "table1",
        "inputs": {"kmax": args.kmax},
        "verdict": verdict,
        "checks": checks,
        "witnesses": [],
        "details": details,
    }


def _render_table1(report) -> str:
    d = report["details"]
    lines = ["computed a-hyperbolic rank vs real rank",
             f"{'family':<16} {'k':>3}  {'algebra':<12} {'ahyp':>4} {'rank':>4}"]
    for r in d["rows"]:
        k = "" if r["k"] is None else r["k"]
        lines.append(f"{r['family']:<16} {k!s:>3}  {r['algebra']:<12} "
                     f"{r['ahyp_rank']:>4} {r['real_rank']:>4}")
    if d["unexpected"]:
        lines.append("UNEXPECTED mismatching forms: " + ", ".join(d["unexpected"]))
    else:
        lines.append(f"completeness: no other non-complex form with ahyp != rank "
                     f"(restricted rank <= {d['completeness_scan_max_rank']})")
    lines.append(f"verdict: {report['verdict']}")
    return "\n".join(lines)


def _parse_system(text: str):
    from .rootspace import build_root_system

    try:
        letter, rank = text.split(",")
        rank = int(rank)
    except ValueError as exc:
        raise ParseError(f"bad --system designation {text!r}; expected TYPE,RANK") from exc
    if rank > MAX_RESTRICTED_RANK:
        raise ParseError(f"--system {text!r} has rank {rank}, above the limit "
                         f"{MAX_RESTRICTED_RANK}")
    return build_root_system(letter.strip(), rank)


def _read_subspace(path: str, system):
    from .criteria import subspace_from_text

    try:
        text = Path(path).read_text()
    except UnicodeDecodeError:
        raise ParseError(f"{path}: not a UTF-8 text file") from None
    try:
        return subspace_from_text(text, system)
    except ParseError as exc:
        raise ParseError(f"{path}: {exc}") from None


def cmd_check_proper(args) -> dict:
    from . import criteria

    if args.system:
        if not (args.ah and args.al) or len(args.descriptors) != 0:
            raise ParseError("embedded mode needs --system with --ah and --al and "
                             "no positional descriptors")
        system = _parse_system(args.system)
        a_h = _read_subspace(args.ah, system)
        a_l = _read_subspace(args.al, system)
        result = criteria.check_proper_embedded(system, a_h, a_l, cap=args.cap)
        witnesses = []
        if not result.proper:
            witnesses.append({
                "w_index": result.w_index,
                "word": list(result.element.word),
                "matrix": _fmt_matrix(result.element.matrix),
                "vector": _fmt_vector(result.witness),
            })
        return {
            "command": "check-proper",
            "inputs": {"system": args.system, "ah": args.ah, "al": args.al,
                       "cap": args.cap},
            "verdict": result.verdict,
            "checks": [],
            "witnesses": witnesses,
            "details": {"dim_ah": a_h.dim, "dim_al": a_l.dim,
                        "ambient_dim": system.ambient_dim},
        }
    if len(args.descriptors) != 3:
        raise ParseError("catalog mode needs three descriptors: G H L")
    from . import catalog

    g, h, l = (catalog.parse_descriptor(t) for t in args.descriptors)
    report = criteria.necessary_conditions(g, h, l)
    cocompact = criteria.cocompact_dimension_check(g, h, l)
    return {
        "command": "check-proper",
        "inputs": {"g": args.descriptors[0], "h": args.descriptors[1],
                   "l": args.descriptors[2]},
        "verdict": report.overall,
        "checks": [{"name": c.name, "lhs": c.lhs, "rhs": c.rhs, "passed": c.passed}
                   for c in report.checks],
        "witnesses": [],
        "details": {
            "cocompactness": {
                "d_g": cocompact.d_g, "d_h": cocompact.d_h, "d_l": cocompact.d_l,
                "equal": cocompact.equal, "required_d": cocompact.required_d,
            },
        },
    }


def _render_check_proper(report) -> str:
    lines = []
    if "cocompactness" in report.get("details", {}):
        ins = report["inputs"]
        lines.append(f"necessary conditions for a proper action "
                     f"(g={ins['g']!r}, h={ins['h']!r}, l={ins['l']!r})")
        for c in report["checks"]:
            mark = "pass" if c["passed"] else "FAIL"
            lines.append(f"  {c['name']:<10}: {c['lhs']} <= {c['rhs']} : {mark}")
        lines.append(f"verdict: {report['verdict']}")
        cc = report["details"]["cocompactness"]
        lines.append("cocompactness dimension test (meaningful only for proper actions):")
        lines.append(f"  d(g) = {cc['d_g']}, d(h) = {cc['d_h']}, d(l) = {cc['d_l']}")
        lines.append(f"  required d(l) = {cc['required_d']}; "
                     f"equality holds: {'yes' if cc['equal'] else 'no'}")
    else:
        d = report["details"]
        lines.append(f"system {report['inputs']['system']}: "
                     f"dim a_h = {d['dim_ah']}, dim a_l = {d['dim_al']}")
        lines.append(f"verdict: {report['verdict']}")
        for w in report["witnesses"]:
            word = " ".join(f"s{i}" for i in w["word"]) or "(identity)"
            lines.append(f"  offending element index {w['w_index']}, word {word}")
            for row in w["matrix"]:
                lines.append("    [" + "  ".join(f"{x:>4}" for x in row) + "]")
            lines.append("  witness vector: " + " ".join(w["vector"]))
    return "\n".join(lines)


def cmd_standard_form(args) -> dict:
    from . import catalog, obstruction

    g = catalog.parse_simple(args.g)
    h = catalog.parse_descriptor(args.h)
    verdict = obstruction.standard_form_verdict(g, h)
    hi = catalog.derived_invariants(h)
    checks = [
        {"name": "space_real_rank", "lhs": hi.rank_R, "rhs": g.real_rank,
         "passed": hi.rank_R <= g.real_rank},
        {"name": "space_ahyp_rank", "lhs": hi.ahyp, "rhs": g.ahyp,
         "passed": hi.ahyp <= g.ahyp},
        {"name": "required_d_reachable", "lhs": verdict.required_d,
         "rhs": verdict.max_achievable,
         "passed": verdict.verdict == obstruction.INCONCLUSIVE},
    ]
    return {
        "command": "standard-form",
        "inputs": {"g": args.g, "h": args.h},
        "verdict": verdict.verdict,
        "checks": checks,
        "witnesses": [_candidate_payload(c) for c in verdict.witnesses],
        "details": {
            "required_d": verdict.required_d,
            "max_achievable": verdict.max_achievable,
            "d_g": g.dim_p,
            "d_h": hi.d,
            "top_candidates": [_candidate_payload(c) for c in verdict.top_candidates],
        },
    }


def _render_standard_form(report) -> str:
    d = report["details"]
    ins = report["inputs"]
    lines = [
        f"standard compact quotient test for g={ins['g']!r}, h={ins['h']!r}",
        f"  d(g) = {d['d_g']}, d(h) = {d['d_h']}, required d(l) = {d['required_d']}",
        "  top candidate derived parts (by max achievable d):",
    ]
    for c in d["top_candidates"]:
        parts = " + ".join(c["parts"]) if c["parts"] else "(compact or trivial)"
        lo, hi = c["d_interval"]
        lines.append(f"    d in [{lo:>3}, {hi:>3}]  {parts}")
    lines.append(f"  max achievable d(l) = {d['max_achievable']}")
    if report["witnesses"]:
        names = ["+".join(w["parts"]) or "(trivial)" for w in report["witnesses"]]
        lines.append("  witnesses reaching required d: " + ", ".join(names))
    lines.append(f"verdict: {report['verdict']}")
    return "\n".join(lines)


# ---------------------------------------------------------------------------

_RENDERERS = {
    "info": _render_info,
    "table1": _render_table1,
    "check-proper": _render_check_proper,
    "standard-form": _render_standard_form,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ckforms",
        description="Exact rank and dimension tests for proper actions and "
                    "standard compact quotients of reductive homogeneous spaces.",
    )
    sub = parser.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("info", help="invariants of a reductive algebra descriptor")
    p.add_argument("algebra")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_info)

    p = sub.add_parser("table1", help="regenerate the rank-vs-ahyp table")
    p.add_argument("kmax", type=int)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_table1)

    p = sub.add_parser("check-proper",
                       help="properness tests (catalog descriptors or embedded subspaces)")
    p.add_argument("descriptors", nargs="*",
                   help="catalog mode: G H L descriptor texts")
    p.add_argument("--system", help="embedded mode: root system as TYPE,RANK")
    p.add_argument("--ah", help="embedded mode: subspace file for a_h")
    p.add_argument("--al", help="embedded mode: subspace file for a_l")
    p.add_argument("--cap", type=int, default=DEFAULT_CAP,
                   help=f"Weyl enumeration cap (default {DEFAULT_CAP})")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_check_proper)

    p = sub.add_parser("standard-form",
                       help="obstruction to a standard compact quotient of G/H")
    p.add_argument("g")
    p.add_argument("h")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_standard_form)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    if getattr(args, "kmax", None) is not None and args.kmax < 1:
        print("error: kmax must be >= 1", file=sys.stderr)
        return 2
    if getattr(args, "cap", None) is not None and args.cap < 1:
        print("error: cap must be a positive integer", file=sys.stderr)
        return 2
    try:
        report = args.func(args)
    except CapExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except InternalInconsistency as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 4
    except _USAGE_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.json:
        print(json.dumps(report, indent=2, sort_keys=True))
    else:
        print(_RENDERERS[report["command"]](report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
