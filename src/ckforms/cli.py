"""Command-line front end.

Exit codes: 0 when the computation completed (the verdict itself never
changes the exit code), 2 on usage/parse/input errors, 3 when a Weyl
enumeration cap is exceeded, 4 when a runtime cross-check of a computed
result fails (a fault in the package, not in the input).  `--json` emits a
report conforming to docs/report-schema.json; rationals are serialized as
'p/q' strings.
"""

import re
import sys
from types import SimpleNamespace

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


def _report(command, inputs, verdict, details, checks=(), witnesses=()) -> dict:
    """The top level of a report (docs/report-schema.json)."""
    return {"command": command, "inputs": inputs, "verdict": verdict,
            "checks": list(checks), "witnesses": list(witnesses), "details": details}


def _check(name, lhs, rhs, passed) -> dict:
    return {"name": name, "lhs": lhs, "rhs": rhs, "passed": passed}


def _candidate_payload(c) -> dict:
    return {
        "parts": [p.name for p in c.derived_parts],
        "d_interval": list(c.d_interval),
        "budgets": {key: b._asdict() for key, b in c.budgets._asdict().items()},
    }


_ESCAPES = {'"': '\\"', "\\": "\\\\", "\b": "\\b", "\f": "\\f", "\n": "\\n", "\r": "\\r",
            "\t": "\\t"}


def _escape(c: str) -> str:
    """A character as json's ensure_ascii writes it; above U+FFFF a
    surrogate pair, by arithmetic, so a lone surrogate passes as itself."""
    n = ord(c)
    if n > 0xFFFF:
        return _escape(chr(0xD800 | (n - 0x10000) >> 10)) + _escape(chr(0xDC00 | n & 0x3FF))
    return _ESCAPES.get(c, c if " " <= c <= "~" else f"\\u{n:04x}")


def _string(s: str) -> str:
    """s as ensure_ascii writes it; the unbound str.isascii raises TypeError on a non-str key."""
    if not (str.isascii(s) and s.isprintable()) or '"' in s or "\\" in s:
        s = "".join(map(_escape, s))
    return f'"{s}"'


def _to_json(value, indent="\n") -> str:
    """The bytes of json.dumps(value, indent=2, sort_keys=True), without
    loading `json`, for what a report holds: dicts with str keys, lists,
    tuples, str, int, bool and None.  Anything else, such as a float or a
    Fraction, raises TypeError."""
    if isinstance(value, str):
        return _string(value)
    if value is None or value is True or value is False:    # bool before int
        return "null" if value is None else "true" if value else "false"
    if isinstance(value, int):
        return int.__repr__(value)
    inner = indent + "  "
    if isinstance(value, dict):
        items, ends = [f"{_string(k)}: {_to_json(value[k], inner)}" for k in sorted(value)], "{}"
    elif isinstance(value, (list, tuple)):
        items, ends = [_to_json(v, inner) for v in value], "[]"
    else:
        raise TypeError(f"{type(value).__name__} {value!r} cannot be in a report")
    if not items:
        return ends
    return ends[0] + inner + ("," + inner).join(items) + indent + ends[1]


# ---------------------------------------------------------------------------
# commands: each imports the layers it runs, so a process loads only those

def cmd_info(args) -> dict:
    from . import catalog

    desc = catalog.parse_descriptor(args.algebra)
    totals = catalog.derived_invariants(desc)
    details = {
        "descriptor": desc.text,
        "parts": [{
            "name": p.name,
            "restricted_system": p.restricted_label,
            "real_rank": p.real_rank,
            "ahyp_rank": p.ahyp,
            "dim_g": p.dim_g,
            "dim_k": p.dim_k,
            "dim_p": p.dim_p,
            "rank_maxcompact": p.rank_maxcompact,
        } for p in desc.noncompact_parts],
        "compact_parts": [p._asdict() for p in desc.compact_parts],
        "split_center_dim": desc.split_center_dim,
        "compact_center_dim": desc.compact_center_dim,
        "totals": {
            "real_rank": totals.rank_R,
            "ahyp_rank": totals.ahyp,
            "d": totals.d,
            "rank_maxcompact": totals.rank_maxcompact_sum,
        },
    }
    return _report("info", {"algebra": args.algebra}, "Info", details)


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

    if args.kmax < 1:
        raise ParseError("kmax must be >= 1")
    if 2 * args.kmax + 1 > MAX_RESTRICTED_RANK:
        raise ParseError(f"kmax {args.kmax} would tabulate restricted rank "
                         f"{2 * args.kmax + 1}, above the limit {MAX_RESTRICTED_RANK}")
    rows = catalog.table1_rows(args.kmax)
    scan_rank = min(2 * args.kmax + 1, 8)
    extras = catalog.completeness_mismatches(scan_rank)
    checks = []
    for row in rows:
        form = row.form
        checks.append(_check(f"{form.name}.ahyp", form.ahyp, row.expected_ahyp,
                             form.ahyp == row.expected_ahyp))
        checks.append(_check(f"{form.name}.real_rank", form.real_rank, row.expected_rank,
                             form.real_rank == row.expected_rank))
    checks.append(_check("completeness", len(extras), 0, not extras))
    verdict = "Complete" if all(c["passed"] for c in checks) else "ExtraMismatches"
    details = {
        "rows": [{"family": r.family, "k": r.k, "algebra": r.form.name,
                  "ahyp_rank": r.form.ahyp, "real_rank": r.form.real_rank} for r in rows],
        "completeness_scan_max_rank": scan_rank,
        "unexpected": [f.name for f in extras],
    }
    return _report("table1", {"kmax": args.kmax}, verdict, details, checks)


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
        with open(path) as f:
            text = f.read()
    except UnicodeDecodeError:
        raise ParseError(f"{path}: not a UTF-8 text file") from None
    try:
        return subspace_from_text(text, system)
    except ParseError as exc:
        raise ParseError(f"{path}: {exc}") from None


def cmd_check_proper(args) -> dict:
    if args.cap is not None and args.cap < 1:
        raise ParseError("cap must be a positive integer")
    if args.system is not None:
        from . import criteria

        if not (args.ah and args.al) or len(args.descriptors) != 0:
            raise ParseError("embedded mode needs --system with --ah and --al and "
                             "no positional descriptors")
        system = _parse_system(args.system)
        a_h = _read_subspace(args.ah, system)
        a_l = _read_subspace(args.al, system)
        cap = DEFAULT_CAP if args.cap is None else args.cap
        result = criteria.check_proper_embedded(system, a_h, a_l, cap=cap)
        witnesses = []
        if not result.proper:
            witnesses.append({
                "w_index": result.w_index,
                "word": list(result.element.word),
                "matrix": [[str(x) for x in row] for row in result.element.matrix],
                "vector": [str(x) for x in result.witness],
            })
        inputs = {"system": args.system, "ah": args.ah, "al": args.al, "cap": cap}
        details = {"dim_ah": a_h.dim, "dim_al": a_l.dim, "ambient_dim": system.ambient_dim}
        return _report("check-proper", inputs, result.verdict, details, witnesses=witnesses)
    if (args.ah, args.al, args.cap) != (None, None, None):
        raise ParseError("--ah, --al and --cap need --system (embedded mode)")
    if len(args.descriptors) != 3:
        raise ParseError("catalog mode needs three descriptors: G H L")
    from . import catalog

    g, h, l = (catalog.parse_descriptor(t) for t in args.descriptors)
    report = catalog.necessary_conditions(g, h, l)
    cocompact = catalog.cocompact_dimension_check(g, h, l)
    return _report("check-proper", dict(zip("ghl", args.descriptors)), report.overall,
                   {"cocompactness": cocompact._asdict()},
                   [c._asdict() for c in report.checks])


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
        _check("space_real_rank", hi.rank_R, g.real_rank, hi.rank_R <= g.real_rank),
        _check("space_ahyp_rank", hi.ahyp, g.ahyp, hi.ahyp <= g.ahyp),
        _check("required_d_reachable", verdict.required_d, verdict.max_achievable,
               verdict.verdict == obstruction.INCONCLUSIVE),
    ]
    details = {
        "required_d": verdict.required_d,
        "max_achievable": verdict.max_achievable,
        "d_g": g.dim_p,
        "d_h": hi.d,
        "top_candidates": [_candidate_payload(c) for c in verdict.top_candidates],
    }
    return _report("standard-form", {"g": args.g, "h": args.h}, verdict.verdict, details,
                   checks, [_candidate_payload(c) for c in verdict.witnesses])


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
# the command line, read by the rules of argparse (tests/helpers.py keeps an
# argparse parser as the oracle): long options match by unique prefix and
# take `--opt=value`; `--` ends the options; `-`, negative numbers and
# tokens with a space are values

SYNOPSIS = """\
ckforms info ALGEBRA [--json]
ckforms table1 KMAX [--json]
ckforms check-proper G H L [--json]
ckforms check-proper --system TYPE,RANK --ah FILE --al FILE [--cap N] [--json]
ckforms standard-form G H [--json]"""

# each command: its handler and renderer, its positionals (None: any number,
# as `descriptors`) and its options that take a value; --json works everywhere
_COMMANDS = {
    "info": (cmd_info, _render_info, ("algebra",), ()),
    "table1": (cmd_table1, _render_table1, ("kmax",), ()),
    "check-proper": (cmd_check_proper, _render_check_proper, None,
                     ("--system", "--ah", "--al", "--cap")),
    "standard-form": (cmd_standard_form, _render_standard_form, ("g", "h"), ()),
}
_HELP = ("-h", "--help")


class _Help(Exception):
    """-h or --help: print the synopsis and exit 0."""


class _UsageError(Exception):
    """A command line outside the synopsis: exit 2."""


def _option(token: str, options):
    """(option, its `=` value or None) for a token naming one of the
    options, (None, token) for an unknown option, None for a value."""
    if not token.startswith("-") or token == "-":
        return None
    name, eq, value = token.partition("=")
    if eq and name in options:
        return name, value
    if token[1] == "-":
        matches, value = [o for o in options if o.startswith(name)], value if eq else None
    else:   # a short option carries its value: -hh is -h -h
        matches, value = [o for o in options if o == token[:2]], token[2:] or None
    if len(matches) > 1:
        raise _UsageError(f"ambiguous option: {name} could match {', '.join(matches)}")
    if matches:
        return matches[0], value
    if re.match(r"-\d+$|-\d*\.\d+$", token) or " " in token:
        return None
    return None, token


def _flag(name, value) -> None:
    """Act on an option that takes no value (a -h may carry more h's: -hh
    is -h -h), or on an unknown option."""
    if name is None:
        raise _UsageError(f"unrecognized option {value}")
    if value is not None and (name != "-h" or value.strip("h") or not value):
        raise _UsageError(f"{name} takes no value")
    if name in _HELP:
        raise _Help


def _integer(name: str, text: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise _UsageError(f"{name} must be an integer, not {text!r}") from None


def parse_args(argv) -> SimpleNamespace:
    """The handler (`func`) and values of a command line; raises _Help for
    -h or --help and _UsageError for anything outside the synopsis."""
    if argv and argv[0] != "--" and (opt := _option(argv[0], _HELP)):
        _flag(*opt)     # before the command only -h and --help, which raise
    if not argv or argv[0] not in _COMMANDS:
        raise _UsageError(f"unknown command {argv[0]!r}" if argv else "no command given")
    func, _, positionals, valued = _COMMANDS[argv[0]]
    values = {"func": func, "json": False}
    if positionals is None:
        values.update(system=None, ah=None, al=None, cap=None)
    rest = argv[1:]
    end = rest.index("--") if "--" in rest else len(rest)   # no options after --
    options = (*_HELP, "--json", *valued)
    # the values between two options form a run; the positionals read the
    # runs in order, the descriptors exactly one, and -- must share its run
    # with a value
    runs, sep_run = [[]], None
    tokens = iter(enumerate(rest))
    for k, token in tokens:
        opt = _option(token, options) if k < end else None
        if opt is None:
            if k == end:
                sep_run = runs[-1]
            else:
                runs[-1].append(token)
            continue
        runs.append([])
        name, value = opt
        if name not in valued:
            _flag(name, value)
            values["json"] = True
            continue
        if value is None:
            if k + 1 == end or _option(rest[k + 1], options):
                raise _UsageError(f"{name} expects a value")
            value = next(tokens)[1]
        values[name[2:]] = _integer(name, value) if name == "--cap" else value

    found = [t for run in runs for t in run]
    if positionals is None:
        if len([run for run in runs if run or run is sep_run]) > 1:
            raise _UsageError("the descriptors must be one consecutive run")
        values["descriptors"] = found
    elif len(found) != len(positionals):
        raise _UsageError(f"{argv[0]} takes {' '.join(positionals).upper()}, "
                          f"got {len(found)} values")
    elif sep_run == []:
        raise _UsageError("unrecognized argument --")
    for dest, token in zip(positionals or (), found):
        values[dest] = _integer("KMAX", token) if dest == "kmax" else token
    return SimpleNamespace(**values)


def main(argv=None) -> int:
    try:
        args = parse_args(sys.argv[1:] if argv is None else argv)
    except _Help:
        print(SYNOPSIS)
        return 0
    except _UsageError as exc:
        print(f"{SYNOPSIS}\nckforms: error: {exc}", file=sys.stderr)
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
    print(_to_json(report) if args.json else _COMMANDS[report["command"]][1](report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
