"""Spans and work counts for the traced in-process replay.

The tracer wraps ckforms' public functions from outside the package: every
module attribute that is one of the target functions is replaced, so calls
through names other modules imported (`criteria.kernel_basis`,
`cli.build_root_system`, ...) are recorded too.  Each call leaves a span
(name, start, end, parent, command id) in memory; self times are derived
from the spans afterwards.
"""

from __future__ import annotations

import time
from collections import Counter, defaultdict
from contextlib import contextmanager

from ckforms import catalog, cli, criteria, linalg, obstruction, rootspace, weyl

TARGETS = (
    (cli, ("main",)),
    (catalog, ("parse_descriptor", "parse_simple", "attributes", "derived_invariants",
               "ahyp_of", "enumerate_simple_forms", "scan_real_forms", "table1_rows",
               "completeness_mismatches")),
    (rootspace, ("build_root_system", "direct_sum")),
    (weyl, ("enumerate_weyl", "longest_element", "minus_w0", "ahyp_dimension")),
    (criteria, ("subspace_from_text", "necessary_conditions", "cocompact_dimension_check",
                "check_proper_embedded")),
    (linalg, ("rank_of", "kernel_basis", "solve", "invert", "reduced_basis")),
    (obstruction, ("standard_form_verdict", "candidate_combinations",
                   "candidate_simple_parts")),
)
MODULES = (cli, catalog, criteria, linalg, obstruction, rootspace, weyl)
LRU_CACHES = (rootspace.build_root_system, rootspace.direct_sum)

# counts that must repeat exactly for a given command list
EXACT_COUNTS = ("criteria.elements_tested", "weyl.elements_enumerated",
                "rootspace.systems_built", "catalog.forms_scanned", "obstruction.parts",
                "obstruction.combinations")


def clear_caches() -> None:
    """Start the next command cold, as a fresh process would."""
    for cached in LRU_CACHES:
        cached.cache_clear()


class Tracer:
    """Spans of one or more traced passes plus the counts spans cannot give."""

    def __init__(self):
        self.spans: list[list] = []   # [name, start, end, parent index, command id]
        self._stack: list[int] = []
        self.command = -1
        self.counts: Counter = Counter()
        self._ahyp_systems: set[int] = set()
        self._scan_ahyp: dict[int, list[str]] = defaultdict(list)

    # -- recording ---------------------------------------------------------

    def _wrap(self, name, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        observe = getattr(self, "_on_" + name.replace(".", "_"), None)

        def wrapper(*args, **kwargs):
            index = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.command]
            stack.append(index)
            spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if observe is not None:
                observe(args, result, index)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    @contextmanager
    def installed(self):
        """Replace every module-level reference to a target while active."""
        wrappers = {}
        for module, names in TARGETS:
            short = module.__name__.rsplit(".", 1)[-1]
            for n in names:
                fn = getattr(module, n)
                wrappers[id(fn)] = (fn, self._wrap(f"{short}.{n}", fn))
        saved = []
        for module in MODULES:
            for attr, value in list(vars(module).items()):
                if id(value) in wrappers and wrappers[id(value)][0] is value:
                    saved.append((module, attr, value))
                    setattr(module, attr, wrappers[id(value)][1])
        apply = weyl.WeylElement.apply
        weyl.WeylElement.apply = self._wrap("weyl.WeylElement.apply", apply)
        try:
            yield self
        finally:
            weyl.WeylElement.apply = apply
            for module, attr, value in saved:
                setattr(module, attr, value)

    def begin_pass(self) -> int:
        """Reset the counts; returns the index of the pass's first span."""
        self.counts = Counter()
        return len(self.spans)

    def begin_command(self, command_id: int) -> None:
        clear_caches()
        self.command = command_id
        self._ahyp_systems = set()

    def end_command(self) -> None:
        self.counts["rootspace.systems_built"] += sum(c.cache_info().misses
                                                      for c in LRU_CACHES)

    # -- per-function observers (named after the span) ---------------------

    def _on_catalog_enumerate_simple_forms(self, args, result, index):
        self.counts["catalog.forms_scanned"] += len(result)

    _on_catalog_scan_real_forms = _on_catalog_enumerate_simple_forms

    def _on_catalog_ahyp_of(self, args, result, index):
        self.counts["catalog.ahyp_calls"] += 1
        parent = self.spans[index][3]
        if parent >= 0 and self.spans[parent][0] == "obstruction.candidate_simple_parts":
            self._scan_ahyp[parent].append(args[0].name)

    def _on_weyl_ahyp_dimension(self, args, result, index):
        if id(args[0]) not in self._ahyp_systems:
            self._ahyp_systems.add(id(args[0]))
            self.counts["weyl.ahyp_computed"] += 1

    def _on_weyl_enumerate_weyl(self, args, result, index):
        self.counts["weyl.elements_enumerated"] += len(result)

    def _on_criteria_check_proper_embedded(self, args, result, index):
        tested = weyl.weyl_order(args[0]) if result.proper else result.w_index + 1
        self.counts["criteria.elements_tested"] += tested

    def _on_obstruction_candidate_simple_parts(self, args, result, index):
        kept = {s.name for s in result}
        names = self._scan_ahyp.pop(index, [])
        self.counts["obstruction.parts"] += len(result)
        self.counts["obstruction.scan_ahyp_calls"] += len(names)
        self.counts["obstruction.ahyp_wasted"] += sum(1 for n in names if n not in kept)

    def _on_obstruction_candidate_combinations(self, args, result, index):
        self.counts["obstruction.combinations"] += len(result)

    # -- derived metrics ---------------------------------------------------

    def metrics(self, first_span: int = 0) -> dict[str, float]:
        """Per-layer values over spans[first_span:] and the current counts."""
        spans = self.spans[first_span:]
        child = defaultdict(float)
        for name, start, end, parent, _ in spans:
            if parent >= first_span:
                child[parent] += end - start
        self_time = defaultdict(float)
        calls = Counter()
        scan = 0.0   # time in check_proper_embedded outside enumerate_weyl
        for i, (name, start, end, parent, _) in enumerate(spans, first_span):
            self_time[name] += end - start - child[i]
            calls[name] += 1
            if name == "criteria.check_proper_embedded":
                scan += end - start
            elif name == "weyl.enumerate_weyl" and parent >= first_span \
                    and self.spans[parent][0] == "criteria.check_proper_embedded":
                scan -= end - start
        layer = defaultdict(float)
        for name, t in self_time.items():
            layer[name.split(".", 1)[0]] += t
        c = self.counts
        tested, enumerated = c["criteria.elements_tested"], c["weyl.elements_enumerated"]
        return {
            "cli.self_s": self_time["cli.main"],
            "catalog.forms_scanned": c["catalog.forms_scanned"],
            "catalog.ahyp_calls": c["catalog.ahyp_calls"],
            "catalog.self_s": layer["catalog"],
            "rootspace.systems_built": c["rootspace.systems_built"],
            "rootspace.build_s": layer["rootspace"],
            "weyl.ahyp_computed": c["weyl.ahyp_computed"],
            "weyl.w0_s": sum(self_time[f"weyl.{n}"]
                             for n in ("longest_element", "minus_w0", "ahyp_dimension")),
            "weyl.elements_enumerated": enumerated,
            "weyl.enumerate_s": self_time["weyl.enumerate_weyl"],
            "weyl.apply_s": self_time["weyl.WeylElement.apply"],
            # nothing enumerated means nothing was wasted
            "weyl.enumerated_used_ratio": tested / enumerated if enumerated else 1.0,
            "criteria.elements_tested": tested,
            "criteria.self_s": layer["criteria"],
            "criteria.us_per_element": scan / tested * 1e6 if tested else 0.0,
            "linalg.elim_calls": sum(n for k, n in calls.items() if k.startswith("linalg.")),
            "linalg.elim_s": layer["linalg"],
            "obstruction.parts": c["obstruction.parts"],
            "obstruction.combinations": c["obstruction.combinations"],
            "obstruction.ahyp_wasted_share": (c["obstruction.ahyp_wasted"]
                                              / c["obstruction.scan_ahyp_calls"]
                                              if c["obstruction.scan_ahyp_calls"] else 0.0),
            "obstruction.self_s": layer["obstruction"],
        }

    def write(self, path) -> None:
        """All spans as CSV: command, index, parent, name, start, end."""
        with open(path, "w") as f:
            f.write("command,index,parent,name,start,end\n")
            for i, (name, start, end, parent, command) in enumerate(self.spans):
                f.write(f"{command},{i},{parent},{name},{start:.9f},{end:.9f}\n")
