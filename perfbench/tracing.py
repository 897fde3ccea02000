"""Outside-in tracing of nsnf's layers.

The tracer replaces public functions of the nsnf modules with wrappers for
the duration of a traced pass and restores them afterwards; no library file
changes.  A function imported by name into another module is replaced in
every module that binds it.  Spans (job, name, start, end, parent) stay in
memory and are written out when the run ends; self time is a span's
duration minus the time of the traced calls directly under it.
"""

from __future__ import annotations

import json
import sys
import time
from collections import defaultdict
from pathlib import Path

SPAN, TIMED, COUNT = "span", "timed", "count"

# (module, attribute, kind).  TIMED calls are timed but too frequent to keep
# one span each; COUNT calls are only counted.
TARGETS = (
    ("polymap", "compose", SPAN),
    ("polymap", "left_linear", SPAN),
    ("polymap", "PolyMap.__init__", COUNT),
    ("polymap", "PolyMap.homogeneous_part", COUNT),
    ("polymap", "PolyMap.evaluate", TIMED),
    ("polymap", "class_basis", SPAN),
    ("polymap", "project", SPAN),
    ("polymap", "invert", SPAN),
    ("polymap", "group_inverse", SPAN),
    ("spectrum", "classify_type", COUNT),
    ("spectrum", "spectral_constants", SPAN),
    ("linsolve", "solve", SPAN),
    ("linsolve", "mat_mul", SPAN),
    ("linsolve", "invert", SPAN),
    ("normal_form", "build_taylor", SPAN),
    ("normal_form", "reduce_family", SPAN),
    ("base", "validate_extension", SPAN),
    ("verify", "check_uniqueness", SPAN),
    ("verify", "check_uniqueness_resonance", SPAN),
    ("verify", "pinned_rebuild_matches", SPAN),
    ("verify", "check_centralizer", SPAN),
    ("evaluator", "Evaluator.eval_h", SPAN),
    ("evaluator", "Evaluator.order_of_contact", SPAN),
    ("evaluator", "Evaluator.residual_stats", SPAN),
    ("instance", "load_instance", SPAN),
    ("report", "dump_report", SPAN),
)


def _note_terms(stats, args, result) -> None:
    stats["polymap.homogeneous_part.passed"] += len(args[0].coeffs)
    stats["polymap.homogeneous_part.kept"] += len(result.coeffs)


def _note_iterations(stats, args, result) -> None:
    stats["evaluator.iterations"] += result.iterations


def _note_samples(stats, args, result) -> None:
    stats["evaluator.residual_samples"] += result.samples


# Counters read off a call's arguments and result.
AFTER = {
    "polymap.PolyMap.homogeneous_part": _note_terms,
    "evaluator.Evaluator.eval_h": _note_iterations,
    "evaluator.Evaluator.residual_stats": _note_samples,
}


class Tracer:
    def __init__(self) -> None:
        self.stats: defaultdict[str, float] = defaultdict(float)
        self.spans: list = []
        self.names: list[str] = []
        self.job = -1
        self._stack: list[list] = []
        self._restore: list[tuple[object, str, object]] = []

    # -- wrappers -------------------------------------------------------

    def _wrap(self, name: str, fn, kind: str):
        stats, stack, spans = self.stats, self._stack, self.spans
        clock = time.perf_counter
        after = AFTER.get(name)
        calls = name + ".calls"

        if kind == COUNT:

            def counted(*args, **kwargs):
                stats[calls] += 1
                result = fn(*args, **kwargs)
                if after is not None:
                    after(stats, args, result)
                return result

            return counted

        if name not in self.names:
            self.names.append(name)
        name_id = self.names.index(name)
        incl, own = name + ".s", name + ".self_s"
        keep = kind == SPAN

        def traced(*args, **kwargs):
            parent = stack[-1][0] if stack else -1
            if keep:
                span_id = len(spans)
                spans.append(None)
            else:
                span_id = parent
            frame = [span_id, 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                stats[calls] += 1
                stats[incl] += duration
                stats[own] += duration - frame[1]
                if stack:
                    stack[-1][1] += duration
                if keep:
                    spans[span_id] = (self.job, name_id, start, end, parent)
            if after is not None:
                after(stats, args, result)
            return result

        return traced

    # -- installation ---------------------------------------------------

    def install(self) -> None:
        modules = [m for key, m in sys.modules.items() if key == "nsnf" or key.startswith("nsnf.")]
        for module_name, attr, kind in TARGETS:
            module = sys.modules["nsnf." + module_name]
            name = f"{module_name}.{attr}"
            if "." in attr:
                cls_name, method = attr.split(".")
                owner = getattr(module, cls_name)
                original = owner.__dict__[method]
                self._replace(owner, method, original, self._wrap(name, original, kind))
                continue
            original = getattr(module, attr)
            wrapper = self._wrap(name, original, kind)
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is original:
                        self._replace(m, key, original, wrapper)

    def _replace(self, owner, key: str, original, wrapper) -> None:
        setattr(owner, key, wrapper)
        self._restore.append((owner, key, original))

    def uninstall(self) -> None:
        while self._restore:
            owner, key, original = self._restore.pop()
            setattr(owner, key, original)

    # -- results --------------------------------------------------------

    def take_stats(self) -> dict[str, float]:
        """Counters since the last call; resets them."""
        out = dict(self.stats)
        self.stats.clear()
        return out

    def write_spans(self, path: Path) -> None:
        with open(path, "w") as fh:
            json.dump(
                {
                    "fields": ["job", "name", "start", "end", "parent"],
                    "names": self.names,
                    "spans": self.spans,
                },
                fh,
            )
