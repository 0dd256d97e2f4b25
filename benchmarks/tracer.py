"""Run-time spans around kazhlip's public functions.

``Tracer.install`` replaces each traced function or method with a wrapper
that records a span (name, start, end, parent span, operation id) and
restores the originals on ``uninstall``. Module-level functions are
replaced in every kazhlip module that holds them, because the package
imports names directly (``from .koopman import koopman_distortion``).
Spans live in flat arrays in memory and are written out by ``dump``.

Self time is a span's duration minus the durations of its direct
children; the program is single-threaded, so children never overlap.
"""

from __future__ import annotations

import sys
import time
from array import array

# (span name, module, qualified attribute). "plmap.construct" is
# PLHomeo.__post_init__, which canonicalises every new map.
TRACED = (
    ("plmap.construct", "kazhlip.plmap", "PLHomeo.__post_init__"),
    ("plmap.compose", "kazhlip.plmap", "PLHomeo.compose"),
    ("plmap.invert", "kazhlip.plmap", "PLHomeo.invert"),
    ("plmap.evaluate", "kazhlip.plmap", "PLHomeo.evaluate"),
    ("plmap.slope_at", "kazhlip.plmap", "PLHomeo.slope_at"),
    ("intervals.intersect", "kazhlip.intervals", "IntervalUnion.intersect"),
    ("groupact.global_fixed_set", "kazhlip.groupact", "global_fixed_set"),
    ("groupact.ball", "kazhlip.groupact", "ball"),
    ("groupact.word_evaluate", "kazhlip.groupact", "word_evaluate"),
    ("koopman.koopman_apply", "kazhlip.koopman", "koopman_apply"),
    ("koopman.koopman_distortion", "kazhlip.koopman", "koopman_distortion"),
    ("koopman.subtract", "kazhlip.koopman", "subtract"),
    ("koopman.refine", "kazhlip.koopman", "refine"),
    ("koopman.lp_norm", "kazhlip.koopman", "lp_norm"),
    ("koopman.mazur_map", "kazhlip.koopman", "mazur_map"),
    ("precision.to_real", "kazhlip.precision", "to_real"),
    ("bounds.bound_report", "kazhlip.bounds", "bound_report"),
    ("bounds.estimate_p2", "kazhlip.bounds", "estimate_p2"),
    ("bounds.estimate_lp", "kazhlip.bounds", "estimate_lp"),
    ("bounds.phi_crossover", "kazhlip.bounds", "phi_crossover"),
    ("limits.limit_translation_diagnostic", "kazhlip.limits", "limit_translation_diagnostic"),
    ("figures.phi_branch_table", "kazhlip.figures", "phi_branch_table"),
    ("verify.random_plhomeo", "kazhlip.verify", "random_plhomeo"),
    ("verify.random_step_function", "kazhlip.verify", "random_step_function"),
    ("cli.main", "kazhlip.cli", "main"),
)

# Sizes recorded from a traced call's result, summed per span name.
RESULT_SIZES = {
    "plmap.compose": lambda r: len(r.nodes),
    "koopman.koopman_apply": lambda r: len(r.values),
    "bounds.bound_report": lambda r: len(r.sweep),
    "groupact.ball": len,
}


class Tracer:
    def __init__(self):
        self.names = [name for name, _, _ in TRACED]
        count = len(self.names)
        self.calls = [0] * count
        self.self_s = [0.0] * count
        self.result_size = [0] * count
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_op = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.op_id = -1
        self.ball_composes = 0
        self._stack = []  # [span index, seconds covered by children]
        self._saved = []

    # -- installation ----------------------------------------------------

    def install(self) -> None:
        mods = [m for k, m in sys.modules.items() if k.startswith("kazhlip") and m]
        for nid, (name, modname, attr) in enumerate(TRACED):
            owner = sys.modules[modname]
            *path, leaf = attr.split(".")
            for part in path:
                owner = getattr(owner, part)
            original = getattr(owner, leaf)
            wrapper = self._wrap(nid, original)
            if path:  # a method: patching the class reaches every caller
                self._saved.append((owner, leaf, original))
                setattr(owner, leaf, wrapper)
                continue
            for mod in mods:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._saved.append((mod, key, original))
                        setattr(mod, key, wrapper)

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._saved):
            setattr(owner, key, original)
        self._saved.clear()

    def _wrap(self, nid, fn):
        clock = time.perf_counter
        stack = self._stack
        sizer = RESULT_SIZES.get(self.names[nid])
        is_ball = self.names[nid] == "groupact.ball"
        compose_id = self.names.index("plmap.compose")

        def traced(*args, **kwargs):
            idx = len(self.span_start)
            self.span_name.append(nid)
            self.span_parent.append(stack[-1][0] if stack else -1)
            self.span_op.append(self.op_id)
            self.span_end.append(0.0)
            frame = [idx, 0.0]
            stack.append(frame)
            composes_before = self.calls[compose_id]
            start = clock()
            self.span_start.append(start)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                self.span_end[idx] = end
                self.calls[nid] += 1
                self.self_s[nid] += duration - frame[1]
                if stack:
                    stack[-1][1] += duration
            if sizer is not None:
                self.result_size[nid] += sizer(result)
            if is_ball:
                self.ball_composes += self.calls[compose_id] - composes_before
            return result

        return traced

    def next_op(self) -> None:
        self.op_id += 1

    # -- output ------------------------------------------------------------

    def stat(self, name):
        nid = self.names.index(name)
        return self.calls[nid], self.self_s[nid], self.result_size[nid]

    def dump(self, path) -> None:
        """Write every span as a tab-separated line: op, id, parent, name,
        start, end (seconds on the perf_counter clock)."""
        with open(path, "w") as out:
            out.write("op\tspan\tparent\tname\tstart\tend\n")
            for i in range(len(self.span_start)):
                out.write(
                    f"{self.span_op[i]}\t{i}\t{self.span_parent[i]}\t"
                    f"{self.names[self.span_name[i]]}\t"
                    f"{self.span_start[i]:.9f}\t{self.span_end[i]:.9f}\n"
                )
