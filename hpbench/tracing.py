"""Spans around the calls between hardpair's layers, and the per-layer metrics.

The tracer replaces functions at the module bindings their callers use
(for example `dynamics.closest_approach`, not `geometry.closest_approach`),
so only calls that cross from one layer into another are recorded.  The
program's source is not touched; `uninstall` puts the originals back.

A span is [name, parent index, start, end, failed].  Spans stay in memory
until the run ends.  A span's self time is its duration minus the time its
child spans cover; calls are sequential, so children never overlap.
"""

from __future__ import annotations

import functools
import gzip
import time

# (module, attribute, span name); the kernel entry is named per call.  The
# first three are the workloads' entry points, which the benchmark calls
# through these module attributes.
BINDINGS = (
    ("dynamics", "simulate", "dynamics.simulate"),
    ("kinetic", "invariant_residual_table", "kinetic.invariant_residual_table"),
    ("geometry", "d_beta", "geometry.d_beta"),
    ("_kernel", "ellipse_contact", None),
    ("geometry", "_ellipse_oracle_fallback", "geometry.oracle_fallback"),
    ("dynamics", "closest_approach", "geometry.closest_approach"),
    ("dynamics", "d_beta", "geometry.d_beta"),
    ("frames", "d_beta", "geometry.d_beta"),
    ("dynamics", "build_frame", "frames.build_frame"),
    ("kinetic", "build_frame", "frames.build_frame"),
    ("frames", "complement_basis", "frames.complement_basis"),
    ("scattering", "complement_basis", "frames.complement_basis"),
    ("dynamics", "scattering_matrix", "scattering.scattering_matrix"),
    ("kinetic", "scattering_matrix", "scattering.scattering_matrix"),
)
CONTACT_SPANS = ("geometry.closest_approach", "geometry.d_beta")


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    def wrap(self, name, fn):
        """fn wrapped in a span; name None marks the contact kernel."""
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if name is None:
                warm = args[7] if len(args) > 7 else kwargs.get("use_seed", False)
                label = "kernel.warm" if warm else "kernel.cold"
            else:
                label = name
            span = [label, stack[-1] if stack else -1, 0.0, 0.0, False]
            stack.append(len(spans))
            spans.append(span)
            span[2] = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                span[3] = clock()
                stack.pop()
            if name is None and not out[4]:
                span[4] = True
            return out

        return traced

    def install(self, hp):
        for mod, attr, name in BINDINGS:
            module = getattr(hp, mod)
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self.wrap(name, original))

    def uninstall(self):
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def write(self, path):
        """Spans as gzipped CSV: name, parent, start_us, end_us, failed."""
        t0 = self.spans[0][2] if self.spans else 0.0
        with gzip.open(path, "wt") as fh:
            fh.write("name,parent,start_us,end_us,failed\n")
            for name, parent, start, end, failed in self.spans:
                fh.write(f"{name},{parent},{(start - t0) * 1e6:.3f},"
                         f"{(end - t0) * 1e6:.3f},{int(failed)}\n")


def layer_metrics(spans, events: int, samples: int) -> dict:
    """Per-layer counts and microsecond costs from one traced pass.

    events is the number of collision events the pass resolved and samples
    the number of contacts it sampled for invariants; both come from the
    program's outputs, not from spans.
    """
    n = len(spans)
    child = [0.0] * n
    for name, parent, start, end, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    count: dict[str, int] = {}
    total: dict[str, float] = {}
    own: dict[str, float] = {}
    failed = 0
    gap_evals = 0
    for i, (name, parent, start, end, bad) in enumerate(spans):
        count[name] = count.get(name, 0) + 1
        total[name] = total.get(name, 0.0) + (end - start)
        own[name] = own.get(name, 0.0) + (end - start - child[i])
        failed += bad
        if name == "geometry.closest_approach" and parent >= 0 \
                and spans[parent][0] == "dynamics.simulate":
            gap_evals += 1

    def c(name):
        return count.get(name, 0)

    def per(x, k):
        return x / k if k else 0.0

    cold, warm = c("kernel.cold"), c("kernel.warm")
    contacts = sum(c(s) for s in CONTACT_SPANS)
    geometry_own = sum(own.get(s, 0.0) for s in CONTACT_SPANS + ("geometry.oracle_fallback",))
    return {
        "kernel.solves_cold": (cold, "count"),
        "kernel.solves_warm": (warm, "count"),
        "kernel.solves_failed": (failed, "count"),
        "kernel.us_per_solve_cold": (per(total.get("kernel.cold", 0.0), cold) * 1e6, "us"),
        "kernel.us_per_solve_warm": (per(total.get("kernel.warm", 0.0), warm) * 1e6, "us"),
        "geometry.contacts": (contacts, "count"),
        "geometry.solves_per_contact": (per(cold + warm, contacts), "ratio"),
        "geometry.oracle_fallbacks": (c("geometry.oracle_fallback"), "count"),
        "geometry.us_per_contact": (per(geometry_own, contacts) * 1e6, "us"),
        "frames.frames": (c("frames.build_frame"), "count"),
        "frames.complements": (c("frames.complement_basis"), "count"),
        "frames.us_per_frame": (
            per(own.get("frames.build_frame", 0.0), c("frames.build_frame")) * 1e6, "us"),
        "frames.us_per_complement": (
            per(total.get("frames.complement_basis", 0.0), c("frames.complement_basis")) * 1e6,
            "us"),
        "scattering.matrices": (c("scattering.scattering_matrix"), "count"),
        "scattering.us_per_matrix": (
            per(own.get("scattering.scattering_matrix", 0.0),
                c("scattering.scattering_matrix")) * 1e6, "us"),
        "dynamics.events": (events, "count"),
        "dynamics.gap_evals": (gap_evals, "count"),
        "dynamics.gap_evals_per_event": (per(gap_evals, events), "ratio"),
        "dynamics.pose_solves_per_event": (per(contacts, events), "ratio"),
        "dynamics.us_per_event": (per(own.get("dynamics.simulate", 0.0), events) * 1e6, "us"),
        "kinetic.us_per_sample": (
            per(own.get("kinetic.invariant_residual_table", 0.0), samples) * 1e6, "us"),
    }
