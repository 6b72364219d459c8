"""In-memory spans around the program's public functions.

The program is not edited: `Tracer.install` replaces the public functions
named in `TRACED` by wrappers on their modules (or classes), so calls made
by the benchmark and calls between the program's own functions both pass
through a span.  `uninstall` puts the originals back.  Spans are kept in
memory as (name, start, end, parent, query id, attrs) and written out once,
when the run ends.
"""

from __future__ import annotations

import functools
import json
import time

# (module, owner class or None, attribute) of every traced public function;
# the span name is "<module>.<attribute>"
TRACED = [
    ("solitons", None, "solve_soliton"),
    ("linearized", None, "discrete_spectrum"),
    ("linearized", "SpectralProjector", "apply_complement_H"),
    ("scattering", None, "eigentable_build"),
    ("scattering", None, "wronskian_matrix"),
    ("scattering", None, "resonance_scan"),
    ("propagator", None, "build_plan"),
    ("propagator", "PropagatorPlan", "evolve"),
    ("propagator", None, "verify_decay"),
    ("dynamics", None, "evolve_nls"),
    ("dynamics", None, "modulation_decompose"),
    ("dynamics", None, "modulation_rhs"),
]

LAYERS = ["solitons", "linearized", "scattering", "propagator", "dynamics"]

# evolve time bands: native table quadrature (t < 0.5), spline-transposed
# resampled quadrature (0.5 <= t <= 90), and the fine k grid at its node cap
BANDS = ("short", "mid", "long")


def band_of(t: float) -> str:
    t = abs(t)
    return "short" if t < 0.5 else "mid" if t <= 90.0 else "long"


def _arg(args, kwargs, pos, key):
    return kwargs[key] if key in kwargs else args[pos]


def _attrs(name, args, kwargs, result):
    """Per-call facts the per-layer metrics need, read off the call."""
    if name == "propagator.evolve":
        return {"band": band_of(float(_arg(args, kwargs, 2, "t")))}
    if name == "dynamics.evolve_nls":
        T, dt = float(_arg(args, kwargs, 4, "T")), float(_arg(args, kwargs, 5, "dt"))
        return {"steps": int(round(T / dt))}
    if name == "scattering.eigentable_build":
        return {"modes": int(result.k.size)}
    return None


class Tracer:
    """Span recorder; `active` gates recording without unwrapping."""

    def __init__(self):
        self.spans: list = []     # [name, start, end, parent, qid, attrs]
        self.stack: list = []
        self.qid = -1             # -1 marks set-up
        self.active = False
        self._restore: list = []

    def begin(self, name: str) -> int:
        sid = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, time.perf_counter(), None, parent, self.qid, None])
        self.stack.append(sid)
        return sid

    def end(self, sid: int, attrs=None):
        self.stack.pop()
        self.spans[sid][2] = time.perf_counter()
        self.spans[sid][5] = attrs

    def _wrap(self, name, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            sid = self.begin(name)
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                self.end(sid, _attrs(name, args, kwargs, result) if result is not None else None)
        return traced

    def install(self, modules: dict):
        """Wrap every TRACED function; `modules` maps names to module objects."""
        for mod_name, cls_name, attr in TRACED:
            owner = modules[mod_name]
            if cls_name is not None:
                owner = getattr(owner, cls_name)
            fn = owner.__dict__[attr] if cls_name is not None else getattr(owner, attr)
            self._restore.append((owner, attr, fn))
            setattr(owner, attr, self._wrap(f"{mod_name}.{attr}", fn))

    def uninstall(self):
        for owner, attr, fn in reversed(self._restore):
            setattr(owner, attr, fn)
        self._restore.clear()

    def dump(self, path: str):
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "qid", "attrs"],
                       "spans": self.spans}, fh)


def self_times(spans) -> list:
    """Duration of each span minus the time its direct children cover.

    Calls are single-threaded and properly nested, so the children of one
    span are disjoint and their union is the sum of their durations.
    """
    own = [s[2] - s[1] for s in spans]
    for s in spans:
        if s[3] >= 0:
            own[s[3]] -= s[2] - s[1]
    return own


UNITS = {
    "solitons.solve_soliton.s": "s",
    "solitons.solve_soliton.calls": "count",
    "linearized.discrete_spectrum.s": "s",
    "linearized.apply_complement_H.ms": "ms",
    "scattering.eigentable_build.s": "s",
    "scattering.eigentable_build.modes_per_s": "1/s",
    "scattering.wronskian_matrix.calls": "count",
    "scattering.wronskian_matrix.s": "s",
    "scattering.resonance_scan.s": "s",
    "propagator.build_plan.s": "s",
    "propagator.evolve.short.ms": "ms",
    "propagator.evolve.mid.ms": "ms",
    "propagator.evolve.long.ms": "ms",
    "propagator.evolve.table_mb": "MB",
    "propagator.evolve.gb_per_s": "GB/s",
    "propagator.verify_decay.s": "s",
    "propagator.verify_decay.evolves": "count",
    "dynamics.evolve_nls.s": "s",
    "dynamics.evolve_nls.ms_per_step": "ms",
    "dynamics.modulation_decompose.ms": "ms",
    "dynamics.modulation_rhs.ms": "ms",
    **{f"{layer}.self_s": "s" for layer in LAYERS},
    "trace.overhead_pct": "%",
    "trace.spans": "count",
}


def layer_metrics(spans, table_bytes: int = 0) -> dict:
    """Per-layer metrics from finished spans (every name, zero when unused)."""

    def total(name):
        return sum((s[2] - s[1] for s in spans if s[0] == name), 0.0)

    def calls(name):
        return sum(1 for s in spans if s[0] == name)

    def mean_ms(name, pick=lambda s: True):
        d = [s[2] - s[1] for s in spans if s[0] == name and pick(s)]
        return 1e3 * sum(d) / len(d) if d else 0.0

    def under(sid, ancestor):
        while sid >= 0:
            if spans[sid][0] == ancestor:
                return True
            sid = spans[sid][3]
        return False

    out = {
        "solitons.solve_soliton.s": total("solitons.solve_soliton"),
        "solitons.solve_soliton.calls": calls("solitons.solve_soliton"),
        "linearized.discrete_spectrum.s": total("linearized.discrete_spectrum"),
        "linearized.apply_complement_H.ms": mean_ms("linearized.apply_complement_H"),
    }
    tab_s = total("scattering.eigentable_build")
    modes = sum((s[5] or {}).get("modes", 0) for s in spans
                if s[0] == "scattering.eigentable_build")
    out.update({
        "scattering.eigentable_build.s": tab_s,
        "scattering.eigentable_build.modes_per_s": modes / tab_s if tab_s > 0 else 0.0,
        "scattering.wronskian_matrix.calls": calls("scattering.wronskian_matrix"),
        "scattering.wronskian_matrix.s": total("scattering.wronskian_matrix"),
        "scattering.resonance_scan.s": total("scattering.resonance_scan"),
        "propagator.build_plan.s": total("propagator.build_plan"),
    })
    for band in BANDS:
        out[f"propagator.evolve.{band}.ms"] = mean_ms(
            "propagator.evolve", lambda s, b=band: (s[5] or {}).get("band") == b)
    # each evolve reads the table (e and its mirror) twice per branch:
    # once in `coefficients`, once in `_mode_sum`; computed, not measured
    ev_s = total("propagator.evolve")
    ev_n = calls("propagator.evolve")
    out["propagator.evolve.table_mb"] = table_bytes / 1e6
    out["propagator.evolve.gb_per_s"] = 4.0 * table_bytes * ev_n / ev_s / 1e9 if ev_s > 0 else 0.0
    vd = [i for i, s in enumerate(spans) if s[0] == "propagator.verify_decay"]
    out["propagator.verify_decay.s"] = total("propagator.verify_decay") / len(vd) if vd else 0.0
    out["propagator.verify_decay.evolves"] = sum(
        1 for s in spans if s[0] == "propagator.evolve" and under(s[3], "propagator.verify_decay"))
    nls_s = total("dynamics.evolve_nls")
    steps = sum((s[5] or {}).get("steps", 0) for s in spans if s[0] == "dynamics.evolve_nls")
    out.update({
        "dynamics.evolve_nls.s": nls_s,
        "dynamics.evolve_nls.ms_per_step": 1e3 * nls_s / steps if steps else 0.0,
        "dynamics.modulation_decompose.ms": mean_ms("dynamics.modulation_decompose"),
        "dynamics.modulation_rhs.ms": mean_ms("dynamics.modulation_rhs"),
    })
    own = self_times(spans)
    for layer in LAYERS:
        out[f"{layer}.self_s"] = sum(o for s, o in zip(spans, own)
                                     if s[0].split(".", 1)[0] == layer)
    return out
