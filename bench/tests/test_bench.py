"""Tests of the benchmark itself: percentile rule, metric names, checks.

Run with `python3 -m pytest -q bench/tests` from the repository root.
"""

import json
import math
import os
import re
import sys
from types import SimpleNamespace

import numpy as np
import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [os.path.join(ROOT, "src"), BENCH]

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from nlslab.grids import PolynomialNonlinearity, PotentialSpec, make_grid  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


# -- percentile rule ----------------------------------------------------------

@pytest.mark.parametrize("n", [1, 2, 20, 39])
def test_median_alone_below_forty_samples(n):
    assert run.tail_percentile(n) == 50
    lat = run.latency_summary(np.linspace(0.001, 1.0, n))
    assert lat["tail_ms"] == lat["p50_ms"]


def test_tail_percentile_known_values():
    assert [run.tail_percentile(n) for n in (40, 41, 100, 101, 150, 1000)] == [75, 75, 90, 90, 93, 99]


@pytest.mark.parametrize("n", range(40, 400, 7))
def test_tail_is_highest_percentile_with_ten_beyond(n):
    def beyond(p):
        return n - math.ceil(p * n / 100)
    p = run.tail_percentile(n)
    assert beyond(p) >= 10
    assert beyond(p + 1) < 10
    lat = run.latency_summary([float(i) for i in range(n)])
    assert sum(1 for i in range(n) if 1e3 * i > lat["tail_ms"]) >= 10


# -- metric names and BENCHMARK.json ------------------------------------------

def _spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def test_benchmark_json_shape():
    spec = _spec()
    assert set(spec) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert spec["paths"] == ["bench"]
    assert spec["command"] == ["python3", "bench/run.py"]
    assert isinstance(spec["run_seconds"], int) and 1 <= spec["run_seconds"] <= 60
    for w in spec["workloads"]:
        assert set(w) == {"name", "why"} and len(w["why"]) <= 200 and "\n" not in w["why"]
    for m in spec["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"} and 0 < m["bound"] <= 0.25
    for m in spec["per_layer"]:
        assert set(m) == {"name", "unit", "better"}
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])


def test_metric_names_valid_and_match_the_code():
    spec = _spec()
    names = [m["name"] for group in ("workloads", "end_to_end", "per_layer") for m in spec[group]]
    assert all(NAME.match(n) for n in names)
    assert len(names) == len(set(names))
    assert all(UNIT.match(m["unit"]) for g in ("end_to_end", "per_layer") for m in spec[g])
    assert all(m["better"] in ("lower", "higher") for g in ("end_to_end", "per_layer") for m in spec[g])
    assert {w["name"] for w in spec["workloads"]} == set(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == tracing.UNITS


def test_layer_metrics_cover_every_unit_and_nothing_else():
    tr = tracing.Tracer()
    tr.active = True
    sid = tr.begin("propagator.verify_decay")
    tr.end(tr.begin("propagator.evolve"), {"band": "mid"})
    tr.end(sid)
    values = tracing.layer_metrics(tr.spans, table_bytes=10**6)
    assert set(values) | {"trace.overhead_pct", "trace.spans"} == set(tracing.UNITS)
    assert values["propagator.verify_decay.evolves"] == 1
    assert values["propagator.evolve.mid.ms"] > 0 and values["propagator.evolve.short.ms"] == 0


def test_self_time_subtracts_children():
    spans = [["a.f", 0.0, 10.0, -1, 0, None], ["b.g", 1.0, 4.0, 0, 0, None],
             ["b.g", 5.0, 6.0, 0, 0, None], ["c.h", 2.0, 3.0, 1, 0, None]]
    assert tracing.self_times(spans) == [6.0, 2.0, 1.0, 1.0]


# -- each workload's checks reject a corrupted result ---------------------------

class FreePlan:
    """Exact periodic free flow: a linear group, so the group law holds."""

    def __init__(self, grid):
        self.k2 = grid.wavenumbers ** 2

    def evolve(self, f, t):
        return np.fft.ifft(np.exp(-1j * t * self.k2) * np.fft.fft(f, axis=1), axis=1)


def test_plan_serve_group_law_rejects_perturbed_output():
    g = make_grid(40.0, 512)
    plan = FreePlan(g)
    rng = np.random.default_rng(3)
    queries = []
    for band, t in (("short", 0.3), ("mid", 20.0), ("long", 120.0)):
        h = workloads.band_limited_probe(g, rng, 2.0)
        queries.append(({"band": band, "t": t}, h, plan.evolve(h, t)))
    assert workloads.PlanServe.group_law_gap(plan, g, queries) < 1e-12
    op, h, u = queries[1]
    queries[1] = (op, h, u * (1.0 + 1e-3))
    assert workloads.PlanServe.group_law_gap(plan, g, queries) > 1e-4


def _decay_report(est, exponent, fitted=None):
    times = np.geomspace(30.0, 150.0, 9) if est in ("E1", "E2") else np.geomspace(1.0, 60.0, 9)
    x = np.log(1.0 + times) if est != "E4" else np.log(times)
    return SimpleNamespace(estimate_id=est, times=times, norms=0.7 * np.exp(exponent * x),
                           fitted_exponent=exponent if fitted is None else fitted)


def _passes(rows):
    return all(ok for _n, ok, _v in workloads.verdicts(rows))


def test_plan_serve_decay_checks_reject_slow_or_misreported_fits():
    good = [_decay_report("E1", -1.5), _decay_report("E2", -1.5),
            _decay_report("E3", -0.55), _decay_report("E4", -0.5)]
    assert _passes(workloads.PlanServe.decay_rows(good))
    assert not _passes(workloads.PlanServe.decay_rows(good + [_decay_report("E1", -1.2)]))
    assert not _passes(workloads.PlanServe.decay_rows(good + [_decay_report("E4", -0.5, -0.6)]))


def _verdict_record():
    """A verdict record that passes, with the slope set to its reference."""
    g = make_grid(20.0, 512)
    V = PotentialSpec("quad_gauss", 0.5, {"amp": 0.5, "offset": 1.0})
    f = PolynomialNonlinearity((1.0,))
    phi = np.sqrt(2.0) / np.cosh(g.nodes)
    s = phi ** 2
    v3 = 2.0 * V(g.nodes) - 2.0 * f.f(s) - 2.0 * f.fprime(s) * s
    spec = SimpleNamespace(zero_cluster_size=2, extra_interior=np.array([]),
                           embedded_candidates=np.array([]), odd_residual=1e-12)
    return {"V": V, "f": f, "prof": SimpleNamespace(grid=g, phi=phi, residual_sup=1e-12),
            "assumptions": True, "spec": spec, "condition": 1.5, "rank": 4,
            "rt": {"resonant": False, "margin": 4.0},
            "slope": -0.5 * workloads.simpson(v3, x=g.nodes)}


def _sweep_ok(rec):
    return all(ok for _n, ok, _v in workloads.ModelSweep(0).check([rec]))


def test_model_sweep_checks_reject_corrupted_verdicts():
    rec = _verdict_record()
    assert _sweep_ok(rec)
    for key, bad in (("slope", rec["slope"] * 1.1), ("condition", 1e9), ("assumptions", False),
                     ("rt", {"resonant": True, "margin": 1e-7})):
        assert not _sweep_ok({**rec, key: bad})
    extra = SimpleNamespace(**{**vars(rec["spec"]), "extra_interior": np.array([0.3j])})
    assert not _sweep_ok({**rec, "spec": extra})
    noisy = SimpleNamespace(**{**vars(rec["prof"]), "residual_sup": 1e-6})
    assert not _sweep_ok({**rec, "prof": noisy})


@pytest.fixture(scope="module")
def small_stability():
    """A short stability run on a small grid, with its untouched checks."""
    wl = workloads.Stability(7)
    wl.T = 0.2
    wl.SAMPLE_DT = 0.1
    cfg = wl.cfg
    wl.grid = make_grid(40.0, 1024)
    wl.V, wl.f, wl.lam0 = cfg.potential(), cfg.nonlinearity(True), cfg.lam
    wl.admissible = (wl.lam0 - 0.2, wl.lam0 + 0.2)
    wl.new_pass()
    _units, _sample, rec = wl.run(wl.round(0)[0])
    return wl, rec


def test_stability_checks_pass_on_a_genuine_run(small_stability):
    wl, rec = small_stability
    assert all(ok for _n, ok, _v in wl.check([rec]))


@pytest.mark.parametrize("field,change", [
    ("lam", lambda a: a + 1e-4),
    ("gamma", lambda a: a + 1e-2),
    ("mass_drift", lambda a: a + 1e-8),
    ("ortho_residuals", lambda a: a + 1e-6),
])
def test_stability_checks_reject_corrupted_report(small_stability, field, change):
    wl, (op, rep) = small_stability
    bad = SimpleNamespace(**{**vars(rep), field: change(np.array(getattr(rep, field)))})
    assert not all(ok for _n, ok, _v in wl.check([(op, bad)]))
