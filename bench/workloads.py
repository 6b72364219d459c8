"""The three workloads: inputs made from the seed, operations, output checks.

Every workload calls the program through module attributes
(`propagator.build_plan(...)`, not a name imported from it), so the
wrappers of a traced run see the benchmark's calls and the program's
internal ones alike.  The inputs of round r come from
`np.random.default_rng([seed, r])` and from nothing else.

Each workload provides
  setup()        build what the operations share (timed as set-up),
  new_pass()     drop per-pass state before the operations run,
  round(r)       the operations of round r, inputs already generated,
  run(op)        one operation -> (work units, latency sample?, record),
  check(recs)    [(name, ok, detail)] over the records of one pass.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.integrate import simpson

from nlslab import dynamics, grids, linearized, propagator, scattering, solitons
from nlslab.config import load_config

MODULES = {"solitons": solitons, "linearized": linearized, "scattering": scattering,
           "propagator": propagator, "dynamics": dynamics}


def _rel(grid, a, b) -> float:
    return propagator.pair_norm(grid, a - b) / max(propagator.pair_norm(grid, b), 1e-300)


def verdicts(rows) -> list:
    """[(name, value, "<" or ">", bound)] -> [(name, passed, value)]."""
    return [(name, bool(value < bound if sense == "<" else value > bound), float(value))
            for name, value, sense, bound in rows]


def _stratified(rng, lo: float, hi: float, n: int) -> np.ndarray:
    """One uniform draw in each of n equal slices of [lo, hi)."""
    return lo + (hi - lo) * (np.arange(n) + rng.uniform(size=n)) / n


def band_limited_probe(grid, rng, width: float, kcut: float = 1.5) -> np.ndarray:
    """Gaussian-windowed random pair, low-passed at kcut (as the CLI's probes)."""
    env = np.exp(-((grid.nodes / width) ** 2))
    raw = (rng.standard_normal((2, 1)) + 1j * rng.standard_normal((2, 1))) * env
    lowpass = np.exp(-((grid.wavenumbers / kcut) ** 8))
    return np.fft.ifft(np.fft.fft(raw, axis=1) * lowpass, axis=1)


class Workload:
    """Defaults shared by the workloads."""

    name = ""
    setup_repeats = 1

    def __init__(self, seed: int):
        self.seed = seed
        self.cfg = load_config()

    def new_pass(self):
        pass

    def table_bytes(self) -> int:
        """Bytes of mode table an evolve reads (0 without a plan)."""
        return 0


class PlanServe(Workload):
    """Propagation queries served from one cold-built propagator plan."""

    name = "plan_serve"
    L, N, COARSE, K_MAX = 30.0, 1024, 512, 8.0
    # queries per round by time band, then one decay report
    MIX = (("short", 18, 0.0, 0.5), ("mid", 30, 0.5, 90.0), ("long", 12, 90.0, 150.0))
    QUERY_WIDTHS = (1.5, 3.5)
    DECAY_WIDTHS = (2.0, 3.0)
    ORACLE = {"L": 90.0, "N": 3072, "dt": 5e-4}
    GROUP_S = 0.05
    # fitted exponent bound: theorem exponent plus the program's fit tolerance
    DECAY_BOUND = {"E1": -1.35, "E2": -1.35, "E3": -0.4, "E4": -0.4}

    def setup(self):
        cfg = self.cfg
        g = grids.make_grid(self.L, self.N)
        prof = solitons.solve_dlambda(
            solitons.solve_soliton(cfg.lam, cfg.potential(), cfg.nonlinearity(), g))
        sys_ = linearized.assemble_L(prof)
        pd = linearized.build_projector(
            linearized.discrete_spectrum(sys_, coarse_points=self.COARSE))
        table = scattering.eigentable_build(sys_, scattering.default_k_grid(self.K_MAX))
        self.plan = propagator.build_plan(sys_, table, pd)
        self.grid = g

    def table_bytes(self) -> int:
        return 2 * self.plan.table.e.nbytes   # the rows and their mirror copy

    def round(self, r: int) -> list:
        # times and widths are stratified within each band, so every round
        # covers its bands evenly and rounds of different seeds cost alike
        rng = np.random.default_rng([self.seed, r])
        queries = []
        for band, n, lo, hi in self.MIX:
            for t, width in zip(_stratified(rng, lo, hi, n),
                                rng.permutation(_stratified(rng, *self.QUERY_WIDTHS, n))):
                queries.append({"kind": "query", "band": band, "t": float(t),
                                "probe": band_limited_probe(self.grid, rng, width)})
        ops = [queries[j] for j in rng.permutation(len(queries))]
        ops.append({"kind": "decay",
                    "probes": [band_limited_probe(self.grid, rng, w) for w in self.DECAY_WIDTHS]})
        return ops

    def run(self, op):
        plan = self.plan
        pd = plan.projector
        if op["kind"] == "query":
            h = pd.apply_complement_H(op["probe"])
            u = plan.evolve(h, op["t"])
            return 1, True, (op, h, u)
        # a decay report, exactly as the CLI propagate stage makes it
        reports = [propagator.verify_decay(plan, [pd.apply_complement_H(p) for p in op["probes"]], est)
                   for est in ("E1", "E2", "E3", "E4")]
        return sum(rep.times.size * len(op["probes"]) for rep in reports), False, (op, reports)

    def check(self, records) -> list:
        plan, g = self.plan, self.grid
        tab = plan.table
        pos = tab.k > 0
        out = [
            ("table_unitarity", np.max(tab.unitarity_defect()[pos]), "<", 1e-6),
            ("table_orthogonality", np.max(tab.orthogonality_defect()[pos]), "<", 1e-6),
            ("table_wronskian_spread", np.max(tab.wronskian_spread), "<", 1e-7),
            ("table_threshold_mode", np.max(np.abs(tab.e[tab.k == 0.0]), initial=0.0), "<", 1e-8),
        ]
        queries = [rec for rec in records if rec[0]["kind"] == "query"]
        out.append(("query_outputs_finite",
                    sum(not np.all(np.isfinite(u)) for _op, _h, u in queries), "<", 0.5))
        # t = 0: the two branches of the mode quadrature sum to 1 - P_d
        raw = [op["probe"] for op, _h, _u in queries[:2]]
        out.append(("t0_identity", max(
            _rel(g, plan.p_ess_spectral(f), plan.projector.apply_complement_H(f)) for f in raw), "<", 1e-4))
        out.append(("group_law", self.group_law_gap(plan, g, queries), "<", 1e-4))
        # short time: Crank-Nicolson on the enlarged box, embedded at the centre
        op, h, u = next(q for q in queries if q[0]["band"] == "short")
        gb = grids.make_grid(self.ORACLE["L"], self.ORACLE["N"])
        cfg = self.cfg
        sys_b = linearized.assemble_L(solitons.solve_dlambda(
            solitons.solve_soliton(cfg.lam, cfg.potential(), cfg.nonlinearity(), gb)))
        off = int(round((gb.L - g.L) / gb.dx))
        hb = np.zeros((2, gb.N), dtype=complex)
        hb[:, off:off + g.N] = h
        ub = propagator.evolve_direct(sys_b, hb, op["t"], dt=self.ORACLE["dt"])[:, off:off + g.N]
        dev = (propagator.weighted_pair_norm(g, u - ub, 4.0)
               / max(propagator.weighted_pair_norm(g, ub, 4.0), 1e-300))
        out.append(("oracle_short_time", dev, "<", 1e-3))
        out += self.decay_rows([rep for rec in records if rec[0]["kind"] == "decay"
                                for rep in rec[1]])
        return verdicts(out)

    @classmethod
    def group_law_gap(cls, plan, grid, queries) -> float:
        """Worst |U(t - s) U(s) h - u| / |u| over the first query of each band.

        The small step s comes first: at late t, U(t) h has left the grid
        window, so U(s) u would start from a truncated wave.
        """
        firsts = {}
        for op, h, u in queries:
            firsts.setdefault(op["band"], (op, h, u))
        gaps = []
        for op, h, u in firsts.values():
            s = min(cls.GROUP_S, 0.5 * op["t"])
            gaps.append(_rel(grid, plan.evolve(plan.evolve(h, s), op["t"] - s), u))
        return max(gaps)

    @classmethod
    def decay_rows(cls, reports) -> list:
        """Refit every decay curve; hold the fit to the theorem bound."""
        worst_fit, worst_gap = -np.inf, 0.0
        for rep in reports:
            x = np.log(1.0 + rep.times) if rep.estimate_id != "E4" else np.log(rep.times)
            slope = np.polyfit(x, np.log(rep.norms), 1)[0]
            worst_gap = max(worst_gap, abs(slope - rep.fitted_exponent))
            worst_fit = max(worst_fit, slope - cls.DECAY_BOUND[rep.estimate_id])
        return [("decay_refit_gap", worst_gap, "<", 1e-8),
                ("decay_exponent_minus_bound", worst_fit, "<", 0.0)]


class ModelSweep(Workload):
    """Verdicts for a seeded list of quad_gauss trap models."""

    name = "model_sweep"
    setup_repeats = 3
    L, N, COARSE = 30.0, 1024, 512
    NONLINEARITIES = ((1.0,), (1.0, 0.0, 0.0, -0.001))   # cubic, degree-4
    H, LAM, AMP = (0.4, 0.6), (1.8, 2.2), (0.4, 0.6)
    MARGIN_MIN = 1e-2       # far from the resonant verdict (rel_tol 1e-6)

    def setup(self):
        self.couplings = self.cfg.block("scattering")["scan_couplings"]
        self.grid = grids.make_grid(self.L, self.N)

    def round(self, r: int) -> list:
        # one cubic and one degree-4 model, with h, lambda and the amplitude
        # stratified over the two, so that rounds of different seeds cost alike
        rng = np.random.default_rng([self.seed, r])
        draws = [rng.permutation(_stratified(rng, *span, 2)) for span in (self.H, self.LAM, self.AMP)]
        return [{"kind": "verdict", "f": self.NONLINEARITIES[j], "h": float(draws[0][j]),
                 "lam": float(draws[1][j]), "amp": float(draws[2][j])}
                for j in rng.permutation(2)]

    def run(self, op):
        g = self.grid
        V = grids.PotentialSpec("quad_gauss", op["h"], {"amp": op["amp"], "offset": 1.0})
        f = grids.PolynomialNonlinearity(op["f"])
        report = grids.validate_assumptions(f, V, op["lam"], g)
        prof = solitons.solve_dlambda(solitons.solve_soliton(op["lam"], V, f, g))
        sys_ = linearized.assemble_L(prof)
        spec = linearized.discrete_spectrum(sys_, coarse_points=self.COARSE)
        pd = linearized.build_projector(spec)
        rt = scattering.resonance_test(sys_)
        scan = scattering.resonance_scan(sys_, self.couplings)
        return 1, True, {"op": op, "V": V, "f": f, "prof": prof, "assumptions": report.passes(),
                         "spec": spec, "condition": pd.condition, "rank": pd.rank,
                         "rt": rt, "slope": scan["slope"]}

    def check(self, records) -> list:
        worst = {"residual": 0.0, "assumption_failures": 0.0, "tagged_mode_defect": 0.0,
                 "projector_condition": 0.0, "odd_mode_residual": 0.0,
                 "resonance_margin": np.inf, "scan_slope_gap": 0.0}
        for rec in records:
            prof, spec, V, f = rec["prof"], rec["spec"], rec["V"], rec["f"]
            worst["residual"] = max(worst["residual"], prof.residual_sup)
            worst["assumption_failures"] += not rec["assumptions"]
            # exactly four tagged modes: the two-fold zero cluster and the
            # odd pair, with no further gap or embedded eigenvalue
            defect = (abs(spec.zero_cluster_size - 2) + abs(rec["rank"] - 4)
                      + spec.extra_interior.size + spec.embedded_candidates.size)
            worst["tagged_mode_defect"] = max(worst["tagged_mode_defect"], defect)
            worst["projector_condition"] = max(worst["projector_condition"], rec["condition"])
            worst["odd_mode_residual"] = max(worst["odd_mode_residual"], spec.odd_residual)
            margin = rec["rt"]["margin"] if not rec["rt"]["resonant"] else 0.0
            worst["resonance_margin"] = min(worst["resonance_margin"], margin)
            # slope of D11(0, sW) at s = 0 against -(1/2) int V3, with V3 made
            # here from the profile and integrated by Simpson's rule
            x, s = prof.grid.nodes, prof.phi ** 2
            v3 = 2.0 * V(x) - 2.0 * f.f(s) - 2.0 * f.fprime(s) * s
            ref = -0.5 * simpson(v3, x=x)
            worst["scan_slope_gap"] = max(worst["scan_slope_gap"],
                                          abs(rec["slope"] - ref) / abs(ref))
        bounds = {"residual": 1e-9, "assumption_failures": 0.5, "tagged_mode_defect": 0.5,
                  "projector_condition": 1e8, "odd_mode_residual": 1e-8,
                  "scan_slope_gap": 0.05}
        return verdicts([(k, v, "<", bounds[k]) if k in bounds else (k, v, ">", self.MARGIN_MIN)
                         for k, v in worst.items()])


class Stability(Workload):
    """Theorem-mode nonlinear stability runs on the dynamics grid."""

    name = "stability"
    setup_repeats = 3
    T, DT, NU, SAMPLE_DT = 2.0, 0.004, 4.0, 0.5
    GAMMA0, DELTA, WIDTH = (0.0, 0.6), (0.008, 0.012), (1.6, 2.4)

    def setup(self):
        cfg = self.cfg
        self.grid = cfg.dynamics_grid()
        self.V, self.f = cfg.potential(), cfg.nonlinearity(True)
        self.lam0 = cfg.lam
        scan = solitons.stability_scan(np.linspace(self.lam0 - 0.4, self.lam0 + 0.4, 5),
                                       self.V, self.f, self.grid)
        self.admissible = scan.admissible
        self.new_pass()

    def new_pass(self):
        # a fresh family cache, so every pass solves the same profiles
        self.family = solitons.SolitonFamily(self.V, self.f, self.grid)
        self.family.profile(self.lam0)

    def round(self, r: int) -> list:
        rng = np.random.default_rng([self.seed, r])
        return [{"kind": "run", "gamma0": float(rng.uniform(*self.GAMMA0)),
                 "delta": float(rng.uniform(*self.DELTA)),
                 "width": float(rng.uniform(*self.WIDTH))}]

    def run(self, op):
        rep = dynamics.stability_experiment(
            self.family, lam0=self.lam0, gamma0=op["gamma0"], delta=op["delta"], T=self.T,
            dt=self.DT, nu=self.NU, sample_dt=self.SAMPLE_DT, fit_window=(self.SAMPLE_DT, self.T),
            bump_width=op["width"], mode="theorem", admissible_interval=self.admissible)
        return int(round(self.T / self.DT)), True, (op, rep)

    def check(self, records) -> list:
        lo, hi = self.admissible
        vals = {"mass_drift": 0.0, "energy_drift": 0.0, "orthogonality": 0.0,
                "lambda_outside_admissible": 0.0}
        for _op, rep in records:
            vals["mass_drift"] = max(vals["mass_drift"], float(np.max(rep.mass_drift)))
            vals["energy_drift"] = max(vals["energy_drift"], float(np.max(rep.energy_drift)))
            vals["orthogonality"] = max(vals["orthogonality"], float(np.max(rep.ortho_residuals)))
            vals["lambda_outside_admissible"] += (
                (not rep.admissible) + int(np.sum((rep.lam < lo) | (rep.lam > hi))))
        # the split-step Fourier oracle from the same datum, decomposed at T
        op, rep = records[0]
        g = self.grid
        phi0 = self.family.profile(self.lam0).phi
        psi0 = np.exp(1j * op["gamma0"]) * (phi0 + op["delta"] * np.exp(-((g.nodes / op["width"]) ** 2)))
        psi_t = dynamics.split_step_oracle(psi0, self.V, self.f, g, self.T, self.DT)
        ms = dynamics.modulation_decompose(psi_t, rep.lam[-1], self.family, nu=self.NU, t=self.T)
        dgamma = abs(math.remainder(ms.gamma - rep.gamma[-1], 2.0 * math.pi))
        vals["oracle_lambda_gap"] = abs(ms.lam - rep.lam[-1])
        vals["oracle_gamma_gap"] = dgamma
        vals["oracle_weighted_R_gap"] = abs(ms.r_weighted - rep.r_weighted[-1]) / ms.r_weighted
        bounds = {"mass_drift": 1e-10, "energy_drift": 1e-10, "orthogonality": 1e-8,
                  "lambda_outside_admissible": 0.5, "oracle_lambda_gap": 1e-5,
                  "oracle_gamma_gap": 1e-3, "oracle_weighted_R_gap": 2e-2}
        return verdicts([(k, v, "<", bounds[k]) for k, v in vals.items()])


WORKLOADS = {w.name: w for w in (PlanServe, ModelSweep, Stability)}
