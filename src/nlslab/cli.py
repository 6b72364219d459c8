"""Command-line orchestration: stages, artifacts, run manifest.

Subcommands run the pipeline stages (soliton profiles and stability
scan, discrete spectrum, threshold-resonance scan, continuum-mode table,
propagator decay reports, nonlinear stability run) and emit plot-ready
CSV plus JSON summaries.  `all` chains every stage.  Exit codes: 0 all
gates passed, 2 config error, 3 numerical gate failure, 4 internal
error.  The manifest is written atomically at the end of the run, so an
interrupted run never claims success.
"""

from __future__ import annotations

import argparse
import json
import hashlib
import os
import sys
import tempfile
import time

import numpy as np

from . import __version__
from .config import ExperimentConfig, config_hash, load_config
from .grids import make_grid, validate_assumptions
from .linearized import assemble_L, build_projector, discrete_spectrum, feshbach_predict
from .propagator import build_plan, evolve_direct, verify_decay, weighted_pair_norm, pair_norm
from .scattering import (default_k_grid, dump_table, eigentable_build,
                         ek_growth_report, resonance_scan, resonance_test)
from .solitons import SolitonFamily, solve_dlambda, solve_soliton, stability_scan
from .dynamics import stability_experiment


def _write_csv(path, header, rows):
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(f"{v:.17g}" if isinstance(v, float) else str(v) for v in row))
            fh.write("\n")


def _write_json(path, payload):
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True, default=float)


def _file_inventory(paths):
    inv = []
    for p in sorted(paths):
        with open(p, "rb") as fh:
            digest = hashlib.sha256(fh.read()).hexdigest()[:16]
        inv.append({"path": os.path.basename(p), "bytes": os.path.getsize(p), "sha256": digest})
    return inv


class StageRunner:
    """Shared state between stages plus pass/fail bookkeeping."""

    def __init__(self, cfg: ExperimentConfig, out_dir: str):
        self.cfg = cfg
        self.out = out_dir
        self.stages: dict = {}
        self.files: list = []
        self._cache: dict = {}
        os.makedirs(out_dir, exist_ok=True)
        echo = os.path.join(out_dir, "effective_config.json")
        _write_json(echo, cfg.raw)
        self.files.append(echo)

    def path(self, name):
        p = os.path.join(self.out, name)
        self.files.append(p)
        return p

    # -- cached pipeline objects -------------------------------------------

    def profile(self):
        if "profile" not in self._cache:
            cfg = self.cfg
            prof = solve_soliton(cfg.lam, cfg.potential(), cfg.nonlinearity(), cfg.grid())
            self._cache["profile"] = solve_dlambda(prof)
        return self._cache["profile"]

    def system(self):
        if "system" not in self._cache:
            self._cache["system"] = assemble_L(self.profile())
        return self._cache["system"]

    def spectrum(self):
        if "spectrum" not in self._cache:
            self._cache["spectrum"] = discrete_spectrum(
                self.system(), coarse_points=self.cfg.block("grid")["coarse_points"])
        return self._cache["spectrum"]

    def _projector(self):
        if "projector" not in self._cache:
            self._cache["projector"] = build_projector(self.spectrum())
        return self._cache["projector"]

    def table(self):
        if "table" not in self._cache:
            kmax = self.cfg.block("scattering")["k_max"]
            self._cache["table"] = eigentable_build(self.system(), default_k_grid(kmax))
        return self._cache["table"]

    def plan(self):
        if "plan" not in self._cache:
            self._cache["plan"] = build_plan(self.system(), self.table(), self._projector())
        return self._cache["plan"]

    # -- stages ---------------------------------------------------------------

    def stage_soliton(self):
        cfg = self.cfg
        report = validate_assumptions(cfg.nonlinearity(), cfg.potential(), cfg.lam, cfg.grid())
        prof = self.profile()
        lam_lo, lam_hi = cfg.lam - 0.4, cfg.lam + 0.4
        scan = stability_scan(np.linspace(lam_lo, lam_hi, 5), cfg.potential(),
                              cfg.nonlinearity(), cfg.grid())
        _write_csv(self.path("soliton_profile.csv"), ["x", "phi", "phi_lam"],
                   zip(prof.grid.nodes.tolist(), prof.phi.tolist(), prof.phi_lam.tolist()))
        _write_csv(self.path("stability_scan.csv"), ["lambda", "mass", "dmass_dlambda"],
                   zip(scan.lam_values.tolist(), scan.masses.tolist(), scan.dmass.tolist()))
        ok = prof.residual_sup < 1e-9 and report.passes() and scan.admissible_contains(cfg.lam)
        summary = {
            "residual_sup": prof.residual_sup,
            "mass": prof.mass,
            "tail_rate": prof.tail_rate,
            "assumptions_pass": report.passes(),
            "admissible_interval": list(scan.admissible),
            "pass": bool(ok),
        }
        _write_json(self.path("soliton_summary.json"), summary)
        return bool(ok), summary

    def stage_spectrum(self):
        cfg = self.cfg
        spec = self.spectrum()
        h = cfg.raw["model"]["h"]
        vpp0 = cfg.potential().second_derivative_at_zero()
        pred = feshbach_predict(h, vpp0)
        eps_pred = float(np.max(np.abs(pred.imag)))
        pd = self._projector()
        dev = abs(spec.eps1 - eps_pred)
        ok = (spec.zero_cluster_size == 2 and spec.extra_interior.size == 0
              and spec.embedded_candidates.size == 0 and pd.condition < 1e8)
        summary = {
            "eps1": spec.eps1,
            "eps1_reduced_matrix": eps_pred,
            "deviation": dev,
            "zero_cluster": spec.zero_cluster_size,
            "extra_interior": [str(z) for z in spec.extra_interior],
            "embedded": [str(z) for z in spec.embedded_candidates],
            "gram_condition": pd.condition,
            "pass": bool(ok),
        }
        _write_json(self.path("spectrum_summary.json"), summary)
        return bool(ok), summary

    def stage_resonance(self):
        cfg = self.cfg
        sys_ = self.system()
        rt = resonance_test(sys_)
        scan = resonance_scan(sys_, cfg.block("scattering")["scan_couplings"])
        slope_dev = abs(scan["slope"] - (-scan["half_int_v3"])) / max(abs(scan["half_int_v3"]), 1e-300)
        _write_csv(self.path("resonance_scan.csv"),
                   ["s", "detD0_re", "detD0_im", "wronskian_re", "margin"],
                   zip(scan["s"].tolist(), np.real(scan["detD0"]).tolist(),
                       np.imag(scan["detD0"]).tolist(),
                       np.real(scan["wronskian_lemma"]).tolist(),
                       scan["margins"].tolist()))
        expected = bool(cfg.raw["model"]["expected_resonant"])
        ok = (rt["resonant"] == expected) and slope_dev < 0.05
        summary = {
            "resonant": rt["resonant"],
            "detD0": [float(np.real(rt["detD0"])), float(np.imag(rt["detD0"]))],
            "margin": rt["margin"],
            "slope": scan["slope"],
            "slope_reference": -scan["half_int_v3"],
            "slope_deviation": slope_dev,
            "pass": bool(ok),
        }
        _write_json(self.path("resonance_summary.json"), summary)
        return bool(ok), summary

    def stage_eigentable(self):
        tab = self.table()
        unit = float(np.max(tab.unitarity_defect()))
        orth = float(np.max(tab.orthogonality_defect()))
        spread = float(np.max(tab.wronskian_spread))
        e0 = float(np.max(np.abs(tab.e[0])))     # the k = 0 row
        dump_table(tab, self.path("eigentable.bin"), self.path("eigentable_sidecar.json"))
        # the paper's growth bounds: sup_k |d^n/dk^n (e/k)| grows like (1 + |x|)^(n + 1)
        growth = ek_growth_report(self.system())["exponents"]
        growth_ok = all(n + 0.7 <= growth[n] <= n + 1.3 for n in growth)
        ok = unit < 1e-6 and orth < 1e-6 and spread < 1e-7 and e0 < 1e-8 and growth_ok
        summary = {
            "k_count": int(tab.k.size),
            "unitarity_defect": unit,
            "orthogonality_defect": orth,
            "wronskian_spread": spread,
            "threshold_mode_sup": e0,
            "resonance_margin": tab.resonance_margin,
            "growth_exponents": {str(n): v for n, v in growth.items()},
            "growth_in_band": bool(growth_ok),
            "pass": bool(ok),
        }
        _write_json(self.path("eigentable_summary.json"), summary)
        return bool(ok), summary

    def _probes(self):
        cfg = self.cfg
        g = cfg.grid()
        rng = np.random.default_rng(cfg.seed)
        kk = g.wavenumbers
        lowpass = np.exp(-((kk / 1.5) ** 8))
        probes = []
        for w in cfg.block("propagator")["probe_widths"]:
            env = np.exp(-((g.nodes / w) ** 2))
            raw = ((rng.standard_normal((2, 1)) + 1j * rng.standard_normal((2, 1))) * env)
            probes.append(np.stack([
                np.fft.ifft(np.fft.fft(raw[0]) * lowpass),
                np.fft.ifft(np.fft.fft(raw[1]) * lowpass),
            ]))
        return probes

    def stage_propagate(self):
        cfg = self.cfg
        plan = self.plan()
        pd = plan.projector
        g = cfg.grid()
        probes = self._probes()
        pblock = cfg.block("propagator")

        # t = 0 consistency and the branch split
        t0_errs = []
        for h in probes:
            rel = pair_norm(g, plan.p_ess_spectral(h) - pd.apply_complement_H(h)) / pair_norm(g, h)
            t0_errs.append(rel)
        # oracle equivalence on the enlarged box: one march through the
        # sorted times, each segment in steps of at most oracle_dt
        gb = make_grid(pblock["oracle_L"], pblock["oracle_N"])
        prof_b = solve_dlambda(solve_soliton(cfg.lam, cfg.potential(), cfg.nonlinearity(), gb))
        sys_b = assemble_L(prof_b)
        offset = int(round((gb.L - g.L) / gb.dx))
        dev_max = 0.0
        h = pd.apply_complement_H(probes[0])
        ub = np.zeros((2, gb.N), dtype=complex)
        ub[:, offset : offset + g.N] = h
        t_prev = 0.0
        for t in sorted(set(pblock["times"]) - {0}):
            us = plan.evolve(h, t)
            ub = evolve_direct(sys_b, ub, t - t_prev, dt=pblock["oracle_dt"])
            t_prev = t
            ud = ub[:, offset : offset + g.N]
            dev = weighted_pair_norm(g, us - ud, 4.0) / max(weighted_pair_norm(g, ud, 4.0), 1e-300)
            dev_max = max(dev_max, dev)

        # each estimate on its own default fit window (DECAY_WINDOWS), in
        # one call so that estimates sharing a window share its evolves;
        # verify_decay projects the probes itself
        ests = list(pblock["estimates"])
        reports = dict(zip(ests, verify_decay(plan, probes, ests)))
        rows = []
        for est, rep in reports.items():
            for t, nrm, fc, edge in zip(rep.times, rep.norms, rep.fitted_curve(), rep.edge_mass):
                rows.append((est, float(t), float(nrm), float(fc), float(edge)))
        _write_csv(self.path("decay_reports.csv"),
                   ["estimate", "t", "norm", "fitted_curve", "edge_mass"], rows)
        ok = (max(t0_errs) < 1e-4 and dev_max < 1e-3
              and all(r.passes for r in reports.values()))
        summary = {
            "t0_consistency": float(max(t0_errs)),
            "oracle_deviation": float(dev_max),
            "decay": {
                est: {"exponent": r.fitted_exponent, "constant": r.fitted_constant,
                      "pass": r.passes}
                for est, r in reports.items()
            },
            "frame": "H (the conjugated flow; the untransformed semigroup is unitary-equivalent)",
            "pass": bool(ok),
        }
        _write_json(self.path("propagate_summary.json"), summary)
        return bool(ok), summary

    def stage_evolve(self):
        cfg = self.cfg
        d = cfg.block("dynamics")
        gd = cfg.dynamics_grid()
        results = {}
        rows = []
        ok = True
        scan = stability_scan(np.linspace(cfg.lam - 0.4, cfg.lam + 0.4, 5),
                              cfg.potential(), cfg.nonlinearity(True), gd)
        for mode, f in (("theorem", cfg.nonlinearity(True)),
                        ("qualitative", cfg.nonlinearity(False))):
            fam = SolitonFamily(cfg.potential(), f, gd)
            T = d["T"] if mode == "theorem" else min(d["T"], 30.0)
            rep = stability_experiment(
                fam, lam0=cfg.lam, gamma0=d["gamma0"], delta=d["delta"], T=T,
                dt=d["dt"], nu=d["nu"], sample_dt=d["sample_dt"],
                fit_window=(d["fit_lo"], min(d["fit_hi"], T)),
                bump_width=d["bump_width"],
                admissible_interval=scan.admissible if mode == "theorem" else None,
            )
            for row in rep.series_rows():
                rows.append((mode,) + row)
            gates = {
                "ortho": bool(np.max(rep.ortho_residuals) < 1e-8),
                "weighted_exponent": bool(rep.weighted_exponent <= -1.0),
                "lam_settled": bool(rep.lam_last_quarter_variation < 1e-3),
                "admissible": bool(rep.admissible) if rep.admissible is not None else None,
                "rate_exponent": bool(rep.rate_exponent <= -2.0),
                "envelope_decreasing": rep.envelope_decreasing,
            }
            results[mode] = {
                "lam_inf": rep.lam_inf,
                "weighted_exponent": rep.weighted_exponent,
                "rate_exponent": rep.rate_exponent,
                "lam_last_quarter_variation": rep.lam_last_quarter_variation,
                "max_mass_drift": float(np.max(rep.mass_drift)),
                "max_energy_drift": float(np.max(rep.energy_drift)),
                "solves_per_step": rep.solves_per_step,
                "floor_stops": rep.floor_stops,
                "profile_misses": rep.profile_misses,
                "gates": gates,
                "outside_theorem_hypotheses": mode != "theorem",
            }
            if mode == "theorem":
                ok = ok and all(v for v in gates.values() if v is not None)
        _write_csv(self.path("trajectory.csv"),
                   ["mode", "t", "lambda", "gamma", "lambdadot_plus_gammadot",
                    "weighted_R_norm", "mass_drift", "energy_drift"], rows)
        results["pass"] = bool(ok)
        _write_json(self.path("evolve_summary.json"), results)
        return bool(ok), results

    def run(self, names):
        table = {
            "soliton": self.stage_soliton,
            "spectrum": self.stage_spectrum,
            "resonance": self.stage_resonance,
            "eigentable": self.stage_eigentable,
            "propagate": self.stage_propagate,
            "evolve": self.stage_evolve,
        }
        all_ok = True
        for name in names:
            t0 = time.time()
            ok, summary = table[name]()
            self.stages[name] = {"pass": bool(ok), "seconds": round(time.time() - t0, 2)}
            all_ok = all_ok and ok
            print(f"[{name}] {'pass' if ok else 'FAIL'} ({self.stages[name]['seconds']}s)",
                  file=sys.stderr)
        return all_ok

    def write_manifest(self, ok: bool, started: float):
        manifest = {
            "config_hash": config_hash(self.cfg),
            "version": __version__,
            "started": started,
            "finished": time.time(),
            "stages": self.stages,
            "pass": bool(ok),
            "files": _file_inventory([p for p in self.files if os.path.exists(p)]),
        }
        final = os.path.join(self.out, "manifest.json")
        fd, tmp = tempfile.mkstemp(dir=self.out, suffix=".manifest.tmp")
        with os.fdopen(fd, "w") as fh:
            json.dump(manifest, fh, indent=2, sort_keys=True)
        os.replace(tmp, final)


STAGE_ORDER = ["soliton", "spectrum", "resonance", "eigentable", "propagate", "evolve"]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="nlslab",
        description="Numerical laboratory for trapped NLS solitons",
    )
    parser.add_argument("command", choices=STAGE_ORDER + ["all"])
    parser.add_argument("--config", default=None, help="JSON config path")
    parser.add_argument("--out", default=None, help="output directory")
    parser.add_argument("--seed", type=int, default=None)
    args = parser.parse_args(argv)

    try:
        overrides = {}
        if args.seed is not None:
            overrides["seed"] = args.seed
        cfg = load_config(args.config, overrides=overrides)
    except (ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2

    out_dir = args.out or cfg.block("output")["directory"]
    started = time.time()
    try:
        runner = StageRunner(cfg, out_dir)
        names = STAGE_ORDER if args.command == "all" else [args.command]
        ok = runner.run(names)
        runner.write_manifest(ok, started)
    except ValueError as exc:
        print(f"numerical gate failure: {exc}", file=sys.stderr)
        return 3
    except Exception as exc:  # pragma: no cover - defensive
        print(f"internal error: {exc}", file=sys.stderr)
        return 4
    return 0 if ok else 3


if __name__ == "__main__":
    raise SystemExit(main())
