"""Configuration-driven experiment runner.

Subcommands `solve`, `limit`, `verify`, `all` drive the pipeline
family -> layer solve -> barrier extraction -> refinement limit -> Monte
Carlo verification, writing reproducible artifacts to the output directory.
Each command writes only its own artifacts; the stages it needs come from a
shared `Run`, so `all` computes every stage once for its three commands.
Numeric parameters live in the config file only; flags select the
subcommand, config path, output directory, thread count, and raw dumps.

Exit codes: 0 all checks passed, 1 usage or config problem, 2 a numerical
check failed.
"""

from __future__ import annotations

import argparse
import configparser
import math
import sys
import time
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

import numpy as np

from . import barriers as bar
from . import io as art
from .errors import CheckError, ConfigError, ValidationError
from .grid import DEFAULT_NODE_BUDGET, make_grid, make_partition
from .limit_solver import (bounds_check, partition_independence, pde_residual,
                           regularity_report, solve_limit)
from .marginals import (GaussianShiftFamily, ScaledFamily, ThreePointFamily,
                        build_pathological_family, load_atomic_family_csv)
from .simulator import (MonotonePiecewisePoly, alternative_embedding,
                        empirical_potential, marginal_fit, optimality_functional,
                        simulate_root)
from .stop_solver import complementarity_check, solve_layers

_SCHEMA = {
    "family": {"kind": None, "t0": "1.0", "s0": "0.0", "base": "normal",
               "p0": "0.1", "p1": "0.3", "path": "", "growth_power": "3.0",
               "pieces": "6"},
    "grid": {"t_horizon": None, "dx": None, "lam": "", "binary_steps": "false",
             "node_budget": str(DEFAULT_NODE_BUDGET)},
    "partition": {"n0": "4", "levels": "2", "style": "uniform", "refine_dx": "true"},
    "simulation": {"paths": "100000", "h_sim": "", "seed": "20260811",
                   "horizon": "", "probe_times": "0.25,0.5,1.0",
                   "probe_x": "-1.0,0.0,1.0", "alternative": "false",
                   "alt_h_sim": "5e-5", "alt_horizon": "25.0"},
    "tolerances": {"scheme_c": "", "pde_c": ""},
}


@dataclass
class RunConfig:
    raw: dict
    base_dir: Path
    family: object = None

    def get(self, section: str, key: str) -> str:
        return self.raw[section][key]

    def _parse(self, section, key, convert, what):
        v = self.get(section, key)
        try:
            return convert(v)
        except ValueError:
            raise ConfigError(f"[{section}] {key}: not {what}: {v!r}") from None

    def getfloat(self, section, key, default=None):
        if self.get(section, key) == "":
            return default
        return self._parse(section, key, float, "a number")

    def getint(self, section, key):
        return self._parse(section, key, int, "an integer")

    def getbool(self, section, key):
        v = self.get(section, key).strip().lower()
        if v in ("true", "1", "yes"):
            return True
        if v in ("false", "0", "no"):
            return False
        raise ConfigError(f"[{section}] {key}: not a boolean: {v!r}")

    def getlist(self, section, key):
        return self._parse(section, key,
                           lambda v: [float(p) for p in v.split(",")] if v.strip() else [],
                           "a comma-separated list of numbers")


def load_config(path) -> RunConfig:
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file not found: {path}")
    parser = configparser.ConfigParser(interpolation=None)
    try:
        parser.read(path, encoding="utf-8")
    except configparser.Error as exc:
        raise ConfigError(f"cannot parse config: {exc}") from None
    raw = {}
    for section in parser.sections():
        if section not in _SCHEMA:
            raise ConfigError(f"unknown section [{section}]")
        raw[section] = {}
        for key, value in parser.items(section):
            if key not in _SCHEMA[section]:
                raise ConfigError(f"unknown key '{key}' in [{section}]")
            raw[section][key] = value.strip()
    for section, keys in _SCHEMA.items():
        raw.setdefault(section, {})
        for key, default in keys.items():
            if key not in raw[section]:
                if default is None:
                    raise ConfigError(f"missing required key '{key}' in [{section}]")
                raw[section][key] = default
    cfg = RunConfig(raw=raw, base_dir=path.parent)
    cfg.family = _build_family(cfg)
    return cfg


def _build_family(cfg: RunConfig):
    kind = cfg.get("family", "kind")
    if kind == "gaussian_shift":
        return GaussianShiftFamily(cfg.getfloat("family", "t0"))
    if kind == "scaled":
        base = cfg.get("family", "base")
        if base != "normal":
            raise ConfigError("config-declared scaled families support base=normal only")
        return ScaledFamily(cfg.getfloat("family", "s0"))
    if kind == "three_point":
        return ThreePointFamily(cfg.getfloat("family", "p0"), cfg.getfloat("family", "p1"))
    if kind == "atomic_csv":
        rel = cfg.get("family", "path")
        if not rel:
            raise ConfigError("atomic_csv family needs 'path'")
        return load_atomic_family_csv(cfg.base_dir / rel)
    if kind == "pathological":
        k = cfg.getfloat("family", "growth_power")
        return build_pathological_family(lambda x: abs(x) ** k,
                                         pieces=cfg.getint("family", "pieces"))
    raise ConfigError(f"unknown family kind {kind!r}")


def _threads(text: str) -> int:
    n = int(text)
    if n < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {n}")
    return n


class Run:
    """One pass of the pipeline over a config.

    The stages grid, partition, surface, barriers and limit are computed on
    first use and then kept, so `all` solves each layered surface and each
    refinement ladder once for all three of its commands.
    """

    def __init__(self, cfg: RunConfig, threads: int = 1, dump_raw: bool = False):
        self.cfg = cfg
        self.family = cfg.family
        self.threads = threads
        self.dump_raw = dump_raw
        self.style = cfg.get("partition", "style")
        # "both" solves uniform layers and checks them against a geometric ladder
        self.layer_style = "uniform" if self.style == "both" else self.style
        self.ladder = {"T": cfg.getfloat("grid", "t_horizon"),
                       "dx": cfg.getfloat("grid", "dx"),
                       "n0": cfg.getint("partition", "n0"),
                       "levels": cfg.getint("partition", "levels"),
                       "refine_dx": cfg.getbool("partition", "refine_dx"),
                       "node_budget": cfg.getint("grid", "node_budget")}
        self.probe_times = cfg.getlist("simulation", "probe_times")

    @cached_property
    def grid(self):
        lad, cfg = self.ladder, self.cfg
        return make_grid(self.family, lad["T"], lad["dx"], lam=cfg.getfloat("grid", "lam"),
                         binary_steps=cfg.getbool("grid", "binary_steps"),
                         node_budget=lad["node_budget"])

    @cached_property
    def partition(self):
        return make_partition(self.ladder["n0"], self.layer_style)

    @cached_property
    def surface(self):
        grid = self.grid
        idx = np.unique(np.round(np.linspace(0.0, grid.T, 9) / grid.dt).astype(int))
        keep = set((idx * grid.dt).tolist())
        for t in self.probe_times:
            m = round(t / grid.dt)
            if abs(m * grid.dt - t) > 1e-9:
                raise ConfigError(f"probe time {t} is not a grid time (dt={grid.dt})")
            keep.add(m * grid.dt)
        sc = self.cfg.getfloat("tolerances", "scheme_c")
        return solve_layers(self.family, self.partition, grid,
                            keep_times=np.array(sorted(keep)),
                            tol=None if sc is None else sc * (grid.dx + grid.dt))

    @cached_property
    def barrier(self):
        return bar.extract(self.surface)

    @cached_property
    def limit(self):
        return solve_limit(self.family, **self.ladder, style=self.layer_style)

    @cached_property
    def h_sim(self) -> float:
        return self.cfg.getfloat("simulation", "h_sim", default=self.grid.dt)

    def check_simulation(self) -> None:
        """Reject the simulation settings that simulate_root would refuse
        only after the solve: a step coarser than the solver's, or probe
        times off the monitoring grid."""
        if self.h_sim > self.grid.dt + 1e-15:
            raise ConfigError(f"h_sim={self.h_sim} exceeds the solver step {self.grid.dt}")
        for t in self.probe_times:
            if abs(round(t / self.h_sim) * self.h_sim - t) > 1e-9:
                raise ConfigError(f"probe time {t} is not a multiple of h_sim={self.h_sim}")

    def finish(self, out: Path, produced: list, t_start: float) -> None:
        """Echo the resolved config, hash the artifacts, record the run info."""
        lines = []
        for section in _SCHEMA:
            lines.append(f"[{section}]")
            lines.extend(f"{key} = {self.cfg.raw[section][key]}" for key in _SCHEMA[section])
            lines.append("")
        (out / "config.resolved.ini").write_text("\n".join(lines), encoding="utf-8")
        produced = sorted(["config.resolved.ini", *produced])
        art.write_json({name: art.sha256_file(out / name) for name in produced},
                       out / "hashes.json")
        art.write_json({"runtime_s": time.time() - t_start,
                        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S"),
                        "versions": {"numpy": np.__version__,
                                     "python": sys.version.split()[0]}},
                       out / "run_info.json")


def cmd_solve(run: Run, out: Path) -> int:
    t0 = time.time()
    surface, grid = run.surface, run.grid
    report = complementarity_check(surface)
    barrier = run.barrier

    out.mkdir(parents=True, exist_ok=True)
    art.write_surface_csv(surface, out / "surface.csv")
    bar.write_barriers_csv(barrier, out / "barriers.csv")
    meta = {"grid": grid.descriptor(), "partition": surface.partition.points.tolist(),
            "family": surface.family_desc, "tol_scheme": report.tol,
            "complementarity": {"max_heat_unstopped": report.max_heat_unstopped,
                                "max_obstacle_violation": report.max_obstacle_violation,
                                "frac_both_exceed": report.frac_both_exceed,
                                "max_min_residual": report.max_min_residual,
                                "passed": report.passed},
            "barrier": barrier.descriptor(),
            "csv_sha256": {"surface.csv": art.sha256_file(out / "surface.csv"),
                           "barriers.csv": art.sha256_file(out / "barriers.csv")}}
    art.write_json(art.jsonable(meta), out / "surface.meta.json")
    run.finish(out, ["surface.csv", "barriers.csv", "surface.meta.json"], t0)
    if not report.passed:
        print(f"complementarity check failed: max residual "
              f"{report.max_min_residual:.3e} > tol {report.tol:.3e}")
        return 2
    return 0


def cmd_limit(run: Run, out: Path) -> int:
    t0 = time.time()
    limit = run.limit
    pde = pde_residual(limit)
    pc = run.cfg.getfloat("tolerances", "pde_c")
    if pc is not None:
        g = limit.finest_grid
        pde["bound"] = pc * (g.dx + g.dt + limit.finest_partition.mesh)
        pde["passed"] = pde["max"] <= pde["bound"]
    bounds = bounds_check(limit, run.family)
    reg = regularity_report(limit)
    indep = partition_independence(run.family, limit) if run.style == "both" else None

    out.mkdir(parents=True, exist_ok=True)
    art.write_limit_csv(limit, out / "limit.csv")
    # wall-clock readings go to the unhashed run info so identical runs
    # produce identical artifact bytes
    levels = [{k: v for k, v in h.items() if k != "runtime_ms"} for h in limit.history]
    conv = {"levels": levels, "pde_residual": pde, "bounds": bounds,
            "regularity": reg, "outside_standing_assumptions": limit.outside_assumptions,
            "style": run.style,
            "partition_independence": None if indep is None else
            {"sup_distance": indep["sup_distance"], "bound": indep["bound"],
             "passed": indep["passed"]}}
    art.write_json(art.jsonable(conv), out / "convergence.json")
    art.write_json(art.jsonable({"level_runtimes_ms":
                                 [h["runtime_ms"] for h in limit.history]}),
                   out / "level_runtimes.json")
    run.finish(out, ["limit.csv", "convergence.json"], t0)

    failed = []
    # the residual and independence claims are underwritten by the standing
    # assumption on the index derivative; outside it they are report-only
    if not limit.outside_assumptions:
        if not pde["passed"]:
            failed.append(f"pde residual {pde['max']:.3e} > {pde['bound']:.3e}")
        if indep is not None and not indep["passed"]:
            failed.append(
                f"partition dependence {indep['sup_distance']:.3e} > {indep['bound']:.3e}")
    if not bounds["passed"]:
        failed.append(f"bounds violation {bounds['max_violation']:.3e}")
    if failed:
        print("; ".join(failed))
        return 2
    return 0


def cmd_verify(run: Run, out: Path) -> int:
    t0 = time.time()
    run.check_simulation()
    cfg, threads, h_sim = run.cfg, run.threads, run.h_sim
    M = cfg.getint("simulation", "paths")
    seed = cfg.getint("simulation", "seed")
    horizon = cfg.getfloat("simulation", "horizon", default=run.grid.T)
    probe_t = run.probe_times
    probe_x = np.array(cfg.getlist("simulation", "probe_x"))
    surface = run.surface

    ensemble = simulate_root(run.family, run.barrier, M, h_sim, seed,
                             horizon=horizon, snapshot_times=probe_t, threads=threads)
    failures = []

    repr_rows = []
    bias = 2.0 * math.sqrt(h_sim)
    for j in sorted({1, surface.n}):
        for t in probe_t:
            emp, se = empirical_potential(ensemble, j, t, probe_x)
            ref = np.array([surface.value_at(j, t, x) for x in probe_x])
            gap = np.abs(emp - ref)
            ok = bool(np.all(gap <= 3.0 * se + bias))
            repr_rows.append({"j": j, "t": t, "x": probe_x.tolist(),
                              "empirical": emp.tolist(), "solver": ref.tolist(),
                              "stderr": se.tolist(), "passed": ok})
            if not ok:
                failures.append(f"representation at j={j}, t={t}")

    fit = marginal_fit(ensemble, run.family)
    if not fit.passed:
        for m in fit.marginals:
            if not m["passed"]:
                failures.append(f"marginal fit at j={m['j']}")
        if fit.ui_proxy and not fit.ui_proxy["passed"]:
            failures.append("uniform integrability proxy")

    weights = {"t": MonotonePiecewisePoly.poly(0.0, 1.0),
               "one": MonotonePiecewisePoly.poly(1.0),
               "t_sq": MonotonePiecewisePoly.poly(0.0, 0.0, 1.0)}
    functionals = {}
    for name, f in weights.items():
        est, se = optimality_functional(ensemble, f)
        functionals[name] = {"estimate": est, "stderr": se}
    fit.functionals = functionals

    alternative = None
    if cfg.getbool("simulation", "alternative"):
        alt = alternative_embedding(M, seed + 1,
                                    h_sim=cfg.getfloat("simulation", "alt_h_sim"),
                                    horizon=cfg.getfloat("simulation", "alt_horizon"),
                                    threads=threads)
        alt_fit = marginal_fit(alt, ScaledFamily(0.0))
        alternative = {"marginals": alt_fit.marginals, "functionals": {}}
        for name, f in weights.items():
            est, se = optimality_functional(alt, f)
            alternative["functionals"][name] = {"estimate": est, "stderr": se}
            root = functionals[name]
            if est + 3.0 * (se + root["stderr"]) < root["estimate"]:
                failures.append(f"optimality direction for weight {name}")

    out.mkdir(parents=True, exist_ok=True)
    payload = {"paths": M, "h_sim": h_sim, "seed": seed,
               "censored_fraction": ensemble.censored_fraction,
               "representation": repr_rows,
               "marginals": fit.marginals, "ui_proxy": fit.ui_proxy,
               "functionals": functionals, "alternative": alternative,
               "failures": failures}
    art.write_json(art.jsonable(payload), out / "embedding.json")
    produced = ["embedding.json"]
    if run.dump_raw:
        art.write_paths_csv(ensemble, out / "paths.csv")
        produced.append("paths.csv")
    run.finish(out, produced, t0)
    if failures:
        print("verification failures: " + "; ".join(failures))
        return 2
    return 0


def cmd_all(run: Run, out: Path) -> int:
    run.check_simulation()
    commands = (("solve", cmd_solve), ("limit", cmd_limit), ("verify", cmd_verify))
    return max([fn(run, out / sub) for sub, fn in commands])


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise ConfigError(message)


def main(argv=None) -> int:
    parser = _Parser(prog="rootsep", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("command", choices=["solve", "limit", "verify", "all"])
    parser.add_argument("--config", required=True, help="path to the run config (INI)")
    parser.add_argument("--out", required=True, help="artifact output directory")
    parser.add_argument("--threads", type=_threads, default=1)
    parser.add_argument("--dump-raw", action="store_true",
                        help="also write per-path stopping data (large)")
    try:
        args = parser.parse_args(argv)
        cfg = load_config(args.config)
        fn = {"solve": cmd_solve, "limit": cmd_limit,
              "verify": cmd_verify, "all": cmd_all}[args.command]
        return fn(Run(cfg, threads=args.threads, dump_raw=args.dump_raw), Path(args.out))
    except (ConfigError, ValidationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except CheckError as exc:
        print(f"check failed: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
