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
from .grid import lattice_index, make_grid, make_partition
from .limit_solver import (bounds_check, ladder_levels, partition_independence,
                           pde_residual, regularity_report, solve_limit)
from .marginals import (GaussianShiftFamily, ScaledFamily, ThreePointFamily,
                        load_atomic_family_csv)
from .simulator import (MonotonePiecewisePoly, alternative_embedding, check_h_sim,
                        empirical_potential, marginal_fit, optimality_functional,
                        simulate_root)
from .stop_solver import check_solve_budget, complementarity_check, grid_atoms, solve_layers

def _finite(text: str) -> float:
    v = float(text)
    if not math.isfinite(v):
        raise ValueError(text)
    return v


def _boolean(text: str) -> bool:
    v = text.lower()
    if v in ("true", "1", "yes"):
        return True
    if v in ("false", "0", "no"):
        return False
    raise ValueError(text)


def _at_least(k: int) -> tuple:
    """The schema type of an integer that is at least k."""
    def convert(text: str) -> int:
        v = int(text)
        if v < k:
            raise ValueError(text)
        return v
    return convert, f"an integer >= {k}"


_TEXT = (str, "text")
_NUMBER = (_finite, "a finite number")
_INTEGER = (int, "an integer")
_AT_LEAST_1 = _at_least(1)      # n0, levels
_AT_LEAST_2 = _at_least(2)      # paths: a standard error needs two
_BOOLEAN = (_boolean, "a boolean")
_NUMBERS = (lambda v: [_finite(p) for p in v.split(",")] if v else [],
            "a comma-separated list of finite numbers")

# section -> key -> (default, type); a default of None marks a required
# key, and a key whose default is "" may stay empty, which reads as None;
# an omitted probe_times takes the dt-lattice times nearest its default
# (`Run.probe_times`)
_SCHEMA = {
    "family": {"kind": (None, _TEXT), "t0": ("1.0", _NUMBER), "s0": ("0.0", _NUMBER),
               "p0": ("0.1", _NUMBER), "p1": ("0.3", _NUMBER), "path": ("", _TEXT)},
    "grid": {"t_horizon": (None, _NUMBER), "dx": (None, _NUMBER)},
    "partition": {"n0": ("4", _AT_LEAST_1), "levels": ("2", _AT_LEAST_1),
                  "style": ("uniform", _TEXT)},
    "simulation": {"paths": ("100000", _AT_LEAST_2), "h_sim": ("", _NUMBER),
                   "seed": ("20260811", _INTEGER),
                   "probe_times": ("0.25,0.5,1.0", _NUMBERS),
                   "probe_x": ("-1.0,0.0,1.0", _NUMBERS),
                   "alternative": ("false", _BOOLEAN)},
}


# each kind's family and the [family] keys it is built from; any other key
# may hold only its default text, as config.resolved.ini echoes every key
_FAMILIES = {"gaussian_shift": (GaussianShiftFamily, ("t0",)),
             "scaled": (ScaledFamily, ("s0",)),
             "three_point": (ThreePointFamily, ("p0", "p1")),
             "atomic_csv": (load_atomic_family_csv, ("path",))}


@dataclass
class RunConfig:
    raw: dict       # section -> key -> text, echoed to config.resolved.ini
    values: dict    # section -> key -> that text as its schema type
    family: object
    probe_times_given: bool


def load_config(path) -> RunConfig:
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from None
    parser = configparser.ConfigParser(interpolation=None)
    try:
        parser.read_string(text, source=str(path))
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
    probe_times_given = "probe_times" in raw.get("simulation", {})
    given = dict(raw.get("family", {}))     # before the defaults fill in
    values = {}
    for section, keys in _SCHEMA.items():
        raw.setdefault(section, {})
        values[section] = {}
        for key, (default, (convert, what)) in keys.items():
            if key not in raw[section]:
                if default is None:
                    raise ConfigError(f"missing required key '{key}' in [{section}]")
                raw[section][key] = default
            text = raw[section][key]
            try:
                values[section][key] = (None if text == "" and default == ""
                                        else convert(text))
            except ValueError:
                raise ConfigError(f"[{section}] {key}: not {what}: {text!r}") from None
    return RunConfig(raw=raw, values=values, family=_build_family(values, given, path.parent),
                     probe_times_given=probe_times_given)


def _build_family(values: dict, given: dict, base_dir: Path):
    v = values["family"]
    kind = v["kind"]
    if kind not in _FAMILIES:
        raise ConfigError(f"unknown family kind {kind!r}")
    make, keys = _FAMILIES[kind]
    unread = [key for key, text in given.items()
              if key not in ("kind", *keys) and text != _SCHEMA["family"][key][0]]
    if unread:
        raise ConfigError(f"[family] kind {kind} does not read {', '.join(unread)}")
    if kind != "atomic_csv":
        return make(*(v[key] for key in keys))
    if v["path"] is None:
        raise ConfigError("atomic_csv family needs 'path'")
    return make(base_dir / v["path"])


def _threads(text: str) -> int:
    n = int(text)
    if n < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {n}")
    return n


def _out_dir(text: str) -> Path:
    # checked before any work: the commands create it only when they write
    out = Path(text)
    for path in (out, *out.parents):
        if (path.exists() or path.is_symlink()) and not path.is_dir():
            raise argparse.ArgumentTypeError(f"{path} is not a directory")
    return out


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
        grid, partition = cfg.values["grid"], cfg.values["partition"]
        self.style = partition["style"]
        # "both" solves uniform layers and checks them against a geometric ladder
        self.layer_style = "uniform" if self.style == "both" else self.style
        self.ladder = {"T": grid["t_horizon"], "dx": grid["dx"],
                       "n0": partition["n0"], "levels": partition["levels"]}
        self.sim = cfg.values["simulation"]

    @cached_property
    def grid(self):
        return make_grid(self.family, self.ladder["T"], self.ladder["dx"])

    @cached_property
    def partition(self):
        return make_partition(self.ladder["n0"], self.layer_style)

    @cached_property
    def probe_times(self) -> list:
        """The configured probe times; when the config omits them, the
        dt-lattice times nearest the schema's defaults, at most T, which
        `finish` echoes in config.resolved.ini."""
        times = self.sim["probe_times"]
        if self.cfg.probe_times_given:
            return times
        dt, nt = self.grid.dt, self.grid.nt
        rows = np.unique(np.minimum(np.rint(np.array(times) / dt), nt))
        return [float(f"{t:.12g}") for t in rows * dt]

    @cached_property
    def surface(self):
        grid = self.grid
        rows = lattice_index(self.probe_times, grid.dt, 0.0, grid.nt,
                             "probe time", "dt")
        return solve_layers(self.family, self.partition, grid,
                            keep_times=np.union1d(grid.eighth_rows(), rows) * grid.dt)

    @cached_property
    def barrier(self):
        return bar.extract(self.surface)

    @cached_property
    def limit(self):
        return solve_limit(self.family, **self.ladder, style=self.layer_style)

    @cached_property
    def h_sim(self) -> float:
        h_sim = self.sim["h_sim"]
        return self.grid.dt if h_sim is None else h_sim

    def check_simulation(self) -> None:
        """Reject the simulation settings that need the grid, or that the
        simulators would refuse only after the solve: an h_sim outside
        `check_h_sim`'s bounds, and probe times and points off the
        solver's grid, where `value_at` cannot read the surface.
        `load_config` has already read every value as its type, within its
        bounds."""
        grid = self.grid
        check_h_sim(self.h_sim, grid.dt)
        lattice_index(self.probe_times, grid.dt, 0.0, grid.nt, "probe time", "dt")
        lattice_index(self.sim["probe_x"], grid.dx, grid.x_nodes()[0], grid.nx, "probe x")

    def check_ladder(self) -> None:
        """Reject, before any solve, a ladder level over the solve budget
        (keeping the lattice's rows) or whose grid misses an atom: the ladder
        refines dx with the partition, so its coarsest step dx 2^(levels-1)
        can miss atoms that the configured dx holds; and style both with one
        level, where no ladder has a Cauchy difference to bound with."""
        if self.style == "both" and self.ladder["levels"] < 2:
            raise ConfigError("style = both needs levels >= 2")
        styles = ("uniform", "geometric") if self.style == "both" else (self.style,)
        for style in styles:
            coarse, levels = ladder_levels(self.family, **self.ladder, style=style)
            for part, grid in levels:
                check_solve_budget(part.n, coarse.eighth_rows().size, grid.nx)
                grid_atoms(self.family, part.points, grid)

    def finish(self, out: Path, produced: list, t_start: float, failures: list) -> int:
        """Echo the resolved config, hash the artifacts, record the run info;
        then print the failed checks on one line, and return the exit code:
        2 if any check failed, else 0."""
        raw = self.cfg.raw
        if not self.cfg.probe_times_given:
            raw = {**raw, "simulation": {**raw["simulation"],
                                         "probe_times": ",".join(map(repr, self.probe_times))}}
        lines = []
        for section in _SCHEMA:
            lines.append(f"[{section}]")
            lines.extend(f"{key} = {raw[section][key]}" for key in _SCHEMA[section])
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
        if failures:
            print("; ".join(failures))
        return 2 if failures else 0


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
            "barrier": {"flagged": surface.flagged.tolist(),
                        "region_nodes": surface.region_nodes.tolist()},
            "csv_sha256": {"surface.csv": art.sha256_file(out / "surface.csv"),
                           "barriers.csv": art.sha256_file(out / "barriers.csv")}}
    art.write_json(meta, out / "surface.meta.json")
    failures = [] if report.passed else [
        f"complementarity residual {report.max_min_residual:.3e} > tol {report.tol:.3e}"]
    return run.finish(out, ["surface.csv", "barriers.csv", "surface.meta.json"], t0, failures)


def cmd_limit(run: Run, out: Path) -> int:
    t0 = time.time()
    run.check_ladder()
    limit = run.limit
    pde = pde_residual(limit)
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
    art.write_json(conv, out / "convergence.json")
    art.write_json({"level_runtimes_ms": [h["runtime_ms"] for h in limit.history]},
                   out / "level_runtimes.json")
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
    return run.finish(out, ["limit.csv", "convergence.json"], t0, failed)


def cmd_verify(run: Run, out: Path) -> int:
    t0 = time.time()
    run.check_simulation()
    h_sim = run.h_sim
    M, seed = run.sim["paths"], run.sim["seed"]
    probe_t = run.probe_times
    probe_x = np.array(run.sim["probe_x"])
    surface = run.surface

    ensemble = simulate_root(run.family, run.barrier, M, h_sim, seed,
                             snapshot_times=probe_t, threads=run.threads)
    failures = []

    repr_rows = []
    for j in sorted({1, surface.n}):
        for t in probe_t:
            emp, se = empirical_potential(ensemble, j, t, probe_x)
            ref = np.array([surface.value_at(j, t, x) for x in probe_x])
            gap = np.abs(emp - ref)
            ok = bool(np.all(gap <= 3.0 * se + ensemble.allowance))
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
        if not fit.ui_proxy["passed"]:
            failures.append("uniform integrability proxy")

    weights = {"t": MonotonePiecewisePoly.poly(0.0, 1.0),
               "one": MonotonePiecewisePoly.poly(1.0),
               "t_sq": MonotonePiecewisePoly.poly(0.0, 0.0, 1.0)}
    functionals = {}
    for name, f in weights.items():
        est, se = optimality_functional(ensemble, f)
        functionals[name] = {"estimate": est, "stderr": se}

    alternative = None
    if run.sim["alternative"]:
        alt = alternative_embedding(M, seed + 1, h_sim)
        alt_fit = marginal_fit(alt, ScaledFamily(0.0))
        # its UI proxy is reported only: no gate reads it
        alternative = {"marginals": alt_fit.marginals, "ui_proxy": alt_fit.ui_proxy,
                       "functionals": {}}
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
    art.write_json(payload, out / "embedding.json")
    produced = ["embedding.json"]
    if run.dump_raw:
        art.write_paths_csv(ensemble, out / "paths.csv")
        produced.append("paths.csv")
    return run.finish(out, produced, t0, failures)


def cmd_all(run: Run, out: Path) -> int:
    run.check_simulation()
    run.check_ladder()
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
    parser.add_argument("--out", required=True, type=_out_dir,
                        help="artifact output directory")
    parser.add_argument("--threads", type=_threads, default=1)
    parser.add_argument("--dump-raw", action="store_true",
                        help="also write per-path stopping data (large)")
    try:
        args = parser.parse_args(argv)
        cfg = load_config(args.config)
        fn = {"solve": cmd_solve, "limit": cmd_limit,
              "verify": cmd_verify, "all": cmd_all}[args.command]
        return fn(Run(cfg, threads=args.threads, dump_raw=args.dump_raw), args.out)
    except (ConfigError, ValidationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except CheckError as exc:
        print(f"check failed: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
