import dataclasses
import hashlib
import json
import math
import re
from pathlib import Path

import numpy as np
import pytest

from rootsep import GaussianShiftFamily, cli, limit_solver, solve_limit, stop_solver
from rootsep.cli import load_config, main
from rootsep.errors import ConfigError

# 10^5 paths: the library's fixed KS gate 0.01 sits under the sampling noise
# at a few thousand paths (about 0.87 / sqrt(M) = 0.014 at 4000, where no
# seed of ten passed), while at 10^5 every seed of ten passed with the
# grid's own bias near 0.0075
SMALL_GAUSS = """
[family]
kind = gaussian_shift
t0 = 1.0

[grid]
t_horizon = 1.25
dx = 0.1

[partition]
n0 = 2
levels = 2

[simulation]
paths = 100000
h_sim = 0.01
seed = 99
probe_times = 0.25,1.0
probe_x = -1.0,0.0,1.0
"""


@pytest.fixture()
def gauss_config(tmp_path):
    p = tmp_path / "run.ini"
    p.write_text(SMALL_GAUSS, encoding="utf-8")
    return p


def _hashes(out: Path) -> dict:
    return json.loads((out / "hashes.json").read_text())


def test_solve_artifacts(gauss_config, tmp_path):
    out = tmp_path / "out"
    assert main(["solve", "--config", str(gauss_config), "--out", str(out)]) == 0
    for name in ("config.resolved.ini", "surface.csv", "barriers.csv",
                 "surface.meta.json", "hashes.json", "run_info.json"):
        assert (out / name).exists()
    meta = json.loads((out / "surface.meta.json").read_text())
    assert meta["complementarity"]["passed"]
    header = (out / "surface.csv").read_text().splitlines()[0]
    assert header == "j,s,t,x,u,obstacle_gap"
    assert (out / "barriers.csv").read_text().splitlines()[0] == "j,s,x,r"


def test_solve_reproducible(gauss_config, tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    main(["solve", "--config", str(gauss_config), "--out", str(out1)])
    main(["solve", "--config", str(gauss_config), "--out", str(out2)])
    assert _hashes(out1) == _hashes(out2)


def test_limit_artifacts(gauss_config, tmp_path):
    out = tmp_path / "lim"
    assert main(["limit", "--config", str(gauss_config), "--out", str(out)]) == 0
    conv = json.loads((out / "convergence.json").read_text())
    assert conv["bounds"]["passed"]
    assert conv["pde_residual"]["passed"]
    assert not conv["outside_standing_assumptions"]
    assert len(conv["levels"]) == 2
    assert (out / "limit.csv").read_text().splitlines()[0] == "s,t,x,u,level"


def test_limit_flags_outside_assumptions(tmp_path):
    cfg = tmp_path / "scaled.ini"
    cfg.write_text(SMALL_GAUSS.replace("kind = gaussian_shift\nt0 = 1.0",
                                       "kind = scaled\ns0 = 0.0"), encoding="utf-8")
    out = tmp_path / "out"
    assert main(["limit", "--config", str(cfg), "--out", str(out)]) == 0
    conv = json.loads((out / "convergence.json").read_text())
    assert conv["outside_standing_assumptions"]


def test_verify_runs_and_is_deterministic(gauss_config, tmp_path):
    out1, out2 = tmp_path / "v1", tmp_path / "v2"
    assert main(["verify", "--config", str(gauss_config), "--out", str(out1)]) == 0
    assert main(["verify", "--config", str(gauss_config), "--out", str(out2),
                 "--threads", "4"]) == 0
    assert _hashes(out1) == _hashes(out2)
    emb = json.loads((out1 / "embedding.json").read_text())
    assert emb["failures"] == []
    assert emb["censored_fraction"] <= 1e-3


def test_verify_dump_raw(gauss_config, tmp_path):
    out = tmp_path / "raw"
    assert main(["verify", "--config", str(gauss_config), "--out", str(out),
                 "--dump-raw"]) == 0
    lines = (out / "paths.csv").read_text().splitlines()
    assert lines[0] == "path,j,sigma,b_sigma"
    assert len(lines) == 1 + 2 * 100000


def test_cmd_all(gauss_config, tmp_path):
    out = tmp_path / "all"
    assert main(["all", "--config", str(gauss_config), "--out", str(out)]) == 0
    assert (out / "solve" / "surface.csv").exists()
    assert (out / "limit" / "convergence.json").exists()
    assert (out / "verify" / "embedding.json").exists()


def test_unknown_key_rejected(tmp_path):
    cfg = tmp_path / "bad.ini"
    cfg.write_text(SMALL_GAUSS + "\n[grid]\nwhatever = 3\n", encoding="utf-8")
    # configparser merges duplicate sections; unknown key must still be caught
    cfg.write_text(SMALL_GAUSS.replace("[grid]", "[grid]\nwhatever = 3"),
                   encoding="utf-8")
    assert main(["solve", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1


def test_unknown_section_rejected(tmp_path, capsys):
    # [tolerances] is gone: the frozen tolerances are not configurable
    for section in ("mystery", "tolerances"):
        cfg = tmp_path / "bad2.ini"
        cfg.write_text(SMALL_GAUSS + f"\n[{section}]\nkey = 1\n", encoding="utf-8")
        assert main(["solve", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1
        assert f"unknown section [{section}]" in capsys.readouterr().err


def test_missing_config_and_usage_errors(tmp_path):
    assert main(["solve", "--config", str(tmp_path / "nope.ini"),
                 "--out", str(tmp_path / "o")]) == 1
    assert main(["frobnicate", "--config", "x", "--out", "y"]) == 1


def test_convex_order_violation_exits_one(tmp_path):
    # a file-backed family whose marginals shrink in convex order
    fam = tmp_path / "fam.csv"
    fam.write_text("s,position,weight\n"
                   "0.0,-1.0,0.5\n0.0,1.0,0.5\n"
                   "1.0,0.0,1.0\n", encoding="utf-8")
    cfg = tmp_path / "run.ini"
    cfg.write_text(SMALL_GAUSS.replace("kind = gaussian_shift\nt0 = 1.0",
                                       f"kind = atomic_csv\npath = fam.csv"),
                   encoding="utf-8")
    assert main(["solve", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1


def test_atomic_csv_family_end_to_end(tmp_path):
    fam = tmp_path / "fam.csv"
    fam.write_text("s,position,weight\n"
                   "0.0,0.0,1.0\n"
                   "1.0,-1.0,0.5\n1.0,1.0,0.5\n", encoding="utf-8")
    cfg = tmp_path / "run.ini"
    cfg.write_text("""
[family]
kind = atomic_csv
path = fam.csv

[grid]
t_horizon = 7.0
dx = 0.1

[partition]
n0 = 1
levels = 2

[simulation]
paths = 50000
h_sim = 0.0001
seed = 4
probe_times = 1.0
probe_x = 0.0
""", encoding="utf-8")
    # stops land exactly on the atoms, so the potential distance is sampling
    # noise alone, about twice the atom imbalance, whose standard error is
    # 0.0022 at 50000 paths: the 0.02 gate sits about 4.5 of them out
    out = tmp_path / "out"
    assert main(["verify", "--config", str(cfg), "--out", str(out)]) == 0
    emb = json.loads((out / "embedding.json").read_text())
    masses = emb["marginals"][0]["atom_masses"]
    assert abs(masses[0] - 0.5) < 0.05 and abs(masses[1] - 0.5) < 0.05


@pytest.mark.parametrize("problem", ["missing", "directory", "not utf-8"])
def test_unreadable_atomic_csv_rejected(tmp_path, capsys, problem):
    fam = tmp_path / "fam.csv"
    if problem == "directory":
        fam.mkdir()
    elif problem == "not utf-8":
        fam.write_bytes("s,position,weight\n0.0,0.0,1.0\n# poids \xe9gal\n".encode("latin-1"))
    cfg = tmp_path / "run.ini"
    cfg.write_text(SMALL_GAUSS.replace("kind = gaussian_shift\nt0 = 1.0",
                                       "kind = atomic_csv\npath = fam.csv"),
                   encoding="utf-8")
    assert main(["solve", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(fam) in err, err


@pytest.mark.parametrize("problem", ["missing", "directory", "not utf-8"])
def test_unreadable_config_rejected(tmp_path, capsys, problem):
    # one error line naming the file: no traceback, and no complaint about
    # keys of a file that was never read
    cfg = tmp_path / "run.ini"
    if problem == "directory":
        cfg.mkdir()
    elif problem == "not utf-8":
        cfg.write_bytes((SMALL_GAUSS + "; \xe9cart\n").encode("latin-1"))
    out = tmp_path / "o"
    assert main(["solve", "--config", str(cfg), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot read config file {cfg}: ") and err.count("\n") == 1, err
    assert not out.exists()


def test_resolved_config_echo(gauss_config, tmp_path):
    out = tmp_path / "echo"
    main(["solve", "--config", str(gauss_config), "--out", str(out)])
    resolved = load_config(out / "config.resolved.ini")
    assert resolved.raw == load_config(gauss_config).raw
    assert resolved.values["family"]["kind"] == "gaussian_shift"
    assert resolved.values["partition"]["n0"] == 2
    assert resolved.values["simulation"]["h_sim"] == 0.01
    assert resolved.values["simulation"]["probe_x"] == [-1.0, 0.0, 1.0]
    assert resolved.values["simulation"]["alternative"] is False


@pytest.mark.parametrize("threads", ["0", "-3"])
def test_threads_below_one_rejected(gauss_config, tmp_path, threads):
    out = tmp_path / "o"
    assert main(["all", "--config", str(gauss_config), "--out", str(out),
                 "--threads", threads]) == 1
    assert not out.exists()


def _with_settings(settings: str) -> str:
    """SMALL_GAUSS with each `key = value` of settings ("; "-separated)
    replacing that key where it stands, or added to [simulation], the last
    section."""
    lines = SMALL_GAUSS.splitlines()
    for setting in settings.split("; "):
        key = setting.split(" = ")[0]
        at = [i for i, ln in enumerate(lines) if ln.startswith(f"{key} =")]
        if at:
            lines[at[0]] = setting
        else:
            lines.append(setting)
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("command", ["verify", "all"])
@pytest.mark.parametrize("simulation", [
    "h_sim = 0.02",                  # coarser than the solver step dt = 0.01
    "h_sim = 0",
    "h_sim = -0.0025",
    "paths = 0",
    "paths = -5",
    "seed = 1e5",
    "seed = abc",
    "probe_times = 0.25,1.5",        # 1.5 lies beyond the grid horizon 1.25
    "alternative = true; alt_horizon = 0",
    "probe_x = -1.0,0.01,1.0",        # 0.01 is not a node of the dx = 0.1 grid
])
def test_simulation_inputs_rejected_before_solve(tmp_path, monkeypatch, capsys, command,
                                                 simulation):
    def no_solve(*args, **kwargs):
        raise AssertionError("solved before the simulation inputs were checked")

    monkeypatch.setattr(cli, "solve_layers", no_solve)
    monkeypatch.setattr(cli, "solve_limit", no_solve)
    cfg = tmp_path / "run.ini"
    cfg.write_text(_with_settings(simulation), encoding="utf-8")
    out = tmp_path / "o"
    assert main([command, "--config", str(cfg), "--out", str(out)]) == 1
    assert capsys.readouterr().err.startswith("error: ")
    assert not out.exists()


@pytest.mark.parametrize("command", ["solve", "all"])
@pytest.mark.parametrize("out", ["taken", "taken/sub", "dangling", "dangling/sub"])
def test_out_that_is_no_directory_rejected_before_solve(gauss_config, tmp_path, monkeypatch,
                                                        capsys, command, out):
    def no_solve(*args, **kwargs):
        raise AssertionError("solved before --out was checked")

    monkeypatch.setattr(cli, "solve_layers", no_solve)
    monkeypatch.setattr(cli, "solve_limit", no_solve)
    (tmp_path / "taken").write_text("kept\n", encoding="utf-8")
    (tmp_path / "dangling").symlink_to(tmp_path / "nowhere")
    before = sorted(tmp_path.rglob("*"))
    assert main([command, "--config", str(gauss_config), "--out", str(tmp_path / out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert sorted(tmp_path.rglob("*")) == before
    assert (tmp_path / "taken").read_text(encoding="utf-8") == "kept\n"


def test_probe_times_need_not_be_multiples_of_h_sim(tmp_path):
    # snapshots are taken at the probe times themselves: 0.25 is not a
    # multiple of h_sim = 0.004, only of the solver step dt = 0.01
    cfg = tmp_path / "run.ini"
    cfg.write_text(_with_settings("h_sim = 0.004"), encoding="utf-8")
    run = cli.Run(load_config(cfg))
    assert run.sim["probe_times"] == [0.25, 1.0] and run.grid.dt == pytest.approx(0.01)
    run.check_simulation()


# an atomic family at dx = 0.1 has dt = 0.8 dx^2 = 0.008, so the schema's
# default probe times 0.25 and 0.5 are off its dt lattice
COARSE_THREE_POINT = """
[family]
kind = three_point
p0 = 0.1
p1 = 0.3

[grid]
t_horizon = 3.0
dx = 0.1

[partition]
n0 = 4
levels = 2
"""


def test_omitted_probe_times_sit_on_the_dt_lattice(tmp_path):
    # the nearest lattice times are used and echoed, and the echoed config
    # verifies to the same embedding
    cfg = tmp_path / "run.ini"
    cfg.write_text(COARSE_THREE_POINT, encoding="utf-8")
    assert main(["all", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 0
    resolved = tmp_path / "o" / "verify" / "config.resolved.ini"
    assert "\nprobe_times = 0.248,0.496,1.0\n" in resolved.read_text(encoding="utf-8")
    again = tmp_path / "again"
    assert main(["verify", "--config", str(resolved), "--out", str(again)]) == 0
    assert ((again / "embedding.json").read_bytes()
            == (tmp_path / "o" / "verify" / "embedding.json").read_bytes())


def test_given_probe_times_off_the_dt_lattice_rejected(tmp_path, capsys):
    cfg = tmp_path / "run.ini"
    cfg.write_text(COARSE_THREE_POINT + "\n[simulation]\nprobe_times = 0.25,0.5,1.0\n",
                   encoding="utf-8")
    assert main(["all", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1
    assert "probe time=0.25 is off the grid (dt=0.008)" in capsys.readouterr().err


def test_alternative_embedding_run(tmp_path, monkeypatch):
    # the alternative gets the config's h_sim, so its allowance is the Root one's
    allowances, real = [], cli.alternative_embedding

    def spy(*args, **kwargs):
        ens = real(*args, **kwargs)
        allowances.append(ens.allowance)
        return ens

    monkeypatch.setattr(cli, "alternative_embedding", spy)
    cfg = tmp_path / "run.ini"
    cfg.write_text(_with_settings("alternative = true"), encoding="utf-8")
    outs = [tmp_path / f"threads{n}" for n in (1, 2)]
    for out, threads in zip(outs, ("1", "2")):
        assert main(["verify", "--config", str(cfg), "--out", str(out),
                     "--threads", threads]) == 0
    assert allowances == [0.2, 0.2]
    emb = [(out / "embedding.json").read_bytes() for out in outs]
    assert emb[0] == emb[1]
    payload = json.loads(emb[0])
    alt = payload["alternative"]["functionals"]
    assert sorted(alt) == ["one", "t", "t_sq"]
    for name, f in alt.items():
        assert np.isfinite(f["estimate"]) and f["stderr"] > 0.0, name
    # the randomized embedding pays more than Root for increasing weights
    for name in ("t", "t_sq"):
        assert alt[name]["estimate"] > payload["functionals"][name]["estimate"]
    # the alternative's UI proxy is recorded: E|B_sigma| against E|G| = sqrt(2 / pi)
    ui = payload["alternative"]["ui_proxy"]
    assert sorted(ui) == ["max_abs", "mean_abs", "passed", "stderr", "target"]
    assert ui["target"] == pytest.approx(math.sqrt(2.0 / math.pi), rel=1e-12)
    assert abs(ui["mean_abs"] - ui["target"]) <= 3.0 * ui["stderr"] + 0.2
    assert ui["passed"] is True and ui["max_abs"] >= ui["mean_abs"]


@pytest.mark.parametrize("section, key", [
    ("family", "base"), ("family", "growth_power"), ("family", "pieces"),
    ("simulation", "alt_h_sim"), ("grid", "lam"), ("grid", "binary_steps"),
    ("simulation", "horizon"), ("grid", "node_budget"), ("simulation", "alt_horizon"),
    ("partition", "refine_dx"),
])
def test_removed_keys_rejected(tmp_path, capsys, section, key):
    cfg = tmp_path / "run.ini"
    cfg.write_text(SMALL_GAUSS.replace(f"[{section}]", f"[{section}]\n{key} = 1"),
                   encoding="utf-8")
    assert main(["solve", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1
    assert f"unknown key '{key}'" in capsys.readouterr().err


@pytest.mark.parametrize("setting, bad", [
    ("levels = 2", "levels = three"),
    ("t0 = 1.0", "t0 = abc"),
    ("probe_times = 0.25,1.0", "probe_times = a,b"),
    ("t_horizon = 1.25", "t_horizon = nan"),
    ("t_horizon = 1.25", "t_horizon = inf"),
    ("dx = 0.1", "dx = nan"),
    ("dx = 0.1", "dx = inf"),
    ("kind = gaussian_shift\nt0 = 1.0", "kind = scaled\ns0 = inf"),
    ("probe_times = 0.25,1.0", "probe_times = 0.25,nan"),
])
def test_unparsable_values_rejected(tmp_path, capsys, setting, bad):
    cfg = tmp_path / "run.ini"
    cfg.write_text(SMALL_GAUSS.replace(setting, bad), encoding="utf-8")
    out = tmp_path / "o"
    assert main(["all", "--config", str(cfg), "--out", str(out)]) == 1
    key, value = bad.splitlines()[-1].split(" = ")
    err = capsys.readouterr().err
    assert err.startswith("error: ") and key in err and repr(value) in err
    assert not out.exists()


@pytest.mark.parametrize("command", ["solve", "limit", "verify", "all"])
@pytest.mark.parametrize("setting", ["paths = abc", "alternative = maybe", "probe_x = a,b",
                                     "seed = 1e5", "levels = 0", "n0 = 0", "paths = 0",
                                     "paths = 1"])
def test_malformed_values_rejected_by_every_command(tmp_path, monkeypatch, capsys, command,
                                                    setting):
    # a command reads every key, also those it never uses, and every count
    # within its bound
    def no_solve(*args, **kwargs):
        raise AssertionError("solved before the config was read")

    monkeypatch.setattr(cli, "solve_layers", no_solve)
    monkeypatch.setattr(cli, "solve_limit", no_solve)
    cfg = tmp_path / "run.ini"
    cfg.write_text(_with_settings(setting), encoding="utf-8")
    out = tmp_path / "o"
    assert main([command, "--config", str(cfg), "--out", str(out)]) == 1
    key, value = setting.split(" = ")
    section = next(s for s, keys in cli._SCHEMA.items() if key in keys)
    what = cli._SCHEMA[section][key][1][1]
    assert capsys.readouterr().err == f"error: [{section}] {key}: not {what}: {value!r}\n"
    assert not out.exists()


# malformed values of each schema type other than text; a count also gets
# one below its bound
MALFORMED = {cli._NUMBER: ("abc",), cli._INTEGER: ("1.5",), cli._AT_LEAST_1: ("1.5", "0"),
             cli._AT_LEAST_2: ("1.5", "1"), cli._BOOLEAN: ("maybe",), cli._NUMBERS: ("1,,2",)}


@pytest.mark.parametrize("section, key", [
    (section, key) for section, keys in cli._SCHEMA.items()
    for key, (_, kind) in keys.items() if kind is not cli._TEXT])
def test_every_typed_key_rejects_a_malformed_value(tmp_path, section, key):
    kind = cli._SCHEMA[section][key][1]
    lines = [ln for ln in SMALL_GAUSS.splitlines() if not ln.startswith(f"{key} =")]
    for bad in MALFORMED[kind]:
        text = "\n".join(lines).replace(f"[{section}]", f"[{section}]\n{key} = {bad}")
        cfg = tmp_path / "run.ini"
        cfg.write_text(text, encoding="utf-8")
        with pytest.raises(ConfigError) as exc:
            load_config(cfg)
        assert str(exc.value) == f"[{section}] {key}: not {kind[1]}: {bad!r}"


def test_empty_values(tmp_path):
    cfg = tmp_path / "run.ini"
    cfg.write_text(SMALL_GAUSS.replace("h_sim = 0.01", "h_sim =")
                   .replace("probe_times = 0.25,1.0", "probe_times ="), encoding="utf-8")
    run = cli.Run(load_config(cfg))
    assert run.sim["probe_times"] == [] and run.sim["h_sim"] is None
    # an empty h_sim takes the solver step
    assert run.h_sim == run.grid.dt
    run.check_simulation()


@pytest.mark.parametrize("config", sorted((Path(__file__).parents[1] / "configs").glob("*.ini")),
                         ids=lambda p: p.name)
def test_shipped_config_simulation_settings(config):
    cli.Run(load_config(config)).check_simulation()


@pytest.fixture()
def both_config(tmp_path):
    p = tmp_path / "both.ini"
    p.write_text(SMALL_GAUSS.replace("levels = 2", "levels = 2\nstyle = both"),
                 encoding="utf-8")
    return p


def test_all_shares_stages_with_identical_artifacts(both_config, tmp_path):
    out = tmp_path / "all"
    assert main(["all", "--config", str(both_config), "--out", str(out)]) == 0
    for sub in ("solve", "limit", "verify"):
        alone = tmp_path / sub
        assert main([sub, "--config", str(both_config), "--out", str(alone)]) == 0
        assert _hashes(out / sub) == _hashes(alone), sub


def test_partition_independence_uses_the_written_ladder(both_config, tmp_path):
    out = tmp_path / "lim"
    assert main(["limit", "--config", str(both_config), "--out", str(out)]) == 0
    rows = np.loadtxt(out / "limit.csv", delimiter=",", skiprows=1)
    lattice = [np.unique(rows[:, k]) for k in range(3)]
    uniform = rows[:, 3].reshape([a.size for a in lattice])
    ladder = (GaussianShiftFamily(1.0), 1.25, 0.1, 2, 2)
    geometric = solve_limit(*ladder, style="geometric")
    # both styles read their levels on the lattice of one coarsest grid
    solved_uniform = solve_limit(*ladder, style="uniform")
    for name in ("lattice_s", "lattice_t", "lattice_x"):
        assert np.array_equal(getattr(solved_uniform, name), getattr(geometric, name)), name
    conv = json.loads((out / "convergence.json").read_text())
    indep = conv["partition_independence"]
    assert indep["sup_distance"] == float(np.abs(uniform - geometric.values).max())
    # both finest levels share one grid, hence one scheme tolerance
    assert indep["bound"] == (conv["levels"][-1]["cauchy_diff"]
                              + geometric.cauchy_history[-1] + 2.0 * geometric.tol)


# centred two-atom law whose atoms at -1.01 and 1.03 miss every node of a
# dx = 0.05 grid
OFF_GRID_CSV = ("s,position,weight\n0.0,0.0,1.0\n"
                f"1.0,-1.01,{1.03 / 2.04!r}\n1.0,1.03,{1.01 / 2.04!r}\n")


# the config schema offers the four kinds above and no other
@pytest.mark.parametrize("command, family, dx, code, message", [
    ("solve", "kind = gaussian_shift\nt0 = 1.0", 0.1, 0, ""),
    ("solve", "kind = scaled\ns0 = 0.0", 0.05, 0, ""),
    ("limit", "kind = scaled\ns0 = 0.0", 0.05, 0, ""),
    ("solve", "kind = three_point\np0 = 0.1\np1 = 0.3", 0.05, 0, ""),
    ("solve", "kind = three_point\np0 = 0.1\np1 = 0.3", 0.03, 1, "off the grid"),
    ("solve", "kind = atomic_csv\npath = fam.csv", 0.05, 1, "off the grid"),
    ("solve", "kind = pathological", 0.05, 1, "unknown family kind 'pathological'"),
], ids=["gaussian_shift", "scaled_point_start", "scaled_point_start_limit",
        "three_point", "three_point_off_grid", "atomic_csv_off_grid", "pathological"])
def test_verdict_for_every_family_kind(tmp_path, capsys, command, family, dx, code, message):
    (tmp_path / "fam.csv").write_text(OFF_GRID_CSV, encoding="utf-8")
    cfg = tmp_path / "run.ini"
    cfg.write_text(f"[family]\n{family}\n\n[grid]\nt_horizon = 1.25\ndx = {dx}\n\n"
                   "[partition]\nn0 = 4\nlevels = 2\n\n[simulation]\nprobe_times =\n",
                   encoding="utf-8")
    assert main([command, "--config", str(cfg), "--out", str(tmp_path / "o")]) == code
    err = capsys.readouterr().err
    assert ("error: " in err) == (code == 1) and message in err, err


def test_ladder_atoms_checked_before_any_solve(tmp_path, monkeypatch, capsys):
    # dx = 0.1 holds the atoms at -1, 0 and 1, but the coarsest ladder step
    # 0.1 * 2^(3-1) = 0.4 does not
    cfg = tmp_path / "run.ini"
    cfg.write_text("[family]\nkind = three_point\np0 = 0.1\np1 = 0.3\n\n"
                   "[grid]\nt_horizon = 1.25\ndx = 0.1\n\n"
                   "[partition]\nn0 = 4\nlevels = 3\n\n[simulation]\nprobe_times =\n",
                   encoding="utf-8")
    assert main(["solve", "--config", str(cfg), "--out", str(tmp_path / "solve")]) == 0

    def no_solve(*args, **kwargs):
        raise AssertionError("solved before the ladder atoms were checked")

    monkeypatch.setattr(cli, "solve_layers", no_solve)
    monkeypatch.setattr(limit_solver, "solve_layers", no_solve)
    capsys.readouterr()
    for command in ("limit", "all"):
        out = tmp_path / command
        assert main([command, "--config", str(cfg), "--out", str(out)]) == 1
        assert "off the grid (dx=0.4)" in capsys.readouterr().err
        assert not out.exists()


@pytest.mark.parametrize("n0, commands", [(20000, ("solve", "limit", "verify", "all")),
                                          (2000, ("limit", "all"))])
def test_over_budget_solves_rejected_before_any_solve(tmp_path, monkeypatch, capsys, n0,
                                                      commands):
    # gaussian.ini at n0 = 20000 would hold a 4.2 GB rolling buffer for its
    # own solve; at n0 = 2000 its own solve fits, but not the finest ladder
    # level of 8000 layers
    text = (Path(__file__).parents[1] / "configs" / "gaussian.ini").read_text(encoding="utf-8")
    cfg = tmp_path / "run.ini"
    cfg.write_text(text.replace("n0 = 4", f"n0 = {n0}"), encoding="utf-8")

    def no_solve(*args, **kwargs):
        raise AssertionError("a solve started")

    monkeypatch.setattr(stop_solver, "convex_order_validate", no_solve)
    monkeypatch.setattr(stop_solver, "ScanKernel", no_solve)
    for command in commands:
        out = tmp_path / command
        assert main([command, "--config", str(cfg), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: a solve of ") and err.count("\n") == 1, err
        assert "budget 150000000" in err
        assert not out.exists()


# the first 16 hex digits of the SHA-256 of each command's hashes.json, in
# the order solve, limit, verify (numpy 2.4.6, Python 3.11.7)
SHIPPED_HASHES = {
    "gaussian.ini": ("e05fd6d88ddfd675", "631d9a3c7941a79c", "6fdd1e8c144cc38b"),
    "three_point.ini": ("559858f815a42f7a", "cbd134a63cf1aff2", "6addf8b1f8d44553"),
    "two_atom.ini": ("6d017d39dc5909da", "bb1a914eff3d3a6c", "5dd08522e6e1ee4d"),
}


@pytest.mark.parametrize("config", sorted(SHIPPED_HASHES))
def test_shipped_config_verdict(tmp_path, config):
    """Each shipped config passes, and writes the pinned artifact bytes.

    A change that moves a random stream or a computed value moves these
    pins: update them with it, and say why in CHANGES.md."""
    path = Path(__file__).parents[1] / "configs" / config
    out = tmp_path / "o"
    assert main(["all", "--config", str(path), "--out", str(out), "--threads", "2"]) == 0
    digests = tuple(hashlib.sha256((out / sub / "hashes.json").read_bytes()).hexdigest()[:16]
                    for sub in ("solve", "limit", "verify"))
    assert digests == SHIPPED_HASHES[config]


def _first_marginal_failed(fit):
    fit.marginals[0]["passed"] = False
    return fit


# per command: the check that `_fail` spoils, how, and what the verdict names
FAILED_CHECKS = {
    "solve": ("complementarity_check",
              lambda report: dataclasses.replace(report, max_min_residual=2.0 * report.tol),
              "complementarity residual"),
    "limit": ("bounds_check", lambda bounds: {**bounds, "passed": False}, "bounds violation"),
    "verify": ("marginal_fit", _first_marginal_failed, "marginal fit at j=1"),
}


def _fail(monkeypatch, command):
    """Make `command`'s check fail, and return what its verdict names."""
    name, spoil, check = FAILED_CHECKS[command]
    real = getattr(cli, name)
    monkeypatch.setattr(cli, name, lambda *args, **kwargs: spoil(real(*args, **kwargs)))
    return check


@pytest.mark.parametrize("command", sorted(FAILED_CHECKS))
def test_failed_check_exits_two(gauss_config, tmp_path, monkeypatch, capsys, command):
    # a failed run still writes its artifacts, hashes and run info
    check = _fail(monkeypatch, command)
    out = tmp_path / command
    assert main([command, "--config", str(gauss_config), "--out", str(out)]) == 2
    assert check in capsys.readouterr().out.splitlines()[-1]
    assert (out / "hashes.json").exists() and (out / "run_info.json").exists()


def test_failed_check_in_all_exits_two(gauss_config, tmp_path, monkeypatch, capsys):
    check = _fail(monkeypatch, "limit")
    out = tmp_path / "all"
    assert main(["all", "--config", str(gauss_config), "--out", str(out)]) == 2
    assert check in capsys.readouterr().out
    for sub in ("solve", "limit", "verify"):
        assert (out / sub / "hashes.json").exists(), sub


def test_readme_key_block_matches_the_schema():
    """README's key block lists every section, key and default of the schema.

    A key shown without `= default` is required (default None) or may stay
    empty (default "")."""
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    intro = f"The {sum(map(len, cli._SCHEMA.values()))} keys, with their defaults"
    assert intro in readme
    block = readme.split(intro, 1)[1].split("```")[1]
    documented = {}
    for line in block.strip().splitlines():
        if line.startswith("["):
            section, line = line[1:].split("]", 1)
            documented[section] = {}
        for entry in re.split(r",\s+", line.strip().rstrip(",")):
            key, _, default = entry.partition(" = ")
            documented[section][key] = default
    assert list(documented) == list(cli._SCHEMA)
    for section, keys in cli._SCHEMA.items():
        assert list(documented[section]) == list(keys), section
        for key, (default, _) in keys.items():
            assert documented[section][key] == (default or ""), (section, key)
