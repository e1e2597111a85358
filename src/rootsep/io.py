"""Artifact writers: plot-ready CSVs, JSON sidecars, content hashes.

All CSVs use '.' decimals, LF line endings, and a header line.  JSON is
written with sorted keys so identical runs produce identical bytes; wall
clock data goes to a separate unhashed file.
"""

from __future__ import annotations

import hashlib
import json

import numpy as np


def _fmt_all(values) -> list:
    """`.17g` text of each value; non-finite values read `inf`, `-inf`, `nan`."""
    return [format(v, ".17g") for v in np.asarray(values, dtype=float).tolist()]


def write_surface_csv(surface, path) -> None:
    """Rows `j,s,t,x,u,obstacle_gap`, row-major in (j, t, x), kept rows only."""
    xs = _fmt_all(surface.x_nodes())
    ts = _fmt_all(surface.t_kept)
    gaps = surface.obstacle_gap()
    zeros = ["0"] * len(xs)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("j,s,t,x,u,obstacle_gap\n")
        for j, s in enumerate(_fmt_all(surface.partition.points)):
            for ti, t in enumerate(ts):
                head = f"{j},{s},{t},"
                g_row = _fmt_all(gaps[j - 1, ti]) if j >= 1 else zeros
                fh.writelines(f"{head}{x},{u},{g}\n" for x, u, g
                              in zip(xs, _fmt_all(surface.layers[j, ti]), g_row))


def write_limit_csv(limit, path) -> None:
    """Rows `s,t,x,u,level` for the finest refinement level."""
    level = limit.history[-1]["n"]
    xs = _fmt_all(limit.lattice_x)
    ts = _fmt_all(limit.lattice_t)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("s,t,x,u,level\n")
        for a, s in enumerate(_fmt_all(limit.lattice_s)):
            for b, t in enumerate(ts):
                head = f"{s},{t},"
                fh.writelines(f"{head}{x},{u},{level}\n" for x, u
                              in zip(xs, _fmt_all(limit.values[a, b])))


def write_paths_csv(ensemble, path) -> None:
    """Raw dump `path,j,sigma,b_sigma`; gate behind an explicit flag upstream."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("path,j,sigma,b_sigma\n")
        for j in range(1, ensemble.n + 1):
            fh.writelines(f"{i},{j},{sg},{bs}\n" for i, (sg, bs) in enumerate(
                zip(_fmt_all(ensemble.sigma[j]), _fmt_all(ensemble.b_sigma[j]))))


def write_json(obj, path) -> None:
    """obj, made JSON-safe (`_jsonable`), as sorted, indented JSON."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(_jsonable(obj), fh, sort_keys=True, indent=2, allow_nan=True)
        fh.write("\n")


def sha256_file(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def _jsonable(obj):
    """Recursively convert numpy scalars/arrays for JSON output."""
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_jsonable(v) for v in obj.tolist()]
    if isinstance(obj, (np.floating, float)):
        v = float(obj)
        if np.isinf(v):
            return "inf" if v > 0 else "-inf"
        if np.isnan(v):
            return "nan"
        return v
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.bool_,)):
        return bool(obj)
    return obj
