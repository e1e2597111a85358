"""Spans and work counters recorded around rootsep's public functions.

Nothing under `src/` is edited: `instrument` replaces module and class
attributes of the imported package with wrappers and puts the originals back
when it exits.  A function imported by name into several modules (for
example `solve_layers` into `cli` and `limit_solver`) is replaced in every
module that holds it, so calls between layers are seen too.

Two levels exist.  The counting level, used by every timed run, wraps only
the few coarse calls whose exact work counts the benchmark reports
(`solve_layers`, the two simulators and the simulator's random streams).
The tracing level adds a span at every layer boundary.

Each span records name, start, end, parent and operation id.  Every thread
keeps its own span stack; a span opened on a worker thread with an empty
stack takes as parent the span open on the main thread, which is the call
that started the worker.  Spans stay in memory until the run ends.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import json
import sys
import threading
import time
from collections import defaultdict

import numpy as np

# functions wrapped with a span at the tracing level: (module, attribute, span)
TRACED_FUNCTIONS = [
    ("rootsep.cli", "main", "cli.main"),
    ("rootsep.cli", "cmd_all", "cli.cmd_all"),
    ("rootsep.cli", "cmd_solve", "cli.cmd_solve"),
    ("rootsep.cli", "cmd_limit", "cli.cmd_limit"),
    ("rootsep.cli", "cmd_verify", "cli.cmd_verify"),
    ("rootsep.io", "write_surface_csv", "io.write_surface_csv"),
    ("rootsep.io", "write_limit_csv", "io.write_limit_csv"),
    ("rootsep.io", "write_json", "io.write_json"),
    ("rootsep.io", "sha256_file", "io.sha256_file"),
    ("rootsep.barriers", "extract", "barriers.extract"),
    ("rootsep.barriers", "write_barriers_csv", "barriers.write_barriers_csv"),
    ("rootsep.stop_solver", "complementarity_check", "stop_solver.complementarity_check"),
    ("rootsep.limit_solver", "pde_residual", "limit_solver.checks"),
    ("rootsep.limit_solver", "bounds_check", "limit_solver.checks"),
    ("rootsep.limit_solver", "regularity_report", "limit_solver.checks"),
    ("rootsep.simulator", "marginal_fit", "simulator.fit"),
    ("rootsep.simulator", "empirical_potential", "simulator.fit"),
    ("rootsep.simulator", "optimality_functional", "simulator.fit"),
    ("rootsep.marginals", "assumption_check", "marginals.assumption_check"),
]

# spans whose process CPU time is recorded as well
CPU_SPANS = {"limit_solver.partition_independence", "simulator.simulate_root"}


class Recorder:
    """Spans and counters of one benchmark process."""

    def __init__(self):
        self.spans = []           # [name, start, end, parent, op, cpu_start, cpu_end]
        self.counts = defaultdict(int)
        self.op = None
        self.tracing = False
        self._lock = threading.Lock()
        self._local = threading.local()
        self._main_stack = self._stack()
        self._solved = set()
        self._levels = defaultdict(int)

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin_op(self, op: int, tracing: bool) -> None:
        self.op = op
        self.tracing = tracing
        self.counts = defaultdict(int)
        self._solved = set()
        self._levels = defaultdict(int)

    def end_op(self) -> dict:
        self.tracing = False
        return dict(self.counts)

    def add(self, key: str, value) -> None:
        with self._lock:
            self.counts[key] += value

    def open(self, name: str) -> int:
        stack = self._stack()
        if stack:
            parent = stack[-1]
        else:
            parent = self._main_stack[-1] if self._main_stack else None
        cpu = time.process_time() if name in CPU_SPANS else None
        rec = [name, time.perf_counter(), None, parent, self.op, cpu, None]
        with self._lock:
            sid = len(self.spans)
            self.spans.append(rec)
        stack.append(sid)
        return sid

    def close(self, sid: int) -> None:
        rec = self.spans[sid]
        rec[2] = time.perf_counter()
        if rec[5] is not None:
            rec[6] = time.process_time()
        self._stack().pop()

    @contextlib.contextmanager
    def span(self, name: str):
        sid = self.open(name)
        try:
            yield sid
        finally:
            self.close(sid)

    def inside(self, name: str) -> bool:
        stack = self._stack()
        return bool(stack) and self.spans[stack[-1]][0] == name

    def level_index(self) -> int:
        """Next refinement level under the innermost open span of this thread."""
        stack = self._stack()
        parent = stack[-1] if stack else None
        with self._lock:
            k = self._levels[parent]
            self._levels[parent] = k + 1
        return k

    def op_spans(self, op: int) -> list:
        return [(sid, *rec) for sid, rec in enumerate(self.spans) if rec[4] == op]

    def dump(self, path) -> None:
        rows = [{"id": sid, "name": r[0], "start": r[1], "end": r[2], "parent": r[3],
                 "op": r[4]} for sid, r in enumerate(self.spans)]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(rows, fh)


class CountingStream:
    """Delegating proxy around a numpy Generator that counts normals drawn."""

    def __init__(self, rng, recorder: Recorder):
        self._rng = rng
        self._recorder = recorder

    def standard_normal(self, *args, **kwargs):
        out = self._rng.standard_normal(*args, **kwargs)
        self._recorder.add("simulator.normals_drawn", int(np.size(out)))
        return out

    def normal(self, *args, **kwargs):
        out = self._rng.normal(*args, **kwargs)
        self._recorder.add("simulator.normals_drawn", int(np.size(out)))
        return out

    def __getattr__(self, name):
        return getattr(self._rng, name)


def _wrap(rec: Recorder, fn, name: str, after=None):
    """Call `fn` inside a span `name` (when tracing) and then run `after`.

    A call made while a span of the same name is innermost on this thread
    (a method deferring to another implementation of itself) is neither
    spanned nor counted again.
    """

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if not rec.tracing:
            out = fn(*args, **kwargs)
        elif rec.inside(name):
            return fn(*args, **kwargs)
        else:
            with rec.span(name):
                out = fn(*args, **kwargs)
        if after is not None:
            after(args, kwargs, out)
        return out

    return wrapper


def _rootsep_modules():
    return [m for k, m in list(sys.modules.items())
            if m is not None and (k == "rootsep" or k.startswith("rootsep."))]


class _Patcher:
    def __init__(self):
        self._undo = []

    def set(self, owner, attr, value):
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def everywhere(self, original, value):
        """Replace every module-level reference to `original` in the package."""
        for mod in _rootsep_modules():
            for attr, held in list(vars(mod).items()):
                if held is original:
                    self.set(mod, attr, value)

    def restore(self):
        for owner, attr, value in reversed(self._undo):
            setattr(owner, attr, value)
        self._undo.clear()


def _counting_hooks(rec: Recorder):
    from rootsep import stop_solver

    solve_sig = inspect.signature(stop_solver.solve_layers)

    def after_solve(args, kwargs, surface):
        bound = solve_sig.bind(*args, **kwargs)
        family = bound.arguments["family"]
        part = bound.arguments["partition"]
        grid = bound.arguments["grid"]
        keep = bound.arguments.get("keep_times")
        key = (json.dumps(family.descriptor(), sort_keys=True, default=str),
               part.points.tobytes(),
               json.dumps(grid.descriptor(), sort_keys=True, default=str),
               None if keep is None else np.unique(np.asarray(keep, dtype=float)).tobytes())
        with rec._lock:
            rec.counts["stop_solver.solve_layers.calls"] += 1
            rec.counts["stop_solver.solve_layers.repeat_calls"] += key in rec._solved
            rec._solved.add(key)
            rec.counts["stop_solver.node_updates"] += part.n * grid.nt * (grid.nx - 1)
            panels = 2 * (grid.nt + 1) * (grid.nx + 1) * 8
            rec.counts["stop_solver.panel_bytes"] = max(rec.counts["stop_solver.panel_bytes"],
                                                        panels)

    def after_simulation(args, kwargs, ens):
        stop = ens.sigma[ens.n]
        done = np.isfinite(stop)
        censored = int(np.count_nonzero(~done))
        steps = int(np.rint(stop[done] / ens.h_sim).sum()) \
            + censored * int(round(ens.horizon / ens.h_sim))
        held = ens.sigma.nbytes + ens.b_sigma.nbytes + ens.x0.nbytes + ens.censored.nbytes \
            + sum(v.nbytes for v in ens.snapshots.values())
        with rec._lock:
            rec.counts["simulator.path_steps"] += steps
            rec.counts["simulator.censored_paths"] += censored
            rec.counts["simulator.paths"] += ens.M
            rec.counts["simulator.ensemble_bytes"] = max(
                rec.counts["simulator.ensemble_bytes"], held)

    return after_solve, after_simulation


@contextlib.contextmanager
def instrument(rec: Recorder, tracing: bool):
    """Wrap the package for the duration of the block.

    Counting hooks are always installed; spans and the per-call counters of
    the tracing level only when `tracing` is set.
    """
    from rootsep import simulator, stop_solver

    patch = _Patcher()
    after_solve, after_simulation = _counting_hooks(rec)
    try:
        solve = _wrap(rec, stop_solver.solve_layers, "stop_solver.solve_layers", after_solve)
        patch.everywhere(stop_solver.solve_layers, solve)
        for attr in ("simulate_root", "alternative_embedding"):
            orig = getattr(simulator, attr)
            patch.everywhere(orig, _wrap(rec, orig, f"simulator.{attr}", after_simulation))
        make_stream = simulator.make_stream
        patch.set(simulator, "make_stream",
                  functools.wraps(make_stream)(
                      lambda *a, **k: CountingStream(make_stream(*a, **k), rec)))
        if tracing:
            _install_tracing(rec, patch, solve)
        yield rec
    finally:
        patch.restore()


def _install_tracing(rec: Recorder, patch: _Patcher, solve) -> None:
    from rootsep import barriers, grid, limit_solver, marginals

    for module, attr, name in TRACED_FUNCTIONS:
        orig = getattr(sys.modules[module], attr)
        patch.everywhere(orig, _wrap(rec, orig, name))

    def count(key, value=1):
        return lambda args, kwargs, out: rec.add(key, value)

    for module, attr, name in (
            (limit_solver, "solve_limit", "limit_solver.solve_limit"),
            (limit_solver, "partition_independence", "limit_solver.partition_independence"),
            (marginals, "convex_order_validate", "marginals.convex_order_validate"),
            (grid, "make_grid", "grid.make_grid")):
        orig = getattr(module, attr)
        patch.everywhere(orig, _wrap(rec, orig, name, count(f"{name}.calls")))

    # one span per solve_layers call made by the refinement ladder
    def level(*args, **kwargs):
        with rec.span(f"limit_solver.level{rec.level_index()}"):
            return solve(*args, **kwargs)

    patch.set(limit_solver, "solve_layers", functools.wraps(solve)(level))

    def arg(args, kwargs, pos, name):
        return args[pos] if len(args) > pos else kwargs[name]

    def after_lookup(args, kwargs, out):
        x = np.asarray(arg(args, kwargs, 2, "x"))
        rec.add("barriers.lookup.rows", int(x.shape[0]) if x.ndim else 1)
        rec.add("barriers.lookup.points", int(x.size))

    def after_range_min(args, kwargs, out):
        rec.add("barriers.range_min.spans", int(np.size(arg(args, kwargs, 2, "x_lo"))))

    cls = barriers.BarrierFamily
    patch.set(cls, "lookup", _wrap(rec, cls.__dict__["lookup"], "barriers.lookup", after_lookup))
    patch.set(cls, "range_min",
              _wrap(rec, cls.__dict__["range_min"], "barriers.range_min", after_range_min))

    def after_potential(args, kwargs, out):
        rec.add("marginals.potential.points", int(np.size(arg(args, kwargs, 2, "x"))))

    for cls in vars(marginals).values():
        if isinstance(cls, type) and issubclass(cls, marginals.MarginalFamily) \
                and "potential" in cls.__dict__:
            patch.set(cls, "potential",
                      _wrap(rec, cls.__dict__["potential"], "marginals.potential",
                            after_potential))


def self_times(spans) -> dict:
    """Self time of every span of one operation, by span id.

    At each instant the elapsed time goes to the innermost open spans (open
    spans with no open child), split equally when several run at once on
    different threads.  Without concurrency this is each span's duration
    minus the part covered by its children, and the self times of all spans
    add up to the duration of the outermost span.
    """
    parent = {s[0]: s[4] for s in spans}
    events = []
    for sid, _name, start, end, *_ in spans:
        events.append((start, 1, sid))
        events.append((end, 0, -sid))
    events.sort()
    open_children = defaultdict(int)
    active, frontier = set(), set()
    own = defaultdict(float)
    last = None
    for t, kind, key in events:
        if last is not None and frontier:
            share = (t - last) / len(frontier)
            for sid in frontier:
                own[sid] += share
        last = t
        sid = key if kind else -key
        p = parent[sid]
        if kind:
            active.add(sid)
            frontier.add(sid)
            if p in active:
                open_children[p] += 1
                frontier.discard(p)
        else:
            active.discard(sid)
            frontier.discard(sid)
            if p in active:
                open_children[p] -= 1
                if open_children[p] == 0:
                    frontier.add(p)
    return own


def span_totals(spans) -> dict:
    """Per span name: summed self time, wall time and CPU time of one operation."""
    own = self_times(spans)
    out = defaultdict(lambda: {"self_s": 0.0, "wall_s": 0.0, "cpu_s": 0.0, "count": 0})
    for sid, name, start, end, _parent, _op, c0, c1 in spans:
        row = out[name]
        row["self_s"] += own.get(sid, 0.0)
        row["wall_s"] += end - start
        if c0 is not None:
            row["cpu_s"] += c1 - c0
        row["count"] += 1
    return dict(out)
