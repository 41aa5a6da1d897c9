"""Per-layer tracing for the benchmark's traced run.

The layers are the program's modules. ``install`` wraps public functions
and methods of each module from outside (the program is not changed): each
call inside a benchmark op span becomes a span with its duration and the
time covered by its traced children, aggregated in memory. A hook whose
target no longer exists is recorded in ``Tracer.missing`` and skipped.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import statistics
import sys
import time
from collections import Counter, defaultdict
from contextlib import contextmanager

PACKAGE = "dissipative_spins"


def _n_sites_arg(args, kwargs):
    return "n%d" % kwargs.get("n_sites", args[1] if len(args) > 1 else 0)


def _n_sites_dim(args, kwargs):
    liou = kwargs.get("liou", args[0] if args else None)
    return "n%d" % (getattr(liou, "dim", 1).bit_length() - 1)


def _matrix_bytes(result):
    mat = result.matrix
    # dense array, or the three storage arrays of a scipy.sparse matrix
    parts = [mat] if hasattr(mat, "nbytes") else [mat.data, mat.indices, mat.indptr]
    return sum(part.nbytes for part in parts)


def _rk4_steps(args, kwargs, fn):
    bound = inspect.signature(fn).bind(*args, **kwargs)
    bound.apply_defaults()
    # full and effective dynamics are each integrated by fixed-step RK4
    return 2 * int(round(bound.arguments["t_max"] / bound.arguments["dt"]))


# (layer module, public name, tag from the call's arguments)
HOOKS = (
    ("cli", "cmd_sweep", None),
    ("cli", "cmd_oracle", None),
    ("variational", "CompiledBond.__init__", None),
    ("variational", "CompiledBond.norm", None),
    ("variational", "minimize_norm", None),
    ("variational", "landau_expansion", None),
    ("variational", "fit_critical", None),
    ("models", "dissipative_heisenberg", None),
    ("operators", "embed", None),
    ("liouville", "ring_liouvillian", _n_sites_arg),
    ("liouville", "steady_states", _n_sites_dim),
    ("effective", "effective_hamiltonian", None),
    ("effective", "effective_jumps", None),
    ("effective", "validate_elimination", None),
    ("opformat", "parse_problem_text", None),
)


class Stat:
    __slots__ = ("calls", "total", "self_total", "durations")

    def __init__(self):
        self.calls = 0
        self.total = 0.0
        self.self_total = 0.0
        self.durations = []


class Tracer:
    """Spans kept in memory: per-name call counts, total and self times."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.stack = []               # open frames: [name, time of traced children]
        self.stats = defaultdict(Stat)
        self.counters = Counter()     # counts read off results and outputs
        self.missing = []
        self._undo = []

    @contextmanager
    def span(self, name: str):
        frame = [name, 0.0]
        self.stack.append(frame)
        t0 = self.clock()
        try:
            yield
        finally:
            self._close(frame, self.clock() - t0)

    def _close(self, frame, duration):
        self.stack.pop()
        name = frame[0]
        stat = self.stats[name]
        stat.calls += 1
        stat.total += duration
        stat.self_total += duration - frame[1]
        stat.durations.append(duration)
        if self.stack:
            self.stack[-1][1] += duration

    def _wrap(self, fn, name, tag):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.stack:  # outside a benchmark op: checks, reference kernel
                return fn(*args, **kwargs)
            key = f"{name}.{tag(args, kwargs)}" if tag else name
            frame = [key, 0.0]
            tracer.stack.append(frame)
            t0 = tracer.clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(frame, tracer.clock() - t0)
            try:
                tracer._note(name, key, fn, args, kwargs, result)
            except Exception:  # a changed result or signature loses a count, not the op
                if f"{name} (result)" not in tracer.missing:
                    tracer.missing.append(f"{name} (result)")
            return result

        return traced

    def _note(self, name, key, fn, args, kwargs, result):
        if name == "variational.minimize_norm":
            self.counters["variational.restarts_used"] += getattr(result, "restarts_used", 0)
        elif name == "liouville.ring_liouvillian":
            self.counters[f"liouville.generator_bytes.{key.rsplit('.', 1)[1]}"] = _matrix_bytes(result)
        elif name == "effective.validate_elimination":
            self.counters["effective.rk4_steps"] += _rk4_steps(args, kwargs, fn)

    def install(self, hooks=HOOKS):
        """Wrap every hook target; a target that is gone is only recorded."""
        modules = [m for n, m in list(sys.modules.items())
                   if n == PACKAGE or n.startswith(PACKAGE + ".")]
        for layer, qualname, tag in hooks:
            name = f"{layer}.{qualname}"
            try:
                module = importlib.import_module(f"{PACKAGE}.{layer}")
                owner, attr = module, qualname
                if "." in qualname:
                    cls_name, attr = qualname.split(".")
                    owner = getattr(module, cls_name)
                original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
            except (ImportError, AttributeError, KeyError):
                self.missing.append(name)
                continue
            traced = self._wrap(original, name, tag)
            targets = [owner] if isinstance(owner, type) else [
                m for m in modules + [module] if getattr(m, attr, None) is original]
            for target in set(targets):
                setattr(target, attr, traced)
                self._undo.append((target, attr, original))

    def uninstall(self):
        for target, attr, original in reversed(self._undo):
            setattr(target, attr, original)
        self._undo.clear()

    # -- per-layer metrics ------------------------------------------------

    def _calls(self, name):
        return self.stats[name].calls if name in self.stats else 0

    def _mean(self, *names, scale=1e3):
        """Mean time per call of names[0], counting the time of all names."""
        calls = self._calls(names[0])
        return scale * sum(self.stats[n].total for n in names if n in self.stats) / calls if calls else None

    def _p50_ms(self, name):
        return 1e3 * statistics.median(self.stats[name].durations) if self._calls(name) else None

    def _self_ms(self, name):
        return 1e3 * self.stats[name].self_total / self._calls(name) if self._calls(name) else None

    def _per(self, count, name):
        return count / self._calls(name) if self._calls(name) else None

    def layer_metrics(self) -> dict:
        """Per-layer values; None where this run never reached the layer."""
        norm, compile_ = "variational.CompiledBond.norm", "variational.CompiledBond.__init__"
        ops = self._calls("op")
        return {
            "variational.norm_us": self._mean(norm, scale=1e6),
            "variational.norm_evals": self._calls(norm) / ops if self._calls(norm) else None,
            "variational.compile_ms": self._mean(compile_),
            "variational.compiles": self._calls(compile_) / ops if self._calls(compile_) else None,
            "variational.minimize_ms.p50": self._p50_ms("variational.minimize_norm"),
            "variational.minimize_self_ms": self._self_ms("variational.minimize_norm"),
            "variational.restarts_used": self._per(
                self.counters["variational.restarts_used"], "variational.minimize_norm"),
            "variational.landau_ms.p50": self._p50_ms("variational.landau_expansion"),
            "variational.landau_self_ms": self._self_ms("variational.landau_expansion"),
            "variational.fit_ms": self._mean("variational.fit_critical"),
            "cli.sweep_points": self._per(self.counters["cli.sweep_points"], "cli.cmd_sweep"),
            "cli.refine_points": self._per(self.counters["cli.refine_points"], "cli.cmd_sweep"),
            "cli.sweep_self_ms": self._self_ms("cli.cmd_sweep"),
            "cli.oracle_self_ms": self._self_ms("cli.cmd_oracle"),
            "models.build_us": self._mean("models.dissipative_heisenberg", scale=1e6),
            "operators.embed_ms": (1e3 * self.stats["operators.embed"].total / ops
                                   if self._calls("operators.embed") else None),
            "liouville.build_ms.n4": self._mean("liouville.ring_liouvillian.n4"),
            "liouville.build_ms.n5": self._mean("liouville.ring_liouvillian.n5"),
            "liouville.kernel_ms.n4": self._mean("liouville.steady_states.n4"),
            "liouville.kernel_ms.n5": self._mean("liouville.steady_states.n5"),
            "liouville.generator_mb.n5": (self.counters["liouville.generator_bytes.n5"] / 2**20
                                          if self._calls("liouville.ring_liouvillian.n5") else None),
            "effective.eliminate_ms": self._mean(
                "effective.effective_hamiltonian", "effective.effective_jumps"),
            "effective.validate_ms": self._mean("effective.validate_elimination"),
            "effective.rk4_steps": self._per(
                self.counters["effective.rk4_steps"], "effective.validate_elimination"),
            "opformat.parse_ms": self._mean("opformat.parse_problem_text"),
        }


def unit(metric: str) -> str:
    """Unit of a per-layer metric, read off its name (``_us``, ``_ms``, ``_mb``)."""
    base = metric.split(".")[1]
    for suffix, name in (("_us", "us"), ("_ms", "ms"), ("_mb", "MB")):
        if base.endswith(suffix):
            return name
    return "count"
