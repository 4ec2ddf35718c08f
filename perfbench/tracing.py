"""Span tracing of the hyperdiff package from outside it.

``Tracer.install`` replaces every public function of the package's layer
modules at every module-global binding that refers to it, including the
names other modules bound with ``from ... import``, so that calls between
modules pass through a timing wrapper. Each wrapped call records a span:
name, start, end, parent span and job id, kept in flat arrays in memory and
written out at the end. The generator ``norm_plm_blocks`` is timed per
``next()``, and the integrand handed to ``integrate_vector`` is wrapped so its
evaluations are counted and attributed to the module that defined it.

The runner installs the wrappers around the timed part of each job only, so
output checks are never recorded.
"""

from __future__ import annotations

import importlib
import inspect
import math
from array import array
from time import perf_counter

import numpy as np

# Layer modules, in the order the per-layer report lists them. The layer
# name of ``_quad`` drops the underscore so metric names start with a letter.
LAYER_MODULES = ("measure", "special", "kernel", "_quad", "spectrum",
                 "covariance", "field_sim", "entropy1d", "cli")
LAYER_NAMES = tuple(m.lstrip("_") for m in LAYER_MODULES)
_ALL_MODULES = ("hyperdiff",) + tuple(f"hyperdiff.{m}" for m in LAYER_MODULES)

# Functions whose outermost spans each draw field realisations.
_REALISATION_SPANS = ("field_sim.simulate_coefficients",
                      "field_sim.simulate_ensemble",
                      "field_sim.truncation_error_mc")


class Tracer:
    """Records spans and counters while installed."""

    def __init__(self):
        self.job = -1
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.start = array("d")
        self.end = array("d")
        self.name = array("i")
        self.parent = array("i")
        self.job_of = array("i")
        self._stack: list[int] = [-1]
        self.counts: dict[str, float] = {}
        self._tail_depth = 0
        self._bindings: list[tuple[object, str, object, object]] | None = None

    # --- span recording ---

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _open(self, name_id: int) -> int:
        idx = len(self.start)
        self.name.append(name_id)
        self.parent.append(self._stack[-1])
        self.job_of.append(self.job)
        self.end.append(math.nan)
        self._stack.append(idx)
        self.start.append(perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = perf_counter()
        self._stack.pop()

    def count(self, key: str, amount: float = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + amount

    # --- wrappers ---

    def _wrap_function(self, fn, name: str):
        name_id = self._name_id(name)
        before = _BEFORE.get(name)
        after = _AFTER.get(name)
        tracer = self

        def traced(*args, **kwargs):
            if before is not None:
                args, kwargs = before(tracer, args, kwargs)
            idx = tracer._open(name_id)
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                tracer._close(idx)
                tracer.count(f"{name}.raised.{type(exc).__name__}")
                if after is not None:
                    after(tracer, args, kwargs, None)
                raise
            tracer._close(idx)
            if after is not None:
                after(tracer, args, kwargs, result)
            return result

        return traced

    def _wrap_generator(self, fn, name: str):
        name_id = self._name_id(name)
        tracer = self

        def traced(*args, **kwargs):
            tracer.count(f"{name}.calls")
            inner = fn(*args, **kwargs)
            while True:
                idx = tracer._open(name_id)
                try:
                    item = next(inner)
                except StopIteration:
                    return
                finally:
                    tracer._close(idx)
                yield item

        return traced

    def wrap_integrand(self, f):
        """Count evaluations of a quadrature integrand and time them as a span
        of the layer whose module defined it."""
        layer = f.__module__.rsplit(".", 1)[-1].lstrip("_")
        name_id = self._name_id(f"{layer}.integrand")
        tracer = self

        def integrand(*args, **kwargs):
            tracer.count("quad.integrand_evals")
            idx = tracer._open(name_id)
            try:
                return f(*args, **kwargs)
            finally:
                tracer._close(idx)

        return integrand

    # --- installation ---

    def _bind(self) -> list[tuple[object, str, object, object]]:
        """(module, attribute, original, wrapper) for every module-global
        binding in the package of a layer's public function."""
        wrappers: dict[int, object] = {}
        for mod_name, layer in zip(LAYER_MODULES, LAYER_NAMES):
            module = importlib.import_module(f"hyperdiff.{mod_name}")
            for attr, value in vars(module).items():
                if (attr.startswith("_") or not inspect.isfunction(value)
                        or value.__module__ != module.__name__):
                    continue
                wrap = (self._wrap_generator if inspect.isgeneratorfunction(value)
                        else self._wrap_function)
                wrappers[id(value)] = wrap(value, f"{layer}.{attr}")
        return [(module, attr, value, wrappers[id(value)])
                for module in map(importlib.import_module, _ALL_MODULES)
                for attr, value in vars(module).items() if id(value) in wrappers]

    def install(self) -> None:
        if self._bindings is None:
            self._bindings = self._bind()
        for module, attr, _, wrapper in self._bindings:
            setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, original, _ in self._bindings or ():
            setattr(module, attr, original)

    # --- results ---

    def span_arrays(self) -> dict[str, np.ndarray]:
        return {
            "names": np.array(self.names),
            "name": np.frombuffer(self.name, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "job": np.frombuffer(self.job_of, dtype=np.int32).copy(),
        }

    def write(self, path: str) -> None:
        np.savez_compressed(path, **self.span_arrays())


# --- per-function counters ---

def _before_bessel(tracer, args, kwargs):
    l_max = args[0] if args else kwargs["l_max"]
    x = args[1] if len(args) > 1 else kwargs["x"]
    n = 1 if isinstance(x, float) else int(np.size(x))
    tracer.count("special.bessel_half_all.args", n)
    tracer.count("special.bessel_half_all.order_evals", (l_max + 1) * n)
    if tracer._tail_depth:
        tracer.count("spectrum.tail_sum_direct.order_evals", (l_max + 1) * n)
    return args, kwargs


def _before_transfer(tracer, args, kwargs):
    mu = args[0] if args else kwargs["mu"]
    t = args[1] if len(args) > 1 else kwargs["t"]
    if isinstance(mu, float) and isinstance(t, float):
        n = 1
    else:
        n = int(np.broadcast(np.asarray(mu), np.asarray(t)).size)
    tracer.count("kernel.transfer.points", n)
    return args, kwargs


def _before_integrate(tracer, args, kwargs):
    if args:
        args = (tracer.wrap_integrand(args[0]),) + tuple(args[1:])
    else:
        kwargs = dict(kwargs, f=tracer.wrap_integrand(kwargs["f"]))
    return args, kwargs


def _before_tail(tracer, args, kwargs):
    tracer._tail_depth += 1
    return args, kwargs


def _after_tail(tracer, args, kwargs, result):
    tracer._tail_depth -= 1
    if result is None:
        return
    l_start = args[0] if args else kwargs["l_start"]
    tracer.count("spectrum.tail_sum_direct.degrees_used",
                 result.stopped_at - l_start + 1)


def _before_lags(tracer, args, kwargs):
    lags = args[2] if len(args) > 2 else kwargs["lags"]
    tracer.count("covariance.covariance_time_lags.lags", int(np.size(lags)))
    return args, kwargs


def _before_synthesize(tracer, args, kwargs):
    n_theta = args[2] if len(args) > 2 else kwargs["n_theta"]
    n_phi = args[3] if len(args) > 3 else kwargs["n_phi"]
    tracer.count("field_sim.synthesize.grid_points", n_theta * n_phi)
    return args, kwargs


_BEFORE = {
    "special.bessel_half_all": _before_bessel,
    "kernel.transfer": _before_transfer,
    "quad.integrate_vector": _before_integrate,
    "spectrum.tail_sum_direct": _before_tail,
    "covariance.covariance_time_lags": _before_lags,
    "field_sim.synthesize": _before_synthesize,
}
_AFTER = {"spectrum.tail_sum_direct": _after_tail}


def unit(name: str) -> str:
    """Unit of a per-layer metric, from its name."""
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("_s"):
        return "s"
    if name.endswith("_bytes"):
        return "bytes"
    if name.endswith("_ratio"):
        return "1"
    return "count"


# Functions a job's single outermost span may be.
_ROOT_SPANS = ("cli.main", "field_sim.truncation_error_mc")


def layer_metrics(tracer: Tracer, job_latencies: list[float], untraced_wall_s: float,
                  realisations: int, output_bytes: int, output_files: int
                  ) -> tuple[dict[str, float], dict[str, object]]:
    """Per-layer metric values from the recorded spans and counters, plus the
    results of the trace's self-check.

    `job_latencies[j]` is the measured latency of the traced run of job j.
    """
    spans = tracer.span_arrays()
    names = list(spans["names"])
    name = spans["name"]
    dur = spans["end"] - spans["start"]
    parent = spans["parent"]
    n = dur.size
    nested = parent >= 0
    self_time = dur - np.bincount(parent[nested], weights=dur[nested], minlength=n)
    name_self = np.bincount(name, weights=self_time, minlength=len(names))
    name_calls = np.bincount(name, minlength=len(names))
    by_name = {nm: (float(name_self[i]), int(name_calls[i])) for i, nm in enumerate(names)}
    layer_self = {layer: 0.0 for layer in LAYER_NAMES}
    for nm, (s, _) in by_name.items():
        layer_self[nm.split(".", 1)[0]] += s
    traced_wall_s = float(sum(job_latencies))
    unattributed = traced_wall_s - float(dur[~nested].sum())

    def fn_self(key):
        return by_name.get(key, (0.0, 0))[0]

    def fn_calls(key):
        if key == "special.norm_plm_blocks":
            return int(tracer.counts.get(f"{key}.calls", 0))
        return by_name.get(key, (0.0, 0))[1]

    def ratio(a, b):
        return a / b if b else 0.0

    counts = tracer.counts
    bessel_calls = fn_calls("special.bessel_half_all")
    transfer_calls = fn_calls("kernel.transfer")
    quad_calls = fn_calls("quad.integrate_vector")
    degrees_used = counts.get("spectrum.tail_sum_direct.degrees_used", 0)
    evals = counts.get("quad.integrand_evals", 0)

    # Inclusive time of the outermost realisation-drawing spans.
    realisation_ids = {i for i, nm in enumerate(names) if nm in _REALISATION_SPANS}
    realisation_time = 0.0
    for idx in np.flatnonzero(np.isin(name, list(realisation_ids))):
        p = parent[idx]
        while p >= 0 and name[p] not in realisation_ids:
            p = parent[p]
        if p < 0:
            realisation_time += float(dur[idx])

    m = {
        "measure.load_config.calls": fn_calls("measure.load_config"),
        "measure.self_s": layer_self["measure"],
        "special.bessel_half_all.calls": bessel_calls,
        "special.bessel_half_all.args": counts.get("special.bessel_half_all.args", 0),
        "special.bessel_half_all.args_per_call": ratio(
            counts.get("special.bessel_half_all.args", 0), bessel_calls),
        "special.bessel_half_all.order_evals": counts.get("special.bessel_half_all.order_evals", 0),
        "special.bessel_half_all.self_s": fn_self("special.bessel_half_all"),
        "special.norm_plm_blocks.calls": fn_calls("special.norm_plm_blocks"),
        "special.norm_plm_blocks.self_s": fn_self("special.norm_plm_blocks"),
        "special.legendre_all.calls": fn_calls("special.legendre_all"),
        "special.legendre_all.self_s": fn_self("special.legendre_all"),
        "special.self_s": layer_self["special"],
        "kernel.transfer.calls": transfer_calls,
        "kernel.transfer.points": counts.get("kernel.transfer.points", 0),
        "kernel.transfer.points_per_call": ratio(
            counts.get("kernel.transfer.points", 0), transfer_calls),
        "kernel.transfer.self_s": fn_self("kernel.transfer"),
        "kernel.self_s": layer_self["kernel"],
        "quad.integrate_vector.calls": quad_calls,
        "quad.integrand_evals": evals,
        "quad.evals_per_integral": ratio(evals, quad_calls),
        "quad.accuracy_errors": counts.get("quad.integrate_vector.raised.AccuracyError", 0),
        "quad.self_s": layer_self["quad"],
        "spectrum.angular_spectrum.calls": fn_calls("spectrum.angular_spectrum"),
        "spectrum.angular_spectrum.self_s": fn_self("spectrum.angular_spectrum"),
        "spectrum.tail_sum_direct.calls": fn_calls("spectrum.tail_sum_direct"),
        "spectrum.tail_sum_direct.degrees_used": degrees_used,
        "spectrum.tail_sum_direct.order_evals_per_degree": ratio(
            counts.get("spectrum.tail_sum_direct.order_evals", 0), degrees_used),
        "spectrum.tail_sum_direct.self_s": fn_self("spectrum.tail_sum_direct"),
        "spectrum.self_s": layer_self["spectrum"],
        "covariance.covariance_spectral.calls": fn_calls("covariance.covariance_spectral"),
        "covariance.covariance_spectral.self_s": fn_self("covariance.covariance_spectral"),
        "covariance.covariance_legendre.calls": fn_calls("covariance.covariance_legendre"),
        "covariance.covariance_legendre.self_s": fn_self("covariance.covariance_legendre"),
        "covariance.integrated_abs_covariance.calls": fn_calls("covariance.integrated_abs_covariance"),
        "covariance.integrated_abs_covariance.self_s": fn_self("covariance.integrated_abs_covariance"),
        "covariance.covariance_time_lags.lags": counts.get("covariance.covariance_time_lags.lags", 0),
        "covariance.self_s": layer_self["covariance"],
        "field_sim.simulate_coefficients.calls": fn_calls("field_sim.simulate_coefficients"),
        "field_sim.simulate_coefficients.self_s": fn_self("field_sim.simulate_coefficients"),
        "field_sim.simulate_ensemble.calls": fn_calls("field_sim.simulate_ensemble"),
        "field_sim.simulate_ensemble.self_s": fn_self("field_sim.simulate_ensemble"),
        "field_sim.realisations": realisations,
        "field_sim.realisations_per_s": ratio(realisations, realisation_time),
        "field_sim.atomize.calls": fn_calls("field_sim.atomize"),
        "field_sim.atomize.self_s": fn_self("field_sim.atomize"),
        "field_sim.synthesize.calls": fn_calls("field_sim.synthesize"),
        "field_sim.synthesize.grid_points": counts.get("field_sim.synthesize.grid_points", 0),
        "field_sim.synthesize.self_s": fn_self("field_sim.synthesize"),
        "field_sim.empirical_spectrum.calls": fn_calls("field_sim.empirical_spectrum"),
        "field_sim.empirical_spectrum.self_s": fn_self("field_sim.empirical_spectrum"),
        "field_sim.truncation_error_mc.calls": fn_calls("field_sim.truncation_error_mc"),
        "field_sim.truncation_error_mc.self_s": fn_self("field_sim.truncation_error_mc"),
        "field_sim.self_s": layer_self["field_sim"],
        "entropy1d.run_experiment.calls": fn_calls("entropy1d.run_experiment"),
        "entropy1d.entropy_trace.self_s": fn_self("entropy1d.entropy_trace"),
        "entropy1d.evaluate.calls": fn_calls("entropy1d.evaluate"),
        "entropy1d.evaluate.self_s": fn_self("entropy1d.evaluate"),
        "entropy1d.self_s": layer_self["entropy1d"],
        "cli.main.calls": fn_calls("cli.main"),
        "cli.self_s": layer_self["cli"],
        "cli.output_bytes": output_bytes,
        "cli.output_files": output_files,
        "trace.overhead_ratio": ratio(traced_wall_s, untraced_wall_s),
        "trace.unattributed_s": unattributed,
    }

    # Each job has exactly one outermost span, of the call the runner timed,
    # and it lies within the job's measured latency.
    tol = 1e-9 * max(traced_wall_s, 1.0)
    roots = np.flatnonzero(~nested)
    root_jobs = spans["job"][roots]
    root_ids = {i for i, nm in enumerate(names) if nm in _ROOT_SPANS}
    latency = np.asarray(job_latencies, dtype=float)
    one_root = (np.array_equal(np.sort(root_jobs), np.arange(latency.size))
                and all(int(name[i]) in root_ids for i in roots))
    contained = bool(np.all((spans["start"][nested] >= spans["start"][parent[nested]])
                            & (spans["end"][nested] <= spans["end"][parent[nested]])))
    check = {
        "spans": int(n),
        "jobs": int(latency.size),
        "one_root_per_job": bool(one_root),
        "root_within_latency": bool(one_root and np.all(dur[roots] <= latency[root_jobs] + tol)),
        "spans_nested": contained and bool(np.all(np.isfinite(dur))),
        "self_nonnegative": bool(np.all(self_time >= -tol)),
    }
    check["ok"] = all(v for k, v in check.items() if isinstance(v, bool))
    return m, check
