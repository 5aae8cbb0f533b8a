"""In-memory span recorder for the traced benchmark run.

Tracing is done from the benchmark's side only: public functions are
replaced, for the length of the traced phase, by timing wrappers in the
namespaces of the modules that call them (``entspace.montecarlo.pt_batch``,
``entspace.separability.representative_state``, ...).  Each call becomes a
span ``[name, start, end, parent, units, phase]``; generators get one span
per ``next()``.  Spans stay in memory until the run ends; layer metrics are
derived from them afterwards, including self time (a span's duration minus
the time its child spans cover).
"""

import functools
import json
import time
import types

import numpy as np

import entspace.chart
import entspace.fano
import entspace.montecarlo
import entspace.sampling
import entspace.separability
import entspace.serialize
import entspace.verify
from entspace import tolerances as tol

NAME, START, END, PARENT, UNITS, PHASE = range(6)

#: Streams whose tag draws a full chunk of matrix states (see entspace.sampling).
_CHUNK_TAGS = (entspace.sampling.TAG_HS, entspace.sampling.TAG_PRODUCT)


def _batch(args, kwargs, out):
    return len(args[0])


def _one(args, kwargs, out):
    return 1


def _eigvalsh_units(args, kwargs, out):
    a = np.asarray(args[0])
    return a.shape[0] if a.ndim == 3 else 1


def _stream_units(args, kwargs, out):
    """States drawn by the stream: a full chunk for the matrix ensembles,
    one point for the chart ensemble, none for auxiliary streams."""
    tag = args[1]
    if tag in _CHUNK_TAGS:
        return tol.CHUNK
    return 1 if tag == entspace.sampling.TAG_CHART else 0


def _check_units(args, kwargs, out):
    return out.samples


class _NumpyProxy(types.ModuleType):
    """Stand-in for ``numpy`` (or ``numpy.linalg``) inside one module's
    namespace, overriding a few attributes and delegating the rest."""

    def __init__(self, target, **overrides):
        super().__init__(target.__name__)
        self._target = target
        self.__dict__.update(overrides)

    def __getattr__(self, name):
        value = getattr(self._target, name)
        setattr(self, name, value)
        return value


def _chunks_name(args):
    return f"sampling.ensemble_chunks.{args[0]}"


# (span name, or a function of the call's arguments that gives it;
#  modules whose namespace holds the caller's reference; attribute;
#  units of work in one call; whether the function is a generator)
_FUNCTION_HOOKS = (
    ("montecarlo.separable_fraction", [entspace.montecarlo], "separable_fraction", _one, False),
    ("montecarlo.sample_records", [entspace.montecarlo], "sample_records", _one, True),
    ("montecarlo.reanalyze_record", [entspace.montecarlo], "reanalyze_record", _one, False),
    ("montecarlo.pt_batch", [entspace.montecarlo, entspace.verify], "pt_batch", _batch, False),
    ("montecarlo.char_poly_batch", [entspace.montecarlo, entspace.verify], "char_poly_batch", _batch, False),
    ("montecarlo.verdict_masks", [entspace.montecarlo, entspace.verify], "verdict_masks", _batch, False),
    ("montecarlo.oracle_masks", [entspace.montecarlo, entspace.verify], "oracle_masks", _batch, False),
    ("separability.verdict_from_coeffs", [entspace.montecarlo], "verdict_from_coeffs", _one, False),
    (_chunks_name, [entspace.montecarlo, entspace.verify], "ensemble_chunks", _one, True),
    ("sampling.ensemble_state", [entspace.montecarlo], "ensemble_state", _one, False),
    ("sampling.sample_chart_point", [entspace.sampling, entspace.verify], "sample_chart_point", _one, False),
    ("sampling.philox_stream", [entspace.sampling], "philox_stream", _stream_units, False),
    ("chart.representative_state", [entspace.sampling, entspace.separability, entspace.verify], "representative_state", _one, False),
    ("linalg4.herm_eigenvalues", [entspace.montecarlo, entspace.verify, entspace.fano], "herm_eigenvalues", _one, False),
    ("linalg4.herm_eigensystem", [entspace.verify], "herm_eigensystem", _one, False),
    ("linalg4.exp_antihermitian", [entspace.verify, entspace.chart], "exp_antihermitian", _one, False),
    ("fano.to_fano", [entspace.separability, entspace.verify], "to_fano", _one, False),
    ("separability.analyze", [entspace.montecarlo, entspace.verify], "analyze", _one, False),
    ("separability.quesne_c112", [entspace.separability, entspace.verify], "quesne_c112", _one, False),
    ("separability.det_correlation", [entspace.separability, entspace.verify], "det_correlation", _one, False),
    ("separability.det_schlienz_mahler", [entspace.separability, entspace.verify], "det_schlienz_mahler", _one, False),
    ("separability.fit_c112_coeffs", [entspace.separability, entspace.verify], "fit_c112_coeffs", _one, False),
    ("verify.run_suite", [entspace.verify], "run_suite", _one, False),
    ("serialize.records_to_csv_lines", [entspace.serialize], "records_to_csv_lines", _one, True),
)

#: Modules whose ``np.linalg.eigvalsh`` (the eigenvalue oracle) is traced.
_ORACLE_CALLERS = (entspace.montecarlo, entspace.verify)


def hook_targets():
    """Every (module, attribute) pair the tracer replaces while it is active."""
    targets = [(m, attr) for _, mods, attr, _, _ in _FUNCTION_HOOKS for m in mods]
    targets += [(m, "np") for m in _ORACLE_CALLERS]
    targets.append((entspace.verify, "CHECKS"))
    return targets


class Recorder:
    """Collects spans; ``install`` swaps the wrappers in, ``uninstall``
    puts every original back."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.phase = "loop"
        self._saved = []

    # -- wrappers -------------------------------------------------------------

    def _open(self, name):
        parent = self.stack[-1] if self.stack else -1
        span = [name, 0.0, 0.0, parent, 1, self.phase]
        self.stack.append(len(self.spans))
        self.spans.append(span)
        span[START] = time.perf_counter()
        return span

    def _close(self, span):
        span[END] = time.perf_counter()
        self.stack.pop()

    def wrap(self, name, fn, units):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self._open(name(args) if callable(name) else name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._close(span)
            span[UNITS] = units(args, kwargs, out)
            return out

        return traced

    def wrap_generator(self, name, fn):
        """One span per ``next()``; the span is closed before the item is
        handed to the consumer, so the consumer's work is not counted."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            label = name(args) if callable(name) else name
            inner = fn(*args, **kwargs)
            while True:
                span = self._open(label)
                try:
                    item = next(inner)
                except StopIteration:
                    span[UNITS] = 0
                    return
                finally:
                    self._close(span)
                span[UNITS] = len(item[1]) if isinstance(item, tuple) else 1
                yield item

        return traced

    # -- installation -----------------------------------------------------------

    def _replace(self, module, attr, value):
        self._saved.append((module, attr, getattr(module, attr)))
        setattr(module, attr, value)

    def install(self):
        for name, modules, attr, units, is_gen in _FUNCTION_HOOKS:
            for module in modules:
                fn = getattr(module, attr)
                wrapped = (
                    self.wrap_generator(name, fn) if is_gen else self.wrap(name, fn, units)
                )
                self._replace(module, attr, wrapped)
        eigvalsh = self.wrap("numpy.linalg.eigvalsh", np.linalg.eigvalsh, _eigvalsh_units)
        linalg = _NumpyProxy(np.linalg, eigvalsh=eigvalsh)
        for module in _ORACLE_CALLERS:
            self._replace(module, "np", _NumpyProxy(np, linalg=linalg))
        checks = tuple(
            (group, self.wrap(f"verify.check.{fn.__name__.removeprefix('_check_')}", fn, _check_units))
            for group, fn in entspace.verify.CHECKS
        )
        self._replace(entspace.verify, "CHECKS", checks)

    def uninstall(self):
        while self._saved:
            module, attr, value = self._saved.pop()
            setattr(module, attr, value)

    def dump(self, path):
        """Write the spans as JSON: one ``[name, start, end, parent, units,
        phase]`` list per span, parents as indices into the list."""
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "units", "phase"],
                       "spans": self.spans}, fh)


# -- layer metrics ------------------------------------------------------------------

def self_times(spans):
    """Duration of each span minus the durations of its direct children."""
    child = [0.0] * len(spans)
    for s in spans:
        if s[PARENT] >= 0:
            child[s[PARENT]] += s[END] - s[START]
    return [s[END] - s[START] - c for s, c in zip(spans, child)]


class _Agg:
    """Calls, total time, self time and units of a set of span names."""

    def __init__(self, spans, selfs, names, phases):
        self.phases = phases
        self.calls = 0
        self.total = 0.0
        self.self = 0.0
        self.units = 0
        for s, st in zip(spans, selfs):
            if s[NAME] in names and s[PHASE] in phases:
                self.calls += 1
                self.total += s[END] - s[START]
                self.self += st
                self.units += s[UNITS]

    def per_unit(self, value, scale):
        return scale * value / self.units if self.units else 0.0

    def per_call(self, value, scale):
        return scale * value / self.calls if self.calls else 0.0


def _under(spans, i, name):
    """Whether span ``i`` has an ancestor called ``name``."""
    p = spans[i][PARENT]
    while p >= 0:
        if spans[p][NAME] == name:
            return True
        p = spans[p][PARENT]
    return False


def layer_metrics(spans, check_names, iterations):
    """Per-layer metrics of a traced run, as ``{name: (value, unit)}``.

    Times and ratios come from the workload's own calls ("loop" phase);
    for a layer the workload never enters they come from the layer sweep
    that follows it, so every layer has a measured figure on every workload.
    Counts are always the workload's own, per iteration of its loop, so
    they do not grow with speed.
    """
    selfs = self_times(spans)

    def agg(*names, counts=False):
        loop = _Agg(spans, selfs, names, ("loop",))
        if loop.calls or counts:
            return loop
        return _Agg(spans, selfs, names, ("sweep",))

    def drawn(caller, phases):
        """States drawn by the streams opened under ``caller`` spans."""
        return sum(
            s[UNITS] for i, s in enumerate(spans)
            if s[NAME] == "sampling.philox_stream" and s[PHASE] in phases
            and _under(spans, i, caller)
        )

    out = {}
    hs = agg("sampling.ensemble_chunks.hs")
    hs_drawn = drawn("sampling.ensemble_chunks.hs", hs.phases)
    out["sampling.hs_draw_us_per_state"] = (1e6 * hs.total / hs_drawn if hs_drawn else 0.0, "us")
    point = agg("sampling.sample_chart_point")
    out["sampling.chart_point_us"] = (point.per_call(point.total, 1e6), "us")
    state = agg("sampling.ensemble_state")
    out["sampling.ensemble_state_ms"] = (state.per_call(state.total, 1e3), "ms")
    state_drawn = drawn("sampling.ensemble_state", state.phases)
    out["sampling.states_drawn"] = (
        drawn("sampling.ensemble_state", ("loop",)) / iterations, "count/iter")
    out["sampling.states_used"] = (
        agg("sampling.ensemble_state", counts=True).units / iterations, "count/iter")
    out["sampling.draw_useful_ratio"] = (
        state.units / state_drawn if state_drawn else 0.0, "ratio")

    pt = agg("montecarlo.pt_batch")
    newton = agg("montecarlo.char_poly_batch")
    out["montecarlo.pt_newton_us_per_state"] = (
        pt.per_unit(pt.self, 1e6) + newton.per_unit(newton.self, 1e6), "us")
    oracle = agg("numpy.linalg.eigvalsh")
    out["montecarlo.oracle_us_per_state"] = (oracle.per_unit(oracle.self, 1e6), "us")
    masks = agg("montecarlo.verdict_masks", "montecarlo.oracle_masks",
                "separability.verdict_from_coeffs")
    classified = agg("montecarlo.verdict_masks", "separability.verdict_from_coeffs")
    out["montecarlo.verdict_us_per_state"] = (
        1e6 * masks.self / classified.units if classified.units else 0.0, "us")
    rows = agg("montecarlo.sample_records")
    out["montecarlo.record_self_us_per_row"] = (rows.per_unit(rows.self, 1e6), "us")

    jacobi = agg("linalg4.herm_eigenvalues", "linalg4.herm_eigensystem")
    out["linalg4.jacobi_us_per_call"] = (jacobi.per_call(jacobi.total, 1e6), "us")
    out["linalg4.jacobi_calls"] = (
        agg("linalg4.herm_eigenvalues", "linalg4.herm_eigensystem", counts=True).calls
        / iterations, "count/iter")
    expm = agg("linalg4.exp_antihermitian")
    out["linalg4.expm_us_per_call"] = (expm.per_call(expm.total, 1e6), "us")

    fano = agg("fano.to_fano")
    out["fano.to_fano_us_per_call"] = (fano.per_call(fano.total, 1e6), "us")
    out["fano.to_fano_calls"] = (agg("fano.to_fano", counts=True).calls / iterations,
                                 "count/iter")

    rep = agg("chart.representative_state")
    out["chart.representative_state_us"] = (rep.per_call(rep.total, 1e6), "us")
    out["chart.representative_state_calls"] = (
        agg("chart.representative_state", counts=True).calls / iterations, "count/iter")

    for key, name in (("analyze_us", "analyze"), ("c112_us", "quesne_c112"),
                      ("det_c_us", "det_correlation"), ("det_m_us", "det_schlienz_mahler")):
        a = agg(f"separability.{name}")
        out[f"separability.{key}"] = (a.per_call(a.total, 1e6), "us")
    fit = agg("separability.fit_c112_coeffs")
    out["separability.fit_self_ms"] = (fit.per_call(fit.self, 1e3), "ms")

    for check in check_names:
        c = agg(f"verify.check.{check}")
        out[f"verify.check_s.{check}"] = (c.per_call(c.total, 1.0), "s")
        loop_c = agg(f"verify.check.{check}", counts=True)
        out[f"verify.check_samples.{check}"] = (
            loop_c.units // loop_c.calls if loop_c.calls else 0, "count")

    csv = agg("serialize.records_to_csv_lines")
    out["serialize.csv_us_per_row"] = (csv.per_unit(csv.self, 1e6), "us")
    return out
