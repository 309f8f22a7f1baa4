"""Spans and counters recorded from outside the sdepath package.

`install` replaces the public functions of the layers `model`,
`functionals`, `optimizer`, `simulate` and `cli` with wrappers that record
one span per call: (id, parent id, name, start, end, attributes).  The
package itself is not modified; every module attribute that refers to a
wrapped function is rebound, so calls between modules and inside a module
go through the wrappers too.

The scalar drift callbacks of the models that `builtin_model` returns run
five times per order-1.5 step, too often for a span each; they get a
counter (calls, seconds) instead.  Two public functions are left unwrapped
because they run once per simulation step or twice per measurement record
per merit evaluation (millions of calls), where even a counter would
dominate what it measures: `simulate.order15_step` and
`simulate.student_t_loglik`.  Their work is attributed to their callers
(steps are counted from the paths `strong_order_15` returns).

Spans are kept in memory and written once, when the run ends.  The tracer
keeps one span stack for the process, which is correct while one thread at
a time runs package code; the benchmark always runs with `--threads 1`.

`record_solves` is the only hook installed in untraced runs: it notes the
status of every `maximize` call so failed solves can be counted.
"""

from __future__ import annotations

import dataclasses
import functools
import inspect
import sys
import time

LAYERS = ("model", "functionals", "optimizer", "simulate", "cli")
UNWRAPPED = frozenset({"simulate.order15_step", "simulate.student_t_loglik"})
DRIFT_ROWS = ("f_rows", "jac_rows", "div_rows", "jdc_rows")
DRIFT_SCALAR = ("f", "jac", "div", "jac_deriv_contract")


def _package_modules():
    return [mod for name, mod in sorted(sys.modules.items())
            if mod is not None
            and (name == "sdepath" or name.startswith("sdepath."))]


def _rebind(old, new) -> None:
    """Point every sdepath module attribute that is `old` at `new`."""
    for mod in _package_modules():
        for attr, value in list(vars(mod).items()):
            if value is old:
                setattr(mod, attr, new)


def record_solves(statuses: list) -> None:
    """Append the status of every optimizer.maximize call to `statuses`.

    An exception is recorded as "error:<type>" and re-raised.
    """
    from sdepath import optimizer
    original = optimizer.maximize

    @functools.wraps(original)
    def maximize(*args, **kwargs):
        try:
            result = original(*args, **kwargs)
        except BaseException as exc:
            statuses.append("error:" + type(exc).__name__)
            raise
        statuses.append(result.status)
        return result

    _rebind(original, maximize)


def _maximize_attrs(args, kwargs, result):
    start = kwargs.get("start", args[1] if len(args) > 1 else None)
    return {"n": int(start.grid.n_segments), "iterations": int(result.iterations),
            "status": str(result.status)}


def _path_attrs(args, kwargs, result):
    times = result[0]
    return {"steps": int(len(times) - 1)}


ATTRS = {
    "optimizer.maximize": _maximize_attrs,
    "simulate.strong_order_15": _path_attrs,
    "simulate.euler_maruyama": _path_attrs,
}


class Tracer:
    """In-memory span and counter store for one run."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans = []          # [id, parent, name, start, end, attrs]
        self.counters = {}       # name -> [calls, seconds]
        self._stack = []

    def span(self, name: str, fn, attrs=None):
        """Return `fn` wrapped so that each call records one span."""
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [len(spans), stack[-1] if stack else -1, name, clock(), 0.0,
                   None]
            spans.append(rec)
            stack.append(rec[0])
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                rec[5] = {"status": "error:" + type(exc).__name__}
                raise
            finally:
                rec[4] = clock()
                stack.pop()
            if attrs is not None:
                rec[5] = attrs(args, kwargs, result)
            return result

        return traced

    def counter(self, name: str, fn):
        """Return `fn` wrapped so that calls and seconds add to a counter."""
        acc = self.counters.setdefault(name, [0, 0.0])
        clock = time.perf_counter

        @functools.wraps(fn)
        def counted(*args):
            t0 = clock()
            try:
                return fn(*args)
            finally:
                acc[1] += clock() - t0
                acc[0] += 1

        return counted

    def _counted_drift(self, builtin_model):
        """builtin_model whose drift reports its scalar callbacks to counters."""

        @functools.wraps(builtin_model)
        def counted_builtin_model(*args, **kwargs):
            drift, diffusion, init = builtin_model(*args, **kwargs)
            fields = {name: self.counter("model.drift." + name,
                                         getattr(drift, name))
                      for name in DRIFT_SCALAR
                      if getattr(drift, name) is not None}
            return dataclasses.replace(drift, **fields), diffusion, init

        return counted_builtin_model

    def install(self) -> None:
        """Wrap the public functions of every layer module (see module doc)."""
        from sdepath import model
        for layer in LAYERS:
            mod = sys.modules["sdepath." + layer]
            for name, fn in list(vars(mod).items()):
                qual = layer + "." + name
                if (name.startswith("_") or not inspect.isfunction(fn)
                        or fn.__module__ != mod.__name__ or qual in UNWRAPPED):
                    continue
                target = (self._counted_drift(fn) if qual == "model.builtin_model"
                          else fn)
                _rebind(fn, self.span(qual, target, ATTRS.get(qual)))
        for name in DRIFT_ROWS:
            setattr(model.DriftModel, name,
                    self.span("model." + name, getattr(model.DriftModel, name)))

    def dump(self) -> dict:
        return {"run_id": self.run_id,
                "span_fields": ["id", "parent", "name", "start", "end", "attrs"],
                "spans": self.spans,
                "counters": {k: {"calls": v[0], "seconds": v[1]}
                             for k, v in self.counters.items()}}
