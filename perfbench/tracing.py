"""Spans around calls into the contactfatigue layers, kept in memory.

Tracing is done from the benchmark's side only: ``instrument`` swaps the
public functions that ``models.assemble`` calls (and the HSGP term methods
that do the basis matmuls) for timing wrappers and puts the originals back
on exit. Nothing in the package is edited.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import time

import numpy as np


class Tracer:
    """Per-name call counts, total time and self time of nested spans.

    A span's self time is its duration minus the time of the spans it
    encloses. Totals are aggregated as calls finish, so memory stays flat
    however many gradients a fit takes.
    """

    def __init__(self) -> None:
        self.stats: dict[str, list] = {}   # name -> [calls, total_s, self_s]
        self._children: list[float] = []   # child time of each open span

    def wrap(self, fn, name: str):
        stats = self.stats.setdefault(name, [0, 0.0, 0.0])
        children = self._children
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            children.append(0.0)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stats[0] += 1
                stats[1] += dt
                stats[2] += dt - children.pop()
                if children:
                    children[-1] += dt
        return traced

    def snapshot(self) -> dict[str, tuple]:
        return {k: tuple(v) for k, v in self.stats.items()}

    @staticmethod
    def delta(before: dict, after: dict) -> dict[str, tuple]:
        out = {}
        for name, (calls, total, self_s) in after.items():
            c0, t0, s0 = before.get(name, (0, 0.0, 0.0))
            if calls > c0:
                out[name] = (calls - c0, total - t0, self_s - s0)
        return out


def self_time_by_layer(stats: dict[str, tuple]) -> dict[str, float]:
    """Self seconds summed by layer, the prefix before the first dot."""
    out: dict[str, float] = {}
    for name, (_calls, _total, self_s) in stats.items():
        layer = name.split(".", 1)[0]
        out[layer] = out.get(layer, 0.0) + self_s
    return out


class CountingModel:
    """Stands in for a model in ``sample_model`` and ``warm_start_point``.

    It exposes the model's ``layout`` and ``logp_grad``, counts completed
    calls and calls that return ``-inf`` (rejected states), and, given a
    tracer, records each call as a ``models.logp_grad`` span. It splits
    the fit into windows of at least ``WINDOW_S`` seconds (the last one,
    closed by ``close_window``, may be shorter) and keeps, per
    window, the rate of completed calls and, given a ``HostSpeed``, the
    host-speed reference timed at the window's end (else ``None``). The
    reference's own time is kept out of the windows, in ``reference_s``.
    """

    WINDOW_S = 0.2

    def __init__(self, model, tracer: Tracer | None = None, host=None):
        self.layout = model.layout
        self.calls = 0
        self.rejects = 0
        self.windows: list[tuple] = []     # (calls per s, reference µs)
        self.reference_s = 0.0
        self._host = host
        self._window_start = time.perf_counter()
        self._window_calls = 0
        inner = model.logp_grad
        self._inner = (tracer.wrap(inner, "models.logp_grad")
                       if tracer is not None else inner)

    def logp_grad(self, theta):
        logp, grad = self._inner(theta)
        self.calls += 1
        if logp == -np.inf:
            self.rejects += 1
        self._window_calls += 1
        if time.perf_counter() - self._window_start >= self.WINDOW_S:
            self.close_window()
        return logp, grad

    def close_window(self) -> None:
        """End the current window, if it holds any calls."""
        if not self._window_calls:
            return
        rate = self._window_calls / (time.perf_counter() - self._window_start)
        ref_us = None
        if self._host is not None:
            ref_us = self._host.measure()
            self.reference_s += ref_us * 1e-6
        self.windows.append((rate, ref_us))
        self._window_start = time.perf_counter()
        self._window_calls = 0


def _public_functions(module) -> list[str]:
    return [name for name, obj in vars(module).items()
            if inspect.isfunction(obj) and not name.startswith("_")
            and obj.__module__ == module.__name__]


@contextlib.contextmanager
def instrument(tracer: Tracer):
    """Wrap the layer calls made by the model assemblers."""
    from contactfatigue import kernels, priors
    from contactfatigue.models import assemble, fatigue, likelihoods

    patches: list[tuple[object, str, object, str]] = []
    # assemble imported these by name, so its own namespace is patched
    for module, layer in ((likelihoods, "likelihoods"), (fatigue, "fatigue"),
                          (priors, "priors")):
        for name in _public_functions(module):
            if getattr(assemble, name, None) is getattr(module, name):
                patches.append((assemble, name, getattr(module, name),
                                f"{layer}.{name}"))
    # assemble reaches kernels through the module object, and the HSGP
    # terms through the basis methods; kernels' own internal calls then
    # show up as nested spans
    for name in _public_functions(kernels):
        patches.append((kernels, name, getattr(kernels, name),
                        f"kernels.{name}"))
    for name in ("spectral_weights", "spectral_weights_grad"):
        patches.append((kernels.HsgpBasis, name,
                        getattr(kernels.HsgpBasis, name), f"kernels.{name}"))
    # basis matmuls of a realized GP term (values and their backprop)
    for name in ("values", "backprop", "values_at"):
        patches.append((assemble._HsgpTerm, name,
                        getattr(assemble._HsgpTerm, name), f"hsgp.{name}"))

    for owner, name, original, span in patches:
        setattr(owner, name, tracer.wrap(original, span))
    try:
        yield tracer
    finally:
        for owner, name, original, _span in reversed(patches):
            setattr(owner, name, original)
