"""Per-layer tracing of the isosqueeze package, installed from outside it.

Every public function of each package module (its ``__all__``) and the
``__init__`` of every public class is replaced by a wrapper that adds
the call's time to its layer.  A wrapper is installed at every lookup
site: the defining module and every package module that imported the
name directly (``cli`` and ``dist`` import ``build_state``,
``norm_constant`` and ``log_factorial`` that way).  ``states`` builds
``np.vectorize(log_factorial)`` at call time from its own globals, so
replacing that global covers the vectorized calls too.

Hot scalar functions run hundreds of thousands of times per pass, so
nothing is recorded per call: each layer keeps a call count and a self
time (the wrapped span minus the spans of the wrapped calls it made),
and a few layers keep a work count (``COUNTERS``).  The time a wrapper
spends outside its own clock readings lands in its caller's self time;
the traced-minus-untraced pass time reports that overhead as a whole.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time

import numpy as np

LAYERS = ("specfun", "fock", "algebra", "states", "stats", "squeezing", "dist", "cli")

# Work counters kept besides the per-layer call counts.
COUNTERS = ("squeezing.words", "fock.vectors", "states.builds", "states.levels", "dist.points")


def _points(result) -> int:
    """Phase-space points a dist call evaluated: the size of what it returned."""
    values = getattr(result, "values", result)
    return int(np.size(values))


class LayerTracer:
    """Aggregated self time and counts per layer of the ``isosqueeze`` package."""

    def __init__(self) -> None:
        self.self_s = dict.fromkeys(LAYERS, 0.0)
        self.calls = dict.fromkeys(LAYERS, 0)
        self.counts = dict.fromkeys(COUNTERS, 0)
        self.top_s = 0.0  # summed duration of spans entered from outside the package
        self._stack: list[list] = []  # one [layer, child_seconds] frame per open span
        self._saved: list[tuple[object, str, object]] = []
        package = importlib.import_module("isosqueeze")
        self._modules = {layer: importlib.import_module(f"isosqueeze.{layer}") for layer in LAYERS}
        self._sites = [package, *self._modules.values()]

    def reset(self) -> None:
        for layer in LAYERS:
            self.self_s[layer] = 0.0
            self.calls[layer] = 0
        for name in COUNTERS:
            self.counts[name] = 0
        self.top_s = 0.0

    # -- wrappers -----------------------------------------------------------

    def _on_result(self, layer: str, name: str):
        """Work-count hook for one wrapped function or class, or None."""
        counts = self.counts
        stack = self._stack
        if name == "FockVector":
            def hook(result):
                counts["fock.vectors"] += 1
            return hook
        if not inspect.isfunction(getattr(self._modules[layer], name)):
            return None
        if name == "expectation_ladder_word":
            def hook(result):
                counts["squeezing.words"] += 1
            return hook
        if layer == "states":
            fock_vector = self._modules["fock"].FockVector

            def hook(result):
                # a build is the outermost states call that returns a vector
                if isinstance(result, fock_vector) and not (stack and stack[-1][0] == "states"):
                    counts["states.builds"] += 1
                    counts["states.levels"] += result.amps.size
            return hook
        if layer == "dist":
            def hook(result):
                if not (stack and stack[-1][0] == "dist"):
                    counts["dist.points"] += _points(result)
            return hook
        return None

    def _wrap(self, fn, layer: str, hook):
        stack = self._stack
        self_s = self.self_s
        calls = self.calls
        clock = time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            calls[layer] += 1
            frame = [layer, 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                self_s[layer] += elapsed - frame[1]
                if stack:
                    stack[-1][1] += elapsed
                else:
                    tracer.top_s += elapsed
            if hook is not None:
                hook(result)
            return result

        return traced

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        replaced = {}
        for layer, module in self._modules.items():
            for name in module.__all__:
                obj = getattr(module, name)
                if getattr(obj, "__module__", None) != module.__name__:
                    continue
                if inspect.isfunction(obj):
                    replaced[id(obj)] = (obj, self._wrap(obj, layer, self._on_result(layer, name)))
                elif inspect.isclass(obj) and not issubclass(obj, BaseException):
                    init = obj.__dict__.get("__init__")
                    if init is not None:
                        self._saved.append((obj, "__init__", init))
                        obj.__init__ = self._wrap(init, layer, self._on_result(layer, name))
        for site in self._sites:
            for name, value in list(vars(site).items()):
                entry = replaced.get(id(value))
                if entry is not None and entry[0] is value:
                    self._saved.append((site, name, value))
                    setattr(site, name, entry[1])

    def uninstall(self) -> None:
        while self._saved:
            owner, name, original = self._saved.pop()
            setattr(owner, name, original)
