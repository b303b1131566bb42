"""Layer tracer: wraps the public functions of specmatch's modules from outside.

Every public function defined in one of the LAYERS modules is replaced, at
every name that binds it inside the package (its own module, the package
namespace and any module that imported it by name), by a wrapper that counts
calls and accumulates inclusive and self time in place. Self time is the
call's duration minus the time spent in wrapped calls it made. Nothing is kept
per call, so hot functions such as graphs.components (hundreds of thousands of
calls a second) cost one counter update each.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time

LAYERS = ("graphs", "matching", "spectra", "quotient", "harness")

# order bands for distance_matrix time per call (upper bound inclusive)
DM_BANDS = ((8, "n_le8"), (16, "n9_16"), (32, "n17_32"), (64, "n33_64"))


def _band(n: int) -> str:
    for top, label in DM_BANDS:
        if n <= top:
            return label
    return DM_BANDS[-1][1]


class Tracer:
    """Context manager; `stats[name]` is [calls, inclusive_s, self_s]."""

    def __init__(self):
        self.stats: dict[str, list] = {}
        self.dm_bands = {label: [0, 0.0] for _, label in DM_BANDS}
        self.dm_graphs: set[int] = set()
        self.dsr_iterations = 0
        self._stack = [0.0]
        self._patched: list[tuple[dict, str, object]] = []

    # -- observers for the counters the issue asks for beyond calls/time

    def _observe_distance_matrix(self, args, kwargs, result, elapsed):
        g = args[0] if args else kwargs["g"]
        band = self.dm_bands[_band(g.n)]
        band[0] += 1
        band[1] += elapsed
        self.dm_graphs.add(hash(g))

    def _observe_spectral_radius(self, args, kwargs, result, elapsed):
        self.dsr_iterations += result.iterations

    def _wrap(self, name: str, fn):
        stat = self.stats.setdefault(name, [0, 0.0, 0.0])
        stack = self._stack
        clock = time.perf_counter
        observe = {
            "spectra.distance_matrix": self._observe_distance_matrix,
            "spectra.distance_spectral_radius": self._observe_spectral_radius,
        }.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack.append(0.0)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - t0
                child = stack.pop()
                stack[-1] += elapsed
                stat[0] += 1
                stat[1] += elapsed
                stat[2] += elapsed - child
            if observe is not None:
                observe(args, kwargs, result, elapsed)
            return result

        wrapper.__traced__ = fn
        return wrapper

    def install(self) -> "Tracer":
        if self._patched:
            raise RuntimeError("tracer already installed")
        wrappers: dict[int, tuple[object, object]] = {}
        for layer in LAYERS:
            module = importlib.import_module(f"specmatch.{layer}")
            for name, obj in vars(module).items():
                if (
                    not name.startswith("_")
                    and inspect.isfunction(obj)
                    and obj.__module__ == module.__name__
                ):
                    wrappers[id(obj)] = (obj, self._wrap(f"{layer}.{name}", obj))
        for namespace in package_namespaces():
            for key, value in list(namespace.items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    self._patched.append((namespace, key, value))
                    namespace[key] = hit[1]
        return self

    def uninstall(self) -> None:
        for namespace, key, original in reversed(self._patched):
            namespace[key] = original
        self._patched.clear()

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def calls(self, name: str) -> int:
        return self.stats.get(name, [0])[0]

    def layer_self_s(self) -> dict[str, float]:
        out = dict.fromkeys(LAYERS, 0.0)
        for name, (_, _, self_s) in self.stats.items():
            out[name.split(".", 1)[0]] += self_s
        return out


def package_namespaces() -> list[dict]:
    """Namespaces of specmatch and every loaded specmatch submodule."""
    return [
        vars(module)
        for key, module in list(sys.modules.items())
        if module is not None and (key == "specmatch" or key.startswith("specmatch."))
    ]


def wrapped_bindings() -> list[str]:
    """Names in the package that still hold a tracer wrapper (empty after uninstall)."""
    return [
        f"{namespace.get('__name__')}.{key}"
        for namespace in package_namespaces()
        for key, value in namespace.items()
        if hasattr(value, "__traced__")
    ]
