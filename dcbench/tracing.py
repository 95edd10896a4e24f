"""Per-layer tracing from outside the library.

``Tracer`` wraps the public functions and methods of the six layers
(``cli``, ``model``, ``simplex``, ``fdc``, ``oracles``, ``sparsifier``) and
patches every binding of each one: module attributes in every loaded
``deepconn`` module (``route_image`` is bound in both ``model`` and ``fdc``,
``parse_instance`` in both ``model`` and ``cli``), values of module-level
dicts (``oracles._PAIR_OPS`` dispatches the pair oracles), and class
attributes for methods.  Leaving the ``with`` block restores every original.

A timed span records calls and self time: its duration minus the time its
child spans cover.  Hot functions in ``COUNT_ONLY`` record calls only, so
the tracer's own cost does not swamp the split; their time stays in the
self time of the span that called them.  ``edge_key`` is not wrapped at
all: it is a one-line helper called millions of times per pass.
"""

from __future__ import annotations

import importlib
import inspect
import sys
import time

LAYERS = ("cli", "model", "simplex", "fdc", "oracles", "sparsifier")

COUNT_ONLY = {
    "model.h_neighbors",
    "model.g_neighbors",
    "model.route",
    "model.route_support",
    "model.route_image",
    "model.image_support",
    "model.concatenated_walk",
    "model.is_simple_concatenation",
    "sparsifier.delta",
    "sparsifier.add_edge",
    "simplex.__init__",  # counts the rows of each new LP
}
UNWRAPPED = {"model.edge_key"}

# Spans and counters behind the per-layer metrics.  A missing one fails the
# traced run instead of reading as zero.
REQUIRED = (
    "cli.main",
    "model.parse_instance",
    "model.build_instance",
    "model.serialize_instance",
    "model.enumerate_simple_paths",
    "model.h_neighbors",
    "model.route_support",
    "model.route_image",
    "model.is_simple_concatenation",
    "simplex.solve",
    "simplex.add_column",
    "simplex.__init__",
    "fdc.fdc_pair",
    "fdc.separation_oracle",
    "oracles.erdc_pair",
    "oracles.pddc_pair",
    "oracles.spddc_pair",
    "sparsifier.check_precondition",
    "sparsifier.greedy_augment",
    "sparsifier.delta",
    "sparsifier.add_edge",
)


class Stats:
    """Counters of the current pass; ``spans`` maps name -> [calls, self_ns].

    ``reset`` zeroes the counters in place, because the wrappers hold on to
    their own entry.
    """

    EXTRA = (
        "simplex.rows",
        "fdc.columns",
        "fdc.useful_columns",
        "fdc.denominator_bits_max",
        "model.enumerate_simple_paths.paths",
        "model.is_simple_concatenation.true",
        "sparsifier.delta.hits",
    )

    def __init__(self):
        self.spans: dict[str, list[int]] = {}
        self.extra = dict.fromkeys(self.EXTRA, 0)

    def span(self, name: str) -> list[int]:
        return self.spans.setdefault(name, [0, 0])

    def reset(self) -> None:
        for entry in self.spans.values():
            entry[:] = [0, 0]
        self.extra = dict.fromkeys(self.EXTRA, 0)

    def snapshot(self) -> "Stats":
        copy = Stats()
        copy.spans = {k: list(v) for k, v in self.spans.items()}
        copy.extra = dict(self.extra)
        return copy


def _on_fdc_pair(stats: Stats, args, result) -> None:
    stats.extra["fdc.columns"] += len(result.generated_paths)
    stats.extra["fdc.useful_columns"] += len(result.primal)
    values = [result.value, *result.primal.values(), *result.dual.values()]
    stats.extra["fdc.denominator_bits_max"] = max(
        stats.extra["fdc.denominator_bits_max"], *(q.denominator.bit_length() for q in values)
    )


def _on_paths(stats: Stats, args, result) -> None:
    stats.extra["model.enumerate_simple_paths.paths"] += len(result)


def _on_simple(stats: Stats, args, result) -> None:
    stats.extra["model.is_simple_concatenation.true"] += bool(result)


def _on_delta(stats: Stats, args, result) -> None:
    stats.extra["sparsifier.delta.hits"] += result > 0


def _on_lp(stats: Stats, args, result) -> None:
    stats.extra["simplex.rows"] += args[1]


HOOKS = {
    "fdc.fdc_pair": _on_fdc_pair,
    "model.enumerate_simple_paths": _on_paths,
    "model.is_simple_concatenation": _on_simple,
    "sparsifier.delta": _on_delta,
    "simplex.__init__": _on_lp,
}


def _targets():
    """(name, owner, attribute, function) for every function to wrap."""
    out = []
    for layer in LAYERS:
        module = importlib.import_module(f"deepconn.{layer}")
        for attr, obj in vars(module).items():
            if attr.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                continue
            if inspect.isfunction(obj):
                out.append((f"{layer}.{attr}", module, attr, obj))
            elif inspect.isclass(obj):
                for meth, fn in vars(obj).items():
                    if inspect.isfunction(fn) and (
                        not meth.startswith("_") or f"{layer}.{meth}" in HOOKS
                    ):
                        out.append((f"{layer}.{meth}", obj, meth, fn))
    return [t for t in out if t[0] not in UNWRAPPED]


class Tracer:
    """Context manager that installs the wrappers and counts into ``stats``."""

    def __init__(self):
        self.stats = Stats()
        self._stack: list[int] = []
        self._restore: list = []

    def __enter__(self) -> "Tracer":
        targets = _targets()
        missing = sorted(set(REQUIRED) - {name for name, *_ in targets})
        if missing:
            raise LookupError(f"traced functions missing from deepconn: {missing}")
        wrappers = {id(fn): (fn, self._wrap(name, fn)) for name, _, _, fn in targets}
        try:
            for _, owner, attr, fn in targets:
                if inspect.isclass(owner):
                    self._set(owner, attr, wrappers[id(fn)][1])
            self._patch_modules(wrappers)
        except BaseException:
            self.__exit__(None, None, None)
            raise
        return self

    def __exit__(self, *exc) -> None:
        while self._restore:
            self._restore.pop()()

    def _set(self, owner, attr, value) -> None:
        old = vars(owner)[attr] if inspect.isclass(owner) else getattr(owner, attr)
        setattr(owner, attr, value)
        self._restore.append(lambda: setattr(owner, attr, old))

    def _patch_modules(self, wrappers) -> None:
        modules = [m for n, m in list(sys.modules.items())
                   if (n == "deepconn" or n.startswith("deepconn.")) and m is not None]
        for module in modules:
            for attr, obj in list(vars(module).items()):
                if id(obj) in wrappers and wrappers[id(obj)][0] is obj:
                    self._set(module, attr, wrappers[id(obj)][1])
                elif isinstance(obj, dict):
                    for key, value in list(obj.items()):
                        hit = wrappers.get(id(value))
                        if hit is not None and hit[0] is value:
                            obj[key] = hit[1]
                            self._restore.append(
                                lambda d=obj, k=key, v=value: d.__setitem__(k, v)
                            )

    def _wrap(self, name: str, fn):
        hook = HOOKS.get(name)
        stats = self.stats
        entry = stats.span(name)
        if name in COUNT_ONLY:

            def counted(*args, **kwargs):
                entry[0] += 1
                result = fn(*args, **kwargs)
                if hook is not None:
                    hook(stats, args, result)
                return result

            return _named(counted, fn)

        stack = self._stack
        clock = time.perf_counter_ns

        def timed(*args, **kwargs):
            stack.append(0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = clock() - start
                entry[0] += 1
                entry[1] += duration - stack.pop()
                if stack:
                    stack[-1] += duration
            if hook is not None:
                hook(stats, args, result)
            return result

        return _named(timed, fn)


def _named(wrapper, fn):
    wrapper.__name__ = fn.__name__
    wrapper.__qualname__ = fn.__qualname__
    wrapper.__doc__ = fn.__doc__
    wrapper.__wrapped__ = fn
    return wrapper


def _ratio(num: int, den: int) -> float:
    return num / den if den else 0.0


def layer_metrics(stats: Stats, raw_ns: int, ref_ms: float, untraced_ms: float) -> dict:
    """Per-layer metrics of one traced pass.

    ``raw_ns`` and ``ref_ms`` are the pass's summed op time as measured and
    at the reference speed; self times are scaled by their ratio.
    ``untraced_ms`` is the fastest untraced pass at the reference speed.
    """
    scale = ref_ms / raw_ns  # reference ms per measured ns

    def calls(name):
        return stats.spans.get(name, [0, 0])[0]

    def self_ms(name):
        return stats.spans.get(name, [0, 0])[1] * scale

    extra = stats.extra
    out = {}
    for name in (
        "simplex.solve", "simplex.add_column", "fdc.separation_oracle",
        "fdc.fdc_pair", "oracles.erdc_pair", "oracles.pddc_pair",
        "oracles.spddc_pair", "model.enumerate_simple_paths",
        "sparsifier.greedy_augment", "sparsifier.check_precondition",
        "model.parse_instance", "model.build_instance",
        "model.serialize_instance", "cli.main",
    ):
        out[f"{name}.self_ms"] = self_ms(name)
    for name in (
        "simplex.add_column", "fdc.separation_oracle", "oracles.erdc_pair",
        "model.h_neighbors", "model.is_simple_concatenation", "sparsifier.delta",
        "model.route_support", "model.build_instance", "model.route_image",
        "cli.main",
    ):
        out[f"{name}.calls"] = calls(name)
    out["simplex.rows"] = extra["simplex.rows"]
    out["fdc.useful_column_ratio"] = _ratio(extra["fdc.useful_columns"], extra["fdc.columns"])
    out["fdc.denominator_bits_max"] = extra["fdc.denominator_bits_max"]
    out["model.enumerate_simple_paths.paths"] = extra["model.enumerate_simple_paths.paths"]
    out["oracles.spddc.simple_path_ratio"] = _ratio(
        extra["model.is_simple_concatenation.true"], calls("model.is_simple_concatenation")
    )
    out["sparsifier.greedy_iterations"] = calls("sparsifier.add_edge")
    out["sparsifier.delta_hit_ratio"] = _ratio(
        extra["sparsifier.delta.hits"], calls("sparsifier.delta")
    )
    out["trace.overhead_share"] = (ref_ms - untraced_ms) / ref_ms
    for layer in LAYERS:
        self_ns = sum(v[1] for k, v in stats.spans.items() if k.split(".")[0] == layer)
        out[f"layer.{layer}.self_share"] = self_ns / raw_ns
    return out


def unit_of(metric: str) -> str:
    if metric.endswith("_ms"):
        return "ms"
    if metric.endswith(("_ratio", "_share")):
        return "ratio"
    if metric.endswith("_bits_max"):
        return "bits"
    return "count"
