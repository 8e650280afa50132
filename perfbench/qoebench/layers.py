"""Per-layer timing from outside the program, and readers of its own metrics.

:class:`LayerClock` replaces each layer's public functions with timing
wrappers while it is installed and restores them afterwards.  Nothing
under ``src/`` changes: a module-level function is swapped in every
``repro`` module that bound it by name, a method on its class.  Each
wrapper records calls, items handled and inclusive time; self time is
inclusive time minus the time spent in nested wrapped calls on the same
thread, so the self times of all layers never count one interval twice.

Calls made in other processes (socket shard workers) are not seen here;
for those, the stage histograms the workers fold into the parent's
registry are read instead (:class:`RegistryWindow`).
"""

from __future__ import annotations

import functools
import importlib
import sys
import threading
import time
from typing import Callable, Dict, List, Optional, Tuple

__all__ = ["LAYERS", "LAYER_METRIC_NAMES", "LayerClock", "stat_dicts", "layer_metrics", "RegistryWindow"]


def _one(args, kwargs, result) -> int:
    return 1


def _none(args, kwargs, result) -> int:
    return 0


def _len_result(args, kwargs, result) -> int:
    return len(result)


def _len_arg(position: int) -> Callable:
    def count(args, kwargs, result) -> int:
        return len(args[position])

    return count


def _config_sessions(args, kwargs, result) -> int:
    return int(args[0].n_sessions)


def _forest_trees(args, kwargs, result) -> int:
    return int(args[0].n_estimators)


def _columns(args, kwargs, result) -> int:
    return int(args[1].shape[1])


#: (layer, [(module, attribute path, item counter)]).  Names follow the
#: module tree under ``src/repro``; an item is a session, row, tree,
#: feature or entry, as the counter says.
LAYERS: List[Tuple[str, List[Tuple[str, str, Callable]]]] = [
    ("datasets.generate", [
        ("repro.datasets.generate", "generate_corpus", _config_sessions)]),
    ("datasets.genx.plan", [
        ("repro.datasets.genx.plan", "build_plan", _config_sessions)]),
    ("datasets.genx.simulate", [
        ("repro.datasets.genx.vector", "simulate_sessions", _len_result)]),
    ("capture.proxy.observe", [
        ("repro.capture.proxy", "WebProxy.observe", _one)]),
    ("capture.device", [
        ("repro.capture.device", "DeviceLogger.playback_summary", _one),
        ("repro.capture.device", "DeviceLogger.segment_records", _none)]),
    ("capture.reconstruction", [
        ("repro.capture.reconstruction", "SessionReconstructor.reconstruct", _len_result)]),
    ("datasets.preparation", [
        ("repro.datasets.preparation", "group_cleartext_sessions", _len_result),
        ("repro.datasets.preparation", "records_from_reconstruction", _len_result)]),
    ("core.featurex.build", [
        ("repro.core.features", "build_stall_matrix", _len_arg(0)),
        ("repro.core.features", "build_representation_matrix", _len_arg(0))]),
    ("ml.selection.cfs", [
        ("repro.ml.selection", "CfsSubsetSelector.select", _columns)]),
    ("ml.forest.fit", [
        ("repro.ml.forest", "RandomForestClassifier.fit", _forest_trees)]),
    ("ml.forest.predict", [
        ("repro.ml.forest", "RandomForestClassifier.predict_proba", _len_arg(1))]),
    ("core.framework.diagnose", [
        ("repro.core.framework", "QoEFramework.diagnose", _len_arg(1))]),
    ("timeseries.cusum", [
        ("repro.core.switching", "SwitchDetector.calibrate", _none),
        ("repro.core.switching", "SwitchDetector.scores", _len_arg(1))]),
    ("serving.submit", [
        ("repro.serving.service", "QoEService.submit", _one)]),
]

#: Metric-name overrides so the traced output uses the names the layer
#: table in the README cites.
_ALIASES = {
    "datasets.generate.items_per_s": "datasets.generate.sessions_per_s",
    "core.featurex.build.items_per_s": "core.featurex.rows_per_s",
    "ml.forest.predict.calls": "ml.forest.predict_calls",
}


def _layer_metric_names(layer: str) -> Dict[str, str]:
    names = {
        "self_s": f"{layer}_s",
        "calls": f"{layer}.calls",
        "items_per_s": f"{layer}.items_per_s",
        "share": f"{layer}.share",
    }
    return {key: _ALIASES.get(name, name) for key, name in names.items()}


#: Every per-layer metric a traced run reports for the wrapped layers.
LAYER_METRIC_NAMES: List[str] = [
    name for layer, _ in LAYERS for name in _layer_metric_names(layer).values()
]


class _Stat:
    __slots__ = ("inclusive_s", "self_s", "calls", "items")

    def __init__(self) -> None:
        self.inclusive_s = 0.0
        self.self_s = 0.0
        self.calls = 0
        self.items = 0


class LayerClock:
    """Installs timing wrappers around every layer in :data:`LAYERS`."""

    def __init__(self) -> None:
        self.stats: Dict[str, _Stat] = {layer: _Stat() for layer, _ in LAYERS}
        self._lock = threading.Lock()
        self._local = threading.local()
        self._undo: List[Tuple[object, str, object]] = []

    # -- wrapping ------------------------------------------------------

    def _wrap(self, layer: str, fn: Callable, count: Callable) -> Callable:
        stat = self.stats[layer]
        local = self._local
        lock = self._lock
        clock = time.perf_counter

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            frame = [0.0]
            stack.append(frame)
            started = clock()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                elapsed = clock() - started
                stack.pop()
                if stack:
                    stack[-1][0] += elapsed
                items = count(args, kwargs, result) if result is not None else 0
                with lock:
                    stat.inclusive_s += elapsed
                    stat.self_s += elapsed - frame[0]
                    stat.calls += 1
                    stat.items += items

        return timed

    def install(self) -> "LayerClock":
        if self._undo:
            raise RuntimeError("layer clock already installed")
        for layer, targets in LAYERS:
            for module_name, path, count in targets:
                module = importlib.import_module(module_name)
                if "." in path:
                    cls_name, attr = path.split(".")
                    owner = getattr(module, cls_name)
                    original = owner.__dict__[attr]
                    self._swap(owner, attr, original, self._wrap(layer, original, count))
                else:
                    original = getattr(module, path)
                    wrapped = self._wrap(layer, original, count)
                    # Rebind every ``from module import fn`` copy as well.
                    for name, mod in list(sys.modules.items()):
                        if mod is None or not name.startswith("repro"):
                            continue
                        for attr, value in list(vars(mod).items()):
                            if value is original:
                                self._swap(mod, attr, original, wrapped)
        return self

    def _swap(self, owner, attr: str, original, wrapped) -> None:
        setattr(owner, attr, wrapped)
        self._undo.append((owner, attr, original))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "LayerClock":
        return self.install()

    def __exit__(self, *exc_info) -> None:
        self.uninstall()


def layer_metrics(stats: Dict[str, Dict[str, float]], end_to_end_s: float) -> Dict[str, float]:
    """Per-layer metric values from plain stat dicts (see :func:`stat_dicts`).

    ``share`` is a layer's self time over the workload's end-to-end time;
    on the serving workloads threads overlap, so shares may sum past 1.
    """
    out: Dict[str, float] = {}
    for layer, _ in LAYERS:
        stat = stats.get(layer, {})
        names = _layer_metric_names(layer)
        self_s = float(stat.get("self_s", 0.0))
        inclusive = float(stat.get("inclusive_s", 0.0))
        out[names["self_s"]] = self_s
        out[names["calls"]] = float(stat.get("calls", 0))
        out[names["items_per_s"]] = stat.get("items", 0) / inclusive if inclusive > 0 else 0.0
        out[names["share"]] = self_s / end_to_end_s if end_to_end_s > 0 else 0.0
    return out


def stat_dicts(clock: LayerClock) -> Dict[str, Dict[str, float]]:
    return {
        layer: {
            "inclusive_s": stat.inclusive_s,
            "self_s": stat.self_s,
            "calls": stat.calls,
            "items": stat.items,
        }
        for layer, stat in clock.stats.items()
    }


class RegistryWindow:
    """The change in the process metrics registry over one measured window."""

    def __init__(self) -> None:
        from repro.obs import get_registry

        self._registry = get_registry()
        self._before = self._registry.to_state()
        self.delta = None

    def close(self) -> "RegistryWindow":
        from repro.obs.registry import MetricsRegistry, registry_state_delta

        after = self._registry.to_state()
        self.delta = MetricsRegistry.from_state(registry_state_delta(after, self._before))
        return self

    def _children(self, name: str, **labels):
        family = self.delta.get(name) if self.delta is not None else None
        if family is None:
            return []
        return [
            child
            for child_labels, child in family.samples()
            if all(child_labels.get(k) == str(v) for k, v in labels.items())
        ]

    def total(self, name: str, **labels) -> float:
        """Sum of counter/gauge values over matching children."""
        return float(sum(child.value for child in self._children(name, **labels)))

    def histogram(self, name: str, **labels) -> Optional[object]:
        children = self._children(name, **labels)
        return children[0] if children else None

    def histogram_count_sum(self, name: str) -> Tuple[int, float]:
        children = self._children(name)
        return (
            int(sum(child.count for child in children)),
            float(sum(child.sum for child in children)),
        )
