"""Per-layer spans recorded from outside the program.

`install` wraps public functions of the fraclab modules (plus the replay
kernel ``_forced_increment``) in timing wrappers.  A wrapper replaces the
function in every fraclab module namespace that binds it, because callers
such as ``cli`` and ``control`` look names up in their own globals: patching
only the defining module would record nothing.

Each thread keeps its own stack of open spans, so the worker threads of
``sweep --jobs`` do not charge their time to each other.  A span's self time
is its duration minus the durations of the spans opened directly inside it
on the same thread.
"""

import json
import os
import sys
import threading
import time
from functools import cached_property, wraps


class Tracer:
    """In-memory span and counter aggregates for one benchmark pass."""

    def __init__(self):
        self._lock = threading.Lock()
        self._local = threading.local()
        self.spans = {}  # name -> [calls, total_s, self_s]
        self.counters = {}
        self._solved = set()

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def add(self, name, amount):
        with self._lock:
            self.counters[name] = self.counters.get(name, 0) + amount

    def maximum(self, name, value):
        with self._lock:
            self.counters[name] = max(self.counters.get(name, 0), value)

    def span(self, name, fn, before=None, after=None):
        """Wrap `fn` so each call is timed as span `name`.

        `before(args, kwargs)` may return replacement (args, kwargs);
        `after(result, args, kwargs)` records counters.  Neither is timed
        inside the span.
        """

        @wraps(fn)
        def wrapper(*args, **kwargs):
            if before is not None:
                args, kwargs = before(args, kwargs)
            stack = self._stack()
            stack.append(0.0)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                children = stack.pop()
                if stack:
                    stack[-1] += elapsed
                with self._lock:
                    entry = self.spans.setdefault(name, [0, 0.0, 0.0])
                    entry[0] += 1
                    entry[1] += elapsed
                    entry[2] += elapsed - children
            if after is not None:
                after(result, args, kwargs)
            return result

        return wrapper

    def snapshot(self):
        return {
            "spans": {k: list(v) for k, v in self.spans.items()},
            "counters": dict(self.counters),
        }

    # -- counters tied to particular layers ---------------------------------

    def _on_spectrum(self, result, args, kwargs):
        op = args[0]
        modes = args[1] if len(args) > 1 else kwargs["modes"]
        key = (op.beta, op.grid.n_interior)
        self.add("spectra.modes_solved", int(modes))
        with self._lock:
            repeated = key in self._solved
            self._solved.add(key)
        self.add("spectra.repeat_solves", int(repeated))

    def _count_replay(self, args, kwargs):
        # blocks share their endpoint samples, so distinct samples are the
        # interval count plus one per replay
        lam, h, phi_region, blocks = args

        def counted():
            intervals = 0
            for times, samples in blocks:
                intervals += len(times) - 1
                yield times, samples
            self.add("dynamics.replay_samples", intervals + 1)

        return (lam, h, phi_region, counted()), kwargs

    def _on_write(self, result, args, kwargs):
        emitter, name, text = args
        if emitter.directory is not None:  # buffered sweep cells land later
            self.add("output.bytes_written", len(text.encode("utf-8")))
            self.add("output.files_written", 1)

    def _on_verify(self, result, args, kwargs):
        with open(os.path.join(args[0], "manifest.json"), encoding="utf-8") as handle:
            entries = json.load(handle).get("files", [])
        self.add("output.bytes_verified", sum(e.get("bytes", 0) for e in entries))

    def _on_dense(self, result, args, kwargs):
        self.add("operator.dense_bytes_computed", result.nbytes)


def _rebind(original, wrapper):
    """Replace `original` by `wrapper` in every fraclab module namespace."""
    count = 0
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "fraclab" or name.startswith("fraclab.")):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, wrapper)
                count += 1
    if count == 0:
        raise RuntimeError(f"{original.__module__}.{original.__name__} is bound nowhere")
    return count


def install(tracer):
    """Wrap the layer entry points of an imported fraclab in `tracer` spans."""
    from fraclab import config, control, dynamics, identity, operator, output, regions, spectra, svgplot

    plain = [
        ("config.load_config", config.load_config, None, None),
        ("operator.assemble_operator", operator.assemble_operator, None, None),
        ("spectra.compute_spectrum", spectra.compute_spectrum, None, tracer._on_spectrum),
        ("control.schrodinger_gramian", control.schrodinger_gramian, None,
         lambda g, a, k: tracer.maximum("control.gramian_max_modes", g.modes)),
        ("control.observability_constant", control.observability_constant, None, None),
        ("control.gramian_condition", control.gramian_condition, None, None),
        ("control.sharpness_experiment", control.sharpness_experiment, None, None),
        ("control.hum_control", control.hum_control, None, None),
        ("dynamics.forced_increment", dynamics._forced_increment, tracer._count_replay, None),
        ("dynamics.schrodinger_evolve", dynamics.schrodinger_evolve, None, None),
        ("identity.schrodinger_pohozaev_report", identity.schrodinger_pohozaev_report, None, None),
        ("identity.eigen_pohozaev_check", identity.eigen_pohozaev_check, None, None),
        ("identity.two_sided_estimate_ratio", identity.two_sided_estimate_ratio, None, None),
        ("output.csv_text", output.csv_text, None, None),
        ("output.json_text", output.json_text, None, None),
        ("output.write_manifest", output.write_manifest, None, None),
        ("output.verify_manifest", output.verify_manifest, None, tracer._on_verify),
        ("svgplot.line_plot", svgplot.line_plot, None,
         lambda svg, a, k: tracer.add("svgplot.bytes", len(svg.encode("utf-8")))),
    ]
    for name, fn, before, after in plain:
        _rebind(fn, tracer.span(name, fn, before, after))

    # Methods and cached properties are looked up on their class.
    output.Emitter.write = tracer.span("output.emitter_write", output.Emitter.write, None, tracer._on_write)
    regions.ObservationRegion.node_indices = tracer.span(
        "regions.node_indices",
        regions.ObservationRegion.node_indices,
        None,
        lambda idx, a, k: tracer.maximum("regions.max_nodes", len(idx)),
    )
    # A matrix-free operator may drop the dense matrix; its span then reads 0.
    dense = vars(operator.DiscreteOperator).get("dense")
    if isinstance(dense, cached_property):
        dense.func = tracer.span("operator.dense", dense.func, None, tracer._on_dense)
