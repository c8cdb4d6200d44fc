"""Per-layer tracing of braidseed from outside the package.

Every public function of every layer module is replaced, at each module
that binds it (``from .words import neighbor_index`` binds it in seeds and
transitions too), by a wrapper, and the originals are put back on exit.
Functions named in SPANS become timed spans: calls, inclusive time, and
self time, which is the span's time minus the time of the spans it called.
All other public functions are hot leaves: they are only counted, per
parent span, and their time stays in the parent's self time.  Nothing is
recorded per call; totals are kept in memory and read once at the end.
"""
from __future__ import annotations

import inspect
import time

LAYERS = (
    "cartan",
    "words",
    "transitions",
    "lattices",
    "qlaurent",
    "seeds",
    "qdatum",
    "reports",
    "cli",
)

# (layer, public function) -> span group; every other public function is a leaf.
SPANS = {
    ("words", "find_move_path"): "words.bfs",
    ("words", "words_equal_in_monoid"): "words.bfs",
    ("words", "neighbor_index"): "words.index",
    ("words", "resolve_ibox"): "words.index",
    ("words", "ibox_vector"): "words.index",
    ("transitions", "transition_apply_many"): "transitions.batch",
    ("transitions", "transition_apply"): "transitions.scalar",
    ("transitions", "transition_along_path"): "transitions.scalar",
    ("lattices", "canonical_smallest_solution"): "lattices.solve",
    ("lattices", "column_echelon"): "lattices.echelon",
    ("seeds", "gls_matrix"): "seeds.gls",
    ("seeds", "solve_lambda"): "seeds.solve_lambda",
    ("seeds", "initial_seed"): "seeds.initial_seed",
    ("seeds", "mutate_seed"): "seeds.mutate",
    ("seeds", "exchange_check"): "seeds.exchange_check",
    ("seeds", "tsystem_check"): "seeds.tsystem_check",
    ("seeds", "seed_equivalence_report"): "seeds.equivalence",
    ("qlaurent", "torus_product"): "qlaurent.product",
    ("qlaurent", "right_divide"): "qlaurent.divide",
    ("qdatum", "phi_map"): "qdatum.phi",
    ("qdatum", "phi_inverse"): "qdatum.phi_inverse",
    ("qdatum", "adapted_word"): "qdatum.adapted_word",
    ("qdatum", "delta_window"): "qdatum.window",
    ("qdatum", "cartan_tilde"): "qdatum.series",
    ("qdatum", "n_form"): "qdatum.series",
    ("cartan", "finite_type_data"): "cartan.finite_type_data",
    ("reports", "emit_report"): "reports.emit",
    ("cli", "roundtrip_campaign"): "cli.campaign",
    ("cli", "mutation_campaign"): "cli.campaign",
    ("cli", "tsystem_campaign"): "cli.campaign",
    ("cli", "torus_campaign"): "cli.campaign",
    ("cli", "exact_exchange_campaign"): "cli.campaign",
}


def _count(tracer, name, amount=1):
    tracer.counts[name] = tracer.counts.get(name, 0) + amount


def _maximum(tracer, name, value):
    tracer.counts[name] = max(tracer.counts.get(name, 0), value)


def _batch_rows(tracer, args, result, parent):
    _count(tracer, "transitions.batch.rows", len(result))


def _scalar_vector(tracer, args, result, parent):
    """One vector per transport call; transition_apply calls made by
    transition_along_path belong to its vector."""
    if parent != "transitions.scalar":
        _count(tracer, "transitions.scalar.vectors")


def _system_size(tracer, args, result, parent):
    solution, kernel = result
    _maximum(tracer, "lattices.kernel_dim.max", len(kernel))
    _maximum(tracer, "lattices.unknowns.max", len(solution))


def _mutation_track(tracer, args, result, parent):
    seed = args[0]
    _count(tracer, "seeds.mutate.tropical" if seed.exact is None else "seeds.mutate.exact")


def _laurent_terms(tracer, args, result, parent):
    _maximum(tracer, "qlaurent.terms.max", len(result.terms))


def _report_bytes(tracer, args, result, parent):
    _count(tracer, "reports.emit.bytes", len(result))


# Work counters read from a call's arguments and result:
# (layer, function) -> hook(tracer, args, result, parent span group).
HOOKS = {
    ("transitions", "transition_apply_many"): _batch_rows,
    ("transitions", "transition_along_path"): _scalar_vector,
    ("transitions", "transition_apply"): _scalar_vector,
    ("lattices", "solve_integer_system"): _system_size,
    ("seeds", "mutate_seed"): _mutation_track,
    ("qlaurent", "torus_product"): _laurent_terms,
    ("qlaurent", "right_divide"): _laurent_terms,
    ("reports", "emit_report"): _report_bytes,
}


def _group(spans, name):
    return spans.get(name, (0, 0.0, 0.0))


def _rate(amount, seconds):
    return amount / seconds if seconds > 0 else 0.0


# Reported metrics: (name, unit, better, value(tracer, rounds)).  Counts and
# times are per measured round, so they do not grow with the run length;
# maxima and timeouts (a failed instance is not retried) are over the whole
# traced part of the run.
def _calls(group):
    return lambda t, n: _group(t.spans, group)[0] / n


def _self_s(group):
    return lambda t, n: _group(t.spans, group)[2] / n


def _counter(name, per_round=True):
    return lambda t, n: t.counts.get(name, 0) / (n if per_round else 1)


def _bfs_nodes(t):
    return t.leaves.get(("enumerate_moves", "words.bfs"), 0)


# Span groups whose call count is named for the work done rather than
# "{group}.calls".
CALLS_NAMES = {
    "lattices.solve": "lattices.solves",
    "qlaurent.product": "qlaurent.products",
    "qlaurent.divide": "qlaurent.divisions",
}

# Every span group gets a call count and a self time; the work counters of
# HOOKS and leaf counts follow.
PER_LAYER = [
    metric
    for group in dict.fromkeys(SPANS.values())
    for metric in (
        (CALLS_NAMES.get(group, group + ".calls"), "count", "lower", _calls(group)),
        (group + ".self_s", "s", "lower", _self_s(group)),
    )
] + [
    ("words.bfs.nodes", "count", "lower", lambda t, n: _bfs_nodes(t) / n),
    ("words.bfs.nodes_per_s", "1/s", "higher",
     lambda t, n: _rate(_bfs_nodes(t), _group(t.spans, "words.bfs")[1])),
    ("transitions.batch.rows", "count", "lower", _counter("transitions.batch.rows")),
    ("transitions.batch.rows_per_s", "1/s", "higher",
     lambda t, n: _rate(t.counts.get("transitions.batch.rows", 0),
                        _group(t.spans, "transitions.batch")[1])),
    ("transitions.scalar.vectors", "count", "lower",
     _counter("transitions.scalar.vectors")),
    ("lattices.kernel_dim.max", "count", "lower",
     _counter("lattices.kernel_dim.max", per_round=False)),
    ("lattices.unknowns.max", "count", "lower",
     _counter("lattices.unknowns.max", per_round=False)),
    ("lattices.timeouts", "count", "lower", _counter("lattices.timeouts", per_round=False)),
    ("seeds.mutate.tropical", "count", "lower", _counter("seeds.mutate.tropical")),
    ("seeds.mutate.exact", "count", "lower", _counter("seeds.mutate.exact")),
    ("qlaurent.terms.max", "count", "lower",
     _counter("qlaurent.terms.max", per_round=False)),
    ("reports.emit.bytes", "B", "lower", _counter("reports.emit.bytes")),
]


class Tracer:
    """Context manager that wraps the public functions of the given modules.

    ``modules`` maps each name in LAYERS to the imported layer module; the
    package module itself is passed as ``package`` so its re-exports are
    wrapped too.  ``interrupt`` is the exception type of the per-instance
    time limit: when it passes through a span, the layer of the innermost
    span is charged one timeout.
    """

    def __init__(self, package, modules: dict, interrupt: type):
        self.package = package
        self.modules = modules
        self.interrupt = interrupt
        self.stack = []  # [group, child seconds] per active span
        self.spans = {}  # group -> [calls, inclusive seconds, self seconds]
        self.leaves = {}  # (function, parent group or None) -> calls
        self.counts = {}  # counter name -> value
        self._saved = []

    def __enter__(self):
        namespaces = [self.package, *self.modules.values()]
        try:
            for layer in LAYERS:
                module = self.modules[layer]
                for name, fn in list(vars(module).items()):
                    if (
                        name.startswith("_")
                        or not inspect.isfunction(fn)
                        or fn.__module__ != module.__name__
                    ):
                        continue
                    wrapper = self._wrap(layer, name, fn)
                    for ns in namespaces:
                        for attr, value in list(vars(ns).items()):
                            if value is fn:
                                self._saved.append((ns, attr, fn))
                                setattr(ns, attr, wrapper)
        except BaseException:
            self._restore()
            raise
        return self

    def __exit__(self, *exc):
        self._restore()
        return False

    def _restore(self):
        while self._saved:
            ns, attr, fn = self._saved.pop()
            setattr(ns, attr, fn)

    def _wrap(self, layer, name, fn):
        hook = HOOKS.get((layer, name))
        group = SPANS.get((layer, name))
        stack = self.stack
        tracer = self
        if group is None:
            leaves = self.leaves

            def leaf(*args, **kwargs):
                parent = stack[-1][0] if stack else None
                key = (name, parent)
                leaves[key] = leaves.get(key, 0) + 1
                result = fn(*args, **kwargs)
                if hook is not None:
                    hook(tracer, args, result, parent)
                return result

            leaf.__wrapped__ = fn
            return leaf

        totals = self.spans.setdefault(group, [0, 0.0, 0.0])
        clock = time.perf_counter
        interrupt = self.interrupt

        def span(*args, **kwargs):
            parent = stack[-1][0] if stack else None
            frame = [group, 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except interrupt as exc:
                if not getattr(exc, "charged", False):
                    exc.charged = True
                    _count(tracer, group.split(".")[0] + ".timeouts")
                raise
            finally:
                elapsed = clock() - start
                stack.pop()
                totals[0] += 1
                totals[1] += elapsed
                totals[2] += elapsed - frame[1]
                if stack:
                    stack[-1][1] += elapsed
            if hook is not None:
                hook(tracer, args, result, parent)
            return result

        span.__wrapped__ = fn
        return span

    def metrics(self, rounds: int) -> dict:
        """Every PER_LAYER metric, per measured round where it is a total."""
        return {
            name: {"value": float(value(self, rounds)), "unit": unit}
            for name, unit, _, value in PER_LAYER
        }

    def table(self, rounds: int) -> list:
        """Lines listing every span group and leaf count, per round."""
        lines = []
        for group, (calls, total, own) in sorted(self.spans.items()):
            if calls:
                lines.append(
                    f"span {group:32s} calls {calls / rounds:12.1f} "
                    f"total_s {total / rounds:10.4f} self_s {own / rounds:10.4f}"
                )
        for (name, parent), calls in sorted(
            self.leaves.items(), key=lambda kv: (kv[0][0], kv[0][1] or "")
        ):
            lines.append(
                f"leaf {name:32s} in {parent or '(no span)':28s} calls {calls / rounds:12.1f}"
            )
        return lines
