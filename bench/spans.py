"""Span tracing for the benchmark's traced runs.

``Tracer.install`` wraps the public functions of every ``nfareduce`` module
at each place a module binds them as a global: in the module that defines
them (so calls inside that module are seen) and in every module that
imports them (``nfareduce.labels.prob_lang``, ``nfareduce.reduction.
label_prune``, ...).  Each call becomes a span with a name
``<defining module>.<function>``, start and end times and a link to the
span that was open when it began.  Spans stay in memory; ``layer_metrics``
turns them into the per-layer metrics.

A span's self time is its duration minus the durations of its child
spans, so the self times of one command add up to its wall time, less the
wrapper calls themselves.  Counts taken from arguments or results (states
built, edges, bytes read) are computed by ``settle`` once the command has
returned, outside every timed interval.
"""

import importlib
import inspect
import time

MODULES = ("cli", "formats", "labels", "langprob", "nfa", "pa", "reduction",
           "traffic")

# products above this many states take the library's sparse solve path
LARGE_PRODUCT = 2000
# the part of a command's wall time left outside every span's self time
# (the wrapper calls) stays below this share
UNATTRIBUTED_SHARE = 0.05


def _product_size(args, result):
    ppa = result.ppa
    return {"states": ppa.num_states,
            "edges": sum(1 for _ in ppa.entries())}


# span name -> function (positional args, result) -> dict of counts
MEASURES = {
    "langprob.product_pa_nfa": _product_size,
    "nfa.determinize_with_subsets":
        lambda args, result: {"states": len(result[1])},
    "nfa.is_unambiguous":
        lambda args, result: {"true": int(bool(result))},
    "nfa.components":
        lambda args, result: {"components": len(result)},
    "labels.label_prune":
        lambda args, result: {"states": len(result)},
    "labels.label_selfloop":
        lambda args, result: {"states": len(result)},
    "formats.read_corpus_bin":
        lambda args, result: {"bytes": len(args[0])},
}


class Span:
    __slots__ = ("name", "parent", "start", "end", "child_time", "counts",
                 "_pending")

    def __init__(self, name, parent):
        self.name = name
        self.parent = parent
        self.start = self.end = 0.0
        self.child_time = 0.0
        self.counts = None
        self._pending = None

    @property
    def duration(self):
        return self.end - self.start

    @property
    def self_time(self):
        return self.duration - self.child_time

    @property
    def layer(self):
        return self.name.split(".", 1)[0]


class Tracer:
    """Records spans of one process; single-threaded use only."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self._replaced = []

    def span(self, name, fn, /, *args, **kwargs):
        """Call ``fn`` inside a span called ``name``."""
        parent = self._stack[-1] if self._stack else None
        s = Span(name, parent)
        self.spans.append(s)
        self._stack.append(s)
        s.start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            s.end = time.perf_counter()
            self._stack.pop()
            if parent is not None:
                parent.child_time += s.end - s.start
        if name in MEASURES:
            s._pending = (args, result)
        return result

    def settle(self):
        """Compute the counts of the spans recorded so far and drop the
        arguments and results held for them."""
        for s in self.spans:
            if s._pending is not None:
                s.counts = MEASURES[s.name](*s._pending)
                s._pending = None

    def wrap(self, name, fn):
        def traced(*args, **kwargs):
            return self.span(name, fn, *args, **kwargs)
        return traced

    def install(self):
        """Wrap every public nfareduce function at every module global that
        binds it, until ``uninstall``."""
        for m in MODULES:
            mod = importlib.import_module(f"nfareduce.{m}")
            for attr, obj in list(vars(mod).items()):
                if (attr.startswith("_") or not inspect.isfunction(obj)
                        or not obj.__module__.startswith("nfareduce.")):
                    continue
                layer = obj.__module__.rsplit(".", 1)[1]
                self._replaced.append((mod, attr, obj))
                setattr(mod, attr, self.wrap(f"{layer}.{obj.__name__}", obj))

    def uninstall(self):
        for mod, attr, obj in reversed(self._replaced):
            setattr(mod, attr, obj)
        self._replaced.clear()


def _ancestor_in(span, layer):
    s = span.parent
    while s is not None:
        if s.layer == layer:
            return True
        s = s.parent
    return False


def _outermost(spans, names):
    """Spans named in ``names`` with no ancestor of those names."""
    out = []
    for s in spans:
        if s.name not in names:
            continue
        p = s.parent
        while p is not None and p.name not in names:
            p = p.parent
        if p is None:
            out.append(s)
    return out


def layer_metrics(spans):
    """Per-layer metrics of a list of spans (one or more commands).

    ``_s`` metrics are inclusive times of the outermost calls of the named
    functions, except the self times ``langprob.solve_s``,
    ``labels.self_s``, ``reduction.greedy_self_s``,
    ``reduction.survivors_s``, ``traffic.learn_pa_s`` and ``cli.self_s``.
    """
    by_name = {}
    for s in spans:
        by_name.setdefault(s.name, []).append(s)

    def calls(*names):
        return sum(len(by_name.get(n, ())) for n in names)

    def total(*names):
        return sum(s.duration for s in _outermost(spans, set(names)))

    def self_time(*names):
        return sum(s.self_time for n in names for s in by_name.get(n, ()))

    def count(name, key):
        return [s.counts[key] for s in by_name.get(name, ())]

    products = count("langprob.product_pa_nfa", "states")
    unamb = count("nfa.is_unambiguous", "true")
    labelled = (sum(count("labels.label_prune", "states"))
                + sum(count("labels.label_selfloop", "states")))
    label_solves = sum(1 for n in ("langprob.prob_lang", "langprob.weight_lang")
                       for s in by_name.get(n, ()) if _ancestor_in(s, "labels"))
    m = {
        "langprob.solve_s": self_time("langprob.prob_lang",
                                      "langprob.weight_lang"),
        "langprob.product_s": total("langprob.product_pa_nfa"),
        "langprob.product_states": sum(products),
        "langprob.product_states_max": max(products, default=0),
        "langprob.product_edges": sum(count("langprob.product_pa_nfa",
                                            "edges")),
        "langprob.calls": calls("langprob.prob_lang", "langprob.weight_lang"),
        "langprob.large_products": sum(1 for n in products
                                       if n > LARGE_PRODUCT),
        "nfa.determinize_s": total("nfa.determinize",
                                   "nfa.determinize_with_subsets"),
        "nfa.determinize_calls": calls("nfa.determinize_with_subsets"),
        "nfa.det_states": sum(count("nfa.determinize_with_subsets",
                                    "states")),
        "nfa.unambiguous_s": total("nfa.is_unambiguous"),
        "nfa.unambiguous_calls": len(unamb),
        "nfa.unambiguous_true_share": (sum(unamb) / len(unamb)
                                       if unamb else 0.0),
        "nfa.through_state_s": total("nfa.through_state"),
        "nfa.product_s": total("nfa.product", "nfa.product_with_pairs"),
        "nfa.components_s": total("nfa.components"),
        "nfa.component_count": sum(count("nfa.components", "components")),
        "nfa.restrict_s": total("nfa.restrict", "nfa.restrict_with_map"),
        "nfa.accepts_s": total("nfa.accepts"),
        "nfa.accepts_calls": calls("nfa.accepts"),
        "labels.label_s": total("labels.label_prune",
                                "labels.label_selfloop"),
        "labels.self_s": sum(s.self_time for s in spans
                             if s.layer == "labels"),
        "labels.calls_per_state": (label_solves / labelled
                                   if labelled else 0.0),
        "reduction.greedy_self_s": self_time("reduction.greedy_size_driven",
                                             "reduction.greedy_error_driven"),
        "reduction.survivor_calls": calls("reduction.prune_survivors",
                                          "reduction.selfloop_survivors"),
        "reduction.survivors_s": self_time("reduction.prune_survivors",
                                           "reduction.selfloop_survivors"),
        "reduction.minimize_calls": calls("reduction.minimize_prune_set",
                                          "reduction.minimize_selfloop_set"),
        "reduction.distance_s": total("reduction.distance"),
        "traffic.count_events_s": total("traffic.count_events"),
        "traffic.learn_pa_s": self_time("traffic.learn_pa"),
        "traffic.traffic_error_s": total("traffic.traffic_error"),
        "formats.corpus_read_s": total("formats.read_corpus_bin",
                                       "formats.read_corpus_text"),
        "formats.corpus_bytes": sum(count("formats.read_corpus_bin",
                                          "bytes")),
        "formats.parse_s": total("formats.parse_nfa", "formats.parse_pa"),
        "formats.serialize_s": total("formats.serialize_nfa",
                                     "formats.serialize_pa"),
        "pa.validate_s": total("pa.validate_pa"),
        "cli.self_s": sum(s.self_time for s in spans if s.layer == "cli"),
    }
    return m
