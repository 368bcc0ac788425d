"""Per-layer tracing of dualbench from outside the program.

``Tracer.install`` replaces every binding of a traced function in every
``dualbench`` module (a function imported by name into another module is a
separate binding, and wrapping only the defining module would miss those
calls) with a wrapper that records a span: name, start, end and the index
of the enclosing span. Spans stay in memory; ``layer_metrics`` turns them
into per-layer self times and counts after the timed region, and
``write_spans`` writes them out.

Times are CPU times of the (single-threaded) pass process, like the
benchmark's end-to-end times, so that other load on the machine does not
show up as time spent in a layer.

A layer is named after its module (``lattice``, ``algebra``, ...), or after
one function of it where a later change is expected to move that function
alone (``algebra.enumerate_homs``). A layer's self time is the duration of
its spans minus the part covered by their direct child spans.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import pkgutil
from time import process_time_ns

# Functions with their own layer; every other traced function of a module
# belongs to the module's layer.
NAMED_LAYERS = {
    "dualbench.corpus": {
        "corpus_lattices": "corpus.enumerate",
        "corpus_frames": "corpus.enumerate",
        "_canonical_key": "corpus.enumerate",
        "_poset_from_key": "corpus.enumerate",
        "_count_downsets_capped": "corpus.enumerate",
        "downset_lattice": "corpus.enumerate",
    },
    "dualbench.algebra": {
        "enumerate_homs": "algebra.enumerate_homs",
        "is_homomorphism": "algebra.is_homomorphism",
        "check_lvl_axioms": "algebra.check_lvl_axioms",
    },
    "dualbench.topology": {
        "generate_topology": "topology.generate_topology",
        "discrete_topology": "topology.generate_topology",
        "indiscrete_topology": "topology.generate_topology",
        "verify_pbs_object": "topology.verify_object",
        "verify_pspa_object": "topology.verify_object",
        "verify_hspa_object": "topology.verify_object",
        "is_pairwise_hausdorff": "topology.verify_object",
        "is_pairwise_compact": "topology.verify_object",
        "is_pairwise_zero_dimensional": "topology.verify_object",
        "is_pairwise_closed": "topology.verify_object",
        "clopen_upsets": "topology.verify_object",
        "verify_pbs_morphism": "topology.verify_morphism",
        "verify_pspa_morphism": "topology.verify_morphism",
        "verify_hspa_morphism": "topology.verify_morphism",
    },
    "dualbench.kripke": {
        "intuitionistic_power": "kripke.intuitionistic_power",
        "subalgebra_generated": "kripke.subalgebra_generated",
        "kripke_condition_check": "kripke.kripke_condition_check",
    },
    "dualbench.duality": {
        "_ordered_dual": "duality.dual",
        "_lvl_dual": "duality.lvl_dual",
        "_ordered_map_vectors": "duality.map_vectors",
        "_pbs_map_vectors": "duality.map_vectors",
        "_vector_algebra": "duality.vector_algebra",
        "check_priestley_algebra_roundtrip": "duality.roundtrip",
        "check_priestley_space_roundtrip": "duality.roundtrip",
        "check_esakia_algebra_roundtrip": "duality.roundtrip",
        "check_esakia_space_roundtrip": "duality.roundtrip",
        "check_lvl_algebra_roundtrip": "duality.roundtrip",
        "check_lvl_space_roundtrip": "duality.roundtrip",
        "_delta_roundtrip": "duality.roundtrip",
        "check_downclosure_identity": "duality.roundtrip",
        "check_implication_preimage_identity": "duality.roundtrip",
        "check_second_topology_inclusion": "duality.roundtrip",
        "functor_identity_check": "duality.functor",
        "functor_composition_check": "duality.functor",
        "dual_map_of_hom": "duality.functor",
        "dual_hom_of_map": "duality.functor",
        "_dual_of": "duality.functor",
    },
}

# Module layers whose name in the metric table differs from the module.
MODULE_LAYERS = {
    "dualbench.documents": "documents.parse_build",
    "dualbench.cli": "cli.main",
}

# Helpers called tens of thousands of times per pass for a few microseconds
# each: a span per call would cost more than the call, so their time counts
# towards the calling layer.
UNTRACED = {
    "hom_leq",
    "vector_name",
    "t_operator",
    "_op_tables",
    "_require_compatible",
    "_fold",
    "_is_filter",
    "_is_prime_filter",
    "_basic_open",
    "_point_names",
    "_injective",
    "_surjective",
    "_check_total",
    "canonical_family",
    "failed",
}

SUITE_PREFIX = "corpus.suite."
# Root spans are opened by the benchmark around set-up and the run; their
# self time is the time spent outside every traced layer.
ROOT_PREFIX = "trace."


class Tracer:
    """Spans as ``[name, start_ns, end_ns, parent_index]`` lists, plus what
    the counters need from each call's arguments and result."""

    def __init__(self):
        self.spans = []
        self._stack = [-1]
        self.is_open_calls = 0
        self.observed = {}

    # -- recording ---------------------------------------------------------

    @contextlib.contextmanager
    def span(self, name):
        """A span opened by the benchmark itself, around set-up or the run."""
        span = [name, 0, 0, self._stack[-1]]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span[1] = process_time_ns()
        try:
            yield
        finally:
            span[2] = process_time_ns()
            self._stack.pop()

    def _wrap(self, name, fn):
        spans = self.spans
        stack = self._stack
        suite = name == SUITE_PREFIX
        observer = _OBSERVERS.get(name)
        kept = self.observed.setdefault(name, []) if observer else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0, 0, stack[-1]]
            stack.append(len(spans))
            spans.append(span)
            span[1] = process_time_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = process_time_ns()
                stack.pop()
            if suite:
                span[0] = SUITE_PREFIX + result.name
            if observer is not None:
                kept.append(observer(args, result))
            return result

        return traced

    def install(self):
        """Import every dualbench module and rebind each traced function in
        every module namespace that holds it."""
        import dualbench

        modules = [dualbench] + [
            importlib.import_module(f"dualbench.{info.name}")
            for info in pkgutil.iter_modules(dualbench.__path__)
        ]
        wrapped = {}
        for module in modules:
            named = NAMED_LAYERS.get(module.__name__, {})
            default = MODULE_LAYERS.get(
                module.__name__, module.__name__.removeprefix("dualbench.")
            )
            for attr, obj in list(vars(module).items()):
                if not _traceable(obj, module.__name__) or attr in UNTRACED:
                    continue
                name = named.get(attr, default)
                if attr.startswith("suite_"):
                    name = SUITE_PREFIX
                wrapped[id(obj)] = (obj, self._wrap(name, obj))
        for module in modules:
            for attr, obj in list(vars(module).items()):
                entry = wrapped.get(id(obj))
                if entry is not None and entry[0] is obj:
                    setattr(module, attr, entry[1])
        self._count_is_open(dualbench.topology.Topology)

    def _count_is_open(self, topology_cls):
        original = topology_cls.is_open
        tracer = self

        def is_open(topo, subset):
            tracer.is_open_calls += 1
            return original(topo, subset)

        topology_cls.is_open = is_open

    # -- reporting ---------------------------------------------------------

    def self_times(self):
        """Per span name, the summed self time in nanoseconds and the summed
        duration (inclusive of children)."""
        spans = self.spans
        covered = [0] * len(spans)
        for _, start, end, parent in spans:
            if parent >= 0:
                covered[parent] += end - start
        self_ns = {}
        total_ns = {}
        for (name, start, end, _), child in zip(spans, covered):
            self_ns[name] = self_ns.get(name, 0) + (end - start - child)
            total_ns[name] = total_ns.get(name, 0) + (end - start)
        return self_ns, total_ns

    def layer_metrics(self):
        """Self seconds per layer (suite spans count towards ``corpus``),
        inclusive seconds per suite, and the call counters."""
        self_ns, total_ns = self.self_times()
        metrics = {"trace.unattributed_s": 0.0}
        for name, ns in self_ns.items():
            if name.startswith(ROOT_PREFIX):
                key = "trace.unattributed_s"
            elif name.startswith(SUITE_PREFIX):
                key = "corpus.self_s"
            else:
                key = f"{name}.self_s"
            metrics[key] = metrics.get(key, 0.0) + ns / 1e9
        for name, ns in total_ns.items():
            if name.startswith(SUITE_PREFIX):
                metrics[f"{name}_s"] = ns / 1e9
        roots = [s for s in self.spans if s[3] < 0]
        metrics["trace.traced_s"] = sum(end - start for _, start, end, _ in roots) / 1e9
        metrics["trace.spans"] = len(self.spans)
        metrics["topology.is_open.calls"] = self.is_open_calls
        for name, counters in _COUNTERS.items():
            records = self.observed.get(name, [])
            metrics[f"{name}.calls"] = len(records)
            for counter, value in counters(records).items():
                metrics[f"{name}.{counter}"] = value
        return metrics

    def write_spans(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("index\tname\tstart_ns\tend_ns\tparent\n")
            for i, (name, start, end, parent) in enumerate(self.spans):
                fh.write(f"{i}\t{name}\t{start}\t{end}\t{parent}\n")


def _traceable(obj, module_name):
    if getattr(obj, "__module__", None) != module_name:
        return False
    if inspect.isfunction(obj):
        # a generator's body runs after the call returns, outside any span
        return not inspect.isgeneratorfunction(obj)
    return isinstance(obj, functools._lru_cache_wrapper)


def _tables(algebra):
    """An algebra's operations, without element or algebra names: all a hom
    search between two algebras depends on."""
    lat = algebra.lattice
    return (
        algebra.signature,
        lat.meet,
        lat.join,
        lat.bottom,
        lat.top,
        algebra.implies,
        algebra.t_ops,
    )


def _dual_input(args):
    """A dual also depends on the truth lattice the points map into."""
    truth = args[0].truth
    return _tables(args[0]), truth.meet, truth.join


# name -> what to keep of each call, from its arguments and result. Only
# numbers and operation tables are kept: holding on to results such as
# 8192-open topologies would make the collector slow the traced run down.
_OBSERVERS = {
    "algebra.enumerate_homs": lambda args, result: (
        len(result),
        (_tables(args[0]), _tables(args[1])),
    ),
    "topology.generate_topology": lambda args, result: (
        len(result.opens),
        result.size,
    ),
    "kripke.intuitionistic_power": lambda args, result: (len(result) ** 2,),
    "duality.dual": lambda args, result: (_dual_input(args),),
    "duality.lvl_dual": lambda args, result: (_dual_input(args),),
    "duality.map_vectors": lambda args, result: (len(result),),
    "duality.vector_algebra": lambda args, result: (len(result) ** 2,),
}


def _distinct_ratio(keys):
    return len(set(keys)) / len(keys) if keys else 0.0


# name -> counters from the kept records of its calls
_COUNTERS = {
    "algebra.enumerate_homs": lambda rec: {
        "homs": sum(r[0] for r in rec),
        "distinct_ratio": _distinct_ratio([r[1] for r in rec]),
    },
    "topology.generate_topology": lambda rec: {
        "opens": sum(r[0] for r in rec),
        "max_points": max((r[1] for r in rec), default=0),
    },
    "kripke.intuitionistic_power": lambda rec: {"table_entries": sum(r[0] for r in rec)},
    "duality.dual": lambda rec: {"distinct_ratio": _distinct_ratio([r[0] for r in rec])},
    "duality.lvl_dual": lambda rec: {
        "distinct_ratio": _distinct_ratio([r[0] for r in rec])
    },
    "duality.map_vectors": lambda rec: {"kept": sum(r[0] for r in rec)},
    "duality.vector_algebra": lambda rec: {"table_entries": sum(r[0] for r in rec)},
}
