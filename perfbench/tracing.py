"""Spans and counts around the calls into each clic module.

`install()` replaces the public functions of every clic module with
wrappers, in the defining module and in every module that imported
them by name, so calls between modules are seen too.  A wrapper keeps
a stack of open frames: each closed call adds its duration to its
parent's child time, and its self time is its duration minus that
child time.  Spans (name, start, end, parent) stay in memory until the
process ends; per function at most SPAN_CAP are kept, but the counts
and times cover every call.

Compiled formulas are called once per model, millions of times in a
catalog run, so their wrapper only counts and times; it opens no frame
and cannot have children.

A wrapper costs time inside the interval it measures (reading the
clock) and outside it (the call into the wrapper, the bookkeeping after
the clock stops).  `install()` estimates both per call for each kind of
wrapper: the inside part is taken off every measured duration and the
outside part is charged to the tracer rather than to the caller, so a
caller's self time does not grow with the number of calls it makes into
traced functions.  Both are estimates on a noisy machine;
`trace.overhead_s` reports the total cost of tracing end to end.

A target a refactor renamed or removed is listed as absent and its
metrics read 0; the run goes on.
"""

from __future__ import annotations

import importlib
import json
import time
from collections import Counter

SPAN_CAP = 20000

# (metric prefix, module, attribute, kind).  Kinds: "call" (plain
# function), "gen" (generator function, timed per item), "method"
# (attribute path on a class in the module).
TARGETS = [
    ("formula.parse", "clic.formula", "parse_formula", "call"),
    ("formula.print", "clic.formula", "print_formula", "call"),
    ("formula.enumerate", "clic.formula", "enumerate_formulas", "gen"),
    ("model.enumerate", "clic.model", "enumerate_models", "gen"),
    ("model.parse", "clic.model", "parse_model", "call"),
    ("model.print", "clic.model", "print_model", "call"),
    ("eval.build_space", "clic._eval", "build_space", "call"),
    ("eval.context", "clic._eval", "ModelContext.__init__", "method"),
    ("eval.compile", "clic._eval", "compile_formula", "call"),
    ("validity.search", "clic.validity", "_search", "call"),
    ("validity.find_countermodel", "clic.validity", "find_countermodel",
     "call"),
    ("semantics.extension", "clic.semantics", "extension", "call"),
    ("semantics.satisfies", "clic.semantics", "satisfies", "call"),
    ("semantics.check_ability", "clic.semantics", "check_ability", "call"),
    ("semantics.check_inability", "clic.semantics", "check_inability",
     "call"),
    ("translation.translate", "clic.translation", "translate", "call"),
    ("translation.check_truth_preservation", "clic.translation",
     "check_truth_preservation", "call"),
    ("laws.run_laws", "clic.laws", "run_laws", "call"),
    ("laws.replay_fixture", "clic.laws", "replay_fixture", "call"),
    ("laws.fixture_model", "clic.laws", "fixture_model", "call"),
    ("cli.main", "clic.cli", "main", "call"),
]
EVALUATE = "eval.evaluate"


class Tracer:
    def __init__(self) -> None:
        self.clock = time.perf_counter_ns
        # A frame is [name, start_ns, child_ns, span index or -1].
        self.stack: list[list] = [["root", self.clock(), 0, -1]]
        self.spans: list[tuple | None] = []
        self.stats: dict[str, list[int]] = {}   # name -> [calls, ns, self]
        self.items: Counter = Counter()
        self.counters: Counter = Counter()
        self.pairs: Counter = Counter()
        self.frames: set = set()
        self.bounds: set = set()
        self.absent: set[str] = set()
        self.kept: Counter = Counter()
        # Estimated ns each wrapper kind costs (inside, outside) the
        # interval it measures.
        self.call_cost = (0, 0)
        self.leaf_cost = (0, 0)

    # -- wrappers -----------------------------------------------------------

    def wrap(self, name, fn, post=None):
        stack, spans, clock = self.stack, self.spans, self.clock
        stat = self.stats.setdefault(name, [0, 0, 0])
        kept, pairs, absent = self.kept, self.pairs, self.absent
        bias, cost = self.call_cost

        def traced(*args, **kwargs):
            parent = stack[-1]
            if parent[0] == name:       # direct recursion: one call
                return fn(*args, **kwargs)
            if kept[name] < SPAN_CAP:
                kept[name] += 1
                index = len(spans)
                spans.append(None)
            else:
                index = -1
            frame = [name, clock(), 0, index]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - frame[1] - bias
                parent[2] += duration + cost
                stat[0] += 1
                stat[1] += duration
                stat[2] += duration - frame[2]
                pairs[parent[0], name] += 1
                if index >= 0:
                    spans[index] = (name, frame[1], end, _anchor(stack))
            if post is not None:
                start = clock()
                try:
                    result = post(result, args)
                except Exception:   # a refactor changed the signature
                    absent.add(name + ".hook")
                parent[2] += clock() - start
            return result

        traced.__wrapped__ = fn
        return traced

    def wrap_gen(self, name, fn):
        stack, clock = self.stack, self.clock
        stat = self.stats.setdefault(name, [0, 0, 0])
        items = self.items
        bias, cost = self.call_cost

        def traced(*args, **kwargs):
            stat[0] += 1
            gen = fn(*args, **kwargs)
            while True:
                parent = stack[-1]
                frame = [name, clock(), 0, -1]
                stack.append(frame)
                try:
                    item = next(gen)
                except StopIteration:
                    return
                finally:
                    duration = clock() - frame[1] - bias
                    stack.pop()
                    parent[2] += duration + cost
                    stat[1] += duration
                    stat[2] += duration - frame[2]
                items[name] += 1
                yield item

        traced.__wrapped__ = fn
        return traced

    def wrap_leaf(self, name, fn):
        stack, clock = self.stack, self.clock
        stat = self.stats.setdefault(name, [0, 0, 0])
        bias, cost = self.leaf_cost

        def counted(*args):
            start = clock()
            result = fn(*args)
            duration = clock() - start - bias
            stat[0] += 1
            stat[1] += duration
            stat[2] += duration
            stack[-1][2] += duration + cost
            return result

        return counted

    # -- output -------------------------------------------------------------

    def summary(self) -> dict:
        return {
            "stats": self.stats,
            "items": dict(self.items),
            "counters": dict(self.counters),
            "pairs": {f"{a}>{b}": n for (a, b), n in self.pairs.items()},
            "frames": len(self.frames),
            "space_models": sum(_size(b, b.max_agents) for b in self.bounds),
            "absent": sorted(self.absent),
            "wrapper_cost_ns": [self.call_cost, self.leaf_cost],
            "spans": [s for s in self.spans if s is not None],
        }


def _anchor(stack) -> int:
    """Span index of the innermost open frame that keeps a span."""
    for frame in reversed(stack):
        if frame[3] >= 0:
            return frame[3]
    return -1


def install() -> Tracer:
    """Wrap every target in the loaded clic package; return the tracer."""
    import clic  # noqa: F401  (loads every submodule)

    tr = Tracer()
    tr.call_cost = _wrapper_cost(lambda t: t.wrap("probe", _probe))
    tr.leaf_cost = _wrapper_cost(lambda t: t.wrap_leaf("probe", _probe))
    modules = [m for m in map(_module, ["clic"] + [t[1] for t in TARGETS])
               if m is not None]
    hooks = _hooks(tr)
    for name, module_name, attr, kind in TARGETS:
        owner, _, leaf = attr.rpartition(".")
        holder = _module(module_name)
        if owner and holder is not None:
            holder = getattr(holder, owner, None)
        original = getattr(holder, leaf, None)
        if original is None:
            tr.absent.add(name)
            continue
        if kind == "gen":
            wrapped = tr.wrap_gen(name, original)
        else:
            wrapped = tr.wrap(name, original, hooks.get(name))
        if kind == "method":
            setattr(holder, leaf, wrapped)
            continue
        for m in modules:
            for key, value in list(vars(m).items()):
                if value is original:
                    setattr(m, key, wrapped)
    return tr


def _probe(a, b, c):
    return None


def _wrapper_cost(make, calls: int = 4000, rounds: int = 7
                  ) -> tuple[int, int]:
    """ns per call a wrapper adds (inside, outside) what it measures.

    Compares `calls` calls of a three-argument no-op (a compiled
    formula takes three) through a wrapper on a scratch
    tracer with the same calls made directly: inside is what the
    wrapper measured beyond the direct cost, outside the rest.  The
    median of a few rounds damps the noise of a shared machine.
    """
    inside, outside = [], []
    for _ in range(rounds):
        scratch = Tracer()
        wrapped = make(scratch)
        clock = scratch.clock
        start = clock()
        for _ in range(calls):
            wrapped(1, 2, 3)
        through = clock() - start
        start = clock()
        for _ in range(calls):
            _probe(1, 2, 3)
        direct = clock() - start
        measured = scratch.stack[0][2]
        inside.append(max(0, (measured - direct) // calls))
        outside.append(max(0, (through - direct - measured) // calls))
    return sorted(inside)[rounds // 2], sorted(outside)[rounds // 2]


def _module(name: str):
    try:
        return importlib.import_module(name)
    except ImportError:
        return None


def _hooks(tr: Tracer) -> dict:
    """Post-call hooks that read counts from arguments and results."""
    max_agent = getattr(_module("clic.formula"), "max_agent", None)

    def context(result, args):
        m = args[1]
        tr.frames.add((m.n_agents, m.states, m.actions,
                       frozenset(m.outcome.items())))
        return result

    def compile_(result, args):
        return tr.wrap_leaf(EVALUATE, result)

    def search(result, args):
        f, b = args[0], args[1]
        tr.bounds.add(b)
        if isinstance(result, tuple):
            tr.counters["validity.models_checked"] += result[1]
        # Enumeration is agent-count major, so every model with fewer
        # agents than f mentions comes first and is skipped.
        need = max_agent(f)
        if need > 1:
            tr.counters["validity.models_skipped"] += _size(b, need - 1)
        return result

    def parse(result, args):
        tr.counters["formula.parse.chars"] += len(args[0])
        return result

    def preservation(result, args):
        tr.bounds.add(args[0])
        tr.counters["translation.checks"] += getattr(result, "total_checks",
                                                     0)
        return result

    def laws(result, args):
        for r in getattr(result, "results", ()):
            tr.counters["laws.instantiations"] += r.instantiations
        return result

    return {"eval.context": context, "eval.compile": compile_,
            "validity.search": search, "formula.parse": parse,
            "translation.check_truth_preservation": preservation,
            "laws.run_laws": laws}


def _size(b, agents: int) -> int:
    from harness import space_size
    return space_size(agents, b.max_states, b.max_actions_per_agent,
                      len(b.props), b.vary_all_states)[0]


def dump(tr: Tracer, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(tr.summary(), fh)
