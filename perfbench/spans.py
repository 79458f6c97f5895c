"""In-memory span tracing around the package's public functions.

The tracer replaces each wrapped function in every ``p2psec`` module
namespace that binds it (``simnet`` imports ``compile_policy``,
``kind_ruleset`` and ``run_challenges`` by name, for example) and puts
the originals back on exit, so untraced ops run the unmodified program.

Three kinds of wrapper:

* span: records (name, start, end, parent, op id); a layer's self time
  is its spans' duration minus the part covered by child spans and by
  timed leaves called directly inside it;
* leaf: hot functions that are timed and counted in aggregate per op
  instead of one span per call; a leaf called inside another leaf is
  counted, and its time stays with the outer leaf;
* count: calls only.

The probe harness that ``run_challenges`` receives is wrapped with a
counter, and ``SimulationEngine.run`` reports the logical clock it ends
on, so probes and ticks are counted where the work happens.
"""

from __future__ import annotations

import functools
import json
import sys
from collections import Counter
from contextlib import contextmanager
from time import perf_counter

SPAN, LEAF, COUNT = "span", "leaf", "count"

#: (layer, wrapper kind, module or "module:Class", attribute names)
LAYERS = (
    ("policy_xml.parse", SPAN, "p2psec.policy_xml", ("parse_policy",)),
    ("policy_xml.lift", SPAN, "p2psec.policy_xml", ("to_peer_policy",)),
    ("policy.validate", SPAN, "p2psec.policy:PeerPolicy", ("validate",)),
    ("policy.lookup", LEAF, "p2psec.policy:PeerPolicy",
     ("domain", "has_domain", "domain_by_id", "find_resource",
      "has_resource", "effective_properties")),
    ("policy.edit", SPAN, "p2psec.policy:PeerPolicy",
     ("create_domain", "delete_domain", "add_property", "add_resource",
      "publish")),
    ("mac.compile", SPAN, "p2psec.mac", ("compile_policy",)),
    ("mac.kind_ruleset", LEAF, "p2psec.mac", ("kind_ruleset",)),
    ("mac.emit", SPAN, "p2psec.mac", ("emit_rules", "render_contexts")),
    ("mac.verify", LEAF, "p2psec.mac", ("verify_challenge",)),
    ("mac.check_access", COUNT, "p2psec.mac", ("check_access",)),
    ("trust.run_challenges", SPAN, "p2psec.trust", ("run_challenges",)),
    ("trust.history", SPAN, "p2psec.trust", ("eval_history",)),
    ("trust.update_reputation", SPAN, "p2psec.trust",
     ("update_reputation",)),
    ("negotiation", SPAN, "p2psec.negotiation",
     ("open_session", "eval_property", "decide", "apply_transfer")),
    ("simnet.parse", SPAN, "p2psec.simnet", ("parse_scenario",)),
    ("simnet.render", SPAN, "p2psec.simnet", ("render_report",)),
    ("simnet.cross_reference", SPAN, "p2psec.simnet",
     ("cross_reference_history",)),
    ("simnet.engine", SPAN, "p2psec.simnet", ("run_scenario",)),
    ("simnet.recompiles", COUNT, "p2psec.simnet:PeerAgent",
     ("apply_policy",)),
)

#: Per-layer metrics: (name, unit, better).  ``.ms`` values are self
#: time per op unless the README marks them inclusive.
METRICS = (
    ("policy_xml.parse.ms", "ms", "lower"),
    ("policy_xml.lift.ms", "ms", "lower"),
    ("policy.validate.ms", "ms", "lower"),
    ("policy.validate.calls", "calls", "lower"),
    ("policy.lookup.ms", "ms", "lower"),
    ("policy.lookup.calls", "calls", "lower"),
    ("policy.edit.ms", "ms", "lower"),
    ("policy.edit.calls", "calls", "lower"),
    ("mac.compile.ms", "ms", "lower"),
    ("mac.compile.calls", "calls", "lower"),
    ("mac.kind_ruleset.ms", "ms", "lower"),
    ("mac.kind_ruleset.calls", "calls", "lower"),
    ("mac.emit.ms", "ms", "lower"),
    ("mac.verify.ms", "ms", "lower"),
    ("mac.check_access.calls", "calls", "lower"),
    ("trust.run_challenges.ms", "ms", "lower"),
    ("trust.run_challenges.calls", "calls", "lower"),
    ("trust.evals", "calls", "lower"),
    ("trust.probes", "calls", "lower"),
    ("trust.probes_per_eval", "probes/eval", "lower"),
    ("trust.probe_yield", "ratio", "higher"),
    ("trust.history.ms", "ms", "lower"),
    ("trust.history.calls", "calls", "lower"),
    ("trust.update_reputation.ms", "ms", "lower"),
    ("negotiation.ms", "ms", "lower"),
    ("negotiation.calls", "calls", "lower"),
    ("simnet.parse.ms", "ms", "lower"),
    ("simnet.render.ms", "ms", "lower"),
    ("simnet.cross_reference.ms", "ms", "lower"),
    ("simnet.cross_reference.calls", "calls", "lower"),
    ("simnet.recompiles_per_ask", "calls/ask", "lower"),
    ("simnet.ticks_per_ask", "ticks/ask", "lower"),
    ("simnet.engine_self.ms", "ms", "lower"),
    ("trace.overhead_ratio", "ratio", "lower"),
)


class Tracer:
    """Collects spans and per-op aggregates while installed."""

    def __init__(self):
        self.t0 = perf_counter()
        # (op, id, parent id, name, start, end, leaf seconds inside)
        self.spans: list[tuple] = []
        # op -> (call counts, leaf seconds)
        self.per_op: dict[int, tuple[Counter, Counter]] = {}
        self._stack: list[list] = []
        self._next_id = 0
        self._leaf_depth = 0
        self._op = -1
        self._calls: Counter = Counter()
        self._leaf: Counter = Counter()

    # -- recording ------------------------------------------------------

    def _open(self):
        self._next_id += 1
        frame = [self._next_id, 0.0]
        parent = self._stack[-1][0] if self._stack else None
        self._stack.append(frame)
        return frame, parent

    def _span(self, name: str, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tracer._calls[name] += 1
            tracer._calls[fn.__name__] += 1
            frame, parent = tracer._open()
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                tracer._stack.pop()
                tracer.spans.append((tracer._op, frame[0], parent, name,
                                     start, end, frame[1]))
        return wrapper

    def _leaf_timer(self, name: str, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tracer._calls[name] += 1
            if tracer._leaf_depth:
                return fn(*args, **kwargs)
            tracer._leaf_depth += 1
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                tracer._leaf_depth -= 1
                tracer._leaf[name] += elapsed
                tracer._stack[-1][1] += elapsed
        return wrapper

    def _counter(self, name: str, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tracer._calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    def _challenges(self, fn):
        """run_challenges as a span, with its harness counted."""
        traced = self._span("trust.run_challenges", fn)
        counted = functools.partial(self._counter, "trust.probes")

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if "harness" in kwargs:
                kwargs["harness"] = counted(kwargs["harness"])
            else:
                args = args[:3] + (counted(args[3]),) + args[4:]
            return traced(*args, **kwargs)
        return wrapper

    def _engine_run(self, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(engine):
            try:
                return fn(engine)
            finally:
                tracer._calls["simnet.ticks"] += engine.now
        return wrapper

    # -- installation -----------------------------------------------------

    @contextmanager
    def installed(self):
        """Patch every binding of the wrapped functions; restore on exit."""
        saved: list[tuple[object, str, object]] = []
        modules = [m for n, m in sys.modules.items()
                   if n == "p2psec" or n.startswith("p2psec.")]
        try:
            for layer, kind, owner, names in LAYERS:
                for attr in names:
                    if kind == SPAN:
                        make = functools.partial(self._span, layer)
                    elif kind == LEAF:
                        make = functools.partial(self._leaf_timer, layer)
                    else:
                        make = functools.partial(self._counter, layer)
                    if attr == "run_challenges":
                        make = self._challenges
                    self._patch(owner, attr, make, modules, saved)
            self._patch("p2psec.simnet:SimulationEngine", "run",
                        self._engine_run, modules, saved)
            yield self
        finally:
            for target, attr, original in reversed(saved):
                setattr(target, attr, original)

    @staticmethod
    def _patch(owner: str, attr: str, make, modules, saved) -> None:
        module_name, _, class_name = owner.partition(":")
        module = sys.modules[module_name]
        if class_name:
            cls = getattr(module, class_name)
            original = cls.__dict__[attr]
            saved.append((cls, attr, original))
            setattr(cls, attr, make(original))
            return
        original = getattr(module, attr)
        wrapper = make(original)
        for mod in modules:
            for key, value in list(vars(mod).items()):
                if value is original:
                    saved.append((mod, key, original))
                    setattr(mod, key, wrapper)

    @contextmanager
    def op(self, op_id: int, keep: bool = True):
        """Trace one op under a root span; aggregates are kept per op.

        With ``keep`` false the op is traced the same way but its spans
        are dropped afterwards, which bounds memory and the span file.
        """
        first_span = len(self.spans)
        self._op = op_id
        self._calls = Counter()
        self._leaf = Counter()
        self._stack = []
        with self.installed():
            frame, _ = self._open()
            start = perf_counter()
            try:
                yield
            finally:
                end = perf_counter()
                self._stack.pop()
                self.spans.append((op_id, frame[0], None, "op", start, end,
                                   frame[1]))
                self.per_op[op_id] = (self._calls, self._leaf)
                if not keep:
                    del self.spans[first_span:]

    # -- results ----------------------------------------------------------

    def self_times(self) -> dict[int, float]:
        """Span id -> self seconds."""
        covered: Counter = Counter()
        for _, _, parent, _, start, end, _ in self.spans:
            if parent is not None:
                covered[parent] += end - start
        return {sid: (end - start) - covered[sid] - leaf
                for _, sid, _, _, start, end, leaf in self.spans}

    def metrics(self, ops: list[int], asks: int) -> dict[str, float]:
        """Per-op means over ``ops``; ``asks`` is their total ask count."""
        selected = set(ops)
        count = len(ops)
        self_s = self.self_times()
        self_ms: Counter = Counter()
        incl_ms: Counter = Counter()
        for op, sid, _, name, start, end, _ in self.spans:
            if op in selected:
                self_ms[name] += self_s[sid] * 1000.0
                incl_ms[name] += (end - start) * 1000.0
        calls: Counter = Counter()
        for op in ops:
            op_calls, leaf = self.per_op[op]
            calls.update(op_calls)
            for name, seconds in leaf.items():
                self_ms[name] += seconds * 1000.0

        def per_op(value: float) -> float:
            return value / count

        def ratio(num: float, den: float) -> float:
            return num / den if den else 0.0

        out = {}
        for name in ("policy_xml.parse", "policy_xml.lift",
                     "policy.validate", "policy.lookup", "policy.edit",
                     "mac.compile", "mac.kind_ruleset", "mac.emit",
                     "mac.verify", "trust.history",
                     "trust.update_reputation", "negotiation",
                     "simnet.parse", "simnet.render",
                     "simnet.cross_reference"):
            out[f"{name}.ms"] = per_op(self_ms[name])
        for name in ("policy.validate", "policy.lookup", "policy.edit",
                     "mac.compile", "mac.kind_ruleset", "trust.history",
                     "negotiation", "simnet.cross_reference",
                     "trust.run_challenges"):
            out[f"{name}.calls"] = per_op(calls[name])
        out["mac.check_access.calls"] = per_op(calls["mac.check_access"])
        out["trust.run_challenges.ms"] = per_op(
            incl_ms["trust.run_challenges"])
        out["trust.evals"] = per_op(calls["eval_property"])
        out["trust.probes"] = per_op(calls["trust.probes"])
        out["trust.probes_per_eval"] = ratio(calls["trust.probes"],
                                             calls["eval_property"])
        out["trust.probe_yield"] = ratio(calls["trust.run_challenges"],
                                         calls["trust.probes"])
        out["simnet.recompiles_per_ask"] = ratio(calls["simnet.recompiles"],
                                                 asks)
        out["simnet.ticks_per_ask"] = ratio(calls["simnet.ticks"], asks)
        out["simnet.engine_self.ms"] = per_op(self_ms["simnet.engine"])
        return out

    def write(self, path) -> None:
        """Spans, then per-op aggregates, as JSON lines."""
        self_s = self.self_times()
        with open(path, "w", encoding="utf-8") as handle:
            for op, sid, parent, name, start, end, _ in self.spans:
                handle.write(json.dumps({
                    "op": op, "id": sid, "parent": parent, "name": name,
                    "start_ms": (start - self.t0) * 1000.0,
                    "end_ms": (end - self.t0) * 1000.0,
                    "self_ms": self_s[sid] * 1000.0}) + "\n")
            for op, (calls, leaf) in sorted(self.per_op.items()):
                handle.write(json.dumps({
                    "op": op, "calls": dict(sorted(calls.items())),
                    "leaf_ms": {k: v * 1000.0
                                for k, v in sorted(leaf.items())}}) + "\n")
