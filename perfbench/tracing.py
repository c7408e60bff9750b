"""Traced run: wrappers around arrowq's public functions, installed from
the benchmark's own files while the program's source stays untouched.

A function is wrapped at every import site: social_choice and hilbert
import ``prefers``/``order_rank`` by name, so patching ``arrowq.orders``
alone would miss their calls.  Layer-entry functions record spans with
their parent span; the hot leaves keep only counters and aggregate time,
since they run millions of times per rule-audit pass.  Every wrapper keeps
self time (its duration minus the time of wrapped calls inside it).
"""

from __future__ import annotations

import importlib
import sys
from collections import Counter, defaultdict
from contextlib import contextmanager
from time import perf_counter

# (module, function) pairs; "Class.method" wraps a method on its class.
HOT = [
    ("orders", "prefers"),
    ("orders", "order_rank"),
    ("orders", "validate_order"),
    ("social_choice", "pair_input"),
    ("social_choice", "VotingRule.outcome"),
    ("bell", "chsh_value"),
    ("bell", "ch_value"),
    ("bell", "measurement_correlation"),
    ("bell", "joint_plus_probability"),
]
SPANS = [
    ("social_choice", "enumerate_fair_rules"),
    ("social_choice", "verify_arrow"),
    ("social_choice", "find_dictator"),
    ("social_choice", "check_pareto"),
    ("social_choice", "check_iia"),
    ("social_choice", "check_ud"),
    ("social_choice", "check_ud_triples"),
    ("social_choice", "arrow_report"),
    ("social_choice", "classical_circuit_table"),
    ("hilbert", "lift_rule_to_unitary"),
    ("hilbert", "is_dictatorial_circuit"),
    ("hilbert", "cloning_fidelity"),
    ("hilbert", "no_cloning_scan"),
    ("hilbert", "verify_ks_coloring"),
    ("bell", "maximize_violation"),
    ("landauer", "voting_energy"),
    ("cli", "main"),
]
PREDICATES = ("check_pareto", "check_iia", "check_ud", "check_ud_triples")

# Per-layer metrics reported by a traced run: (name, unit, better).
COUNT, SECONDS = "count", "s"
PER_LAYER = [
    ("orders.prefers.calls", COUNT, "lower"),
    ("orders.prefers.self_s", SECONDS, "lower"),
    ("orders.order_rank.calls", COUNT, "lower"),
    ("orders.order_rank.self_s", SECONDS, "lower"),
    ("orders.validate_order.calls", COUNT, "lower"),
    ("social_choice.all_profiles.calls", COUNT, "lower"),
    ("social_choice.profiles_yielded", COUNT, "lower"),
    ("social_choice.pair_input.calls", COUNT, "lower"),
    ("social_choice.pair_input.self_s", SECONDS, "lower"),
    ("social_choice.VotingRule.outcome.calls", COUNT, "lower"),
    ("social_choice.VotingRule.outcome.self_s", SECONDS, "lower"),
    ("social_choice.enumerate_fair_rules.calls", COUNT, "lower"),
    ("social_choice.enumerate_fair_rules.self_s", SECONDS, "lower"),
    ("social_choice.fair_rules_found", COUNT, "higher"),
    ("social_choice.verify_arrow.self_s", SECONDS, "lower"),
    ("social_choice.find_dictator.calls", COUNT, "lower"),
    ("social_choice.find_dictator.self_s", SECONDS, "lower"),
    ("social_choice.check_pareto.self_s", SECONDS, "lower"),
    ("social_choice.check_iia.self_s", SECONDS, "lower"),
    ("social_choice.check_ud.self_s", SECONDS, "lower"),
    ("social_choice.check_ud_triples.self_s", SECONDS, "lower"),
    ("social_choice.arrow_report.self_s", SECONDS, "lower"),
    ("social_choice.predicate_errors", COUNT, "lower"),
    ("social_choice.classical_circuit_table.self_s", SECONDS, "lower"),
    ("hilbert.lift_rule_to_unitary.calls", COUNT, "lower"),
    ("hilbert.lift_rule_to_unitary.self_s", SECONDS, "lower"),
    ("hilbert.is_dictatorial_circuit.calls", COUNT, "lower"),
    ("hilbert.is_dictatorial_circuit.self_s", SECONDS, "lower"),
    ("hilbert.cloning_fidelity.calls", COUNT, "lower"),
    ("hilbert.cloning_fidelity.self_s", SECONDS, "lower"),
    ("hilbert.recheck_ratio", "ratio", "lower"),
    ("hilbert.no_cloning_scan.self_s", SECONDS, "lower"),
    ("hilbert.verify_ks_coloring.self_s", SECONDS, "lower"),
    ("bell.maximize_violation.self_s", SECONDS, "lower"),
    ("bell.chsh_value.calls", COUNT, "lower"),
    ("bell.chsh_value.self_s", SECONDS, "lower"),
    ("bell.ch_value.calls", COUNT, "lower"),
    ("bell.ch_value.self_s", SECONDS, "lower"),
    ("bell.measurement_correlation.calls", COUNT, "lower"),
    ("bell.joint_plus_probability.calls", COUNT, "lower"),
    ("bell.evals_per_s", "1/s", "higher"),
    ("bell.optimizer_gap", "value", "lower"),
    ("landauer.voting_energy.calls", COUNT, "lower"),
    ("landauer.voting_energy.self_s", SECONDS, "lower"),
    ("cli.main.calls", COUNT, "lower"),
    ("cli.main.self_s", SECONDS, "lower"),
    ("cli.report_bytes", "bytes", "lower"),
    ("trace.overhead_s", SECONDS, "lower"),
]


class Tracer:
    """Counters, self/inclusive time and spans for the wrapped functions.

    ``install`` patches every arrowq module (and class) that holds one of
    the originals; ``uninstall`` restores them.  Spans are kept in memory
    as (id, parent id, name, start, end) and written out by the caller.
    """

    def __init__(self):
        self.calls = Counter()
        self.errors = Counter()
        self.self_s = defaultdict(float)
        self.total_s = defaultdict(float)
        self.spans: list[tuple] = []
        self._frames = [[0.0]]  # child-time accumulator per active call
        self._span_stack = [None]
        self._patches: list[tuple] = []

    # ---- wrappers ----

    def _wrap(self, name, fn, span, on_result=None):
        frames, span_stack, spans = self._frames, self._span_stack, self.spans
        calls, errors, self_s, total_s = self.calls, self.errors, self.self_s, self.total_s

        def wrapper(*args, **kwargs):
            frame = [0.0]
            frames.append(frame)
            if span:
                sid = len(spans)
                spans.append(None)
                span_stack.append(sid)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
                if on_result is not None:
                    on_result(result)
                return result
            except Exception:
                errors[name] += 1
                raise
            finally:
                t1 = perf_counter()
                dt = t1 - t0
                frames.pop()
                frames[-1][0] += dt
                calls[name] += 1
                self_s[name] += dt - frame[0]
                total_s[name] += dt
                if span:
                    span_stack.pop()
                    spans[sid] = (sid, span_stack[-1], name, t0, t1)

        return wrapper

    def _wrap_profiles(self, name, fn):
        calls = self.calls

        def counted(it):
            for profile in it:
                calls["social_choice.profiles_yielded"] += 1
                yield profile

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return counted(fn(*args, **kwargs))

        return wrapper

    @contextmanager
    def op_span(self, label):
        """Root span around one benchmark operation."""
        sid = len(self.spans)
        self.spans.append(None)
        self._span_stack.append(sid)
        t0 = perf_counter()
        try:
            yield
        finally:
            self._span_stack.pop()
            self.spans[sid] = (sid, None, f"op:{label}", t0, perf_counter())

    # ---- install / uninstall ----

    def install(self):
        modules = [m for k, m in sorted(sys.modules.items())
                   if m is not None and (k == "arrowq" or k.startswith("arrowq."))]
        for modname, attr in HOT + SPANS + [("social_choice", "all_profiles")]:
            module = importlib.import_module(f"arrowq.{modname}")
            name = f"{modname}.{attr}"
            cls_name, _, meth = attr.rpartition(".")
            if cls_name:
                cls = getattr(module, cls_name)
                self._patch(cls, meth, self._wrap(name, vars(cls)[meth], span=False))
                continue
            original = getattr(module, attr)
            if attr == "all_profiles":
                wrapper = self._wrap_profiles(name, original)
            else:
                on_result = self._count_rules if attr == "enumerate_fair_rules" else None
                wrapper = self._wrap(name, original, (modname, attr) in SPANS, on_result)
            for mod in modules:
                if getattr(mod, attr, None) is original:
                    self._patch(mod, attr, wrapper)

    def _count_rules(self, rules):
        self.calls["social_choice.fair_rules_found"] += len(rules)

    def _patch(self, owner, attr, wrapper):
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, wrapper)

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # ---- metrics ----

    def metrics(self, report_bytes: int, optimizer_gap: float, overhead_s: float) -> dict:
        c, s = self.calls, self.self_s
        lifts = c["hilbert.lift_rule_to_unitary"]
        optimizer_s = self.total_s["bell.maximize_violation"]
        derived = {
            "social_choice.profiles_yielded": c["social_choice.profiles_yielded"],
            "social_choice.fair_rules_found": c["social_choice.fair_rules_found"],
            "social_choice.predicate_errors": sum(
                self.errors[f"social_choice.{p}"] for p in PREDICATES),
            "hilbert.recheck_ratio": (
                c["hilbert.is_dictatorial_circuit"] / lifts if lifts else 0.0),
            "bell.evals_per_s": (
                (c["bell.chsh_value"] + c["bell.ch_value"]) / optimizer_s
                if optimizer_s else 0.0),
            "bell.optimizer_gap": optimizer_gap,
            "cli.report_bytes": report_bytes,
            "trace.overhead_s": overhead_s,
        }
        out = {}
        for name, unit, _ in PER_LAYER:
            if name in derived:
                value = derived[name]
            elif name.endswith(".calls"):
                value = c[name[: -len(".calls")]]
            else:
                value = s[name[: -len(".self_s")]]
            out[name] = {"value": value, "unit": unit}
        return out
