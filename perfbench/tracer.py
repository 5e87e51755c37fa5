"""Per-layer figures from wrapping nerode's public functions.

The benchmark replaces each function listed in SPANS, in every nerode
module that holds it, by a wrapper that times the call.  A call's self time
is its duration minus that of the wrapped calls made inside it; a layer's
time is the sum of the self times of its functions.  Counts are read from
arguments and return values.  Nothing under src/ changes: the wrappers are
put in place when the traced run starts and taken out when it ends.

Per-word primitives (membership, Dfa.run, compose) are not wrapped, so
their cost lands in the layer that calls them.
"""

from __future__ import annotations

import sys
from collections import defaultdict
from time import process_time

# (module, attribute) -> layer bucket; "Class.method" patches the class.
SPANS = {
    ("language", "characteristic_table"): "language.chi",
    ("language", "parse_spec_file"): "language.parse",
    ("regex", "compile_regex"): "regex.compile",
    ("dfa", "minimize_dfa"): "dfa.minimize",
    ("dfa", "language_mismatch"): "dfa.product",
    ("topology", "nerode_classes"): "topology",
    ("topology", "stabilization_check"): "topology",
    ("topology", "orbit_closure_report"): "topology",
    ("topology", "residual_truncation"): "topology",
    ("monoid", "monoid_from_generators"): "monoid.closure",
    ("monoid", "transition_monoid"): "monoid.other",
    ("monoid", "syntactic_monoid"): "monoid.other",
    ("monoid", "context_classes"): "monoid.contexts",
    ("monoid", "growth_profile"): "monoid.contexts",
    ("recognition", "minimization_morphism"): "recognition",
    ("recognition", "check_morphism"): "recognition",
    ("recognition", "induced_hom"): "recognition",
    ("recognition", "verify_recognition"): "recognition",
    ("recognition", "minimal_monoid_hom"): "recognition",
    ("shift", "BitStream.prefix"): "shift.prefix",
    ("shift", "density_check"): "shift.density",
    ("shift", "unary_residual_count"): "shift.other",
    ("shift", "champernowne_prefix"): "shift.other",
    ("serialize", "export_json"): "serialize.json",
    ("serialize", "monoid_dict"): "serialize.json",
    ("serialize", "morphism_dict"): "serialize.json",
    ("serialize", "report_dict"): "serialize.json",
    ("serialize", "export_dot"): "serialize.dot",
    ("cli", "main"): "cli",
}

# per-layer metric -> (unit, bucket whose self time it reports, or None for a count)
METRICS = {
    "language.chi_ms": ("ms", "language.chi"),
    "language.chi_entries": ("count", None),
    "language.parse_ms": ("ms", "language.parse"),
    "alphabet.words_enumerated": ("count", None),
    "topology.self_ms": ("ms", "topology"),
    "topology.classes": ("count", None),
    "topology.inconsistent_transitions": ("count", None),
    "monoid.contexts_self_ms": ("ms", "monoid.contexts"),
    "monoid.closure_ms": ("ms", "monoid.closure"),
    "monoid.elements": ("count", None),
    "shift.prefix_ms": ("ms", "shift.prefix"),
    "shift.bits": ("count", None),
    "shift.density_ms": ("ms", "shift.density"),
    "shift.patterns_checked": ("count", None),
    "regex.compile_ms": ("ms", "regex.compile"),
    "regex.derivative_states": ("count", None),
    "regex.minimal_states": ("count", None),
    "dfa.minimize_ms": ("ms", "dfa.minimize"),
    "dfa.states_in": ("count", None),
    "dfa.states_out": ("count", None),
    "dfa.product_ms": ("ms", "dfa.product"),
    "recognition.self_ms": ("ms", "recognition"),
    "recognition.words_checked": ("count", None),
    "serialize.json_ms": ("ms", "serialize.json"),
    "serialize.dot_ms": ("ms", "serialize.dot"),
    "serialize.bytes": ("bytes", None),
    "cli.self_ms": ("ms", "cli"),
}


def _word_count(k: int, max_len: int) -> int:
    return max_len + 1 if k == 1 else (k ** (max_len + 1) - 1) // (k - 1)


def _arg(args, kwargs, pos: int, name: str):
    return args[pos] if len(args) > pos else kwargs[name]


class Tracer:
    def __init__(self):
        self.active = False
        self.stack: list[list] = []  # [bucket, time spent in wrapped children]
        self.self_s: dict[str, float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)
        self._patches: list[tuple[object, str, object]] = []

    # -- counters read from arguments and results

    def _on_return(self, key, args, kwargs, result):
        c = self.counts
        if key == "characteristic_table":
            c["language.chi_entries"] += len(result)
        elif key == "nerode_classes":
            c["topology.classes"] += len(result.classes)
            c["topology.inconsistent_transitions"] += sum(
                1 for row in result.transitions for tr in row if tr.target is None or not tr.consistent
            )
        elif key == "monoid_from_generators":
            c["monoid.elements"] += result.order
        elif key == "BitStream.prefix":
            c["shift.bits"] += len(result)
        elif key == "density_check":
            c["shift.patterns_checked"] += 1 << _arg(args, kwargs, 1, "k")
        elif key == "compile_regex":
            c["regex.minimal_states"] += result.n_states
        elif key == "minimize_dfa":
            n_in = _arg(args, kwargs, 0, "d").n_states
            c["dfa.states_in"] += n_in
            c["dfa.states_out"] += result.n_states
            if self.stack and self.stack[-1][0] == "regex.compile":
                c["regex.derivative_states"] += n_in
        elif key == "verify_recognition":
            spec = _arg(args, kwargs, 3, "spec")
            c["recognition.words_checked"] += _word_count(len(spec.alphabet), _arg(args, kwargs, 4, "bound"))
        elif key in ("export_json", "export_dot"):
            c["serialize.bytes"] += len(result.encode("utf-8"))

    def _wrap(self, fn, key: str, bucket: str):
        tracer = self

        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            stack = tracer.stack
            frame = [bucket, 0.0]
            stack.append(frame)
            t0 = process_time()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = process_time() - t0
                stack.pop()
                tracer.self_s[bucket] += dt - frame[1]
                if stack:
                    stack[-1][1] += dt
            tracer._on_return(key, args, kwargs, result)
            return result

        return wrapper

    def _wrap_words(self, fn):
        tracer = self

        def words(alphabet, max_len):
            if tracer.active and max_len >= 0:
                tracer.counts["alphabet.words_enumerated"] += _word_count(len(alphabet), max_len)
            return fn(alphabet, max_len)

        return words

    def _patch(self, owner, name: str, new) -> None:
        self._patches.append((owner, name, getattr(owner, name)))
        setattr(owner, name, new)

    def install(self) -> None:
        modules = [m for n, m in sorted(sys.modules.items()) if n == "nerode" or n.startswith("nerode.")]
        for (mod, attr), bucket in SPANS.items():
            owner = sys.modules[f"nerode.{mod}"]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                self._patch(cls, meth, self._wrap(getattr(cls, meth), attr, bucket))
                continue
            original = getattr(owner, attr)
            wrapper = self._wrap(original, attr, bucket)
            for m in modules:
                for name, value in list(vars(m).items()):
                    if value is original:
                        self._patch(m, name, wrapper)
        alphabet_cls = sys.modules["nerode.alphabet"].Alphabet
        self._patch(alphabet_cls, "words", self._wrap_words(alphabet_cls.words))

    def uninstall(self) -> None:
        while self._patches:
            owner, name, value = self._patches.pop()
            setattr(owner, name, value)

    def metrics(self, rounds: int) -> dict:
        out = {}
        for name, (unit, bucket) in METRICS.items():
            value = self.self_s[bucket] * 1000 if bucket else self.counts[name]
            out[name] = {"value": value / rounds, "unit": unit}
        return out
