"""Canonical JSON and DOT renderings of workbench values.

JSON output is deterministic: sorted keys, stable list orders, and a
`schema` field naming the payload kind.  The shapes are documented in
docs/schemas.md.  The text is that of `json.dumps(payload, sort_keys=True,
indent=2)` plus a newline, produced by one emitter that either joins it
(`export_json`) or streams it in blocks (`write_json`).
"""

from __future__ import annotations

import json
from json.encoder import encode_basestring_ascii

from .dfa import Dfa, access_words
from .errors import InputError
from .monoid import ContextClassTable, FiniteMonoid, GrowthProfile
from .recognition import AutomatonMorphism, MonoidHom, Report
from .shift import DensityReport
from .topology import (
    ApproxAutomaton,
    ClosureReport,
    StabilizationVerdict,
    TruncatedPoint,
)


def _schema(kind: str) -> str:
    return f"nerode/{kind}/1"


def dfa_dict(d: Dfa) -> dict:
    return {
        "schema": _schema("dfa"),
        "alphabet": "".join(d.alphabet.symbols),
        "states": d.n_states,
        "initial": d.initial,
        "finals": sorted(d.finals),
        "transitions": {
            str(s): {ch: d.rows[s][k] for k, ch in enumerate(d.alphabet.symbols)}
            for s in range(d.n_states)
        },
    }


def point_dict(p: TruncatedPoint) -> dict:
    return {
        "schema": _schema("point"),
        "alphabet": "".join(p.alphabet.symbols),
        "depth": p.depth,
        "bits": p.bit_string(),
    }


def approx_dict(a: ApproxAutomaton) -> dict:
    return {
        "schema": _schema("approx-automaton"),
        "alphabet": "".join(a.alphabet.symbols),
        "depth": a.depth,
        "horizon": a.horizon,
        "classes": [
            {
                "index": i,
                "witness": a.witnesses[i],
                "bits": p.bit_string(),
                "accepting": i in a.accepting,
            }
            for i, p in enumerate(a.classes)
        ],
        "transitions": [
            {
                "from": i,
                "symbol": ch,
                "to": a.transitions[i][k].target,
                "consistent": a.transitions[i][k].consistent,
            }
            for i in range(len(a.classes))
            for k, ch in enumerate(a.alphabet.symbols)
        ],
    }


def stabilization_dict(v: StabilizationVerdict) -> dict:
    return {
        "schema": _schema("stabilization"),
        "stabilized": v.stabilized,
        "depths": list(v.depths),
        "counts": list(v.counts),
        "size": v.size,
        "proposed": dfa_dict(v.proposed) if v.proposed is not None else None,
    }


def closure_dict(r: ClosureReport) -> dict:
    return {
        "schema": _schema("closure-report"),
        "depth": r.depth,
        "horizon": r.horizon,
        "patterns": [
            {
                "bits": p.point.bit_string(),
                "first": p.first_length,
                "last": p.last_length,
                "count": p.count,
                "recurrent": p.recurrent,
            }
            for p in r.patterns
        ],
    }


def monoid_dict(m: FiniteMonoid, final_elements=None) -> dict:
    ints = list(range(m.order))  # one shared int per index, none per cell
    out = {
        "schema": _schema("monoid"),
        "states": m.n_states,
        "order": m.order,
        "elements": [
            {"index": i, "images": e, "witness": m.witnesses[i]}
            for i, e in enumerate(m.elements)
        ],
        "table": [list(map(ints.__getitem__, row)) for row in m.table],
        "generators": dict(sorted(m.generators.items())),
    }
    if final_elements is not None:
        out["final_elements"] = sorted(final_elements)
    return out


def contexts_dict(t: ContextClassTable) -> dict:
    return {
        "schema": _schema("context-classes"),
        "left": t.left,
        "right": t.right,
        "bound": t.bound,
        "classes": [
            {"representative": rep, "size": size}
            for rep, size in zip(t.representatives, t.sizes)
        ],
    }


def growth_dict(g: GrowthProfile) -> dict:
    return {
        "schema": _schema("growth-profile"),
        "counts": list(g.counts),
        "bound": g.bound,
        "verdict": g.verdict,
    }


def report_dict(r: Report) -> dict:
    return {
        "schema": _schema("report"),
        "passed": r.passed,
        "violations": [
            {"kind": v.kind, "witness": v.witness, "detail": v.detail} for v in r.violations
        ],
    }


def morphism_dict(phi: AutomatonMorphism) -> dict:
    target = phi.target
    return {
        "schema": _schema("automaton-morphism"),
        "map": list(phi.mapping),
        "source": dfa_dict(phi.source),
        "target": _CONVERTERS[type(target)](target),
    }


def monoid_hom_dict(psi: MonoidHom) -> dict:
    return {
        "schema": _schema("monoid-hom"),
        "map": list(psi.mapping),
        "ignored": list(psi.ignored),
        "source_order": psi.source.order,
        "target_order": psi.target.order,
    }


def density_dict(r: DensityReport) -> dict:
    return {
        "schema": _schema("density-report"),
        "k": r.k,
        "prefix_length": r.prefix_length,
        "passed": r.passed,
        "missing": list(r.missing),
    }


_CONVERTERS = {
    Dfa: dfa_dict,
    TruncatedPoint: point_dict,
    ApproxAutomaton: approx_dict,
    StabilizationVerdict: stabilization_dict,
    ClosureReport: closure_dict,
    FiniteMonoid: monoid_dict,
    ContextClassTable: contexts_dict,
    GrowthProfile: growth_dict,
    Report: report_dict,
    AutomatonMorphism: morphism_dict,
    MonoidHom: monoid_hom_dict,
    DensityReport: density_dict,
}


_BLOCK = 1 << 16  # characters per write() call of write_json


def _pieces(o, indent: str):
    """The text of `json.dumps(o, sort_keys=True, indent=2)` nested at
    `indent`, in pieces.  Strings go through the C string encoder, a list of
    ints is one join, and any type but str, exact int, bool, None, list,
    tuple and str-keyed dict is left to json.dumps itself."""
    kind = type(o)
    if kind is str:
        yield encode_basestring_ascii(o)
    elif kind is int:
        yield int.__repr__(o)
    elif o is None or o is True or o is False:
        yield "null" if o is None else "true" if o else "false"
    elif (kind is list or kind is tuple or kind is dict) and not o:
        yield "{}" if kind is dict else "[]"
    elif kind is list or kind is tuple:
        inner = indent + "  "
        sep = ",\n" + inner
        if set(map(type, o)) == {int}:
            yield f"[\n{inner}{sep.join(map(int.__repr__, o))}\n{indent}]"
            return
        yield "[\n" + inner
        for i, item in enumerate(o):
            if i:
                yield sep
            yield from _pieces(item, inner)
        yield f"\n{indent}]"
    elif kind is dict and all(type(key) is str for key in o):
        inner = indent + "  "
        lead = "{\n" + inner
        for key in sorted(o):
            yield lead + encode_basestring_ascii(key) + ": "
            yield from _pieces(o[key], inner)
            lead = ",\n" + inner
        yield f"\n{indent}}}"
    else:
        yield json.dumps(o, sort_keys=True, indent=2).replace("\n", "\n" + indent)


def _chunks(payload):
    """Canonical JSON text of a payload dict or a convertible value, in
    pieces.  The value is converted to a dict before the first piece."""
    if not isinstance(payload, dict):
        conv = _CONVERTERS.get(type(payload))
        if conv is None:
            raise InputError(f"no JSON encoding for {type(payload).__name__}")
        payload = conv(payload)
    yield from _pieces(payload, "")
    yield "\n"


def export_json(payload) -> str:
    """Canonical JSON text (sorted keys, two-space indent, trailing newline)."""
    return "".join(_chunks(payload))


def write_json(payload, write) -> None:
    """Pass the canonical JSON text of payload to `write` in blocks of about
    `_BLOCK` characters, so that no copy of the whole text is held."""
    block, size = [], 0
    for piece in _chunks(payload):
        block.append(piece)
        size += len(piece)
        if size >= _BLOCK:
            write("".join(block))
            block, size = [], 0
    write("".join(block))


def _quote(s: str) -> str:
    return '"' + s.replace("\\", "\\\\").replace('"', '\\"') + '"'


def _label(index: int, witness: str | None) -> str:
    if witness is None:
        return str(index)
    return f"{index}:{witness if witness else 'ε'}"


def export_dot(obj: Dfa | ApproxAutomaton) -> str:
    """Deterministic DOT digraph; accepting states are double circles and
    unverified quotient transitions are dashed."""
    if isinstance(obj, Dfa):
        access = access_words(obj)
        witnesses = [access.get(i) for i in range(obj.n_states)]
        consistent = [[True] * len(obj.alphabet)] * obj.n_states
    elif isinstance(obj, ApproxAutomaton):
        witnesses = obj.witnesses
        consistent = [[tr.consistent for tr in row] for row in obj.transitions]
    else:
        raise InputError(f"no DOT encoding for {type(obj).__name__}")

    lines = ["digraph automaton {", "  rankdir=LR;", '  __start [shape=point label=""];']
    for i, witness in enumerate(witnesses):
        shape = "doublecircle" if i in obj.accepting else "circle"
        lines.append(f"  q{i} [shape={shape} label={_quote(_label(i, witness))}];")
    lines.append(f"  __start -> q{obj.initial};")

    unknown_used = False
    grouped: dict[tuple[int, int | None, bool], list[str]] = {}
    for i, flags in enumerate(consistent):
        for ch, ok in zip(obj.alphabet.symbols, flags):
            grouped.setdefault((i, obj.successor(i, ch), ok), []).append(ch)
    for (i, target, ok), symbols in grouped.items():
        style = "" if ok else " style=dashed"
        if target is None:
            unknown_used = True
            lines.append(f"  q{i} -> __unknown [label={_quote(','.join(symbols))}{style}];")
        else:
            lines.append(f"  q{i} -> q{target} [label={_quote(','.join(symbols))}{style}];")
    if unknown_used:
        lines.insert(3, '  __unknown [shape=none label="?"];')
    lines.append("}")
    return "\n".join(lines) + "\n"
