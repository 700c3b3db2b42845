"""Command-line front end.

Every subcommand reads an arrangement document, validates it against the
declared schema (unknown fields are rejected), and prints a result
envelope on stdout.  The schema check is our own: it reads
``ARRANGEMENT_SCHEMA``, loaded from the package's ``arrangement.schema.json``,
and reports what a JSON Schema 2020-12 validator reports, so the schema
stays the one contract.  Output is deterministic for fixed input and
flags; wall time is only included when explicitly requested.  An
envelope is written by ``_to_json``: the bytes of ``json.dumps`` with an
indent of 2 and sorted keys, without the pure-Python encoder that json
runs whenever it indents.

Exit codes: 0 success, 2 input validation failure, 1 internal error.
An internal error prints one ``internal error: ...`` line on stderr, and
with ``--debug`` its traceback after it.

The argument parser is built on the first ``run`` and reused by every
later ``run`` in the process; each call parses into a fresh namespace.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import os
import sys
import time
from fractions import Fraction

from hypertoric.arrangement import (
    ArrangementError,
    NoIntegralLift,
    NonGenericTheta,
    StackyArrangement,
)
from hypertoric.exactalg import ExactAlgError
from hypertoric.crring import CohomologyContext, CRClass, cr_presentation, ht_presentation
from hypertoric.examples_data import SCHEMA_VERSION, example_document, example_names
from hypertoric.lawrence import build_lawrence_fan
from hypertoric.localize import (
    WeightedModel,
    paper_table_p12,
    standard_table,
    steinberg_operator,
)
from hypertoric.multifan import box_elements, circuits
from hypertoric.polynomials import sympy_str
from hypertoric.quantum import (
    SIGN_CONVENTIONS,
    QuantumContext,
    TruncationTooSmall,
    differential_sign_report,
    minimal_curve_unit,
    qsr_circuit_relation_defect,
    qsr_presentation,
    quantum_divisor_product,
)
from hypertoric.svg import UnsupportedDimension, emit_svg

# The one copy of the schema, shipped as package data.  Its keywords keep the
# order in which jsonschema meets them, and so does ``_schema_errors``.
with open(os.path.join(os.path.dirname(__file__), "arrangement.schema.json"), encoding="utf-8") as fh:
    ARRANGEMENT_SCHEMA = json.load(fh)


class InputError(Exception):
    def __init__(self, message, path=""):
        super().__init__(message)
        self.path = path


def canonical_document(doc: dict) -> dict:
    """The validated document with its integers as ints: JSON Schema counts
    an integral float such as 1.0 as an integer, and the hash must not
    tell the two spellings apart."""
    out = {
        "schema_version": doc["schema_version"],
        "rank": int(doc["rank"]),
        "torsion": [int(t) for t in doc.get("torsion", [])],
        "beta": [[int(x) for x in col] for col in doc["beta"]],
        "theta": [int(x) for x in doc["theta"]],
    }
    if "psi" in doc:
        out["psi"] = [int(x) for x in doc["psi"]]
    if "name" in doc:
        out["name"] = doc["name"]
    return out


def load_document(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except FileNotFoundError:
        raise InputError(f"input file not found: {path}", path="--input")
    except json.JSONDecodeError as e:
        raise InputError(f"invalid JSON: {e}", path="--input")
    except (OSError, UnicodeDecodeError) as e:  # a directory, unreadable or not UTF-8
        raise InputError(f"cannot read input file: {e}", path="--input")
    validate_document(doc)
    return canonical_document(doc)


def validate_document(doc) -> None:
    """Raise InputError with the first schema violation, or return.

    "First" is jsonschema's choice: a stable sort of the violations, in the
    order the keywords are met, on the text of the path as a list.
    """
    errors = sorted(_schema_errors(ARRANGEMENT_SCHEMA, doc), key=lambda e: repr(list(e[1])))
    if errors:
        message, path = errors[0]
        raise InputError(message, path="/".join(map(str, path)) or "(document)")


_IS_TYPE = {
    "object": lambda x: isinstance(x, dict),
    "array": lambda x: isinstance(x, list),
    "string": lambda x: isinstance(x, str),
    "integer": lambda x: not isinstance(x, bool)
    and (isinstance(x, int) or isinstance(x, float) and x.is_integer()),
}


# Private, as ``_to_json`` is: the benchmark tracer would wrap this recursive
# generator, and its spans would time only the generator's creation.
def _schema_errors(schema: dict, x, path=()):
    """Yield (message, path) for each violation of ``schema`` by ``x``, with
    JSON Schema 2020-12 semantics and jsonschema's messages.  Only the
    keywords ``ARRANGEMENT_SCHEMA`` uses are known; any other raises."""
    for key, rule in schema.items():
        if key == "type" and rule in _IS_TYPE:
            if not _IS_TYPE[rule](x):
                yield f"{x!r} is not of type {rule!r}", path
        elif key == "const" and isinstance(rule, str):
            if x != rule:
                yield f"{rule!r} was expected", path
        elif key == "minimum":
            if isinstance(x, (int, float)) and not isinstance(x, bool) and x < rule:
                yield f"{x!r} is less than the minimum of {rule!r}", path
        elif key == "minItems":
            if isinstance(x, list) and len(x) < rule:
                yield f"{x!r} {'should be non-empty' if rule == 1 else 'is too short'}", path
        elif key == "items":
            for i, item in enumerate(x if isinstance(x, list) else ()):
                yield from _schema_errors(rule, item, (*path, i))
        elif key == "properties":
            for name, sub in rule.items():
                if isinstance(x, dict) and name in x:
                    yield from _schema_errors(sub, x[name], (*path, name))
        elif key == "required":
            for name in rule:
                if isinstance(x, dict) and name not in x:
                    yield f"{name!r} is a required property", path
        elif key == "additionalProperties" and rule is False:
            known = schema.get("properties", {})
            extra = sorted((k for k in x if k not in known), key=str) if isinstance(x, dict) else []
            if extra:
                names = ", ".join(map(repr, extra))
                verb = "was" if len(extra) == 1 else "were"
                yield f"Additional properties are not allowed ({names} {verb} unexpected)", path
        else:
            raise ValueError(f"schema keyword {key!r}: {rule!r} is not supported")


def build_arrangement(doc: dict) -> StackyArrangement:
    try:
        return StackyArrangement.from_data(doc)
    except (ArrangementError, ExactAlgError) as e:
        theta_fault = isinstance(e, (NonGenericTheta, NoIntegralLift))
        raise InputError(str(e), path="theta" if theta_fault else "(document)")


def document_hash(doc: dict) -> str:
    blob = json.dumps(doc, sort_keys=True, separators=(",", ":")).encode()
    return hashlib.sha256(blob).hexdigest()


def envelope(command, doc, flags, payload, timing=None) -> dict:
    out = {
        "command": command,
        "input_hash": document_hash(doc),
        "flags": flags,
        "payload": payload,
    }
    if timing is not None:
        out["wall_time_ms"] = timing
    return out


def _frac(x) -> str:
    return str(x) if type(x) in (int, Fraction) else str(Fraction(x))


# ---------------------------------------------------------------------------
# Payload builders


def payload_gale(arr: StackyArrangement) -> dict:
    bd = arr.beta_dual
    return {
        "dual_group": {
            "rank": bd.target.rank,
            "torsion": list(bd.target.torsion_invariants),
        },
        "matrix": [list(row) for row in bd.matrix.entries],
        "columns": [list(bd.column(j)) for j in range(arr.m)],
    }


def payload_circuits(arr: StackyArrangement) -> dict:
    out = []
    for c in circuits(arr):
        out.append(
            {
                "support": [i + 1 for i in c.support],
                "positive": [i + 1 for i in c.positive],
                "negative": [i + 1 for i in c.negative],
                "weights": list(c.weights),
                "beta_S": list(c.beta_S),
                "curve_class": list(c.h2_class),
                "lcm": c.lcm_w,
                "root_hyperplane": [i + 1 for i in c.root_hyperplane],
            }
        )
    return {"circuits": out}


def payload_box(arr: StackyArrangement) -> dict:
    out = []
    for b in box_elements(arr):
        out.append(
            {
                "v_free": list(b.v_free),
                "v_torsion": list(b.v_torsion),
                "cone": [i + 1 for i in b.sigma],
                "alphas": {str(i + 1): _frac(a) for i, a in b.alphas},
                "age": b.age,
            }
        )
    return {"box_elements": out}


def payload_core(arr: StackyArrangement, svg=None) -> dict:
    out = []
    for chamber, fan in arr.core():
        out.append(
            {
                "flips": sorted(i + 1 for i in chamber.flips),
                "bounded": True,
                "vertices": [[_frac(x) for x in v] for v in chamber.vertices()],
                "normal_fan": {
                    "rays": [list(r) for r in fan.rays],
                    "max_cones": [list(c) for c in fan.max_cones],
                },
            }
        )
    payload = {"chambers": out, "psi_convention": list(arr.psi)}
    if svg:
        try:
            emit_svg(arr, svg)
        except (UnsupportedDimension, OSError) as e:
            raise InputError(str(e), path="--svg")
        payload["svg"] = svg
    return payload


def payload_fan(arr: StackyArrangement) -> dict:
    fan = build_lawrence_fan(arr)
    return {
        "lattice_rank": arr.d + arr.m,
        "rays": [
            {"label": fan.ray_label(r), "vector": list(fan.ray_vector(r))}
            for r in range(2 * arr.m)
        ],
        "max_cones": [
            {
                "rays": [fan.ray_label(r) for r in cone],
                "lattice_index": fan.cone_index(cone),
            }
            for cone in fan.max_cones
        ],
        "irrelevant_monomials": [list(mono) for mono in fan.irrelevant_monomials],
        "curve_basis": [list(v) for v in fan.h2_basis],
    }


def payload_cohomology(arr: StackyArrangement, sign: str) -> dict:
    ctx = CohomologyContext(arr)
    chen_ruan = cr_presentation(ctx, box_square_sign=sign)
    return {
        "torus_presentation": list(ht_presentation(ctx).texts()),
        "extended_presentation": [r.text for r in chen_ruan.relations if r.kind == "circuit"],
        "chen_ruan_presentation": list(chen_ruan.texts()),
        "generators": list(chen_ruan.generators),
        "box_square_sign": sign,
    }


def _circuit_model(arr: StackyArrangement, index: int, convention: str):
    cs = circuits(arr)
    if not cs:
        raise InputError("arrangement has no circuits", path="--circuit")
    if not (1 <= index <= len(cs)):
        raise InputError(
            f"circuit index {index} out of range 1..{len(cs)}", path="--circuit"
        )
    weights = cs[index - 1].weights
    if convention == "paper":
        if tuple(weights) != (1, 2):
            raise InputError(
                "the paper convention table is defined only for weights (1, 2)",
                path="--convention",
            )
        model = WeightedModel((1, 2))
        return cs[index - 1], model, paper_table_p12()
    model = WeightedModel(weights)
    return cs[index - 1], model, standard_table(model)


def payload_localize(arr: StackyArrangement, index: int, convention: str) -> dict:
    circuit, model, table = _circuit_model(arr, index, convention)
    sectors_out = []
    for f, points in sorted(table.points.items()):
        sectors_out.append(
            {
                "sector": _frac(f),
                "points": [
                    {
                        "slot": p.slot + 1,
                        "multiplicity": _frac(p.multiplicity),
                        "tangent_weights": [sympy_str(t) for t in p.tangent_weights],
                        "euler": sympy_str(p.euler),
                        "restrictions": {
                            k: sympy_str(v) for k, v in sorted(p.restrictions.items())
                        },
                    }
                    for p in points
                ],
            }
        )
    return {
        "circuit": [i + 1 for i in circuit.support],
        "weights": list(model.weights),
        "convention": table.convention,
        "sectors": sectors_out,
    }


def payload_steinberg(arr: StackyArrangement, index: int, convention: str) -> dict:
    circuit, model, table = _circuit_model(arr, index, convention)
    fwd, inv = steinberg_operator(model, table)
    out = {
        "circuit": [i + 1 for i in circuit.support],
        "weights": list(model.weights),
        "convention": table.convention,
        "sector_order": [_frac(f) for f in fwd.sector_order],
        "forward_matrix": [[str(e) for e in row] for row in fwd.matrix],
        "inverse_matrix": [[str(e) for e in row] for row in inv.matrix],
        "forward_injective": fwd.is_injective(),
        "inverse_of_forward_is_identity": fwd.is_identity_matrix(inv.compose(fwd)),
    }
    if fwd.generator_images:
        out["forward_images"] = {
            k: {s: str(c) for s, c in v.items()} for k, v in fwd.generator_images.items()
        }
        out["inverse_images"] = {
            k: {s: str(c) for s, c in v.items()} for k, v in inv.generator_images.items()
        }
    return out


def _series_payload(series) -> list:
    out = []
    for key, cls in series.terms:
        sectors = []
        for box, poly in cls.components:
            sectors.append({"sector": box.label(), "value": str(poly)})
        out.append({"q_exponents": list(key), "coefficient": sectors})
    return out


def payload_quantum_divisor(arr: StackyArrangement, i: int, j: int, order: int, convention: str) -> dict:
    for index, flag in ((i, "--divisor"), (j, "--with")):
        if not 1 <= index <= arr.m:
            raise InputError("divisor indices must be in 1..m", path=flag)
    qctx = QuantumContext(arr)
    ctx = qctx.context
    x = CRClass.untwisted(ctx, ctx.u(j - 1))
    payload = {
        "divisor": i,
        "with": j,
        "max_q_order": order,
        "circuit_novikov_variables": [
            {"circuit": [t + 1 for t in c.support], "lcm": c.lcm_w}
            for c in ctx.circuits
        ],
    }
    if convention == "all":
        payload["series"] = {
            conv: _series_payload(quantum_divisor_product(qctx, i - 1, x, order, conv))
            for conv in SIGN_CONVENTIONS
        }
        payload["differential_sign_report"] = differential_sign_report(qctx, order)
    else:
        series = quantum_divisor_product(qctx, i - 1, x, order, convention)
        payload["series"] = _series_payload(series)
        payload["sign_convention"] = convention
    return payload


def payload_qsr(arr: StackyArrangement, order: int) -> dict:
    fan, rels = qsr_presentation(arr, order)
    cs = circuits(arr)
    checks = [
        {
            "circuit": [t + 1 for t in c.support],
            "eliminated_relation_vanishes": qsr_circuit_relation_defect(fan, c, order).is_zero(),
        }
        for c in cs
    ]
    # no circuits: no compact curves at all
    unit = [_frac(x) for x in minimal_curve_unit(fan)] if cs else None
    return {
        "relations": [str(r) for r in rels],
        "relation_count": len(rels),
        "minimal_curve_degree": unit,
        "circuit_relation_checks": checks,
        "max_q_order": order,
    }


# ---------------------------------------------------------------------------
# Text rendering


def render_text(command: str, payload: dict) -> str:
    lines = [f"# {command}"]

    def walk(obj, indent=0):
        pad = "  " * indent
        if isinstance(obj, dict):
            for k, v in obj.items():
                if isinstance(v, (dict, list)):
                    lines.append(f"{pad}{k}:")
                    walk(v, indent + 1)
                else:
                    lines.append(f"{pad}{k}: {v}")
        elif isinstance(obj, list):
            for v in obj:
                if isinstance(v, (dict, list)):
                    lines.append(f"{pad}-")
                    walk(v, indent + 1)
                else:
                    lines.append(f"{pad}- {v}")

    walk(payload)
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Driver


_CIRCUIT_OPTIONS = (
    ("--circuit", {"type": int, "default": 1}),
    ("--convention", {"choices": ("standard", "paper"), "default": "standard"}),
)
_MAX_Q_ORDER = ("--max-q-order", {"type": int, "default": 6})

# Each command's own options, as (flag, argparse keywords), in the order
# ``payload_<command>`` takes their values; one that is not required goes into
# the envelope's flags when it has a value.  ``run`` looks the builder up by
# name, so a module attribute patched or traced later is the one called.
COMMANDS = {
    "gale": (),
    "circuits": (),
    "box": (),
    "core": (("--svg", {}),),
    "fan": (),
    "cohomology": (("--convention", {"choices": ("paper", "literal"), "default": "paper"}),),
    "localize": _CIRCUIT_OPTIONS,
    "steinberg": _CIRCUIT_OPTIONS,
    "quantum-divisor": (
        ("--divisor", {"type": int, "required": True}),
        ("--with", {"dest": "with_", "type": int, "required": True}),
        _MAX_Q_ORDER,
        ("--sign-convention", {"choices": (*SIGN_CONVENTIONS, "all"), "default": "example-calibrated"}),
    ),
    "qsr": (_MAX_Q_ORDER,),
}
_EXAMPLES_OPTIONS = (("--list", {"action": "store_true"}), ("--show", {}), ("--write-dir", {}))


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="hypertoric")
    sub = p.add_subparsers(dest="command", required=True)
    for name, options in (*COMMANDS.items(), ("examples", _EXAMPLES_OPTIONS)):
        sp = sub.add_parser(name)
        if name != "examples":
            sp.add_argument("--input", required=True)
        sp.add_argument("--format", choices=("json", "text"), default="json")
        sp.add_argument("--timing", action="store_true")
        sp.add_argument("--debug", action="store_true")
        for flag, keywords in options:
            sp.add_argument(flag, **keywords)
    return p


def run(argv) -> int:
    args = build_parser().parse_args(argv)
    start = time.monotonic()
    try:
        if args.command == "examples":
            doc = {"schema_version": SCHEMA_VERSION, "rank": 0, "beta": [[]], "theta": []}
            if args.show:
                try:
                    payload = example_document(args.show)
                except KeyError as e:
                    raise InputError(e.args[0], path="--show")
            elif args.write_dir:
                written = []
                try:
                    os.makedirs(args.write_dir, exist_ok=True)
                    for name in example_names():
                        target = os.path.join(args.write_dir, f"{name}.json")
                        with open(target, "w", encoding="utf-8") as fh:
                            fh.write(_to_json(example_document(name)) + "\n")
                        written.append(target)
                except OSError as e:
                    raise InputError(str(e), path="--write-dir")
                payload = {"written": written}
            else:
                payload = {"examples": list(example_names())}
            flags = {"format": args.format}
            env = envelope("examples", payload if args.show else doc, flags, payload)
            _print(env, args)
            return 0

        doc = load_document(args.input)
        arr = build_arrangement(doc)
        flags = {"format": args.format}
        values = []
        for flag, keywords in COMMANDS[args.command]:
            dest = keywords.get("dest", flag[2:].replace("-", "_"))
            value = getattr(args, dest)
            values.append(value)
            if not keywords.get("required") and value not in (None, ""):
                flags[dest] = value
        payload = globals()["payload_" + args.command.replace("-", "_")](arr, *values)
        timing = int((time.monotonic() - start) * 1000) if args.timing else None
        env = envelope(args.command, doc, flags, payload, timing)
        _print(env, args)
        return 0
    except TruncationTooSmall as e:
        return _print_error(InputError(str(e), path="--max-q-order"))
    except (InputError, ArrangementError) as e:
        return _print_error(e)
    except Exception as e:  # internal error
        sys.stderr.write(f"internal error: {e}\n")
        if args.debug:
            import traceback

            traceback.print_exc()
        return 1


def _print(env: dict, args) -> None:
    if args.format == "text":
        sys.stdout.write(render_text(env["command"], env["payload"]))
    else:
        sys.stdout.write(_to_json(env) + "\n")


def _print_error(e: Exception) -> int:
    """Print an input fault as one JSON line on stdout; its exit code is 2."""
    path = e.path if isinstance(e, InputError) else "(input data)"
    error = {"error": {"message": str(e), "path": path}}
    sys.stdout.write(json.dumps(error, sort_keys=True) + "\n")
    return 2


_quote = json.encoder.encode_basestring_ascii
_SCALAR = {
    str: _quote,
    int: int.__repr__,
    bool: lambda x: "true" if x else "false",
    type(None): lambda x: "null",
}


# Private: the benchmark tracer wraps every public function, and a span per
# nested value would swamp a traced run.
def _to_json(x, pad: str = "\n") -> str:
    """What ``json.dumps`` writes with an indent of 2 and sorted keys, byte
    for byte, for the values an envelope holds: dicts with str keys, lists,
    tuples, str, int, bool and None.  Any other value raises TypeError, as
    does a key that is not a str (in ``_quote``).  With an indent json runs
    its pure-Python encoder; this is about twice as fast."""
    scalar = _SCALAR.get(type(x))
    if scalar is not None:
        return scalar(x)
    inner = pad + "  "
    if type(x) is dict:
        if not x:
            return "{}"
        parts = [f"{_quote(k)}: {_to_json(x[k], inner)}" for k in sorted(x)]
        return "{" + inner + ("," + inner).join(parts) + pad + "}"
    if type(x) is not list and type(x) is not tuple:
        raise TypeError(f"{type(x).__name__} is not an envelope value")
    if not x:
        return "[]"
    try:  # a flat list of scalars, the common case, takes no recursion
        parts = [_SCALAR[type(v)](v) for v in x]
    except KeyError:
        parts = [_to_json(v, inner) for v in x]
    return "[" + inner + ("," + inner).join(parts) + pad + "]"


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
