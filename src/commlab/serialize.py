"""Instance file schema (load/save) for protocols, targets, distributions,
and AM branch families.

Files are strict JSON: schema-tagged, unknown fields rejected, and saving is
byte-deterministic (sorted keys, floats printed with 17 significant digits,
which round-trips binary64 exactly).
"""

from __future__ import annotations

import contextlib
import json
import math
import sys
from dataclasses import dataclass

import numpy as np

from .core import (SELECTOR_SEED_MAX, Box, Cover, DomainShape, Protocol, TranscriptSelector,
                   indices_from_mask, mask_from_indices)
from .errors import InvalidInputError, SchemaError
from .functions import (
    MAX_RELATION_COLORS,
    AMProtocol,
    ColoredFunction,
    ErrorProtocol,
    Relation,
    approx_xor_relation,
    gen_function,
)
from .info import JointDistribution

INSTANCE_SCHEMA = "commlab-instance-v1"
AM_SCHEMA = "commlab-am-v1"


@dataclass
class InstanceBundle:
    """Runtime form of one instance file."""

    protocol: Protocol
    function: ColoredFunction | None = None
    relation: Relation | None = None
    distribution: JointDistribution | None = None
    error: ErrorProtocol | None = None


@dataclass
class AMBundle:
    am: AMProtocol
    function: ColoredFunction | None = None
    relation: Relation | None = None

    @property
    def target(self):
        return self.function if self.function is not None else self.relation


# ---------------------------------------------------------------------------
# Canonical JSON


def _format_float(x: float) -> str:
    if not math.isfinite(x):
        raise SchemaError("cannot serialize non-finite float")
    return format(float(x), ".17g")


def canonical_json(value, indent: int = 0) -> str:
    pad = "  " * indent
    inner = "  " * (indent + 1)
    if isinstance(value, dict):
        if not value:
            return "{}"
        items = [
            f"{inner}{json.dumps(str(k))}: {canonical_json(v, indent + 1)}"
            for k, v in sorted(value.items())
        ]
        return "{\n" + ",\n".join(items) + f"\n{pad}}}"
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        parts = [canonical_json(v, indent + 1) for v in value]
        if all(not isinstance(v, (dict, list, tuple)) for v in value) and sum(
            len(p) for p in parts
        ) < 100:
            return "[" + ", ".join(parts) + "]"
        return "[\n" + ",\n".join(inner + p for p in parts) + f"\n{pad}]"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return _format_float(float(value))
    if isinstance(value, str):
        return json.dumps(value)
    if value is None:
        return "null"
    raise SchemaError(f"cannot serialize value of type {type(value)!r}")


# ---------------------------------------------------------------------------
# Field checks

# JSON values arrive as exact ints and floats, so type() tells a bool apart too
_INT64 = np.iinfo(np.int64)
_FLOAT_MAX = sys.float_info.max


def _fields(obj, required: set, optional: set, where: str) -> None:
    """obj is a dict holding all of required and nothing outside optional."""
    if not isinstance(obj, dict):
        raise SchemaError(f"{where}: expected an object, got {obj!r:.40}")
    missing = required - set(obj)
    if missing:
        raise SchemaError(f"{where}: missing fields {sorted(missing)}")
    unknown = set(obj) - required - optional
    if unknown:
        raise SchemaError(f"{where}: unknown fields {sorted(unknown)}")


@contextlib.contextmanager
def _located(where: str):
    """Prefixes where to an object's error, as SchemaErrors carry it; its type stays."""
    try:
        yield
    except InvalidInputError as exc:
        if not isinstance(exc, SchemaError):
            exc.args = (f"{where}: {exc}",)
        raise


def _kind(obj, what: str, kinds: dict, where: str) -> str:
    """The kind of a {"kind": ..., <fields>} spec whose fields are exactly
    those its kind takes (kinds maps each kind to its field names)."""
    kind = obj.get("kind") if isinstance(obj, dict) else None
    if not isinstance(kind, str):
        raise SchemaError(f"{where}: {what} needs a kind")
    if kind not in kinds:
        raise SchemaError(f"{where}: unknown {what} kind {kind!r}")
    _fields(obj, {"kind", *kinds[kind]}, set(), where)
    return kind


def _int(value, where: str, low: int = _INT64.min, high: int = _INT64.max) -> int:
    if type(value) is not int or not low <= value <= high:
        raise SchemaError(f"{where}: expected an integer in {low}..{high}, got {value!r:.40}")
    return value


def _number(value, where: str) -> float:
    if type(value) not in (int, float) or not abs(value) <= _FLOAT_MAX:  # refuses nan too
        raise SchemaError(f"{where}: expected a finite number, got {value!r:.40}")
    return float(value)


def _list(value, where: str) -> list:
    if not isinstance(value, list):
        raise SchemaError(f"{where}: expected a list, got {value!r:.40}")
    return value


def _ints(value, where: str) -> list[int]:
    return [_int(v, where) for v in _list(value, where)]


def _int_table(value, where: str) -> np.ndarray:
    """A list of equal-length integer lists, as a 2-D int64 array."""
    rows = [_ints(row, where) for row in _list(value, where)]
    if len({len(row) for row in rows}) > 1:
        raise SchemaError(f"{where}: rows differ in length")
    return np.array(rows, dtype=np.int64)


# ---------------------------------------------------------------------------
# Object <-> schema dicts

# Each object's spec kinds, with the fields each takes besides "kind"
_SELECTOR_SPECS = {"min-index": (), "seeded-random": ("seed",), "explicit": ("table",)}
_FUNCTION_SPECS = {"explicit": ("colors",), "xor": ("n",), "eq": ("n",), "matvec": ("arity", "n"),
                   "constant": (), "random": ("num_colors", "seed")}
_RELATION_SPECS = {"explicit": ("num_colors", "admissible"), "approx-xor": ("n", "delta")}
_DISTRIBUTION_SPECS = {"uniform": (), "explicit": ("p",)}


def _selector_to_obj(sel: TranscriptSelector) -> dict:
    if sel.kind == "min-index":
        return {"kind": "min-index"}
    if sel.kind == "seeded-random":
        return {"kind": "seeded-random", "seed": sel.seed}
    return {"kind": "explicit", "table": list(sel.table)}


def _selector_from_obj(obj, where: str) -> TranscriptSelector:
    kind = _kind(obj, "selector", _SELECTOR_SPECS, where)
    if kind == "seeded-random":
        seed = _int(obj["seed"], f"{where}.seed", 0, SELECTOR_SEED_MAX)
        return TranscriptSelector.seeded(seed)
    if kind == "explicit":
        return TranscriptSelector.explicit(_ints(obj["table"], f"{where}.table"))
    return TranscriptSelector.min_index()


def _function_to_obj(fn: ColoredFunction) -> dict:
    return {"kind": "explicit", "colors": fn.flat().tolist()}


def _function_from_obj(obj, shape: DomainShape, where: str) -> ColoredFunction:
    kind = _kind(obj, "function", _FUNCTION_SPECS, where)
    if kind == "explicit":
        colors = np.array(_ints(obj["colors"], f"{where}.colors"), dtype=np.int64)
        if colors.size != shape.num_cells:
            raise SchemaError(f"{where}: color table length does not match sizes")
        return ColoredFunction(shape, colors.reshape(shape.sizes))
    params = {k: _int(obj[k], f"{where}.{k}") for k in _FUNCTION_SPECS[kind]}
    fn = gen_function(kind, shape=shape, **params)
    if fn.shape.sizes != shape.sizes:
        raise SchemaError(f"{where}: function domain {fn.shape.sizes} does not match sizes")
    return fn


def _relation_to_obj(rel: Relation) -> dict:
    return {
        "kind": "explicit",
        "num_colors": rel.num_colors,
        "admissible": [list(indices_from_mask(m)) for m in rel.admissible],
    }


def _relation_from_obj(obj, shape: DomainShape, where: str) -> Relation:
    if _kind(obj, "relation", _RELATION_SPECS, where) == "approx-xor":
        rel = approx_xor_relation(_int(obj["n"], f"{where}.n"),
                                  _number(obj["delta"], f"{where}.delta"))
        if rel.shape.sizes != shape.sizes:
            raise SchemaError(f"{where}: relation domain does not match sizes")
        return rel
    lists = _list(obj["admissible"], f"{where}.admissible")
    if len(lists) != shape.num_cells:
        raise SchemaError(f"{where}: admissible table length does not match sizes")
    admissible = [_ints(ids, f"{where}.admissible") for ids in lists]
    num_colors = _int(obj["num_colors"], f"{where}.num_colors", 1, MAX_RELATION_COLORS)
    masks = tuple(mask_from_indices(ids, num_colors) for ids in admissible)
    return Relation(shape, masks, num_colors)


def _distribution_to_obj(dist: JointDistribution) -> dict:
    return {"kind": "explicit", "p": dist.p.tolist()}


def _distribution_from_obj(obj, shape: DomainShape, where: str) -> JointDistribution:
    if _kind(obj, "distribution", _DISTRIBUTION_SPECS, where) == "uniform":
        return JointDistribution.uniform(shape)
    p = np.array([_number(v, f"{where}.p") for v in _list(obj["p"], f"{where}.p")])
    if p.size != shape.num_cells:
        raise SchemaError(f"{where}: probability table length does not match sizes")
    return JointDistribution(shape, p)


def _instance_body(bundle: InstanceBundle) -> dict:
    protocol = bundle.protocol
    shape = protocol.shape
    obj: dict = {
        "arity": shape.arity,
        "sizes": list(shape.sizes),
        "rectangles": [[list(f) for f in b.factors()] for b in protocol.cover.boxes],
        "selector": _selector_to_obj(protocol.selector),
    }
    if bundle.function is not None:
        obj["function"] = _function_to_obj(bundle.function)
    if bundle.relation is not None:
        obj["relation"] = _relation_to_obj(bundle.relation)
    if bundle.distribution is not None:
        obj["distribution"] = _distribution_to_obj(bundle.distribution)
    if bundle.error is not None:
        obj["g_a"] = bundle.error.g_a.tolist()
        obj["g_b"] = bundle.error.g_b.tolist()
    return obj


_BODY_REQUIRED = {"arity", "sizes", "rectangles", "selector"}
_BODY_OPTIONAL = {"function", "relation", "distribution", "g_a", "g_b"}


def _optional(obj: dict, key: str, read, shape: DomainShape, where: str):
    return read(obj[key], shape, f"{where}.{key}") if key in obj else None


def _instance_from_body(obj, where: str) -> InstanceBundle:
    _fields(obj, _BODY_REQUIRED, _BODY_OPTIONAL, where)
    arity = _int(obj["arity"], f"{where}.arity")
    sizes = tuple(_ints(obj["sizes"], f"{where}.sizes"))
    if len(sizes) != arity:
        raise SchemaError(f"{where}: arity {arity} does not match sizes {sizes}")
    shape = DomainShape(sizes)
    boxes = []
    for k, factors in enumerate(_list(obj["rectangles"], f"{where}.rectangles")):
        at = f"{where}.rectangles[{k}]"
        if len(_list(factors, at)) != arity:
            raise SchemaError(f"{at}: wrong number of factors")
        boxes.append(Box.from_factors([_ints(f, at) for f in factors], shape))
    cover = Cover(shape, tuple(boxes))
    protocol = Protocol(cover, _selector_from_obj(obj["selector"], f"{where}.selector"))
    if ("g_a" in obj) != ("g_b" in obj):
        raise SchemaError(f"{where}: g_a and g_b must be given together")
    error = None
    if "g_a" in obj:
        error = ErrorProtocol(
            protocol,
            _int_table(obj["g_a"], f"{where}.g_a"),
            _int_table(obj["g_b"], f"{where}.g_b"),
        )
    return InstanceBundle(
        protocol=protocol,
        function=_optional(obj, "function", _function_from_obj, shape, where),
        relation=_optional(obj, "relation", _relation_from_obj, shape, where),
        distribution=_optional(obj, "distribution", _distribution_from_obj, shape, where),
        error=error,
    )


def _parse(text: str | bytes, schema: str, where: str) -> dict:
    """The top-level object of a file tagged schema; bytes are read as UTF-8."""
    try:
        obj = json.loads(text.decode("utf-8") if isinstance(text, bytes) else text)
    except (ValueError, RecursionError) as exc:  # also bad UTF-8, too many digits, too deep
        raise SchemaError(f"{where}: not valid JSON ({exc})") from exc
    if not isinstance(obj, dict) or obj.get("schema") != schema:
        raise SchemaError(f"{where}: expected schema tag {schema!r}")
    return obj


def instance_to_text(bundle: InstanceBundle) -> str:
    return canonical_json({"schema": INSTANCE_SCHEMA, **_instance_body(bundle)}) + "\n"


def instance_from_text(text: str | bytes, where: str = "instance") -> InstanceBundle:
    obj = _parse(text, INSTANCE_SCHEMA, where)
    with _located(where):
        return _instance_from_body({k: v for k, v in obj.items() if k != "schema"}, where)


def save_instance(bundle: InstanceBundle, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(instance_to_text(bundle))


def load_instance(path: str) -> InstanceBundle:
    with open(path, "rb") as fh:
        return instance_from_text(fh.read(), where=str(path))


def am_to_text(bundle: AMBundle) -> str:
    branches = [_instance_body(InstanceBundle(protocol=b.protocol, error=b))
                for b in bundle.am.branches]
    obj: dict = {"schema": AM_SCHEMA, "branches": branches}
    if bundle.function is not None:
        obj["function"] = _function_to_obj(bundle.function)
    if bundle.relation is not None:
        obj["relation"] = _relation_to_obj(bundle.relation)
    return canonical_json(obj) + "\n"


def am_from_text(text: str | bytes, where: str = "am") -> AMBundle:
    obj = _parse(text, AM_SCHEMA, where)
    _fields(obj, {"schema", "branches"}, {"function", "relation"}, where)
    branches = []
    for k, body in enumerate(_list(obj["branches"], f"{where}.branches")):
        with _located(f"{where}.branches[{k}]"):
            inner = _instance_from_body(body, f"{where}.branches[{k}]")
        if inner.error is None:
            raise SchemaError(f"{where}.branches[{k}]: branch needs g_a and g_b tables")
        branches.append(inner.error)
    if not branches:
        raise SchemaError(f"{where}: AM file needs at least one branch")
    shape = branches[0].shape
    with _located(where):
        return AMBundle(
            am=AMProtocol(tuple(branches)),
            function=_optional(obj, "function", _function_from_obj, shape, where),
            relation=_optional(obj, "relation", _relation_from_obj, shape, where),
        )


def save_am(bundle: AMBundle, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(am_to_text(bundle))


def load_am(path: str) -> AMBundle:
    with open(path, "rb") as fh:
        return am_from_text(fh.read(), where=str(path))
