"""Lossless JSON serialization of codebooks.

Coordinates are written as hex-float strings (float.hex round-trips every
finite double exactly), scalar parameters as plain JSON numbers, which
Python also round-trips exactly.  Serialization is canonical (sorted keys,
fixed separators) so identical codes produce identical bytes.
"""

from __future__ import annotations

import json
from dataclasses import fields

import numpy as np

from .galaxy import (
    GalaxyCode,
    GalaxyNode,
    GalaxyParams,
    GalaxyTree,
    flatten_codewords,
    is_degraded,
)
from .spherical import SphericalCode

__all__ = ["FORMAT_VERSION", "serialize", "deserialize", "save", "load"]

FORMAT_VERSION = 1


def _enc_point(p: np.ndarray) -> list[str]:
    return [float(x).hex() for x in p]


def _dec_point(coords: list[str]) -> np.ndarray:
    return np.asarray([float.fromhex(c) for c in coords], dtype=np.float64)


def _enc_node(node: GalaxyNode) -> dict:
    out = {
        "center": _enc_point(node.center),
        "height": node.height,
        "radius": node.code.radius,
        "seed": node.code.seed,
        "saturated": node.code.saturated,
        "points": [_enc_point(p) for p in node.code.points],
    }
    if node.children:
        out["children"] = [_enc_node(c) for c in node.children]
    return out


def _dec_node(obj: dict, theta: float) -> GalaxyNode:
    center = _dec_point(obj["center"])
    points = np.asarray([_dec_point(p) for p in obj["points"]])
    code = SphericalCode(
        center=center,
        radius=float(obj["radius"]),
        theta=theta,
        points=points,
        seed=int(obj["seed"]),
        saturated=bool(obj["saturated"]),
    )
    node = GalaxyNode(center=center, height=int(obj["height"]), code=code)
    node.children = [_dec_node(c, theta) for c in obj.get("children", [])]
    return node


# Derived values recorded for inspection; reconstruction recomputes them.
_DERIVED = ("r", "r_nominal", "t_bar_overridden", "spacing", "spacing_nominal", "extent")

# Declared field types (annotations are strings here) and their coercions.
_COERCE = {"int": int, "float": float, "bool": bool}


def _params_dict(p: GalaxyParams) -> dict:
    names = [f.name for f in fields(GalaxyParams)] + list(_DERIVED)
    return {name: getattr(p, name) for name in names}


def _params_from_dict(pd: dict) -> GalaxyParams:
    """GalaxyParams from a file's params record, each value coerced by its declared type."""
    values = {}
    for f in fields(GalaxyParams):
        base, _, optional = f.type.partition(" | ")
        if f.name not in pd:
            raise ValueError(f"code file params lack {f.name!r}")
        value = pd[f.name]
        try:
            values[f.name] = None if value is None and optional == "None" else _COERCE[base](value)
        except (TypeError, ValueError):
            raise ValueError(f"code file param {f.name!r} is not {base}: {value!r}") from None
    return GalaxyParams(**values)


def _section(doc: dict, name: str, kind: type, decode):
    """decode(doc[name]); a missing, mistyped or incomplete section raises ValueError."""
    value = doc.get(name)
    if not isinstance(value, kind):
        raise ValueError(f"code file needs a {name!r} {'list' if kind is list else 'object'}")
    try:
        return decode(value)
    except (KeyError, TypeError, AttributeError) as exc:
        raise ValueError(f"code file {name!r} section is malformed ({type(exc).__name__}: {exc})") from None


def serialize(code: GalaxyCode) -> str:
    doc = {
        "format_version": FORMAT_VERSION,
        "params": _params_dict(code.params),
        "roots": [_enc_point(r) for r in code.roots],
        "trees": [_enc_node(t.root) for t in code.trees],
        "achieved": {
            "num_roots": len(code.roots),
            "num_codewords": len(code.codewords),
            "packing_saturated": code.packing_saturated,
            "degraded": code.degraded,
        },
    }
    return json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"


def deserialize(text: str) -> GalaxyCode:
    """The code a file's text describes; a malformed document raises ValueError."""
    doc = json.loads(text)
    if not isinstance(doc, dict):
        raise ValueError(f"code file must hold a JSON object, not {type(doc).__name__}")
    version = doc.get("format_version")
    if version != FORMAT_VERSION:
        raise ValueError(f"unsupported code file format_version {version!r}")
    params = _section(doc, "params", dict, _params_from_dict)
    roots = _section(doc, "roots", list, lambda rs: [_dec_point(r) for r in rs])
    nodes = _section(doc, "trees", list, lambda ts: [_dec_node(t, params.theta) for t in ts])
    saturated = _section(doc, "achieved", dict, lambda a: bool(a["packing_saturated"]))
    trees = [
        GalaxyTree(root=root, root_index=i, degraded=is_degraded(root, params))
        for i, root in enumerate(nodes)
    ]
    codewords = []
    for tree in trees:
        codewords.extend(flatten_codewords(tree))
    return GalaxyCode(
        params=params,
        roots=roots,
        trees=trees,
        codewords=codewords,
        packing_saturated=saturated,
        degraded=any(t.degraded for t in trees),
    )


def save(code: GalaxyCode, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(serialize(code))


def load(path) -> GalaxyCode:
    with open(path, "r", encoding="utf-8") as fh:
        return deserialize(fh.read())
