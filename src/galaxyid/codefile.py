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
        value = pd[f.name]
        values[f.name] = None if value is None and optional == "None" else _COERCE[base](value)
    return GalaxyParams(**values)


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
    doc = json.loads(text)
    version = doc.get("format_version")
    if version != FORMAT_VERSION:
        raise ValueError(f"unsupported code file format_version {version!r}")
    params = _params_from_dict(doc["params"])
    roots = [_dec_point(r) for r in doc["roots"]]
    trees = []
    for i, tobj in enumerate(doc["trees"]):
        root = _dec_node(tobj, params.theta)
        trees.append(GalaxyTree(root=root, root_index=i, degraded=is_degraded(root, params)))
    codewords = []
    for tree in trees:
        codewords.extend(flatten_codewords(tree))
    return GalaxyCode(
        params=params,
        roots=roots,
        trees=trees,
        codewords=codewords,
        packing_saturated=bool(doc["achieved"]["packing_saturated"]),
        degraded=any(t.degraded for t in trees),
    )


def save(code: GalaxyCode, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(serialize(code))


def load(path) -> GalaxyCode:
    with open(path, "r", encoding="utf-8") as fh:
        return deserialize(fh.read())
