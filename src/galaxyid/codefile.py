"""Lossless JSON serialization of codebooks.

Coordinates are written as hex-float strings (float.hex round-trips every
finite double exactly), scalar parameters as plain JSON numbers, which
Python also round-trips exactly.  Serialization is canonical (sorted keys,
fixed separators) so identical codes produce identical bytes.

A tree is stored as its nodes' points alone, nested {"points", "children"}
records, plus the root's center.  Loading derives the rest: height from
depth, radius r k^(height-1) and saturation from the parameters, and each
child's center from its parent's point.
"""

from __future__ import annotations

import json
from dataclasses import asdict, fields

import numpy as np

from .galaxy import GalaxyCode, GalaxyNode, GalaxyParams
from .spherical import SphericalCode

__all__ = ["FORMAT_VERSION", "serialize", "deserialize", "save", "load"]

FORMAT_VERSION = 2


def _enc_point(p: np.ndarray) -> list[str]:
    return [float(x).hex() for x in p]


def _dec_points(coords: list, n: int, where: tuple) -> np.ndarray:
    """(m, n) array of hex-float rows; a row of another length or a non-finite
    coordinate raises naming the node."""
    if not all(isinstance(c, list) and len(c) == n for c in coords):
        raise ValueError(f"code file node {where} needs n = {n} coordinates per point and center")
    points = np.asarray([[float.fromhex(x) for x in c] for c in coords], dtype=np.float64)
    if not np.isfinite(points).all():
        raise ValueError(f"code file node {where} has a non-finite coordinate")
    return points


def _enc_node(node: GalaxyNode) -> dict:
    out = {"points": [_enc_point(p) for p in node.code.points]}
    if node.children:
        out["children"] = [_enc_node(c) for c in node.children]
    return out


def _dec_node(obj, center, height: int, params: GalaxyParams, where: tuple) -> GalaxyNode:
    """The node a record describes; where = (root, *path) names it in errors."""
    points = obj.get("points") if isinstance(obj, dict) else None
    if not isinstance(points, list) or not 1 <= len(points) <= params.m_per_level:
        raise ValueError(
            f"code file node {where} needs a list of 1 to m_per_level = "
            f"{params.m_per_level} points"
        )
    code = SphericalCode(
        center=center,
        radius=params.r * params.k ** (height - 1),
        points=_dec_points(points, params.n, where),
        saturated=len(points) < params.m_per_level,
    )
    node = GalaxyNode(height=height, code=code)
    children = obj.get("children")
    if height == 1:
        if children is not None:
            raise ValueError(f"code file node {where} has height 1 but lists children")
    elif not isinstance(children, list) or len(children) != len(points):
        raise ValueError(
            f"code file node {where} has height {height}, so needs one child per point "
            f"({len(points)})"
        )
    else:
        node.children = [
            _dec_node(c, p, height - 1, params, where + (i,))
            for i, (c, p) in enumerate(zip(children, code.points))
        ]
    return node


def _dec_root(obj, params: GalaxyParams, i: int) -> GalaxyNode:
    """Root i's node; a root record alone stores its center."""
    center = _dec_points([obj.get("center") if isinstance(obj, dict) else None], params.n, (i,))
    return _dec_node(obj, center[0], params.t_bar, params, (i,))


# Declared field types (annotations are strings here) and their coercions.
_COERCE = {"int": int, "float": float, "bool": bool}


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
        "params": asdict(code.params),
        "trees": [{**_enc_node(t), "center": _enc_point(t.code.center)} for t in code.trees],
        "achieved": {"packing_saturated": code.packing_saturated},
    }
    return json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"


def deserialize(text: str) -> GalaxyCode:
    """The code a file's text describes; a malformed document raises ValueError."""
    doc = json.loads(text)
    if not isinstance(doc, dict):
        raise ValueError(f"code file must hold a JSON object, not {type(doc).__name__}")
    version = doc.get("format_version")
    if version != FORMAT_VERSION:
        raise ValueError(
            f"unsupported code file format_version {version!r}, expected {FORMAT_VERSION}; "
            "rebuild the code with `galaxyid build` from its params record"
        )
    params = _section(doc, "params", dict, _params_from_dict)
    trees = _section(
        doc, "trees", list, lambda ts: [_dec_root(t, params, i) for i, t in enumerate(ts)]
    )
    if not trees:
        raise ValueError("code file 'trees' list is empty")
    saturated = _section(doc, "achieved", dict, lambda a: bool(a["packing_saturated"]))
    return GalaxyCode(params=params, trees=trees, packing_saturated=saturated)


def save(code: GalaxyCode, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(serialize(code))


def load(path) -> GalaxyCode:
    with open(path, "r", encoding="utf-8") as fh:
        return deserialize(fh.read())
