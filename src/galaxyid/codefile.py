"""Lossless JSON serialization of codebooks.

A code file holds the params record, whether the center packing saturated,
every node's point count in level order (`counts`: the roots, then each
height in turn, as the build grows them), and two base64 blocks of
little-endian float64 coordinates: `centers`, every node's center in the
same order, and `codewords`, the height-1 nodes' points.  A node's points
above height 1 are its children's centers, so each coordinate is stored
once, bit for bit.  Scalar parameters are plain JSON numbers, which Python
also round-trips exactly.  Serialization is canonical (sorted keys, fixed
separators) so identical codes produce identical bytes.  Loading hands the
arrays to GalaxyCode, which derives the rest and rejects counts that do not
fill complete levels of the blocks' rows.  Files of versions 1 to 3 (v3
listed the nodes in pre-order) are refused with a request to rebuild.
"""

from __future__ import annotations

import base64
import json
from dataclasses import asdict, fields

import numpy as np

from .galaxy import GalaxyCode, GalaxyParams

__all__ = ["FORMAT_VERSION", "serialize", "deserialize", "save", "load"]

FORMAT_VERSION = 4


def _enc_block(table: np.ndarray) -> str:
    return base64.b64encode(table.astype("<f8", copy=False).tobytes()).decode("ascii")


def _dec_block(text: str, n: int, name: str) -> np.ndarray:
    """The (rows, n) table a block encodes; raises unless it is base64 of whole rows."""
    try:
        raw = base64.b64decode(text, validate=True)
    except ValueError as exc:  # binascii.Error, or a non-ASCII character
        raise ValueError(f"code file {name!r} block is not base64 ({exc})") from None
    if len(raw) % (8 * n):
        raise ValueError(
            f"code file {name!r} block holds {len(raw)} bytes, not whole rows of "
            f"n = {n} float64 coordinates"
        )
    return np.frombuffer(raw, dtype="<f8").reshape(-1, n)


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
        kind_name = {dict: "object", list: "list", str: "string"}[kind]
        raise ValueError(f"code file needs a {name!r} {kind_name}")
    try:
        return decode(value)
    except (KeyError, TypeError, AttributeError) as exc:
        raise ValueError(f"code file {name!r} section is malformed ({type(exc).__name__}: {exc})") from None


def serialize(code: GalaxyCode) -> str:
    doc = {
        "format_version": FORMAT_VERSION,
        "params": asdict(code.params),
        "counts": code.counts.tolist(),
        "centers": _enc_block(code.centers),
        "codewords": _enc_block(code.codewords),
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
    counts = _section(doc, "counts", list, list)
    if not counts:
        raise ValueError("code file 'counts' list is empty")
    centers = _section(doc, "centers", str, lambda s: _dec_block(s, params.n, "centers"))
    codewords = _section(doc, "codewords", str, lambda s: _dec_block(s, params.n, "codewords"))
    saturated = _section(doc, "achieved", dict, lambda a: bool(a["packing_saturated"]))
    try:
        return GalaxyCode(params, centers, counts, codewords, packing_saturated=saturated)
    except ValueError as exc:
        raise ValueError(f"code file {exc}") from None


def save(code: GalaxyCode, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(serialize(code))


def load(path) -> GalaxyCode:
    with open(path, "r", encoding="utf-8") as fh:
        return deserialize(fh.read())
