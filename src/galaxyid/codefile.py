"""Lossless JSON serialization of codebooks.

A code file holds what a code cannot be re-grown without: the params
record, whether the center packing saturated, and three base64 blocks of
little-endian float64 coordinates.  `roots` holds the root centers, and
`prefix` the greedy's witness-prefix directions, greedy_prefix(...).accepted.
Both sides compute the prefix from the params; the stored copy is a check,
since the simplex directions come from a LAPACK QR: a machine whose QR gives
other bits refuses the file instead of growing another code from it.
`exceptions` holds the code's exception nodes, GalaxyCode.exceptions as
they are: their level-order indices (the roots, then each height in turn,
as the build grows them), point counts, and points one node after another.
build_code lists only the nodes whose points are not bit for bit
center + r_h * prefix, so a code grown from its prefix stores no exception
at all, and its file takes kilobytes whatever its size.  Loading is
parsing plus GalaxyCode(params, roots, exceptions, packing_saturated),
the constructor the build uses, so it reproduces the code bit for bit.
Scalar parameters are plain JSON numbers of their declared types, which
Python also round-trips exactly.  Serialization is
canonical (sorted keys, fixed separators) so identical codes produce
identical bytes.  Files of versions 1 to 4 (v4 stored every coordinate)
are refused with a request to rebuild.
"""

from __future__ import annotations

import base64
import json
from dataclasses import asdict, fields

import numpy as np

from .galaxy import GalaxyCode, GalaxyParams
from .spherical import greedy_prefix

__all__ = ["FORMAT_VERSION", "serialize", "deserialize", "save", "load"]

FORMAT_VERSION = 5


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
    """GalaxyParams from a file's params record, each value converted to its
    declared type, and refused unless the conversion keeps it equal: 8.0
    loads as 8 and 1 as True, but 64.7, "8" and "false" are refused."""
    values = {}
    for f in fields(GalaxyParams):
        base, _, optional = f.type.partition(" | ")
        if f.name not in pd:
            raise ValueError(f"code file params lack {f.name!r}")
        value = pd[f.name]
        try:
            kept = None if value is None and optional == "None" else _COERCE[base](value)
            if kept != value:
                raise ValueError
        except (TypeError, ValueError, OverflowError):
            raise ValueError(f"code file param {f.name!r} is not {base}: {value!r}") from None
        values[f.name] = kept
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


def _prefix(params: GalaxyParams) -> np.ndarray:
    """The witness-prefix directions of a code's params, as GalaxyCode grows
    every node from them: serialize stores them, and deserialize checks the
    stored copy against them."""
    return greedy_prefix(params.n, params.theta, params.m_per_level, params.max_attempts).accepted


def serialize(code: GalaxyCode) -> str:
    p = code.params
    nodes, counts, points = code.exceptions
    doc = {
        "format_version": FORMAT_VERSION,
        "params": asdict(p),
        "roots": _enc_block(code.roots),
        "prefix": _enc_block(_prefix(p)),
        "exceptions": {"nodes": nodes.tolist(), "counts": counts.tolist(),
                       "points": _enc_block(points)},
        "achieved": {"packing_saturated": code.packing_saturated},
    }
    return json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"


def _exceptions_from(section: dict, n: int) -> tuple:
    """GalaxyCode's (nodes, counts, points) from an 'exceptions' section: lists
    of JSON integers and a points block, which the code checks further."""
    nodes, counts = section["nodes"], section["counts"]
    if not isinstance(nodes, list) or not isinstance(counts, list):
        raise TypeError("'nodes' and 'counts' must be lists")
    if any(type(v) is not int or not -(1 << 63) <= v < 1 << 63 for v in nodes + counts):
        raise ValueError("code file 'exceptions' nodes and counts must be 64-bit integers")
    points = _dec_block(section["points"], n, "exceptions.points")
    return np.array(nodes, dtype=np.int64), np.array(counts, dtype=np.int64), points


def _saturated(achieved: dict) -> bool:
    value = achieved["packing_saturated"]
    if type(value) is not bool:
        raise ValueError(f"code file 'achieved.packing_saturated' is not a boolean: {value!r}")
    return value


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
    roots = _section(doc, "roots", str, lambda s: _dec_block(s, params.n, "roots"))
    stored = _section(doc, "prefix", str, lambda s: _dec_block(s, params.n, "prefix"))
    exceptions = _section(doc, "exceptions", dict, lambda e: _exceptions_from(e, params.n))
    saturated = _section(doc, "achieved", dict, _saturated)
    try:
        code = GalaxyCode(params, roots, exceptions, saturated)
    except ValueError as exc:
        raise ValueError(f"code file {exc}") from None
    prefix = _prefix(params)
    if stored.shape != prefix.shape or (stored.view(np.uint64) != prefix.view(np.uint64)).any():
        raise ValueError(
            f"code file 'prefix' block ({len(stored)} directions) is not the "
            f"{len(prefix)}-direction witness prefix its params give here, so the code "
            "would not grow as it was built; rebuild the code with `galaxyid build`"
        )
    return code


def save(code: GalaxyCode, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(serialize(code))


def load(path) -> GalaxyCode:
    with open(path, "r", encoding="utf-8") as fh:
        return deserialize(fh.read())
