"""Lossless JSON serialization of codebooks.

A code file holds what a code cannot be re-grown without: the params
record, whether the center packing saturated, and three base64 blocks of
little-endian float64 coordinates.  `roots` holds the root centers, and
`prefix` the greedy's witness-prefix directions, greedy_prefix(...).accepted.
Both sides compute the prefix from the params; the stored copy is a check,
since the simplex directions come from a LAPACK QR: a machine whose QR gives
other bits refuses the file instead of growing another code from it.
`exceptions` holds the nodes whose points are not bit for bit
center + r_h * prefix: their level-order indices (the roots, then each
height in turn, as the build grows them), point counts, and points one node
after another.  Loading grows the code from these through
galaxy._grow_code, the build's own level step, so it reproduces the code
bit for bit; a code grown from its prefix stores no exception at all, and
its file takes kilobytes whatever its size.  Scalar parameters are plain
JSON numbers, which Python also round-trips exactly.  Serialization is
canonical (sorted keys, fixed separators) so identical codes produce
identical bytes.  Files of versions 1 to 4 (v4 stored every coordinate)
are refused with a request to rebuild.
"""

from __future__ import annotations

import base64
import json
from dataclasses import asdict, fields

import numpy as np

from . import galaxy
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


def _exceptions(code: GalaxyCode, prefix: np.ndarray) -> tuple:
    """(level-order indices, point counts, points) of the nodes whose points
    are not _grow_level's from the prefix, found by one bitwise comparison per
    level (uint64 views, so -0.0 and 0.0 differ)."""
    p = code.params
    starts = np.flatnonzero(np.diff(code.heights)) + 1
    bounds = [0, *starts.tolist(), len(code.centers)]
    tables = [code.centers[a:b] for a, b in zip(bounds, bounds[1:])] + [code.codewords]
    found = []
    for i, height in enumerate(range(p.t_bar, 0, -1)):
        level, points = tables[i], tables[i + 1]
        sizes = code.counts[bounds[i] : bounds[i + 1]]
        same = sizes == len(prefix)
        whole = same.all()  # as on every prefix-grown code: compare without gathering
        _, grown = galaxy._grow_level(level if whole else level[same], p.level_radius(height),
                                      prefix, [], [], None)
        own = points if whole else points[np.repeat(same, sizes)]
        equal = own.view(np.uint64) == grown.view(np.uint64)
        same[same] = equal.reshape(-1, prefix.size).all(axis=1)
        odd = ~same
        found.append((bounds[i] + np.flatnonzero(odd), sizes[odd], points[np.repeat(odd, sizes)]))
    nodes, counts, points = zip(*found)
    return np.concatenate(nodes), np.concatenate(counts), np.concatenate(points)


def _prefix(params: GalaxyParams) -> np.ndarray:
    """The witness-prefix directions of a code's params: the one source that
    serialize finds exceptions against and deserialize grows from."""
    return greedy_prefix(params.n, params.theta, params.m_per_level, params.max_attempts).accepted


def serialize(code: GalaxyCode) -> str:
    p = code.params
    prefix = _prefix(p)
    nodes, counts, points = _exceptions(code, prefix)
    doc = {
        "format_version": FORMAT_VERSION,
        "params": asdict(p),
        "roots": _enc_block(code.roots),
        "prefix": _enc_block(prefix),
        "exceptions": {"nodes": nodes.tolist(), "counts": counts.tolist(),
                       "points": _enc_block(points)},
        "achieved": {"packing_saturated": code.packing_saturated},
    }
    return json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"


def _exceptions_from(section: dict, params: GalaxyParams) -> tuple:
    """(nodes, counts, points) of an 'exceptions' section, checked as far as
    they can be before the code is grown."""
    nodes, counts = section["nodes"], section["counts"]
    if not isinstance(nodes, list) or not isinstance(counts, list):
        raise TypeError("'nodes' and 'counts' must be lists")
    if len(nodes) != len(counts):
        raise ValueError(
            f"code file 'exceptions' lists {len(nodes)} nodes and {len(counts)} counts"
        )
    if any(type(v) is not int for v in nodes + counts):
        raise ValueError("code file 'exceptions' nodes and counts must be integers")
    for before, v in zip(nodes, nodes[1:]):
        if v <= before:
            raise ValueError(
                f"code file 'exceptions' nodes must be strictly increasing, got {v} after {before}"
            )
    for v, c in zip(nodes, counts):
        if not 1 <= c <= params.m_per_level:
            raise ValueError(
                f"code file exception node {v} holds {c} points, not 1 to "
                f"m_per_level = {params.m_per_level}"
            )
    if nodes and not 0 <= nodes[0] <= nodes[-1] < 1 << 62:
        bad = nodes[0] if nodes[0] < 0 else nodes[-1]
        raise ValueError(f"code file exception node {bad} is out of range")
    points = _dec_block(section["points"], params.n, "exceptions.points")
    if len(points) != sum(counts):
        raise ValueError(
            f"code file 'exceptions.points' block holds {len(points)} rows, not the "
            f"{sum(counts)} its counts give"
        )
    return np.array(nodes, dtype=np.intp), np.array(counts, dtype=np.intp), points


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
    if not len(roots):
        raise ValueError("code file 'roots' block holds no root")
    stored = _section(doc, "prefix", str, lambda s: _dec_block(s, params.n, "prefix"))
    prefix = _prefix(params)
    if stored.shape != prefix.shape or (stored.view(np.uint64) != prefix.view(np.uint64)).any():
        raise ValueError(
            f"code file 'prefix' block ({len(stored)} directions) is not the "
            f"{len(prefix)}-direction witness prefix its params give here, so the code "
            "would not grow as it was built; rebuild the code with `galaxyid build`"
        )
    nodes, counts, points = _section(doc, "exceptions", dict,
                                     lambda e: _exceptions_from(e, params))
    saturated = _section(doc, "achieved", dict, lambda a: bool(a["packing_saturated"]))
    offsets = np.concatenate([[0], np.cumsum(counts)])

    def given(first, level, r, paths):
        lo, hi = np.searchsorted(nodes, [first, first + len(level)])
        return nodes[lo:hi] - first, counts[lo:hi], points[offsets[lo] : offsets[hi]]

    try:
        code = galaxy._grow_code(params, roots, prefix, given, saturated)
    except ValueError as exc:
        raise ValueError(f"code file {exc}") from None
    if len(nodes) and nodes[-1] >= len(code.centers):
        raise ValueError(
            f"code file exception node {nodes[-1]} is out of range: the code has "
            f"{len(code.centers)} nodes"
        )
    return code


def save(code: GalaxyCode, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(serialize(code))


def load(path) -> GalaxyCode:
    with open(path, "r", encoding="utf-8") as fh:
        return deserialize(fh.read())
