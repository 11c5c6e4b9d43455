"""Deterministic seed derivation.

Every random stream in the package is keyed by a master seed plus a
structural path (root index, node path, work-unit id, ...).  Derivation
goes through SHA-256 so streams are independent, reproducible across
platforms, and insensitive to construction order.
"""

from __future__ import annotations

__all__ = ["derive_seed"]


def derive_seed(*parts) -> int:
    """Map an arbitrary tuple of ints/strings to a stable 64-bit seed."""
    import hashlib  # on first use: it loads OpenSSL, which only seeded commands need

    key = "/".join(str(p) for p in parts)
    digest = hashlib.sha256(key.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "little")
