"""Normalized parsing for the ``REPRO_*`` environment knobs.

Every boolean environment switch in this package funnels through
:func:`env_flag`, so they all share one truth table. Before this module
existed, one kill switch treated ``=0`` as set (any non-empty string was
truthy) while ``REPRO_METRICS=0`` left metrics off — two different
parsers for the same kind of knob. The normalized rules:

* unset or ``""`` → the default; ``"0"``, ``"false"``, ``"no"``,
  ``"off"`` → ``False`` (an explicit falsy value overrides even a
  ``True`` default);
* ``"1"``, ``"true"``, ``"yes"``, ``"on"`` → ``True``;
* any other non-empty value → ``True`` (conservative: a typo in a
  kill-switch should still kill the switch, not silently no-op).

All comparisons are case-insensitive and whitespace-stripped.

Integer knobs (``REPRO_PLAN_CACHE_SIZE``) go through :func:`env_int`,
which raises a uniform ``ValueError`` naming the variable on garbage
input instead of propagating a bare ``int()`` failure.

This module must stay dependency-free (stdlib only): :mod:`repro.obs`
imports it before anything else in the package.
"""

from __future__ import annotations

import os
from typing import Optional

__all__ = ["env_flag", "env_int"]

_FALSY = frozenset({"", "0", "false", "no", "off"})
_TRUTHY = frozenset({"1", "true", "yes", "on"})


def env_flag(name: str, default: bool = False) -> bool:
    """The boolean value of environment variable ``name``.

    ``default`` is returned when the variable is unset or holds one of
    the falsy spellings; truthy spellings — and, conservatively, any
    unrecognized non-empty value — return ``True``.
    """
    raw = os.environ.get(name)
    if raw is None:
        return default
    value = raw.strip().lower()
    if value in _FALSY:
        # An explicitly falsy value turns the flag off even when the
        # caller's default is True (it is an override, not a fallback).
        return False if value else default
    return True


def env_int(name: str, default: Optional[int] = None) -> Optional[int]:
    """The integer value of environment variable ``name``.

    Unset or blank returns ``default``; a non-integer value raises
    ``ValueError`` naming the variable (so a typo in a tuning knob fails
    loudly at startup instead of silently taking the default).
    """
    raw = os.environ.get(name)
    if raw is None or raw.strip() == "":
        return default
    try:
        return int(raw)
    except ValueError:
        raise ValueError(f"{name} must be an integer, got {raw!r}") from None
