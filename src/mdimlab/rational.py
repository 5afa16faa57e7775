"""Exact rational arithmetic helpers.

All coordinates in this package are ``fractions.Fraction`` values (reduced,
positive denominator — the stdlib maintains the canonical form for us).
Floating point appears only in reports.  This module adds the few integer
kernels the stdlib lacks: floor k-th roots, floor rational powers, the
text form ``p/q`` used by every file format, and the line rules every format
shares (a header line first, blank lines ignored, each key at most once, and
each line its plan determines equal to the rebuilt one).
"""
from __future__ import annotations

from fractions import Fraction
from itertools import zip_longest

from .errors import DomainError, SerializationError

# --- integer kernels -------------------------------------------------------

def iroot(n: int, k: int) -> int:
    """Floor k-th root of a nonnegative integer, by bisection.

    With b the bit length of n and e = (b - 1)//k, the root r satisfies
    2^e <= r < 2^(e+1), so e + 1 halvings of that range find it, one k-th
    power each.
    """
    if n < 0 or k < 1:
        raise DomainError(f"iroot needs n >= 0 and k >= 1, got n={n}, k={k}")
    if n == 0 or k == 1:
        return n
    e = (n.bit_length() - 1) // k
    lo, hi = 1 << e, 1 << (e + 1)                      # lo**k <= n < hi**k
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if mid**k <= n:
            lo = mid
        else:
            hi = mid
    return lo


def floor_pow(x: Fraction, exponent: Fraction) -> int:
    """Exact floor(x**exponent) for x > 0 and rational exponent >= 0.

    Uses only integer arithmetic: with exponent p/q, N = num(x)**p and
    D = den(x)**p, r = iroot(N // D, q) is the answer, r**q * D <= N <
    (r+1)**q * D, with no correction: r**q <= N // D gives the left side, and
    (r+1)**q >= N // D + 1 > N / D the right.
    """
    if x <= 0:
        raise DomainError(f"floor_pow needs x > 0, got {x}")
    p, q = exponent.numerator, exponent.denominator
    if p < 0:
        raise DomainError(f"floor_pow needs exponent >= 0, got {exponent}")
    return iroot(x.numerator**p // x.denominator**p, q)      # p = 0: iroot(1, 1) = 1


# --- text form --------------------------------------------------------------

def parse_rational(text: str) -> Fraction:
    """Parse ``p/q`` or a plain integer literal into a Fraction."""
    try:
        return Fraction(text.strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise SerializationError(f"not a rational literal: {text!r}") from exc


def parse_int(text: str) -> int:
    """Parse a plain integer literal."""
    try:
        return int(text)
    except ValueError:
        raise SerializationError(f"not an integer literal: {text!r}") from None


def format_rational(x: Fraction) -> str:
    """Render a Fraction as ``p/q`` (always with the slash, for round-trips)."""
    return f"{x.numerator}/{x.denominator}"


def parse_interval(text: str) -> tuple[Fraction, Fraction]:
    """Parse ``lo:hi`` into an ordered rational pair."""
    parts = text.split(":")
    if len(parts) != 2:
        raise SerializationError(f"not an interval literal lo:hi: {text!r}")
    lo, hi = parse_rational(parts[0]), parse_rational(parts[1])
    if lo > hi:
        raise SerializationError(f"interval endpoints out of order: {text!r}")
    return lo, hi


def format_interval(lo: Fraction, hi: Fraction) -> str:
    return f"{format_rational(lo)}:{format_rational(hi)}"


def split_header(text: str) -> tuple[str, list[str]]:
    """The header (the first stripped, non-blank line, "" if none) and the lines after it."""
    lines = [ln.strip() for ln in text.splitlines() if ln.strip()] or [""]
    return lines[0], lines[1:]


def body_lines(text: str, header: str) -> list[str]:
    """The lines after a required header ``header`` (see `split_header`)."""
    found, body = split_header(text)
    if found != header:
        raise SerializationError(f"expected header {header!r}")
    return body


def read_fields(
    lines: list[str],
    keys: tuple[str, ...],
    required: tuple[str, ...],
    what: str,
    sep: str | None = None,
) -> dict[str, str]:
    """Read ``key<sep>value`` lines (``sep=None``: whitespace) into a dict.

    Every key must be one of ``keys``, given at most once, and every key in
    ``required`` must be present; ``what`` names a key in the messages.
    """
    fields: dict[str, str] = {}
    for ln in lines:
        parts = ln.split(sep, 1)
        key = parts[0].strip()
        if len(parts) != 2:
            problem = f"want key {sep or 'and'} value"
        elif key not in keys:
            problem = f"unknown {what} {key!r}"
        elif key in fields:
            problem = f"repeated {what} {key!r}"
        else:
            fields[key] = parts[1].strip()
            continue
        raise SerializationError(f"bad line {ln!r}: {problem}")
    for key in required:
        if key not in fields:
            raise SerializationError(f"missing {what} {key!r}")
    return fields


def require_rebuilt(stored: list[str], rebuilt: list[str], message: str) -> None:
    """At the first stored line that differs from its rebuilt line, raise
    ``message.format(have, want)``; a missing line reads ``end of file``."""
    for have, want in zip_longest(stored, rebuilt, fillvalue="end of file"):
        if have != want:
            raise SerializationError(message.format(have, want))
