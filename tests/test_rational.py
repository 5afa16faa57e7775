"""Integer kernels of the rational layer: floor k-th roots and floor
rational powers, held to their defining inequalities."""
from __future__ import annotations

import time
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mdimlab import DomainError, SerializationError
from mdimlab.rational import floor_pow, iroot, parse_interval

F = Fraction

# a bit length from 0 to 3000 first, then a value of about that size, so
# small and very large radicands are both drawn often
radicands = st.integers(0, 3000).flatmap(lambda bits: st.integers(0, 2**bits))


@settings(max_examples=300, deadline=None)
@given(radicands, st.integers(1, 64))
@example(2**899 - 1, 2)
@example(2**900, 3)
@example(2**1100 + 1, 64)
@example(1, 64)
@example(10**30, 1)
def test_iroot_is_the_floor_root(n, k):
    r = iroot(n, k)
    assert r >= 0
    assert r**k <= n < (r + 1) ** k


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 2**200), st.integers(1, 64))
def test_iroot_is_exact_at_and_just_below_perfect_powers(r, k):
    assert iroot(r**k, k) == r
    assert iroot(r**k - 1, k) == r - 1


def newton_root(n: int, k: int) -> int:
    """Floor k-th root by Newton steps from above, the reference for the
    bisecting ``iroot``."""
    if n == 0 or k == 1:
        return n
    r = 1 << (n.bit_length() // k + 1)
    while not r**k <= n < (r + 1) ** k:
        r = max(((k - 1) * r + n // r ** (k - 1)) // k, 1)
    return r


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 3000).flatmap(lambda bits: st.integers(0, 2**bits - 1)), st.integers(1, 64))
@example(2**56, 8)             # a perfect power: the root is the low end 2^7
@example(2**56 - 1, 8)         # just below it: the root is 2^7 - 1, the top of [2^6, 2^7)
def test_iroot_agrees_with_newton_steps(n, k):
    assert iroot(n, k) == newton_root(n, k)


def test_iroot_of_a_huge_radicand_with_a_large_index_is_fast():
    # 19 halvings of [2^18, 2^19); Newton from above would creep down by a
    # factor 9999/10000 a step, 6,353 steps
    start = time.perf_counter()
    r = iroot(3000001**8399, 10000)
    assert time.perf_counter() - start < 0.5
    assert r**10000 <= 3000001**8399 < (r + 1) ** 10000


@pytest.mark.parametrize("n,k", [(-1, 2), (4, 0)])
def test_iroot_rejects_a_negative_radicand_or_a_zero_index(n, k):
    with pytest.raises(DomainError, match="iroot needs"):
        iroot(n, k)


@pytest.mark.parametrize("x,exponent,message", [
    (F(0), F(1, 2), "floor_pow needs x > 0, got 0"),
    (F(2), F(-1, 2), "floor_pow needs exponent >= 0, got -1/2"),
])
def test_floor_pow_rejects_a_nonpositive_base_or_a_negative_exponent(x, exponent, message):
    with pytest.raises(DomainError) as exc:
        floor_pow(x, exponent)
    assert str(exc.value) == message


positive_fractions = st.fractions(min_value=F(1, 10**6), max_value=10**6, max_denominator=10**6)


@settings(max_examples=200, deadline=None)
@given(positive_fractions, st.integers(0, 64), st.integers(1, 64))
@example(F(4), 1, 2)
@example(F(1, 3), 5, 7)
@example(F(27), 1, 3)                    # an exact power: the root itself, 3
@example(F(26), 1, 3)                    # just below it: 2
@example(F(8 * 10**6 - 1, 10**6), 1, 3)  # just below 8 over a denominator: 1
def test_floor_pow_is_the_floor_power(x, p, q):
    # m = floor(x**(p/q)) exactly when m**q <= x**p < (m+1)**q; the root of
    # num // den is that m with no correction step
    m = floor_pow(x, F(p, q))
    num, den = x.numerator**p, x.denominator**p
    assert m >= 0
    assert m**q * den <= num < (m + 1) ** q * den


@pytest.mark.parametrize("text,message", [
    ("1/2:1/3", "interval endpoints out of order: '1/2:1/3'"),
    ("1/3", "not an interval literal lo:hi: '1/3'"),
])
def test_parse_interval_refusals(text, message):
    with pytest.raises(SerializationError) as exc:
        parse_interval(text)
    assert str(exc.value) == message
