"""Exact longest-run probabilities: P(mu(N) < m) = P(tau_m > N).

A finite Markov chain imbedding (Fu & Koutras, JASA 89 (1994)
1050-1058) on the minimal exact chain: states (L, a, b), the suffix
length and the gaps to the last failure of each type capped at L,
S = m(m+1)(2m+1)/6 - m(m-1)/2 of them, about m^3/3.  Swapping the
failure types, (L, a, b) -> (L, b, a), maps the chain onto itself,
and when q1 = q2 it maps the weights too; the recursion's vector is
then symmetric and the chain lumps exactly onto the (S + m)/2 states
with a <= b.  One backward recursion serves both backends:
Python integers over the common denominator of (p, q1, q2), divided
once at the end (exact mode, Fraction inputs), or float64.  The float
recursion stops once its Collatz-Wielandt bracket on the chain's
Perron root has converged (Fu & Johnson, Adv. Appl. Prob. 41 (2009)
292-308) and extrapolates the remaining steps.

The tests check it against enumeration of all 3^n sequences
(tests/crosscheck.py).
"""
from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from .model import (
    DEFAULT_BUDGET,
    SizeError,
    TrialDistribution,
    ValidationError,
    check_window_length,
)

# Cost model of dp_longest_cdf, in word operations of 1-3 ns each.
# Measured with numpy on a 2-vCPU x86-64 VM:
# * building the chain takes ~0.5 ms at m = 10, 0.12-0.18 us per state at m = 40..120;
#   the lumped chain of a q1 = q2 triple has (S + m)/2 states but the same
#   (m+1)^3 index grid: at m = 108, 210,042 states in 29 ms against 419,976
#   in 43 ms, 0.14 us per state;
# * a float step, one product weights @ f[succ], takes 3-5 us of numpy
#   call overhead (at S = 4..340, m = 2..10) plus 4.5-8 ns per state
#   (S = 2680..170720) on one OpenBLAS thread; at m = 108 it took 0.99 ms
#   on the lumped chain and 2.1 ms on the full one.  OpenBLAS may thread
#   the product at S ~ 1e5: then a step took 1.3-8 ms at m = 80, and a
#   median 8.0 ms on either chain at m = 108.  Float mode stops once its
#   bracket has converged (tens to a few hundred steps), so the N steps
#   charged for it are an upper bound;
# * an exact step does three Python-int products per state, each ~45 ns
#   plus ~4 ns per pair of 64-bit words multiplied; f grows to about
#   N log2(d) bits and a weight has up to log2(d) bits.  With d = 3 the
#   model gives 2.5-3.3 ns per counted operation, with a 998-bit d 0.9-1.1.
#   The 100 exact steps of thirds at m = 10 took 3.1 ms on the 175-state
#   lumped chain against 5.8 ms on the 340-state full one.
BUILD_COST = 100           # per chain state
STEP_COST = 2000           # per step, either mode
EXACT_PRODUCT_COST = 15    # per big-integer product, besides its words
CONVERGED = 2.0 ** -50     # float mode stops once the bracket's b/a - 1 is this small,
STALLED = 2.0 ** -44       # or is this small and no longer falls (rounding noise)


def _dp_work(N: int, m: int, bits: int | None, symmetric: bool) -> int:
    """Word operations :func:`dp_longest_cdf` spends at most: the chain
    build, then N steps of three products per state (float mode may stop
    sooner).  `bits` is the size of the common denominator in exact mode,
    None in float mode."""
    S = m * (m + 1) * (2 * m + 1) // 6 - m * (m - 1) // 2  # states of _dp_chain(m, False)
    if symmetric:
        S = (S + m) // 2  # the m states with a = b = L are their own mirror images
    per_product = 1
    if bits is not None:
        per_product = EXACT_PRODUCT_COST + -(-bits // 64) * (N * bits // 64)
    return BUILD_COST * S + N * (STEP_COST + 3 * S * per_product)


def _sci(x) -> str:
    """x as %.2e; an integer past the double range as a power of ten."""
    return f"{x:.2e}" if x < 1e300 else f"10^{math.log10(x):.1f}"


def _dp_chain(m: int, symmetric: bool = False) -> np.ndarray:
    """Successor table of the minimal chain for {mu(N) < m}, shape (3, S).

    A state is (L, a, b): the suffix length L and the gaps a, b to the
    most recent type-I and type-II failures, each capped at L (a gap of
    L means no failure of that type inside the suffix).  The states are
    L < m, a, b <= L and a != b unless a = b = L, numbered in (L, a, b)
    order from (0, 0, 0); every successor with L = m (a valid m-window
    has ended) is the one absorbing index S.

    `symmetric` builds the lumped chain for q1 = q2.  The mirror image
    (L, b, a) of a state (L, a, b) has the mirror of its success
    successor, and its type-I and type-II successors are the mirrors of
    the state's type-II and type-I ones.  With equal weights the
    recursion therefore gives mirror states equal values, and the lumped
    chain keeps the states with a <= b, (S + m)/2 of them.  It reads the
    type-II successor (b1, c1, 0) at its mirror (b1, 0, c1); the other
    two successors already have a <= b.
    """
    L, a, b = np.indices((m + 1,) * 3, dtype=np.int32)
    state = (L < m) & (a <= L) & (b <= L) & ((a != b) | (a == L))
    if symmetric:
        state &= a <= b
    S = int(state.sum())
    lookup = np.full(state.shape, S + 1, dtype=np.intp)  # past f: reading a non-state raises
    lookup[m] = S
    lookup[state] = np.arange(S)
    # successors on a success, a type-I and a type-II failure (Outcome order)
    L1, a1, b1 = L[state] + 1, a[state] + 1, b[state] + 1
    c1 = np.minimum(a1, b1)
    type2 = lookup[b1, 0, c1] if symmetric else lookup[b1, c1, 0]
    return np.stack([lookup[L1, a1, b1], lookup[a1, 0, c1], type2])


def _times_power(f0: float, scale: int, x: float, n: int) -> float:
    """f0 * 2^scale * min(x, 1)^n for x > 0, summed in log2 and rounded by one ldexp."""
    t = math.log2(min(x, 1.0)) * min(n, 2 ** 1000)  # past 2^1000 steps any x < 1 underflows
    whole = math.floor(t)
    return math.ldexp(f0 * 2.0 ** (t - whole), scale + whole)


def _dp_float(succ: np.ndarray, weights: np.ndarray, N: int):
    """f_N(0) of the recursion on chain `succ` in float64: (value, steps, lo, hi).

    Each step g = weights @ f[succ] is renormalized by the power of two
    that puts g(0), the largest entry, in [1/2, 1), so nothing underflows
    before the final ldexp; the exponents add up in an int.  The
    Collatz-Wielandt ratios a = min g/f and b = max g/f, over the states
    with f > 0, bracket the chain's Perron root: T is nonnegative, so
    T f >= a f gives T^j f >= a^j f, and likewise for b.  The loop stops
    at the first step K with a > 0 where b/a - 1 <= CONVERGED, or where
    b/a - 1 <= STALLED and did not fall from the step before: there the
    bracket has reached rounding noise, which 2^-50 may meet only by
    chance (0.8/0.1/0.1 at N = 3e6, m = 108: step 1759 instead of 193).
    Then f_N(0) lies in [lo, hi] = f_K(0) [a, b]^(N-K), each root clamped
    to at most 1, and the value is f_K(0) sqrt(ab)^(N-K), relative width
    about (N - K) (b/a - 1).  The bracket leaves out the float rounding of
    the K steps taken.  Without convergence all N steps run and
    lo = value = hi.
    """
    f = np.ones(succ.shape[1] + 1)
    f[-1] = 0.0  # the absorbing state
    fs = f[:-1]  # a view of every other state
    ratio = np.empty(succ.shape[1])
    scale = 0
    last = math.inf  # the previous step's b/a - 1
    # where f = 0, g = 0 too: the ratio 0/0 is nan, which fmin and fmax skip
    with np.errstate(divide="ignore", invalid="ignore"):
        for k in range(1, N + 1):
            g = weights @ f[succ]
            a = np.fmin.reduce(np.divide(g, fs, out=ratio))
            b = np.fmax.reduce(ratio)
            e = math.frexp(g[0])[1]
            scale += e
            np.ldexp(g, -e, out=fs)
            gap = b / a - 1 if a > 0 else math.inf
            if gap <= CONVERGED or last <= gap <= STALLED:
                break
            last = gap
        else:
            a = b = 1.0  # all N steps taken, nothing to extrapolate
    value, lo, hi = (_times_power(f[0], scale, x, N - k) for x in (math.sqrt(a * b), a, b))
    return value, k, lo, hi


def dp_longest_cdf(dist: TrialDistribution, N: int, m: int, mode: str = "float",
                   budget: float = DEFAULT_BUDGET):
    """Exact P(mu(N) < m) = P(tau_m > N) by backward recursion on the minimal chain,
    lumped when the weights of the two failure types are equal.

    f_k(s) = P(no valid m-window within k more trials from state s), so
    f_{k+1}(s) = p f_k(succ0(s)) + q1 f_k(succ1(s)) + q2 f_k(succ2(s)),
    one product weights @ f[succ] per step, with f = 0 on the absorbing
    state; the answer is f_N(0).  Exact mode on a Fraction distribution
    runs in integers: the weights are put over their common denominator
    d and the result is divided by d^N once.  Otherwise the same step
    runs in float64 until the chain's Perron root is bracketed, and the
    remaining steps are extrapolated (:func:`_dp_float`).  The cost (see
    :func:`_dp_work`) is checked against `budget` before the chain is
    built.
    """
    if N < 1:
        raise ValidationError(f"N must be >= 1, got {N}")
    check_window_length(m, 1)
    if mode not in ("float", "exact"):
        raise ValidationError(f"mode must be 'float' or 'exact', got {mode!r}")
    if math.isnan(budget):  # work > nan is always false
        raise ValidationError("budget must be a number (inf forces the run), got nan")
    exact = mode == "exact" and dist.is_exact
    if N < m:  # no m-window fits
        return Fraction(1) if exact else 1.0
    if m == 1:  # every single trial is a valid 1-window
        return Fraction(0) if exact else 0.0
    if exact:
        d = math.lcm(dist.p.denominator, dist.q1.denominator, dist.q2.denominator)
        weights = np.array([int(x * d) for x in (dist.p, dist.q1, dist.q2)], dtype=object)
    else:
        weights = np.array(dist.as_floats())
    symmetric = bool(weights[1] == weights[2])  # the weights the recursion uses
    work = _dp_work(N, m, d.bit_length() if exact else None, symmetric)
    if work > budget:
        raise SizeError(
            f"DP needs ~{_sci(work)} word operations (> budget {_sci(budget)}); "
            f"raise `budget` to force the run"
        )
    succ = _dp_chain(m, symmetric)
    if not exact:
        return _dp_float(succ, weights, N)[0]
    f = np.ones(succ.shape[1] + 1, dtype=object)
    f[-1] = 0  # the absorbing state
    for _ in range(N):
        f[:-1] = weights @ f[succ]
    return Fraction(f[0], d ** N)
