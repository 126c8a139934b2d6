"""Per-level sampling parameters and the color lower-bound calculators.

The schedule fixes, for each of k levels, a degree threshold d_i and an
edge probability p_i.  Level 1 starts at d_1 = n, p_1 = delta/(2k*n);
later levels follow

    d_i = 2*ln2*(s+1)*2k / (p_{i-1} * n),        p_i = delta / (2k * d_i),

which keeps p_i * d_i = delta/(2k) at every level.  All values carry
their ln2 power exactly so the closed forms can be checked by identity
rather than within a tolerance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from ..errors import UsageError
from .lnscaled import LnScaled

#: the worst-case constant for the simplified theorem-style bound
ETA_0 = 100

#: The calculators' declared domain: n, delta and s at most 2^128, and k
#: and q at most 32, given or derived by `corollary_check`.  Inside it no
#: conversion to float raises, and every exact bound prints within
#: Python's 4300-digit limit on int-to-str conversion: the theorem
#: bound's numerator is at most (n * delta)^k <= 2^8192, 2467 digits.
MAX_VALUE_BITS = 128
MAX_LEVELS = 32


def _require_positive_int(name: str, value, limit: int = 1 << MAX_VALUE_BITS) -> int:
    if not isinstance(value, int) or isinstance(value, bool) or value < 1:
        raise UsageError(f"{name} must be a positive integer, got {value!r}")
    if value > limit:
        shown = f"2^{MAX_VALUE_BITS}" if limit == 1 << MAX_VALUE_BITS else limit
        raise UsageError(f"{name} = {value} is above the limit of {shown}")
    return value


@dataclass(frozen=True)
class AdversarySchedule:
    """Exact (d_i, p_i) levels plus hypothesis diagnostics.

    ``d`` and ``p`` are indexed 0..k-1 for levels 1..k.  ``warnings``
    lists violated admissibility hypotheses; they do not block the
    arithmetic.
    """

    n: int
    delta: int
    k: int
    s: int
    d: tuple[LnScaled, ...]
    p: tuple[LnScaled, ...]
    warnings: tuple[str, ...]
    p_in_unit_interval: bool

    @property
    def hypotheses_ok(self) -> bool:
        return not self.warnings

    def growth_ratio(self) -> LnScaled:
        """The factor d_{i+1}/d_i implied by the recursion."""
        return LnScaled(
            Fraction(2 * (self.s + 1) * (2 * self.k) ** 2, self.n * self.delta), 1
        )

    def closed_form_d(self, i: int) -> LnScaled:
        """Direct formula d_i = n * ratio**(i-1), bypassing the recursion."""
        return LnScaled.of(self.n) * self.growth_ratio() ** (i - 1)

    def closed_form_p(self, i: int) -> LnScaled:
        return LnScaled.of(Fraction(self.delta, 2 * self.k * self.n)) * (
            self.growth_ratio() ** (i - 1)
        ) ** (-1)

    def next_degree_threshold(self) -> LnScaled:
        """d_{k+1} from one more turn of the recursion (prune threshold)."""
        return (
            LnScaled(Fraction(2 * (self.s + 1) * 2 * self.k), 1)
            / (self.p[-1] * self.n)
        )


def schedule(n: int, delta: int, k: int, s: int) -> AdversarySchedule:
    """Build the exact level parameters and check admissibility.

    Hypothesis violations (delta >= 64*ln^2(2n), delta**k <= n,
    s >= n*log2(delta)) are reported as warnings, not errors.
    """
    n = _require_positive_int("n", n)
    delta = _require_positive_int("delta", delta)
    k = _require_positive_int("k", k, MAX_LEVELS)
    s = _require_positive_int("s", s)

    warnings = []
    if float(delta) < 64.0 * math.log(2 * n) ** 2:
        warnings.append(f"delta={delta} is below 64*ln^2(2n)")
    if delta**k > n:
        warnings.append(f"delta^k = {delta**k} exceeds n={n}")
    if delta > 1 and float(s) < n * math.log2(delta):
        warnings.append(f"s={s} is below n*log2(delta)")

    d = [LnScaled.of(n)]
    p = [LnScaled.of(Fraction(delta, 2 * k * n))]
    for _ in range(2, k + 1):
        d_next = LnScaled(Fraction(2 * (s + 1) * 2 * k), 1) / (p[-1] * n)
        d.append(d_next)
        p.append(LnScaled.of(Fraction(delta, 2 * k)) / d_next)

    sched = AdversarySchedule(
        n=n,
        delta=delta,
        k=k,
        s=s,
        d=tuple(d),
        p=tuple(p),
        warnings=tuple(warnings),
        p_in_unit_interval=all(
            value.coeff > 0 and value < 1 for value in p
        ),
    )
    for i in range(1, k + 1):
        if sched.d[i - 1] != sched.closed_form_d(i) or sched.p[
            i - 1
        ] != sched.closed_form_p(i):
            raise AssertionError(f"closed form disagrees with recursion at level {i}")
    return sched


def lemma_color_bound(sched: AdversarySchedule) -> LnScaled:
    """Colors forced at the last level: n^2 * p_k / (16 * ln2 * (s+1))."""
    return (
        LnScaled(Fraction(sched.n**2, 16 * (sched.s + 1)), -1) * sched.p[-1]
    )


def theorem_color_bound(n: int, delta: int, k: int, s: int) -> Fraction:
    """Simplified worst-constant form (1/(ETA_0*k))**(2k) * (n*delta/s)**k."""
    _require_positive_int("n", n)
    _require_positive_int("delta", delta)
    _require_positive_int("k", k, MAX_LEVELS)
    _require_positive_int("s", s)
    return Fraction(1, (ETA_0 * k) ** (2 * k)) * Fraction(n * delta, s) ** k


@dataclass(frozen=True)
class LowerBoundReport:
    """Both bound forms for one (n, delta, k, s) tuple."""

    schedule: AdversarySchedule
    lemma_bound: LnScaled
    theorem_bound: Fraction

    def theorem_le_lemma(self) -> bool:
        return LnScaled.of(self.theorem_bound) <= self.lemma_bound


def color_lower_bound(n: int, delta: int, k: int, s: int) -> LowerBoundReport:
    sched = schedule(n, delta, k, s)
    return LowerBoundReport(
        schedule=sched,
        lemma_bound=lemma_color_bound(sched),
        theorem_bound=theorem_color_bound(n, delta, k, s),
    )


def _log_fraction(x: Fraction) -> float:
    """Natural log of a positive Fraction without overflowing floats."""
    if x <= 0:
        raise ValueError("log of a nonpositive value")
    return math.log(x.numerator) - math.log(x.denominator)


@dataclass(frozen=True)
class CorollaryCheck:
    """One instantiation of the simplified bound against its target.

    ``threshold_ln`` is the natural log of the advertised color count;
    ``exceeds`` says whether the computed bound actually clears it.
    """

    mode: str
    parameter: Fraction
    n: int
    delta: int
    k: int
    s: int
    theorem_bound: Fraction
    theorem_bound_ln: float
    threshold_ln: float
    exceeds: bool


def corollary_check(
    n: int, *, q: int | None = None, alpha: Fraction | None = None
) -> CorollaryCheck:
    """Instantiate the bound the way the two headline regimes do.

    Conventions: parameter-setting logs are base 2; the space budget s
    and max degree are rounded to integers.  q-mode uses
    delta = 200*log2(n)**(q+1), k = floor(sqrt(log_delta n)),
    s = n*log2(n)**q and target exp(delta**(1/4q)).  alpha-mode uses
    delta = n**(2*alpha), k = round(1/(2*alpha)), s = n**(1+alpha) and
    target delta**(1/(3*alpha)).

    At n = 2**20 none of the four headline instantiations (q = 1, 2 and
    alpha = 1/4, 1/2) clears its target: with ETA_0 = 100 every bound is
    at most 2/5, less than one color.  Two targets are out of reach at
    any n under this parameterization:

    * alpha-mode has n*delta/s = n**alpha = delta**(1/2), so the bound
      is delta**(1/(4*alpha)) / (ETA_0*k)**(2k), and the target exponent
      1/(3*alpha) exceeds the 1/(4*alpha) the bound can reach;
    * q = 1 has n*delta/s = 200*log2(n), so ln(bound) =
      k*ln(log2(n) / (50*k**2)) <= 0.104*sqrt(log2(n)) for every k,
      against a target ln of delta**(1/4) = 3.76*sqrt(log2(n)).

    q, alpha and the delta and s they derive must lie in the calculators'
    declared domain (MAX_VALUE_BITS, MAX_LEVELS); UsageError otherwise.
    """
    _require_positive_int("n", n)
    if (q is None) == (alpha is None):
        raise UsageError("provide exactly one of q or alpha")
    log_n = math.log2(n)
    if q is not None:
        q = _require_positive_int("q", q, MAX_LEVELS)
        if n < 2:  # log2(n) = 0 leaves log_delta(n) at 0/0
            raise UsageError("q-mode needs n >= 2")
        mode, parameter = "q", Fraction(q)
        delta = max(1, round(200.0 * log_n ** (q + 1)))
        k = max(1, math.floor(math.sqrt(log_n / math.log2(delta))))
        s = max(1, math.ceil(n * log_n**q))
        threshold_ln = float(delta) ** (1.0 / (4 * q))
    else:
        alpha = Fraction(alpha)
        if not (0 < alpha < 1):
            raise UsageError(f"alpha must lie in (0,1), got {alpha}")
        if alpha < Fraction(1, 2 * MAX_LEVELS):
            # k = round(1 / (2 * alpha)) levels
            raise UsageError(
                f"alpha = {alpha} is below the limit of 1/{2 * MAX_LEVELS}, "
                f"which keeps k at most {MAX_LEVELS}"
            )
        mode, parameter = "alpha", alpha
        delta = max(1, round(n ** float(2 * alpha)))
        k = max(1, round(1 / float(2 * alpha)))
        s = max(1, math.ceil(n ** float(1 + alpha)))
        threshold_ln = math.log(delta) / float(3 * alpha)
    for name, value in (("delta", delta), ("s", s)):
        if value > 1 << MAX_VALUE_BITS:
            raise UsageError(
                f"{mode} = {parameter} at n = {n} gives {name} = {value}, "
                f"above the limit of 2^{MAX_VALUE_BITS}"
            )
    bound = theorem_color_bound(n, delta, k, s)
    bound_ln = _log_fraction(bound)
    return CorollaryCheck(
        mode=mode,
        parameter=parameter,
        n=n,
        delta=delta,
        k=k,
        s=s,
        theorem_bound=bound,
        theorem_bound_ln=bound_ln,
        threshold_ln=threshold_ln,
        exceeds=bound_ln > threshold_ln,
    )
