"""Evaluation statistics: macro-F1, the paired t-test, and the regularized
incomplete beta function that backs the t-distribution tail probability."""

from __future__ import annotations

import math
from collections import Counter
from typing import Sequence


def mean(xs: Sequence[float]) -> float:
    return sum(xs) / len(xs)


def sample_sd(xs: Sequence[float]) -> float:
    if len(xs) < 2:
        return 0.0
    m = mean(xs)
    return math.sqrt(sum((x - m) ** 2 for x in xs) / (len(xs) - 1))


def _beta_cont_fraction(a: float, b: float, x: float) -> float:
    # Modified Lentz continued fraction for the incomplete beta integral.
    max_iter = 300
    eps = 3e-14
    tiny = 1e-300
    qab, qap, qam = a + b, a + 1.0, a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    if abs(d) < tiny:
        d = tiny
    d = 1.0 / d
    h = d
    for m in range(1, max_iter + 1):
        m2 = 2 * m
        aa = m * (b - m) * x / ((qam + m2) * (a + m2))
        d = 1.0 + aa * d
        if abs(d) < tiny:
            d = tiny
        c = 1.0 + aa / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        h *= d * c
        aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
        d = 1.0 + aa * d
        if abs(d) < tiny:
            d = tiny
        c = 1.0 + aa / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < eps:
            return h
    raise ArithmeticError(f"incomplete beta did not converge for a={a}, b={b}, x={x}")


def regularized_incomplete_beta(a: float, b: float, x: float) -> float:
    """I_x(a, b) for a, b > 0 and x in [0, 1]."""
    if a <= 0 or b <= 0:
        raise ValueError("a and b must be positive")
    if x <= 0.0:
        return 0.0
    if x >= 1.0:
        return 1.0
    ln_front = (
        math.lgamma(a + b)
        - math.lgamma(a)
        - math.lgamma(b)
        + a * math.log(x)
        + b * math.log1p(-x)
    )
    front = math.exp(ln_front)
    # The continued fraction converges fast on one side of the mean; mirror otherwise.
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _beta_cont_fraction(a, b, x) / a
    return 1.0 - front * _beta_cont_fraction(b, a, 1.0 - x) / b


def student_t_two_sided_p(t: float, df: int) -> float:
    """P(|T| >= |t|) for Student's t with df degrees of freedom."""
    if df < 1:
        raise ValueError("df must be >= 1")
    if math.isinf(t):
        return 0.0
    x = df / (df + t * t)
    return regularized_incomplete_beta(df / 2.0, 0.5, x)


def paired_t_test(a: Sequence[float], b: Sequence[float]) -> tuple[float, float]:
    """Two-sided paired t-test over equal-length samples.

    Returns (t, p). Conventions: all-zero differences give (0, 1.0); zero
    variance with a nonzero mean gives (+/-inf, 0.0).
    """
    if len(a) != len(b):
        raise ValueError(f"{len(a)} vs {len(b)} samples")
    n = len(a)
    if n < 2:
        raise ValueError("need at least two pairs")
    d = [x - y for x, y in zip(a, b)]
    md = mean(d)
    sd = sample_sd(d)
    if sd == 0.0:
        if md == 0.0:
            return 0.0, 1.0
        return math.copysign(math.inf, md), 0.0
    t = md / (sd / math.sqrt(n))
    return t, student_t_two_sided_p(t, n - 1)


def macro_f1(predictions: Sequence[tuple[str, str]], label_set: Sequence[str]) -> float:
    """Unweighted mean of per-label F1 over the whole label set.

    `predictions` holds (gold, predicted) pairs. A label with no true
    positives contributes 0 (the 0/0 convention), including labels that never
    appear in the predictions at all.
    """
    if not predictions:
        raise ValueError("no predictions to score")
    tp, fp, fn = Counter(), Counter(), Counter()
    for (gold, pred), count in Counter(predictions).items():
        if gold == pred:
            tp[gold] += count
        else:
            fp[pred] += count
            fn[gold] += count
    total = 0.0
    for label in label_set:
        denom = 2 * tp[label] + fp[label] + fn[label]
        total += (2 * tp[label] / denom) if denom else 0.0
    return total / len(label_set)
