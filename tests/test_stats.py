import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from patvar.stats import (
    macro_f1,
    paired_t_test,
    regularized_incomplete_beta,
    student_t_two_sided_p,
)

from oracles import two_sided_p_by_quadrature

# ---------------------------------------------------------------------------
# Independent oracles (acceptance criterion 07 checks paired_t_test against
# the quadrature and macro_f1 against the confusion matrix on random inputs)
# ---------------------------------------------------------------------------


def macro_f1_three_scans(predictions, label_set):
    """Per-label counting oracle: three scans of the predictions per label,
    with macro_f1's closed-form per-label F1, so results must be equal."""
    total = 0.0
    for label in label_set:
        tp = sum(1 for gold, pred in predictions if gold == label and pred == label)
        fp = sum(1 for gold, pred in predictions if gold != label and pred == label)
        fn = sum(1 for gold, pred in predictions if gold == label and pred != label)
        denom = 2 * tp + fp + fn
        total += (2 * tp / denom) if denom else 0.0
    return total / len(label_set)


# ---------------------------------------------------------------------------
# paired_t_test
# ---------------------------------------------------------------------------


def test_t_test_hand_example():
    # d = [1,2,3,4]: mean 2.5, sample sd sqrt(5/3) = 1.29099, t = 3.8730, df 3
    t, p = paired_t_test([2.0, 4.0, 6.0, 8.0], [1.0, 2.0, 3.0, 4.0])
    assert t == pytest.approx(3.8730, abs=1e-3)
    assert p == pytest.approx(0.0305, abs=1e-3)
    assert p == pytest.approx(two_sided_p_by_quadrature(t, 3), abs=1e-3)


def test_t_test_conventions():
    assert paired_t_test([1.0, 2.0, 3.0], [1.0, 2.0, 3.0]) == (0.0, 1.0)
    t, p = paired_t_test([2.0, 3.0, 4.0, 5.0], [1.0, 2.0, 3.0, 4.0])
    assert math.isinf(t) and t > 0
    assert p == 0.0
    t, _ = paired_t_test([1.0, 2.0], [2.0, 3.0])
    assert math.isinf(t) and t < 0


def test_t_test_errors():
    with pytest.raises(ValueError, match="1 vs 2 samples"):
        paired_t_test([1.0], [1.0, 2.0])
    with pytest.raises(ValueError, match="need at least two pairs"):
        paired_t_test([1.0], [2.0])


def test_t_test_symmetry():
    rng = random.Random(3)
    for _ in range(50):
        n = rng.randint(2, 10)
        a = [rng.uniform(0, 1) for _ in range(n)]
        b = [rng.uniform(0, 1) for _ in range(n)]
        ta, pa = paired_t_test(a, b)
        tb, pb = paired_t_test(b, a)
        assert ta == pytest.approx(-tb, abs=1e-12)
        assert pa == pytest.approx(pb, abs=1e-12)


def test_incomplete_beta_reference_points():
    # I_x(1, 1) = x; I_x(1, b) = 1 - (1-x)^b
    for x in (0.0, 0.2, 0.5, 0.9, 1.0):
        assert regularized_incomplete_beta(1, 1, x) == pytest.approx(x, abs=1e-12)
    assert regularized_incomplete_beta(1, 3, 0.3) == pytest.approx(1 - 0.7**3, abs=1e-12)
    # symmetry I_x(a,b) = 1 - I_{1-x}(b,a)
    assert regularized_incomplete_beta(2.5, 0.5, 0.3) == pytest.approx(
        1 - regularized_incomplete_beta(0.5, 2.5, 0.7), abs=1e-12
    )


def test_p_value_monotone_in_t():
    ps = [student_t_two_sided_p(t, 5) for t in (0.0, 0.5, 1.0, 2.0, 4.0, 8.0)]
    assert ps[0] == pytest.approx(1.0, abs=1e-12)
    assert all(a > b for a, b in zip(ps, ps[1:]))


# ---------------------------------------------------------------------------
# macro_f1
# ---------------------------------------------------------------------------


def test_macro_f1_perfect():
    preds = [("a", "a"), ("b", "b"), ("c", "c")]
    assert macro_f1(preds, ["a", "b", "c"]) == 1.0


def test_macro_f1_hand_example():
    # golds [A,A,B,B], preds [A,B,B,B]: F1(A)=0.6667, F1(B)=0.8, macro=0.7333
    preds = [("A", "A"), ("A", "B"), ("B", "B"), ("B", "B")]
    assert macro_f1(preds, ["A", "B"]) == pytest.approx(0.7333, abs=1e-4)


def test_macro_f1_absent_label_contributes_zero():
    preds = [("A", "A"), ("B", "B")]
    assert macro_f1(preds, ["A", "B", "C"]) == pytest.approx(2 / 3, abs=1e-12)


def test_macro_f1_empty_raises():
    with pytest.raises(ValueError, match="no predictions to score"):
        macro_f1([], ["a"])


# Predictions may hold labels outside the label set, and the set may repeat one.
LABEL_POOL = ("a", "b", "c", "d", "zz")


@settings(max_examples=300, deadline=None)
@given(
    predictions=st.lists(st.tuples(st.sampled_from(LABEL_POOL), st.sampled_from(LABEL_POOL)),
                         min_size=1, max_size=40),
    label_set=st.lists(st.sampled_from(LABEL_POOL[:4]), min_size=1, max_size=5),
)
def test_macro_f1_equals_three_scan_oracle(predictions, label_set):
    assert macro_f1(predictions, label_set) == macro_f1_three_scans(predictions, label_set)


def test_macro_f1_permutation_invariant():
    rng = random.Random(8)
    labels = ["a", "b", "c"]
    preds = [(rng.choice(labels), rng.choice(labels)) for _ in range(20)]
    shuffled = preds[:]
    rng.shuffle(shuffled)
    assert macro_f1(preds, labels) == macro_f1(shuffled, labels)
