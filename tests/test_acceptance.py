"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines as they complete. Sweep ceilings are the documented maxima; nothing
here is tolerance-based except where a criterion names a precision, and the
equalities are exact.
"""

from mstd.verify import CHECKS, SweepConfig


def _run(number: int, check_name: str, max_order=None) -> None:
    cfg = SweepConfig(max_order=max_order)
    result = CHECKS[check_name](cfg)
    status = "PASS" if result.passed else "FAIL"
    print(f"criterion {number:02d} [{check_name}] {status}: {result.detail}", flush=True)
    assert result.passed, f"criterion {number} failed: {result.detail}"


def test_criterion_01_bijection_oracle():
    _run(1, "bijection")


def test_criterion_02_single_difference_counts():
    _run(2, "single-difference")


def test_criterion_03_two_torsion_pairs():
    _run(3, "two-torsion-pairs")


def test_criterion_04_prism_ladder_decomposition():
    _run(4, "prism-ladder")


def test_criterion_05_closed_forms():
    _run(5, "closed-forms")


def test_criterion_06_regular_graph_cap():
    _run(6, "regular-bound")


def test_criterion_07_sandwich():
    _run(7, "sandwich")


def test_criterion_08_even_ratio_cap():
    _run(8, "even-ratio")


def test_criterion_09_conway_set():
    _run(9, "conway")


def test_criterion_10_worked_example_both_routes():
    _run(10, "z8-example")


def test_criterion_11_lucas_root_ordering():
    _run(11, "lucas-roots")


def test_criterion_12_odd_order_sum_bracket():
    _run(12, "odd-bracket")


def test_criterion_13_thread_determinism():
    _run(13, "determinism")
