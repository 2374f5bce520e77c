"""Tests of the tracer's span arithmetic and of its rebinding.

Run from the repository root: python3 -m pytest -q perfbench
"""

import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

from tracer import Tracer, instrument, traced  # noqa: E402


class FakeClock:
    """Time moves only when the code under test says so."""

    def __init__(self):
        self.t = 0.0

    def __call__(self):
        return self.t

    def tick(self, dt):
        self.t += dt


@pytest.fixture
def clock_and_tracer():
    clock = FakeClock()
    return clock, Tracer(clock)


def test_self_times_add_up_to_outer_span(clock_and_tracer):
    clock, tr = clock_and_tracer

    def c():
        clock.tick(3)

    def b():
        clock.tick(2)
        c_()

    def a():
        clock.tick(1)
        b_()
        clock.tick(1)

    c_ = traced(tr, "m.c", c)
    b_ = traced(tr, "m.b", b)
    a_ = traced(tr, "m.a", a)
    a_()
    assert tr.self_s == {"m.a": 2, "m.b": 2, "m.c": 3}
    assert tr.total_s == {"m.a": 7, "m.b": 5, "m.c": 3}
    assert sum(tr.self_s.values()) == tr.total_s["m.a"]
    assert tr.layer_self_s()["m"] == 7
    assert tr.calls == {"m.a": 1, "m.b": 1, "m.c": 1}


def test_recursive_call_is_not_double_counted(clock_and_tracer):
    clock, tr = clock_and_tracer

    def r(n):
        clock.tick(1)
        if n:
            r_(n - 1)
        clock.tick(1)

    r_ = traced(tr, "m.r", r)
    r_(2)
    assert tr.calls["m.r"] == 3
    assert tr.self_s["m.r"] == 6
    assert tr.total_s["m.r"] == 6


def test_counting_hooks_land_in_no_span(clock_and_tracer):
    clock, tr = clock_and_tracer

    def before(tracer, args):
        clock.tick(100)
        tracer.counts["m.f.args"] += len(args)

    def after(tracer, state, args, result):
        clock.tick(100)

    f_ = traced(tr, "m.f", lambda x: clock.tick(x), before, after)
    outer = traced(tr, "m.outer", lambda: f_(4))
    outer()
    assert tr.self_s == {"m.f": 4, "m.outer": 0}
    assert tr.total_s["m.outer"] == 4
    assert tr.counts["m.f.args"] == 1


def test_span_closes_when_the_call_raises(clock_and_tracer):
    clock, tr = clock_and_tracer

    def boom():
        clock.tick(1)
        raise ValueError

    outer = traced(tr, "m.outer", traced(tr, "m.boom", boom))
    with pytest.raises(ValueError):
        outer()
    assert tr.total_s == {"m.boom": 1, "m.outer": 1}
    assert tr.self_s["m.outer"] == 0


def test_instrument_rebinds_names_imported_by_name_and_restores():
    from koszulity import cli, frobenius, koszul, linalg, verify

    original = frobenius.frobenius_analysis
    rref = linalg.Matrix.rref
    tr = Tracer()
    restore = instrument(tr)
    try:
        for namespace in (cli, koszul, verify, frobenius):
            assert namespace.frobenius_analysis is not original
            assert namespace.frobenius_analysis.__wrapped__ is original
        assert linalg.Matrix.rref is not rref
        linalg.Matrix.identity(2).rank()
    finally:
        restore()
    for namespace in (cli, koszul, verify, frobenius):
        assert namespace.frobenius_analysis is original
    assert linalg.Matrix.rref is rref
    assert tr.calls["linalg.rref"] == 1
    assert tr.counts["linalg.rref.cells"] == 4
    assert tr.counts["linalg.rref.nnz"] == 2
