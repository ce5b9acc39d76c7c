"""Tests for epchain.exact: the one-dimensional searches, and the per-thread
mpmath contexts that let boundary searches run on several threads."""

import threading

import mpmath as mp
from hypothesis import given, settings
from hypothesis import strategies as st

from epchain import analysis, bethe, exact
from epchain.models import ModelKind, ModelSpec


def test_precision_is_one_context_per_thread_restored_on_exit():
    with exact.precision(prec=53) as outer:
        with exact.precision(dps=60) as inner:
            assert inner is outer and inner.dps == 60
        assert outer.prec == 53
    others = []

    def other_thread():
        with exact.precision(prec=53) as ctx:
            others.append(ctx)

    thread = threading.Thread(target=other_thread)
    thread.start()
    thread.join(60)
    assert not thread.is_alive() and others[0] is not outer
    assert mp.mp.prec == 53


# illinois "ends on bisect's test and so returns the same double": on a
# residual whose one sign change sits at a double r, both return r itself

@settings(max_examples=100, deadline=None)
@given(r=st.floats(1e-300, 1.0), c=st.floats(0.0, 1e6))
def test_illinois_and_bisect_return_the_root_double(r, c):
    with exact.precision(dps=40) as ctx:
        def f(g):
            return ctx.log(g) - ctx.log(r) + c * (g - r)

        lo, hi = ctx.mpf(10) ** -310, ctx.mpf(10)
        flo, fhi = f(lo), f(hi)
        assert exact.illinois(f, lo, hi, flo, fhi, 1e-300) == r
        assert exact.bisect(lambda g: f(g) * flo <= 0, lo, hi, 1e-300) == r


# The two XY boundary searches interleaved on two threads: A, the exact
# boundary at 270 digits, pauses at its first residual; B, the Sturm scan at
# 53 bits, pauses at its first Sturm count; A finishes, then B.  On one shared
# mpmath context B's 53 bits would reach A's residuals (NoBracket) and B's
# exit would leave the shared precision at A's 900 bits.

def test_boundary_searches_interleaved_on_two_threads(monkeypatch):
    chain = ModelSpec(ModelKind.XY_MAGNON, N=8)
    alone = {"a": bethe.exact_boundary_gamma(12, 1e10),
             "b": analysis.numeric_boundary_gamma(chain, 97.0)}
    a_paused, b_paused, a_done = (threading.Event() for _ in range(3))
    residual, counts = bethe._boundary_log_residual, exact.sturm_root_counts

    def pause(mine, other):
        if not mine.is_set():
            mine.set()
            if not other.wait(60):
                raise TimeoutError("the other search never paused")

    def residual_pausing_once(*args):
        pause(a_paused, b_paused)
        return residual(*args)

    def counts_pausing_once(p):
        pause(b_paused, a_done)
        return counts(p)

    monkeypatch.setattr(bethe, "_boundary_log_residual", residual_pausing_once)
    monkeypatch.setattr(exact, "sturm_root_counts", counts_pausing_once)
    results = {}

    def run(name, search, *args):
        try:
            results[name] = search(*args)
        except Exception as exc:  # reported by the assertion below
            results[name] = exc

    a = threading.Thread(target=run, args=("a", bethe.exact_boundary_gamma,
                                           12, 1e10))
    b = threading.Thread(target=run, args=("b", analysis.numeric_boundary_gamma,
                                           chain, 97.0))
    a.start()
    assert a_paused.wait(60)
    b.start()
    a.join(60)
    assert not a.is_alive()
    a_done.set()
    b.join(60)
    assert not b.is_alive()
    assert results == alone
    assert [results[k].hex() for k in "ab"] == [alone[k].hex() for k in "ab"]
    assert alone["a"] == 1e-100
    assert mp.mp.prec == 53
