"""Tests for the benchmark's own logic.

    python3 -m pytest perfbench -q
"""

import json
import math
import os
import random
import statistics
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

import reference  # noqa: E402
import run  # noqa: E402
import stats  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402
from mvops import construct, moments, serialize, ttr  # noqa: E402


# -- self time ----------------------------------------------------------------

def test_self_time_on_synthetic_tree():
    # 0 [0,10] -> 1 [1,4] -> 3 [2,3]
    #          -> 2 [5,9]
    # 4 [20,30] -> 5 [21,25], 6 [26,27]
    starts = [0.0, 1.0, 5.0, 2.0, 20.0, 21.0, 26.0]
    ends = [10.0, 4.0, 9.0, 3.0, 30.0, 25.0, 27.0]
    parents = [-1, 0, 0, 1, -1, 4, 4]
    got = tracing.self_times(starts, ends, parents)
    assert list(got) == pytest.approx([3.0, 2.0, 4.0, 1.0, 5.0, 4.0, 1.0])
    # self times of one tree add up to the root's duration
    assert sum(got[:4]) == pytest.approx(10.0)


def test_self_time_clips_children_to_the_parent():
    got = tracing.self_times([0.0, -1.0], [2.0, 1.0], [-1, 0])
    assert got[0] == pytest.approx(1.0)


def test_outermost_skips_same_named_descendants():
    names = [0, 1, 1, 1]
    parents = [-1, 0, 1, 0]
    assert tracing.outermost(names, parents, {1}) == [1, 3]


# -- percentile and sample-count rule ------------------------------------------

def test_percentile_matches_numpy_linear():
    rng = random.Random(3)
    data = [rng.random() for _ in range(57)]
    for p in (0, 10, 50, 75, 90, 99, 100):
        assert stats.percentile(data, p) == pytest.approx(np.percentile(data, p))
    assert stats.median(data) == pytest.approx(statistics.median(data))


def test_harrell_davis_estimates_percentiles():
    rng = np.random.default_rng(4)
    data = rng.standard_normal(2001)
    assert stats.harrell_davis(data, 50) == pytest.approx(np.median(data), abs=0.02)
    assert stats.harrell_davis(data, 90) == pytest.approx(np.percentile(data, 90), abs=0.05)
    assert stats.harrell_davis([3.0, 1.0, 2.0], 50) == pytest.approx(2.0)
    assert stats.harrell_davis([5.0], 90) == 5.0
    # weights sum to one, so a constant sample is returned unchanged
    assert stats.harrell_davis([0.25] * 17, 75) == pytest.approx(0.25)
    # two kinds of operation: the estimate moves smoothly with their mix
    mix = [1.0] * 50 + [2.0] * 51
    assert 1.0 < stats.harrell_davis(mix, 50) < 2.0


def test_tail_needs_ten_samples_beyond():
    assert stats.samples_beyond(100, 90) == 10
    assert stats.supports(100, 90) and not stats.supports(99, 90)
    assert stats.supports(40, 75) and not stats.supports(39, 75)
    assert stats.samples_beyond(1000, 99) == 10 and stats.supports(1000, 99)


def test_every_round_supports_its_tail_after_the_minimum_count():
    for cls, per_round in ((workloads.Catalog, 80), (workloads.HighDim, 8),
                           (workloads.CliFiles, 24)):
        rounds = 1
        while not stats.supports(rounds * per_round, cls.tail_percentile):
            rounds += 1
        assert rounds <= 5, cls.name


# -- generated inputs ------------------------------------------------------------

def _describe(ops):
    return [(op.config, op.label, op.N) for op in ops]


@pytest.mark.parametrize("cls", [workloads.Catalog, workloads.HighDim])
def test_same_seed_same_inputs(cls, tmp_path):
    a, b, c = (cls(seed, str(tmp_path)) for seed in (7, 7, 8))
    rounds_a = [_describe(a.next_round()) for _ in range(3)]
    rounds_b = [_describe(b.next_round()) for _ in range(3)]
    rounds_c = [_describe(c.next_round()) for _ in range(3)]
    assert rounds_a == rounds_b
    assert rounds_a != rounds_c
    # a round holds every configuration at every degree, whatever the seed
    assert sorted(rounds_a[0]) != [] and len(rounds_a[0]) == len(rounds_c[0])


def test_catalog_round_covers_the_ladder():
    ops = workloads.Catalog(1, "").next_round()
    assert len(ops) == 16 * len(workloads.LADDER)
    for config in {op.config for op in ops}:
        assert sorted(op.N for op in ops if op.config == config) == list(workloads.LADDER)


def test_cheb_expectation_table():
    assert all(workloads.cheb_orthogonal(2, r) for r in workloads.CHEB_RHOS)
    assert not any(workloads.cheb_orthogonal(1, r) for r in workloads.CHEB_RHOS)
    assert not workloads.cheb_orthogonal(3, 1.0) and workloads.cheb_orthogonal(3, -1.0)
    assert not workloads.cheb_orthogonal(4, -1.0) and workloads.cheb_orthogonal(4, 1.0)
    assert workloads.cheb_orthogonal(1, 0.0)


@pytest.fixture(scope="module")
def small_envelopes():
    v = moments.cube_jacobi_functional((0.5, 0.0), (0.0, 0.5))
    u = moments.cube_jacobi_functional((1.5, 0.0), (0.0, 0.5))
    Q, _ = construct.gram_schmidt_monic(v, 4)
    P, HP = construct.gram_schmidt_monic(u, 4)
    from mvops import linrel
    rel = linrel.compute_relation(Q, P, u, HP)
    return {"ttr": serialize.ttr_to_json(ttr.compute_ttr(P, u, HP)),
            "rel": serialize.relation_to_json(rel),
            "sys": serialize.system_to_json(Q)}


def test_corruptions_repeat_for_a_seed(small_envelopes):
    for fn, key in ((workloads.corrupt_nan, "ttr"), (workloads.corrupt_shape, "rel"),
                    (workloads.corrupt_truncate, "sys")):
        first = fn(small_envelopes[key], random.Random("fixtures-5"))
        again = fn(small_envelopes[key], random.Random("fixtures-5"))
        assert first == again


def test_corrupt_nan_puts_one_nan_in_a_b_block(small_envelopes):
    text = workloads.corrupt_nan(small_envelopes["ttr"], random.Random(1))
    assert text.count("nan") == 1
    T = serialize.ttr_from_json(text)
    nans = sum(int(np.isnan(m).sum()) for row in T.B for m in row)
    assert nans == 1
    assert all(np.isfinite(m).all() for row in T.A for m in row)


@pytest.mark.parametrize("seed", range(6))
def test_corrupt_shape_breaks_exactly_one_m_block(small_envelopes, seed):
    good = serialize.relation_from_json(small_envelopes["rel"])
    bad = serialize.relation_from_json(
        workloads.corrupt_shape(small_envelopes["rel"], random.Random(seed)))
    changed = [n for n in good.available() if bad.m(n).shape != good.m(n).shape]
    assert len(changed) == 1
    rows, cols = good.m(changed[0]).shape
    assert bad.m(changed[0]).shape in ((rows, cols + 1), (rows, cols - 1))


def test_corrupt_truncate_is_an_unparseable_prefix(small_envelopes):
    text = small_envelopes["sys"]
    cut = workloads.corrupt_truncate(text, random.Random(3))
    assert 0.45 * len(text) <= len(cut) <= 0.55 * len(text) and text.startswith(cut)
    with pytest.raises(json.JSONDecodeError):
        json.loads(cut)


# -- reference and metric reductions ----------------------------------------------

def test_reference_order_matches_the_library():
    from mvops.indexing import enumerate_indices
    for d in (1, 2, 3, 4):
        for n in range(6):
            assert reference.graded_indices(d, n) == enumerate_indices(d, n)


def test_reference_is_stable_in_precision_and_agrees_at_low_degree():
    for kind, params in (("jacobi", (0.5, 0.0)), ("laguerre", (1.0,))):
        lo = reference.axis_table(kind, params, 12)
        hi = reference.axis_table(kind, params, 12, dps=80)
        assert np.array_equal(lo, hi)
    ref = reference.TensorReference([("jacobi", (0.5, 0.0)), ("jacobi", (0.0, 0.5))], 5)
    P, _ = construct.gram_schmidt_monic(
        moments.cube_jacobi_functional((0.5, 0.0), (0.0, 0.5)), 5)
    assert max(ref.degree_errors(P.blocks)) < 1e-12


class _R:
    def __init__(self, N, right, margins=(), graded=True, coef=None):
        self.op = workloads.Op("c", N, None, None, graded=graded)
        self.outcome = workloads.Outcome(right, margins=list(margins), coef_err=coef)
        self.seconds = 1.0


def test_trusted_degree_is_the_last_all_right_degree():
    res = [_R(4, True), _R(6, True), _R(6, True), _R(8, False), _R(10, True)]
    assert run.trusted_degree(res) == 6
    assert run.trusted_degree(res + [_R(4, False, graded=False)]) == 6
    assert run.trusted_degree([_R(4, False)]) == 0


def test_headroom_is_median_of_per_operation_worst():
    res = [_R(4, True, [(1e-10, 1e-8), (1e-9, 1e-8)]),   # worst 1 decade
           _R(4, True, [(1e-12, 1e-8)]),                   # 4 decades
           _R(4, True, [(1e-11, 1e-8), (0.0, 1e-8)]),      # 3 decades
           _R(4, False, [(1.0, 1e-8)])]                    # wrong: not counted
    assert run.headroom_decades(res) == pytest.approx(3.0)
    assert run.worst_margin_log10(res) == pytest.approx(8.0)
    assert run.worst_margin_log10([_R(4, True, [(math.nan, 1e-8)])]) == math.inf


def test_tracer_patches_names_where_callers_look_them_up():
    from mvops import linrel
    before = (ttr.pair_blocks, linrel.inner_block, construct.pair_blocks)
    tr = tracing.Tracer()
    tr.install()
    try:
        assert ttr.pair_blocks is not before[0]
        assert linrel.inner_block is not before[1]
        workloads.clear_basis_cache()   # reaches the cache beneath the wrapper
        v = moments.cube_jacobi_functional((0.0, 0.0), (0.0, 0.0))
        idx = tr.begin_op(0)
        P, H = construct.gram_schmidt_monic(v, 3)
        ttr.compute_ttr(P, v, H)
        tr.end_op(idx)
    finally:
        tr.uninstall()
    assert (ttr.pair_blocks, linrel.inner_block, construct.pair_blocks) == before
    table = tr.layer_table(1)
    assert table["construct.pair_calls"] > 0
    assert table["moments.calls"] >= table["moments.distinct"] > 0
    assert table["construct.gram_schmidt_s"] > 0 and table["ttr.compute_s"] > 0
    total = sum(table[f"{owner}.self_s"] for owner in tracing.OWNERS)
    op_span = [i for i, n in enumerate(tr.name_col) if tr.names[n] == tracing.OP_SPAN][0]
    assert total == pytest.approx(tr.ends[op_span] - tr.starts[op_span])
