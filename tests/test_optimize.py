"""Tests for the search-based layout optimizer (co-access graph + search).

The property suite pins the guarantees docs/optimizer.md promises:

* the co-access builder is permutation-invariant over its input traces;
* the chain-merge objective is superadditive under concatenation (merging
  two chains never loses locality credit), so greedy merging is monotone;
* the incremental, integer-scored chain merge picks exactly the merges of
  the exhaustive ``Fraction`` rescan it replaced (kept here as the oracle);
* same inputs => identical order => byte-identical built layout;
* the search's layouts are pinned across commits (Json, Queens and
  Richards at base seed 1);
* the executor records the same ``.text`` touches in every layout of one
  build, so the search's costs equal the measured faults of the built
  ``cu`` and ``cu-opt`` binaries;
* end to end, the optimizer never loses to its seed strategy on measured
  ``.text`` faults, and its predicted cost equals the measured count.
"""

import doctest
import random as stdlib_random
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

import repro.ordering.profiles as profiles_module
from repro.eval.pipeline import (
    STRATEGY_CU,
    STRATEGY_CU_OPT,
    STRATEGY_METHOD,
    WorkloadPipeline,
)
from repro.eval.scheduler import task_seed
from repro.image.sections import TEXT_SECTION
from repro.ordering.coaccess import (
    CoAccessGraph,
    build_coaccess_graph,
    first_touch_ranks,
    layout_objective,
)
from repro.ordering.optimize import (
    chain_merge_order,
    code_problem,
    optimize_workload,
    search_order,
    synthesize_optimizer_profiles,
)
from repro.runtime.executor import ExecutionConfig, run_binary, text_touches
from repro.workloads import awfy_workload, microservice_workload

import pytest

UNIT_NAMES = [f"u{i}" for i in range(8)]

# a trace is a touch sequence over a small unit alphabet plus a weight
trace_st = st.tuples(
    st.lists(st.sampled_from(UNIT_NAMES), min_size=0, max_size=10),
    st.integers(min_value=0, max_value=4),
)


# ---------------------------------------------------------------------------
# co-access graph properties
# ---------------------------------------------------------------------------


@given(traces=st.lists(trace_st, max_size=8), seed=st.integers(0, 2**16))
def test_coaccess_builder_permutation_invariant(traces, seed):
    """The graph depends only on the multiset of traces, not their order."""
    graph = build_coaccess_graph(traces)
    shuffled = list(traces)
    stdlib_random.Random(seed).shuffle(shuffled)
    regraph = build_coaccess_graph(shuffled)
    assert graph.weights == regraph.weights
    assert graph.nodes == regraph.nodes


@given(traces=st.lists(trace_st, max_size=8))
def test_coaccess_weights_symmetric_and_positive(traces):
    graph = build_coaccess_graph(traces)
    for (u, v), weight in graph.weights.items():
        assert u < v  # canonical sorted-pair key, no self edges
        assert weight > 0
        assert graph.weight(u, v) == graph.weight(v, u) == weight


def test_coaccess_rejects_bad_inputs():
    with pytest.raises(ValueError):
        build_coaccess_graph([], window=0)
    with pytest.raises(ValueError):
        build_coaccess_graph([(["a", "b"], -1.0)])


def test_first_touch_ranks_collapses_repeats():
    assert first_touch_ranks(["a", "b", "a", "c", "b"]) == {
        "a": 0, "b": 1, "c": 2,
    }


@given(traces=st.lists(trace_st, min_size=1, max_size=6),
       split=st.integers(1, 7))
def test_objective_superadditive_under_concatenation(traces, split):
    """objective(A ++ B) >= objective(A) + objective(B) for disjoint A, B.

    Concatenation preserves every intra-chain gap and can only add
    non-negative cross terms — the monotonicity that makes greedy chain
    merging sound (each accepted merge has positive junction gain, and no
    merge can destroy credit already earned).
    """
    graph = build_coaccess_graph(traces)
    left = UNIT_NAMES[:split]
    right = UNIT_NAMES[split:]
    combined = layout_objective(graph, left + right)
    assert combined >= layout_objective(graph, left) + layout_objective(
        graph, right)


@given(traces=st.lists(trace_st, min_size=1, max_size=6))
def test_chain_merge_never_loses_to_first_touch_order(traces):
    """Greedy merging only accepts positive-gain junctions, so the merged
    order's locality objective is >= the first-touch singleton order's."""
    graph = build_coaccess_graph(traces)
    hot = [name for name in UNIT_NAMES if name in graph.nodes]
    if not hot:
        return
    merged = chain_merge_order(graph, hot, graph.window)
    assert sorted(merged) == sorted(hot)  # a permutation, nothing dropped
    assert layout_objective(graph, merged) >= layout_objective(graph, hot)


# ---------------------------------------------------------------------------
# chain merging against the exhaustive rescan it replaced
# ---------------------------------------------------------------------------


def _oracle_chain_merge_order(graph, hot, window=0):
    """The O(n^3) chain merge that rescans every chain pair's junction
    gain in ``Fraction`` arithmetic after each merge: the reference the
    incremental, integer-scored merge must equal exactly."""
    window = window or graph.window
    chains = [[name] for name in hot]
    rank = {name: index for index, name in enumerate(hot)}
    while len(chains) > 1:
        best_gain = Fraction(0)
        best_pair = None
        for i, left in enumerate(chains):
            for j, right in enumerate(chains):
                if i == j:
                    continue
                gain = _oracle_junction_gain(graph, left, right, window)
                if gain > best_gain or (
                    gain == best_gain and best_pair is not None and gain > 0
                    and (chains[best_pair[0]][0], chains[best_pair[1]][0])
                    > (left[0], right[0])
                ):
                    best_gain = gain
                    best_pair = (i, j)
        if best_pair is None or best_gain <= 0:
            break
        i, j = best_pair
        merged = chains[i] + chains[j]
        chains = [chain for index, chain in enumerate(chains)
                  if index not in (i, j)]
        chains.append(merged)
    chains.sort(key=lambda chain: min(rank[name] for name in chain))
    merged = [name for chain in chains for name in chain]
    if (layout_objective(graph, merged, window)
            < layout_objective(graph, hot, window)):
        return list(hot)
    return merged


def _oracle_junction_gain(graph, left, right, window):
    gain = Fraction(0)
    for p in range(min(window - 1, len(left))):
        u = left[-1 - p]
        for q in range(len(right)):
            gap = p + q + 1
            if gap >= window:
                break
            weight = graph.weight(u, right[q])
            if weight:
                gain += weight * Fraction(window - gap, window)
    return gain


MERGE_UNITS = [f"m{i:02d}" for i in range(14)]

weighted_trace_st = st.tuples(
    st.lists(st.sampled_from(MERGE_UNITS), min_size=0, max_size=14),
    st.one_of(st.integers(min_value=0, max_value=6),
              st.floats(min_value=0, max_value=6, allow_nan=False,
                        allow_infinity=False)),
)


@settings(max_examples=300, deadline=None)
@given(traces=st.lists(weighted_trace_st, min_size=1, max_size=8),
       graph_window=st.integers(1, 10), merge_window=st.integers(0, 10),
       data=st.data())
def test_chain_merge_equals_the_exhaustive_rescan(traces, graph_window,
                                                   merge_window, data):
    """Same order as the rescanning ``Fraction`` merge, on any graph,
    window and first-touch order (a window of 0 means the graph's)."""
    graph = build_coaccess_graph(traces, window=graph_window)
    hot = data.draw(st.permutations(sorted(graph.nodes)))
    assert (chain_merge_order(graph, hot, merge_window)
            == _oracle_chain_merge_order(graph, hot, merge_window))


@pytest.mark.parametrize("name", ["Json", "Queens", "Richards", "spring"])
def test_chain_merge_equals_the_exhaustive_rescan_on_programs(name):
    """The same on the search instances of real programs (spring has the
    most hot units of the 17)."""
    workload = (microservice_workload(name) if name == "spring"
                else awfy_workload(name))
    pipeline = WorkloadPipeline(workload)
    seed = task_seed(1, name)
    bundle = pipeline.profile(seed=seed).profiles
    reference = pipeline.build_optimized(bundle, None, seed=seed)
    problem = code_problem(reference,
                           run_binary(reference, pipeline.exec_config),
                           bundle, pipeline.exec_config)
    assert (chain_merge_order(problem.graph, problem.hot)
            == _oracle_chain_merge_order(problem.graph, problem.hot))


# ---------------------------------------------------------------------------
# end-to-end on a real workload (Queens)
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def queens_reference():
    """Shared reference build + profiles for the search-level tests."""
    pipeline = WorkloadPipeline(awfy_workload("Queens"))
    outcome = pipeline.profile(seed=0)
    reference = pipeline.build_optimized(outcome.profiles, None, seed=0)
    return pipeline, reference, outcome.profiles


def test_search_is_seed_deterministic(queens_reference):
    """Same reference build and profiles => identical order and costs,
    call after call."""
    pipeline, reference, bundle = queens_reference
    first = search_order(code_problem(
        reference, run_binary(reference, pipeline.exec_config), bundle,
        pipeline.exec_config))
    second = search_order(code_problem(
        reference, run_binary(reference, pipeline.exec_config), bundle,
        pipeline.exec_config))
    assert first.order == second.order
    assert first.costs == second.costs
    assert first.best_name == second.best_name


def test_synthesize_is_idempotent_and_pure(queens_reference):
    pipeline, reference, bundle = queens_reference
    run = run_binary(reference, pipeline.exec_config)
    augmented, result = synthesize_optimizer_profiles(
        reference, run, bundle, pipeline.exec_config)
    assert "cu-opt" not in bundle.code  # input bundle untouched
    assert augmented.code["cu-opt"].signatures == result.order
    again, searched = synthesize_optimizer_profiles(
        reference, run, augmented, pipeline.exec_config)
    assert again.digest() == augmented.digest()
    assert searched is None


def test_problem_costs_match_built_binaries():
    """The executor touches the same CU-relative ``.text`` ranges in the
    reference, ``cu``, ``method`` and ``cu-opt`` builds, so the search's
    seed cost and winning cost are the measured ``.text`` faults of the
    built ``cu`` and ``cu-opt`` binaries (at first response for a
    microservice)."""
    for workload in (awfy_workload("Queens"),
                     microservice_workload("micronaut")):
        seed = task_seed(1, workload.name)
        pipeline = WorkloadPipeline(workload)
        bundle = pipeline.profile(seed=seed).profiles
        reference = pipeline.build_optimized(bundle, None, seed=seed)
        run = run_binary(reference, pipeline.exec_config)
        problem = code_problem(reference, run, bundle, pipeline.exec_config)
        result = search_order(problem)
        stream = text_touches(reference, run)
        assert list(problem.model.touches) == stream
        built = {spec.name: pipeline.build_optimized(bundle, spec, seed=seed)
                 for spec in (STRATEGY_CU, STRATEGY_METHOD, STRATEGY_CU_OPT)}
        for name, binary in built.items():
            run = run_binary(binary, pipeline.exec_config)
            assert text_touches(binary, run) == stream, (workload.name, name)
        assert [placed.cu.name for placed in built["cu-opt"].text.placed] \
            == result.order
        measured = {
            name: pipeline.measure(built[name], seed=seed)[0]
            .faults_at_response(TEXT_SECTION)
            for name in ("cu", "cu-opt")
        }
        assert (result.seed_cost, result.best_cost) == (
            measured["cu"], measured["cu-opt"]), workload.name


@pytest.mark.parametrize("name,improved", [("Queens", False),
                                           ("Json", True)],
                         ids=["Queens", "Json"])
def test_optimize_workload_never_worse_and_exact(name, improved):
    """The acceptance gate on one workload: never-worse, verified,
    differential-clean, and predicted == measured.  At base seed 1 the
    search ties ``cu`` on Queens and beats it on Json."""
    pipeline = WorkloadPipeline(awfy_workload(name))
    report = optimize_workload(pipeline, seed=task_seed(1, name))
    assert report.ok
    [section] = report.sections
    assert (section.section, section.strategy) == ("code", "cu-opt")
    assert not section.skipped
    assert section.optimized_faults <= section.seed_faults
    assert section.predicted_faults == section.optimized_faults
    assert section.verified
    assert section.differential_ok
    assert section.improved == improved
    assert section.best_optimizer == ("greedy" if improved else "seed")
    assert set(section.optimizer_costs) == {"seed", "greedy"}


def test_same_seed_builds_byte_identical_layout():
    """Determinism guarantee: same inputs => same layout digest."""
    digests = []
    for _ in range(2):
        pipeline = WorkloadPipeline(awfy_workload("Queens"))
        outcome = pipeline.profile(seed=0)
        binary = pipeline.build_optimized(
            outcome.profiles, STRATEGY_CU_OPT, seed=0)
        digests.append(binary.layout_digest())
    assert digests[0] == digests[1]


#: ``layout_digest()`` of the cu-opt build at ``task_seed(1, name)``; a
#: search change that is meant to keep outcomes byte-identical must keep
#: these.  Queens and Richards tie ``cu``, so their cu-opt layouts are
#: the ``cu`` layouts; Json's is the greedy order that beats ``cu``.
PINNED_CU_OPT_DIGESTS = {
    "Json": 11622194817698884894,
    "Queens": 2513782882023306474,
    "Richards": 7820411314722546093,
}


@pytest.mark.parametrize("name", sorted(PINNED_CU_OPT_DIGESTS))
def test_default_search_layout_is_pinned(name):
    seed = task_seed(1, name)
    pipeline = WorkloadPipeline(awfy_workload(name))
    bundle = pipeline.profile(seed=seed).profiles
    binary = pipeline.build_optimized(bundle, STRATEGY_CU_OPT, seed=seed)
    assert binary.layout_digest() == PINNED_CU_OPT_DIGESTS[name]


def test_optimizer_strategies_flow_through_warm_cache(tmp_path):
    """cu-opt keeps the warm 100%-hit-rate invariant: its images key on
    the seed profiles, so the second sweep of the same cell is served
    entirely from the cache without loading an image or running any
    pipeline phase (no reference build, no search)."""
    from repro.cache import ArtifactCache
    from repro.obs import get_registry

    pipeline = WorkloadPipeline(awfy_workload("Queens"),
                                cache=ArtifactCache(tmp_path))
    pipeline.run_strategy(STRATEGY_CU_OPT, seed=3)
    warm = WorkloadPipeline(awfy_workload("Queens"),
                            cache=ArtifactCache(tmp_path))
    before = get_registry().snapshot()
    cached = warm.cached_strategy_runs(STRATEGY_CU_OPT, seed=3)
    assert cached is not None
    counters = get_registry().snapshot().diff(before).counters
    assert not [name for name in counters if name.startswith("cache.miss.")]
    assert not [name for name in counters if name.startswith("phase.")]
    assert "cache.hit.image" not in counters
    baseline_runs, optimized_runs = cached
    assert baseline_runs and optimized_runs


def test_optimizer_image_keys_on_search_inputs(tmp_path):
    """A second pipeline with equal inputs lays its cu-opt build out from
    the search the first one stored with the build's report: a
    byte-identical layout digest, no reference build and no search.  A
    different execution config, which the touches are recorded under,
    keys another report and searches again."""
    from repro.cache import ArtifactCache
    from repro.obs import get_registry

    def build(config):
        pipeline = WorkloadPipeline(awfy_workload("Queens"),
                                    cache=ArtifactCache(tmp_path),
                                    exec_config=config)
        bundle = pipeline.profile(seed=0).profiles
        before = get_registry().snapshot()
        binary = pipeline.build_optimized(bundle, STRATEGY_CU_OPT, seed=0)
        counters = get_registry().snapshot().diff(before).counters
        return (binary, pipeline.last_search, counters.get("phase.build", 0),
                counters.get("phase.optimize", 0))

    cold, search, builds, searches = build(ExecutionConfig())
    assert (builds, searches) == (2, 1)  # reference build + cu-opt
    warm, stored, builds, searches = build(ExecutionConfig())
    assert (builds, searches) == (1, 0)
    assert warm.layout_digest() == cold.layout_digest()
    assert stored == search
    _binary, _search, builds, searches = build(ExecutionConfig(quantum=300))
    assert (builds, searches) == (2, 1)

def test_cold_cu_opt_cell_writes_one_report(tmp_path):
    """Only the cell's own build stores a report: the search's
    default-layout reference build, which no cell reads back, stores
    none."""
    from repro.cache import KIND_REPORT, ArtifactCache
    from repro.obs import get_registry

    cache = ArtifactCache(tmp_path)
    pipeline = WorkloadPipeline(awfy_workload("Queens"), cache=cache)
    before = get_registry().snapshot()
    pipeline.run_strategy(STRATEGY_CU_OPT, seed=3)
    counters = get_registry().snapshot().diff(before).counters
    assert counters.get("phase.optimize", 0) == 1
    assert counters[f"cache.put.{KIND_REPORT}"] == 1
    assert [meta["note"] for _key, meta in cache.entries(KIND_REPORT)] \
        == ["Queens optimized (cu-opt)"]


def test_optimize_command_cache_holds_no_default_report(tmp_path, capsys):
    from repro.cache import KIND_REPORT, ArtifactCache
    from repro.cli import main

    cache_dir = tmp_path / "cache"
    assert main(["optimize", "Json", "--seed", "1", "--json",
                 "--cache-dir", str(cache_dir)]) == 0
    capsys.readouterr()
    notes = sorted(meta["note"] for _key, meta
                   in ArtifactCache(cache_dir).entries(KIND_REPORT))
    assert notes == ["Json optimized (cu)", "Json optimized (cu-opt)"]



# ---------------------------------------------------------------------------
# satellite: the profiles.py doctest (pytest does not auto-collect doctests)
# ---------------------------------------------------------------------------


def test_profiles_doctests():
    results = doctest.testmod(profiles_module)
    assert results.attempted > 0
    assert results.failed == 0
