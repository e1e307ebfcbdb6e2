"""Tests for the continuous-PGO loop (:mod:`repro.pgo`).

Covers the weighted-merge algebra (hypothesis properties: input-order
invariance, weight-scale invariance, N=1 identity), merge input hardening,
the versioned profile store, drift detection against a real deployed
layout, the canary-gated refresh/rollback loop end to end, stale-profile
chaos recovery, and the CLI / bench gate surfaces.
"""

from __future__ import annotations

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.eval.pipeline import (
    STRATEGY_COMBINED,
    STRATEGY_CU,
    STRATEGY_HEAP_PATH,
    WorkloadPipeline,
)
from repro.ordering import OrderingError
from repro.ordering.profiles import (
    CallCountProfile,
    CodeOrderProfile,
    HeapOrderProfile,
    ProfileBundle,
    merge_bundles,
    merge_code_profiles,
)
from repro.pgo import (
    DriftScenario,
    DriftThresholds,
    PgoLoop,
    ProfileProvenance,
    ProfileStore,
    TraceSource,
    WeightedProfile,
    coalesce_mix,
    detect_drift,
    expected_faults,
    merge_mix,
    rank_distance,
    relevant_faults,
    replay_faults,
    run_scenario,
    synthesize_variants,
)
from repro.pgo.scenario import population
from repro.robustness.chaos import CHAOS_STALE_PROFILE, ChaosPolicy
from repro.validation.mutate import MUTATE_SWAP_CU_OFFSETS, LayoutMutationPlan
from repro.workloads import awfy_workload


def _queens() -> WorkloadPipeline:
    return WorkloadPipeline(awfy_workload("Queens"))


def _unbootstrapped_outcome(action, candidate_faults, digest, after,
                            failures=(), quarantined=None):
    return {
        "epoch": 0, "action": action, "drift": None,
        "deployed_version_before": None, "deployed_version_after": 1,
        "candidate_version": 1, "candidate_layout_digest": digest,
        "candidate_faults": candidate_faults,
        "deployed_faults_before": None, "deployed_faults_after": after,
        "gate_failures": list(failures), "blamed": [],
        "quarantined": quarantined, "stale_served": False,
        "unguarded_regression": False, "notes": [],
    }


#: ``observe()`` before any ``bootstrap()`` on Queens (seed 7, cu+heap
#: path, uncached), by injected candidate mutation: a clean candidate is
#: gated and deployed; a damaged one is quarantined and, with no deployed
#: layout to retain, the default layout ships instead
UNBOOTSTRAPPED_OUTCOMES = {
    None: _unbootstrapped_outcome("refresh", 10.0, 7709628254651140161,
                                  10.0),
    MUTATE_SWAP_CU_OFFSETS: _unbootstrapped_outcome(
        "default-layout", None, 2371712510015175430, 20.0,
        failures=["structural verification failed (text.cu.overlap)"],
        quarantined="cu+heap path@v1"),
}


def _bundle(signatures, ids=(), counts=None) -> ProfileBundle:
    bundle = ProfileBundle()
    bundle.code["cu"] = CodeOrderProfile(kind="cu",
                                         signatures=tuple(signatures))
    if ids:
        bundle.heap["heap_path"] = HeapOrderProfile(strategy="heap_path",
                                                    ids=tuple(ids))
    bundle.calls = CallCountProfile(counts=dict(counts or {"m": 1}))
    return bundle


def _provenance(epoch=0, workload="w") -> ProfileProvenance:
    return ProfileProvenance(
        workload=workload, epoch=epoch,
        sources=(TraceSource(label="t", weight=1.0, digest="d"),),
    )


# ---------------------------------------------------------------------------
# Weighted-merge algebra (hypothesis)
# ---------------------------------------------------------------------------

_SIGS = [f"s{i}" for i in range(10)]

_profile_entry = st.tuples(
    st.lists(st.sampled_from(_SIGS), unique=True, min_size=1, max_size=6),
    st.integers(min_value=1, max_value=9),
)


class TestMergeProperties:
    @given(pairs=st.lists(_profile_entry, min_size=1, max_size=5),
           data=st.data())
    @settings(max_examples=50, deadline=None)
    def test_input_order_invariant(self, pairs, data):
        shuffled = data.draw(st.permutations(pairs))
        merge = lambda ps: merge_code_profiles(
            [CodeOrderProfile(kind="cu", signatures=tuple(sigs))
             for sigs, _ in ps],
            [weight for _, weight in ps],
            dedup=False,
        )
        assert merge(pairs).signatures == merge(shuffled).signatures

    @given(pairs=st.lists(_profile_entry, min_size=1, max_size=5),
           scale=st.integers(min_value=2, max_value=7))
    @settings(max_examples=50, deadline=None)
    def test_weight_scale_invariant(self, pairs, scale):
        profiles = [CodeOrderProfile(kind="cu", signatures=tuple(sigs))
                    for sigs, _ in pairs]
        weights = [weight for _, weight in pairs]
        plain = merge_code_profiles(profiles, weights, dedup=False)
        scaled = merge_code_profiles(profiles,
                                     [w * scale for w in weights],
                                     dedup=False)
        assert plain.signatures == scaled.signatures

    @given(entry=_profile_entry)
    @settings(max_examples=50, deadline=None)
    def test_single_profile_identity(self, entry):
        sigs, weight = entry
        profile = CodeOrderProfile(kind="cu", signatures=tuple(sigs))
        merged = merge_code_profiles([profile], [weight])
        assert tuple(merged.signatures) == tuple(sigs)


class TestMergeHardening:
    def test_empty_input_set_rejected(self):
        with pytest.raises(OrderingError):
            merge_code_profiles([], [])

    def test_all_zero_weights_rejected(self):
        profiles = [CodeOrderProfile(kind="cu", signatures=("a",)),
                    CodeOrderProfile(kind="cu", signatures=("b",))]
        with pytest.raises(OrderingError, match="zero"):
            merge_code_profiles(profiles, [0.0, 0.0])

    def test_negative_weight_rejected(self):
        profiles = [CodeOrderProfile(kind="cu", signatures=("a",))]
        with pytest.raises(OrderingError, match="negative"):
            merge_code_profiles(profiles, [-1.0])

    def test_weight_count_mismatch_rejected(self):
        profiles = [CodeOrderProfile(kind="cu", signatures=("a",))]
        with pytest.raises(OrderingError):
            merge_code_profiles(profiles, [1.0, 2.0])

    def test_duplicate_traces_rejected(self):
        profile = CodeOrderProfile(kind="cu", signatures=("a", "b"))
        with pytest.raises(OrderingError, match="double-vote"):
            merge_code_profiles([profile, profile], [1.0, 1.0])

    def test_duplicate_bundles_rejected(self):
        bundle = _bundle(["a", "b"])
        with pytest.raises(OrderingError, match="double-vote"):
            merge_bundles([bundle, bundle], [1.0, 1.0])

    def test_distinct_bundles_may_share_call_counts(self):
        # bundle-granularity dedup only: two genuinely different traffic
        # variants legitimately carry identical call-count components
        left = _bundle(["a", "b"], counts={"m": 3})
        right = _bundle(["b", "a"], counts={"m": 3})
        merged = merge_bundles([left, right], [1.0, 1.0])
        assert merged.calls.counts == {"m": 3}

    def test_mixed_kinds_rejected(self):
        profiles = [CodeOrderProfile(kind="cu", signatures=("a",)),
                    CodeOrderProfile(kind="method", signatures=("b",))]
        with pytest.raises(OrderingError):
            merge_code_profiles(profiles, [1.0, 1.0])


class TestIngest:
    def test_coalesce_folds_identical_content(self):
        bundle = _bundle(["a", "b"])
        mix = [WeightedProfile(label="x", weight=1.0, bundle=bundle),
               WeightedProfile(label="y", weight=2.0, bundle=bundle)]
        folded = coalesce_mix(mix)
        assert len(folded) == 1
        assert folded[0].weight == 3.0
        assert "x" in folded[0].label and "y" in folded[0].label

    def test_merge_mix_empty_rejected(self):
        with pytest.raises(OrderingError):
            merge_mix([], workload="w", epoch=0)

    def test_merge_mix_returns_provenance(self):
        mix = [WeightedProfile(label="t", weight=1.0,
                               bundle=_bundle(["a", "b"]))]
        bundle, provenance = merge_mix(mix, workload="w", epoch=3)
        assert tuple(bundle.code_profile("cu").signatures) == ("a", "b")
        assert provenance.epoch == 3
        assert provenance.sources[0].label == "t"


# ---------------------------------------------------------------------------
# Profile lifecycle
# ---------------------------------------------------------------------------


class TestProfileStore:
    def test_publish_versions_monotonically(self):
        store = ProfileStore("w")
        v1 = store.publish(_bundle(["a"]), _provenance(epoch=0))
        v2 = store.publish(_bundle(["b"]), _provenance(epoch=1))
        assert (v1.version, v2.version) == (1, 2)
        assert store.latest().version == 2
        assert store.version(1).bundle.digest() == v1.digest

    def test_workload_mismatch_rejected(self):
        store = ProfileStore("w")
        with pytest.raises(OrderingError):
            store.publish(_bundle(["a"]), _provenance(workload="other"))

    def test_deploy_pointer_and_age(self):
        store = ProfileStore("w")
        store.publish(_bundle(["a"]), _provenance(epoch=0))
        store.deploy(1)
        assert store.deployed().version == 1
        assert store.age(epoch=4) == 4

    def test_save_load_roundtrip(self, tmp_path):
        store = ProfileStore("w")
        store.publish(_bundle(["a", "b"], ids=[1, 2]), _provenance(epoch=0))
        store.publish(_bundle(["b", "a"], ids=[2, 1]), _provenance(epoch=2))
        store.deploy(2)
        store.save(tmp_path)
        loaded = ProfileStore.load(tmp_path)
        assert len(loaded) == 2
        assert loaded.deployed().version == 2
        for version in (1, 2):
            assert (loaded.version(version).bundle.digest()
                    == store.version(version).bundle.digest())
        assert loaded.version(2).provenance.epoch == 2


# ---------------------------------------------------------------------------
# Drift detection on a real deployed layout
# ---------------------------------------------------------------------------


class TestDrift:
    @pytest.fixture(scope="class")
    def deployed(self):
        pipeline = _queens()
        profiled = pipeline.profile(seed=1)
        binary = pipeline.build_optimized(profiled.profiles, STRATEGY_COMBINED,
                                          seed=1)
        return pipeline, profiled.profiles, binary

    def test_replay_matches_measured_run(self, deployed):
        pipeline, profiles, binary = deployed
        counts = replay_faults(binary, profiles, STRATEGY_COMBINED,
                               pipeline.exec_config)
        measured = pipeline.measure(binary, iterations=1, seed=1)[0]
        assert counts[".text"] == measured.text_faults
        assert counts[".svm_heap"] == measured.heap_faults

    def test_identical_profile_is_fresh(self, deployed):
        pipeline, profiles, binary = deployed
        baseline = relevant_faults(
            replay_faults(binary, profiles, STRATEGY_COMBINED,
                          pipeline.exec_config),
            STRATEGY_COMBINED)
        report = detect_drift(
            workload="Queens", spec=STRATEGY_COMBINED,
            deployed_profile=profiles, deployed_binary=binary,
            live_bundle=profiles, live_mix=[(profiles, 1.0)],
            epoch=1, deployed_version=1, baseline_faults=float(baseline),
        )
        assert not report.drifted
        assert report.rank_distance == 0.0
        assert report.fault_regression == 0.0

    def test_shifted_traffic_is_drifted(self, deployed):
        pipeline, profiles, binary = deployed
        universe = population(pipeline.build_baseline(seed=1))
        shifted = synthesize_variants(profiles, count=2, seed=7,
                                      universe=universe)[1].bundle
        score, components = rank_distance(profiles, shifted,
                                          STRATEGY_COMBINED)
        assert 0.0 < score <= 1.0
        assert set(components) == {"code:cu", "heap:heap_path"}
        report = detect_drift(
            workload="Queens", spec=STRATEGY_COMBINED,
            deployed_profile=profiles, deployed_binary=binary,
            live_bundle=shifted, live_mix=[(shifted, 1.0)],
            epoch=1, deployed_version=1, baseline_faults=1.0,
        )
        assert report.drifted
        assert report.reasons

    def test_component_scope_follows_strategy(self, deployed):
        _, profiles, _ = deployed
        _, code_only = rank_distance(profiles, profiles, STRATEGY_CU)
        _, heap_only = rank_distance(profiles, profiles, STRATEGY_HEAP_PATH)
        assert set(code_only) == {"code:cu"}
        assert set(heap_only) == {"heap:heap_path"}

    def test_expected_faults_ignores_zero_weights(self, deployed):
        pipeline, profiles, binary = deployed
        lone = expected_faults(binary, [(profiles, 1.0)], STRATEGY_COMBINED,
                               pipeline.exec_config)
        padded = expected_faults(
            binary, [(profiles, 2.0), (ProfileBundle(), 0.0)],
            STRATEGY_COMBINED, pipeline.exec_config)
        assert lone == padded


# ---------------------------------------------------------------------------
# The loop end to end
# ---------------------------------------------------------------------------


class TestScenario:
    def test_genuine_drift_refreshes_and_cuts_faults(self):
        outcome = run_scenario(_queens(), STRATEGY_COMBINED,
                               scenario=DriftScenario())
        assert outcome.ok
        assert outcome.refreshes >= 1
        assert outcome.epochs[0].action == "retain"
        refreshes = [e for e in outcome.epochs if e.action == "refresh"]
        for epoch in refreshes:
            # the refreshed layout strictly reduces replayed first-touch
            # faults vs the stale one under the same live traffic
            assert epoch.candidate_faults < epoch.deployed_faults_before
            assert epoch.deployed_version_after > epoch.deployed_version_before

    def test_injected_bad_candidate_is_quarantined_and_rolled_back(self):
        pipeline = _queens()
        scenario = DriftScenario(inject_bad_epoch=2,
                                 mutation=MUTATE_SWAP_CU_OFFSETS)
        outcome = run_scenario(pipeline, scenario=scenario,
                               strategy=STRATEGY_COMBINED)
        assert outcome.ok
        assert outcome.rollbacks == 1
        assert outcome.quarantined
        bad = next(e for e in outcome.epochs if e.action == "rollback")
        # rollback retains the previously deployed layout untouched
        assert bad.deployed_version_after == bad.deployed_version_before
        assert bad.quarantined and "@v" in bad.quarantined
        assert bad.gate_failures
        # the conviction is version-scoped: the strategy itself stays usable
        keys = {key[1] for key in pipeline.quarantine.entries}
        assert all("@v" in key for key in keys)

    def test_no_epoch_ships_unguarded_regression(self):
        outcome = run_scenario(_queens(), STRATEGY_COMBINED,
                               scenario=DriftScenario(inject_bad_epoch=2))
        for epoch in [outcome.bootstrap] + outcome.epochs:
            assert not epoch.unguarded_regression
            if epoch.deployed_faults_before is not None:
                gate = epoch.gate_max_regression
                assert (epoch.deployed_faults_after
                        <= epoch.deployed_faults_before * (1.0 + gate) + 1e-9)

    def test_stale_profile_chaos_misses_then_recovers(self):
        spec = STRATEGY_COMBINED
        scenario = DriftScenario()

        def fires(seed, epoch):
            policy = ChaosPolicy(seed=seed, rate=0.5,
                                 classes=(CHAOS_STALE_PROFILE,))
            return policy.fault_for(
                "Queens", f"pgo:{spec.name}:epoch{epoch}", 0
            ) == CHAOS_STALE_PROFILE

        # a schedule that poisons the drift epoch but leaves a later
        # fresh epoch for the detector to recover on
        seed = next(s for s in range(200)
                    if fires(s, scenario.drift_epoch)
                    and not fires(s, scenario.drift_epoch + 1))
        policy = ChaosPolicy(seed=seed, rate=0.5,
                             classes=(CHAOS_STALE_PROFILE,))
        outcome = run_scenario(_queens(), spec, scenario=scenario,
                               chaos=policy)
        assert outcome.ok
        assert outcome.stale_served >= 1
        stale_epoch = outcome.epochs[scenario.drift_epoch]
        assert stale_epoch.stale_served
        assert stale_epoch.action == "retain"  # the missed refresh
        assert outcome.refreshes >= 1          # ...recovered later

    def test_scenario_is_deterministic(self):
        first = run_scenario(_queens(), STRATEGY_CU,
                             scenario=DriftScenario(epochs=2))
        second = run_scenario(_queens(), STRATEGY_CU,
                              scenario=DriftScenario(epochs=2))
        assert first.as_dict() == second.as_dict()

    def test_event_stream_reconstructs_epoch_timeline(self):
        from repro.obs import get_event_log

        scenario = DriftScenario(inject_bad_epoch=2,
                                 mutation=MUTATE_SWAP_CU_OFFSETS)
        outcome = run_scenario(_queens(), STRATEGY_COMBINED,
                               scenario=scenario)
        log = get_event_log()
        # the pgo.epoch markers alone rebuild the exact epoch timeline
        timeline = [(e["epoch"], e["action"], e["version"])
                    for e in log.of_kind("pgo.epoch")]
        lived = [outcome.bootstrap] + outcome.epochs
        assert timeline == [(o.epoch, o.action, o.deployed_version_after)
                            for o in lived]
        # point events agree with the summary counts: bootstrap publishes
        # a profile too, so it contributes one pgo.refresh marker
        assert len(log.of_kind("pgo.refresh")) == outcome.refreshes + 1
        assert len(log.of_kind("pgo.rollback")) == outcome.rollbacks
        quarantines = log.of_kind("pgo.quarantine")
        assert [e["key"] for e in quarantines] == \
            [o.quarantined for o in lived if o.quarantined]
        assert len(quarantines) == len(outcome.quarantined)
        drift_epochs = {e["epoch"] for e in log.of_kind("pgo.drift")}
        assert drift_epochs == {o.epoch for o in outcome.epochs
                                if o.drift is not None and o.drift.drifted}
        # every marker carries the causal workload/strategy ids
        assert all(e["workload"] == "Queens"
                   and e["strategy"] == STRATEGY_COMBINED.name
                   for e in log.of_kind("pgo.epoch"))


class TestLoopApi:
    def test_bootstrap_then_retain(self):
        pipeline = _queens()
        profiled = pipeline.profile(seed=1)
        loop = PgoLoop(pipeline, STRATEGY_CU, seed=1)
        mix = [WeightedProfile(label="t", weight=1.0,
                               bundle=profiled.profiles)]
        boot = loop.bootstrap(mix, epoch=0)
        assert boot.action == "bootstrap"
        assert loop.store.deployed().version == 1
        epoch = loop.observe(mix, epoch=1)
        assert epoch.action == "retain"
        assert epoch.drift is not None and not epoch.drift.drifted

    @pytest.mark.parametrize("mutation", list(UNBOOTSTRAPPED_OUTCOMES))
    def test_observe_before_bootstrap_gates_first_deploy(self, mutation):
        from repro.obs import get_event_log

        pipeline = _queens()
        mix = [WeightedProfile(label="live", weight=1.0,
                               bundle=pipeline.profile(seed=7).profiles)]
        loop = PgoLoop(pipeline, STRATEGY_COMBINED, seed=7)
        plan = (LayoutMutationPlan.single(mutation, pick=7)
                if mutation else None)
        outcome = loop.observe(mix, epoch=0, mutation_plan=plan)
        assert outcome.as_dict() == UNBOOTSTRAPPED_OUTCOMES[mutation]
        assert loop.deployed.strategy == ("default" if mutation
                                          else STRATEGY_COMBINED.name)
        # the epoch is finalized exactly once
        assert loop.history == [outcome]
        assert len(get_event_log().of_kind("pgo.epoch")) == 1


# ---------------------------------------------------------------------------
# Surfaces: CLI and the bench gate
# ---------------------------------------------------------------------------


class TestCli:
    def test_pgo_defaults_track_dataclasses(self):
        from repro.cli import build_parser
        from repro.pgo import CanaryPolicy

        args = build_parser().parse_args(["pgo"])
        assert args.epochs == DriftScenario().epochs
        assert args.seed == DriftScenario().seed
        assert args.inject_bad == DriftScenario().inject_bad_epoch
        assert args.max_drift == DriftThresholds().max_rank_distance
        assert args.max_regression == CanaryPolicy().max_regression

    def test_pgo_json_and_exit_zero_on_clean_run(self, capsys):
        from repro.cli import main

        assert main(["pgo", "--workload", "Queens", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["ok"] is True
        assert payload["refreshes"] >= 1
        assert payload["unguarded_regressions"] == 0

    def test_pgo_inject_bad_exits_nonzero_naming_quarantined(self, capsys):
        from repro.cli import main

        assert main(["pgo", "--workload", "Queens", "--inject-bad", "2"]) == 1
        out = capsys.readouterr().out
        assert "quarantined" in out
        assert "@v" in out

    def test_chaos_stale_profile_exercise(self, capsys):
        from repro.cli import main

        code = main(["chaos", "--only", "Queens", "--strategy", "cu",
                     "--fault-classes", "stale_profile",
                     "--rate", "0.4", "--seed", "3"])
        out = capsys.readouterr().out
        assert code == 0
        assert "stale profiles served" in out


class TestBenchGate:
    def _payload(self, **pgo):
        entry = {
            "workload": "Queens", "strategy": "cu+heap path", "seed": 7,
            "epochs": 3, "inject_bad_epoch": 2, "refreshes": 1,
            "rollbacks": 1, "retained": 1,
            "refresh_detail": [{"epoch": 1, "stale_faults": 21.9,
                                "candidate_faults": 11.0}],
            "quarantined": ["cu+heap path@v3"],
            "unguarded_regressions": 0, "ok": True,
        }
        entry.update(pgo)
        return {"ok": True, "deterministic": True,
                "phases": {"warm": {"cache_misses": 0,
                                    "cache_hit_rate": 1.0}},
                "pgo": entry}

    def test_clean_pgo_phase_passes(self):
        from repro.eval.bench import check_payload

        assert check_payload(self._payload()) == []

    def test_unguarded_regression_fails(self):
        from repro.eval.bench import check_payload

        failures = check_payload(self._payload(ok=False,
                                               unguarded_regressions=1))
        assert any("unguarded" in f for f in failures)

    def test_missing_rollback_fails(self):
        from repro.eval.bench import check_payload

        failures = check_payload(self._payload(rollbacks=0, quarantined=[]))
        assert any("rolling back" in f for f in failures)
        assert any("quarantin" in f for f in failures)

    def test_non_strict_fault_cut_fails(self):
        from repro.eval.bench import check_payload

        failures = check_payload(self._payload(
            refresh_detail=[{"epoch": 1, "stale_faults": 11.0,
                             "candidate_faults": 11.0}]))
        assert any("strictly" in f for f in failures)

    def test_undetected_shift_fails(self):
        from repro.eval.bench import check_payload

        failures = check_payload(self._payload(refreshes=0,
                                               refresh_detail=[]))
        assert any("never refreshed" in f for f in failures)
