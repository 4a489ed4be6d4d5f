import dataclasses
import hashlib
import json
import os
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import numrad.bounds
import numrad.harness
import numrad.linalg
import numrad.radius
from numrad.bounds import (BOUND_IDS, DEFAULT_ROLES, BoundOutcome, EvalSettings, bound_spec,
                           bound_th1)
from numrad.ensembles import RngStream
from numrad.errors import (DimensionMismatchError, NotContractionError,
                           ToleranceUnreachableError, UnknownBoundError)
from numrad.harness import (
    CONTRACT_SLACK,
    BLOCK_TRIALS,
    CampaignConfig,
    TrialRecord,
    _build_plan,
    _deal,
    _digest,
    _run_single,
    _settings,
    contract_verdict,
    counterexample_suite,
    default_config,
    evaluate_bound,
    replay_trial,
    report_to_csv,
    report_to_json,
    run_campaign,
)
from numrad.linalg import embed_block, spectral_norm
from numrad.radius import omega

SMALL = dict(
    dims=((1, 1), (2, 2), (2, 3)),
    min_trials_per_bound=24,
    master_seed=314,
)


def small_config(**overrides):
    return CampaignConfig(**{**SMALL, **overrides})


class TestRunCampaign:
    def test_zero_violations_small(self):
        cfg = small_config(bound_ids=("main1.v1", "sum_norm", "main11.young.v2",
                                      "main3.v2", "th1"))
        report = run_campaign(cfg)
        assert len(report.violations) == 0
        assert len(report.errors) == 0
        for entry in report.summary.values():
            assert entry["count"] >= cfg.min_trials_per_bound
            assert 0.0 <= entry["ratio_max"] <= 1.0 + cfg.slack

    def test_empty_bound_list(self):
        report = run_campaign(small_config(bound_ids=()))
        assert report.records == []
        assert report.summary == {}

    def test_scalar_ensemble_tight_cases(self):
        cfg = small_config(
            bound_ids=("main1.v1",),
            dims=((1, 1),),
            alpha_values=(0.5,),
            r_values=(1.0,),
            min_trials_per_bound=100,
            ensembles={"x": "scalar", "y": "scalar", "contraction": "contraction",
                       "block": "ginibre", "normal": "normal"},
        )
        report = run_campaign(cfg)
        assert len(report.violations) == 0
        ratios = [rec.ratio for rec in report.records]
        # scalar inputs are exactly tight at alpha = 1/2, r = 1
        assert max(ratios) >= 1.0 - 1e-9

    def test_as_stated_campaign_flags_fixed_counterexample(self):
        cfg = small_config(
            bound_ids=("main11.v1",),
            dims=((1, 1),),
            r_values=(1.0,),
            alpha_values=(0.5,),
            holder_p_values=(2.0,),
            min_trials_per_bound=5,
            constant_mode="as_stated",
            extra_trials=(
                ("main11.v1",
                 {"m": 1, "n": 1, "r": 1.0, "alpha": 0.5, "p": 2.0,
                  "constant_mode": "as_stated"},
                 {"x": [[1.0]], "y": [[1.0]]}),
            ),
        )
        report = run_campaign(cfg)
        fixed = report.records[-1]
        assert fixed.violation
        assert fixed.value == pytest.approx(0.5, abs=1e-12)
        assert fixed.omega_lo == pytest.approx(1.0, abs=1e-8)
        assert report.summary["main11.v1"]["violations"] >= 1

    def test_determinism_across_jobs(self):
        cfg1 = small_config(bound_ids=("main1.v2", "main4.v1"), jobs=1)
        cfg2 = small_config(bound_ids=("main1.v2", "main4.v1"), jobs=3)
        rep1 = run_campaign(cfg1)
        rep2 = run_campaign(cfg2)
        assert report_to_json(rep1) == report_to_json(rep2)
        assert report_to_csv(rep1) == report_to_csv(rep2)

    @pytest.mark.parametrize("jobs", (2, 3, 5))
    def test_forked_records_in_index_order(self, jobs):
        # three trials, so jobs=5 runs one trial in each of three processes
        cfg = small_config(bound_ids=("main1.v1",), dims=((2, 2),), r_values=(1.0,),
                           alpha_values=(0.5,), min_trials_per_bound=3, jobs=jobs)
        serial = run_campaign(dataclasses.replace(cfg, jobs=1))
        report = run_campaign(cfg)
        assert [rec.index for rec in report.records] == [0, 1, 2]
        assert all(rec.wall_time > 0.0 for rec in report.records)
        assert report_to_csv(report) == report_to_csv(serial)

    @pytest.mark.parametrize("workers", range(1, 6))
    def test_deal_partitions_plan(self, workers):
        for count in range(3 * workers + 2):
            shares = [_deal(k, workers, count) for k in range(workers)]
            assert sorted(i for share in shares for i in share) == list(range(count))
            assert all(share == sorted(share) for share in shares)
            assert all(k in shares[k] for k in range(min(workers, count)))

    @pytest.mark.parametrize("jobs", (2, 3, 4))
    def test_deal_balances_alternating_operator_counts(self, jobs):
        # n_operators is the innermost axis here, so the plan alternates
        # one-operator and two-operator trials
        cfg = small_config(bound_ids=("main4.v1",), n_operators_values=(1, 2),
                           alpha_values=(0.5,), trials=1)
        plan = _build_plan(cfg)
        costly = [sum(plan[i][1]["n_operators"] == 2 for i in _deal(k, jobs, len(plan)))
                  for k in range(jobs)]
        assert sum(costly) == len(plan) // 2
        assert max(costly) - min(costly) <= 1

    def test_forked_worker_failure_raises_and_reaps(self, monkeypatch):
        cfg = small_config(bound_ids=("main1.v1",), min_trials_per_bound=4, jobs=2)
        planted = _deal(1, 2, len(_build_plan(cfg)))[1]  # the forked worker's second trial
        orig = numrad.harness._start_trial

        def failing(config, index, *args):
            if index == planted:
                raise RuntimeError("planted failure")
            return orig(config, index, *args)

        monkeypatch.setattr(numrad.harness, "_start_trial", failing)
        with pytest.raises(RuntimeError, match="worker 1 of 2"):
            run_campaign(cfg)
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_parent_share_failure_kills_and_reaps_workers(self, monkeypatch):
        cfg = small_config(bound_ids=("main1.v1",), min_trials_per_bound=4, jobs=3)
        planted = _deal(0, 3, len(_build_plan(cfg)))[1]  # this process's second trial
        orig = numrad.harness._start_trial

        def interrupted(config, index, *args):
            if index == planted:
                raise KeyboardInterrupt
            return orig(config, index, *args)

        monkeypatch.setattr(numrad.harness, "_start_trial", interrupted)
        with pytest.raises(KeyboardInterrupt):
            run_campaign(cfg)
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_replay_reproduces_forked_record(self):
        cfg = small_config(bound_ids=("main1.v1", "th1"), min_trials_per_bound=4, jobs=2)
        report = run_campaign(cfg)
        assert report.records[85].bound_id == "th1"
        assert {5, 85} <= set(_deal(1, 2, len(report.records)))
        for index in (5, 85):
            target = report.records[index]
            again = replay_trial(cfg, index)
            assert again.value == target.value
            assert again.digests == target.digests
            assert again.omega_lo == target.omega_lo
            assert again.seed_path == target.seed_path

    def test_replay_reproduces_record(self):
        cfg = small_config(bound_ids=("main1.v1",), min_trials_per_bound=4)
        report = run_campaign(cfg)
        target = report.records[7]
        again = replay_trial(cfg, 7)
        assert again.value == target.value
        assert again.digests == target.digests
        assert again.ratio == target.ratio
        assert again.seed_path == target.seed_path

    def test_violation_flag_definition(self):
        cfg = small_config(bound_ids=("main1.v1",), min_trials_per_bound=8)
        report = run_campaign(cfg)
        for rec in report.records:
            lhs_pow = rec.omega_lo ** rec.exponent
            expect = rec.value < lhs_pow - cfg.slack * max(1.0, rec.value)
            assert rec.violation == expect


class TestContractVerdict:
    def test_threshold_is_not_a_violation(self):
        # below 1 the slack is absolute: the threshold is lhs_pow - slack
        at = 0.5 - CONTRACT_SLACK
        assert contract_verdict(at, 0.5) == (0.5 / at, False)
        assert contract_verdict(np.nextafter(at, 0.0), 0.5)[1]

    def test_threshold_scales_with_value(self):
        # above 1 it is relative: a power-of-two slack keeps the sums exact
        slack = 2.0 ** -20
        assert not contract_verdict(4.0, 4.0 + 4.0 * slack, slack)[1]
        assert contract_verdict(np.nextafter(4.0, 0.0), 4.0 + 4.0 * slack, slack)[1]

    def test_zero_value(self):
        # 0/0 is no ratio
        assert contract_verdict(0.0, 0.0) == (None, False)
        assert contract_verdict(0.0, -1.0) == (None, False)
        # the ratio saturates while the slack still forgives a tiny lhs_pow
        assert contract_verdict(0.0, 1e-9) == (1e308, False)
        assert contract_verdict(0.0, 1.0) == (1e308, True)

    def test_zero_over_zero_rows_count_toward_no_ratio(self):
        # a zero input, and one whose value and radius power underflow
        base = {"m": 1, "n": 1, "alpha": 0.5}
        entries = (("main1.v1", dict(base, r=1.0), {"x": [[0.0]], "y": [[0.0]]}),
                   ("main1.v1", dict(base, r=3.0), {"x": [[1e-110]], "y": [[1e-110]]}))
        report = run_campaign(CampaignConfig(bound_ids=(), extra_trials=entries))
        zero, tiny = report.records
        assert zero.value == zero.omega_lo == 0.0
        assert tiny.value == 0.0 and tiny.omega_lo == pytest.approx(1e-110)
        assert [rec.ratio for rec in report.records] == [None, None]
        assert not any(rec.violation or rec.error for rec in report.records)
        assert report.summary["main1.v1"]["ratio_max"] is None

    def test_ratio_cap(self):
        assert contract_verdict(1e-300, 1e10) == (1e308, True)
        assert contract_verdict(2.0, 1.0) == (0.5, False)

    def test_campaign_slack_default(self):
        assert CampaignConfig().slack == CONTRACT_SLACK


class TestReports:
    def test_json_structure(self):
        report = run_campaign(small_config(bound_ids=("sum_norm",),
                                           min_trials_per_bound=4))
        payload = json.loads(report_to_json(report))
        assert payload["format_version"] == "numrad-report/1"
        assert payload["config"]["master_seed"] == 314
        assert "sum_norm" in payload["summary"]
        assert payload["summary"]["sum_norm"]["violations"] == 0
        assert "jobs" not in payload["config"]

    def test_csv_header_and_rows(self):
        report = run_campaign(small_config(bound_ids=("main1.v1",),
                                           min_trials_per_bound=2))
        text = report_to_csv(report)
        lines = text.strip().split("\n")
        assert lines[0] == ("trial,bound_id,m,n,r,alpha,p,q,value,omega_lo,"
                            "omega_hi,ratio,violation,seed_path")
        assert len(lines) == 1 + len(report.records)
        first = lines[1].split(",")
        assert first[1] == "main1.v1"
        assert first[12] in ("true", "false")

    def test_records_serialize_every_field_but_wall_time(self):
        cfg = small_config(bound_ids=("main11.v1",), dims=((1, 1),), r_values=(1.0,),
                           alpha_values=(0.5,), holder_p_values=(2.0,),
                           min_trials_per_bound=2, constant_mode="as_stated",
                           extra_trials=(("th1", {"m": 1, "n": 1}, {"x": [[1.0]]}),))
        report = run_campaign(cfg)
        payload = json.loads(report_to_json(report))
        assert len(payload["violations"]) == 2 and len(payload["errors"]) == 1
        names = [f for f in TrialRecord.__dataclass_fields__ if f != "wall_time"]
        for key in ("violations", "errors"):
            for rec, row in zip(getattr(report, key), payload[key]):
                assert sorted(row) == sorted(names)
                assert row["digests"] == list(rec.digests)
                assert row["params"] == rec.params and row["error"] == rec.error

    def test_summary_consistency(self):
        report = run_campaign(small_config(bound_ids=("main1.v1", "th1"),
                                           min_trials_per_bound=6))
        for bound_id, entry in report.summary.items():
            recs = [r for r in report.records if r.bound_id == bound_id]
            assert entry["count"] == len(recs)
            assert entry["violations"] == sum(r.violation for r in recs)
            ratios = [r.ratio for r in recs if r.ratio is not None]
            assert entry["ratio_max"] == max(ratios)


class TestCounterexampleSuite:
    def test_sections(self):
        report = counterexample_suite(random_pairs=120)
        stated, proved = report.records[0], report.records[1]
        assert stated.params["section"] == "a"
        assert stated.violation and stated.value == pytest.approx(0.5, abs=1e-12)
        assert stated.omega_lo ** stated.exponent == pytest.approx(1.0, abs=1e-7)
        assert proved.params["section"] == "c"
        assert not proved.violation and proved.value == pytest.approx(2.0, abs=1e-12)
        search = [r for r in report.records if r.params.get("section") == "b"]
        assert len(search) == 120
        # the misapplied normality inequality fails on some random pairs
        assert any(r.violation for r in search)

    def test_deterministic(self):
        a = counterexample_suite(random_pairs=40)
        b = counterexample_suite(random_pairs=40)
        assert report_to_json(a) == report_to_json(b)


class TestScalarRatios:
    """main1.v1's contract ratio on X = Y = [1], through evaluate_bound."""

    SCALARS = {"x": [[1.0]], "y": [[1.0]]}

    def ratio(self, params):
        outcome, lhs, _, _ = evaluate_bound("main1.v1", self.SCALARS, params,
                                            EvalSettings(omega_tol=1e-8))
        return contract_verdict(outcome.value, lhs ** outcome.exponent)[0]

    @pytest.mark.parametrize("r,expected", [(1.0, 1.0), (2.0, 0.5), (3.0, 0.25)])
    def test_ratio_halves_per_unit_of_r(self, r, expected):
        assert self.ratio({"r": r, "alpha": 0.5}) == pytest.approx(expected, abs=1e-8)

    def test_alpha_half_gives_the_largest_ratio(self):
        by_alpha = {alpha: self.ratio({"r": 1.0, "alpha": alpha}) for alpha in (0.0, 0.5, 1.0)}
        assert by_alpha[0.5] >= by_alpha[0.0]
        assert by_alpha[0.5] >= by_alpha[1.0]
        assert by_alpha[0.5] == pytest.approx(1.0, abs=1e-9)

    def test_unknown_bound(self):
        with pytest.raises(UnknownBoundError):
            evaluate_bound("main99", self.SCALARS, {"r": 1.0})


# sha256 of the default campaign's (bound id, params) plan, computed before
# the bound table replaced the per-id branches; it pins grid order and keys.
DEFAULT_PLAN_SHA256 = "cc2963d8ff79d8c859b3926fc16232349115315357e06b4ba3e5d6b7651d6cf1"

# The bound_* evaluator each id must reach through evaluate_bound; th1's
# value is finished from its stage-2 block radii by `_th1_value`.
EVALUATOR = {
    "main1.v1": "bound_main1", "main1.v2": "bound_main1",
    "product_xy": "bound_product_xy",
    "sum_norm": "bound_sum_norm", "sum_norm.normal": "bound_sum_norm",
    "main11.v1": "bound_main11", "main11.v2": "bound_main11",
    "main11.young.v1": "bound_main11_young", "main11.young.v2": "bound_main11_young",
    "main3.v1": "bound_main3", "main3.v2": "bound_main3",
    "main4.v1": "bound_main4", "main4.v2": "bound_main4",
    "th1": "_th1_value",
}

TINY = dict(dims=((2, 2),), trials=1, r_values=(2.0,), alpha_values=(0.5,),
            holder_p_values=(2.0,), omega_p_p_values=(2.0,), n_operators_values=(1,),
            omega_p_restarts=2, omega_p_max_iter=20)


def first_trial(bound_id, **overrides):
    cfg = CampaignConfig(bound_ids=(bound_id,), **{**TINY, **overrides})
    _, params, _ = _build_plan(cfg)[0]
    return cfg, params, bound_spec(bound_id).sampler.draw(params, cfg.ensembles, RngStream(0))


def patch_everywhere(monkeypatch, orig, calls, key, results=None):
    """Count calls of `orig` under every numrad module name bound to it, the
    way the benchmark tracer and its omega_p capture patch the package.
    Each call appends `key`, or `key(*args)` for a callable key, and its
    return value to `results` when that is a list."""
    def wrapper(*args, **kwargs):
        calls.append(key(*args) if callable(key) else key)
        out = orig(*args, **kwargs)
        if results is not None:
            results.append(out)
        return out

    for name, mod in list(sys.modules.items()):
        if mod is not None and (name == "numrad" or name.startswith("numrad.")):
            for attr, val in list(vars(mod).items()):
                if val is orig:
                    monkeypatch.setattr(mod, attr, wrapper)


class TestBoundTable:
    def test_default_plan_order_pinned(self):
        plan = _build_plan(default_config(0))
        text = json.dumps([(bid, params) for bid, params, _ in plan], sort_keys=True)
        assert hashlib.sha256(text.encode()).hexdigest() == DEFAULT_PLAN_SHA256

    @pytest.mark.parametrize("bound_id", BOUND_IDS)
    def test_patched_module_functions_are_called(self, monkeypatch, bound_id):
        calls = []
        for fname in sorted(set(EVALUATOR.values())):
            patch_everywhere(monkeypatch, getattr(numrad.bounds, fname), calls, fname)
        for fname in ("omega_many", "omega_p"):
            patch_everywhere(monkeypatch, getattr(numrad.radius, fname), calls, fname)
        measure = bound_spec(bound_id).measure
        # one operator is measured by omega (TestOneOperatorContract), so the
        # omega_p side is pinned at two
        overrides = {"n_operators_values": (2,)} if measure == "omega_p" else {}
        _, params, mats = first_trial(bound_id, **overrides)
        outcome, _, _, _ = evaluate_bound(bound_id, mats, params)
        assert outcome.bound_id == bound_id
        assert EVALUATOR[bound_id] in calls
        if measure != "norm":
            # an omega side is certified by the lockstep omega_many
            assert {"omega": "omega_many"}.get(measure, measure) in calls

    def test_omega_p_recheck_reuses_the_bound_outcome(self, monkeypatch):
        zero = BoundOutcome(bound_id="th1", value=0.0, exponent=2.0)
        evals, restarts = [], []
        real_omega_p = numrad.radius.omega_p

        def counting_th1(*args, **kwargs):
            evals.append("th1")
            return zero

        def recording_omega_p(*args, **kwargs):
            restarts.append(kwargs["restarts"])
            return real_omega_p(*args, **kwargs)

        monkeypatch.setattr(numrad.bounds, "_th1_value", counting_th1)
        monkeypatch.setattr(numrad.bounds, "omega_p", recording_omega_p)
        cfg, params, _ = first_trial("th1", n_operators_values=(2,))
        record = _run_single(cfg, 0, "th1", params, None)
        assert record.violation
        assert evals == ["th1"]
        # lhs is a lower estimate, so a second estimate can only raise it and
        # never clears a violation: the contract side runs once
        assert restarts == [cfg.omega_p_restarts]

    def test_inner_counters_stay_live(self, monkeypatch):
        calls = []
        for fname in ("omega_p_objective", "omega_p_gradient"):
            patch_everywhere(monkeypatch, getattr(numrad.radius, fname), calls, fname)
        patch_everywhere(monkeypatch, numrad.bounds.zeta_value, calls, "zeta_value")
        for bound_id in ("th1", "main3.v1"):
            _, params, mats = first_trial(bound_id, n_operators_values=(2,))
            evaluate_bound(bound_id, mats, params)
        for key in ("omega_p_objective", "omega_p_gradient", "zeta_value"):
            assert calls.count(key) > 0, key

    @pytest.mark.parametrize("bound_id", ("main3.v1", "main3.v2"))
    def test_main3_record_carries_no_gap_fields(self, bound_id):
        cfg, params, mats = first_trial(bound_id)
        record = _run_single(cfg, 0, bound_id, params, mats)
        assert record.error is None
        assert not {"refined_value", "zeta_estimate"} & set(record.params)

    def test_unpack_rejects_short_group(self):
        one = np.eye(1)
        with pytest.raises(DimensionMismatchError, match="'blocks' group"):
            bound_spec("th1").sampler.coerce({"blocks": [(one, one, one)]})


class TestSamplerInputs:
    def test_partial_ensembles_equal_default_campaign(self):
        kw = dict(bound_ids=("main1.v1", "sum_norm.normal", "main4.v1", "th1"),
                  min_trials_per_bound=4, n_operators_values=(1, 2),
                  omega_p_restarts=2, omega_p_max_iter=20)
        default = run_campaign(small_config(**kw))
        partial = run_campaign(small_config(ensembles={"x": "ginibre"}, **kw))
        assert partial.config["ensembles"] == DEFAULT_ROLES
        assert report_to_json(partial) == report_to_json(default)
        assert report_to_csv(partial) == report_to_csv(default)

    @pytest.mark.parametrize("bound_id,mats,match", [
        ("main1.v1", {"x": [[1.0]]}, "expected matrices"),
        ("main4.v1", {"x": [[1.0]], "y": [[1.0]]}, "expected matrices"),
        ("th1", {"blocks": 5}, "'blocks' must be a list of matrix groups"),
        ("th1", {"blocks": [5]}, "'blocks' must be a list of matrix groups"),
    ])
    def test_coerce_rejects_malformed_inputs(self, bound_id, mats, match):
        with pytest.raises(DimensionMismatchError, match=match):
            bound_spec(bound_id).sampler.coerce(mats)

    def test_coerce_keeps_only_slot_keys(self):
        out = bound_spec("main1.v1").sampler.coerce({"x": [[1]], "y": [[2j]], "z": [[3]]})
        assert list(out) == ["x", "y"]
        assert out["y"].dtype == np.complex128 and out["y"][0, 0] == 2j

    def test_main4_contract_side_still_rejects_non_contraction(self):
        _, params, mats = first_trial("main4.v1")
        a, b, c, d, x, y = mats["items"][0]
        mats = {"items": [(2.0 * np.eye(a.shape[0]), b, c, d, x, y)]}
        with pytest.raises(NotContractionError, match="A has spectral norm"):
            evaluate_bound("main4.v1", mats, params)

    @pytest.mark.parametrize("k", (1, 2, 4))
    def test_main4_checks_each_contraction_once(self, monkeypatch, k):
        _, params, mats = first_trial("main4.v1", n_operators_values=(k,))
        calls = []
        # a norm is taken lone, or as a member of a stacked call
        patch_everywhere(monkeypatch, numrad.linalg.spectral_norm, calls, lambda m: 1)
        patch_everywhere(monkeypatch, numrad.linalg.spectral_norms, calls, len)
        evaluate_bound("main4.v1", mats, params)
        # per item: four contraction checks and two group norms in bound_main4;
        # main4_operands adds none. The contract side adds one scale norm per
        # operand for the ascent, or at k = 1 the omega tolerance's scale norm,
        # which omega_many takes from the request instead of its own
        assert sum(calls) == 6 * k + (1 if k == 1 else k)


def norm_calls_of(monkeypatch, bound_id, n_operators):
    """The operand list of `bound_id`'s first trial at `n_operators`, its
    block radii when it has some, and every matrix whose norm `spectral_norm`
    or `spectral_norms` took while `evaluate_bound` ran it."""
    _, params, mats = first_trial(bound_id, n_operators_values=(n_operators,))
    spec = bound_spec(bound_id)
    coerced = spec.sampler.coerce(mats)
    operands = spec.operand(coerced, params)
    operands = operands if isinstance(operands, list) else [operands]
    blocks = coerced.get("blocks", [])
    seen = []
    # a norm is taken lone, or as a member of a stacked call
    patch_everywhere(monkeypatch, numrad.linalg.spectral_norm, seen,
                     lambda m: [np.array(m, dtype=complex)])
    patch_everywhere(monkeypatch, numrad.linalg.spectral_norms, seen, list)
    evaluate_bound(bound_id, mats, params)
    return (operands, [op for a, _, _, d in blocks for op in (a, d)],
            [m for taken in seen for m in taken])


def times_taken(seen, m):
    return sum(s.shape == m.shape and np.array_equal(s, m) for s in seen)


class TestNormsTakenOnce:
    """A radius request carries the norm its stater took, so stage 2 takes
    no second norm of its operator."""

    @pytest.mark.parametrize("bound_id", [bid for bid in BOUND_IDS
                                          if bound_spec(bid).measure == "omega"]
                             + ["main4.v1", "main4.v2"])
    def test_omega_side_norm_once(self, monkeypatch, bound_id):
        (operand,), _, seen = norm_calls_of(monkeypatch, bound_id, 1)
        assert times_taken(seen, operand) == 1

    def test_th1_block_radii_norm_once(self, monkeypatch):
        _, radii, seen = norm_calls_of(monkeypatch, "th1", 2)
        assert len(radii) == 4
        assert [times_taken(seen, op) for op in radii] == [1] * 4


class TestOneOperatorContract:
    """The generalized radius of one operator is its numerical radius, so
    an omega_p contract side with one operand is certified by omega."""

    @pytest.mark.parametrize("bound_id", ("main4.v1", "main4.v2", "th1"))
    def test_one_operand_is_measured_by_omega(self, monkeypatch, bound_id):
        cfg, params, mats = first_trial(bound_id)
        assert params["n_operators"] == 1
        spec = bound_spec(bound_id)
        (target,) = spec.operand(spec.sampler.coerce(mats), params)
        cert = numrad.radius.omega(target, cfg.omega_tol * numrad.linalg.spectral_norm(target))
        ascent = numrad.radius.omega_p([target], params["p"]).value
        calls = []
        patch_everywhere(monkeypatch, numrad.radius.omega_p, calls, "omega_p")
        _, lhs, omega_hi, extras = evaluate_bound(bound_id, mats, params, _settings(cfg, 0))
        assert calls == []
        assert (lhs, omega_hi) == (cert.lo, cert.hi)
        assert extras == {} and lhs <= omega_hi
        # the ascent and the certificate still check each other
        assert lhs == pytest.approx(ascent, abs=1e-6)
        assert ascent <= omega_hi

    @pytest.mark.parametrize("bound_id,k", [(bid, 1) for bid in BOUND_IDS] + [
        ("main4.v1", 2), ("main4.v2", 2), ("th1", 2)])
    def test_evaluate_bound_equals_the_campaign_record(self, bound_id, k):
        # evaluate_bound runs a campaign trial's stages on its inputs, so at
        # the trial's own settings it gives the record's sides to the bit
        cfg, params, mats = first_trial(bound_id, n_operators_values=(k,))
        outcome, lhs, omega_hi, extras = evaluate_bound(bound_id, mats, params,
                                                        _settings(cfg, 0))
        record = _run_single(cfg, 0, bound_id, params, mats)
        assert record.error is None
        assert (lhs, omega_hi) == (record.omega_lo, record.omega_hi)
        assert (outcome.value, outcome.exponent) == (record.value, record.exponent)
        assert extras.items() <= record.params.items()
        assert (omega_hi is None) == (k == 2)

    def test_campaign_fills_omega_hi_only_for_one_operand(self):
        cfg = small_config(bound_ids=("main4.v1", "main4.v2", "th1"), trials=1,
                           alpha_values=(0.5,), omega_p_p_values=(1.0, 3.0),
                           n_operators_values=(1, 2), omega_p_restarts=2,
                           omega_p_max_iter=20)
        report = run_campaign(cfg)
        assert not report.violations and not report.errors
        ks = [rec.params["n_operators"] for rec in report.records]
        assert sorted(set(ks)) == [1, 2]
        for k, rec in zip(ks, report.records):
            if k == 1:
                assert rec.omega_hi is not None and rec.omega_lo <= rec.omega_hi
                assert "estimate_converged" not in rec.params
            else:
                assert rec.omega_hi is None and "estimate_converged" in rec.params


class TestStagedShare:
    """A process's share runs in blocks of trials, each in stages: every
    trial drawn and evaluated, every contract side measured (the radii of
    the block in lockstep calls), every record finished."""

    IDS = ("main1.v1", "product_xy", "sum_norm", "main11.young.v2", "main4.v1", "th1")
    # N^2 = 0 and N is not bipartite (nonzero diagonal): its field of values
    # is the disk of radius 1/2, and omega certifies it by eigensolves
    NILPOTENT = np.array([[1.0, -1.0], [1.0, -1.0]]) / 2
    # At omega_tol 1e-3 the radii and sides of the `cfg` grid need at most
    # 24 angles. A disk's first round splits all 8 initial cells, 32 angles
    # with the grid's 16, before the certificate can close it.
    BUDGET = 30

    def cfg(self, **overrides):
        kw = dict(bound_ids=self.IDS, dims=((1, 1), (2, 3), (8, 8)), trials=1,
                  r_values=(1.0,), alpha_values=(0.5,), holder_p_values=(2.0,),
                  omega_p_p_values=(2.0,), n_operators_values=(1, 2), omega_p_restarts=2,
                  omega_p_max_iter=20)
        return small_config(**{**kw, **overrides})

    @staticmethod
    def fields(rec):
        return {key: val for key, val in dataclasses.asdict(rec).items() if key != "wall_time"}

    def test_every_record_equals_its_replay(self):
        cfg = self.cfg()
        report = run_campaign(cfg)
        assert not report.errors and len(report.records) == 27
        dims = {(rec.params["m"], rec.params["n"]) for rec in report.records}
        assert dims == {(1, 1), (2, 2), (2, 3), (8, 8)}
        for rec in report.records:
            assert self.fields(replay_trial(cfg, rec.index)) == self.fields(rec)

    def test_failing_trial_is_its_own_record(self, monkeypatch):
        # the extra product_xy trial's contract side XY = N, the rotated
        # nilpotent, has a disk as its field of values and a nonzero diagonal
        # (so the eigensolve kernel); it shares its side-2 lockstep call with
        # the grid's (1, 1) trials but needs more than BUDGET angles at
        # omega_tol 1e-3; the r = 0.5 one fails while its bound is evaluated
        disk = ("product_xy", {"m": 2, "n": 2, "r": 1.0, "alpha": 0.5},
                {"x": self.NILPOTENT.tolist(), "y": np.eye(2).tolist()})
        bad_r = ("main1.v1", {"m": 1, "n": 1, "r": 0.5, "alpha": 0.5},
                 {"x": [[1.0]], "y": [[1.0]]})
        cfg = self.cfg(omega_tol=1e-3, extra_trials=(disk, bad_r))
        lockstep = numrad.radius.omega_many
        monkeypatch.setattr(numrad.bounds, "omega_many",
                            lambda mats, tols, norms: lockstep(mats, tols, self.BUDGET, norms))
        report = run_campaign(cfg)
        *grid, failed, rejected = report.records
        assert failed.error.startswith(f"ToleranceUnreachableError: angle budget {self.BUDGET} ")
        assert rejected.error.startswith("OutOfRangeError: r must be >= 1")
        assert failed.value is None and failed.digests == ()
        monkeypatch.undo()
        clean = run_campaign(dataclasses.replace(cfg, extra_trials=()))
        assert [self.fields(r) for r in grid] == [self.fields(r) for r in clean.records]

    def test_non_finite_member_keeps_its_error_record(self):
        # X = 1.7e308 I overflows each off-diagonal group into infinite
        # entries, whose norm is NaN, and the commutator that sum_norm.normal
        # checks into NaN entries, whose lone SVD raises; each trial gets the
        # record the lone calls gave it, and the grid's records, settled in
        # the same stacked calls, keep their bits
        huge = {"x": (1.7e308 * np.eye(2)).tolist(), "y": np.eye(2).tolist()}
        params = {"m": 2, "n": 2, "r": 1.0, "alpha": 0.5, "p": 2.0, "q": 2.0}
        ids = ("main1.v1", "product_xy", "sum_norm", "sum_norm.normal", "main11.young.v2")
        cfg = self.cfg(extra_trials=tuple((bid, dict(params), huge) for bid in ids))
        report = run_campaign(cfg)
        grid, failed = report.records[:-len(ids)], report.records[-len(ids):]
        nan_value = "OutOfRangeError: bound value must be finite and >= 0, got nan"
        assert [rec.error for rec in failed] == [
            nan_value, nan_value, nan_value, "LinAlgError: SVD did not converge", nan_value]
        clean = run_campaign(dataclasses.replace(cfg, extra_trials=()))
        assert [self.fields(r) for r in grid] == [self.fields(r) for r in clean.records]

    def test_wall_times_add_up_to_the_stage(self, monkeypatch):
        # with a clock that ticks once per reading, the time charged to the
        # trials in the measuring stage is exactly the stage's own span
        clock = [0.0]

        def tick():
            clock[0] += 1.0
            return clock[0]

        real_settle, spans = numrad.harness.settle, []

        def measured(steps):
            start = clock[0]
            steps, spent = real_settle(steps)
            # the stage reads the clock first at start + 1 and last at clock[0]
            spans.append((sum(spent), clock[0] - (start + 1)))
            return steps, spent

        monkeypatch.setattr(numrad.harness, "perf_counter", tick)
        monkeypatch.setattr(numrad.bounds, "perf_counter", tick)
        monkeypatch.setattr(numrad.harness, "settle", measured)
        report = run_campaign(self.cfg())
        assert all(rec.wall_time > 0.0 for rec in report.records)
        ((charged, span),) = spans
        assert span > 0 and charged == pytest.approx(span, rel=1e-12)

    @pytest.mark.parametrize("seed", (0, 170604497))
    def test_reports_identical_across_jobs(self, seed):
        reports = [run_campaign(self.cfg(master_seed=seed, jobs=jobs)) for jobs in (1, 2, 3)]
        assert len({report_to_json(r) for r in reports}) == 1
        assert len({report_to_csv(r) for r in reports}) == 1
        assert all(rec.wall_time > 0.0 for r in reports for rec in r.records)

    def test_th1_budget_error_is_the_trials_error_record(self, monkeypatch):
        # th1's block radii are certified in the measuring stage
        lockstep = numrad.radius.omega_many
        monkeypatch.setattr(numrad.bounds, "omega_many",
                            lambda mats, tols, norms: lockstep(mats, tols, 16, norms))
        cfg, params, _ = first_trial("th1", n_operators_values=(2,))
        record = _run_single(cfg, 0, "th1", params, None)
        assert record.error.startswith("ToleranceUnreachableError: angle budget 16")

    def test_failed_value_leaves_its_side_unmeasured(self, monkeypatch):
        # the value's finish runs before the side's, so a th1 value whose
        # block radius fails costs no omega_p ascent
        lockstep = numrad.radius.omega_many
        monkeypatch.setattr(numrad.bounds, "omega_many",
                            lambda mats, tols, norms: lockstep(mats, tols, 16, norms))
        calls, requests = [], []
        patch_everywhere(monkeypatch, numrad.radius.omega_p, calls, "omega_p")
        patch_everywhere(monkeypatch, numrad.radius.ascend_many, requests, list)
        cfg, params, _ = first_trial("th1", n_operators_values=(2,))
        record = _run_single(cfg, 0, "th1", params, None)
        assert record.error.startswith("ToleranceUnreachableError: angle budget 16")
        assert calls == [] and all(batch == [] for batch in requests)

    def test_every_ascent_estimate_passes_through_omega_p(self, monkeypatch):
        # the benchmark's norm-cap gate wraps radius.omega_p: every row of
        # two or more operands makes one call, which returns its omega_lo
        calls, estimates, batches = [], [], []
        patch_everywhere(monkeypatch, numrad.radius.omega_p, calls,
                         lambda ops, p: (len(ops), p), estimates)
        patch_everywhere(monkeypatch, numrad.radius.ascend_many, batches, len)
        cfg = self.cfg(bound_ids=("main4.v1", "main4.v2", "th1"), dims=((2, 2), (3, 3)),
                       omega_p_p_values=(1.0, 3.0), n_operators_values=(1, 2, 4))
        report = run_campaign(cfg)
        assert not report.errors
        rows = [rec for rec in report.records if rec.params["n_operators"] > 1]
        assert {rec.params["n_operators"] for rec in rows} == {2, 4}
        assert calls == [(rec.params["n_operators"], rec.params["p"]) for rec in rows]
        assert [est.value for est in estimates] == [rec.omega_lo for rec in rows]
        # one lockstep call ran every ascent of the block
        assert batches == [len(rows)]

    def test_th1_records_equal_bound_th1(self):
        # one finish path: bound_th1 on a record's drawn inputs, at the
        # campaign's tol, relative in both to the largest block operator,
        # gives the record's value to the bit, though the campaign certified
        # the block radii in its measuring stage
        cfg = self.cfg(bound_ids=("th1",), dims=((1, 1), (2, 3), (3, 3)),
                       omega_p_p_values=(1.0, 3.0), n_operators_values=(1, 2, 4))
        report = run_campaign(cfg)
        assert not report.errors and len(report.records) == 18
        spec = bound_spec("th1")
        for rec in report.records:
            _, params, _ = _build_plan(cfg)[rec.index]
            mats = spec.sampler.draw(params, cfg.ensembles, _settings(cfg, rec.index).stream)
            assert tuple(_digest(m) for m in spec.sampler.unpack(mats)) == rec.digests
            blocks = mats["blocks"]
            assert bound_th1(blocks, params["p"], cfg.omega_tol).value == rec.value

    def test_failing_block_radius_is_its_own_record(self, monkeypatch):
        # an extra th1 trial whose D_1 and A_2, rotated nilpotents, need more
        # than BUDGET angles at omega_tol 1e-3 shares its lockstep calls
        # with the grid's radii and sides; A_1 = 0 certifies at once, so the
        # record's error is D_1's, and the grid's records equal a clean run's
        zero, eye, shift = np.zeros((2, 2)), np.eye(2), self.NILPOTENT
        blocks = [(zero, eye, eye, shift), (3.0 * shift, eye, eye, zero)]
        hard = ("th1", {"m": 2, "n": 2, "p": 2.0}, {"blocks": blocks})
        cfg = self.cfg(omega_tol=1e-3, extra_trials=(hard,))
        lockstep = numrad.radius.omega_many
        monkeypatch.setattr(numrad.bounds, "omega_many",
                            lambda mats, tols, norms: lockstep(mats, tols, self.BUDGET, norms))
        report = run_campaign(cfg)
        *grid, failed = report.records
        tol = 1e-3 * max(spectral_norm(embed_block(*blk)) for blk in blocks)
        errors = []
        for radius in (shift, 3.0 * shift):
            with pytest.raises(ToleranceUnreachableError) as info:
                omega(radius, tol, max_evals=self.BUDGET)
            errors.append(f"ToleranceUnreachableError: {info.value}")
        assert errors[0] != errors[1]
        assert failed.error == errors[0]
        assert failed.value is None and failed.digests == ()
        monkeypatch.undo()
        clean = run_campaign(dataclasses.replace(cfg, extra_trials=()))
        assert [self.fields(r) for r in grid] == [self.fields(r) for r in clean.records]

    def test_block_size_keeps_reports(self, monkeypatch):
        # a share runs in blocks of BLOCK_TRIALS trials, one omega_many call
        # each; a block boundary inside a bound's grid moves no byte
        cfg = self.cfg(dims=((1, 1), (2, 3)), trials=4, n_operators_values=(4,))
        plan = _build_plan(cfg)
        assert plan[6][0] == plan[7][0]
        lockstep, calls = numrad.radius.omega_many, []

        def counting(mats, tols, norms):
            calls.append(len(mats))
            return lockstep(mats, tols, norms=norms)

        monkeypatch.setattr(numrad.bounds, "omega_many", counting)
        reports, counts = [], []
        for block in (1, 7, BLOCK_TRIALS):
            monkeypatch.setattr(numrad.harness, "BLOCK_TRIALS", block)
            calls.clear()
            report = run_campaign(cfg)
            reports.append((report_to_json(report), report_to_csv(report)))
            counts.append(len(calls))
        # a block of norm sides alone makes no call
        assert len(plan) > counts[0] > counts[1] > counts[2] == 1
        assert len(plan) <= BLOCK_TRIALS == 512
        assert reports[0] == reports[1] == reports[2]


def scaled(mats, scale):
    """An input dict with every matrix multiplied by `scale`."""
    return {key: [tuple(scale * np.asarray(m) for m in group) for group in val]
            if isinstance(val, list) else scale * np.asarray(val) for key, val in mats.items()}


class TestOutOfFloatRange:
    """A value that leaves the float range is its trial's OutOfRangeError
    record, so no input the config accepts aborts a campaign."""

    BIG = (1e120 * np.eye(2)).tolist()

    @pytest.mark.parametrize("entry", [
        # main11's n2 ** q, with q about 19.3 and n2 about 1e18
        ("main11.v1", {"m": 1, "n": 2, "r": 3.0, "alpha": 0.0, "p": 1.0546875},
         {"x": [[1000.0, 1000.0]], "y": [[1.0], [0.5]]}),
        # main11.young's n2 ** (q / 2)
        ("main11.young.v1", {"m": 1, "n": 2, "r": 3.0, "alpha": 0.0, "p": 1.0546875},
         {"x": [[1e30, 1e30]], "y": [[1.0], [0.5]]}),
        # th1's (...) ** p
        ("th1", {"m": 2, "n": 2, "p": 3.0}, {"blocks": [(BIG, BIG, BIG, BIG)]}),
        # the prefactor 2 ** (r - 2)
        ("main1.v1", {"m": 1, "n": 1, "r": 2000.0, "alpha": 0.5},
         {"x": [[1.0]], "y": [[1.0]]}),
    ])
    def test_power_out_of_range_is_an_error_record(self, entry):
        report = run_campaign(CampaignConfig(bound_ids=(), extra_trials=(entry,)))
        (rec,) = report.records
        assert rec.error.startswith("OutOfRangeError: result out of the float range")
        assert report.summary[entry[0]]["errors"] == 1

    def test_contract_side_power_out_of_range_is_an_error_record(self):
        outcome = BoundOutcome(bound_id="main1.v1", value=1.0, exponent=400.0)
        trial = numrad.harness._Trial(0, "main1.v1", {"r": 400.0})
        rec = numrad.harness._finish_trial(small_config(), trial, (outcome, (1e10, 1e10, {})))
        assert rec.error.startswith("OutOfRangeError: contract side power out of the float")
        assert rec.value is None and not rec.violation

    @pytest.mark.parametrize("entry", [
        ("main1.v1", {"m": 1, "n": 1, "r": 1.0, "alpha": 0.5},
         {"x": [[1e-320]], "y": [[2e-320]]}),
        # X Y = [[0, 1e-320], [0, 0]]
        ("product_xy", {"m": 2, "n": 2, "r": 1.0, "alpha": 0.5},
         {"x": [[1e-160, 0.0], [0.0, 0.0]], "y": [[0.0, 1e-160], [0.0, 0.0]]}),
    ])
    def test_underflowing_radius_tol_gives_a_record(self, entry):
        # omega_tol ||T|| underflows, and the radius is certified at the
        # tol rounded up among the subnormals, not refused as a zero tol
        report = run_campaign(CampaignConfig(bound_ids=(), extra_trials=(entry,)))
        (rec,) = report.records
        assert rec.error is None and not rec.violation
        assert 0.0 < rec.omega_lo <= rec.omega_hi

    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(j=st.integers(-150, 150))
    def test_scaled_inputs_give_one_record_each(self, j):
        # one entry per id, every matrix scaled by 10^j: some records are
        # errors (a power out of range, a contraction of norm > 1), none
        # aborts the campaign
        entries = []
        for bound_id in BOUND_IDS:
            _, params, mats = first_trial(bound_id, r_values=(3.0,), holder_p_values=(1.25,),
                                          omega_p_p_values=(3.0,), n_operators_values=(2,))
            entries.append((bound_id, params, scaled(mats, 10.0 ** j)))
        report = run_campaign(CampaignConfig(bound_ids=(), extra_trials=tuple(entries),
                                             omega_p_restarts=2, omega_p_max_iter=20))
        assert [rec.bound_id for rec in report.records] == list(BOUND_IDS)


class TestContractSideHomogeneity:
    """Each contract side of 2^k-scaled inputs, every third k in [-300, 300],
    through evaluate_bound: an ascent's estimate and a certified radius are
    2^k times the original to the bit, and a norm within 1e-12 relative."""

    SETTINGS = EvalSettings(omega_p_restarts=2)

    def sides(self, bound_id, **overrides):
        """(2^k, lhs, operand) of the inputs scaled by 2^k, k = 0 first."""
        _, params, mats = first_trial(bound_id, **overrides)
        spec = bound_spec(bound_id)
        out = []
        for k in (0, *range(-300, 301, 3)):
            inputs = scaled(mats, 2.0 ** k)
            _, lhs, _, _ = evaluate_bound(bound_id, inputs, params, self.SETTINGS)
            out.append((2.0 ** k, lhs, spec.operand(spec.sampler.coerce(inputs), params)))
        return out

    @pytest.mark.parametrize("p", (1.0, 2.0, 3.0))
    def test_two_operand_ascent_keeps_the_bits(self, p):
        (_, lhs0, operands), *rest = self.sides("th1", n_operators_values=(2,),
                                                omega_p_p_values=(p,))
        assert len(operands) == 2 and lhs0 > 0.0
        for s, lhs, _ in rest:
            assert lhs == s * lhs0, s

    def test_norm_side_scales(self):
        (_, lhs0, _), *rest = self.sides("sum_norm")
        for s, lhs, _ in rest:
            assert lhs == pytest.approx(s * lhs0, rel=1e-12, abs=0.0), s

    def test_radius_side_keeps_the_bits(self):
        # each radius runs at norm about 1, at omega_tol relative to its norm
        (_, lhs0, _), *rest = self.sides("main1.v1")
        for s, lhs, _ in rest:
            assert lhs == s * lhs0, s
