"""The fault-plan grammar, counters and activation discipline.

The deterministic core of the chaos suite: a plan plus a deterministic
call sequence must yield the same fault sequence every run, a context
plan must override the environment (so chaos tests stay reproducible
under a CI-wide ``REPRO_FAULTS`` schedule), and unset means strict
no-op.
"""

from __future__ import annotations

import time

import pytest

from repro.faults import (
    ACTIONS,
    PARENT_SITES,
    SITES,
    FaultRule,
    InjectedFault,
    active_plan,
    fault_plan,
    faults_active,
    inject,
    kill_schedule,
    parse_plan,
    should_kill,
)


class TestGrammar:
    def test_round_trip(self):
        spec = (
            "kill@shard.send:w=0:n=2;stall@shard.task:w=1:s=0.5:x=3;"
            "tear@registry.publish"
        )
        plan = parse_plan(spec)
        assert plan.spec() == spec
        assert parse_plan(plan.spec()).spec() == spec

    def test_defaults(self):
        (rule,) = parse_plan("stall@shard.task").rules
        assert rule.worker is None and rule.at is None
        assert rule.seconds == 30.0 and rule.times == 1

    @pytest.mark.parametrize(
        "spec,match",
        [
            ("kill", "missing '@site'"),
            ("boom@shard.send", "unknown fault action"),
            ("kill@nowhere", "unknown fault site"),
            ("kill@shard.task", "parent-side site"),
            ("kill@shard.send:zzz", "malformed fault option"),
            ("kill@shard.send:q=1", "unknown fault option"),
            ("kill@shard.send:x=0", "times >= 1"),
            ("", "no rules"),
            (" ; ", "no rules"),
            # Rules that could never fire, or would crash the worker
            # at time.sleep, fail at parse time.
            ("kill@shard.send:w=-1", "worker >= 0"),
            ("kill@shard.send:n=-1", "ordinal >= 0"),
            ("stall@shard.task:s=nan", "finite seconds >= 0"),
            ("stall@shard.task:s=inf", "finite seconds >= 0"),
            ("stall@shard.task:s=1e400", "finite seconds >= 0"),
            ("stall@shard.task:s=-1", "finite seconds >= 0"),
            ("kill@shard.send:w=1:w=2", "given twice"),
            ("stall@shard.task:s=1:n=0:s=2", "given twice"),
            ("kill@shard.send:w=x", "needs an integer"),
            ("stall@shard.task:s=soon", "needs a number"),
            # The intra-fit histogram pool's sites are gone.
            ("kill@hist.send", "unknown fault site"),
            ("stall@hist.task", "unknown fault site"),
            ("stall@hist.task.done", "unknown fault site"),
        ],
    )
    def test_rejects_malformed_specs(self, spec, match):
        with pytest.raises(ValueError, match=match):
            parse_plan(spec)

    @pytest.mark.parametrize(
        "spec",
        [
            "kill@shard.send:w=-1",
            "kill@shard.send:n=-1",
            "stall@shard.task:s=nan",
            "stall@shard.task:s=-1",
            "kill@shard.send:x=0",
            "kill@shard.send:w=1:w=2",
            "kill@shard.send:w=x",
            "stall@shard.task:s=soon",
        ],
    )
    def test_option_errors_name_the_rule_and_the_option(self, spec):
        option = spec.rpartition(":")[2].partition("=")[0]
        with pytest.raises(ValueError) as info:
            parse_plan(f"kill@shard.send:n=0;{spec}")
        message = str(info.value)
        assert f"fault rule '{spec.partition(':')[0]}:" in message
        assert f"option {option} " in message

    def test_direct_rules_are_validated_too(self):
        for kwargs in (
            {"worker": -1},
            {"at": -2},
            {"seconds": float("nan")},
            {"seconds": float("inf")},
            {"seconds": -0.5},
        ):
            with pytest.raises(ValueError, match="fault rule 'stall@shard.task"):
                FaultRule(action="stall", site="shard.task", **kwargs)
        assert FaultRule(action="stall", site="shard.task", seconds=0.0).seconds == 0

    def test_every_action_and_site_is_spellable(self):
        for action in sorted(ACTIONS):
            sites = PARENT_SITES if action == "kill" else SITES
            for site in sorted(sites):
                (rule,) = parse_plan(f"{action}@{site}").rules
                assert (rule.action, rule.site) == (action, site)


class TestCounters:
    def test_ordinals_are_per_site_and_worker(self):
        plan = parse_plan("kill@shard.send:w=1:n=1")
        # Worker 0 traffic never advances worker 1's ordinal.
        assert plan.next_count("shard.send", 0) == 0
        assert plan.next_count("shard.send", 0) == 1
        assert plan.next_count("shard.send", 1) == 0
        assert plan.armed("shard.send", 1, 1) is not None

    def test_fire_budget_consumed(self):
        plan = parse_plan("stall@shard.task:x=2")
        assert plan.armed("shard.task", 0, 0) is not None
        assert plan.armed("shard.task", 1, 5) is not None
        assert plan.armed("shard.task", 0, 9) is None  # budget spent

    def test_pinned_ordinal_fires_once(self):
        plan = parse_plan("kill@shard.send:n=3")
        assert all(plan.armed("shard.send", 0, n) is None for n in (0, 1, 2))
        assert plan.armed("shard.send", 0, 3) is not None
        assert plan.armed("shard.send", 0, 3) is None

    def test_first_matching_rule_wins(self):
        plan = parse_plan("exit@shard.task:n=0;stall@shard.task:n=0")
        assert plan.armed("shard.task", 0, 0).action == "exit"
        # The exit rule is spent; the stall rule backs it up.
        assert plan.armed("shard.task", 1, 0).action == "stall"


class TestActivation:
    def test_inactive_by_default(self, monkeypatch):
        monkeypatch.delenv("REPRO_FAULTS", raising=False)
        assert not faults_active()
        assert active_plan() is None
        assert should_kill("shard.send", 0) is False
        inject("shard.task", 0)  # strict no-op

    def test_env_plan_parsed_and_cached_per_value(self, monkeypatch):
        monkeypatch.setenv("REPRO_FAULTS", "kill@shard.send:n=0")
        assert faults_active()
        first = active_plan()
        assert first is active_plan()  # same instance: counters persist
        monkeypatch.setenv("REPRO_FAULTS", "kill@shard.send:n=1")
        assert active_plan() is not first
        monkeypatch.delenv("REPRO_FAULTS")
        assert not faults_active()

    def test_context_plan_overrides_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_FAULTS", "fail@worker.setup")
        with fault_plan("kill@shard.send:n=0") as plan:
            assert active_plan() is plan
            inject("worker.setup", 0)  # the env rule is masked
        assert active_plan().rules[0].site == "worker.setup"

    def test_context_plans_nest(self):
        with fault_plan("kill@shard.send") as outer:
            with fault_plan("stall@shard.task") as inner:
                assert active_plan() is inner
            assert active_plan() is outer
        assert not faults_active()


class TestEvaluation:
    def test_should_kill_fires_only_kill_rules(self):
        with fault_plan("kill@shard.send:w=0:n=1"):
            assert should_kill("shard.send", 0) is False  # ordinal 0
            assert should_kill("shard.send", 0) is True  # ordinal 1
            assert should_kill("shard.send", 0) is False  # budget spent

    def test_inject_ignores_kill_rules(self):
        with fault_plan("kill@shard.send"):
            inject("shard.send", 0)  # a kill rule never raises inline

    def test_inject_raises_on_fail_and_tear(self):
        with fault_plan("fail@worker.setup:w=2"):
            inject("worker.setup", 0)  # wrong worker: no-op
            with pytest.raises(InjectedFault, match="worker.setup"):
                inject("worker.setup", 2)
        with fault_plan("tear@registry.publish"):
            with pytest.raises(InjectedFault, match="tear"):
                inject("registry.publish")

    def test_inject_stalls_for_the_configured_seconds(self):
        with fault_plan("stall@shard.task:s=0.05"):
            t0 = time.perf_counter()
            inject("shard.task", 0)
            assert time.perf_counter() - t0 >= 0.05


class TestKillSchedule:
    def test_seeded_schedules_reproduce(self):
        a = kill_schedule(7, workers=3, max_at=8, kills=2)
        b = kill_schedule(7, workers=3, max_at=8, kills=2)
        assert a.spec() == b.spec()
        assert kill_schedule(8, workers=3, max_at=8, kills=2).spec() != a.spec()

    def test_rules_within_bounds(self):
        plan = kill_schedule(3, site="shard.send", workers=4, max_at=6, kills=5)
        assert len(plan.rules) == 5
        for rule in plan.rules:
            assert rule.action == "kill" and rule.site == "shard.send"
            assert 0 <= rule.worker < 4
            assert 0 <= rule.at < 6

    def test_every_rule_is_a_valid_kill(self):
        plan = kill_schedule(11, workers=2, max_at=4, kills=3)
        assert parse_plan(plan.spec()).spec() == plan.spec()
        assert all(isinstance(rule, FaultRule) for rule in plan.rules)
