"""Fault plans: which fault fires where, when, and how often.

A *plan* is a list of rules, each binding one fault action to one
injection site, optionally narrowed to a worker index and a call
ordinal.  Plans are pure data — parsing a spec never arms anything;
:mod:`repro.faults.runtime` decides whether a plan is *active* and
evaluates it at the instrumented sites.

Spec grammar (the ``REPRO_FAULTS`` wire format)::

    plan  = rule (";" rule)*
    rule  = action "@" site (":" opt)*
    opt   = "w=" int | "n=" int | "s=" float | "x=" int

``w`` narrows the rule to one worker slot, ``n`` to one 0-based call
ordinal of the ``(site, worker)`` counter, ``s`` sets the stall
duration and ``x`` the fire budget (default 1: a rule fires once per
process and then disarms).  Each option may appear once per rule;
``w`` and ``n`` must be >= 0, ``s`` finite and >= 0, ``x`` >= 1.
Example::

    REPRO_FAULTS="kill@shard.send:w=0:n=2;stall@shard.task:w=1:n=0:s=30"

kills shard worker 0 just before its third task is sent, and makes
shard worker 1 sleep 30 s at its first task.

Actions
-------
``kill``
    Parent-side: :func:`repro.faults.runtime.should_kill` answers True
    and the *caller* SIGKILLs the worker — exactly the crash the
    supervisor must recover from.  Parent-side counters are absolute
    for the process, so a kill schedule fires once even when workers
    are respawned.
``exit``
    Worker-side hard crash: ``os._exit(70)`` at the site.
``stall``
    Worker-side hang: sleep ``s`` seconds (default 30) — what the
    per-task deadline must detect.
``fail`` / ``tear``
    Raise :class:`~repro.faults.runtime.InjectedFault` at the site
    (``tear`` is the same raise, named for torn multi-file writes such
    as ``registry.publish``).

Determinism: rule evaluation consumes no entropy — a plan plus a
deterministic call sequence yields the same fault sequence every run.
:func:`kill_schedule` derives a pseudo-random (but seeded) kill plan
for matrix tests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "ACTIONS",
    "SITES",
    "PARENT_SITES",
    "FaultRule",
    "FaultPlan",
    "parse_plan",
    "kill_schedule",
]

#: Known injection sites.  Parent-side sites are evaluated in the pool
#: owner via ``should_kill``; the rest run inside workers (or inline,
#: for ``registry.publish``) via ``inject``.  A worker passes
#: ``worker.boot`` before it reads its state, ``worker.setup`` before it
#: unpickles it.
PARENT_SITES = frozenset({"shard.send"})
SITES = PARENT_SITES | frozenset(
    {
        "shard.task",
        "shard.task.done",
        "worker.boot",
        "worker.setup",
        "registry.publish",
    }
)

ACTIONS = frozenset({"kill", "exit", "stall", "fail", "tear"})

#: Default stall duration (seconds) when a stall rule gives no ``s=``.
_DEFAULT_STALL = 30.0

#: Spec option -> (FaultRule field, parser).
_OPTIONS = {
    "w": ("worker", int),
    "n": ("at", int),
    "s": ("seconds", float),
    "x": ("times", int),
}


@dataclass(frozen=True)
class FaultRule:
    """One armed fault: ``action`` at ``site``, narrowed by the options."""

    action: str
    site: str
    worker: int | None = None
    at: int | None = None
    seconds: float = _DEFAULT_STALL
    times: int = 1

    def __post_init__(self) -> None:
        if self.action not in ACTIONS:
            problem = f"unknown fault action {self.action!r}"
        elif self.site not in SITES:
            problem = f"unknown fault site {self.site!r}"
        elif self.action == "kill" and self.site not in PARENT_SITES:
            problem = f"kill rules need a parent-side site ({sorted(PARENT_SITES)})"
        elif self.worker is not None and self.worker < 0:
            problem = f"option w needs a worker >= 0, got {self.worker}"
        elif self.at is not None and self.at < 0:
            problem = f"option n needs an ordinal >= 0, got {self.at}"
        elif not (math.isfinite(self.seconds) and self.seconds >= 0):
            problem = f"option s needs finite seconds >= 0, got {self.seconds}"
        elif self.times < 1:
            problem = f"option x needs times >= 1, got {self.times}"
        else:
            return
        raise ValueError(f"fault rule {self.spec()!r}: {problem}")

    def matches(self, site: str, worker: int | None, count: int) -> bool:
        """Does this rule fire at call ``count`` of ``(site, worker)``?"""
        if site != self.site:
            return False
        if self.worker is not None and worker != self.worker:
            return False
        return self.at is None or count == self.at

    def spec(self) -> str:
        """The rule back in spec-grammar form (round-trips via parse)."""
        parts = [f"{self.action}@{self.site}"]
        if self.worker is not None:
            parts.append(f"w={self.worker}")
        if self.at is not None:
            parts.append(f"n={self.at}")
        if self.action == "stall" and self.seconds != _DEFAULT_STALL:
            parts.append(f"s={self.seconds:g}")
        if self.times != 1:
            parts.append(f"x={self.times}")
        return ":".join(parts)


@dataclass
class FaultPlan:
    """A parsed rule list plus its per-process fire state.

    Counters are plan-local: every :meth:`fire` call advances the
    ``(site, worker)`` ordinal, and each rule keeps its own fire count
    against ``times``.  Forked workers inherit a *copy* of the state,
    so worker-side ordinals count that worker's own calls while
    parent-side ordinals are absolute for the pool owner.
    """

    rules: tuple[FaultRule, ...]
    _counts: dict[tuple[str, int], int] = field(default_factory=dict)
    _fired: dict[int, int] = field(default_factory=dict)

    def spec(self) -> str:
        return ";".join(rule.spec() for rule in self.rules)

    def next_count(self, site: str, worker: int | None) -> int:
        """Advance and return the 0-based ordinal of this call."""
        key = (site, -1 if worker is None else worker)
        count = self._counts.get(key, 0)
        self._counts[key] = count + 1
        return count

    def armed(self, site: str, worker: int | None, count: int) -> FaultRule | None:
        """First rule that fires at this call, consuming one fire budget."""
        for index, rule in enumerate(self.rules):
            if self._fired.get(index, 0) >= rule.times:
                continue
            if rule.matches(site, worker, count):
                self._fired[index] = self._fired.get(index, 0) + 1
                return rule
        return None


def parse_plan(spec: str) -> FaultPlan:
    """Parse the ``REPRO_FAULTS`` grammar into a :class:`FaultPlan`."""
    rules = []
    for chunk in spec.split(";"):
        chunk = chunk.strip()
        if not chunk:
            continue
        head, _, tail = chunk.partition("@")
        if not tail:
            raise ValueError(f"fault rule {chunk!r} is missing '@site'")
        site, *opts = tail.split(":")
        kwargs: dict[str, object] = {}
        for opt in opts:
            key, sep, value = opt.partition("=")
            if not sep:
                raise ValueError(f"malformed fault option {opt!r} in {chunk!r}")
            if key not in _OPTIONS:
                raise ValueError(f"unknown fault option {key!r} in {chunk!r}")
            name, parse = _OPTIONS[key]
            if name in kwargs:
                raise ValueError(f"fault rule {chunk!r}: option {key} given twice")
            try:
                kwargs[name] = parse(value)
            except ValueError:
                kind = "an integer" if parse is int else "a number"
                raise ValueError(
                    f"fault rule {chunk!r}: option {key} needs {kind}, got {value!r}"
                ) from None
        rules.append(FaultRule(action=head.strip(), site=site.strip(), **kwargs))
    if not rules:
        raise ValueError(f"fault spec {spec!r} contains no rules")
    return FaultPlan(tuple(rules))


def kill_schedule(
    seed: int,
    *,
    site: str = "shard.send",
    workers: int,
    max_at: int,
    kills: int = 1,
) -> FaultPlan:
    """A seeded pseudo-random kill plan for chaos-matrix tests.

    Draws ``kills`` (worker, ordinal) pairs from a seeded generator —
    the same seed always arms the same schedule, so a failing matrix
    cell reproduces exactly.
    """
    rng = np.random.default_rng(seed)
    rules = tuple(
        FaultRule(
            action="kill",
            site=site,
            worker=int(rng.integers(max(1, workers))),
            at=int(rng.integers(max(1, max_at))),
        )
        for _ in range(kills)
    )
    return FaultPlan(rules)
