"""The policy registry: how a :class:`~repro.sweep.grid.Scenario` names a policy.

A scenario carries a policy *name* plus JSON-safe kwargs; the registry
maps the name to a builder that makes a fresh policy instance.  Both the
scenario (which checks its policy where it is declared) and the engine
builder (:func:`repro.cluster.colocation.build_engine`) read it, so it
imports neither of them.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable

from repro.core.arbiter import ImpactAwareArbiter
from repro.core.baselines import (
    CoreReclaimOnlyPolicy,
    PrecisePolicy,
    StaticLevelPolicy,
    StaticMostApproxPolicy,
)
from repro.core.policy import PliantPolicy, RuntimePolicy

if TYPE_CHECKING:  # pragma: no cover - grid imports this module
    from repro.sweep.grid import Scenario

#: Builders from (scenario, kwargs) to a policy instance.  Keyed by the
#: policy's display name so ``Scenario.policy`` round-trips through
#: ``RuntimePolicy.name``.  A slack-driven policy takes its threshold
#: from ``Scenario.slack_threshold``.  Backing store for
#: :func:`register_policy` — prefer the function over mutating this dict
#: directly.
POLICY_REGISTRY: dict[str, Callable[[Scenario, dict], RuntimePolicy]] = {
    "pliant": lambda sc, kw: PliantPolicy(
        slack_threshold=sc.slack_threshold, seed=sc.seed, **kw
    ),
    "pliant-impact": lambda sc, kw: PliantPolicy(
        slack_threshold=sc.slack_threshold,
        seed=sc.seed,
        arbiter=ImpactAwareArbiter(),
        **kw,
    ),
    "precise": lambda sc, kw: PrecisePolicy(),
    "static-most-approx": lambda sc, kw: StaticMostApproxPolicy(),
    "static-level": lambda sc, kw: StaticLevelPolicy(dict(kw["levels"])),
    "core-reclaim-only": lambda sc, kw: CoreReclaimOnlyPolicy(
        slack_threshold=sc.slack_threshold, **kw
    ),
}


def register_policy(
    name: str,
    builder: Callable[[Scenario, dict], RuntimePolicy],
    overwrite: bool = False,
) -> Callable[[Scenario, dict], RuntimePolicy]:
    """Register a policy builder under ``name`` for scenarios to reference.

    ``builder(scenario, kwargs)`` must return a fresh policy instance.
    Scenarios carry only the *name* (plus JSON-safe kwargs), which is what
    lets them travel to remote workers: a worker re-resolves the name at
    execution time, so the module calling ``register_policy`` must be
    importable there too (``python -m repro.sweep worker --import
    your.module``).  Returns ``builder`` so it can be used as a decorator
    via ``functools.partial(register_policy, "name")``.
    """
    if not callable(builder):
        raise TypeError(f"policy builder for {name!r} must be callable")
    if not overwrite and name in POLICY_REGISTRY:
        raise ValueError(
            f"policy {name!r} is already registered; pass overwrite=True "
            "to replace it"
        )
    POLICY_REGISTRY[name] = builder
    return builder


def registered_policies() -> tuple[str, ...]:
    """Sorted names of every registered policy."""
    return tuple(sorted(POLICY_REGISTRY))


def check_policy(scenario: Scenario) -> None:
    """Build the scenario's policy once if its name is registered here.

    Called where a scenario is declared, so kwargs the builder cannot
    take (``static-level`` without ``levels``, an unknown keyword) raise
    a ``ValueError`` there, not in a worker.  A policy registered only
    inside workers is unknown here and passes unchecked.
    """
    builder = POLICY_REGISTRY.get(scenario.policy)
    if builder is None:
        return
    try:
        builder(scenario, dict(scenario.policy_kwargs))
    except KeyError as exc:
        raise ValueError(
            f"policy {scenario.policy!r} needs the policy kwarg {exc.args[0]!r}"
        ) from None
    except (TypeError, ValueError) as exc:
        raise ValueError(
            f"policy_kwargs {dict(scenario.policy_kwargs)!r} do not fit "
            f"policy {scenario.policy!r}: {exc}"
        ) from None


def make_policy(scenario: Scenario) -> RuntimePolicy:
    """Instantiate the policy a scenario names."""
    try:
        builder = POLICY_REGISTRY[scenario.policy]
    except KeyError:
        known = ", ".join(sorted(POLICY_REGISTRY))
        raise ValueError(
            f"unknown policy {scenario.policy!r} (known: {known}); "
            "custom policies must be registered with "
            "repro.sweep.register_policy(name, builder) — and the "
            "registering module imported inside remote workers "
            "(worker --import)"
        ) from None
    return builder(scenario, dict(scenario.policy_kwargs))
