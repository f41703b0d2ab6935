"""The search driver: strategy rounds through the sweep engine.

:func:`run_search` is what ``run_experiment(spec, strategy=..., budget=N)``
delegates to.  Each round it asks the strategy for a batch, answers
already-evaluated proposals straight from the search history (they cost
no budget — and on a restarted search the engine's content-addressed
cache answers the rest, which is why killing and re-running a seeded
search completes almost entirely from cache), runs the fresh points
through the engine in one batch (serial, process, or distributed —
bit-identical either way), and feeds the outcomes back.  The budget is
a hard ceiling on unique evaluations.
"""

from __future__ import annotations

from repro.experiment.spec import ExperimentSpec
from repro.search.objective import resolve_objectives
from repro.search.result import RoundRecord, SearchHistory, SearchResult
from repro.search.space import DesignSpace
from repro.search.strategies import resolve_strategy
from repro.sweep.cache import SweepCache
from repro.telemetry import get_recorder


def run_search(
    spec,
    *,
    strategy=None,
    budget: int | None = None,
    objective=None,
    rng_seed: int | None = None,
    engine=None,
    backend=None,
    cache=None,
    workers: int | None = None,
    force: bool = False,
) -> SearchResult:
    """Explore a spec's design space under a budget; returns a SearchResult.

    Explicit keyword arguments override the spec's own ``strategy`` /
    ``budget`` / ``objective`` / ``rng_seed`` fields.  ``strategy`` may
    be a registered name or an already-constructed object implementing
    the :class:`~repro.search.strategies.SearchStrategy` protocol.
    """
    # Imported lazily for the same reason run_experiment defers to us
    # lazily: repro.experiment.run and this module are two doors into one
    # loop, not an import cycle.
    from repro.experiment.run import resolve_engine

    if not isinstance(spec, ExperimentSpec):
        raise TypeError(
            "budgeted search needs an ExperimentSpec (a raw scenario list "
            "has no axes to search over)"
        )

    name = strategy if strategy is not None else spec.strategy
    budget = budget if budget is not None else spec.budget
    objective = objective if objective is not None else (spec.objective or None)
    seed = int(rng_seed if rng_seed is not None else spec.rng_seed)

    space = DesignSpace(spec)
    if isinstance(name, str):
        chosen = resolve_strategy(name)(
            space, budget=budget, objectives=objective, rng_seed=seed
        )
    else:
        chosen = name  # a pre-built strategy object
    label = getattr(chosen, "name", type(chosen).__name__)

    if engine is None and cache is None:
        # The exhaustive path caches only when the caller wires a cache;
        # search caches *by default*: its contract is that every point
        # lands in the SweepCache so an interrupted search re-run with
        # the same seed completes from disk.  REPRO_SWEEP_CACHE still
        # picks the directory.
        cache = SweepCache()
    resolved_engine = resolve_engine(engine, backend, cache, workers)
    history = SearchHistory()
    rounds: list[RoundRecord] = []
    remaining = budget
    best_score = float("-inf")
    best_label = ""
    objectives = tuple(getattr(chosen, "objectives", ())) or resolve_objectives(
        objective
    )
    primary = objectives[0]

    telemetry = get_recorder()
    with telemetry.span(
        "search.run", cat="search", strategy=label,
        budget=-1 if budget is None else budget,
    ):
        while not chosen.done():
            with telemetry.span(
                "search.round", cat="search", round=len(rounds)
            ):
                proposals = chosen.propose(history)
                if not proposals:
                    break
                fresh, seen_in_batch = [], set()
                for scenario in proposals:
                    if scenario not in history and scenario not in seen_in_batch:
                        fresh.append(scenario)
                        seen_in_batch.add(scenario)
                truncated = False
                if remaining is not None and len(fresh) > remaining:
                    fresh, truncated = fresh[:remaining], True
                outcomes = resolved_engine.run(fresh, force=force) if fresh else []
                for outcome in outcomes:
                    history.record(outcome)
                if remaining is not None:
                    remaining -= len(outcomes)
                telemetry.count("search.proposals", len(proposals))
                telemetry.count("search.budget_spent", len(outcomes))
                telemetry.count(
                    "search.replayed", len(proposals) - len(fresh)
                )

                # Observed batch: proposal order, replayed points included,
                # any budget-truncated tail absent.
                batch = [history.get(s) for s in proposals]
                batch = [outcome for outcome in batch if outcome is not None]
                chosen.observe(batch)

                for outcome in outcomes:
                    if space.contains(outcome.scenario):
                        score = primary.score(outcome.result)
                        if score > best_score:
                            best_score = score
                            best_label = outcome.scenario.label()
                rounds.append(
                    RoundRecord(
                        round=len(rounds),
                        proposed=len(proposals),
                        evaluated=len(outcomes),
                        cache_hits=sum(1 for o in outcomes if o.from_cache),
                        best_score=best_score,
                        best_label=best_label,
                    )
                )
                telemetry.event(
                    "strategy.decision",
                    cat="search",
                    strategy=label,
                    round=len(rounds) - 1,
                    proposed=len(proposals),
                    evaluated=len(outcomes),
                    truncated=truncated,
                    best=best_label,
                )
                if truncated or (remaining is not None and remaining <= 0):
                    break

    return SearchResult(
        history.outcomes,
        spec=spec.with_search(
            strategy=label if isinstance(name, str) else spec.strategy,
            budget=budget,
            objective=tuple(o.spec for o in objectives),
            rng_seed=seed,
        ),
        strategy=label,
        budget=budget,
        objectives=objectives,
        rounds=rounds,
        space=space,
    )
