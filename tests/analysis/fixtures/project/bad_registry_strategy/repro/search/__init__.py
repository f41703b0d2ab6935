"""Deterministic dispatcher over the strategy table."""

STRATEGIES = {}


def register_strategy(name, strategy):
    STRATEGIES[name] = strategy


def resolve(name):
    return STRATEGIES[name]()


from ..telemetry import strategies  # noqa: E402,F401  (fills STRATEGIES)
