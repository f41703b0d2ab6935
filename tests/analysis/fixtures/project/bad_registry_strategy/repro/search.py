"""Deterministic dispatcher over the strategy table."""

STRATEGIES = {}


def register_strategy(name, strategy):
    STRATEGIES[name] = strategy


def resolve(name):
    return STRATEGIES[name]()
