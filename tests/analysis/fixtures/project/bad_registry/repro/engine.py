"""Deterministic dispatcher over the policy registry."""

POLICY_REGISTRY = {}


def register_policy(name, builder):
    POLICY_REGISTRY[name] = builder


def make(name):
    import repro.telemetry.plugin  # noqa: F401  (fills the registry)

    return POLICY_REGISTRY[name]()
