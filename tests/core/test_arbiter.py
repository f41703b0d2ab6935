"""Round-robin and impact-aware multi-app arbitration (Section 4.4/6.5)."""

from hypothesis import given
from hypothesis import strategies as st

from repro.core.arbiter import AppView, ImpactAwareArbiter, RoundRobinArbiter
from repro.rng import child_generator


def view(name, level=0, max_level=4, cores=4, nominal=4, inaccs=(), rates=()):
    return AppView(
        name=name,
        level=level,
        max_level=max_level,
        cores=cores,
        nominal_cores=nominal,
        level_inaccuracies=inaccs,
        level_traffic_rates=rates,
    )


@given(seed=st.integers(min_value=0, max_value=2**40))
def test_start_pointer_is_a_fresh_draw_for_its_seed(seed):
    expected = int(child_generator(seed, "arbiter").integers(0, 1 << 16))
    first = RoundRobinArbiter(seed=seed)
    assert first._pointer == expected
    first.escalate([view("a"), view("b")])
    assert first._pointer == expected + 1
    # The second arbiter of the seed starts where the first one did.
    assert RoundRobinArbiter(seed=seed)._pointer == expected


class TestRoundRobinEscalation:
    def test_approximation_before_cores(self):
        arbiter = RoundRobinArbiter(seed=0)
        apps = [view("a"), view("b")]
        decision = arbiter.escalate(apps)
        assert decision.action == "set_level"
        assert decision.level == 4

    def test_rotates_between_apps(self):
        arbiter = RoundRobinArbiter(seed=0)
        apps = [view("a"), view("b")]
        first = arbiter.escalate(apps)
        second = arbiter.escalate(apps)
        assert {first.app_name, second.app_name} == {"a", "b"}

    def test_cores_once_all_maxed(self):
        arbiter = RoundRobinArbiter(seed=0)
        apps = [view("a", level=4), view("b", level=4)]
        decision = arbiter.escalate(apps)
        assert decision.action == "reclaim_core"

    def test_skips_single_core_apps(self):
        arbiter = RoundRobinArbiter(seed=0)
        apps = [view("a", level=4, cores=1), view("b", level=4, cores=3)]
        for _ in range(4):
            decision = arbiter.escalate(apps)
            assert decision.app_name == "b"

    def test_none_when_exhausted(self):
        arbiter = RoundRobinArbiter(seed=0)
        apps = [view("a", level=4, cores=1)]
        assert arbiter.escalate(apps).action == "none"


class TestRoundRobinDeescalation:
    def test_cores_return_first(self):
        arbiter = RoundRobinArbiter(seed=0)
        apps = [view("a", level=4, cores=2, nominal=4), view("b", level=4)]
        decision = arbiter.deescalate(apps)
        assert decision.action == "return_core"
        assert decision.app_name == "a"

    def test_most_reclaimed_first(self):
        arbiter = RoundRobinArbiter(seed=0)
        apps = [
            view("a", cores=3, nominal=4),
            view("b", cores=1, nominal=4),
        ]
        assert arbiter.deescalate(apps).app_name == "b"

    def test_levels_step_down_after_cores(self):
        arbiter = RoundRobinArbiter(seed=0)
        apps = [view("a", level=3)]
        decision = arbiter.deescalate(apps)
        assert decision.action == "set_level"
        assert decision.level == 2

    def test_none_when_fully_relaxed(self):
        arbiter = RoundRobinArbiter(seed=0)
        assert arbiter.deescalate([view("a")]).action == "none"


class TestFairness:
    def test_no_app_monopolized(self):
        """Across a long escalation sequence no app gives up everything
        while a peer gives nothing (paper: round-robin avoids
        disproportionate penalties)."""
        arbiter = RoundRobinArbiter(seed=1)
        levels = {"a": 0, "b": 0, "c": 0}
        cores = {"a": 4, "b": 4, "c": 4}
        for _ in range(9):
            apps = [
                view(n, level=levels[n], cores=cores[n]) for n in sorted(levels)
            ]
            decision = arbiter.escalate(apps)
            if decision.action == "set_level":
                levels[decision.app_name] = decision.level
            elif decision.action == "reclaim_core":
                cores[decision.app_name] -= 1
        assert max(levels.values()) == min(levels.values())  # all maxed
        assert max(cores.values()) - min(cores.values()) <= 1


class TestImpactAware:
    def test_prefers_best_relief_per_quality(self):
        arbiter = ImpactAwareArbiter()
        cheap_relief = view(
            "cheap", inaccs=(0.0, 1.0), rates=(1.0, 0.2), max_level=1
        )
        costly_relief = view(
            "costly", inaccs=(0.0, 4.0), rates=(1.0, 0.9), max_level=1
        )
        decision = arbiter.escalate([cheap_relief, costly_relief])
        assert decision.app_name == "cheap"

    def test_relaxes_most_sacrificing_app(self):
        arbiter = ImpactAwareArbiter()
        mild = view("mild", level=1, inaccs=(0.0, 1.0), max_level=1)
        harsh = view("harsh", level=1, inaccs=(0.0, 4.5), max_level=1)
        decision = arbiter.deescalate([mild, harsh])
        assert decision.app_name == "harsh"

    def test_cores_when_all_maxed(self):
        arbiter = ImpactAwareArbiter()
        apps = [
            view("a", level=1, max_level=1, cores=4),
            view("b", level=1, max_level=1, cores=2),
        ]
        decision = arbiter.escalate(apps)
        assert decision.action == "reclaim_core"
        assert decision.app_name == "a"  # most cores remaining
