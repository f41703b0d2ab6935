"""gprof-style work profiler."""

from repro.apps import make_app
from repro.search.profiler import WorkProfiler


class TestProfile:
    def test_shares_in_range(self, kmeans_app):
        profiles = WorkProfiler(kmeans_app).profile()
        assert all(0.0 <= p.work_share <= 1.0 for p in profiles)

    def test_sorted_hottest_first(self, kmeans_app):
        profiles = WorkProfiler(kmeans_app).profile()
        shares = [p.work_share for p in profiles]
        assert shares == sorted(shares, reverse=True)

    def test_covers_all_knobs(self, kmeans_app):
        profiles = WorkProfiler(kmeans_app).profile()
        assert {p.knob_name for p in profiles} == set(kmeans_app.knobs())

    def test_kmeans_hot_loop_is_points(self, kmeans_app):
        # The assignment scan dominates k-means; the profiler must find it.
        hottest = WorkProfiler(kmeans_app).profile()[0]
        assert hottest.knob_name in ("perforate_points", "perforate_iters")


class TestHotSites:
    def test_max_sites_cap(self):
        app = make_app("plsa")
        sites = WorkProfiler(app).hot_sites(max_sites=2)
        assert len(sites) == 2

    def test_returns_knob_objects(self, kmeans_app):
        sites = WorkProfiler(kmeans_app).hot_sites()
        knobs = kmeans_app.knobs()
        for name, knob in sites.items():
            assert knobs[name] is not knob or knobs[name] == knob
