"""End-to-end tests of the assembled webbase against dataset ground truth."""

import pytest

from repro.core.execution import WebBaseConfig
from repro.core.parallel import parallel_site_query, sequential_site_query
from repro.core.stats import format_timing_table, site_query_timings
from repro.core.webbase import WebBase
from repro.vps.cache import CachePolicy
from repro.flogic.syntax import parse_rules
from repro.sites.dataset import NY_ZIPCODES, Car
from repro.sites.world import TIMING_TABLE_HOSTS


JAGUAR_QUERY = (
    "SELECT make, model, year, price, bb_price, safety, contact "
    "WHERE make = 'jaguar' AND year >= 1993 AND condition = 'good' "
    "AND safety IN ('good', 'excellent') AND price < bb_price"
)


def _expected_jaguars(world, hosts):
    """Ground-truth evaluation of the Jaguar query straight off the dataset."""
    expected = set()
    for host in hosts:
        for ad in world.dataset.ads_for(host, make="jaguar"):
            if ad.car.year < 1993:
                continue
            safety = world.dataset.safety_of(ad.car).safety
            if safety not in ("good", "excellent"):
                continue
            bb = world.dataset.bluebook_price(ad.car, "good").bb_price
            if ad.price < bb:
                expected.add(
                    ("jaguar", ad.car.model, ad.car.year, ad.price, bb, safety, ad.contact)
                )
    return expected


class TestJaguarQuery:
    """Example 2.1 / the introduction's running query."""

    def test_answers_match_ground_truth(self, webbase):
        result = webbase.query(JAGUAR_QUERY)
        expected = _expected_jaguars(
            webbase.world,
            [
                "www.newsday.com",
                "www.nytimes.com",
                "www.carpoint.com",
                "www.autoweb.com",
            ],
        )
        assert set(result.rows) == expected
        assert len(result) > 5

    def test_every_answer_is_a_bargain(self, webbase):
        for row in webbase.query(JAGUAR_QUERY).to_dicts():
            assert row["price"] < row["bb_price"]
            assert row["year"] >= 1993
            assert row["safety"] in ("good", "excellent")


class TestLayerConsistency:
    def test_vps_matches_dataset_per_site(self, webbase):
        world = webbase.world
        result = webbase.fetch_vps("newsday", {"make": "ford", "model": "escort"})
        expected = world.dataset.ads_for("www.newsday.com", make="ford", model="escort")
        assert len(result) == len(expected)

    def test_logical_union_covers_vps_sources(self, webbase):
        classifieds = webbase.fetch_logical("classifieds", {"make": "saab"})
        newsday = webbase.fetch_vps("newsday", {"make": "saab"})
        nytimes = webbase.fetch_vps("nytimes", {"manufacturer": "saab"})
        assert len(classifieds) == len(newsday) + len(nytimes)

    def test_navigation_expressions_are_valid_calculus(self, webbase):
        for name in webbase.vps.relation_names:
            text = webbase.navigation_expression(name)
            program = parse_rules(text)
            assert len(program.rules) >= 2, name

    def test_summaries_render(self, webbase):
        assert "virtual physical schema" in webbase.vps_summary()
        assert "logical schema" in webbase.logical_summary()


class TestTimingHarness:
    def test_all_ten_sites_timed(self, webbase):
        timings = site_query_timings(webbase)
        assert [t.host for t in timings] == TIMING_TABLE_HOSTS

    def test_every_site_returns_rows_and_pages(self, webbase):
        for t in site_query_timings(webbase):
            assert t.rows > 0, t.host
            assert t.pages >= 3, t.host  # entry + search + results at least

    def test_elapsed_exceeds_cpu(self, webbase):
        for t in site_query_timings(webbase):
            assert t.elapsed_seconds > t.cpu_seconds
            assert t.network_seconds > 0

    def test_format_table(self, webbase):
        text = format_timing_table(site_query_timings(webbase))
        assert "www.newsday.com" in text and "elapsed" in text


class TestParallelAblation:
    def test_parallel_equals_sequential_results(self, webbase):
        seq = sequential_site_query(webbase)
        par = parallel_site_query(webbase)
        assert seq.rows_by_host == par.rows_by_host

    def test_parallel_elapsed_model_wins(self, webbase):
        outcome = parallel_site_query(webbase)
        assert outcome.parallel_elapsed < outcome.sequential_elapsed
        assert outcome.speedup > 2.0

    def test_worker_cap_respected(self, webbase):
        outcome = parallel_site_query(webbase, max_workers=2)
        assert len(outcome.rows_by_host) == len(TIMING_TABLE_HOSTS)


class TestCachingAblation:
    def test_cached_webbase_equivalent_and_faster(self):
        cached = WebBase.create(WebBaseConfig(cache=CachePolicy.lru()))
        plain = WebBase.create(WebBaseConfig(cache=CachePolicy.noop()))
        query = "SELECT make, model, price WHERE make = 'saab'"
        first = cached.query(query)
        assert first == plain.query(query)
        misses_after_first = cached.cache.misses
        second = cached.query(query)
        assert second == first
        assert cached.cache.misses == misses_after_first  # all hits
        assert cached.cache.hits > 0


class TestDeterminism:
    def test_two_builds_agree(self):
        a = WebBase.create()
        b = WebBase.create()
        query = "SELECT make, model, price WHERE make = 'honda'"
        assert a.query(query) == b.query(query)

    def test_repeated_queries_agree(self, webbase):
        query = "SELECT make, model, price WHERE make = 'bmw'"
        assert webbase.query(query) == webbase.query(query)


class TestNyAreaShopping:
    def test_zip_filter_on_dealers(self, webbase):
        query = (
            "SELECT make, model, price, zip "
            "WHERE make = 'jaguar' AND zip IN ('%s')" % "', '".join(NY_ZIPCODES)
        )
        result = webbase.query(query)
        assert len(result) > 0
        assert all(d["zip"] in NY_ZIPCODES for d in result.to_dicts())

    def test_financing_join(self, webbase):
        result = webbase.query(
            "SELECT make, model, price, duration, rate "
            "WHERE make = 'saab' AND zip = '10001' AND duration = 36"
        )
        if len(result):  # saab ads in 10001 exist at some dealer
            assert all(d["duration"] == 36 for d in result.to_dicts())


class TestUnmappableWorlds:
    """Worlds whose shape the scripted designer sessions do not expect
    fail with a typed error naming the site and the missing
    demonstration — not a bare ``StopIteration`` or ``IndexError``."""

    @pytest.mark.parametrize(
        "seed, ads_per_host, missing",
        [
            (1, 24, "'Car Features' link"),
            (2, 24, "'Car Features' link"),
            (1999, 1, "'Car Features' link"),
            (1999, 5, "'Car Features' link"),
            (1999, 0, "example row in a data table"),
        ],
    )
    def test_raises_a_mapping_error(self, seed, ads_per_host, missing):
        from repro.errors import MappingError, WebBaseError

        with pytest.raises(MappingError) as info:
            WebBase.create(WebBaseConfig(seed=seed, ads_per_host=ads_per_host))
        assert isinstance(info.value, WebBaseError)
        assert info.value.site == "www.newsday.com"
        assert info.value.demonstration.startswith(missing)
        assert "www.newsday.com" in str(info.value)
