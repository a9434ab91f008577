"""Tests for the website catalogs."""

import pytest

from repro.workload.catalog import (
    CLOSED_WORLD_SITES,
    NON_SENSITIVE_LABEL,
    closed_world,
    marquee_sites,
    open_world,
)


class TestClosedWorld:
    def test_exactly_100_sites(self):
        """Appendix A lists the 100 closed-world websites."""
        assert len(CLOSED_WORLD_SITES) == 100

    def test_no_duplicates(self):
        assert len(set(CLOSED_WORLD_SITES)) == 100

    def test_paper_examples_present(self):
        for name in ("nytimes.com", "amazon.com", "google.com"):
            assert name in CLOSED_WORLD_SITES

    def test_weather_is_marquee_only(self):
        """weather.com appears in Figs 3-5 but not in Appendix A."""
        assert "weather.com" not in CLOSED_WORLD_SITES

    def test_same_content_exclusion(self):
        """The paper excludes same-content variants (google.co.uk etc.)."""
        assert "google.com" in CLOSED_WORLD_SITES
        assert "google.co.uk" not in CLOSED_WORLD_SITES

    def test_subset_selection(self):
        sites = closed_world(10)
        assert len(sites) == 10
        assert [s.name for s in sites] == list(CLOSED_WORLD_SITES[:10])

    def test_full_catalog_default(self):
        assert len(closed_world()) == 100

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            closed_world(0)
        with pytest.raises(ValueError):
            closed_world(101)

    def test_marquee_signatures_used(self):
        sites = {s.name: s for s in closed_world()}
        # nytimes keeps its hand-written signature inside the catalog.
        assert sites["nytimes.com"].style.memory_weight == pytest.approx(1.2)


class TestMarqueeSites:
    def test_order_matches_figures(self):
        assert [s.name for s in marquee_sites()] == [
            "nytimes.com",
            "amazon.com",
            "weather.com",
        ]


class TestOpenWorld:
    def test_count(self):
        assert len(open_world(25)) == 25

    def test_unique_signatures(self):
        sites = open_world(20)
        seeds = {s.seed for s in sites}
        assert len(seeds) == 20

    def test_no_collision_with_closed_world(self):
        closed_seeds = {s.seed for s in closed_world()}
        open_seeds = {s.seed for s in open_world(100)}
        assert not closed_seeds & open_seeds

    def test_zero_sites(self):
        assert open_world(0) == []

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            open_world(-1)


class TestLabels:
    def test_non_sensitive_label_is_not_a_site(self):
        assert NON_SENSITIVE_LABEL not in CLOSED_WORLD_SITES
