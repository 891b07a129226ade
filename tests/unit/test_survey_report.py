"""Unit tests: literature survey corpus + report rendering."""

import pytest

from repro.core.report import (
    render_interval_row,
    render_series,
    render_table,
    render_violin,
)
from repro.core.survey import (
    VENUES,
    attribute_rates,
    bias_blind_count,
    generate_corpus,
    papers_per_venue,
    single_setup_fraction,
    survey_table,
)
from repro.stats import kernel_density


class TestSurveyCorpus:
    def test_exactly_133_papers(self):
        assert len(generate_corpus()) == 133

    def test_four_venues_covered(self):
        counts = papers_per_venue(generate_corpus())
        assert set(counts) == set(VENUES)
        assert all(c > 0 for c in counts.values())
        assert sum(counts.values()) == 133

    def test_hard_constraint_nobody_controls_for_bias(self):
        corpus = generate_corpus()
        assert bias_blind_count(corpus) == 133
        rates = attribute_rates(corpus)
        assert rates["reports_environment_size"] == 0.0
        assert rates["reports_link_order"] == 0.0

    def test_majority_single_platform(self):
        assert single_setup_fraction(generate_corpus()) > 0.5

    def test_deterministic(self):
        assert generate_corpus(3) == generate_corpus(3)
        assert generate_corpus(3) != generate_corpus(4)

    def test_all_records_marked_synthetic(self):
        assert all(rec.synthetic for rec in generate_corpus())

    def test_survey_table_rows(self):
        rows = dict(survey_table(generate_corpus()))
        assert rows["papers surveyed"] == "133"
        assert rows["report environment size"] == "0"
        assert rows["report link order"] == "0"
        assert rows["blind to both biases"] == "133"


class TestRenderTable:
    def test_alignment_and_rule(self):
        out = render_table(["name", "value"], [["a", 1], ["long-name", 22]])
        lines = out.splitlines()
        assert lines[0].startswith("name")
        assert set(lines[1]) <= {"-", " "}
        assert len(lines) == 4

    def test_row_width_mismatch_rejected(self):
        with pytest.raises(ValueError):
            render_table(["a", "b"], [["only"]])

    def test_title_included(self):
        assert render_table(["h"], [["x"]], title="T1").startswith("T1")


class TestRenderSeries:
    def test_reference_marker_present(self):
        out = render_series([1, 2], [0.9, 1.1], reference=1.0)
        assert "|" in out
        assert "0.9000" in out and "1.1000" in out

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(ValueError):
            render_series([1], [1.0, 2.0])

    def test_scale_line(self):
        out = render_series([1], [5.0], title="t", reference=None)
        assert "scale:" in out


class TestRenderViolin:
    def test_contains_quartiles(self):
        vs = kernel_density([1.0, 2.0, 3.0, 4.0, 5.0])
        out = render_violin(vs, title="v")
        assert "median=" in out and out.startswith("v")

    def test_degenerate(self):
        vs = kernel_density([2.0, 2.0])
        assert "all values" in render_violin(vs)


class TestRenderInterval:
    def test_interval_markers(self):
        out = render_interval_row(
            "x", lo=0.9, mean=1.0, hi=1.1, scale=(0.8, 1.2), reference=1.0
        )
        assert "(" in out and ")" in out and "*" in out
