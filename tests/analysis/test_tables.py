"""Tests for table formatting and the reproduction drivers."""

import pytest

from repro.analysis import (ComparisonRow, format_comparison_table,
                            format_simple_table, ratio,
                            reproduce_content_experiments,
                            reproduce_modem_experiment,
                            reproduce_protocol_table)


def test_ratio():
    assert ratio(2.0, 1.0) == 2.0
    assert ratio(0.0, 0.0) == 1.0
    assert ratio(1.0, 0.0) == float("inf")


def test_format_simple_table_alignment():
    text = format_simple_table("T", ["col", "x"],
                               [["aaa", "1"], ["b", "22"]])
    lines = text.splitlines()
    assert lines[0] == "T"
    assert lines[1] == "="
    assert "col" in lines[2]
    assert lines[4].startswith("aaa")
    # Columns line up.
    assert lines[4].index("1") == lines[5].index("22")


def test_reproduce_protocol_table_smoke():
    rows, text = reproduce_protocol_table("Apache", "LAN", runs=1)
    assert len(rows) == 8
    assert "Table 5" in text
    assert "HTTP/1.1 Pipelined" in text
    for row in rows:
        assert row.paper is not None
        assert row.measured.packets > 0


def test_comparison_row_cells_include_ratios():
    rows, _ = reproduce_protocol_table("Apache", "LAN", runs=1)
    cells = rows[0].cells()
    assert len(cells) == 12     # measured + paper + two ratio columns


def test_reproduce_modem_experiment_smoke():
    results, text = reproduce_modem_experiment(runs=1)
    assert len(results) == 4
    assert "Modem compression" in text
    assert "saved" in text


def test_reproduce_content_experiments_smoke(monkeypatch, tmp_path):
    from repro.content import artifacts, transform
    encoded = []

    def counting_encode_png(image, **kwargs):
        encoded.append(image)
        return encode_png(image, **kwargs)

    encode_png = transform.encode_png
    monkeypatch.setattr(transform, "encode_png", counting_encode_png)
    monkeypatch.chdir(tmp_path)             # a cleared store's blobs
    monkeypatch.setattr(artifacts, "_DEFAULT_STORE",
                        artifacts.ArtifactStore())
    results, text = reproduce_content_experiments()
    # Each distinct static image is encoded once on a cleared artifact
    # store (40 images, 39 distinct: the two rules have equal pixels),
    # and not again by the next report.
    assert len(encoded) == 39
    assert reproduce_content_experiments() == (results, text)
    assert len(encoded) == 39
    assert results["static_png_total"] < results["static_gif_total"]
    assert results["css_requests_saved"] >= 20
    assert "Content experiments" in text
