"""Tests for the SVG renderer.

The renderer emits plain SVG text, so the tests parse the documents with
ElementTree to prove they are well-formed XML and then inspect the data-
attributes that tie plot geometry back to the numbers it was drawn from.
"""

import xml.etree.ElementTree as ET

import pytest

from semnav import (
    BenchRecord,
    Point2,
    render_boxplot_svg,
    render_map_svg,
    render_summary_svg,
    set_doorway_blocked,
    summarize,
)


def _parse(svg: str) -> ET.Element:
    return ET.fromstring(svg)


def _groups_by_layer(root: ET.Element) -> dict:
    return {
        el.get("data-layer"): el
        for el in root.iter()
        if el.get("data-layer") is not None
    }


def _local(tag: str) -> str:
    return tag.rsplit("}", 1)[-1]


# ---------------------------------------------------------------------------
# map rendering
# ---------------------------------------------------------------------------


def test_map_svg_is_well_formed_xml(threeroom_scene):
    root = _parse(render_map_svg(threeroom_scene))
    assert _local(root.tag) == "svg"
    assert root.get("xmlns") is None  # xmlns is consumed by the parser
    assert float(root.get("width")) == 800.0


def test_map_svg_base_layers(threeroom_scene):
    layers = _groups_by_layer(_parse(render_map_svg(threeroom_scene)))
    assert set(layers) == {"rooms", "walls", "doorways"}

    rooms = [el for el in layers["rooms"] if el.get("data-room")]
    assert {el.get("data-room") for el in rooms} == {"r1", "r2", "r3"}
    # Without a built map the walls layer shows the raw room walls.
    wall_lines = [el for el in layers["walls"] if _local(el.tag) == "line"]
    assert len(wall_lines) == 12

    doors = [el for el in layers["doorways"] if el.get("data-doorway")]
    assert {el.get("data-doorway") for el in doors} == {"d1", "d2"}


def test_map_svg_uses_carved_walls_when_map_given(threeroom_scene, threeroom_map):
    layers = _groups_by_layer(_parse(render_map_svg(threeroom_scene, threeroom_map)))
    wall_lines = [el for el in layers["walls"] if _local(el.tag) == "line"]
    assert len(wall_lines) == len(threeroom_map.walls.segments) == 16


def test_map_svg_blocked_doorway_changes_color(threeroom_scene):
    open_layers = _groups_by_layer(_parse(render_map_svg(threeroom_scene)))
    open_colors = {
        el.get("data-doorway"): el.get("stroke") for el in open_layers["doorways"]
    }
    assert open_colors["d1"] == open_colors["d2"]

    blocked = set_doorway_blocked(threeroom_scene, "d1", True)
    layers = _groups_by_layer(_parse(render_map_svg(blocked)))
    colors = {el.get("data-doorway"): el.get("stroke") for el in layers["doorways"]}
    assert colors["d1"] != colors["d2"]
    assert colors["d2"] == open_colors["d2"]


def test_map_svg_path_overlay(threeroom_scene):
    path = [Point2(1.0, 1.0), Point2(4.0, 2.0), Point2(8.0, 2.0), Point2(10.0, 2.0)]
    root = _parse(render_map_svg(threeroom_scene, path=path))
    polylines = [el for el in root.iter() if _local(el.tag) == "polyline"]
    assert len(polylines) == 1
    poly = polylines[0]
    assert poly.get("data-layer") == "path"
    assert len(poly.get("points").split()) == len(path)


def test_map_svg_optional_layers_absent_by_default(threeroom_scene):
    layers = _groups_by_layer(_parse(render_map_svg(threeroom_scene)))
    for name in ("path", "sdf"):
        assert name not in layers


def test_map_svg_sdf_underlay(threeroom_scene, threeroom_map):
    root = _parse(render_map_svg(threeroom_scene, threeroom_map, show_sdf=True))
    layers = _groups_by_layer(root)
    assert "sdf" in layers
    cells = [el for el in layers["sdf"] if _local(el.tag) == "rect"]
    assert len(cells) > 100
    assert int(layers["sdf"].get("data-stride")) >= 1
    # The heat map goes under the walls so the layout stays readable.
    order = [el.get("data-layer") for el in root if el.get("data-layer")]
    assert order.index("sdf") < order.index("walls")


def test_map_svg_sdf_requires_map(threeroom_scene):
    layers = _groups_by_layer(_parse(render_map_svg(threeroom_scene, show_sdf=True)))
    assert "sdf" not in layers


# ---------------------------------------------------------------------------
# benchmark plots
# ---------------------------------------------------------------------------


def _record(qid, mode, *, solved=True, length=None, samples=1, time_s=0.1):
    return BenchRecord(
        query_id=qid,
        mode=mode,
        seed=qid,
        solved=solved,
        samples=samples,
        path_length=length,
        time_s=time_s,
    )


@pytest.fixture()
def two_mode_summary():
    records = []
    for i, v in enumerate([3.0, 1.0, 5.0, 2.0, 4.0]):
        records.append(
            _record(i, "irrt", length=v, samples=int(10 * v), time_s=v / 10.0)
        )
        records.append(
            _record(i, "irrt_sg", length=v + 1.0, samples=int(5 * v), time_s=v / 20.0)
        )
    return summarize(records)


def test_boxplot_data_attributes_match_summary(two_mode_summary):
    svg = render_boxplot_svg(two_mode_summary, "path_length_m")
    root = _parse(svg)
    boxes = {
        el.get("data-mode"): el for el in root.iter() if el.get("data-mode") is not None
    }
    assert set(boxes) == {"irrt", "irrt_sg"}
    for mode, el in boxes.items():
        stats = two_mode_summary[mode]["path_length_m"]
        assert el.get("data-metric") == "path_length_m"
        # The embedded values are the repr of the summary entries, so the
        # plot can be checked against the exact numbers it encodes.
        assert el.get("data-min") == repr(stats["min"])
        assert el.get("data-q1") == repr(stats["q1"])
        assert el.get("data-median") == repr(stats["median"])
        assert el.get("data-q3") == repr(stats["q3"])
        assert el.get("data-max") == repr(stats["max"])


def test_boxplot_integer_metric_attributes(two_mode_summary):
    root = _parse(render_boxplot_svg(two_mode_summary, "samples"))
    box = next(el for el in root.iter() if el.get("data-mode") == "irrt")
    stats = two_mode_summary["irrt"]["samples"]
    assert box.get("data-median") == repr(stats["median"])
    assert box.get("data-max") == repr(stats["max"])


def test_boxplot_rejects_missing_metric(two_mode_summary):
    with pytest.raises(ValueError, match="no data for metric 'turn_count'"):
        render_boxplot_svg(two_mode_summary, "turn_count")


def test_boxplot_rejects_all_unsolved_lengths():
    records = [
        _record(i, "irrt", solved=False, length=None, samples=3) for i in range(4)
    ]
    summary = summarize(records)
    with pytest.raises(ValueError, match="path_length_m"):
        render_boxplot_svg(summary, "path_length_m")
    # Samples are recorded regardless of success, so that panel still works.
    root = _parse(render_boxplot_svg(summary, "samples"))
    assert any(el.get("data-mode") == "irrt" for el in root.iter())


def test_boxplot_title_defaults_to_metric(two_mode_summary):
    root = _parse(render_boxplot_svg(two_mode_summary, "time_s"))
    texts = [el.text for el in root.iter() if _local(el.tag) == "text"]
    assert "time_s" in texts


def test_summary_svg_stacks_one_panel_per_metric(two_mode_summary):
    root = _parse(render_summary_svg(two_mode_summary))
    metrics = {el.get("data-metric") for el in root.iter() if el.get("data-metric")}
    assert metrics == {"path_length_m", "samples", "time_s"}
    assert float(root.get("height")) == 3 * 320.0


def test_summary_svg_skips_empty_metrics():
    records = [
        _record(i, "irrt", solved=False, length=None, samples=3) for i in range(4)
    ]
    root = _parse(render_summary_svg(summarize(records)))
    metrics = {el.get("data-metric") for el in root.iter() if el.get("data-metric")}
    assert metrics == {"samples", "time_s"}
    assert float(root.get("height")) == 2 * 320.0


def test_summary_svg_rejects_empty_summary():
    with pytest.raises(ValueError, match="no plottable metrics"):
        render_summary_svg({})
