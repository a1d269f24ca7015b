"""Grid rows and their CSV text against per-cell references.

The CSV reference is the per-row f-string the writers used before they
shared `grid_csv`: each coordinate by repr, the class as is, the measure by
repr and a blank for an invalid cell.  Outputs must match it byte for byte
for any rows, so the rows below are built to catch a memo keyed by value
(0.0 against -0.0, equal floats that are distinct objects) or one whose ids
are reused (rows from a generator of fresh floats).

The grid kernels run over blocks of whole rows; the resolutions below put
one row per block at res 2 and 3 against a final short block at res 67
(GRID_BLOCK // 67 = 61 rows, then 6), and every cell is compared against
the scalar disc route and the scalar closed-form measure.
"""

import pytest

from xdoily.bell import bell_m_closed, heatmap_csv, heatmap_m
from xdoily.regions import GRID_BLOCK, classify_by_region, grid_rows, region_csv, sample_region
from xdoily.spectra import CLASSES
from xdoily.states import Group2Params


def reference_region_csv(rows) -> str:
    lines = ["beta1,beta2,class"]
    lines += [f"{b1!r},{b2!r},{cls}" for b1, b2, cls in rows]
    return "\n".join(lines) + "\n"


def reference_heatmap_csv(rows) -> str:
    lines = ["beta1,beta2,m"]
    lines += [f"{b1!r},{b2!r}," + ("" if m is None else repr(m)) for b1, b2, m in rows]
    return "\n".join(lines) + "\n"


def _edge_rows(values):
    zero, neg_zero = 0.0, -0.0
    a, b = float("0.5"), float("0.5")  # equal values, distinct objects
    assert a is not b
    tiny, sum_ = 1e-17, 0.1 + 0.2
    coords = [(zero, neg_zero), (neg_zero, zero), (a, b), (b, a), (zero, zero),
              (neg_zero, neg_zero), (tiny, sum_), (sum_, -tiny), (a, zero), (b, neg_zero)]
    return [(b1, b2, values[k % len(values)]) for k, (b1, b2) in enumerate(coords)]


def test_region_csv_edge_rows_match_reference():
    rows = _edge_rows(["invalid", "separable", "entangled"])
    text = region_csv(rows)
    assert text == reference_region_csv(rows)
    assert "0.0,-0.0,invalid" in text and "-0.0,0.0,separable" in text


def test_heatmap_csv_edge_rows_match_reference():
    rows = _edge_rows([None, 0.0, -0.0, 1e-17, 0.1 + 0.2, float("0.5")])
    text = heatmap_csv(rows)
    assert text == reference_heatmap_csv(rows)
    assert "0.0,-0.0,\n" in text


def test_csv_of_generated_rows_matches_reference():
    # Each row's floats are fresh objects that die with the row, so their
    # ids would be reused if the writer did not hold them.
    def rows(signs):
        for k in range(200):
            yield (signs[k % 2] * (k % 7) * 0.25, float(k) / 3.0, "separable")

    signs = (1.0, -1.0)
    assert region_csv(rows(signs)) == reference_region_csv(list(rows(signs)))
    assert region_csv(iter([])) == reference_region_csv([]) == "beta1,beta2,class\n"


GRID_ARGS = (0.45, 0.4, -0.3)  # beta0, beta3, beta4: all three classes appear


@pytest.mark.parametrize("resolution", [2, 3, 67])
def test_grid_blocks_hold_whole_rows(resolution):
    sizes = []

    def row_values(params):
        sizes.append(len(params.m))
        return [len(sizes)] * len(params.m)

    rows = grid_rows(*GRID_ARGS, 1, resolution, row_values)
    per_block = min(resolution, GRID_BLOCK // resolution)
    full, rest = divmod(resolution, per_block)
    assert sizes == [per_block * resolution] * full + ([rest * resolution] if rest else [])
    assert len(rows) == resolution * resolution
    # The block a cell came from follows its row: whole rows per block, in order.
    assert [value for _, _, value in rows] == [
        1 + i // per_block for i in range(resolution) for _ in range(resolution)
    ]


@pytest.mark.parametrize("resolution", [2, 3, 67])
@pytest.mark.parametrize("t", [1, 2])
def test_grid_cells_match_scalar_routes_across_blocks(resolution, t):
    beta0, beta3, beta4 = GRID_ARGS
    region = sample_region(beta0, beta3, beta4, t, resolution)
    heat = heatmap_m(beta0, beta3, beta4, resolution, t=t)
    assert [row[:2] for row in region] == [row[:2] for row in heat]
    for (b1, b2, cls), (_, _, m) in zip(region, heat):
        params = Group2Params(0.0, 0.0, beta0, [[b1, b2], [beta3, beta4]], t)
        assert cls == classify_by_region(params)
        assert m == (None if cls == "invalid" else bell_m_closed(params).m_value)
    if resolution == 67:
        assert {cls for _, _, cls in region} == set(CLASSES)
    assert region_csv(region) == reference_region_csv(region)
    assert heatmap_csv(heat) == reference_heatmap_csv(heat)
