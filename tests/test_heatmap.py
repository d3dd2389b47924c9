import re

import numpy as np
import pytest

from wslab import errors, heatmap


def _red(risk: float) -> int:
    match = re.fullmatch(r"rgb\((\d+),(\d+),(\d+)\)", heatmap._risk_color(risk))
    return int(match.group(1))


def test_risk_color_red_channel_monotone():
    # green at risk 0, full red from risk 1 on: summed error never looks better as it grows
    reds = [_red(float(r)) for r in np.linspace(0.0, 2.0, 201)]
    assert all(a <= b for a, b in zip(reds, reds[1:]))
    assert _red(1.0) == _red(1.01) == _red(2.0)


def test_render_empty_rows_raises_validation_error():
    with pytest.raises(errors.ValidationError):
        heatmap.render_heatmap_svg([])
