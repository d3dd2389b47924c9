"""Dependency-free SVG heatmap for sweep results.

One panel per test, alpha on the x axis, gamma on a log y axis, cell color
mapped linearly from risk 0 (green) to risk 1 (red) and held at red above
risk 1, with both rate boundaries overlaid as curves.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from .errors import ValidationError
from .experiments import SweepRow
from .theory import info_rate, tractable_rate

__all__ = ["render_heatmap_svg"]

_CELL = 34
_MARGIN_L = 64
_MARGIN_B = 40
_MARGIN_T = 28
_GAP = 36

_RED = (214, 69, 51)
_GREEN = (58, 170, 88)


def _risk_color(risk: float) -> str:
    t = min(max(risk, 0.0), 1.0)
    r = round(_GREEN[0] + t * (_RED[0] - _GREEN[0]))
    g = round(_GREEN[1] + t * (_RED[1] - _GREEN[1]))
    b = round(_GREEN[2] + t * (_RED[2] - _GREEN[2]))
    return f"rgb({r},{g},{b})"


def render_heatmap_svg(rows: Sequence[SweepRow]) -> str:
    if not rows:
        raise ValidationError("no sweep rows to render")
    tests = sorted({r.test for r in rows})
    alphas = sorted({r.alpha for r in rows})
    gammas = sorted({r.gamma for r in rows})
    d, s, n = rows[0].d, rows[0].s, rows[0].n
    by_key = {(r.test, r.alpha, r.gamma): r for r in rows}

    panel_w = len(alphas) * _CELL
    panel_h = len(gammas) * _CELL
    width = _MARGIN_L + len(tests) * (panel_w + _GAP)
    height = _MARGIN_T + panel_h + _MARGIN_B

    # overlay curves are positioned by log-interpolating a fractional cell
    # index, so they line up with the drawn cells for any grid spacing
    positive = [(math.log(g), i) for i, g in enumerate(gammas) if g > 0]
    if not positive:
        positive = [(0.0, 0)]
    logs = [p[0] for p in positive]
    idxs = [float(p[1]) for p in positive]

    def y_of_gamma(gamma: float) -> float:
        g_log = math.log(gamma) if gamma > 0 else logs[0] - 1.0
        # clamped at both ends, and three quarters of a cell below the first gamma
        idx = float(np.interp(g_log, logs, idxs)) - (0.75 if g_log < logs[0] else 0.0)
        return _MARGIN_T + panel_h - (idx + 0.5) * _CELL

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'font-family="monospace" font-size="11">'
    ]
    for p, test in enumerate(tests):
        x0 = _MARGIN_L + p * (panel_w + _GAP)
        parts.append(f'<text x="{x0}" y="{_MARGIN_T - 10}">{test}</text>')
        for ia, alpha in enumerate(alphas):
            for ig, gamma in enumerate(gammas):
                row = by_key.get((test, alpha, gamma))
                if row is None:
                    continue
                x = x0 + ia * _CELL
                y = _MARGIN_T + panel_h - (ig + 1) * _CELL
                parts.append(
                    f'<rect x="{x}" y="{y}" width="{_CELL}" height="{_CELL}" '
                    f'fill="{_risk_color(row.risk)}"><title>'
                    f"alpha={alpha:g} gamma={gamma:g} risk={row.risk:.3f}</title></rect>"
                )
        # rate-boundary overlays on the log-gamma scale
        for rate_fn, dash in ((info_rate, ""), (tractable_rate, "4,3")):
            pts = []
            for ia, alpha in enumerate(alphas):
                x = x0 + (ia + 0.5) * _CELL
                y = y_of_gamma(rate_fn(d, s, n, alpha))
                y = min(max(y, _MARGIN_T), _MARGIN_T + panel_h)
                pts.append(f"{x:.1f},{y:.1f}")
            dash_attr = f' stroke-dasharray="{dash}"' if dash else ""
            parts.append(
                f'<polyline points="{" ".join(pts)}" fill="none" stroke="black"'
                f' stroke-width="1.5"{dash_attr}/>'
            )
        for ia, alpha in enumerate(alphas):
            parts.append(
                f'<text x="{x0 + ia * _CELL + 4}" y="{_MARGIN_T + panel_h + 14}">{alpha:g}</text>'
            )
    for ig, gamma in enumerate(gammas):
        y = _MARGIN_T + panel_h - (ig + 0.5) * _CELL + 4
        parts.append(f'<text x="4" y="{y}">{gamma:.4g}</text>')
    parts.append(
        f'<text x="{_MARGIN_L}" y="{height - 8}">solid: info boundary, dashed: tractable '
        f"boundary (d={d}, s={s}, n={n})</text>"
    )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
