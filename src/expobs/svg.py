"""Deterministic SVG 1.1 figures rendered from analysis reports.

Two panels: a bar chart of the delta-star spectrum (the +inf sentinel drawn
as a taller, hatched bar) and one row of grouped boxes per quotient
threshold.  Geometry is integer pixels derived only from the report content,
so identical reports give byte-identical documents.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import MalformedReport
from .exact import INF, parse_extended

_BAR_W = 42
_BAR_GAP = 18
_CHART_H = 190
_MARGIN = 32
_POINT_W = 34
_ROW_H = 64


def _esc(text: str) -> str:
    return (
        str(text)
        .replace("&", "&amp;")
        .replace("<", "&lt;")
        .replace(">", "&gt;")
        .replace('"', "&quot;")
    )


def _require(report, key):
    if not isinstance(report, dict) or key not in report:
        raise MalformedReport(f"report lacks {key!r}")
    return report[key]


def _spectrum_panel(observables, x0: int, y0: int):
    entries = []
    for obs in observables:
        if (not isinstance(obs, dict) or "delta_star" not in obs
                or not isinstance(obs.get("index"), int)):
            raise MalformedReport("observable entry lacks delta_star/index")
        entries.append((parse_extended(obs["delta_star"]), obs["index"]))
    entries.sort(key=lambda e: (e[0] is INF, e[0] if e[0] is not INF else 0, e[1]))
    finite = [v for v, _ in entries if v is not INF]
    top = max(finite) if finite else Fraction(1)
    if top == 0:
        top = Fraction(1)
    parts = [
        f'<text x="{x0}" y="{y0 - 10}" class="title">'
        "delta-star spectrum (sorted)</text>"
    ]
    x = x0
    base = y0 + _CHART_H
    for value, index in entries:
        if value is INF:
            height = _CHART_H + 14
            label = "inf"
            fill = "url(#inf-hatch)"
        else:
            height = int(_CHART_H * value / top) if value > 0 else 2
            label = str(value.numerator) if value.denominator == 1 else (
                f"{value.numerator}/{value.denominator}"
            )
            fill = "#4878a8"
        parts.append(
            f'<rect x="{x}" y="{base - height}" width="{_BAR_W}" '
            f'height="{height}" fill="{fill}" stroke="#223"/>'
        )
        parts.append(
            f'<text x="{x + _BAR_W // 2}" y="{base + 14}" class="lbl" '
            f'text-anchor="middle">phi{index}</text>'
        )
        parts.append(
            f'<text x="{x + _BAR_W // 2}" y="{base - height - 4}" class="val" '
            f'text-anchor="middle">{_esc(label)}</text>'
        )
        x += _BAR_W + _BAR_GAP
    width = max(x - _BAR_GAP, x0 + 100)
    return "\n".join(parts), width, base + 24


def _blocks_panel(quotients, x0: int, y0: int):
    parts = []
    y = y0
    max_x = x0 + 100
    for quotient in quotients:
        threshold = _require(quotient, "threshold")
        blocks = _require(quotient, "blocks")
        if not isinstance(blocks, list) or not all(isinstance(b, list) for b in blocks):
            raise MalformedReport("quotient blocks must be lists of points")
        parts.append(
            f'<text x="{x0}" y="{y + 12}" class="title">quotient blocks at '
            f"delta = {_esc(threshold)}</text>"
        )
        x = x0
        box_y = y + 20
        for block in blocks:
            box_w = _POINT_W * len(block) + 12
            parts.append(
                f'<rect x="{x}" y="{box_y}" width="{box_w}" height="30" '
                'rx="6" fill="#e8eef6" stroke="#4878a8"/>'
            )
            for i, point in enumerate(block):
                parts.append(
                    f'<text x="{x + 6 + _POINT_W * i + _POINT_W // 2}" '
                    f'y="{box_y + 20}" class="lbl" text-anchor="middle">'
                    f"{_esc(point)}</text>"
                )
            x += box_w + 16
        max_x = max(max_x, x)
        y += _ROW_H
    return "\n".join(parts), max_x, y


def plot(report: dict) -> str:
    """Render an analysis report to a standalone SVG document."""
    observables = _require(report, "observables")
    quotients = _require(report, "quotients")
    if not isinstance(observables, list) or not isinstance(quotients, list):
        raise MalformedReport("observables and quotients must be lists")

    body = []
    width = 360
    y = _MARGIN + 16
    if observables:
        panel, panel_w, panel_bottom = _spectrum_panel(observables, _MARGIN, y)
        body.append(panel)
        width = max(width, panel_w + _MARGIN)
        y = panel_bottom + 28
    panel, panel_w, panel_bottom = _blocks_panel(quotients, _MARGIN, y)
    body.append(panel)
    width = max(width, panel_w + _MARGIN)
    height = panel_bottom + _MARGIN

    return "\n".join(
        [
            '<?xml version="1.0" encoding="UTF-8"?>',
            f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
            f'width="{width}" height="{height}" '
            f'viewBox="0 0 {width} {height}">',
            "<defs>",
            '<pattern id="inf-hatch" width="6" height="6" '
            'patternUnits="userSpaceOnUse" patternTransform="rotate(45)">',
            '<rect width="6" height="6" fill="#4878a8"/>',
            '<line x1="0" y1="0" x2="0" y2="6" stroke="#dce6f2" stroke-width="2"/>',
            "</pattern>",
            "<style>",
            "text { font-family: monospace; }",
            ".title { font-size: 13px; fill: #223; }",
            ".lbl { font-size: 11px; fill: #223; }",
            ".val { font-size: 11px; fill: #345; }",
            "</style>",
            "</defs>",
            f'<rect x="0" y="0" width="{width}" height="{height}" fill="#ffffff"/>',
            *body,
            "</svg>",
            "",
        ]
    )
