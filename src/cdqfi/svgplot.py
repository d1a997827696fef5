"""Minimal self-contained SVG line charts (no rendering dependencies)."""

from __future__ import annotations

import numpy as np

_COLORS = ("#1f6feb", "#d73a49", "#2da44e", "#bf8700", "#8250df", "#57606a")

_W, _H = 640, 420
_ML, _MR, _MT, _MB = 70, 20, 36, 56


def _fmt(x: float) -> str:
    return f"{x:.6g}"


def _points(sx, sy, x: np.ndarray, y: np.ndarray) -> str:
    """Polyline coordinates, each map applied to a whole array at once."""
    return " ".join(
        f"{px:.2f},{py:.2f}" for px, py in zip(sx(x).tolist(), sy(y).tolist())
    )


def _ticks(lo: float, hi: float, log: bool) -> np.ndarray:
    if log:
        lo_e = int(np.floor(np.log10(lo)))
        hi_e = int(np.ceil(np.log10(hi)))
        return 10.0 ** np.arange(lo_e, hi_e + 1)
    span = hi - lo
    if span <= 0:
        return np.array([lo])
    step = 10.0 ** np.floor(np.log10(span / 4))
    for mult in (1, 2, 5, 10):
        if span / (step * mult) <= 6:
            step *= mult
            break
    first = np.ceil(lo / step) * step
    return np.arange(first, hi + step / 2, step)


def line_chart(
    path,
    series: list[dict],
    title: str = "",
    xlabel: str = "",
    ylabel: str = "",
    logx: bool = False,
    logy: bool = False,
):
    """Write a multi-series line chart.

    Each series: {"x": array, "y": array, "label": str, optional "dashed"}.
    Non-positive values are dropped on log axes.
    """
    xs_all, ys_all = [], []
    clean = []
    for s in series:
        x = np.asarray(s["x"], dtype=float)
        y = np.asarray(s["y"], dtype=float)
        keep = np.isfinite(x) & np.isfinite(y)
        if logx:
            keep &= x > 0
        if logy:
            keep &= y > 0
        x, y = x[keep], y[keep]
        if x.size == 0:
            continue
        clean.append({**s, "x": x, "y": y})
        xs_all.append(x)
        ys_all.append(y)
    if not clean:
        raise ValueError("nothing to plot")
    xcat = np.concatenate(xs_all)
    ycat = np.concatenate(ys_all)
    xlo, xhi = float(xcat.min()), float(xcat.max())
    ylo, yhi = float(ycat.min()), float(ycat.max())
    if not logx and xlo == xhi:
        xlo, xhi = xlo - 1, xhi + 1
    if not logy and ylo == yhi:
        ylo, yhi = ylo - 1, yhi + 1
    if not logy:
        pad = 0.05 * (yhi - ylo)
        ylo, yhi = ylo - pad, yhi + pad

    def sx(x):
        t = (np.log10(x) - np.log10(xlo)) / (np.log10(xhi) - np.log10(xlo)) if logx \
            else (x - xlo) / (xhi - xlo)
        return _ML + t * (_W - _ML - _MR)

    def sy(y):
        t = (np.log10(y) - np.log10(ylo)) / (np.log10(yhi) - np.log10(ylo)) if logy \
            else (y - ylo) / (yhi - ylo)
        return _H - _MB - t * (_H - _MT - _MB)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_W}" height="{_H}" '
        f'viewBox="0 0 {_W} {_H}" font-family="sans-serif" font-size="12">',
        f'<rect width="{_W}" height="{_H}" fill="white"/>',
        f'<text x="{_W / 2}" y="20" text-anchor="middle" font-size="14">{title}</text>',
    ]
    for xt in _ticks(xlo, xhi, logx):
        if xt < xlo * (1 - 1e-12) or xt > xhi * (1 + 1e-12):
            continue
        px = sx(xt)
        parts.append(
            f'<line x1="{px:.1f}" y1="{_MT}" x2="{px:.1f}" y2="{_H - _MB}" '
            'stroke="#dddddd"/>'
        )
        parts.append(
            f'<text x="{px:.1f}" y="{_H - _MB + 16}" text-anchor="middle">'
            f"{_fmt(xt)}</text>"
        )
    for yt in _ticks(ylo, yhi, logy):
        if yt < ylo * (1 - 1e-12) or yt > yhi * (1 + 1e-12):
            continue
        py = sy(yt)
        parts.append(
            f'<line x1="{_ML}" y1="{py:.1f}" x2="{_W - _MR}" y2="{py:.1f}" '
            'stroke="#dddddd"/>'
        )
        parts.append(
            f'<text x="{_ML - 6}" y="{py + 4:.1f}" text-anchor="end">{_fmt(yt)}</text>'
        )
    parts.append(
        f'<rect x="{_ML}" y="{_MT}" width="{_W - _ML - _MR}" '
        f'height="{_H - _MT - _MB}" fill="none" stroke="#333333"/>'
    )
    for i, s in enumerate(clean):
        color = _COLORS[i % len(_COLORS)]
        pts = _points(sx, sy, s["x"], s["y"])
        dash = ' stroke-dasharray="6,4"' if s.get("dashed") else ""
        parts.append(
            f'<polyline points="{pts}" fill="none" stroke="{color}" '
            f'stroke-width="1.6"{dash}/>'
        )
        ly = _MT + 16 + 16 * i
        parts.append(
            f'<line x1="{_W - _MR - 130}" y1="{ly - 4}" x2="{_W - _MR - 106}" '
            f'y2="{ly - 4}" stroke="{color}" stroke-width="2"{dash}/>'
        )
        parts.append(
            f'<text x="{_W - _MR - 100}" y="{ly}">{s.get("label", f"series {i}")}</text>'
        )
    parts.append(
        f'<text x="{_W / 2}" y="{_H - 14}" text-anchor="middle">{xlabel}</text>'
    )
    parts.append(
        f'<text x="18" y="{_H / 2}" text-anchor="middle" '
        f'transform="rotate(-90 18 {_H / 2})">{ylabel}</text>'
    )
    parts.append("</svg>")
    with open(path, "w") as f:
        f.write("\n".join(parts) + "\n")
