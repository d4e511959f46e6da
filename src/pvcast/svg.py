"""Dependency-free SVG emission for forecast plots."""

import numpy as np

WIDTH, HEIGHT = 720, 360
MARGIN = 48
COLORS = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd")


def _scale(values, lo, hi, out_lo, out_hi):
    span = hi - lo if hi > lo else 1.0
    return out_lo + (np.asarray(values, dtype=float) - lo) / span * (out_hi - out_lo)


def _polyline(xs, ys, color):
    points = " ".join(f"{x:.2f},{y:.2f}" for x, y in zip(xs, ys))
    return f'<polyline fill="none" stroke="{color}" stroke-width="2.0" points="{points}"/>'


def _frame(title, y_lo, y_hi):
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" height="{HEIGHT}" '
        f'viewBox="0 0 {WIDTH} {HEIGHT}">',
        f'<rect width="{WIDTH}" height="{HEIGHT}" fill="white"/>',
        f'<text x="{WIDTH / 2:.0f}" y="20" text-anchor="middle" font-family="sans-serif" '
        f'font-size="14">{title}</text>',
        f'<line x1="{MARGIN}" y1="{HEIGHT - MARGIN}" x2="{WIDTH - MARGIN}" '
        f'y2="{HEIGHT - MARGIN}" stroke="black"/>',
        f'<line x1="{MARGIN}" y1="{MARGIN}" x2="{MARGIN}" y2="{HEIGHT - MARGIN}" '
        f'stroke="black"/>',
        f'<text x="{WIDTH / 2:.0f}" y="{HEIGHT - 10}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="11">hour ahead</text>',
        f'<text x="14" y="{MARGIN - 8}" font-family="sans-serif" font-size="11">'
        f'{y_hi:.2f}</text>',
        f'<text x="14" y="{HEIGHT - MARGIN}" font-family="sans-serif" font-size="11">'
        f'{y_lo:.2f}</text>',
    ]
    return parts


def line_chart(series, title: str, path) -> None:
    """Write labeled line series (label, y-values) indexed 1..n to an SVG."""
    all_y = np.concatenate([np.asarray(ys, dtype=float) for _, ys in series])
    y_lo, y_hi = float(all_y.min()), float(all_y.max())
    if y_hi <= y_lo:
        y_hi = y_lo + 1.0
    parts = _frame(title, y_lo, y_hi)
    for i, (label, ys) in enumerate(series):
        ys = np.asarray(ys, dtype=float)
        xs = _scale(np.arange(1, ys.size + 1), 1, ys.size, MARGIN, WIDTH - MARGIN)
        ypix = _scale(ys, y_lo, y_hi, HEIGHT - MARGIN, MARGIN)
        color = COLORS[i % len(COLORS)]
        parts.append(_polyline(xs, ypix, color))
        parts.append(f'<text x="{WIDTH - MARGIN - 4}" y="{MARGIN + 16 * i:.0f}" '
                     f'text-anchor="end" font-family="sans-serif" font-size="11" '
                     f'fill="{color}">{label}</text>')
    parts.append("</svg>")
    with open(path, "w") as fh:
        fh.write("\n".join(parts) + "\n")


def fan_chart(expected, lower, upper, title: str, path) -> None:
    """Expected-value line with a shaded band between two quantile series."""
    expected = np.asarray(expected, dtype=float)
    lower = np.asarray(lower, dtype=float)
    upper = np.asarray(upper, dtype=float)
    y_lo = float(min(lower.min(), 0.0))
    y_hi = float(max(upper.max(), 1e-9))
    parts = _frame(title, y_lo, y_hi)
    xs = _scale(np.arange(1, expected.size + 1), 1, expected.size, MARGIN, WIDTH - MARGIN)
    up = _scale(upper, y_lo, y_hi, HEIGHT - MARGIN, MARGIN)
    dn = _scale(lower, y_lo, y_hi, HEIGHT - MARGIN, MARGIN)
    band = " ".join(f"{x:.2f},{y:.2f}" for x, y in zip(xs, up))
    band += " " + " ".join(f"{x:.2f},{y:.2f}" for x, y in zip(xs[::-1], dn[::-1]))
    parts.append(f'<polygon fill="#1f77b4" fill-opacity="0.2" stroke="none" points="{band}"/>')
    mid = _scale(expected, y_lo, y_hi, HEIGHT - MARGIN, MARGIN)
    parts.append(_polyline(xs, mid, COLORS[0]))
    parts.append("</svg>")
    with open(path, "w") as fh:
        fh.write("\n".join(parts) + "\n")
