"""Minimal static SVG line charts, dependency-free and timestamp-free.

Good enough for kernel-density curves over a 0-100% axis; output is
deterministic so charts can be diffed byte-for-byte.
"""

WIDTH = 720
HEIGHT = 432
MARGIN_LEFT = 64
MARGIN_RIGHT = 24
MARGIN_TOP = 40
MARGIN_BOTTOM = 56

PALETTE = [
    "#bbbbbb",
    "#888888",
    "#444444",
    "#e08214",
    "#2166ac",
    "#b2182b",
    "#1b7837",
    "#762a83",
]


def _esc(text):
    return (
        str(text)
        .replace("&", "&amp;")
        .replace("<", "&lt;")
        .replace(">", "&gt;")
        .replace('"', "&quot;")
    )


def render_line_chart(curves, markers=(), title="", x_label="", y_label=""):
    """Render an SVG string.

    curves: iterable of (label, xs, ys) with xs in [0, 1] (plotted as %).
    markers: iterable of (label, x) vertical lines for point masses.
    """
    curves = [(label, list(xs), list(ys)) for label, xs, ys in curves]
    markers = [(label, float(x)) for label, x in markers]
    y_max = max((max(ys) for _, _, ys in curves if ys), default=1.0)
    if y_max <= 0:
        y_max = 1.0

    plot_w = WIDTH - MARGIN_LEFT - MARGIN_RIGHT
    plot_h = HEIGHT - MARGIN_TOP - MARGIN_BOTTOM

    def px(x):
        return MARGIN_LEFT + x * plot_w

    def py(y):
        return MARGIN_TOP + (1.0 - y / (y_max * 1.05)) * plot_h

    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="0 0 {WIDTH} {HEIGHT}" '
        f'width="{WIDTH}" height="{HEIGHT}" font-family="sans-serif" font-size="13">',
        f'<rect width="{WIDTH}" height="{HEIGHT}" fill="white"/>',
    ]
    if title:
        parts.append(
            f'<text x="{WIDTH / 2:.1f}" y="24" text-anchor="middle" '
            f'font-size="16">{_esc(title)}</text>'
        )

    # axes and x ticks every 20 percentage points
    x0, x1 = px(0.0), px(1.0)
    y0, y1 = py(0.0), MARGIN_TOP
    parts.append(
        f'<line x1="{x0:.1f}" y1="{y0:.1f}" x2="{x1:.1f}" y2="{y0:.1f}" stroke="black"/>'
    )
    parts.append(
        f'<line x1="{x0:.1f}" y1="{y0:.1f}" x2="{x0:.1f}" y2="{y1:.1f}" stroke="black"/>'
    )
    for pct in range(0, 101, 20):
        x = px(pct / 100.0)
        parts.append(
            f'<line x1="{x:.1f}" y1="{y0:.1f}" x2="{x:.1f}" y2="{y0 + 5:.1f}" stroke="black"/>'
        )
        parts.append(
            f'<text x="{x:.1f}" y="{y0 + 20:.1f}" text-anchor="middle">{pct}</text>'
        )
    if x_label:
        parts.append(
            f'<text x="{(x0 + x1) / 2:.1f}" y="{HEIGHT - 12}" '
            f'text-anchor="middle">{_esc(x_label)}</text>'
        )
    if y_label:
        parts.append(
            f'<text x="16" y="{(y0 + y1) / 2:.1f}" text-anchor="middle" '
            f'transform="rotate(-90 16 {(y0 + y1) / 2:.1f})">{_esc(y_label)}</text>'
        )

    legend_items = []
    color_i = 0
    for label, xs, ys in curves:
        color = PALETTE[color_i % len(PALETTE)]
        color_i += 1
        points = " ".join(f"{px(x):.2f},{py(y):.2f}" for x, y in zip(xs, ys))
        parts.append(
            f'<polyline fill="none" stroke="{color}" stroke-width="2" points="{points}"/>'
        )
        legend_items.append((label, color))
    for label, x in markers:
        color = PALETTE[color_i % len(PALETTE)]
        color_i += 1
        parts.append(
            f'<line x1="{px(x):.1f}" y1="{y0:.1f}" x2="{px(x):.1f}" y2="{y1:.1f}" '
            f'stroke="{color}" stroke-width="2" stroke-dasharray="6 4"/>'
        )
        legend_items.append((label, color))

    ly = MARGIN_TOP + 8
    for label, color in legend_items:
        lx = x1 - 180
        parts.append(
            f'<line x1="{lx:.1f}" y1="{ly - 4:.1f}" x2="{lx + 28:.1f}" y2="{ly - 4:.1f}" '
            f'stroke="{color}" stroke-width="3"/>'
        )
        parts.append(f'<text x="{lx + 36:.1f}" y="{ly:.1f}">{_esc(label)}</text>')
        ly += 18

    parts.append("</svg>")
    return "\n".join(parts) + "\n"
