"""Dependency-free SVG line/scatter charts with deterministic byte output."""

WIDTH, HEIGHT = 640, 420
MARGIN = 52
PALETTE = ["#1f77b4", "#d62728", "#2ca02c", "#ff7f0e", "#9467bd", "#8c564b",
           "#e377c2", "#7f7f7f", "#bcbd22", "#17becf"]


def _fmt(x):
    return format(float(x), ".6g")


def _scales(xs, ys):
    x_lo, x_hi = min(xs), max(xs)
    y_lo, y_hi = min(ys), max(ys)
    if x_hi == x_lo:
        x_hi = x_lo + 1.0
    if y_hi == y_lo:
        y_hi = y_lo + 1.0

    def sx(x):
        return MARGIN + (x - x_lo) / (x_hi - x_lo) * (WIDTH - 2 * MARGIN)

    def sy(y):
        return HEIGHT - MARGIN - (y - y_lo) / (y_hi - y_lo) * (HEIGHT - 2 * MARGIN)

    return sx, sy, (x_lo, x_hi, y_lo, y_hi)


def _frame(bounds, title, x_label, y_label):
    x_lo, x_hi, y_lo, y_hi = bounds
    return [f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" '
            f'height="{HEIGHT}" viewBox="0 0 {WIDTH} {HEIGHT}">',
            f'<rect width="{WIDTH}" height="{HEIGHT}" fill="#ffffff"/>',
            f'<rect x="{MARGIN}" y="{MARGIN}" width="{WIDTH - 2 * MARGIN}" '
            f'height="{HEIGHT - 2 * MARGIN}" fill="none" stroke="#333"/>',
            f'<text x="{WIDTH // 2}" y="24" text-anchor="middle" '
            f'font-size="15">{title}</text>',
            f'<text x="{WIDTH // 2}" y="{HEIGHT - 12}" text-anchor="middle" '
            f'font-size="12">{x_label}</text>',
            f'<text x="16" y="{HEIGHT // 2}" text-anchor="middle" font-size="12" '
            f'transform="rotate(-90 16 {HEIGHT // 2})">{y_label}</text>',
            f'<text x="{MARGIN}" y="{HEIGHT - MARGIN + 16}" '
            f'font-size="10">{_fmt(x_lo)}</text>',
            f'<text x="{WIDTH - MARGIN}" y="{HEIGHT - MARGIN + 16}" '
            f'text-anchor="end" font-size="10">{_fmt(x_hi)}</text>',
            f'<text x="{MARGIN - 4}" y="{HEIGHT - MARGIN}" text-anchor="end" '
            f'font-size="10">{_fmt(y_lo)}</text>',
            f'<text x="{MARGIN - 4}" y="{MARGIN + 4}" text-anchor="end" '
            f'font-size="10">{_fmt(y_hi)}</text>']


def line_chart(x, series, title="", x_label="", y_label=""):
    """series: ordered dict-like of name -> y values aligned with x."""
    all_y = [v for ys in series.values() for v in ys]
    sx, sy, bounds = _scales(list(x), all_y)
    parts = _frame(bounds, title, x_label, y_label)
    for i, (name, ys) in enumerate(series.items()):
        color = PALETTE[i % len(PALETTE)]
        points = " ".join(f"{_fmt(sx(xv))},{_fmt(sy(yv))}" for xv, yv in zip(x, ys))
        parts.append(f'<polyline fill="none" stroke="{color}" stroke-width="1.5" '
                     f'points="{points}"/>')
        ly = MARGIN + 16 + 16 * i
        parts.append(f'<line x1="{WIDTH - MARGIN - 110}" y1="{ly - 4}" '
                     f'x2="{WIDTH - MARGIN - 86}" y2="{ly - 4}" stroke="{color}" '
                     f'stroke-width="2"/>')
        parts.append(f'<text x="{WIDTH - MARGIN - 80}" y="{ly}" '
                     f'font-size="11">{name}</text>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def scatter_chart(x, y, color_values, title="", x_label="", y_label="",
                  color_label=""):
    """Scatter of (x, y) colored along a blue-to-red ramp by color_values."""
    sx, sy, bounds = _scales(list(x), list(y))
    c_lo, c_hi = min(color_values), max(color_values)
    span = (c_hi - c_lo) or 1.0
    parts = _frame(bounds, title, x_label, y_label)
    for xv, yv, cv in zip(x, y, color_values):
        frac = (cv - c_lo) / span
        r = int(round(255 * frac))
        b = 255 - r
        parts.append(f'<circle cx="{_fmt(sx(xv))}" cy="{_fmt(sy(yv))}" r="3" '
                     f'fill="rgb({r},60,{b})"/>')
    parts.append(f'<text x="{WIDTH - MARGIN}" y="{MARGIN - 8}" text-anchor="end" '
                 f'font-size="11">color: {color_label} '
                 f'[{_fmt(c_lo)} .. {_fmt(c_hi)}]</text>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
