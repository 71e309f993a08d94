"""ASCII and SVG renderers for tableaux, diagram subsets, and path families.

The layouts follow the usual pictures: staircase left edge for shifted
diagrams, shaded cells for subsets, polylines through box centers for path
families.
"""

from __future__ import annotations

from .chart import chart_matrix_pattern
from .indexing import IsotropicIndex, bar, check_strict, normalize_partition, rho
from .models import DiagramSubset, PathFamily
from .tableaux import SetValuedShiftedTableau, ShiftedDiagram


def _cell_rows(row_spans: list[tuple[int, int]], text) -> str:
    """Rows of |-delimited cells; row i spans absolute columns [start, end]."""
    width = 1
    for r, (start, end) in enumerate(row_spans, start=1):
        for c in range(start, end + 1):
            width = max(width, len(text(r, c)))
    lines = []
    for r, (start, end) in enumerate(row_spans, start=1):
        pad = " " * ((width + 1) * (start - 1))
        cells = "|".join(text(r, c).center(width) for c in range(start, end + 1))
        lines.append(f"{pad}|{cells}|")
    return "\n".join(lines)


def _shifted_rows(mu, text, empty: str) -> str:
    """Cells of the shifted diagram of mu, row r starting at column r."""
    if not mu:
        return empty
    return _cell_rows([(r, r + part - 1) for r, part in enumerate(mu, start=1)], text)


def ascii_shifted_tableau(s: SetValuedShiftedTableau) -> str:
    return _shifted_rows(s.shape, lambda r, c: ",".join(map(str, s.box(r, c))),
                         "(empty tableau)")


def ascii_shifted_diagram(mu) -> str:
    return _shifted_rows(check_strict(mu), lambda r, c: " ", "(empty diagram)")


def ascii_subset(d: DiagramSubset) -> str:
    members = set(d.members)
    return _shifted_rows(d.mu, lambda r, c: "##" if (r, c) in members else "  ",
                         "(empty diagram)")


def ascii_family(f: PathFamily) -> str:
    label = {}
    for idx, path in enumerate(f.paths, start=1):
        for box in path:
            label[box] = str(idx)
    return _shifted_rows(f.mu, lambda r, c: label.get((r, c), " "), "(empty diagram)")


def ascii_young_diagram(eta, shaded=None) -> str:
    eta = normalize_partition(eta)
    if not eta:
        return "(empty diagram)"
    shaded = set(map(tuple, shaded or ()))
    spans = [(1, part) for part in eta]
    return _cell_rows(spans, lambda r, c: "##" if (r, c) in shaded else "  ")


def ascii_rho_figure(eta) -> str:
    """A symmetric Young diagram next to its diagonal truncation."""
    left = ascii_young_diagram(eta).splitlines()
    right = ascii_shifted_diagram(rho(eta)).splitlines()
    height = max(len(left), len(right))
    left += [""] * (height - len(left))
    right += [""] * (height - len(right))
    width = max((len(l) for l in left), default=0) + 4
    mid = height // 2
    out = []
    for i, (l, r) in enumerate(zip(left, right)):
        sep = "  ->  " if i == mid else "      "
        out.append(l.ljust(width) + sep + r)
    return "\n".join(out)


def _label(k: int, n: int) -> str:
    return str(k) if k <= n else str(-bar(k, n))


def ascii_chart_matrix(beta: IsotropicIndex) -> str:
    n = beta.n
    pattern = chart_matrix_pattern(beta)
    cells = []
    for row in pattern:
        line = []
        for cell in row:
            if cell[0] == "zero":
                line.append("0")
            elif cell[0] == "one":
                line.append("1")
            else:
                _, sign, a, b = cell
                line.append(f"{'-' if sign < 0 else ''}y[{_label(a, n)},{_label(b, n)}]")
        cells.append(line)
    width = max(len(s) for row in cells for s in row)
    return "\n".join("  ".join(s.rjust(width) for s in row) for row in cells)


# -- SVG ---------------------------------------------------------------------

_UNIT = 40


def _svg_header(width: int, height: int) -> list[str]:
    return [f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
            f'height="{height}" viewBox="0 0 {width} {height}">']


def _svg_boxes(boxes, fill, dx: int = 0) -> list[str]:
    out = []
    for r, c in boxes:
        x, y = dx + (c - 1) * _UNIT, (r - 1) * _UNIT
        out.append(f'<rect x="{x}" y="{y}" width="{_UNIT}" height="{_UNIT}" '
                   f'fill="{fill((r, c))}" stroke="black"/>')
    return out


def _svg_shifted(mu, fill, overlay: list[str]) -> str:
    """An SVG of the shifted diagram of mu, boxes filled by fill, overlay on top."""
    width, height = (mu[0] if mu else 0) * _UNIT + 1, len(mu) * _UNIT + 1
    parts = _svg_header(width, height)
    parts += _svg_boxes(ShiftedDiagram(mu).boxes(), fill)
    parts += overlay
    parts.append("</svg>")
    return "\n".join(parts)


def svg_tableau(s: SetValuedShiftedTableau) -> str:
    labels = []
    for r, c, box in s.cells():
        x = (c - 1) * _UNIT + _UNIT // 2
        y = (r - 1) * _UNIT + _UNIT // 2 + 5
        text = ",".join(map(str, box))
        labels.append(f'<text x="{x}" y="{y}" font-size="14" '
                      f'text-anchor="middle">{text}</text>')
    return _svg_shifted(s.shape, lambda b: "white", labels)


def svg_subset(d: DiagramSubset) -> str:
    members = set(d.members)
    return _svg_shifted(d.mu, lambda b: "#bbbbbb" if b in members else "white", [])


def svg_family(f: PathFamily) -> str:
    lines = []
    for path in f.paths:
        points = " ".join(
            f"{(c - 1) * _UNIT + _UNIT // 2},{(r - 1) * _UNIT + _UNIT // 2}"
            for r, c in path)
        lines.append(f'<polyline points="{points}" fill="none" stroke="black" '
                      f'stroke-width="6" stroke-linecap="round"/>')
    return _svg_shifted(f.mu, lambda b: "white", lines)


def svg_rho_figure(eta) -> str:
    """Symmetric Young diagram and its diagonal truncation, side by side."""
    eta = normalize_partition(eta)
    mu = rho(eta)
    cols = eta[0] if eta else 0
    gap = 2 * _UNIT
    width = (cols + (mu[0] if mu else 0)) * _UNIT + gap + 2
    height = max(len(eta), len(mu)) * _UNIT + 1 if eta else _UNIT
    parts = _svg_header(width, height)
    young = [(r, c) for r, part in enumerate(eta, start=1) for c in range(1, part + 1)]
    parts += _svg_boxes(young, lambda b: "white" if b[1] >= b[0] else "#dddddd")
    parts += _svg_boxes(ShiftedDiagram(mu).boxes(), lambda b: "white",
                        dx=cols * _UNIT + gap)
    parts.append("</svg>")
    return "\n".join(parts)
