"""Static attention-heatmap reports.

One grayscale row per aspect, one cell per token: cell darkness is linear
in that token's combined attention weight, normalized by the largest weight
in the report. A horizontal bar per aspect shows its summary score, and the
top-ranked aspect is marked. Rendering is a pure function of the report, so
identical reports produce byte-identical documents. Aspect names and
tokens are HTML-escaped.
"""

from __future__ import annotations

from dataclasses import dataclass
from html import escape
from typing import Sequence

import numpy as np

from aspectsent.model import ForwardOutput, aspect_rank


@dataclass
class HeatmapReport:
    tokens: list
    aspect_names: list
    intensities: np.ndarray  # aspects x tokens, alpha + beta per token
    ranking: list  # (aspect index, score), descending
    aspect_predictions: list  # 0/1 per aspect
    overall_prediction: int


def build_report(
    tokens: Sequence[str], output: ForwardOutput, aspect_names, mode: str = "magnitude"
) -> HeatmapReport:
    """Collect one example's attention weights, ranking and predictions (an
    argmax over its logits) for display. ``mode`` must name the one ranking, "magnitude"."""
    if mode != "magnitude":
        raise ValueError(f"unknown ranking mode {mode!r}")
    predicted = np.argmax(output.logits.values, axis=-1).tolist()  # overall last
    rows = []
    for trace in output.traces:
        row = trace.self_weights.values.copy()
        if trace.pos_weights is not None:
            row = row + trace.pos_weights.values
        rows.append(row[: len(tokens)])
    return HeatmapReport(
        tokens=list(tokens),
        aspect_names=list(aspect_names),
        intensities=np.stack(rows),
        ranking=aspect_rank(output.traces),
        aspect_predictions=predicted[:-1],
        overall_prediction=predicted[-1],
    )


_POLARITY = {0: "negative", 1: "positive"}

_STYLE = (
    "body{font-family:sans-serif;margin:1.5em}"
    "table{border-collapse:collapse}"
    "td,th{border:1px solid #999;padding:4px 8px;text-align:center}"
    "th{background:#eee}"
    ".bar{background:#444;height:12px;display:inline-block}"
    ".top{font-weight:bold}"
)


def _shade(norm: float) -> str:
    # darkness linear in the normalized weight; lightness 100% -> 40%
    lightness = 100 - int(round(norm * 60))
    return f"hsl(0, 0%, {lightness}%)"


def render_heatmap(report: HeatmapReport) -> str:
    """Render a report as one self-contained HTML document."""
    peak = float(report.intensities.max()) if report.intensities.size else 0.0
    scores = dict(report.ranking)
    max_score = max(scores.values(), default=0.0)
    top_aspect = report.ranking[0][0] if report.ranking else -1

    lines = [
        "<!DOCTYPE html>",
        "<html><head><meta charset='utf-8'>",
        f"<style>{_STYLE}</style>",
        "</head><body>",
        "<h1>Attention heatmap (magnitude ranking)</h1>",
        f"<p>Predicted overall polarity: <b>{_POLARITY[report.overall_prediction]}</b></p>",
        "<table>",
        "<tr><th>aspect</th>"
        + "".join(f"<th>{escape(token)}</th>" for token in report.tokens)
        + "<th>polarity</th><th>score</th></tr>",
    ]
    for k, name in enumerate(report.aspect_names):
        marked = " class='top'" if k == top_aspect else ""
        star = " &#9733;" if k == top_aspect else ""
        cells = []
        for j, _ in enumerate(report.tokens):
            weight = float(report.intensities[k, j])
            norm = weight / peak if peak > 0 else 0.0
            cells.append(
                f"<td style='background:{_shade(norm)}' title='{weight:.6f}'>"
                f"{escape(report.tokens[j])}</td>"
            )
        score = scores[k]
        width = int(round(score / max_score * 240)) if max_score > 0 else 0
        lines.append(
            f"<tr{marked}><td>{escape(name)}{star}</td>"
            + "".join(cells)
            + f"<td>{_POLARITY[report.aspect_predictions[k]]}</td>"
            + f"<td><span class='bar' style='width:{width}px'></span> {score:.4f}</td></tr>"
        )
    lines += ["</table>", "</body></html>", ""]
    return "\n".join(lines)
