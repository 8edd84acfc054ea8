"""Token heatmaps for attribution maps: an HTML rendering and a monochrome
terminal rendering. Intensity is |score| / max |score| over the map, so
rescaling every score by a positive constant leaves the output unchanged."""
from __future__ import annotations

import html as _html

from .attribution import AttributionMap
from .contract import (
    AttributionContract, PREFIX_TOKEN, STAGE, STATE_COMMITMENT, features,
)
from .models import ModelParams, PromptedInstance

_SHADES = " .:-=+*#%@"  # terminal intensity ramp, light to dark


def _cells(attr_map: AttributionMap, instance: PromptedInstance,
           contract: AttributionContract, params: ModelParams):
    """One cell per feature the map is drawn on, the instance's tokens or,
    for a stage map, its stages: (text, score|None, fixed, target)."""
    scores = dict(attr_map.entries)
    stages = bool(attr_map.entries) and attr_map.entries[0][0].kind == STAGE
    traj = instance.trajectory
    tokens = instance.prompt + (instance.generation
                                or (traj.commit_tokens if traj else ()))
    tk, tv = contract.target
    cells = []
    for row, ref in enumerate(features(instance)):
        if (ref.kind == STAGE) != stages:
            continue
        text = (f"stage {ref.index}" if stages
                else params.vocab.tokens[tokens[row]])
        target = ((ref.kind == PREFIX_TOKEN
                   and (tk == "span" or (tk == "token" and tv == ref.index + 1)))
                  or (ref.kind == STATE_COMMITMENT
                      and (tk == "output" or (tk == "state" and tv == ref.index))))
        cells.append({"text": text, "score": scores.get(ref),
                      "fixed": ref in contract.held_fixed, "target": target})
    return cells


def _normalized(cells):
    mags = [abs(c["score"]) for c in cells if c["score"] is not None]
    peak = max(mags) if mags else 0.0
    for c in cells:
        if c["score"] is None:
            c["intensity"] = None
        elif peak == 0.0:
            c["intensity"] = 0.0
        else:
            c["intensity"] = abs(c["score"]) / peak
    return cells


def render_heatmap(attr_map: AttributionMap, instance: PromptedInstance,
                   contract: AttributionContract,
                   params: ModelParams) -> tuple[str, str]:
    """Return (html_text, terminal_text)."""
    cells = _normalized(_cells(attr_map, instance, contract, params))
    return _render_html(cells, attr_map), _render_text(cells, attr_map)


def _render_text(cells, attr_map: AttributionMap) -> str:
    lines = [f"attribution heatmap  contract={attr_map.contract_id[:12]}"
             f"  method={dict(attr_map.method).get('name', '?')}"]
    inline = []
    for c in cells:
        mark = c["text"]
        if c["fixed"]:
            mark = f"#{mark}#"      # held fixed: hatched with '#'
        if c["target"]:
            mark = f"[{mark}]"      # target: outlined with brackets
        inline.append(mark)
    lines.append(" ".join(inline))
    lines.append("")
    width = 24
    for c in cells:
        if c["fixed"]:
            bar, note = "/" * width, "held fixed"
        elif c["intensity"] is None:
            bar, note = "?" * width, "no score"
        else:
            n = int(round(c["intensity"] * width))
            shade = _SHADES[min(int(c["intensity"] * (len(_SHADES) - 1)),
                                len(_SHADES) - 1)]
            bar = (shade * n).ljust(width)
            sign = "+" if c["score"] >= 0 else "-"
            note = f"{sign}{abs(c['score']):.6g}"
        tag = " <target>" if c["target"] else ""
        lines.append(f"{c['text']:>12} |{bar}| {note}{tag}")
    return "\n".join(lines) + "\n"


def _render_html(cells, attr_map: AttributionMap) -> str:
    spans = []
    for c in cells:
        text = _html.escape(c["text"])
        styles = ["display:inline-block", "margin:2px", "padding:3px 6px",
                  "font-family:monospace"]
        classes = ["tok"]
        if c["fixed"]:
            classes.append("fixed")
            title = "held fixed"
        elif c["intensity"] is None:
            classes.append("noscore")
            title = "no score"
        else:
            a = round(c["intensity"], 6)
            shade = "rgba(30,30,30,%s)" % a
            styles.append(f"background:{shade}")
            if c["intensity"] > 0.55:
                styles.append("color:#fff")
            title = f"score={c['score']!r}"
        if c["target"]:
            classes.append("target")
            styles.append("outline:2px solid #000")
        spans.append(f'<span class="{" ".join(classes)}" '
                     f'style="{";".join(styles)}" title="{title}">{text}</span>')
    method = _html.escape(dict(attr_map.method).get("name", "?"))
    return (
        "<!doctype html>\n<html><head><meta charset=\"utf-8\">"
        "<style>\n"
        ".fixed{background:repeating-linear-gradient(45deg,#ddd 0 4px,#fff 4px 8px);"
        "color:#888}\n"
        ".noscore{border:1px dashed #aaa}\n"
        "</style></head><body>\n"
        f"<p>attribution heatmap &mdash; contract "
        f"<code>{attr_map.contract_id[:12]}</code>, method <code>{method}</code></p>\n"
        "<div>" + "\n".join(spans) + "</div>\n"
        "</body></html>\n")
