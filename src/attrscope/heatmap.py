"""Token heatmaps for attribution maps: an HTML rendering and a monochrome
terminal rendering. Intensity is |score| / max |score| over the map, so
rescaling every score by a positive constant leaves the output unchanged."""
from __future__ import annotations

import html as _html

from .attribution import AttributionMap
from .contract import (
    AttributionContract, FeatureRef, PREFIX_TOKEN, PROMPT_TOKEN, STAGE,
    STATE_COMMITMENT,
)
from .models import ModelParams, PromptedInstance

_SHADES = " .:-=+*#%@"  # terminal intensity ramp, light to dark


def _token_text(params: ModelParams, token_id: int) -> str:
    return params.vocab.tokens[token_id]


def _cells(attr_map: AttributionMap, instance: PromptedInstance,
           contract: AttributionContract, params: ModelParams):
    """One cell per visible token: (text, score|None, fixed, target)."""
    scores = dict(attr_map.entries)
    fixed = contract.held_fixed
    tk, tv = contract.target

    cells = []
    for i, tok in enumerate(instance.prompt):
        ref = FeatureRef(PROMPT_TOKEN, i)
        cells.append({"text": _token_text(params, tok),
                      "score": scores.get(ref), "fixed": ref in fixed,
                      "target": False})

    if instance.generation is not None:
        for i, tok in enumerate(instance.generation):
            ref = FeatureRef(PREFIX_TOKEN, i)
            is_target = (tk == "token" and tv == i + 1) or tk == "span"
            cells.append({"text": _token_text(params, tok),
                          "score": scores.get(ref), "fixed": ref in fixed,
                          "target": is_target})
    elif instance.trajectory is not None:
        traj = instance.trajectory
        for s in range(traj.response_len):
            ref = FeatureRef(STATE_COMMITMENT, traj.commit_steps[s], slot=s)
            is_target = (tk == "state" and traj.commit_steps[s] == tv) or tk == "output"
            cells.append({"text": _token_text(params, traj.commit_tokens[s]),
                          "score": scores.get(ref), "fixed": ref in fixed,
                          "target": is_target})
    return cells


def _stage_cells(attr_map: AttributionMap):
    cells = []
    for ref, s in attr_map.entries:
        cells.append({"text": f"stage {ref.index}", "score": s,
                      "fixed": False, "target": False})
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
    is_stage = bool(attr_map.entries) and attr_map.entries[0][0].kind == STAGE
    if is_stage:
        cells = _normalized(_stage_cells(attr_map))
    else:
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
