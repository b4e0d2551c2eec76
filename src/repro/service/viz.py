"""Visualization payloads mirroring the Podium UI (paper §7, Fig. 2).

The original prototype renders an AngularJS explanation page with three
panes; this module produces the same content as JSON-ready dictionaries
(for the HTTP service) and as plain text (for terminal use in examples):

* **left pane** — selected users with the top-weight groups each covers;
* **middle pane** — the percentage of top-weight groups covered, plus the
  weighted group list flagged covered / uncovered;
* **right pane** — per-property score-distribution comparison between the
  whole population and the selected subset.
"""

from __future__ import annotations

from typing import Any

from ..core.explanations import SelectionExplanation
from ..core.greedy import SelectionResult
from ..core.weights import Weight


def json_number(value: Weight) -> float | int:
    """``float(value)``, or the exact ``int`` when it outgrows a float.

    EBS weights are ``(B+1)^ord(G)``: past about 323 groups at B=8 they
    and the scores summing them overflow a float.  JSON carries big ints
    exactly, so every other scheme's body stays as it was.
    """
    try:
        return float(value)
    except OverflowError:
        return int(value)


def format_total(value: Weight) -> str:
    """A score with thousands separators, exact when it outgrows a float."""
    number = json_number(value)
    if isinstance(number, int):
        return f"{number:,}"
    return f"{number:,.0f}"


def explanation_payload(
    explanation: SelectionExplanation,
    per_user_top: int = 5,
    group_list_limit: int = 50,
) -> dict[str, Any]:
    """Serialize a :class:`SelectionExplanation` into the Fig. 2 panes."""
    left = [
        {
            "user": ue.user_id,
            "top_groups": [
                {"label": g.label, "weight": json_number(g.weight)}
                for g in ue.top(per_user_top)
            ],
            "group_count": len(ue.groups),
        }
        for ue in explanation.user_explanations
    ]
    middle_groups = [
        {
            "label": sge.label,
            "required": sge.required,
            "actual": sge.actual,
            "covered": sge.covered,
        }
        for sge in explanation.subset_group_explanations[:group_list_limit]
    ]
    right = [
        {
            "property": dist.property_label,
            "buckets": list(dist.bucket_labels),
            "population": [round(x, 4) for x in dist.population],
            "subset": [round(x, 4) for x in dist.subset],
        }
        for dist in explanation.distributions
    ]
    return {
        "left_pane": left,
        "middle_pane": {
            "top_coverage_percent": round(
                100.0 * explanation.top_coverage_fraction, 1
            ),
            "groups": middle_groups,
        },
        "right_pane": right,
    }


def render_html(
    result: SelectionResult,
    explanation: SelectionExplanation,
    title: str = "Podium — selection explanation",
    per_user_top: int = 5,
    group_list_limit: int = 50,
) -> str:
    """Self-contained HTML rendering of the Fig. 2 explanation page.

    Three panes, as in the prototype UI: selected users with their
    top-weight groups (left), the covered-groups list with the top-weight
    coverage percentage (middle), and population-vs-subset distribution
    bars per requested property (right).  No external assets — the page
    is a single static file suitable for emailing to a client.
    """
    from html import escape

    payload = explanation_payload(
        explanation,
        per_user_top=per_user_top,
        group_list_limit=group_list_limit,
    )
    parts: list[str] = [
        "<!DOCTYPE html>",
        "<html><head><meta charset='utf-8'>",
        f"<title>{escape(title)}</title>",
        "<style>",
        "body{font-family:sans-serif;margin:1.5em;color:#222}",
        ".panes{display:flex;gap:2em;align-items:flex-start}",
        ".pane{flex:1;min-width:18em}",
        ".covered{color:#1a7f37}.missing{color:#b42318}",
        ".bar{display:inline-block;height:0.8em;background:#4a7dbd}",
        ".bar.subset{background:#d98e04}",
        "td,th{padding:0.15em 0.6em;text-align:left}",
        "</style></head><body>",
        f"<h1>{escape(title)}</h1>",
        f"<p>Selected <b>{len(result.selected)}</b> users, "
        f"total score <b>{format_total(result.score)}</b>.</p>",
        "<div class='panes'>",
    ]

    parts.append("<div class='pane'><h2>Selected users</h2><ul>")
    for entry in payload["left_pane"]:
        tops = ", ".join(escape(g["label"]) for g in entry["top_groups"])
        parts.append(
            f"<li><b>{escape(entry['user'])}</b>: {tops} "
            f"<i>({entry['group_count']} groups)</i></li>"
        )
    parts.append("</ul></div>")

    middle = payload["middle_pane"]
    parts.append(
        "<div class='pane'><h2>Group coverage "
        f"({middle['top_coverage_percent']}% of top-weight groups)</h2>"
        "<table><tr><th>group</th><th>required</th><th>actual</th></tr>"
    )
    for group in middle["groups"]:
        css = "covered" if group["covered"] else "missing"
        parts.append(
            f"<tr class='{css}'><td>{escape(group['label'])}</td>"
            f"<td>{group['required']}</td><td>{group['actual']}</td></tr>"
        )
    parts.append("</table></div>")

    parts.append("<div class='pane'><h2>Distributions</h2>")
    for dist in payload["right_pane"]:
        parts.append(f"<h3>{escape(dist['property'])}</h3><table>")
        for label, pop, sub in zip(
            dist["buckets"], dist["population"], dist["subset"]
        ):
            parts.append(
                f"<tr><td>{escape(label)}</td>"
                f"<td><span class='bar' style='width:{pop * 150:.0f}px'>"
                f"</span> {pop:.1%}</td>"
                f"<td><span class='bar subset' "
                f"style='width:{sub * 150:.0f}px'></span> {sub:.1%}</td>"
                "</tr>"
            )
        parts.append("</table>")
    parts.append("</div></div></body></html>")
    return "\n".join(parts)


def _bar(fraction: float, width: int = 20) -> str:
    filled = int(round(fraction * width))
    return "#" * filled + "." * (width - filled)


def render_text(
    result: SelectionResult,
    explanation: SelectionExplanation,
    per_user_top: int = 3,
    group_list_limit: int = 15,
) -> str:
    """Terminal rendering of the explanation page (used by the examples)."""
    lines: list[str] = []
    lines.append("=" * 72)
    lines.append(
        f"Selected {len(result.selected)} users, total score "
        f"{format_total(result.score)}"
    )
    lines.append("=" * 72)

    lines.append("-- Selected users (top covered groups) " + "-" * 32)
    for ue in explanation.user_explanations:
        tops = ", ".join(g.label for g in ue.top(per_user_top))
        lines.append(f"  {ue.user_id}: {tops}  (+{len(ue.groups)} groups)")

    percent = 100.0 * explanation.top_coverage_fraction
    lines.append(f"-- Coverage of top-weight groups: {percent:.1f}% " + "-" * 20)
    for sge in explanation.subset_group_explanations[:group_list_limit]:
        flag = "COVERED " if sge.covered else "MISSING "
        lines.append(
            f"  [{flag}] {sge.label}  (required {sge.required}, "
            f"got {sge.actual})"
        )

    if explanation.distributions:
        lines.append("-- Population vs subset distributions " + "-" * 33)
        for dist in explanation.distributions:
            lines.append(f"  {dist.property_label}:")
            for label, pop, sub in zip(
                dist.bucket_labels, dist.population, dist.subset
            ):
                lines.append(
                    f"    {label:12s} pop {_bar(pop)} {pop:5.1%}   "
                    f"subset {_bar(sub)} {sub:5.1%}"
                )
    return "\n".join(lines)


def render_metrics_text(snapshot: dict[str, Any]) -> str:
    """Terminal rendering of a :meth:`ServiceMetrics.snapshot` document.

    Printed by ``repro serve`` when the server shuts down, so a demo run
    ends with a readable traffic/cache/timing summary.
    """
    lines: list[str] = []
    lines.append("=" * 72)
    lines.append(
        f"Service metrics — {snapshot.get('request_count', 0)} requests, "
        f"{snapshot.get('error_count', 0)} errors, "
        f"uptime {snapshot.get('uptime_seconds', 0.0):.1f}s"
    )
    lines.append("=" * 72)
    requests = snapshot.get("requests", {})
    if requests:
        lines.append("-- Requests per route " + "-" * 50)
        for route in sorted(requests):
            entry = requests[route]
            lines.append(
                f"  {route:28s} count {entry.get('count', 0):6d}   "
                f"errors {entry.get('errors', 0):6d}"
            )
    cache = snapshot.get("cache", {})
    if cache:
        hits = cache.get("instance_hits", 0)
        misses = cache.get("instance_misses", 0)
        total = hits + misses
        ratio = hits / total if total else 0.0
        lines.append(
            f"-- Artifact cache: {hits} hits / {misses} misses "
            f"({ratio:.1%} hit rate) " + "-" * 10
        )
    stages = snapshot.get("stages", {})
    if stages:
        lines.append("-- Stage timings " + "-" * 55)
        for name in sorted(stages):
            stage = stages[name]
            count = stage.get("count", 0)
            total_s = stage.get("total_seconds", 0.0)
            mean_ms = 1000.0 * total_s / count if count else 0.0
            lines.append(
                f"  {name:14s} count {count:6d}   "
                f"total {total_s:8.3f}s   mean {mean_ms:8.2f}ms   "
                f"max {1000.0 * stage.get('max_seconds', 0.0):8.2f}ms"
            )
    return "\n".join(lines)
