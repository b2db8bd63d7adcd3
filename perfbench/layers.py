"""Per-layer metrics from the trace summaries that child processes write.

Layer names follow the clic modules; `eval` is `clic._eval`, since a
metric name may not start with an underscore.
"""

from __future__ import annotations

import json
from collections import Counter
from pathlib import Path

MODULES = ("formula", "model", "eval", "validity", "semantics",
           "translation", "laws", "cli")

LAW_IDS = (
    "anti-monotonicity", "upward-propagation", "subadditivity",
    "superadditivity-for-inability", "contravariance", "covariance",
    "absorption", "conjunction-downward", "conjunction-upward",
    "disjunction-upward", "disjunction-downward",
    "implication-distribution", "implication-converse", "excluded-middle",
    "exclusivity", "symmetry", "complementarity", "opponent-ability",
    "grand-coalition-duality", "empty-coalition-duality", "contradiction",
    "truth", "axiom-truth", "axiom-no-contradiction",
    "axiom-superadditivity", "axiom-grand-coalition",
    "inability-definition", "ability-distribution", "strategic-impotence",
)


def merge(paths: list[str]) -> dict:
    """Sum the summaries of one pass (one file per traced process)."""
    total = {"stats": {}, "items": Counter(), "counters": Counter(),
             "pairs": Counter(), "frames": 0, "space_models": 0,
             "absent": set(), "spans": []}
    for path in paths:
        if not Path(path).exists():     # the child died; already failed
            continue
        data = json.loads(Path(path).read_text(encoding="utf-8"))
        for name, (calls, ns, self_ns) in data["stats"].items():
            acc = total["stats"].setdefault(name, [0, 0, 0])
            acc[0] += calls
            acc[1] += ns
            acc[2] += self_ns
        for key in ("items", "counters", "pairs"):
            total[key].update(data[key])
        total["frames"] += data["frames"]
        total["space_models"] += data["space_models"]
        total["absent"].update(data["absent"])
        total["spans"].append(data["spans"])
    return total


def counts(summary: dict) -> dict:
    """Every count in a merged summary; two traced passes must agree."""
    out = {f"calls:{k}": v[0] for k, v in summary["stats"].items()}
    for key in ("items", "counters", "pairs"):
        out.update({f"{key}:{k}": v for k, v in summary[key].items()})
    out["frames"] = summary["frames"]
    out["space_models"] = summary["space_models"]
    return out


def _per(num: float, den: float, scale: float = 1.0) -> float:
    return num / den * scale if den else 0.0


def metrics(s: dict, untraced_s: float, traced_s: float,
            row_s: dict[str, float]) -> dict:
    """name -> (value, unit) for every per-layer metric.

    Catalog row times come from the untraced pass (`row_s`, from
    LawResult.elapsed), since the wrappers would inflate them.
    """
    stats = s["stats"]

    def calls(name):
        return stats.get(name, [0, 0, 0])[0]

    def secs(name):
        return stats.get(name, [0, 0, 0])[1] / 1e9

    def self_s(name):
        return stats.get(name, [0, 0, 0])[2] / 1e9

    items, counters, pairs = s["items"], s["counters"], s["pairs"]
    models = items.get("model.enumerate", 0)
    formulas = items.get("formula.enumerate", 0)
    builds = calls("eval.context")
    checked = counters.get("validity.models_checked", 0)
    skipped = counters.get("validity.models_skipped", 0)
    m = {
        "model.enumerate.models": (models, "count"),
        "model.enumerate.s": (secs("model.enumerate"), "s"),
        "model.enumerate.us_per_model":
            (_per(secs("model.enumerate"), models, 1e6), "us"),
        "model.text.parse_us":
            (_per(secs("model.parse"), calls("model.parse"), 1e6), "us"),
        "model.text.print_us":
            (_per(secs("model.print"), calls("model.print"), 1e6), "us"),
        "eval.context.builds": (builds, "count"),
        "eval.context.s": (secs("eval.context"), "s"),
        "eval.context.us_per_model":
            (_per(secs("eval.context"), builds, 1e6), "us"),
        "eval.context.distinct_frames": (s["frames"], "count"),
        "eval.context.frame_share": (_per(s["frames"], builds), "ratio"),
        "eval.compile.calls": (calls("eval.compile"), "count"),
        "eval.compile.us_per_call":
            (_per(secs("eval.compile"), calls("eval.compile"), 1e6), "us"),
        "eval.evaluate.calls": (calls("eval.evaluate"), "count"),
        "eval.evaluate.ns_per_model":
            (_per(secs("eval.evaluate"), calls("eval.evaluate"), 1e9), "ns"),
        "validity.search.calls": (calls("validity.search"), "count"),
        "validity.search.self_s": (self_s("validity.search"), "s"),
        "validity.models_checked": (checked, "count"),
        "validity.models_skipped": (skipped, "count"),
        "validity.skip_share": (_per(skipped, skipped + checked), "ratio"),
        "validity.replay.calls":
            (pairs.get("validity.search>semantics.satisfies", 0), "count"),
        "semantics.extension.calls": (calls("semantics.extension"), "count"),
        "semantics.extension.us_per_call":
            (_per(secs("semantics.extension"), calls("semantics.extension"),
                  1e6), "us"),
        "semantics.extension.self_s": (self_s("semantics.extension"), "s"),
        "semantics.satisfies.calls": (calls("semantics.satisfies"), "count"),
        "translation.translate.calls":
            (calls("translation.translate"), "count"),
        "translation.translate.us_per_call":
            (_per(secs("translation.translate"),
                  calls("translation.translate"), 1e6), "us"),
        "translation.checks": (counters.get("translation.checks", 0),
                               "count"),
        "formula.parse.calls": (calls("formula.parse"), "count"),
        "formula.parse.us_per_call":
            (_per(secs("formula.parse"), calls("formula.parse"), 1e6), "us"),
        "formula.parse.chars_per_s":
            (_per(counters.get("formula.parse.chars", 0),
                  secs("formula.parse")), "1/s"),
        "formula.print.us_per_call":
            (_per(secs("formula.print"), calls("formula.print"), 1e6), "us"),
        "formula.enumerate.formulas_per_s":
            (_per(formulas, secs("formula.enumerate")), "1/s"),
        "laws.instantiations":
            (counters.get("laws.instantiations", 0), "count"),
    }
    for law_id in LAW_IDS:
        m[f"laws.row.{law_id}.s"] = (row_s.get(law_id, 0.0), "s")
    m["cli.main.calls"] = (calls("cli.main"), "count")
    for module in MODULES:
        names = [n for n in stats if n.split(".")[0] == module]
        m[f"{module}.calls"] = (sum(calls(n) for n in names), "count")
        m[f"{module}.self_s"] = (sum(self_s(n) for n in names), "s")
    m["space.models"] = (s["space_models"], "count")
    m["trace.overhead_s"] = (traced_s - untraced_s, "s")
    m["trace.overhead_share"] = (_per(traced_s - untraced_s, untraced_s),
                                 "ratio")
    return m
