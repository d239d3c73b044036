"""Each committed BENCH_<n>.json's summary is what its runs give: numpy's
median and linear quartiles of each side's runs, the pairs the change won,
and the relative change of the medians, each to the last bit."""

import json
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[1]
CHECKED = ("BENCH_22.json", "BENCH_24.json", "BENCH_25.json", "BENCH_26.json", "BENCH_29.json",
           "BENCH_30.json", "BENCH_31.json")


def _bounds() -> dict[str, tuple[str, float]]:
    """(better, bound) of each end-to-end metric of BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: (m["better"], m["bound"]) for m in spec["end_to_end"]}


@pytest.mark.parametrize("name", CHECKED)
def test_summary_is_recomputed_from_the_runs(name):
    bench = json.loads((ROOT / name).read_text(encoding="utf-8"))
    runs, bounds = bench["runs"], _bounds()
    pairs = sorted(runs["parent"], key=int)
    assert pairs and sorted(runs["change"], key=int) == pairs
    assert bench["summary"]
    for metric, summary in bench["summary"].items():
        parent = [runs["parent"][n][metric] for n in pairs]
        change = [runs["change"][n][metric] for n in pairs]
        better, bound = bounds[metric.split("/", 1)[1]]
        assert (summary["better"], summary["bound"]) == (better, bound), metric
        sign = 1 if better == "lower" else -1
        medians = {"parent": np.median(parent), "change": np.median(change)}
        quartiles = {"parent": np.percentile(parent, [25, 75]).tolist(),
                     "change": np.percentile(change, [25, 75]).tolist()}
        relative = (medians["change"] - medians["parent"]) / medians["parent"]
        want = {
            "parent_median": medians["parent"],
            "parent_quartiles": quartiles["parent"],
            "change_median": medians["change"],
            "change_quartiles": quartiles["change"],
            "change_wins": sum(sign * (c - p) < 0 for p, c in zip(parent, change)),
            "pairs": len(pairs),
            "relative_change": relative,
            "within_bound": bool(sign * relative <= bound),
            "iqr_over_median": {side: (q[1] - q[0]) / medians[side]
                                for side, q in quartiles.items()},
        }
        got = {key: summary[key] for key in want}
        assert got == want, metric
