"""Output checks for the stems benchmark.

Simulated statistics are deterministic per seed, so they are the
correctness check, never a metric. Two kinds of check, both valid at any
seed:

- invariants() tests one report on its own: no cell error, the expected
  cell count, coverages in [0, 1], covered <= baseline misses, and
  speedup = uipc / baseline_uipc.
- compare() tests two reports of the same spec produced by different
  execution paths (threads vs worker processes, replay vs generation,
  daemon vs CLI). It compares the `cells` arrays by id with wall times
  dropped, and never the spec header, which echoes execution-policy
  keys such as `threads`.

Nothing here compares against bytes committed for one seed.
"""

import json

# relative tolerance of speedup = uipc / baseline_uipc: the report
# prints each of the three with 6 significant digits
SPEEDUP_RTOL = 2e-5


def _strip_wall(value):
    if isinstance(value, dict):
        return {k: _strip_wall(v) for k, v in value.items() if k != "wall_ms"}
    if isinstance(value, list):
        return [_strip_wall(v) for v in value]
    return value


def cells_by_id(report):
    return {c["id"]: _strip_wall(c) for c in report["cells"]}


def invariants(report, expected_cells, timing):
    """Problems found in one report (an empty list means it passed)."""
    problems = []
    cells = report.get("cells")
    if not isinstance(cells, list):
        return ["report has no cells array"]
    if len(cells) != expected_cells:
        problems.append(f"{len(cells)} cells, expected {expected_cells}")
    ids = [c.get("id") for c in cells]
    if len(set(ids)) != len(ids):
        problems.append("duplicate cell ids")
    for c in cells:
        where = f"cell {c.get('id')} ({c.get('workload')}/{c.get('label')})"
        if c.get("error"):
            problems.append(f"{where}: error {c['error']!r}")
            continue
        m = c.get("metrics", {})
        for level in ("l1", "l2"):
            cov = m.get(f"{level}_coverage")
            if cov is None or not 0.0 <= cov <= 1.0:
                problems.append(f"{where}: {level}_coverage {cov!r}")
            covered = m.get(f"{level}_covered", 0)
            base = m.get(f"baseline_{level}_read_misses")
            if base is None or covered > base:
                problems.append(f"{where}: {level}_covered {covered} > "
                                f"baseline misses {base}")
        if m.get("instructions", 0) <= 0:
            problems.append(f"{where}: no instructions")
        if timing:
            t = c.get("timing")
            if not t:
                problems.append(f"{where}: no timing section")
                continue
            uipc, base, speedup = (t.get("uipc"), t.get("baseline_uipc"),
                                   t.get("speedup"))
            if not uipc or not base or speedup is None:
                problems.append(f"{where}: timing {t!r}")
            elif abs(speedup - uipc / base) > SPEEDUP_RTOL * speedup:
                problems.append(f"{where}: speedup {speedup} != "
                                f"uipc/baseline_uipc {uipc / base:.6g}")
    return problems


def compare(report, reference, what="report"):
    """Problems where @p report's cells differ from @p reference's."""
    got, want = cells_by_id(report), cells_by_id(reference)
    problems = []
    if got.keys() != want.keys():
        problems.append(f"{what}: cell ids {sorted(got)} != "
                        f"{sorted(want)}")
    for cid in sorted(got.keys() & want.keys()):
        if got[cid] != want[cid]:
            a = json.dumps(got[cid], sort_keys=True)
            b = json.dumps(want[cid], sort_keys=True)
            i = next((k for k in range(min(len(a), len(b)))
                      if a[k] != b[k]), min(len(a), len(b)))
            problems.append(f"{what}: cell {cid} differs near "
                            f"...{a[max(0, i - 40):i + 40]}... vs "
                            f"...{b[max(0, i - 40):i + 40]}...")
    return problems


def self_test(report, expected_cells, timing):
    """The check must reject a report with one altered metric.

    Returns problems with the check itself (empty = the check works).
    """
    failures = []
    if invariants(report, expected_cells, timing):
        failures.append("the unaltered report fails its invariants")
    if compare(report, report):
        failures.append("a report differs from itself")

    altered = json.loads(json.dumps(report))
    cell = altered["cells"][len(altered["cells"]) // 2]
    cell["metrics"]["l1_covered"] = cell["metrics"].get("l1_covered", 0) + 1
    if not compare(altered, report):
        failures.append("compare() accepted an altered l1_covered")

    if timing:
        altered = json.loads(json.dumps(report))
        t = altered["cells"][0]["timing"]
        t["speedup"] = t["speedup"] * 1.001
        if not invariants(altered, expected_cells, timing):
            failures.append("invariants() accepted an altered speedup")

    altered = json.loads(json.dumps(report))
    altered["cells"][0]["metrics"]["l1_coverage"] = 1.5
    if not invariants(altered, expected_cells, timing):
        failures.append("invariants() accepted a coverage above 1")
    return failures
