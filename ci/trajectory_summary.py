#!/usr/bin/env python3
"""Renders BENCH_trajectory.json as a cycles-over-pushes Markdown table.

Usage:
    trajectory_summary.py TRAJECTORY.json [--out FILE] [--last N]

Produces one table with a row per push (newest last) and a column per
``bench/arch`` job of the smoke suite, holding that push's deterministic
cycle count — the at-a-glance view of how simulated performance moved
across history. Cells are annotated with the delta against the previous
push (``▲`` regression / ``▼`` improvement) when the job's
``config_hash`` is unchanged, so only like-for-like changes are marked.
A trailing column shows the informational ``hotpath`` simulator
throughput (sim-cycles/sec) when the entry recorded one, and a final
``MT/SM`` column the MT-CGRA-over-Fermi-SM throughput ratio (how many
times slower the MT-CGRA engine simulates than the SM engine on the
same smoke work; entries recorded before the per-arch block render
``-``).

Entries recorded from schema-v2 artifacts carry a per-job ``phases``
count and a ``phase_cycles`` vector; multi-phase cells are annotated
``·Np``, and each push whose entry resolved more than one phase
anywhere gets indented per-phase sub-rows (``↳ phase k``) breaking the
totals down phase by phase. Entries recorded from v1 artifacts (older
rows of the same series) simply lack the keys and render unannotated —
both row shapes coexist in one table.

``--out`` appends to the given file (pass ``$GITHUB_STEP_SUMMARY`` in CI
to publish the table on the job page); the table is always printed to
stdout. Exits 0 with a note when the trajectory is missing or empty —
rendering history must never fail a build that has none yet.
"""

import argparse
import json
import sys


def load(path):
    try:
        with open(path, encoding="utf-8") as f:
            return json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        print(f"trajectory summary: no usable trajectory ({e})")
        return None


def fmt_cell(job, prev_job):
    if job.get("status") != "ok":
        return job.get("status", "-")
    cell = f"{job['cycles']}"
    # v2 rows know their phase count; annotate multi-phase jobs (v1 rows
    # lack the key and render unannotated).
    phases = job.get("phases")
    if isinstance(phases, int) and phases > 1:
        cell += f" ·{phases}p"
    if (
        prev_job is not None
        and prev_job.get("status") == "ok"
        and prev_job.get("config_hash") == job.get("config_hash")
        and prev_job["cycles"] != job["cycles"]
    ):
        delta = job["cycles"] - prev_job["cycles"]
        arrow = "▲" if delta > 0 else "▼"
        cell += f" ({arrow}{abs(delta)})"
    return cell


def phase_rows(entry, columns):
    """Indented per-phase sub-rows for one push, or [] for v1 entries.

    Emitted only when some job resolved more than one phase — a single
    all-phase-1 row would just repeat the totals row above it.
    """
    by_key = {(j["bench"], j["arch"]): j for j in entry.get("jobs", [])}
    vectors = {
        k: j["phase_cycles"]
        for k, j in by_key.items()
        if isinstance(j.get("phase_cycles"), list)
    }
    depth = max((len(v) for v in vectors.values()), default=0)
    if depth <= 1:
        return []
    rows = []
    for p in range(depth):
        cells = [
            str(vectors[k][p])
            if k in vectors and p < len(vectors[k])
            else "-"
            for k in columns
        ]
        rows.append(f"| ↳ phase {p} | " + " | ".join(cells) + " | - | - |")
    return rows


def fmt_hotpath(entry):
    h = entry.get("hotpath")
    if not h or h.get("sim_cycles_per_sec") is None:
        return "-"
    cps = h["sim_cycles_per_sec"]
    speedup = h.get("speedup_vs_baseline")
    cell = f"{cps / 1e3:.0f}k"
    if speedup is not None:
        cell += f" ({speedup:.2f}x)"
    return cell


def fmt_mt_over_sm(entry):
    """MT-CGRA/SM throughput ratio cell ('-' for pre-per-arch entries)."""
    h = entry.get("hotpath") or {}
    ratio = h.get("mt_vs_sm_slowdown")
    if not isinstance(ratio, (int, float)) or ratio <= 0:
        return "-"
    return f"{ratio:.2f}x"


def render(trajectory, last):
    entries = trajectory.get("entries", [])[-last:]
    if not entries:
        return None
    # Column order: first appearance across entries (bench-major, stable).
    columns = []
    for e in entries:
        for j in e.get("jobs", []):
            key = (j["bench"], j["arch"])
            if key not in columns:
                columns.append(key)
    lines = [
        "### Bench trajectory (cycles over pushes)",
        "",
        "| push | "
        + " | ".join(f"{b}/{a}" for b, a in columns)
        + " | hotpath [cyc/s] | MT/SM |",
        "|---" * (len(columns) + 3) + "|",
    ]
    prev_by_key = {}
    for e in entries:
        by_key = {(j["bench"], j["arch"]): j for j in e.get("jobs", [])}
        cells = [
            fmt_cell(by_key[k], prev_by_key.get(k)) if k in by_key else "-"
            for k in columns
        ]
        sha = str(e.get("sha", "?"))[:10]
        lines.append(
            f"| `{sha}` | "
            + " | ".join(cells)
            + f" | {fmt_hotpath(e)} | {fmt_mt_over_sm(e)} |"
        )
        lines.extend(phase_rows(e, columns))
        prev_by_key = by_key
    lines.append("")
    lines.append(
        "Cycle deltas are marked only at identical `config_hash`; "
        "`·Np` marks multi-phase jobs and `↳ phase k` rows break their "
        "cycles down per phase (schema-v2 entries); "
        "`hotpath` is host-dependent simulator throughput (informational); "
        "`MT/SM` is how many times slower the MT-CGRA engine simulates "
        "than the Fermi-SM engine on the smoke work (gated push-over-push "
        "and against an absolute ceiling by `ci/arch_gate.py`)."
    )
    return "\n".join(lines) + "\n"


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("trajectory")
    ap.add_argument("--out", help="file to append the table to (e.g. $GITHUB_STEP_SUMMARY)")
    ap.add_argument("--last", type=int, default=20, help="render at most the last N pushes")
    args = ap.parse_args()

    trajectory = load(args.trajectory)
    if trajectory is None:
        return 0
    table = render(trajectory, max(args.last, 1))
    if table is None:
        print("trajectory summary: trajectory has no entries yet")
        return 0
    print(table, end="")
    if args.out:
        with open(args.out, "a", encoding="utf-8") as f:
            f.write(table)
    return 0


if __name__ == "__main__":
    sys.exit(main())
