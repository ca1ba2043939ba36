#!/usr/bin/env python3
"""Bench smoke gate for the SIDCo multi-stage compress, SIMD dispatch, nn
layer kernel, replica construction and dense decode-mean paths.

Usage:
    check_bench_regression.py CURRENT.json [CURRENT2.json ...] [BASELINE.json]
    check_bench_regression.py --autotune-gate METRICS.txt

Each CURRENT*.json is a `--benchmark_format=json` dump (bench_micro_kernels
and/or bench_codec); with three or more arguments the last one is the
committed baseline and all preceding dumps are merged into one current run.
The script:
  1. prints the in-run speedup ratios (seed vs fused, scalar vs simd)
     measured in the current dump(s),
  2. if BASELINE.json is given, fails (exit 1) when any gated ratio
     regressed by more than REGRESSION_TOLERANCE.

A named baseline that cannot serve as a gate — missing file, unparseable
JSON, or JSON with none of the gated benchmark pairs (e.g. a renamed
"benchmarks" key) — is a loud failure, not a silent pass: the CI gate must
never turn itself off because the committed baseline rotted.

With --autotune-gate the input is run_scenarios output (or a golden file)
for a matrix that sweeps both fixed-ratio cells and /at-<mode> autotuned
cells.  Cells are grouped by their name with the ratio component and the
/at-<mode> suffix removed (same benchmark/scheme/topology/network regime);
within each group the gate enforces the controller contract:
  - never-degrade: every autotuned cell's final loss stays within
    AUTOTUNE_LOSS_TOLERANCE of the best fixed-ratio cell's loss, and
  - beat-fixed: in at least one group some autotuned cell's modeled wall
    time undercuts the best wall among the fixed cells whose loss is
    within tolerance of the group's best loss.
A metrics file with no autotuned cells, or autotuned cells with no fixed
siblings, is a loud failure for the same reason as a rotted baseline.

The gated quantity of the bench mode is the *in-run speedup ratio*
legacy_time / fused_time
(seed-replica vs fused pipeline, measured in the same process on the same
machine), compared against the same ratio in the committed baseline.
Machine speed cancels out of the ratio, so the gate is robust to CI runners
being faster or slower than the box that recorded the baseline; absolute
times are printed for information only.
"""

import json
import sys

# (slow prefix, fast prefix, label): the in-run ratio pairs that gate.  The
# seed-vs-fused pairs gate the multi-stage algorithm; the scalar-vs-simd
# pairs gate the dispatched kernel and codec fast paths (bit-identical to
# scalar by the differential suite, so the ratio is pure speed); the layer
# pairs gate the vectorized Conv2D/Dense kernels against the frozen scalar
# loops (bit-identical by test_nn_kernels); the replica pair gates building a
# session's workers from one seeded model against seeding each of them
# (byte-identical replicas by test_dist); the decode-mean pair gates adding
# dense payloads straight from their bytes against decoding each into a
# staging vector first (bit-identical means by test_sparse_aggregation).
GATED_PAIRS = [
    ("BM_SidcoMultiStageCompressLegacy/", "BM_SidcoMultiStageCompress/",
     "multi-stage compress (seed vs fused)"),
    ("BM_SidcoTailRefitLegacy/", "BM_SidcoTailRefitFused/",
     "tail refit (seed vs fused)"),
    ("BM_AbsMomentsPlainScalar/", "BM_AbsMomentsPlain/",
     "abs moments (scalar vs simd)"),
    ("BM_ExtractAtLeastScalar/", "BM_ExtractAtLeast/",
     "extract at least (scalar vs simd)"),
    ("BM_CountAtLeastScalar/", "BM_CountAtLeast/",
     "count at least (scalar vs simd)"),
    ("BM_CodecEncodeSparseScalar/", "BM_CodecEncodeSparse/",
     "codec encode (scalar vs simd)"),
    ("BM_CodecDecodeSparseScalar/", "BM_CodecDecodeSparse/",
     "codec decode (scalar vs simd)"),
    ("BM_CodecEncodeQuantizedScalar", "BM_CodecEncodeQuantized",
     "codec pack (scalar vs simd)"),
    ("BM_CodecDecodeQuantizedScalar", "BM_CodecDecodeQuantized",
     "codec unpack (scalar vs simd)"),
    ("BM_ConvLayerLegacy/", "BM_ConvLayer/",
     "conv layer fwd+bwd (scalar loop vs vectorized)"),
    ("BM_DenseLayerLegacy/", "BM_DenseLayer/",
     "dense layer fwd+bwd (scalar loop vs vectorized)"),
    ("BM_MakeWorkersSeeded/", "BM_MakeWorkers/",
     "replica construction (every worker seeded vs one seeded, copied)"),
    ("BM_DenseDecodeMeanStaged/", "BM_DenseDecodeMean/",
     "dense decode-mean (staged decode vs straight from the bytes)"),
]
REGRESSION_TOLERANCE = 0.20  # fail if the speedup ratio drops >20%

# Relative loss slack for the autotune gate; mirrors the scenario golden
# comparator's loss_rel so "within tolerance" means the same thing in both.
AUTOTUNE_LOSS_TOLERANCE = 0.05


def load(path):
    with open(path) as f:
        data = json.load(f)
    out = {}
    for bench in data.get("benchmarks", []):
        if bench.get("run_type", "iteration") != "iteration":
            continue
        out[bench["name"]] = float(bench["cpu_time"])
    return out


def speedups(results):
    """{(label, size): legacy_time / fused_time} for every gated pair."""
    out = {}
    for legacy_prefix, fused_prefix, label in GATED_PAIRS:
        for name, legacy_time in results.items():
            if not name.startswith(legacy_prefix):
                continue
            size = name[len(legacy_prefix):]
            fused_time = results.get(fused_prefix + size)
            if fused_time:
                out[(label, size)] = legacy_time / fused_time
    return out


def parse_scenario_metrics(path):
    """[(name, loss, wall)] from run_scenarios stdout or a golden file.

    Metric lines start with a '/'-separated cell name followed by key=value
    fields; narration lines (matrix banner, per-cell progress, byte totals)
    and '#' comments are skipped.  A cell line whose loss= or wall= field is
    missing or malformed raises ValueError — a gate input that parses to
    nothing must fail loudly, not gate nothing.
    """
    cells = []
    with open(path) as f:
        for line in f:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            tokens = line.split()
            if "/" not in tokens[0] or "=" in tokens[0]:
                continue  # narration, not a cell line
            fields = {}
            for token in tokens[1:]:
                key, sep, value = token.partition("=")
                if sep:
                    fields[key] = value
            try:
                loss = float(fields["loss"])
                wall = float(fields["wall"])
            except (KeyError, ValueError) as err:
                raise ValueError(f"unparseable cell line ({err}): {line}")
            cells.append((tokens[0], loss, wall))
    return cells


def autotune_group_key(name):
    """(group, mode): cell name minus ratio + /at- suffix, and the mode.

    The ratio component ("r0.01") is what the fixed-ratio axis varies and
    the "/at-<mode>" suffix marks autotuned cells, so cells that share the
    remaining components differ only in how the target ratio was chosen —
    exactly the population the controller contract quantifies over.  `mode`
    is None for fixed-ratio cells.
    """
    parts = name.split("/")
    mode = None
    kept = []
    for i, part in enumerate(parts):
        if i == 2 and part.startswith("r"):
            continue  # the ratio component (name layout: bench/scheme/rX/...)
        if part.startswith("at-"):
            mode = part[3:]
            continue
        kept.append(part)
    return "/".join(kept), mode


def autotune_gate(argv):
    if len(argv) != 1:
        print(__doc__)
        return 2
    try:
        cells = parse_scenario_metrics(argv[0])
    except (OSError, ValueError) as err:
        print(f"FAIL: cannot load scenario metrics {argv[0]}: {err}")
        return 1

    groups = {}
    for name, loss, wall in cells:
        group, mode = autotune_group_key(name)
        bucket = groups.setdefault(group, {"fixed": [], "tuned": []})
        bucket["tuned" if mode else "fixed"].append((name, loss, wall))

    tuned_groups = {g: b for g, b in groups.items() if b["tuned"]}
    if not tuned_groups:
        print(f"FAIL: no autotuned (/at-*) cells in {argv[0]}; "
              "the autotune gate has nothing to gate")
        return 1

    failures = []
    wins = []
    for group in sorted(tuned_groups):
        bucket = tuned_groups[group]
        if not bucket["fixed"]:
            failures.append(f"{group}: autotuned cells but no fixed-ratio "
                            "siblings to compare against")
            continue
        best_loss = min(loss for _, loss, _ in bucket["fixed"])
        loss_cap = best_loss * (1.0 + AUTOTUNE_LOSS_TOLERANCE)
        acceptable_walls = [wall for _, loss, wall in bucket["fixed"]
                            if loss <= loss_cap]
        best_wall = min(acceptable_walls)
        print(f"{group}: best fixed loss {best_loss:.6g}, best acceptable "
              f"fixed wall {best_wall:.6g}")
        for name, loss, wall in bucket["tuned"]:
            verdicts = []
            if loss > loss_cap:
                failures.append(f"{name}: loss {loss:.6g} degrades best "
                                f"fixed {best_loss:.6g} beyond "
                                f"{AUTOTUNE_LOSS_TOLERANCE:.0%}")
                verdicts.append("LOSS DEGRADED")
            if wall < best_wall:
                wins.append(name)
                verdicts.append("beats best fixed wall")
            print(f"  {name}: loss={loss:.6g} wall={wall:.6g}"
                  + (" [" + ", ".join(verdicts) + "]" if verdicts else ""))

    if not wins and not failures:
        failures.append("no autotuned cell beats the best acceptable "
                        "fixed-ratio wall in any group")
    if failures:
        print("FAIL: " + "; ".join(failures))
        return 1
    print(f"autotune gate passed: {len(wins)} winning cell(s), "
          "no loss degradation")
    return 0


def main(argv):
    if len(argv) >= 2 and argv[1] == "--autotune-gate":
        return autotune_gate(argv[2:])
    if len(argv) < 2:
        print(__doc__)
        return 2
    # argv[1:-1] are current dumps to merge, argv[-1] is the baseline; with
    # exactly one file there is no baseline (smoke print only).
    current_paths = argv[1:-1] if len(argv) >= 3 else [argv[1]]
    baseline_path = argv[-1] if len(argv) >= 3 else None
    current = {}
    for path in current_paths:
        results = load(path)
        if not results:
            print("error: no benchmarks found in", path)
            return 1
        overlap = set(current) & set(results)
        if overlap:
            print(f"error: duplicate benchmark names across current dumps: "
                  + "; ".join(sorted(overlap)))
            return 1
        current.update(results)
    current_speedups = speedups(current)
    for (label, size), ratio in sorted(current_speedups.items()):
        print(f"{label} @ d={size}: {ratio:.2f}x")

    if baseline_path is None:
        print("no baseline given; smoke check passes")
        return 0
    try:
        baseline = load(baseline_path)
    except (OSError, ValueError) as err:
        print(f"FAIL: cannot load baseline {baseline_path}: {err}")
        return 1
    baseline_speedups = speedups(baseline)
    if not baseline_speedups:
        # An empty "benchmarks" list, a renamed key, or wholesale-renamed
        # benchmark names would otherwise gate nothing and exit 0.
        print(f"FAIL: baseline {baseline_path} contains no gated benchmark "
              "pairs (missing/renamed 'benchmarks' entries?)")
        return 1

    # A baseline pair with no counterpart in the current run means the gated
    # benchmarks were renamed or dropped — that must fail loudly, or the gate
    # would silently turn itself off.
    missing = sorted(set(baseline_speedups) - set(current_speedups))
    if missing:
        print("FAIL: gated benchmarks missing from current run:",
              "; ".join(f"{label} @ d={size}" for label, size in missing))
        return 1

    failures = []
    for key, base_ratio in sorted(baseline_speedups.items()):
        cur_ratio = current_speedups[key]
        label, size = key
        rel = cur_ratio / base_ratio
        status = "ok" if rel >= 1.0 - REGRESSION_TOLERANCE else "REGRESSED"
        print(f"{label} @ d={size}: baseline {base_ratio:.2f}x -> "
              f"current {cur_ratio:.2f}x ({rel:.2f} of baseline) {status}")
        if status == "REGRESSED":
            failures.append(f"{label} @ d={size}")

    if failures:
        print(f"FAIL: multi-stage speedup dropped >{REGRESSION_TOLERANCE:.0%} "
              f"vs committed baseline: " + "; ".join(failures))
        return 1
    print("bench smoke check passed")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
