#!/usr/bin/env python3
"""Self-test for check_bench_regression.py (the CI bench gate).

Runs under plain `python3 tools/test_check_bench_regression.py` (unittest)
and under pytest.  The cases pin the gate's failure modes, in particular
that a named-but-unusable baseline (missing file, bad JSON, no gated keys)
fails loudly instead of silently disabling the gate.
"""

import json
import os
import sys
import tempfile
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import check_bench_regression as gate  # noqa: E402


def bench_json(pairs):
    """Benchmark-format JSON with cpu_time per (name, time) pair."""
    return {
        "benchmarks": [
            {"name": name, "run_type": "iteration", "cpu_time": time}
            for name, time in pairs
        ]
    }


def gated_run(legacy_time, fused_time):
    return bench_json([
        ("BM_SidcoMultiStageCompressLegacy/4096", legacy_time),
        ("BM_SidcoMultiStageCompress/4096", fused_time),
        ("BM_SidcoTailRefitLegacy/4096", legacy_time),
        ("BM_SidcoTailRefitFused/4096", fused_time),
    ])


def codec_run(scalar_time, simd_time):
    """A bench_codec-style dump with one scalar-vs-simd dispatch pair."""
    return bench_json([
        ("BM_CodecEncodeSparseScalar/varint_fp32", scalar_time),
        ("BM_CodecEncodeSparse/varint_fp32", simd_time),
    ])


def simd_run(scalar_time, simd_time):
    """A kernel dump with a scalar-vs-simd dispatch pair."""
    return bench_json([
        ("BM_AbsMomentsPlainScalar/4194304", scalar_time),
        ("BM_AbsMomentsPlain/4194304", simd_time),
    ])


def layer_run(legacy_time, vectorized_time):
    """A kernel dump with the conv and dense layer pairs."""
    return bench_json([
        ("BM_ConvLayerLegacy/16", legacy_time),
        ("BM_ConvLayer/16", vectorized_time),
        ("BM_DenseLayerLegacy/8", legacy_time),
        ("BM_DenseLayer/8", vectorized_time),
    ])


def replica_run(seeded_time, copied_time):
    """A kernel dump with the replica-construction pair."""
    return bench_json([
        ("BM_MakeWorkersSeeded/vgg19", seeded_time),
        ("BM_MakeWorkers/vgg19", copied_time),
    ])


def decode_mean_run(staged_time, direct_time):
    """A kernel dump with the dense decode-mean pair."""
    return bench_json([
        ("BM_DenseDecodeMeanStaged/vgg19", staged_time),
        ("BM_DenseDecodeMean/vgg19", direct_time),
    ])


class CheckBenchRegressionTest(unittest.TestCase):
    def setUp(self):
        self._dir = tempfile.TemporaryDirectory()
        self.addCleanup(self._dir.cleanup)

    def write(self, name, payload):
        path = os.path.join(self._dir.name, name)
        with open(path, "w") as f:
            if isinstance(payload, str):
                f.write(payload)
            else:
                json.dump(payload, f)
        return path

    def run_gate(self, *argv):
        return gate.main(["check_bench_regression.py", *argv])

    def test_no_baseline_given_passes(self):
        current = self.write("current.json", gated_run(400.0, 100.0))
        self.assertEqual(self.run_gate(current), 0)

    def test_healthy_speedup_vs_baseline_passes(self):
        current = self.write("current.json", gated_run(400.0, 100.0))
        baseline = self.write("baseline.json", gated_run(390.0, 100.0))
        self.assertEqual(self.run_gate(current, baseline), 0)

    def test_regressed_speedup_fails(self):
        # Baseline 4.0x, current 2.0x: a 50% drop, far past the tolerance.
        current = self.write("current.json", gated_run(200.0, 100.0))
        baseline = self.write("baseline.json", gated_run(400.0, 100.0))
        self.assertEqual(self.run_gate(current, baseline), 1)

    def test_missing_baseline_file_fails_loudly(self):
        current = self.write("current.json", gated_run(400.0, 100.0))
        missing = os.path.join(self._dir.name, "nope.json")
        self.assertEqual(self.run_gate(current, missing), 1)

    def test_unparseable_baseline_fails_loudly(self):
        current = self.write("current.json", gated_run(400.0, 100.0))
        baseline = self.write("baseline.json", "this is not json{")
        self.assertEqual(self.run_gate(current, baseline), 1)

    def test_baseline_without_gated_keys_fails_loudly(self):
        # The key-rot case the fix targets: a baseline whose JSON parses but
        # gates nothing (renamed top-level key) must not silently pass.
        current = self.write("current.json", gated_run(400.0, 100.0))
        baseline = self.write("baseline.json", {"renamed_benchmarks": []})
        self.assertEqual(self.run_gate(current, baseline), 1)

    def test_gated_bench_missing_from_current_fails(self):
        current = self.write(
            "current.json",
            bench_json([("BM_SomethingElse/4096", 100.0)]))
        baseline = self.write("baseline.json", gated_run(400.0, 100.0))
        self.assertEqual(self.run_gate(current, baseline), 1)

    def test_empty_current_fails(self):
        current = self.write("current.json", {"benchmarks": []})
        self.assertEqual(self.run_gate(current), 1)

    def test_merged_current_dumps_gate_together(self):
        # bench_micro_kernels and bench_codec dump separately; the gate must
        # merge them and check pairs from both against one baseline.
        kernels = self.write("kernels.json", gated_run(400.0, 100.0))
        codec = self.write("codec.json", codec_run(300.0, 100.0))
        merged = bench_json([])
        merged["benchmarks"] = (gated_run(400.0, 100.0)["benchmarks"] +
                                codec_run(300.0, 100.0)["benchmarks"])
        baseline = self.write("baseline.json", merged)
        self.assertEqual(self.run_gate(kernels, codec, baseline), 0)

    def test_merged_current_regression_in_second_dump_fails(self):
        kernels = self.write("kernels.json", gated_run(400.0, 100.0))
        codec = self.write("codec.json", codec_run(120.0, 100.0))  # 1.2x
        merged = bench_json([])
        merged["benchmarks"] = (gated_run(400.0, 100.0)["benchmarks"] +
                                codec_run(300.0, 100.0)["benchmarks"])  # 3.0x
        baseline = self.write("baseline.json", merged)
        self.assertEqual(self.run_gate(kernels, codec, baseline), 1)

    def test_duplicate_names_across_current_dumps_fail(self):
        # Passing the same dump twice must not silently overwrite entries.
        current = self.write("current.json", gated_run(400.0, 100.0))
        baseline = self.write("baseline.json", gated_run(400.0, 100.0))
        self.assertEqual(self.run_gate(current, current, baseline), 1)

    @staticmethod
    def metrics_line(scheme, ratio, network, mode, loss, wall):
        name = f"lstm-ptb/{scheme}/r{ratio}/allgather/{network}/homogeneous/ec1/s0/c1"
        if mode:
            name += f"/at-{mode}"
        return (f"{name} loss={loss} quality=64.2 frac=0.05 wall={wall} "
                f"bytes=1000 eff=0.05 mean_stale=0 stale=40")

    def autotune_matrix(self, tuned_loss=4.162, tuned_wall=5.0):
        """One regime: fixed cells at walls 6.1/8.1, one tunable sibling."""
        return "\n".join([
            "scenario matrix: 3 cells (spec.scn, engine simulated)",
            "  run 1/1: lstm-ptb/sidco-e/r0.03/...",
            self.metrics_line("sidco-e", "0.03", "1gbps@50us", None,
                              4.162, 6.1),
            self.metrics_line("sidco-e", "0.06", "1gbps@50us", None,
                              4.162, 8.1),
            self.metrics_line("sidco-e", "0.03", "1gbps@50us", "bytes",
                              tuned_loss, tuned_wall),
            "measured bytes-on-wire: 3000 across 3 cells",
        ])

    def test_autotune_gate_win_passes(self):
        # The tuned cell undercuts the best acceptable fixed wall (6.1) at
        # equal loss; narration lines from run_scenarios stdout are skipped.
        metrics = self.write("metrics.txt", self.autotune_matrix())
        self.assertEqual(self.run_gate("--autotune-gate", metrics), 0)

    def test_autotune_gate_no_win_fails(self):
        metrics = self.write(
            "metrics.txt", self.autotune_matrix(tuned_wall=7.0))
        self.assertEqual(self.run_gate("--autotune-gate", metrics), 1)

    def test_autotune_gate_loss_degradation_fails(self):
        # Wall win but the loss blows the 5% tolerance: never-degrade must
        # override beat-fixed.
        metrics = self.write(
            "metrics.txt", self.autotune_matrix(tuned_loss=4.5))
        self.assertEqual(self.run_gate("--autotune-gate", metrics), 1)

    def test_autotune_gate_without_tuned_cells_fails_loudly(self):
        metrics = self.write("metrics.txt", "\n".join([
            self.metrics_line("sidco-e", "0.03", "1gbps@50us", None,
                              4.162, 6.1),
        ]))
        self.assertEqual(self.run_gate("--autotune-gate", metrics), 1)

    def test_autotune_gate_without_fixed_siblings_fails_loudly(self):
        metrics = self.write("metrics.txt", "\n".join([
            self.metrics_line("sidco-e", "0.03", "1gbps@50us", "bytes",
                              4.162, 5.0),
        ]))
        self.assertEqual(self.run_gate("--autotune-gate", metrics), 1)

    def test_autotune_gate_malformed_cell_line_fails_loudly(self):
        metrics = self.write("metrics.txt", "\n".join([
            "lstm-ptb/sidco-e/r0.03/allgather/1gbps@50us loss=oops wall=6.1",
        ]))
        self.assertEqual(self.run_gate("--autotune-gate", metrics), 1)

    def test_autotune_gate_missing_file_fails_loudly(self):
        missing = os.path.join(self._dir.name, "nope.txt")
        self.assertEqual(self.run_gate("--autotune-gate", missing), 1)

    def test_autotune_gate_groups_regimes_separately(self):
        # The win lives in the slow regime; the fast regime's tuned cell
        # merely holds loss.  One win anywhere passes the matrix.
        lines = [
            self.metrics_line("sidco-e", "0.03", "10gbps", None, 4.162, 0.2),
            self.metrics_line("sidco-e", "0.03", "10gbps", "full",
                              4.162, 0.21),
            self.metrics_line("sidco-e", "0.03", "1gbps@50us", None,
                              4.162, 6.1),
            self.metrics_line("sidco-e", "0.03", "1gbps@50us", "full",
                              4.162, 5.0),
        ]
        metrics = self.write("metrics.txt", "\n".join(lines))
        self.assertEqual(self.run_gate("--autotune-gate", metrics), 0)

    def test_scalar_vs_simd_pairs_gate(self):
        # Dispatch pair regression: baseline 4.0x, current 1.5x.
        current = self.write("current.json", simd_run(150.0, 100.0))
        baseline = self.write("baseline.json", simd_run(400.0, 100.0))
        self.assertEqual(self.run_gate(current, baseline), 1)
        healthy = self.write("healthy.json", simd_run(390.0, 100.0))
        self.assertEqual(self.run_gate(healthy, baseline), 0)

    def test_layer_pairs_gate(self):
        # Layer pair regression: baseline 4.0x, current 2.0x.
        current = self.write("current.json", layer_run(200.0, 100.0))
        baseline = self.write("baseline.json", layer_run(400.0, 100.0))
        self.assertEqual(self.run_gate(current, baseline), 1)
        healthy = self.write("healthy.json", layer_run(380.0, 100.0))
        self.assertEqual(self.run_gate(healthy, baseline), 0)

    def test_replica_construction_pair_gates(self):
        # Every replica seeded again: baseline 2.2x, current 1.05x.
        current = self.write("current.json", replica_run(105.0, 100.0))
        baseline = self.write("baseline.json", replica_run(220.0, 100.0))
        self.assertEqual(self.run_gate(current, baseline), 1)
        healthy = self.write("healthy.json", replica_run(200.0, 100.0))
        self.assertEqual(self.run_gate(healthy, baseline), 0)

    def test_dense_decode_mean_pair_gates(self):
        # Back to a staged copy: baseline 1.5x, current 1.0x.
        current = self.write("current.json", decode_mean_run(100.0, 100.0))
        baseline = self.write("baseline.json", decode_mean_run(150.0, 100.0))
        self.assertEqual(self.run_gate(current, baseline), 1)
        healthy = self.write("healthy.json", decode_mean_run(145.0, 100.0))
        self.assertEqual(self.run_gate(healthy, baseline), 0)


if __name__ == "__main__":
    unittest.main()
