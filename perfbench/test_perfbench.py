"""Tests of the benchmark itself, from the repo root:

    python3 -m pytest perfbench

Smoke runs cover the output contract (metric names and units, correctness
flags); the rest covers the correctness checks and the trace arithmetic.
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import checks  # noqa: E402
import rodfind  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOAD_METRICS = {
    "train": ["train_samples_per_s", "train_loss_end"],
    "ingest": ["ingest_samples_per_s", "eval_samples_per_s", "mesh_triangles_per_s"],
    "query": ["query_p50_ms", "query_tail_ms", "query_qps"],
}


def run_bench(cwd, *args):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_smoke_run_reports_every_declared_metric(workload, trace):
    out = run_bench(ROOT, "--workload", workload, "--seed", "5", "--seconds", "0.5",
                    "--trace", str(trace), "--smoke")
    assert out.returncode == 0, out.stderr
    lines = out.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0, out.stderr
    assert result["attempted"] >= 1
    declared = BENCH["per_layer" if trace else "end_to_end"]
    assert ({name: m["unit"] for name, m in result["metrics"].items()}
            == {m["name"]: m["unit"] for m in declared})
    for m in result["metrics"].values():
        assert isinstance(m["value"], (int, float)) and math.isfinite(m["value"])
    for name in WORKLOAD_METRICS[workload] + ["error_rate"]:
        assert any(line.startswith(f"metric {name} = ") for line in lines), name
    assert any(line.startswith("machine nproc=") for line in lines)
    assert any(line.startswith("corpus_sha256 ") and len(line.split()[1]) == 64
               for line in lines)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    out = run_bench(tmp_path, "--workload", "query", "--seed", "1", "--seconds", "1",
                    "--trace", "0")
    assert out.returncode != 0
    assert "{" not in out.stdout


def test_same_seed_same_inputs(tmp_path):
    digests = []
    for name in ("a", "b"):
        w = workloads.Train(rodfind, workloads.SMOKE, 9, tmp_path / name)
        w.setup()
        digests.append(w.digest)
    assert digests[0] == digests[1]


# ---------------------------------------------------------------------------
# correctness checks

def test_query_check_catches_a_swapped_tie_order(tmp_path):
    w = workloads.Query(rodfind, workloads.SMOKE, 3, tmp_path)
    w.setup()
    for _ in w.queries:
        op = w.op()
        w.check(op)
        matches = op.data["matches"]
        if matches[0][1] == matches[1][1]:
            break
    else:
        pytest.fail("no query with a planted tie was served")
    op.data["matches"] = [matches[1], matches[0], *matches[2:]]
    with pytest.raises(checks.CheckFailed, match="differ from reference"):
        w.check(op)


def test_query_check_catches_a_misparsed_text(tmp_path):
    w = workloads.Query(rodfind, workloads.SMOKE, 3, tmp_path)
    w.setup()
    op = w.op()
    op.data["sample"] = w.queries[1][1]
    with pytest.raises(checks.CheckFailed, match="parse_text"):
        w.check(op)


def _flip_grid(data):
    grid = data["loaded"][0].grid
    grid.occupancy[0, 0, 0] ^= 1


def _edit_row(data):
    data["manifest"].rows[0].text += " again"


def _bump_recall(data):
    data["recall"][1] += 1.0 / len(data["samples"])


def _clear_hub(data):
    data["grids"][0].occupancy[:] = 0


@pytest.mark.parametrize("corrupt, message", [
    (_flip_grid, "NRRD did not round-trip"),
    (_edit_row, "manifest rows"),
    (_bump_recall, "recall@1"),
    (_clear_hub, "empty or full grid"),
])
def test_ingest_checks_catch_corrupted_outputs(tmp_path, corrupt, message):
    w = workloads.Ingest(rodfind, workloads.SMOKE, 4, tmp_path)
    w.setup()
    op = w.op()
    corrupt(op.data)
    with pytest.raises(checks.CheckFailed, match=message):
        w.check(op)


def test_loss_check_rejects_non_finite_and_out_of_range():
    checks.check_loss(0.7, 5.0)
    for bad in (float("nan"), float("inf"), -0.1, 5.5):
        with pytest.raises(checks.CheckFailed):
            checks.check_loss(bad, 5.0)


def test_reference_recall_breaks_ties_by_id():
    texts = np.array([[1.0, 0.0], [0.0, -1.0]])
    shapes = np.array([[0.0, 1.0], [0.0, -1.0]])
    # text 0 is equidistant from both shapes: its own shape ranks first only
    # when its id is the smaller one, wherever it sits in the gallery
    assert checks.reference_recall(texts, shapes, ["a", "b"], 1) == 1.0
    assert checks.reference_recall(texts, shapes, ["b", "a"], 1) == 0.5


def test_tail_percentile_leaves_ten_samples_beyond():
    values = list(range(1, 101))
    assert checks.tail_percentile(values) == (90.0, 90)
    assert checks.tail_percentile([3, 1, 2]) == (100.0, 3)


def test_tree_check_sees_a_new_file(tmp_path):
    (tmp_path / "kept.txt").write_text("x")
    before = run.tree_state(tmp_path)
    run.check_tree_unchanged(tmp_path, before)
    (tmp_path / ".perfbench").mkdir()
    (tmp_path / ".perfbench" / "scratch").write_text("ignored")
    run.check_tree_unchanged(tmp_path, before)
    (tmp_path / "stray.nrrd").write_text("y")
    with pytest.raises(RuntimeError, match="stray.nrrd"):
        run.check_tree_unchanged(tmp_path, before)


# ---------------------------------------------------------------------------
# trace arithmetic

def test_self_time_subtracts_the_union_of_child_spans():
    spans = [["a", 0.0, 10.0, -1], ["b", 1.0, 4.0, 0], ["c", 3.0, 6.0, 0],
             ["d", 2.0, 3.0, 1], ["a", 20.0, 21.0, -1]]
    got = tracing.self_times(spans)
    assert got["a"] == pytest.approx((10.0 - 5.0) + 1.0)  # children cover [1, 6]
    assert got["b"] == pytest.approx(2.0)
    assert got["c"] == pytest.approx(3.0)
    assert got["d"] == pytest.approx(1.0)


def test_optimizer_time_is_fit_minus_its_gradient_and_eval_calls():
    spans = [["training.fit", 0.0, 10.0, -1],
             ["training.loss_and_gradients", 1.0, 5.0, 0],
             ["training.evaluate_recall", 6.0, 7.0, 0],
             ["training.evaluate_recall", 20.0, 22.0, -1]]
    assert tracing.optimizer_time(spans) == pytest.approx(5.0)


def test_per_layer_times_are_per_operation_with_setup_apart():
    setup, measure = tracing.Tracer(), tracing.Tracer()
    setup.spans = [["nn.gru_fwd", 0.0, 1.0, -1], ["encoders.checkpoint_io", 0.0, 0.5, -1]]
    measure.spans = [["nn.gru_fwd", 0.0, 2.0, -1], ["nn.gru_fwd", 3.0, 7.0, -1]]
    measure.count("training.anchors", 4)
    measure.count("training.fallbacks", 1)
    measure.count("taxonomy.default_schema_calls", 6)
    got = tracing.per_layer_metrics(setup, measure, ops=2)
    assert got["nn.gru_fwd_s"] == pytest.approx(6.0 / 2)
    assert got["setup.encoders.checkpoint_io_s"] == pytest.approx(0.5)
    assert got["encoders.checkpoint_io_s"] == 0.0
    assert got["training.fallback_ratio"] == 0.25
    assert got["taxonomy.default_schema_calls"] == 3
    assert set(got) | {"trace.overhead_ratio"} == set(tracing.PER_LAYER_UNITS)


def test_best_of_repeats_takes_each_piece_at_its_fastest():
    # two operations of the same shape: root r calls c1 then c2
    spans = [["r", 0.0, 10.0, -1], ["c1", 1.0, 3.0, 0], ["c2", 4.0, 8.0, 0],
             ["r", 20.0, 27.0, -1], ["c1", 21.0, 22.0, 3], ["c2", 23.0, 26.0, 3]]
    keys = [s[0] for s in spans]
    # pieces: r before c1 (1, 1), r between c1 and c2 (1, 1), r after c2
    # (2, 1), c1 (2, 1), c2 (4, 3)
    assert tracing.best_of_repeats(spans, keys) == pytest.approx(2 + 2 + 2 + 2 + 6)
    # equal repeats: the estimate is the sum of the root spans
    same = spans[:3] + [["r", 20.0, 30.0, -1], ["c1", 21.0, 23.0, 3], ["c2", 24.0, 28.0, 3]]
    assert tracing.best_of_repeats(same, keys) == pytest.approx(20.0)
    # a different key is other work: no repeat, so both count as measured
    assert tracing.best_of_repeats(spans, keys[:3] + ["q", "c1", "c2"]) == pytest.approx(
        10.0 + 7.0 - (2 - 1) - (4 - 3))


def test_signature_sees_shapes_lengths_and_cache_contents():
    sig = tracing.signature
    x = np.zeros((2, 5, 3), dtype=np.float32)
    assert sig(x) == ((2, 5, 3), "<f4")
    assert sig(np.array([3, 7])) != sig(np.array([3, 6]))  # GRU steps
    assert sig(np.array([3, 7])) == sig(np.array([7, 1]))
    cache = (x, [1, 2, 3], 4, (1, 2))
    assert sig(cache) == (((2, 5, 3), "<f4"), ("list", 3), 4, ("tuple", 2))
    assert sig("some text") == "str"


def test_keyed_tracer_keys_calls_by_name_and_signature():
    tracer = tracing.Tracer(keyed=True)
    fn = tracing.wrap(tracer, lambda x, flag=False: x, "f")
    fn(np.zeros(3), flag=True)
    fn(np.zeros(4))
    assert tracer.keys == [("f", (((3,), "<f8"),), (("flag", 1),)),
                           ("f", (((4,), "<f8"),), ())]
    assert tracing.Tracer().keys is None


def test_instrument_nests_spans_and_restores_every_namespace():
    ds, enc = rodfind.dataset, rodfind.encoders
    originals = {attr: getattr(rodfind.retrieval, attr)
                 for attr in ("parse_text", "tokenize", "pairwise_distances")}
    sample = ds.generate_variants(bases=1, per_base=1, with_grids=False)[0]
    vocab = ds.build_vocabulary([sample.text], min_count=1)
    text, _ = enc.init_params(vocab.size, seed=0)
    seq = ds.tokenize(sample.text, vocab)
    tracer = tracing.Tracer()
    with tracing.instrument(rodfind, tracer):
        rodfind.retrieval.parse_text(sample.text)
        enc.text_forward(text, seq.tokens[None, :], np.array([seq.true_length]))
    for attr, fn in originals.items():
        assert getattr(rodfind.retrieval, attr) is fn
    names = [s[0] for s in tracer.spans]
    assert names[0] == "taxonomy.parse_text"
    apply = names.index("encoders.text_apply")
    children = {s[0] for s in tracer.spans if s[3] == apply}
    assert children == {"nn.conv1d_fwd", "nn.gru_fwd"}
    assert all(s[2] >= s[1] for s in tracer.spans)
