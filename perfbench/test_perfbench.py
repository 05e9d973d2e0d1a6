"""Tests of the benchmark's own code: python3 -m pytest -q perfbench"""

import hashlib
import json
from pathlib import Path

import generate
import metrics
import run
import spans
import workloads
from qomin import cli, qe
from qomin.syntax import Not, Theory, parse


def _digest(items) -> str:
    return hashlib.sha256(repr(items).encode()).hexdigest()


def test_generator_is_deterministic():
    assert _digest(generate.eliminate_family(7)) == _digest(generate.eliminate_family(7))
    assert generate.eliminate_family(7) != generate.eliminate_family(8)
    assert generate.interval_formulas(7, 20) == generate.interval_formulas(7, 20)


def test_generated_family_respects_its_grammar_limits():
    family = generate.eliminate_family(3)
    assert len(family) == sum(count for *_, count in generate.FAMILY_CELLS)
    for name, text in family:
        f = parse(text, Theory(name))
        assert 1 <= workloads._depth(f) <= 2, text
        assert "<=" not in text and "D97" not in text


def test_tail_percentile_keeps_ten_samples_beyond():
    assert metrics.tail_percentile(230) == 95.0
    assert metrics.beyond(230, 95.0) == 11
    assert metrics.tail_percentile(999) == 95.0       # p99 would leave 9
    assert metrics.tail_percentile(1000) == 99.0
    assert metrics.tail_percentile(10_000) == 99.9
    assert metrics.tail_percentile(20) == 50.0


def test_tail_is_reported_with_its_sample_count():
    assert metrics.describe_tail(230, 95.0) == "Harrell-Davis p95, n=230, 11 beyond"
    assert metrics.describe_tail(2246, 99.0) == "Harrell-Davis p99, n=2246, 22 beyond"


def test_harrell_davis_percentile():
    assert metrics.betainc(1, 1, 0.3) == 0.3
    assert abs(metrics.betainc(2, 3, 0.4) - 0.5248) < 1e-12   # sum of binomial terms
    assert abs(metrics.harrell_davis(list(range(1, 231)), 95.0) - 219) < 1e-6
    assert abs(metrics.harrell_davis([3.0] * 50, 99.0) - 3.0) < 1e-12
    # one slow op in a sparse tail moves the estimate by its weight, not by
    # the gap to the next value
    base = [1.0] * 200 + [10.0 * k for k in range(1, 31)]
    bumped = base[:-12] + [base[-12] * 1.5] + base[-11:]
    assert abs(metrics.harrell_davis(bumped, 95.0) / metrics.harrell_davis(base, 95.0) - 1) < 0.1


def test_self_times_on_a_hand_built_tree():
    #  op [0, 100]
    #    a [10, 40]
    #      b [20, 30]
    #    c [50, 90]
    tree = [
        ["bench.op", 0, 100, None, 0],
        ["qe.pres_z", 10, 40, 0, 0],
        ["models.search.dlo_pred", 20, 30, 1, 0],
        ["cli.run", 50, 90, 0, 0],
    ]
    selfs = spans.self_times(tree)
    assert selfs == [30, 20, 10, 40]
    assert spans.check_op_sums(tree, selfs) == []
    layers = spans.layer_metrics(tree, selfs)
    assert layers["qe.pres_z_s"] == 20e-9
    assert layers["models.search.dlo_pred_s"] == layers["models.search_s"] == 10e-9
    assert layers["cli.self_s"] == 40e-9


def test_overlapping_children_break_the_op_sum():
    tree = [
        ["bench.op", 0, 10, None, 0],
        ["syntax.parse", 0, 6, 0, 0],
        ["syntax.parse", 4, 10, 0, 0],
    ]
    selfs = spans.self_times(tree)
    assert selfs[0] == 0
    assert spans.check_op_sums(tree, selfs) == [0]


def test_tracer_replaces_imported_names_and_restores_them():
    orig = qe.qe
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert cli.qe is qe.qe is not orig
        truth = tracer.op(0, lambda: qe.decide(Theory.PRES_Z, parse("E u. 2*u = 4", Theory.PRES_Z)))
    finally:
        tracer.uninstall()
    assert truth is True and cli.qe is qe.qe is orig
    names = [s[spans.NAME] for s in tracer.spans]
    assert names[:3] == ["bench.op", "qe.decide", "qe.pres_z"]
    selfs = spans.self_times(tracer.spans)
    assert spans.check_op_sums(tracer.spans, selfs) == []
    assert spans.count_metrics(tracer.spans, tracer.outputs)["qe.calls"] == 1


def test_a_negated_qe_output_counts_as_failed():
    theory = Theory.PRES_Z
    f = parse("E u. 2*u = y", theory)
    samples = [{"y": 2}, {"y": 3}]
    good = workloads.Op("qe", lambda: qe.qe(theory, f),
                        lambda out: workloads.check_qe_output(theory, f, out, samples))
    bad = workloads.Op("negated qe", lambda: Not(qe.qe(theory, f)), good.check)
    ops = [good, bad, good]
    _, outs, errs, _ = run._run_pass(ops)
    failures = run._check(ops, outs, errs)
    assert len(failures) == 1 and failures[0].startswith("negated qe:")


def test_a_later_pass_must_reproduce_the_first():
    ops = [workloads.Op("op", lambda: 1, lambda out: None)]
    assert run._check(ops, [2], [None], reference=[1]) == ["op: output differs from the first pass"]


def test_traced_metrics_are_the_declared_per_layer_metrics():
    declared = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
    names = {m["name"] for m in declared["per_layer"]}
    reported = set(spans.layer_metrics([], [])) | set(spans.count_metrics([], {}))
    assert names == reported | {"trace.overhead_ratio"}


def test_layer_probe_reaches_every_layer():
    tracer = spans.Tracer()
    tracer.install()
    try:
        probe = tracer.op("setup", workloads.layer_probe)
        outs = [tracer.op(i, op.call) for i, op in enumerate(probe)]
    finally:
        tracer.uninstall()
    assert [op.check(out) for op, out in zip(probe, outs)] == [None] * len(probe)
    selfs = spans.self_times(tracer.spans)
    assert spans.check_op_sums(tracer.spans, selfs) == []
    layers = spans.layer_metrics(tracer.spans, selfs)
    assert [k for k, v in layers.items() if v <= 0] == []
    counts = spans.count_metrics(tracer.spans, tracer.outputs)
    assert [k for k, v in counts.items() if v <= 0] == []
