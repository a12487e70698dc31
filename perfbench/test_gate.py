"""The benchmark's correctness gate: a clean output passes, and one
corrupted, missing or duplicated row fails it.

    python3 -m pytest perfbench/test_gate.py -q -p no:cacheprovider
"""

import os
import sys

import pyarrow as pa
import pyarrow.parquet as pq
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.dirname(HERE), HERE]

import run  # noqa: E402
import workloads as w  # noqa: E402

COLUMNS = w.CHECK_COLUMNS["code_mix"]


@pytest.fixture(scope="module")
def case():
    """A small code_mix-shaped input and its in-process reference."""
    from pii_filter_ray.sources.synthetic_code import generate_corpus
    from pii_filter_ray.stages.quality_scrub import QualityScrubStage

    table, expectations = generate_corpus(n_rows=300, seed=11)
    out = w.run_stage(table, QualityScrubStage(**w.STAGE_KWARGS["code_mix"]))
    ref = out.select(list(w.KEY) + list(COLUMNS))
    inputs = w.Inputs("code_mix", 11, "", "", table, expectations, 0)
    return inputs, ref


def _corrupt_one(ref: pa.Table) -> pa.Table:
    """``ref`` with the masked text of its first PII-bearing row changed."""
    masked = ref["content_masked"].to_pylist()
    row = next(i for i, m in enumerate(ref["pii_masked"].to_pylist()) if m)
    masked[row] = masked[row].replace("[", "<", 1)
    idx = ref.column_names.index("content_masked")
    return ref.set_column(idx, "content_masked", pa.array(masked, pa.string()))


def _gate(inputs, ref, output: pa.Table, tmp_path) -> run.Check:
    pq.write_table(output, os.path.join(tmp_path, "part-0.parquet"))
    check = run.Check()
    run._check_pipeline_output(inputs, ref, str(tmp_path), check)
    return check


def test_reference_output_passes(case, tmp_path):
    inputs, ref = case
    check = _gate(inputs, ref, ref, tmp_path)
    assert (check.attempted, check.failed) == (inputs.rows, 0)


def test_one_corrupted_row_fails(case, tmp_path):
    inputs, ref = case
    check = _gate(inputs, ref, _corrupt_one(ref), tmp_path)
    assert (check.attempted, check.failed) == (inputs.rows, 1)


def test_missing_and_duplicated_rows_fail(case):
    _, ref = case
    assert w.count_mismatches(ref, ref.slice(1), COLUMNS) == 1
    assert w.count_mismatches(ref, pa.concat_tables([ref, ref.slice(0, 1)]), COLUMNS) == 1


def test_ground_truth_ratios_on_reference(case):
    inputs, ref = case
    assert w.keep_drop_f1(inputs.expectations, ref) > 0.9
    assert w.pii_span_f1(inputs.expectations, ref) > 0.9
    assert w.restore_exact_frac(ref) == 1.0
