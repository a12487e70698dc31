"""Workload inputs, in-process reference outputs, output checks and the
quality ratios the benchmark reports.

Inputs come only from the package's public generators and are cached per
(workload, seed, size) under the benchmark's work directory:

* ``code_mix`` -- ``synthetic_code.corpus_dir`` in its default mix;
  ``run_pipeline`` writes it to Parquet with PII mappings on.
* ``curate_dedup`` -- ``stress_corpus_dir(mb_every=0)`` with its planted
  exact and near duplicates; ``run_curation`` takes it through scrub,
  exact and near-dup dedup and the final write.

The reference output of a (workload, seed) is ``QualityScrubStage`` run in
this process, without Ray, over the same batches the pipeline sees.
"""

from __future__ import annotations

import hashlib
import json
import os
from collections import Counter
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Sequence, Tuple

import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

KEY = ("repo", "path", "commit")
BATCH_ROWS = 256  # quality_scrub's default batch_size
CODE_MIX_ROWS = 8000
CURATE_ROWS = 2000
CURATE_SHARD_ROWS = 500
CURATE_PARTITIONS = 4

# QualityScrubStage arguments each workload's pipeline uses: run_pipeline
# with mappings on, and run_job's scrub inside run_curation
STAGE_KWARGS = {
    "code_mix": {"emit_mappings": True},
    "curate_dedup": {"emit_mappings": False, "drop_content": True},
}
CHECK_COLUMNS = {
    "code_mix": ("keep", "drop_reason", "content_sha256", "content_masked", "pii_masked"),
    # run_job writes no mappings, so there is no pii_masked to check
    "curate_dedup": ("keep", "drop_reason", "content_sha256", "content_masked"),
}


@dataclass
class Inputs:
    name: str
    seed: int
    dir: str  # cache directory of this (workload, seed, size)
    corpus: str  # sharded Parquet directory the pipeline reads
    table: pa.Table  # the same rows, in shard order
    expectations: pa.Table  # the generator's sidecar
    content_bytes: int

    @property
    def rows(self) -> int:
        return self.table.num_rows


def prepare(name: str, seed: int, cache_root: str) -> Inputs:
    """Generate (or reuse) the inputs of ``name`` for ``seed``. The
    ``curate_dedup`` generator runs as Ray tasks, so Ray must be up."""
    root = os.path.join(cache_root, name)
    if name == "code_mix":
        from pii_filter_ray.sources.synthetic_code import corpus_dir

        d = corpus_dir(n_rows=CODE_MIX_ROWS, seed=seed, root=root)
    elif name == "curate_dedup":
        from pii_filter_ray.sources.stress_corpus import stress_corpus_dir

        d = stress_corpus_dir(CURATE_ROWS, seed=seed, root=root,
                              rows_per_shard=CURATE_SHARD_ROWS, mb_every=0)
    else:
        raise ValueError(f"unknown workload {name!r}")
    corpus = os.path.join(d, "corpus")
    shards = sorted(f for f in os.listdir(corpus) if f.endswith(".parquet"))
    table = pa.concat_tables(pq.read_table(os.path.join(corpus, f)) for f in shards)
    content_bytes = pc.sum(pc.binary_length(table["content"])).as_py() or 0
    return Inputs(name, seed, d, corpus, table,
                  pq.read_table(os.path.join(d, "expectations.parquet")),
                  content_bytes)


def batches(table: pa.Table) -> Iterable[pa.Table]:
    for start in range(0, table.num_rows, BATCH_ROWS):
        yield table.slice(start, BATCH_ROWS)


def run_stage(table: pa.Table, stage: Callable[[pa.Table], pa.Table]) -> pa.Table:
    """``stage`` over ``table`` in pipeline-sized batches, in this process."""
    return pa.concat_tables(stage(b) for b in batches(table))


def _atomic_write(path: str, write: Callable[[str], None]) -> None:
    tmp = f"{path}.tmp-{os.getpid()}"
    write(tmp)
    os.replace(tmp, path)


def reference(inputs: Inputs) -> pa.Table:
    """The (workload, seed)'s reference rows: key + checked columns."""
    path = os.path.join(inputs.dir, "reference.parquet")
    if not os.path.exists(path):
        from pii_filter_ray.stages.quality_scrub import QualityScrubStage

        out = run_stage(inputs.table, QualityScrubStage(**STAGE_KWARGS[inputs.name]))
        ref = out.select(list(KEY) + list(CHECK_COLUMNS[inputs.name]))
        _atomic_write(path, lambda p: pq.write_table(ref, p))
    return pq.read_table(path)


def reference_digest(inputs: Inputs, compute: Callable[[], Dict]) -> Dict:
    """The curation digest recorded for this (workload, seed); ``compute``
    supplies it the first time."""
    path = os.path.join(inputs.dir, "curation_digest.json")
    if not os.path.exists(path):
        digest = compute()

        def write(p: str) -> None:
            with open(p, "w") as f:
                json.dump(digest, f)

        _atomic_write(path, write)
    with open(path) as f:
        return json.load(f)


def read_output(path: str, columns: Sequence[str]) -> pa.Table:
    """Every Parquet row under ``path`` (hive partition dirs included;
    ``_``- and ``.``-prefixed entries such as manifests are skipped)."""
    return pq.read_table(path, columns=list(columns))


def count_mismatches(ref: pa.Table, out: pa.Table, columns: Sequence[str]) -> int:
    """Rows missing from ``out``, duplicated or foreign in it, or differing
    from ``ref`` on any of ``columns``."""
    cols = list(KEY) + list(columns)
    expected = {tuple(r[k] for k in KEY): r for r in ref.select(cols).to_pylist()}
    seen = set()
    bad = 0
    for row in out.select(cols).to_pylist():
        key = tuple(row[k] for k in KEY)
        if key in seen or expected.get(key) != row:
            bad += 1
        seen.add(key)
    return bad + len(expected.keys() - seen)


def _keyed(table: pa.Table, columns: Sequence[str]) -> Dict[Tuple, Dict]:
    return {tuple(r[k] for k in KEY): r
            for r in table.select(list(KEY) + list(columns)).to_pylist()}


def f1(tp: int, fp: int, fn: int) -> float:
    return 2 * tp / (2 * tp + fp + fn) if tp + fp + fn else 1.0


def expected_keep(expectations: pa.Table) -> Dict[Tuple, bool]:
    """The generator's keep expectation per row: ``expect_keep`` in the
    synthetic sidecar; every class but ``junk`` in the stress sidecar."""
    if "expect_keep" in expectations.column_names:
        return {k: r["expect_keep"] for k, r in _keyed(expectations, ["expect_keep"]).items()}
    return {k: r["klass"] != "junk" for k, r in _keyed(expectations, ["klass"]).items()}


def keep_drop_f1(expectations: pa.Table, out: pa.Table) -> float:
    """F1 of the output's keep decisions against the generator's."""
    want = expected_keep(expectations)
    tp = fp = fn = 0
    for key, row in _keyed(out, ["keep"]).items():
        exp = want.get(key, False)
        tp += row["keep"] and exp
        fp += row["keep"] and not exp
        fn += exp and not row["keep"]
    return f1(tp, fp, fn)


def pii_span_f1(expectations: pa.Table, out: pa.Table) -> float:
    """Micro F1 of emitted ``pii_masked`` values against the injected PII
    values, matched as multisets per row."""
    truth = _keyed(expectations, ["expect_pii_values"])
    tp = fp = fn = 0
    for key, row in _keyed(out, ["pii_masked"]).items():
        want = Counter(truth[key]["expect_pii_values"])
        got = Counter(m["original_value"] for m in row["pii_masked"] or ())
        hit = sum((want & got).values())
        tp += hit
        fp += sum(got.values()) - hit
        fn += sum(want.values()) - hit
    return f1(tp, fp, fn)


def restore_exact_frac(out: pa.Table) -> float:
    """Share of kept rows whose ``restore_by_spans(content_masked,
    pii_masked)`` hashes to the row's ``content_sha256``."""
    from pii_filter_ray.core import restore
    from pii_filter_ray.stages.restore_stage import _mappings_from_arrow

    kept = out.filter(out["keep"])
    exact = 0
    for row in kept.select(["content_masked", "pii_masked", "content_sha256"]).to_pylist():
        mappings = _mappings_from_arrow(row["pii_masked"])
        restored = restore.restore_by_spans(row["content_masked"], mappings)
        exact += hashlib.sha256(restored.encode("utf-8")).hexdigest() == row["content_sha256"]
    return exact / kept.num_rows if kept.num_rows else 1.0


def dedup_quality(expectations: pa.Table, scrubbed: pa.Table,
                  final: pa.Table) -> Tuple[float, float]:
    """(recall, false_drop_frac) of dedup against the planted duplicates.

    A planted group is a ``unique`` victim plus its ``exact_dup`` and
    ``near_dup`` copies, counted over the rows the scrub kept. Recall is
    the share of redundant copies (all but one per group) the DAG removed.
    A false drop is a ``unique`` row dropped while no member of its group
    survives; its base is the scrub-kept ``unique`` rows.
    """
    rows = _keyed(expectations, ["row_id", "klass", "victim"])
    kept = {k for k, r in _keyed(scrubbed, ["keep"]).items() if r["keep"]}
    survivors = set(_keyed(final, []))
    groups: Dict[int, List[Tuple]] = {}
    for key, r in rows.items():
        if key in kept and r["klass"] in ("unique", "exact_dup", "near_dup"):
            gid = r["row_id"] if r["klass"] == "unique" else r["victim"]
            groups.setdefault(gid, []).append(key)
    redundant = removed = uniques = false_drops = 0
    for members in groups.values():
        alive = sum(m in survivors for m in members)
        redundant += len(members) - 1
        removed += min(len(members) - alive, len(members) - 1)
        for m in members:
            if rows[m]["klass"] == "unique":
                uniques += 1
                false_drops += alive == 0
    recall = removed / redundant if redundant else 1.0
    return recall, (false_drops / uniques if uniques else 0.0)

