"""Quality-pipeline benchmark: one workload per run, outputs checked.

    python3 perfbench/run.py --workload code_mix --seed 1 --seconds 15 --trace 0

Run it from the root of a checkout. ``--trace 0`` measures the end-to-end
metrics with nothing traced; ``--trace 1`` runs the workload's batches
through ``QualityScrubStage`` in this process with every layer call timed,
plus one Ray run for operator times, and reports the per-layer metrics.
Either way every output is checked against the (workload, seed)'s
reference, and the last stdout line is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

The exit code is 1 when any output row mismatched, 2 when the checkout
holds no ``pii_filter_ray``. Caches, outputs, Ray's session files and the
traced run's span dumps live under ``.perfbench/`` at the checkout root.
See ``perfbench/README.md`` for the metric and workload definitions.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import sys
import time
from functools import partial

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(ROOT, ".perfbench")
WORKLOADS = ("code_mix", "curate_dedup")
SETUP_REPEATS = 3
# Exported before pyarrow loads, so this process and every Ray process get
# the same settings whatever the launching shell sets: one Arrow/OpenMP
# thread per process, no Ray usage-stats upload, and no Ray memory monitor
# killing workers when other tenants fill the machine.
PROCESS_ENV = {
    "OMP_NUM_THREADS": "1",
    "RAY_USAGE_STATS_ENABLED": "0",
    "RAY_memory_monitor_refresh_ms": "0",
}

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "files_per_s": "files/s",
    "content_mb_per_s": "MB/s",
    "peak_rss_mb": "MB",
    "keep_drop_f1": "ratio",
}

PER_LAYER_UNITS = {
    "core.scrub.scrub_text.self_s": "s",
    "core.scrub.scrub_text.calls": "count",
    "core.scrub.scrub_text.spans": "count",
    "core.scrub.pii_span_f1": "ratio",
    "core.regex_scan.find_all_matches.s": "s",
    "core.regex_scan.handle_overlaps.s": "s",
    "core.regex_scan.valid_over_candidates": "ratio",
    "core.rule_ner.extract_entities.s": "s",
    "core.rule_ner.kept_over_candidates": "ratio",
    "core.quality.heuristic_drop_reason.s": "s",
    "core.quality.shed_frac": "ratio",
    "core.regex_scan.batch_prescreen_flags.s": "s",
    "core.rule_ner.batch_ner_gates.s": "s",
    "core.toxicity.batch_toxic_anchor_flags.s": "s",
    "stages.quality_scrub.prescreen_useful_frac": "ratio",
    "core.langid.detect_code_lang.s": "s",
    "core.perplexity.bits_per_char.s": "s",
    "core.toxicity.toxicity_score.s": "s",
    "stages.quality_scrub.batch_s": "s",
    "stages.quality_scrub.rows": "count",
    "stages.quality_scrub.kept_frac": "ratio",
    "ray_data.ReadParquet.wall_s": "s",
    "ray_data.MapBatches.wall_s": "s",
    "ray_data.Write.wall_s": "s",
    "ray_data.blocks": "count",
    "ray_data.overhead_s": "s",
    "core.restore.restore_by_spans.s": "s",
    "core.restore.restore_exact_frac": "ratio",
    "job.run_job.s": "s",
    "curation.exact_s": "s",
    "curation.final_s": "s",
    "curation.resume_s": "s",
    "stages.dedup.sig_s": "s",
    "stages.dedup.cand_s": "s",
    "stages.dedup.verify_s": "s",
    "stages.dedup.comps_s": "s",
    "stages.dedup.verified_over_candidates": "ratio",
    "stages.dedup.recall": "ratio",
    "stages.dedup.false_drop_frac": "ratio",
    "trace.uncovered_frac": "ratio",
    "trace.overhead_s": "s",
}


class Check:
    """Rows attempted and failed over every output the run checked."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def add(self, rows: int, failed: int) -> None:
        self.attempted += rows
        self.failed += min(failed, rows)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def measure_setup(workload: str, repeats: int):
    """Start the Ray session ``repeats`` times; returns the last (live)
    session and every set-up time."""
    import ray.data  # noqa: F401  imported up front: no set-up pays for it
    import pii_filter_ray.pipelines.quality_pipeline  # noqa: F401
    from session import RaySession
    from workloads import STAGE_KWARGS

    times = []
    for i in range(repeats):
        session = RaySession(ROOT, WORK, STAGE_KWARGS[workload])
        try:
            times.append(session.start())
        except BaseException:
            session.stop()
            raise
        if i < repeats - 1:
            session.stop()
    return session, times


def _check_pipeline_output(inputs, ref, out_dir: str, check: Check):
    """Check a ``run_pipeline`` output against the reference; returns it."""
    import workloads as w

    out = w.read_output(out_dir, list(w.KEY) + list(w.CHECK_COLUMNS[inputs.name]))
    check.add(inputs.rows, w.count_mismatches(ref, out, w.CHECK_COLUMNS[inputs.name]))
    return out


def _check_curation(inputs, ref, out_dir: str, digest: dict, check: Check):
    """Check a ``run_curation`` output: its scrub-stage rows against the
    reference and its final digest against ``digest``; returns the rows."""
    import workloads as w
    from pii_filter_ray.curation import curation_digest

    cols = w.CHECK_COLUMNS[inputs.name]
    scrubbed = w.read_output(os.path.join(out_dir, "scrub"), list(w.KEY) + list(cols))
    bad = w.count_mismatches(ref, scrubbed, cols)
    if curation_digest(out_dir) != digest:
        bad = inputs.rows  # the final set differs; no row can be trusted
    check.add(inputs.rows, bad)
    return scrubbed


def timed_runs(run_once, seconds: float, out_root: str):
    """One untimed run (first read and write of the input), then timed runs
    back to back until ``seconds`` have passed. Returns the output
    directories (the untimed one first), the timed walls and the peak RSS."""
    from session import RssSampler

    dirs = [os.path.join(out_root, "warm")]
    run_once(dirs[0])
    walls = []
    with RssSampler() as rss:
        deadline = time.perf_counter() + seconds
        while not walls or time.perf_counter() < deadline:
            dirs.append(os.path.join(out_root, f"rep{len(walls)}"))
            t0 = time.perf_counter()
            run_once(dirs[-1])
            walls.append(time.perf_counter() - t0)
    return dirs, walls, rss.peak_bytes


def end_to_end(workload: str, seed: int, seconds: float, out_root: str):
    import workloads as w
    from pii_filter_ray.curation import curation_digest, run_curation
    from pii_filter_ray.pipelines.quality_pipeline import run_pipeline

    check = Check()
    session, setups = measure_setup(workload, SETUP_REPEATS)
    try:
        inputs = w.prepare(workload, seed, os.path.join(WORK, "cache"))
        ref = w.reference(inputs)
        if workload == "code_mix":
            dirs, walls, peak_rss = timed_runs(
                lambda d: run_pipeline(inputs.corpus, d, emit_mappings=True),
                seconds, out_root)
            check_output = partial(_check_pipeline_output, inputs, ref, check=check)
        else:
            dirs, walls, peak_rss = timed_runs(
                lambda d: run_curation(inputs.corpus, d, partitions=w.CURATE_PARTITIONS),
                seconds, out_root)
            digest = w.reference_digest(inputs, lambda: curation_digest(dirs[0]))
            check_output = partial(_check_curation, inputs, ref, digest=digest, check=check)
        f1 = w.keep_drop_f1(inputs.expectations, check_output(dirs[0]))
        for d in dirs[1:]:
            check_output(d)
    finally:
        session.stop()
    wall = statistics.median(walls)
    print(f"perfbench: {workload} seed {seed}, {inputs.rows} rows "
          f"({inputs.content_bytes / 1e6:.2f} MB): timed runs "
          f"{[round(t, 3) for t in walls]} s, set-ups {[round(t, 3) for t in setups]} s",
          file=sys.stderr)
    values = {
        "setup_s": statistics.median(setups),
        "wall_s": wall,
        "files_per_s": inputs.rows / wall,
        "content_mb_per_s": inputs.content_bytes / 1e6 / wall,
        "peak_rss_mb": peak_rss / 2**20,
        "keep_drop_f1": f1,
    }
    return check, values, END_TO_END_UNITS


# ---- traced run -----------------------------------------------------------

def stage_passes(inputs, tracer):
    """Untraced, traced, untraced in-process passes over the workload's
    batches; returns (mean untraced seconds, traced seconds, traced output)."""
    import pyarrow as pa
    import spans as tr
    import workloads as w
    from pii_filter_ray.stages.quality_scrub import QualityScrubStage

    kwargs = w.STAGE_KWARGS[inputs.name]

    def untraced() -> float:
        stage = QualityScrubStage(**kwargs)
        t0 = time.perf_counter()
        w.run_stage(inputs.table, stage)
        return time.perf_counter() - t0

    first = untraced()
    with tr.patched(tracer):
        stage = QualityScrubStage(**kwargs)
        tr.trace_lm(tracer, stage)
        outs = []
        t0 = time.perf_counter()
        for batch in w.batches(inputs.table):
            with tracer.span(tr.BATCH_SPAN):
                outs.append(stage(batch))
        traced_s = time.perf_counter() - t0
    out = pa.concat_tables(outs)
    return (first + untraced()) / 2, traced_s, out


def layer_metrics(inputs, tracer, stage_s: float, traced_s: float, out) -> dict:
    import spans as tr
    from pii_filter_ray.core.regex_scan import find_all_matches

    own = tracer.self_times()
    total = tracer.durations()
    c = tracer.counts
    kept = out["keep"].to_pylist()
    n_kept = sum(kept)
    validated = raw = 0
    for text, keep in zip(inputs.table["content"].to_pylist(), kept):
        if keep:
            validated += len(find_all_matches(text, True))
            raw += len(find_all_matches(text, False))
    m = {name: own[name] for name in (
        "core.regex_scan.find_all_matches", "core.regex_scan.handle_overlaps",
        "core.rule_ner.extract_entities", "core.quality.heuristic_drop_reason",
        "core.regex_scan.batch_prescreen_flags", "core.rule_ner.batch_ner_gates",
        "core.toxicity.batch_toxic_anchor_flags", "core.langid.detect_code_lang",
        "core.perplexity.bits_per_char", "core.toxicity.toxicity_score")}
    m = {f"{name}.s": v for name, v in m.items()}
    m.update({
        "core.scrub.scrub_text.self_s": own["core.scrub.scrub_text"],
        "core.scrub.scrub_text.calls": c["scrub.calls"],
        "core.scrub.scrub_text.spans": c["scrub.spans"],
        "core.regex_scan.valid_over_candidates": _ratio(validated, raw),
        "core.rule_ner.kept_over_candidates": _ratio(c["ner.kept"], c["ner.candidates"]),
        "core.quality.shed_frac": _ratio(c["quality.shed"], c["quality.rows"]),
        "stages.quality_scrub.prescreen_useful_frac": _ratio(n_kept, c["prescreen.rows"]),
        "stages.quality_scrub.batch_s": stage_s,
        "stages.quality_scrub.rows": out.num_rows,
        "stages.quality_scrub.kept_frac": _ratio(n_kept, out.num_rows),
        "trace.uncovered_frac": _ratio(own[tr.BATCH_SPAN], total[tr.BATCH_SPAN]),
        "trace.overhead_s": traced_s - stage_s,
    })
    return m


def traced_code_mix(inputs, ref, tracer, stage_s: float, out_root: str, check: Check) -> dict:
    import spans as tr
    import workloads as w
    from pii_filter_ray.pipelines.quality_pipeline import run_pipeline

    out_dir = os.path.join(out_root, "traced")
    run_pipeline(inputs.corpus, os.path.join(out_root, "warm"), emit_mappings=True)
    with tracer.span("pipelines.quality_pipeline.run_pipeline"):
        t0 = time.perf_counter()
        ds = run_pipeline(inputs.corpus, out_dir, emit_mappings=True)
        wall = time.perf_counter() - t0
    m = tr.ray_operator_metrics(ds)
    m["ray_data.overhead_s"] = wall - stage_s
    out = _check_pipeline_output(inputs, ref, out_dir, check)
    m["core.scrub.pii_span_f1"] = w.pii_span_f1(inputs.expectations, out)
    with tr.patched(tracer):
        m["core.restore.restore_exact_frac"] = w.restore_exact_frac(out)
    m["core.restore.restore_by_spans.s"] = tracer.self_times()["core.restore.restore_by_spans"]
    return m


def traced_curate_dedup(inputs, ref, tracer, stage_s: float, out_root: str,
                        check: Check) -> dict:
    import spans as tr
    import workloads as w
    import pii_filter_ray.job as job
    import pii_filter_ray.stages.dedup as dedup
    from pii_filter_ray.curation import curation_digest, run_curation

    def counted(name: str, counter: str):
        fn = getattr(dedup, name)

        def materialized(*args, **kwargs):
            ds = fn(*args, **kwargs).materialize()
            tracer.counts[counter] += ds.count()
            return ds

        return tracer.wrap(f"stages.dedup.{name}", materialized)

    out_dir = os.path.join(out_root, "traced")
    with tr.swapped([
        (job, "run_job", tracer.wrap("job.run_job", job.run_job)),
        (dedup, "minhash_lsh_pairs", counted("minhash_lsh_pairs", "dedup.candidates")),
        (dedup, "verify_jaccard_pairs", counted("verify_jaccard_pairs", "dedup.verified")),
    ]):
        with tracer.span("curation.run_curation"):
            summary = run_curation(inputs.corpus, out_dir, partitions=w.CURATE_PARTITIONS)
    digest = w.reference_digest(inputs, lambda: curation_digest(out_dir))
    scrubbed = _check_curation(inputs, ref, out_dir, digest, check)
    final = w.read_output(os.path.join(out_dir, "final"), list(w.KEY))
    recall, false_drops = w.dedup_quality(inputs.expectations, scrubbed, final)

    # crash right after the exact-dedup checkpoint, then time the resume
    resumed = os.path.join(out_root, "resumed")
    try:
        run_curation(inputs.corpus, resumed, partitions=w.CURATE_PARTITIONS,
                     fail_after="exact")
        raise RuntimeError("run_curation(fail_after='exact') did not crash")
    except RuntimeError as e:
        if "injected crash" not in str(e):
            raise
    with tracer.span("curation.run_curation.resume"):
        t0 = time.perf_counter()
        run_curation(inputs.corpus, resumed, partitions=w.CURATE_PARTITIONS)
        resume_s = time.perf_counter() - t0
    _check_curation(inputs, ref, resumed, digest, check)

    run_job_s = tracer.durations()["job.run_job"]
    neardup = summary["neardup"]["stats"]
    c = tracer.counts
    return {
        "job.run_job.s": run_job_s,
        "ray_data.overhead_s": run_job_s - stage_s,
        "curation.exact_s": summary["exact"]["stats"]["seconds"],
        "curation.final_s": summary["final"]["stats"]["seconds"],
        "curation.resume_s": resume_s,
        "stages.dedup.sig_s": neardup["sig_s"],
        "stages.dedup.cand_s": neardup["cand_s"],
        "stages.dedup.verify_s": neardup["verify_s"],
        "stages.dedup.comps_s": neardup["comps_s"],
        "stages.dedup.verified_over_candidates":
            _ratio(c["dedup.verified"], c["dedup.candidates"]),
        "stages.dedup.recall": recall,
        "stages.dedup.false_drop_frac": false_drops,
    }


def traced(workload: str, seed: int, out_root: str):
    import spans as tr
    import workloads as w

    check = Check()
    run_id = f"{workload}-s{seed}-{time.strftime('%Y%m%dT%H%M%S')}-{os.getpid()}"
    tracer = tr.Tracer(workload, run_id)
    session, _ = measure_setup(workload, 1)
    try:
        inputs = w.prepare(workload, seed, os.path.join(WORK, "cache"))
        ref = w.reference(inputs)
        stage_s, traced_s, out = stage_passes(inputs, tracer)
        check.add(inputs.rows, w.count_mismatches(ref, out, w.CHECK_COLUMNS[workload]))
        values = dict.fromkeys(PER_LAYER_UNITS, 0.0)
        values.update(layer_metrics(inputs, tracer, stage_s, traced_s, out))
        run = traced_code_mix if workload == "code_mix" else traced_curate_dedup
        values.update(run(inputs, ref, tracer, stage_s, out_root, check))
    finally:
        session.stop()
    dump_dir = os.path.join(WORK, "trace", run_id)
    os.makedirs(dump_dir)
    tracer.dump(os.path.join(dump_dir, "spans.jsonl"))
    with open(os.path.join(dump_dir, "metrics.json"), "w") as f:
        json.dump(values, f, indent=1, sort_keys=True)
    print(f"perfbench: {len(tracer.spans)} spans and metrics written to {dump_dir}",
          file=sys.stderr)
    return check, values, PER_LAYER_UNITS


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isdir(os.path.join(ROOT, "pii_filter_ray")):
        print(f"perfbench: no pii_filter_ray package in {ROOT}; run it from the "
              "root of a full checkout", file=sys.stderr)
        return 2
    os.environ.update(PROCESS_ENV)
    sys.path[:0] = [ROOT]
    out_root = os.path.join(WORK, "out", str(os.getpid()))
    os.makedirs(out_root, exist_ok=True)
    try:
        if args.trace:
            check, values, units = traced(args.workload, args.seed, out_root)
        else:
            check, values, units = end_to_end(args.workload, args.seed, args.seconds, out_root)
    finally:
        for d in (out_root, os.path.join(WORK, "ray"), os.path.join(WORK, "sock")):
            shutil.rmtree(d, ignore_errors=True)
    print(json.dumps({
        "correct": check.failed == 0,
        "attempted": check.attempted,
        "failed": check.failed,
        "metrics": {k: {"value": values[k], "unit": units[k]} for k in units},
    }))
    return 0 if check.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
