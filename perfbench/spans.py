"""Spans and counters for the traced run, recorded from outside the package.

:class:`Tracer` keeps spans (name, start, end, parent) in memory and writes
them out once, at the end of the run. :func:`patched` swaps the layer
functions ``QualityScrubStage`` calls for timed wrappers in this process
only (Ray workers never see them) and restores them on exit. A span's self
time is its duration minus its children's.
"""

from __future__ import annotations

import json
import re
import time
from collections import Counter
from contextlib import contextmanager
from typing import Callable, Dict, Iterator, List, Optional

BATCH_SPAN = "stages.quality_scrub.QualityScrubStage.__call__"


class Tracer:
    def __init__(self, workload: str, run_id: str):
        self.workload = workload
        self.run_id = run_id
        self.spans: List[list] = []  # [name, start, end, parent index or -1]
        self.counts: Counter = Counter()
        self._stack: List[int] = []

    def _open(self, name: str) -> int:
        idx = len(self.spans)
        self.spans.append([name, time.perf_counter(), None,
                           self._stack[-1] if self._stack else -1])
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        idx = self._open(name)
        try:
            yield
        finally:
            self._close(idx)

    def wrap(self, name: str, fn: Callable,
             count: Optional[Callable[[Counter, object], None]] = None) -> Callable:
        """``fn`` recording a span per call and, given ``count``, counters
        derived from its result."""

        def traced(*args, **kwargs):
            idx = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if count is not None:
                count(self.counts, result)
            return result

        return traced

    def durations(self) -> Dict[str, float]:
        out: Dict[str, float] = Counter()
        for name, start, end, _ in self.spans:
            out[name] += end - start
        return out

    def self_times(self) -> Dict[str, float]:
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: Dict[str, float] = Counter()
        for i, (name, start, end, _) in enumerate(self.spans):
            out[name] += end - start - child[i]
        return out

    def dump(self, path: str) -> None:
        with open(path, "w") as f:
            for i, (name, start, end, parent) in enumerate(self.spans):
                f.write(json.dumps({
                    "id": i, "name": name, "start": start, "end": end,
                    "parent": parent, "workload": self.workload,
                    "run_id": self.run_id}) + "\n")


def _count_scrub(c: Counter, r) -> None:
    c["scrub.calls"] += 1
    c["scrub.spans"] += len(r.mappings)


def _count_heuristics(c: Counter, r) -> None:
    c["quality.rows"] += 1
    c["quality.shed"] += not r[0]


@contextmanager
def patched(tracer: Tracer) -> Iterator[None]:
    """Route the stage's layer calls through ``tracer`` in this process.
    Build the ``QualityScrubStage`` inside the block: it binds its language
    detector at construction."""
    import pii_filter_ray.core.regex_scan as regex_scan
    import pii_filter_ray.core.restore as restore
    import pii_filter_ray.core.rule_ner as rule_ner
    import pii_filter_ray.core.scrub as scrub
    import pii_filter_ray.core.toxicity as toxicity
    import pii_filter_ray.stages.quality_scrub as quality_scrub

    targets = [
        # (module the caller looks the name up in, attribute, span, counter)
        (quality_scrub, "scrub_text", "core.scrub.scrub_text", _count_scrub),
        (quality_scrub, "heuristic_drop_reason", "core.quality.heuristic_drop_reason",
         _count_heuristics),
        (quality_scrub, "detect_code_lang", "core.langid.detect_code_lang", None),
        (quality_scrub, "toxicity_score", "core.toxicity.toxicity_score", None),
        (scrub, "find_all_matches", "core.regex_scan.find_all_matches", None),
        (scrub, "handle_overlaps", "core.regex_scan.handle_overlaps", None),
        (rule_ner, "extract_entities", "core.rule_ner.extract_entities",
         lambda c, r: c.update({"ner.candidates": len(r)})),
        (rule_ner, "filter_overlapping_entities", "core.rule_ner.filter_overlapping_entities",
         lambda c, r: c.update({"ner.kept": len(r)})),
        (regex_scan, "batch_prescreen_flags", "core.regex_scan.batch_prescreen_flags",
         lambda c, r: c.update({"prescreen.rows": len(r)})),
        (rule_ner, "batch_ner_gates", "core.rule_ner.batch_ner_gates", None),
        (toxicity, "batch_toxic_anchor_flags", "core.toxicity.batch_toxic_anchor_flags", None),
        (restore, "restore_by_spans", "core.restore.restore_by_spans", None),
    ]
    with swapped([(mod, attr, tracer.wrap(name, getattr(mod, attr), count))
                  for mod, attr, name, count in targets]):
        yield


@contextmanager
def swapped(replacements) -> Iterator[None]:
    """Set each (module, attribute, value) for the block, then restore."""
    saved = [(mod, attr, getattr(mod, attr)) for mod, attr, _ in replacements]
    try:
        for mod, attr, value in replacements:
            setattr(mod, attr, value)
        yield
    finally:
        for mod, attr, value in saved:
            setattr(mod, attr, value)


def trace_lm(tracer: Tracer, stage) -> None:
    """Time the stage's perplexity model, an instance the stage owns."""
    stage.lm.bits_per_char = tracer.wrap("core.perplexity.bits_per_char", stage.lm.bits_per_char)


def ray_operator_metrics(ds) -> Dict[str, float]:
    """Operator times of one executed Ray Data pipeline, from its stats.

    Ray fuses ``MapBatches`` with ``Write``; the fused operator's UDF time
    is the map's and the rest of its remote wall time is the write's.
    """
    ds = ds._write_ds if getattr(ds, "_write_ds", None) is not None else ds
    ops = []
    todo = [ds._get_stats_summary()]
    while todo:
        s = todo.pop()
        ops.extend(s.operators_stats)
        todo.extend(s.parents)
    out = {"ray_data.ReadParquet.wall_s": 0.0, "ray_data.MapBatches.wall_s": 0.0,
           "ray_data.Write.wall_s": 0.0, "ray_data.blocks": 0}
    for op in ops:
        wall = (op.wall_time or {}).get("sum", 0.0)
        udf = (op.udf_time or {}).get("sum", 0.0)
        if op.operator_name.startswith("ReadParquet"):
            out["ray_data.ReadParquet.wall_s"] += wall
            m = re.search(r"(\d+) blocks produced", op.block_execution_summary_str)
            out["ray_data.blocks"] += int(m.group(1)) if m else 0
        elif "MapBatches" in op.operator_name:
            out["ray_data.MapBatches.wall_s"] += udf if "Write" in op.operator_name else wall
            if "Write" in op.operator_name:
                out["ray_data.Write.wall_s"] += wall - udf
        elif "Write" in op.operator_name:
            out["ray_data.Write.wall_s"] += wall
    return out
