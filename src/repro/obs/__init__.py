"""``repro.obs``: zero-dependency runtime observability.

Four pieces, layered bottom-up:

* :mod:`repro.obs.trace` — hierarchical span tracing with ambient
  context-local activation (:func:`span`, :func:`trace_run`,
  :class:`Tracer`).  The pipeline's phases are spans, and
  :meth:`Tracer.describe` renders them as the CLIs' ``--timings``
  footer.
* :mod:`repro.obs.metrics` — counters/gauges/histograms with the same
  ambient activation (:func:`metric_count`, :func:`metrics_run`,
  :class:`MetricsRegistry`).
* :mod:`repro.obs.spill` — cross-process aggregation: multiprocess
  workers spill span/metric records to per-worker JSONL files that the
  driver merges at batch end, so worker compute is attributed instead
  of silently dropped.
* :mod:`repro.obs.manifest` — :func:`telemetry_run` sessions snapshot
  everything into a run-manifest JSONL record appended to
  ``$REPRO_TELEMETRY_DIR`` (or an explicit ``--telemetry-dir``).

The ``repro-stats`` console script (:mod:`repro.obs.stats_cli`)
summarises a telemetry directory and inspects cache inventories.
"""

from repro.obs.manifest import (
    MANIFEST_FILE,
    MANIFEST_SCHEMA,
    TELEMETRY_ENV,
    TelemetryHandle,
    append_manifest,
    load_manifests,
    resolve_telemetry_dir,
    telemetry_run,
)
from repro.obs.metrics import (
    MetricsRegistry,
    active_registries,
    metric_count,
    metric_gauge,
    metric_observe,
    metrics_run,
    record_counter_deltas,
)
from repro.obs.spill import (
    drain_spill_dir,
    fold_spill_record,
    spilled_call,
    telemetry_active,
)
from repro.obs.trace import Tracer, active_tracers, span, trace_run

__all__ = [
    "MANIFEST_FILE",
    "MANIFEST_SCHEMA",
    "TELEMETRY_ENV",
    "MetricsRegistry",
    "TelemetryHandle",
    "Tracer",
    "active_registries",
    "active_tracers",
    "append_manifest",
    "drain_spill_dir",
    "fold_spill_record",
    "load_manifests",
    "metric_count",
    "metric_gauge",
    "metric_observe",
    "metrics_run",
    "record_counter_deltas",
    "resolve_telemetry_dir",
    "span",
    "spilled_call",
    "telemetry_active",
    "telemetry_run",
    "trace_run",
]
