"""Persistent content-addressed cache of synthesized designs.

A design-space sweep synthesizes the same (entry, width, options)
triples on every cold run — and, worse, in *every worker process* of a
multiprocess run, because the in-memory design cache is per-process.
This module persists the synthesis flow's output the same way
:mod:`repro.runtime.cache` persists characterization results:

* :func:`synth_digest` derives a stable SHA-256 key from the *synthesis
  identity* of a job — the design entry, the target width, the
  :class:`~repro.synth.flow.SynthesisOptions` (with the technology
  library keyed by value and the variation seed normalised away when
  ``variation_sigma == 0``) and the library version.  The trace, clock
  plan, simulator and engine are deliberately excluded: they do not
  influence the synthesized design, and jobs differing only in them
  must share one entry.
* :class:`SynthesisCache` stores the whole pickled
  :class:`~repro.synth.flow.SynthesizedDesign` — optimized netlist,
  delay annotation, sizing result and reports — through the shared
  :class:`~repro.runtime.store.ResultStore` machinery, inheriting its
  atomic writes, corruption-as-miss loads and LRU byte budget.
* :func:`active_synth_cache` is the process-wide activation point.
  Settings resolve env → code → CLI: ``REPRO_SYNTH_CACHE`` (cache
  directory) and ``REPRO_SYNTH_CACHE_LIMIT_MB`` (optional byte budget)
  name the default cache; :func:`configure_synth_cache` replaces it for
  the process; a CLI's ``--synth-cache-dir`` / ``--no-synth-cache``
  replace it for one run, keeping the environment's budget (a CLI run
  without them keeps the process's cache).  No run changes the process
  environment:
  multiprocess workers receive the driver's cache with every call
  (:func:`synth_cache_spec` / :func:`adopt_synth_cache`).

:func:`repro.runtime.jobs.synthesize_job` is the single integration
point: every backend (serial, multiprocess workers, the planner's
grouped path and the caching backend's miss path) synthesizes through
it, so one on-disk entry serves them all.  The in-memory design cache
remains a read-through layer above this one — a disk hit is memoised
per process and never re-read.

Designs synthesized with ``variation_sigma > 0`` and a non-integer
variation seed are silently *not* cached (the draw is irreproducible,
so an entry could never be validated); everything else is.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Optional, Tuple

from repro._version import __version__
from repro.exceptions import ConfigurationError
from repro.obs.metrics import metric_count
from repro.runtime.store import (
    CacheStats,
    ResultStore,
    _canonical,
    _canonical_synthesis,
    digest_of,
)
from repro.settings import (  # noqa: F401 - the env names are re-exported
    SYNTH_CACHE_ENV,
    SYNTH_CACHE_LIMIT_ENV,
    RuntimeSettings,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.experiments.designs import DesignEntry
    from repro.synth.flow import SynthesisOptions, SynthesizedDesign

#: Bumped whenever the synthesized-design payload layout changes; old
#: entries then key differently and are silently recomputed.
SYNTH_CACHE_FORMAT = 1


def cacheable(options: "SynthesisOptions") -> bool:
    """Whether a design synthesized with ``options`` may be cached.

    An irreproducible variation draw (positive sigma with a non-integer
    seed) cannot be keyed — the cache silently bypasses it rather than
    failing the run.
    """
    return options.variation_sigma == 0 or isinstance(options.variation_seed, int)


def synth_digest(entry: "DesignEntry", width: int,
                 options: "SynthesisOptions") -> str:
    """Stable content digest of one design's synthesis identity.

    Keyed like :func:`~repro.runtime.cache.job_digest` but covering only
    what determines the synthesized design: the entry, the width, the
    synthesis options (library by value, variation seed normalised when
    ``variation_sigma == 0``) and the library version.
    """
    payload = {
        "format": SYNTH_CACHE_FORMAT,
        "library_version": __version__,
        "entry": _canonical(entry),
        "width": width,
        "synthesis": _canonical_synthesis(options),
    }
    # Same conditional-key rule as job_digest: only non-adder entries
    # carry the family axis, keeping pre-registry adder digests warm.
    family = getattr(entry, "family", "adder")
    if family != "adder":
        payload["family"] = family
    return digest_of(payload)


class SynthesisCache:
    """On-disk synthesized-design cache over a :class:`ResultStore`.

    One entry per :func:`synth_digest`, holding the pickled
    :class:`~repro.synth.flow.SynthesizedDesign`.  All the durability
    properties of the store apply: concurrent writers publish complete
    files atomically, corrupt entries are discarded and recomputed, and
    ``limit_mb`` keeps the store on an LRU byte budget.
    """

    def __init__(self, root, limit_mb: Optional[float] = None) -> None:
        if limit_mb is not None and not (math.isfinite(limit_mb) and limit_mb > 0):
            raise ConfigurationError(
                f"synthesis cache limit_mb must be positive and finite, got {limit_mb}")
        #: ``(root, limit_mb)``: what another process needs to open this cache.
        self.spec = (str(root), limit_mb)
        self.stats = CacheStats()
        limit_bytes = None if limit_mb is None else max(int(limit_mb * 1024 * 1024), 1)
        self.store = ResultStore(root, stats=self.stats, limit_bytes=limit_bytes)

    # ------------------------------------------------------------------ #
    def load(self, entry: "DesignEntry", width: int,
             options: "SynthesisOptions") -> Optional["SynthesizedDesign"]:
        """The cached design, or ``None`` on a miss (counted) or when
        ``options`` is not cacheable (not counted)."""
        if not cacheable(options):
            return None
        digest = synth_digest(entry, width, options)
        payload = self.store.load(self.store.result_path(digest))
        if payload is not None:
            self.stats.hits += 1
            metric_count("synth_cache.hits")
            return payload
        self.stats.misses += 1
        metric_count("synth_cache.misses")
        return None

    def store_design(self, entry: "DesignEntry", width: int,
                     options: "SynthesisOptions",
                     synthesized: "SynthesizedDesign") -> None:
        """Persist one synthesized design (no-op when not cacheable),
        then enforce the byte budget."""
        if not cacheable(options):
            return
        digest = synth_digest(entry, width, options)
        self.store.store(self.store.result_path(digest), synthesized)
        self.store.write_meta(digest, {
            "design": entry.name,
            "width": width,
            "gates": synthesized.netlist.num_gates,
            "library_version": __version__,
        })
        self.store.prune_to_limit()


# --------------------------------------------------------------------- #
# Process-wide activation
# --------------------------------------------------------------------- #
#: Marks "no cache chosen in code: the settings decide".
_FROM_SETTINGS = object()

#: The cache chosen by :func:`configure_synth_cache` (``None``: disabled).
_CONFIGURED: object = _FROM_SETTINGS

#: The cache the settings named last, reused while they name the same one.
_SETTINGS_CACHE: Optional[SynthesisCache] = None


def active_synth_cache() -> Optional[SynthesisCache]:
    """The process's synthesis cache, or ``None``.

    During a CLI run, the one its settings name (the CLI resolved them
    env → code → CLI, see :func:`repro.cli.resolve_runtime_flags`);
    else the cache :func:`configure_synth_cache` chose; else the one
    the environment names (``REPRO_SYNTH_CACHE``, re-read on every
    call so tests that monkeypatch it see the right cache).  An
    instance is kept while its directory and budget stay the same.
    """
    global _SETTINGS_CACHE
    settings = RuntimeSettings.in_run()
    if settings is None:
        if _CONFIGURED is not _FROM_SETTINGS:
            return _CONFIGURED
        settings = RuntimeSettings.from_env()
    if settings.synth_cache_dir is None:
        return None
    spec = (settings.synth_cache_dir, settings.synth_cache_limit_mb)
    for cache in (_CONFIGURED, _SETTINGS_CACHE):
        if getattr(cache, "spec", None) == spec:
            return cache
    _SETTINGS_CACHE = SynthesisCache(*spec)
    return _SETTINGS_CACHE


def configure_synth_cache(root, limit_mb: Optional[float] = None) -> Optional[SynthesisCache]:
    """Activate (or with a falsy ``root``, deactivate) the synthesis cache.

    The choice holds for this process until the next call or
    :func:`reset_synth_cache`, whatever the environment says; a CLI run
    without ``--synth-cache-dir`` / ``--no-synth-cache`` keeps it, and
    worker processes of a multiprocess backend follow it call by call.
    """
    global _CONFIGURED
    _CONFIGURED = SynthesisCache(root, limit_mb=limit_mb) if root else None
    return _CONFIGURED


def synth_cache_spec() -> Optional[Tuple[str, Optional[float]]]:
    """The active cache as a picklable value (``None``: no cache)."""
    cache = active_synth_cache()
    return None if cache is None else cache.spec


def adopt_synth_cache(spec: Optional[Tuple[str, Optional[float]]]) -> None:
    """Use the cache another process described with :func:`synth_cache_spec`.

    Worker processes call this before every task, so they read and
    write exactly the driver's cache; an unchanged spec keeps the
    instance.
    """
    if spec is None:
        configure_synth_cache(None)
    elif getattr(_CONFIGURED, "spec", None) != spec:
        configure_synth_cache(*spec)


def reset_synth_cache() -> None:
    """Forget :func:`configure_synth_cache` (tests; the settings decide again)."""
    global _CONFIGURED, _SETTINGS_CACHE
    _CONFIGURED, _SETTINGS_CACHE = _FROM_SETTINGS, None
