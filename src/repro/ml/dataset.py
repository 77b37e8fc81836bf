"""Dataset assembly for the per-bit timing-error classifiers.

This module corresponds to the "Data Collection" half of Fig. 3 of the
paper: pair the operand trace (stimulus) with the golden outputs (RTL
reference) and the delay-annotated gate-level simulation outcome (timing
classes at an unsafe clock period).  :func:`training_data` turns them
into one feature block shared by every output bit plus a label matrix,
which :class:`~repro.ml.model.BitLevelTimingModel` fits in one grow;
:func:`build_bit_datasets` slices the same block into one labelled
dataset per output bit.

Collection at scale goes through the execution runtime:
:func:`collect_bit_datasets` submits a batch of characterization jobs to
a backend (serial or multiprocess) and assembles the labelled datasets
from the returned golden words and timing traces, so dataset generation
for many designs parallelises exactly like the figure drivers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (runtime -> ml)
    from repro.runtime import CharacterizationJob

from repro.exceptions import ModelError
from repro.ml.features import build_feature_block, feature_columns
from repro.timing.errors import TimingErrorTrace
from repro.workloads.traces import OperandTrace


@dataclass(frozen=True)
class BitDataset:
    """Labelled training data for one output-bit classifier.

    ``labels`` follow the paper's convention: 1 = timing-erroneous,
    0 = timing-correct (the classifier learns to flag errors).
    """

    bit: int
    features: np.ndarray
    labels: np.ndarray

    @property
    def samples(self) -> int:
        """Number of labelled transitions."""
        return int(self.features.shape[0])

    @property
    def error_rate(self) -> float:
        """Fraction of transitions where this bit was timing-erroneous."""
        if self.samples == 0:
            return 0.0
        return float(self.labels.mean())


def training_data(trace: OperandTrace, gold_words: np.ndarray,
                  timing_trace: TimingErrorTrace) -> Tuple[np.ndarray, np.ndarray]:
    """Shared feature block and error labels of one measured trace.

    Returns the :func:`~repro.ml.features.build_feature_block` of every
    output bit of ``timing_trace`` and the ``(transitions, bits)`` 0/1
    error labels (1 = timing-erroneous).

    Parameters
    ----------
    trace:
        The stimulus applied to the circuit (length ``T``).
    gold_words:
        Golden outputs of the implemented design for every vector
        (length ``T``).
    timing_trace:
        Result of simulating the ``T - 1`` transitions at the unsafe
        clock period under study.
    """
    if timing_trace.cycles != trace.transitions:
        raise ModelError(
            f"timing trace has {timing_trace.cycles} transitions but the stimulus "
            f"has {trace.transitions}")
    block = build_feature_block(trace, gold_words, timing_trace.output_width)
    return block, timing_trace.error_bits().astype(np.uint8)


def build_bit_datasets(trace: OperandTrace, gold_words: np.ndarray,
                       timing_trace: TimingErrorTrace) -> List[BitDataset]:
    """One :class:`BitDataset` per output bit of the characterized design.

    Each bit's features are its columns of the shared block (see
    :func:`training_data` for the parameters).
    """
    block, labels = training_data(trace, gold_words, timing_trace)
    return [BitDataset(bit=bit, features=block[:, feature_columns(trace.width, bit)],
                       labels=labels[:, bit])
            for bit in range(labels.shape[1])]


def dataset_summary(datasets: List[BitDataset]) -> Dict[int, float]:
    """Per-bit timing-error rates of a dataset collection (diagnostic helper)."""
    return {dataset.bit: dataset.error_rate for dataset in datasets}


def collect_bit_datasets(jobs: Sequence["CharacterizationJob"], backend="serial",
                         workers: Optional[int] = None,
                         cache_dir: Optional[str] = None
                         ) -> List[Dict[float, List[BitDataset]]]:
    """Characterise a batch of jobs and assemble their per-bit datasets.

    Each job is executed on the requested runtime backend; for every
    clock period of the job the characterisation's golden words and
    timing trace become one :class:`BitDataset` list.  The result is one
    ``{clock_period: [BitDataset, ...]}`` dict per job, in submission
    order.
    ``cache_dir`` fronts the backend with the persistent result cache,
    so re-collecting the same jobs skips simulation entirely; jobs
    sharing a design and clock plan are batched through the execution
    planner — dataset collection for one design over many traces is a
    single stacked simulation.
    """
    from repro.runtime import run_jobs  # deferred: import cycle (runtime -> ml)

    results = run_jobs(jobs, backend=backend, workers=workers, cache_dir=cache_dir)
    collected: List[Dict[float, List[BitDataset]]] = []
    for job, characterization in zip(jobs, results):
        collected.append({
            clock: build_bit_datasets(job.trace, characterization.gold_words, timing)
            for clock, timing in characterization.timing_traces.items()
        })
    return collected
