"""The :class:`OperatorFamily` protocol: one operator, every pipeline hook.

The characterization pipeline — synthesis flow, golden references,
timing simulation, result/synthesis caches, sweep scoring, Pareto
ranking, adaptive search and the ML feature extractors — is operator
agnostic *except* for a handful of decisions that depend on what the
circuit computes: how a design entry becomes a synthesizable
specification, what the exact (diamond) and behavioural-golden outputs
are, how wide the result bus is, which configurations are legal, and
how a configuration quadruple maps to surrogate features.

An :class:`OperatorFamily` bundles exactly those decisions.  Consumers
resolve the family of a design entry through the registry in
:mod:`repro.families` (``family_of(entry)``) and dispatch through it
instead of hardcoding the adder; a new operator (MAC, dot-product
datapath, ...) is one new module registering one new family, and the
whole sweep/cache/planner/Pareto/adaptive pipeline works unchanged.

Design entries of every family share a small structural contract: a
frozen dataclass with a ``name`` (the design label of reports and
figures), a ``config`` (``None`` for the family's exact baseline), an
``is_exact`` property, and a ``family`` attribute naming the owning
family id.  The adder's :class:`~repro.experiments.designs.DesignEntry`
predates the registry and keeps its exact dataclass layout (its cache
digests must not move); new families define their own entry dataclass.
"""

from __future__ import annotations

import abc
from typing import TYPE_CHECKING, Optional, Sequence, Tuple

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - type-only imports
    from repro.synth.flow import SynthesisOptions

Quadruple = Tuple[int, int, int, int]


class OperatorFamily(abc.ABC):
    """Everything the pipeline needs to know about one operator kind.

    Attributes
    ----------
    family_id:
        Stable registry key (``"adder"``, ``"multiplier"``).  Part of
        the cache-digest identity of every non-adder job, so it must
        never change once a family has shipped.
    max_width:
        Largest operand width whose results fit the vectorised
        ``uint64`` behavioural models.
    default_width:
        Width the family's studies default to when the caller does not
        pick one.
    """

    family_id: str = ""
    max_width: int = 62
    default_width: int = 32

    # ------------------------------------------------------------------ #
    # Design entries
    # ------------------------------------------------------------------ #
    @abc.abstractmethod
    def exact_entry(self, width: int):
        """The family's exact-baseline design entry (``config is None``)."""

    @abc.abstractmethod
    def design_entry(self, quadruple: Sequence[int], width: int):
        """A design entry from the family's quadruple notation."""

    @abc.abstractmethod
    def quadruple_of(self, entry) -> Optional[Quadruple]:
        """The entry's quadruple, or ``None`` for the exact baseline."""

    @abc.abstractmethod
    def is_provably_exact(self, entry) -> bool:
        """True when the architecture can never err, on any input."""

    # ------------------------------------------------------------------ #
    # Synthesis and golden references
    # ------------------------------------------------------------------ #
    @abc.abstractmethod
    def design_spec(self, entry, width: int, options: "SynthesisOptions"):
        """What the synthesis flow materialises for this entry.

        Returns whatever :func:`repro.synth.flow.synthesize` accepts — a
        behavioural configuration with a registered generator, or a
        ready :class:`~repro.circuit.netlist.Netlist`.
        """

    @abc.abstractmethod
    def exact_words(self, width: int, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """The exact (diamond) result words of operand arrays ``a``/``b``."""

    @abc.abstractmethod
    def golden_words(self, entry, width: int, a: np.ndarray, b: np.ndarray,
                     collect_stats: bool = False,
                     diamond: Optional[np.ndarray] = None):
        """Behavioural golden words of one entry: ``(gold, stats)``.

        ``stats`` are the family's structural fault statistics when
        ``collect_stats`` is set and the family tracks them, else
        ``None``.  ``diamond`` may carry the precomputed exact words so
        the exact baseline can return a copy without recomputing.
        """

    def result_width(self, width: int) -> int:
        """Output bus width of a ``width``-bit design (default: ``width``)."""
        return width

    def safe_period(self, width: int) -> float:
        """Safe clock period anchoring the family's CPR sweeps, in seconds.

        Must clear the exact baseline's critical path at ``width`` so
        the frontier's zero-CPR anchor is genuinely error-free.  The
        default is the paper's 0.3 ns adder anchor.
        """
        from repro.timing.clocking import PAPER_SAFE_PERIOD
        return PAPER_SAFE_PERIOD

    # ------------------------------------------------------------------ #
    # Design-space enumeration and surrogate features
    # ------------------------------------------------------------------ #
    @abc.abstractmethod
    def design_space(self, width: int, **constraints):
        """The family's legal quadruple space at one width.

        The returned object duck-types
        :class:`~repro.explore.space.DesignSpace`: ``width``,
        ``family``, ``iter_quadruples()``, ``quadruples()``, ``size``,
        ``select()``, ``entries()`` and ``describe()``.
        """

    #: Column names of :meth:`surrogate_features`; must contain
    #: ``"provably_exact"`` (the adaptive explorer's guarantee axis).
    surrogate_feature_names: Tuple[str, ...] = ()

    @abc.abstractmethod
    def surrogate_features(self, quadruples: np.ndarray, width: int) -> np.ndarray:
        """Surrogate feature matrix of ``(candidates, 4)`` quadruple rows."""

    # ------------------------------------------------------------------ #
    # Reporting and ML hooks
    # ------------------------------------------------------------------ #
    def annotate(self, quadruple: Optional[Quadruple]) -> Optional[Tuple[str, float]]:
        """Optional report annotation: ``(label, distance)`` or ``None``.

        The adder annotates frontier rows with the nearest hand-picked
        paper design; families without a reference set return ``None``
        and the report shows an em dash.
        """
        return None

    def feature_names(self, width: int):
        """Column names of the bit-level timing-error feature matrix."""
        from repro.ml.features import feature_names
        return feature_names(width)

    def describe(self) -> str:
        """One-line summary used by CLI help and reports."""
        return f"{self.family_id} (widths 2..{self.max_width})"
