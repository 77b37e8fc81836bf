"""Feature construction for the bit-level timing-error model.

Following Section III-A of the paper, the feature vector for output bit
``n`` at cycle ``t`` is::

    { x[t], x[t-1], yRTL_n[t-1], yRTL_n[t] }

where ``x`` is the full input vector (both operands, bit-expanded) and
``yRTL_n`` is bit ``n`` of the properly clocked (golden) output.  The two
output-bit features encode the insight that a latched timing error is
only observable when the previous and current golden values differ.

The ``x`` columns are the same for every output bit, so
:func:`build_feature_block` extracts them once per trace and appends
each bit's two gold columns; :func:`feature_columns` names the columns
of one bit's features.
"""

from __future__ import annotations

from typing import List

import numpy as np

from repro.exceptions import ModelError
from repro.utils.bitops import extract_bits_matrix
from repro.workloads.traces import OperandTrace

FEATURE_DOC = "{A[t], B[t], A[t-1], B[t-1], yRTL_n[t-1], yRTL_n[t]} bit-expanded"


def gold_words_from_netlist(netlist, trace: OperandTrace, output_bus: str = "S",
                            cin: int = 0) -> np.ndarray:
    """Golden (properly clocked) outputs straight from the gate level.

    ``yRTL`` in the paper is the output of the implemented adder sampled
    at a safe clock — i.e. the settled gate-level value.  This helper
    produces it with :meth:`Netlist.compute_words`, which runs on the
    compiled bit-packed engine (64 cycles per word), so dataset
    generation can use the synthesized netlist itself as the golden
    reference instead of a separate behavioural model.
    """
    return netlist.compute_words(trace.as_operands(cin=cin), output_bus=output_bus)


def feature_names(width: int) -> List[str]:
    """Column names of the feature matrix for a ``width``-bit adder."""
    names: List[str] = []
    names += [f"A[t][{i}]" for i in range(width)]
    names += [f"B[t][{i}]" for i in range(width)]
    names += [f"A[t-1][{i}]" for i in range(width)]
    names += [f"B[t-1][{i}]" for i in range(width)]
    names += ["yRTL_n[t-1]", "yRTL_n[t]"]
    return names


def build_feature_block(trace: OperandTrace, gold_words: np.ndarray,
                        output_width: int) -> np.ndarray:
    """The 0/1 features of every output bit over a trace, in one block.

    The first ``4 * width`` columns are the operand bits shared by every
    output bit (``A[t], B[t], A[t-1], B[t-1]``, extracted once); then
    each output bit ``n < output_width`` contributes its
    ``yRTL_n[t-1], yRTL_n[t]`` pair, in bit order.  Bit ``n``'s feature
    matrix is ``block[:, feature_columns(width, n)]``.

    Parameters
    ----------
    trace:
        The operand trace (length ``T``); transitions are ``T - 1``.
    gold_words:
        Golden (properly clocked) output of the adder for every vector of
        the trace (length ``T``).
    output_width:
        Number of output bits whose gold columns the block carries.
    """
    gold_words = np.asarray(gold_words, dtype=np.uint64)
    if gold_words.shape[0] != trace.length:
        raise ModelError(
            f"gold output length {gold_words.shape[0]} does not match trace length {trace.length}")
    if trace.length < 2:
        raise ModelError("feature extraction needs at least two input vectors")
    width = trace.width
    operands = extract_bits_matrix(np.concatenate([trace.a, trace.b]), width)
    a_bits, b_bits = operands[:trace.length], operands[trace.length:]
    gold_bits = extract_bits_matrix(gold_words, output_width)

    block = np.empty((trace.transitions, 4 * width + 2 * output_width), dtype=np.uint8)
    for index, columns in enumerate((a_bits[1:], b_bits[1:], a_bits[:-1], b_bits[:-1])):
        block[:, index * width:(index + 1) * width] = columns
    block[:, 4 * width::2] = gold_bits[:-1]
    block[:, 4 * width + 1::2] = gold_bits[1:]
    return block


def feature_columns(width: int, bit: int) -> np.ndarray:
    """Columns of :func:`build_feature_block` that form output bit ``bit``'s features."""
    return np.append(np.arange(4 * width), [4 * width + 2 * bit, 4 * width + 2 * bit + 1])


def build_feature_matrix(trace: OperandTrace, gold_words: np.ndarray, bit: int) -> np.ndarray:
    """Feature matrix of one output bit over all transitions of a trace.

    The columns follow :func:`feature_names`; see
    :func:`build_feature_block` for the parameters.
    """
    block = build_feature_block(trace, gold_words, bit + 1)
    return block[:, feature_columns(trace.width, bit)]


def feature_count(width: int) -> int:
    """Number of features produced by :func:`build_feature_matrix`."""
    return 4 * width + 2
