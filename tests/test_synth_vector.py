"""Levelised synthesis kernels vs. the per-gate oracles of ``oracles.py``.

The NumPy passes of :mod:`repro.timing.sta`, :mod:`repro.synth.sizing`
and :mod:`repro.synth.optimize` promise *bit-identical* delay
annotations and *gate-identical* netlists against the per-gate/per-dict
reference kernels kept in ``tests/oracles.py``.  These tests pin that
promise across the design space: every width-8 quadruple through the
optimizer, a strided width-16 sample through the whole flow, seeded
variation, designs that fail their clock constraint, netlists with no
gates at all, and a small sweep end to end.
"""

import struct

import pytest

from oracles import (
    arrival_times_reference,
    gate_slacks_reference,
    optimize_reference,
    path_gate_counts_reference,
    reference_kernels,
    required_times_reference,
    size_to_constraint_reference,
)
from repro.circuit.netlist import Netlist
from repro.circuit.sdf import DelayAnnotation
from repro.explore.space import DesignSpace
from repro.explore.sweep import SweepSpec, run_sweep, sweep_clock_plan
from repro.runtime.jobs import clear_design_cache
from repro.runtime.synth_cache import SYNTH_CACHE_ENV
from repro.synth.adders import kogge_stone_adder
from repro.synth.flow import SynthesisOptions, exact_adder_netlist, synthesize
from repro.synth.optimize import optimize
from repro.synth.sizing import SizingOptions, size_to_constraint
from repro.timing.sta import (
    analyze_timing,
    arrival_times,
    gate_slacks,
    path_gate_counts,
    required_times,
)
from repro.workloads.generators import WorkloadSpec


def _entry_netlist(entry, width, options):
    if entry.is_exact:
        return exact_adder_netlist(width, options.adder_architecture)
    from repro.synth.isa_synth import isa_adder
    return isa_adder(entry.config, sub_adder=options.adder_architecture)


def _gate_tuples(netlist):
    return [(g.name, g.cell, tuple(g.inputs), g.output) for g in netlist.gates]


def _bits(values):
    """Exact byte representation of a float sequence (bit-level compare)."""
    values = list(values)
    return struct.pack(f"<{len(values)}d", *values)


def _assert_dicts_bit_identical(vec, ref):
    # Same keys in the same insertion order, and bit-equal values.
    assert list(vec) == list(ref)
    assert _bits(vec.values()) == _bits(ref.values())


def _assert_sizing_identical(vec, ref, netlist):
    for name in ("nominal_critical_path", "sized_critical_path",
                 "nominal_total_delay", "sized_total_delay"):
        vec_value = getattr(vec, name)
        ref_value = getattr(ref, name)
        assert type(vec_value) is type(ref_value)
        assert _bits([vec_value]) == _bits([ref_value])
    assert vec.met_constraint == ref.met_constraint
    vec_delays = {g.name: vec.annotation.delay_of(g.name) for g in netlist.gates}
    ref_delays = {g.name: ref.annotation.delay_of(g.name) for g in netlist.gates}
    _assert_dicts_bit_identical(vec_delays, ref_delays)


def _assert_designs_identical(vec, ref):
    assert _gate_tuples(vec.netlist) == _gate_tuples(ref.netlist)
    assert vec.netlist.inputs == ref.netlist.inputs
    assert vec.netlist.outputs == ref.netlist.outputs
    ref_delays = {g.name: ref.annotation.delay_of(g.name) for g in ref.netlist.gates}
    vec_delays = {g.name: vec.annotation.delay_of(g.name) for g in vec.netlist.gates}
    _assert_dicts_bit_identical(vec_delays, ref_delays)
    assert _bits([vec.timing_report.critical_path_delay]) == \
        _bits([ref.timing_report.critical_path_delay])
    assert vec.timing_report.critical_path_gates == ref.timing_report.critical_path_gates
    if ref.sizing_result is not None:
        _assert_sizing_identical(vec.sizing_result, ref.sizing_result, ref.netlist)


def _synthesize_both(netlist, options):
    """The flow on the library kernels, then on the oracle kernels."""
    vec = synthesize(netlist, options)
    with reference_kernels():
        ref = synthesize(netlist, options)
    return vec, ref


def _assert_sta_identical(netlist, annotation, clock=3e-10):
    _assert_dicts_bit_identical(arrival_times(netlist, annotation),
                                arrival_times_reference(netlist, annotation))
    _assert_dicts_bit_identical(required_times(netlist, annotation, clock),
                                required_times_reference(netlist, annotation, clock))
    _assert_dicts_bit_identical(gate_slacks(netlist, annotation, clock),
                                gate_slacks_reference(netlist, annotation, clock))
    vec = path_gate_counts(netlist)
    ref = path_gate_counts_reference(netlist)
    assert list(vec.items()) == list(ref.items())


# Full quadruple space at width 8; evenly strided sample at width 16.
WIDTH8_ENTRIES = DesignSpace(width=8).entries()
WIDTH16_ENTRIES = DesignSpace(width=16).entries(max_designs=24)


class TestStaKernels:
    @pytest.fixture(scope="class")
    def annotated(self, synthesized_small_isa):
        design = synthesized_small_isa
        return design.netlist, design.annotation

    def test_arrival_times_bit_identical(self, annotated):
        netlist, annotation = annotated
        _assert_dicts_bit_identical(arrival_times(netlist, annotation),
                                    arrival_times_reference(netlist, annotation))

    def test_required_times_bit_identical(self, annotated):
        netlist, annotation = annotated
        for clock in (1e-10, 3e-10, 1e-9):
            _assert_dicts_bit_identical(
                required_times(netlist, annotation, clock),
                required_times_reference(netlist, annotation, clock))

    def test_gate_slacks_bit_identical(self, annotated):
        netlist, annotation = annotated
        _assert_dicts_bit_identical(gate_slacks(netlist, annotation, 3e-10),
                                    gate_slacks_reference(netlist, annotation, 3e-10))

    def test_path_gate_counts_identical(self, annotated):
        netlist, _ = annotated
        vec = path_gate_counts(netlist)
        ref = path_gate_counts_reference(netlist)
        assert list(vec) == list(ref)
        assert list(vec.values()) == list(ref.values())

    def test_analyze_timing_report_identical(self, annotated):
        netlist, annotation = annotated
        vec = analyze_timing(netlist, annotation, clock_period=3e-10)
        with reference_kernels():
            ref = analyze_timing(netlist, annotation, clock_period=3e-10)
        assert _bits([vec.critical_path_delay]) == _bits([ref.critical_path_delay])
        assert vec.critical_path_gates == ref.critical_path_gates
        assert vec.critical_endpoint == ref.critical_endpoint
        assert _bits([vec.worst_slack]) == _bits([ref.worst_slack])
        _assert_dicts_bit_identical(vec.output_arrivals, ref.output_arrivals)


class TestSizingKernel:
    @pytest.mark.parametrize("factor", [1.5, 0.93, 0.5])
    def test_sizing_bit_identical(self, factor, synthesis_options):
        netlist = kogge_stone_adder(16)
        library = synthesis_options.resolved_library()
        nominal = analyze_timing(
            netlist, DelayAnnotation.nominal(netlist, library)).critical_path_delay
        options = SizingOptions(clock_constraint=nominal * factor)
        vec = size_to_constraint(netlist, library, options)
        ref = size_to_constraint_reference(netlist, library, options)
        _assert_sizing_identical(vec, ref, netlist)

    def test_constraint_failing_netlist(self, synthesis_options):
        # A constraint far below what min_delay cells can reach: the
        # fix-up passes bottom out and met_constraint is False on both
        # paths, with identical annotations.
        netlist = kogge_stone_adder(8)
        library = synthesis_options.resolved_library()
        options = SizingOptions(clock_constraint=1e-12)
        vec = size_to_constraint(netlist, library, options)
        ref = size_to_constraint_reference(netlist, library, options)
        assert vec.met_constraint is False
        assert ref.met_constraint is False
        _assert_sizing_identical(vec, ref, netlist)


class TestOptimizeKernel:
    @pytest.mark.parametrize("entry", WIDTH8_ENTRIES, ids=lambda e: e.name)
    def test_width8_gate_identical(self, entry, synthesis_options):
        netlist = _entry_netlist(entry, 8, synthesis_options)
        vec = optimize(netlist)
        ref = optimize_reference(netlist)
        assert _gate_tuples(vec) == _gate_tuples(ref)
        assert vec.inputs == ref.inputs
        assert vec.outputs == ref.outputs
        assert vec.buses == ref.buses


def _wire_netlist():
    """Inputs ``a`` and ``b``, output ``a``: no gates at all."""
    netlist = Netlist("wire")
    netlist.add_input("a")
    netlist.add_input("b")
    netlist.add_output("a")
    return netlist


def _folding_netlist():
    """Logic that constant propagation folds away completely."""
    netlist = Netlist("folds")
    netlist.add_input("a")
    netlist.add_input("b")
    netlist.add_gate("g0", "AND2", ["a", "const1"], "n0")
    netlist.add_gate("g1", "OR2", ["b", "const1"], "n1")
    netlist.add_gate("g2", "XOR2", ["n0", "const0"], "n2")
    netlist.add_output("n2")
    netlist.add_output("n1")
    return netlist


class TestZeroGateNetlists:
    @pytest.mark.parametrize("build", [_wire_netlist, _folding_netlist])
    def test_zero_gate_kernels_match_oracles(self, build, synthesis_options):
        netlist = build()
        optimized = optimize(netlist)
        reference = optimize_reference(netlist)
        assert optimized.num_gates == 0
        assert _gate_tuples(optimized) == _gate_tuples(reference)
        assert optimized.outputs == reference.outputs

        library = synthesis_options.resolved_library()
        annotation = DelayAnnotation.nominal(optimized, library)
        _assert_sta_identical(optimized, annotation)
        for clock in (1e-12, 3e-10):
            options = SizingOptions(clock_constraint=clock)
            _assert_sizing_identical(
                size_to_constraint(optimized, library, options),
                size_to_constraint_reference(optimized, library, options),
                optimized)

    @pytest.mark.parametrize("build", [_wire_netlist, _folding_netlist])
    def test_zero_gate_flow_matches_oracles(self, build, synthesis_options):
        vec, ref = _synthesize_both(build(), synthesis_options)
        assert vec.netlist.num_gates == 0
        _assert_designs_identical(vec, ref)


class TestFlowEquivalence:
    @pytest.mark.parametrize("entry", WIDTH16_ENTRIES, ids=lambda e: e.name)
    def test_width16_synthesize_identical(self, entry, synthesis_options):
        netlist = _entry_netlist(entry, 16, synthesis_options)
        _assert_designs_identical(*_synthesize_both(netlist, synthesis_options))

    def test_seeded_variation_identical(self):
        options = SynthesisOptions(variation_sigma=0.05, variation_seed=1234)
        netlist = kogge_stone_adder(16)
        _assert_designs_identical(*_synthesize_both(netlist, options))

    def test_tight_constraint_flow_identical(self):
        # Flow-level coverage of a design that cannot meet its clock.
        options = SynthesisOptions(clock_constraint=1e-12)
        netlist = kogge_stone_adder(8)
        vec, ref = _synthesize_both(netlist, options)
        assert vec.sizing_result.met_constraint is False
        _assert_designs_identical(vec, ref)


class TestSweepEquivalence:
    def test_small_sweep_value_identical(self, monkeypatch):
        # A persistent synthesis cache would serve the oracle pass the
        # library's designs; both passes must run the flow themselves.
        monkeypatch.delenv(SYNTH_CACHE_ENV, raising=False)
        entries = tuple(DesignSpace(width=16).entries(max_designs=4))
        spec = SweepSpec(entries=entries, clock_plan=sweep_clock_plan((0.0, 0.10)),
                         workloads=(WorkloadSpec("uniform", 128, width=16, seed=3),),
                         simulator="fast", engine="auto",
                         synthesis=SynthesisOptions(), width=16)
        clear_design_cache()
        with reference_kernels():
            ref = run_sweep(spec, backend="serial")
        clear_design_cache()
        vec = run_sweep(spec, backend="serial")
        assert len(vec.points) == len(ref.points)
        for vp, rp in zip(vec.points, ref.points):
            assert vp.design == rp.design
            assert _bits([vp.clock_period]) == _bits([rp.clock_period])
            assert _bits([vp.stats.rms_relative_error]) == \
                _bits([rp.stats.rms_relative_error])
            assert _bits([vp.stats.error_rate]) == _bits([rp.stats.error_rate])
            assert _bits([vp.structural_rms]) == _bits([rp.structural_rms])
            assert _bits([vp.timing_rms]) == _bits([rp.timing_rms])
            assert vp.cost.gates == rp.cost.gates
