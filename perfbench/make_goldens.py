"""Regenerate the committed goldens under ``perfbench/goldens/``.

Run from the root of a checkout, only when a change is *meant* to alter
the outputs (and say so in the change)::

    python3 perfbench/make_goldens.py [figures] [sweep_cold] [adaptive_warm]

* ``figures.json``: the Fig. 9 and Fig. 10 tables (identical for every
  variant: the traces keep the paper's seed), and per variant the mean
  Fig. 7 ABPER plus the Fig. 7/8 tables;
* ``sweep_cold.json``: per variant, the ranked frontier rows;
* ``adaptive_reference.json``: the exhaustive frontier of the adaptive
  search's space — every width-16 quadruple simulated — as
  ``[quadruple or null, cpr]`` pairs.
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile

from run import ROOT, SRC, WORK_ROOT, isolate_environment


def dumps(value, depth: int = 0) -> str:
    """JSON with one line per record: objects nest, list items stay whole."""
    pad = " " * (depth + 1)
    if isinstance(value, dict):
        items = [f"{pad}{json.dumps(key)}: {dumps(value[key], depth + 1)}"
                 for key in sorted(value)]
        return "{\n" + ",\n".join(items) + "\n" + " " * depth + "}"
    if isinstance(value, list):
        items = [pad + json.dumps(item, sort_keys=True) for item in value]
        return "[\n" + ",\n".join(items) + "\n" + " " * depth + "]"
    return json.dumps(value)


def write(name: str, value) -> None:
    import suite
    path = suite.GOLDEN_DIR / name
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(dumps(value) + "\n", encoding="utf-8")
    print(f"wrote {path.relative_to(ROOT)}")


def figures(workdir) -> None:
    import suite
    tables, abper, ml_tables = None, {}, {}
    for variant in range(suite.VARIANTS):
        workload = suite.Figures(suite.inputs_for(variant), workdir / f"figures-{variant}")
        workload.prepare()
        outcome = workload.iterate("golden")
        sections = outcome.outputs["sections"]
        simulated = {str(number): sections[number] for number in (9, 10)}
        if tables is not None and simulated != tables:
            raise SystemExit("Fig. 9/10 tables differ between model seeds")
        tables = simulated
        abper[str(variant)] = outcome.outputs["prediction_abper"]
        ml_tables[str(variant)] = {str(number): sections[number] for number in (7, 8)}
        print(f"figures variant {variant}: ABPER {abper[str(variant)]:.6g} "
              f"in {outcome.wall_s:.1f} s")
        workload.close()
    write("figures.json", {"tables": tables, "prediction_abper": abper,
                           "ml_tables": ml_tables})


def sweep_cold(workdir) -> None:
    import suite
    rows = {}
    for variant in range(suite.VARIANTS):
        workload = suite.SweepCold(suite.inputs_for(variant), workdir / f"sweep-{variant}")
        workload.prepare()
        outcome = workload.iterate("golden")
        rows[str(variant)] = outcome.outputs["rows"]
        print(f"sweep_cold variant {variant}: {len(rows[str(variant)])} frontier rows "
              f"in {outcome.wall_s:.1f} s")
        workload.close()
    write("sweep_cold.json", rows)


def adaptive_reference(workdir) -> None:
    import suite
    from repro.explore import (aggregate_points, frontier_keys, pareto_frontier,
                               run_sweep)
    from repro.runtime import MultiprocessBackend

    spec = suite.AdaptiveWarm(suite.inputs_for(0), workdir).spec()
    exhaustive = spec.sweep.with_entries(spec.space.entries())
    backend = MultiprocessBackend(workers=suite.SWEEP_WORKERS)
    try:
        result = run_sweep(exhaustive, backend=backend)
    finally:
        backend.close()
    keys = frontier_keys(pareto_frontier(aggregate_points(result.points)))
    pairs = sorted(([list(quadruple) if quadruple is not None else None, cpr]
                    for quadruple, cpr in keys),
                   key=lambda pair: (pair[0] or [], pair[1]))
    print(f"adaptive reference: {len(pairs)} frontier points over "
          f"{len(exhaustive.entries)} designs")
    write("adaptive_reference.json", pairs)


def main(argv) -> int:
    chosen = argv or ["figures", "sweep_cold", "adaptive_warm"]
    isolate_environment()
    sys.path.insert(0, str(SRC))
    workdir = WORK_ROOT / "goldens-work"
    shutil.rmtree(workdir, ignore_errors=True)
    (workdir / "tmp").mkdir(parents=True)
    tempfile.tempdir = str(workdir / "tmp")
    try:
        if "figures" in chosen:
            figures(workdir)
        if "sweep_cold" in chosen:
            sweep_cold(workdir)
        if "adaptive_warm" in chosen:
            adaptive_reference(workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
