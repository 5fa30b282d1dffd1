"""Record ``reference.json``: the expected outputs for every seed.

Usage, from the repository root::

    python3 perfbench/record.py

Sweep and tenants are recorded once per run index a seed can select.
Search optima are recorded for every catalogue entry.  Serve answers
are recorded for every catalogue query from direct library calls
(``CostOptimizer.evaluate``, ``grid_search`` and ``Experiment.measure``),
so a served answer that matches its reference also matches the library.
Re-record only when a change is meant to alter the program's outputs,
and say so in the change.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    from repro.pipeline import ResultCache
    from specs import RUN_INDICES, search_catalogue, serve_catalogue
    from workloads import (
        REFERENCE_FILE,
        Search,
        Sweep,
        Tenants,
        digest,
        library_answer,
        search_answer,
    )

    workdir = ROOT / ".perfbench_out"
    workdir.mkdir(exist_ok=True)
    reference = {"sweep": {}, "tenants": {}}
    for run_index in range(RUN_INDICES):
        sweep = Sweep(run_index, ROOT, workdir)
        sweep.setup()
        reference["sweep"][str(run_index)] = digest(sweep.grid_pass())
        sweep.close()
        tenants = Tenants(run_index, ROOT, workdir)
        tenants.setup()
        reference["tenants"][str(run_index)] = digest(tenants.mix_pass())
        print(f"run index {run_index} recorded", flush=True)

    search = Search(0, ROOT, workdir)
    search.setup()
    reference["search"] = [
        digest(search_answer(
            search.optimizer(workload, workers).grid_search(vcpu_grid=grid)
        ))
        for workload, workers, grid in search_catalogue()
    ]
    print("search recorded", flush=True)

    cache = ResultCache()
    reference["serve"] = {
        kind: [digest(library_answer(payload, cache)) for payload in payloads]
        for kind, payloads in serve_catalogue().items()
    }
    REFERENCE_FILE.write_text(json.dumps(reference, separators=(",", ":")) + "\n")
    print(f"wrote {REFERENCE_FILE.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
