"""Golden determinism on the sparse 16×16 mesh.

``test_golden_mesh`` pins the 4×4 Table 2 mesh.  These digests pin the
mostly idle 16×16 fabric of the ledger's ``sparse-16x16`` workload
(blackscholes, 40 accesses per core, seed 7), where 256 tiles make any
per-core work in the run loop or the kernel's wake scheduling show up:
a change that makes large meshes cheaper must leave them bit-identical.
"""

import pytest

from repro.experiments import runner
from repro.experiments.runner import RunSpec

#: scheme -> ``runner.result_digest`` of the fresh 16×16 run.
LARGE_MESH_DIGESTS = {
    "baseline": "e3e4e15ac2570751438c9a5a2ac10d09a9496ca330aa89a0d34477ba630fcaf4",
    "disco": "94468e9b2e1fc85e237ff0430d9040dd6e5d8a7de1d063172749b9bdde19729f",
}


@pytest.mark.parametrize("scheme", sorted(LARGE_MESH_DIGESTS))
def test_sparse_16x16_mesh_is_golden(scheme):
    spec = RunSpec(
        scheme=scheme, workload="blackscholes", width=16, height=16,
        accesses_per_core=40, seed=7,
    )
    # ``_simulate`` bypasses every cache: a genuinely fresh run.
    result = runner._simulate(spec)
    assert runner.result_digest(result) == LARGE_MESH_DIGESTS[scheme], (
        f"16x16 {scheme} run diverged from its golden digest"
    )
