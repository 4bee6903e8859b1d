"""Golden report digests: the SHA-256 of each report CSV at two seeds.

Any change that alters a single byte of these reports (a kernel rewrite, a
different summation order, a new stream layout) shows up here.  A change
that is meant to alter the reports must update the digests and say why.
"""

import hashlib
from dataclasses import replace

import pytest

from besovbm import harness

# reduced sizes: paths per model, or the maximal experiment's supremum samples
SIZES = {
    "bm-limit": {"paths": 20},
    "divergence": {"paths": 5},
    "moments": {"paths": 4},
    "tau": {"paths": 500},
    "maximal": {"mc_samples": 1000},
}

DIGESTS = {
    ("bm-limit", 3): "02e1c0e3a7785fec52b8c40d94a0d23641994f1850474f627079d3956e0e7dcd",
    ("divergence", 3): "9e175342cc2e31b8cba8c58067cea4ff92ea7f5578a68537e789f51890376c28",
    ("maximal", 3): "42b0d5515e355b447362d989b5283b70ab561ba9af3adf5bc57dfaae77d34b84",
    ("moments", 3): "e1f506142ca947997a1237390f07d2dfe86d7987beaedad383e64953dd94b848",
    ("tau", 3): "cf56e34016c54e6a3e10bd77a36b0d7577b5c334595cc8ce7f7b0a77dbf292c8",
    ("bm-limit", 20260808): "3046e40947fe7e9f4773ae12e36767422abe08e8b1412d4e4a774769c77a9a1a",
    ("divergence", 20260808): "55dcb1f39ffb4d31a5f9afd2bc71355604651d13a849a271849467a73913430e",
    ("maximal", 20260808): "7517fe36f5955f943d4fe56b5a29fa198ad8125415b5895a25fe670e2feaf11a",
    ("moments", 20260808): "70657b87beb06f2018d137fbfffa521c58aae19870729a310d988cf94823272c",
    ("tau", 20260808): "9986a53ea057b3a406e9c04d1160c73cb8fc5413626b8fa9bcc2bd9fc9edcc6f",
}


@pytest.mark.parametrize("experiment, seed", sorted(DIGESTS), ids=lambda v: str(v))
def test_report_digest(tmp_path, experiment, seed):
    cfg = replace(harness.default_config(experiment, seed), **SIZES[experiment])
    (path,) = harness.emit_report(harness.run(cfg), tmp_path / experiment, ("csv",))
    with open(path, "rb") as handle:
        assert hashlib.sha256(handle.read()).hexdigest() == DIGESTS[experiment, seed]
