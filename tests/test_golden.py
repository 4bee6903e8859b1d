"""Golden report digests: the SHA-256 of each report CSV at two seeds, and of
each ``json-text`` report (the only format that carries every row's ratio
and lower bound) at one seed.

Any change that alters a single byte of these reports (a kernel rewrite, a
different summation order, a new stream layout) shows up here.  A change
that is meant to alter the reports must update the digests and say why.
"""

import hashlib
from dataclasses import replace

import pytest

from besovbm import harness
from besovbm.spaces import truncated_lp

# reduced sizes: paths per model, or the maximal experiment's supremum samples
SIZES = {
    "bm-limit": {"paths": 20},
    "divergence": {"paths": 5},
    "moments": {"paths": 4},
    "tau": {"paths": 500},
    "maximal": {"mc_samples": 1000},
    "increment-variance": {},
}

DIGESTS = {
    ("bm-limit", 3): "02e1c0e3a7785fec52b8c40d94a0d23641994f1850474f627079d3956e0e7dcd",
    ("divergence", 3): "9e175342cc2e31b8cba8c58067cea4ff92ea7f5578a68537e789f51890376c28",
    ("increment-variance", 3): "36c2e154681823c5f937c7a968bf48d5ff35da6e045b29b1af450e6158f09562",
    ("maximal", 3): "cde65c61f9557329f541f3786dddb4506d69014790b54a4702461432988e6603",
    ("moments", 3): "9bb27910095aef3f460ad3845e36e05b273f303e5dbf72507408beb389cc23e4",
    ("tau", 3): "cf56e34016c54e6a3e10bd77a36b0d7577b5c334595cc8ce7f7b0a77dbf292c8",
    ("bm-limit", 20260808): "3046e40947fe7e9f4773ae12e36767422abe08e8b1412d4e4a774769c77a9a1a",
    ("divergence", 20260808): "55dcb1f39ffb4d31a5f9afd2bc71355604651d13a849a271849467a73913430e",
    ("increment-variance", 20260808): "36c2e154681823c5f937c7a968bf48d5ff35da6e045b29b1af450e6158f09562",
    ("maximal", 20260808): "29e12a15533edd748971a5deeaf4bb79546fdcd89d59a66402740bad573f7c4c",
    ("moments", 20260808): "011cb673382eaac7708d46a7307e62e1c5c23d8cf3584851cfd880b199de06a1",
    ("tau", 20260808): "9986a53ea057b3a406e9c04d1160c73cb8fc5413626b8fa9bcc2bd9fc9edcc6f",
}

JSON_SEED = 3
JSON_DIGESTS = {
    "bm-limit": "fbf9705417e4096235b1279713f3cafddb807808c371eb1e3869fe49d49916d8",
    "divergence": "d79a8438f7a14c9b1799e1c2c95ba221df3167e447d76ff4d86d0b3a45f8f820",
    "increment-variance": "a465bd4cd6ef5c0e43327a18a1c7698d764b669f1302f4a75499e5da8646fdc1",
    "maximal": "f6816e6bbc6b68f9e53d9f16e51bdf55f37379443f9497bf3596daf9bb7b36e0",
    "moments": "7915d58f7a5ed6607886b67a7bb77a6d42a95a102d102044b940e23d358af6d9",
    "tau": "ccb519281f9bfaae06eef3f26f6374de118238e283cf0c5f6985b2296e7b0683",
}


# The default scalar increment-variance report does not depend on the seed
# (both seeds above give the same digest); on this l^1 model the dual net is
# drawn, so each seed pins a different report.
L1_INCREMENT_VARIANCE = {"space": truncated_lp(1.0, 4), "sigma": (1.0, 0.5, 0.25, 0.125)}
L1_DIGESTS = {
    3: "2d2cf9a7c107b41c229e3fe78b852c1038968acf50020831f37ab6d7e08904e2",
    20260808: "cdb2af2d0f87a49a71abc65af2e2f79cb5b2107271e00e951e26704c01812775",
}


def _digest(tmp_path, experiment, seed, fmt, **overrides):
    cfg = replace(harness.default_config(experiment, seed), **SIZES[experiment], **overrides)
    (path,) = harness.emit_report(harness.run(cfg), tmp_path / experiment, (fmt,))
    with open(path, "rb") as handle:
        return hashlib.sha256(handle.read()).hexdigest()


@pytest.mark.parametrize("experiment, seed", sorted(DIGESTS), ids=lambda v: str(v))
def test_report_digest(tmp_path, experiment, seed):
    assert _digest(tmp_path, experiment, seed, "csv") == DIGESTS[experiment, seed]


@pytest.mark.parametrize("experiment", sorted(JSON_DIGESTS))
def test_json_report_digest(tmp_path, experiment):
    assert _digest(tmp_path, experiment, JSON_SEED, "json-text") == JSON_DIGESTS[experiment]


@pytest.mark.parametrize("seed", sorted(L1_DIGESTS))
def test_l1_increment_variance_digest(tmp_path, seed):
    digest = _digest(tmp_path, "increment-variance", seed, "csv", **L1_INCREMENT_VARIANCE)
    assert digest == L1_DIGESTS[seed]


def test_l1_increment_variance_digests_differ_across_seeds():
    assert len(set(L1_DIGESTS.values())) == len(L1_DIGESTS)
