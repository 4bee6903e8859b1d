"""Golden digests: the SHA-256 of each report CSV at two seeds, of each
``json-text`` report (the only format that carries every row's ratio and
lower bound) at one seed, and of the raw bytes of a few per-path arrays.

Any change that alters a single byte of these reports (a kernel rewrite, a
different summation order, a new stream layout) shows up here.  A change
that is meant to alter the reports must update the digests and say why.
"""

import hashlib
from dataclasses import replace

import numpy as np
import pytest

from besovbm import besov, harness
from besovbm.simulate import RngSeed, sample_bm, sampled_norms
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


# Per-path floats.  The report digests above pin means printed to 12
# significant digits, which a change of summation order inside a kernel can
# leave unmoved; these pin the raw bytes of single-path arrays.
def _path_arrays():
    seed = RngSeed(3)
    sigma16 = tuple(0.7 ** np.arange(16))
    scalar = sample_bm(truncated_lp(2.0, 1), (1.0,), 12, seed.child(0))
    arrays = {"scalar values": scalar.values}
    for q in (1.0, 2.0):
        path = sample_bm(truncated_lp(q, 16), sigma16, 12, seed.child(1, int(q)))
        arrays[f"l{q:g} dim-16 values"] = path.values
        for n in range(1, 11):
            arrays[f"l{q:g} increment norms n={n}"] = besov._increment_norms(path, n)
        arrays[f"l{q:g} besov totals"] = besov.integer_p_besov_totals(path, 0.5, 64)
    # five weights on eight coordinates: the padded weights are drawn too
    arrays["l2 dim-8 sampled norms"] = sampled_norms(truncated_lp(2.0, 8), sigma16[:5], 5000, seed.child(2))
    return arrays


PATH_DIGESTS = {
    "scalar values": "435f29ddc7ad0038388eca1885706a04a59267ff93559bd166de2a2a88087323",
    "l1 dim-16 values": "bda99adac5b12c2c05a027cfa587ad61babebfa5f592eaf58c8ecad5c0658200",
    "l1 increment norms n=1": "c19cdcdc317c4bb208cf017aea295efc995b8e9ba9718a615376109e70605e92",
    "l1 increment norms n=2": "14fd5526e97bfcdf910c0a42706c32eea843a65f48c21b6b024863e45913e3ad",
    "l1 increment norms n=3": "4b34416d94ccb4c44f4f35482be362e4cd7578f01aa97c05c2e0d97c04e96251",
    "l1 increment norms n=4": "1a7abf2c8eed3c8d844aa29a3f9733f9c257f1af713c1a5749f6783915e37782",
    "l1 increment norms n=5": "e7cdd6a3cabb2186fb9ddadb1ef5da64ec7f4a2ef2cb7811f38651d7a966c345",
    "l1 increment norms n=6": "757cc6c0a57677b1569217d45a248e8a33404a7be190a9421428dcd8167b07bc",
    "l1 increment norms n=7": "4d80d7f2514880805a7a95a4e48883b79c2145d75a48bd520c1fc66bef9fec49",
    "l1 increment norms n=8": "18efb3b8a65c95fd13f7681ab5865fcfb3902a68b20601030a238c2bac2ff11a",
    "l1 increment norms n=9": "b1a98abcb9dbc9825c9d9608da2eedc9ef7dce0c7b7cababaafc60dc41375a57",
    "l1 increment norms n=10": "097f3642f95c0e96e4a0f208b3d27e1fd2b6ed32c2018d35e139b1a274b0cd09",
    "l1 besov totals": "75f863806643b13497a7ea5a35157c490cb3bdcaedf3aea9f348d2d9fa54fde7",
    "l2 dim-16 values": "a8ba76cc7ee4a5b12455ee5fbf743f37bd1044d19c106b1a5a1328b16f127d53",
    "l2 increment norms n=1": "6f9d97155304ee1b5dc6ffa1343f15a2305fefba5673c95b3c1d6c1010041d5d",
    "l2 increment norms n=2": "e730bfffc1c19db797956038aaaa170c321aa9054899e941de091336e2cbcf2d",
    "l2 increment norms n=3": "1fd5b40e2a3546882dbef67b63b3038e432b42d32ed4a29464e400341421d645",
    "l2 increment norms n=4": "a9feaf38410b7a15692a3b81abc0464d9ead58205e413a7ad8fd4bd9f72b2275",
    "l2 increment norms n=5": "f9d99defaf3d896210eef0afd046f520ba875faf2183863f2870b9da64966274",
    "l2 increment norms n=6": "a9a97a0fd6636def59117c0b15c21f4aa5dc6d40537baed764b6ebfd36b3d7b3",
    "l2 increment norms n=7": "1f250005a8a31ea8f92781c9c2d0da249a28a0fc125e880e75939198d38637e3",
    "l2 increment norms n=8": "2ed96eb13c8e7c9bcf206d27734503029ca0dbb1f241564dd3c636f85de4bd1f",
    "l2 increment norms n=9": "95330a14c1897db9fe088f9045ee20fd981ba4deecf51bdb0bb9a75e4139c3b1",
    "l2 increment norms n=10": "b4546ba211844651caeaf35b1db1bcc3b55f3c24f46b9f693e44c245837461f3",
    "l2 besov totals": "c7d24352967ce7309e8ecab53ad7ee2171625c27a97c4c48a07f2730f7aa6c82",
    "l2 dim-8 sampled norms": "fe00b552a0c368d25642e0643234f76abc76d2900d54ef35300d7cb9ee56fec5",
}


def test_per_path_array_digests():
    got = {name: hashlib.sha256(arr.tobytes()).hexdigest() for name, arr in _path_arrays().items()}
    assert got == PATH_DIGESTS
