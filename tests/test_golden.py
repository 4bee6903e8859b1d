"""Golden report digests: the SHA-256 of each report CSV at two seeds.

Any change that alters a single byte of these reports (a kernel rewrite, a
different summation order, a new stream layout) shows up here.  A change
that is meant to alter the reports must update the digests and say why.
"""

import hashlib
from dataclasses import replace

import pytest

from besovbm import harness

PATHS = {"bm-limit": 20, "divergence": 5, "moments": 4, "tau": 500}

DIGESTS = {
    ("bm-limit", 3): "548d29f54836ad3eaa1f827e49330866af60e469bf8014895ecc2316a067bf6a",
    ("divergence", 3): "2187c63902be484f95bc9f7c4c81727680c85a07076be7c96c83c5eb0f28ebef",
    ("moments", 3): "ba59a924f17a2c22b2e5012ca7b3f5bfb7478635dccfa9c9ad45c45fe2d5bd2b",
    ("tau", 3): "022e7aa70086cd10d30fa5ef22a202acf57e2b5f43421d50d723cd4cba2bbebb",
    ("bm-limit", 20260808): "657ec911756a0611cde1b26b8cc80fb9f10a14adaa1854f6eb035291c1a523e8",
    ("divergence", 20260808): "43f12109ddc541df16c3148854101a007df0c4e1a11de72c9f7d33f8963f6336",
    ("moments", 20260808): "cfe517f59ea88e314095b297ac97690366b064cea960b6411cf956959f303a9b",
    ("tau", 20260808): "68c770c2d2d0c9d43c889c45ca8bab88e18d9111f0c8f18d72053696264f27fe",
}


@pytest.mark.parametrize("experiment, seed", sorted(DIGESTS), ids=lambda v: str(v))
def test_report_digest(tmp_path, experiment, seed):
    cfg = replace(harness.default_config(experiment, seed), paths=PATHS[experiment])
    (path,) = harness.emit_report(harness.run(cfg), tmp_path / experiment, ("csv",))
    with open(path, "rb") as handle:
        assert hashlib.sha256(handle.read()).hexdigest() == DIGESTS[experiment, seed]
