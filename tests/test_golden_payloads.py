"""Golden payload digests for the big scenario cells.

Each case pins the sha256 of a sweep's canonical JSON (``sort_keys``)
at a fixed window, so any change to simulation behavior — engine,
fleet, hazards, metrics plane, sweep fabric — shows up as a digest
mismatch rather than needing a kept-alive copy of the old code.  The
cells cover single-job runs (``dense``, ``degraded-network``), the
~10k-GPU ``dense-xl``, a day of the 100k-GPU ``fleet-quarter``
(vectorized substrate) and the multi-tenant ``fleet-preemption``.

A deliberate behavior change must update the digest in the same
commit and say why.
"""

import hashlib
import json

import pytest

from repro.experiments import SweepRunner, SweepSpec

GOLDEN = [
    ("dense", {"duration_s": 14400.0},
     "d2d4c0c9f7e2b94335ec5de2b479e28cda9e97640e8cfd382a89786030202224"),
    ("degraded-network", {"duration_s": 14400.0},
     "0673fefd8c34d62f42dbede97ed7d5c934fa2bd092d21b4236a6e52bc887f874"),
    ("dense-xl", {"duration_s": 1800.0},
     "6f1303bb52437bf51c0746480cf1429497d110784041d4c14252769b7e904206"),
    ("fleet-quarter", {"duration_s": 86400.0},
     "71b47b388e33b35bf44e06dc506c4d2f4371451a028d9c780d0e744e169cae53"),
    ("fleet-preemption", {},
     "7824fc166b4447e0e1df6df40949cf54423e6a2f2dfbdaacc7487910087526f4"),
]


@pytest.mark.parametrize("scenario,params,digest", GOLDEN,
                         ids=[case[0] for case in GOLDEN])
def test_golden_payload_digest(scenario, params, digest):
    result = SweepRunner(workers=1, cache=None).run(
        SweepSpec(scenario, params=params))
    blob = json.dumps(result.to_dict(), sort_keys=True)
    assert hashlib.sha256(blob.encode()).hexdigest() == digest
