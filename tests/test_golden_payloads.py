"""Golden payload digests for every registered scenario.

Each case pins the sha256 of a sweep's canonical JSON (``sort_keys``)
at a fixed window, so any change to simulation behavior — engine,
fleet, hazards, metrics plane, sweep fabric, scenario construction —
shows up as a digest mismatch rather than needing a kept-alive copy of
the old code.  ``GOLDEN`` holds the big cells at hand-picked windows:
single-job runs (``dense``, ``degraded-network``), the ~10k-GPU
``dense-xl``, a day of the 100k-GPU ``fleet-quarter`` (vectorized
substrate) and the multi-tenant ``fleet-preemption``; ``FULL_WIDTH``
adds two days of ``fleet-quarter`` at three seeds, ``FLEET_TWO_WEEKS``
its two-week benchmark window, and ``SPOT_TEN_DAYS`` ten days of
``fleet-spot-churn``.  ``CATALOG``
covers every other registered scenario at its defaults, with
``duration_s`` (where the scenario has one) capped at six hours.

A deliberate behavior change must update the digest in the same
commit and say why.
"""

import hashlib
import json

import pytest

from repro.experiments import SweepRunner, SweepSpec, list_scenarios

GOLDEN = [
    ("dense", {"duration_s": 14400.0},
     "d2d4c0c9f7e2b94335ec5de2b479e28cda9e97640e8cfd382a89786030202224"),
    ("degraded-network", {"duration_s": 14400.0},
     "0673fefd8c34d62f42dbede97ed7d5c934fa2bd092d21b4236a6e52bc887f874"),
    ("dense-xl", {"duration_s": 1800.0},
     "6f1303bb52437bf51c0746480cf1429497d110784041d4c14252769b7e904206"),
    ("fleet-quarter", {"duration_s": 86400.0},
     "71b47b388e33b35bf44e06dc506c4d2f4371451a028d9c780d0e744e169cae53"),
    # pinned with one step chain per job (a boundary preemption that its
    # own dispatch resumes commits no zero-duration steps) and dispatch
    # on change: a queued job starts at the instant a repair frees its
    # machines, not at the next 60 s poll
    ("fleet-preemption", {},
     "9792092e6ef300de5f54c7ef5df38ed900a4fa52fee4d9fb5565e23e19e10b8f"),
]

#: ``fleet-quarter`` at full width over two days, the window in which
#: one job's health writes meet other jobs' inspection sweeps
FULL_WIDTH = [
    (0, "e52e03eb2c6cfbf7083f17a711e88c0abb0d2a8b5aa5573ac693dd8a41e18f61"),
    (1, "34611f7e36b3bc8be1f845e1fb39a926480cd579b56b4ab4866cd2288108fe12"),
    (2, "cc3b45dee28b4b2a82fa8dbc2d1c38e8d2b9ff380a3031e112cb9551272d7a6d"),
]

#: ``fleet-quarter`` at full width over two weeks with checkpointing off,
#: at seed 3: the ``fleet-100k`` benchmark window, long enough that
#: most jobs complete and their step histories are read for ETTR
FLEET_TWO_WEEKS = (
    "4bc914020211a4b6ec1fb683644add6bda0d3760d68be58642f0d103040775c0")

#: ``fleet-spot-churn`` over ten days, the spot-tenancy benchmark cell
#: (~160 checkpoint-boundary preemptions; the six-hour ``CATALOG`` window
#: sees a handful), pinned with one step chain per job and dispatch on
#: change
SPOT_TEN_DAYS = (
    "68b2dcd32f0443b7157d44dd88e1f054e9e3680f99dab5f1f3f715ce4014ee5a")

#: Every other registered scenario: defaults, with ``duration_s`` capped at
#: ``min(default, 21600.0)`` where the scenario declares it.
CATALOG = [
    ("aggressive-checkpoint", {"duration_s": 21600.0},
     "0aef02bcd9f5450df60a949d5c17a4afcf26b1d5f23a48ad13fefb3d2f213bb6"),
    ("backup-recovery", {},
     "13ceb4c0bb28eeaadd894dfda0b886d630ecdacd9fd07b80c3ee340ad55ee0f2"),
    ("backup-survival", {},
     "320b6aeee07741c244d2df5a2be75371809abd08cbc26f19abe0091cf04360e7"),
    ("checkpoint-efficiency", {},
     "e0885b3b40eb0157aa9c02a941741a6cc7f34718afa1376b5f722498be94b8e7"),
    ("dense-large", {"duration_s": 21600.0},
     "a2be66275d800bbc76ce47c0a3778f24c41558bcc1975f6e8a8829f734347678"),
    ("dense-small", {"duration_s": 21600.0},
     "9037ff32f63101c4715a23786496cca27ac1f71299b963cd4b30b6c9f5c4a7e5"),
    ("detection-latency", {},
     "45bdd87964aa027059be7d89e57a5c306852f8482174170252783093007caba2"),
    ("eviction-policy", {},
     "5c05078a08b1de190abe56bc2e11a9aacd6980bf0cfb54adb7c056a11e58bfd8"),
    ("fleet-elastic-standby", {"duration_s": 21600.0},
     "f8abee763e8f5144d8e71cc952ba5b7d09892208f2fc5aaac7410cada6492d87"),
    # pinned with one step chain per job: a resize at a step boundary
    # commits no zero-duration steps
    ("fleet-elastic-training", {"duration_s": 21600.0},
     "284034243c3c40bb51a6ee554fefd11d0249ad74af564abfae4e5cb2a388880a"),
    ("fleet-placement-blast-radius", {"duration_s": 21600.0},
     "7ce17ff3624935624d685c64b4d3ce4632ffd85da62b9896bbca5641b56499e7"),
    ("fleet-priority-mix", {"duration_s": 21600.0},
     "03e8d32f1995eb11a187581fa22b4bbedb6187620097995f085719651d2d29cb"),
    ("fleet-spot-churn", {"duration_s": 21600.0},
     "de625625d52fc7907fb4525876a9a980eb4caeca05e5680db01d2a9d6e870505"),
    ("fleet-standby-contention", {"duration_s": 21600.0},
     "8a4fe74c9ee3418fadde5df87d41541ce56e38c8014da28fcfc4ae0329f0b8dc"),
    ("fleet-week", {"duration_s": 21600.0},
     "2f34425c3615205b5d230f25582455d494439e1ad4c204808c88f80e5ceaee85"),
    ("hang-breakdown", {"duration_s": 10800.0},
     "66c3ec5baf1e868de529b765515587b819ee8b5c4c68bc8dfb309eb727c48f37"),
    ("hotupdate-ladder", {},
     "b790ec517feff9cb79fa714a51e19ac33b2e2aa929ad4d44da6ae9fd821f744c"),
    # pinned with fresh-seq re-entry of dormant tick groups: the GPU
    # losses at 7200/14400/21600 s now surface first through the
    # inspection sweep, not the CUDA crash (same time, machine, ETTR)
    ("hotupdate-policy", {"duration_s": 21600.0},
     "d63fa673fc4b4a465dd969ebf7a56326d789ebb918bf2cf27fe9c1f34f8e1925"),
    ("incident-census", {},
     "8cb565885080dc6c2aa2df6e92510a0fba49f3e2890321441ae605e29d9195a6"),
    ("moe", {"duration_s": 21600.0},
     "08800a90235ad2ce114ece09092d6689669adf704fd33801ee79f0d4f75c7728"),
    ("replay-localization", {},
     "21dd663b259f59449749f832bb3c4c3245bc2f8f3c665be8d0db2edfaa0b2e8c"),
    ("resolution-cost", {"duration_s": 21600.0},
     "1673b4702a4b12b83b1a01590d36e40322bc8c3542e17f7bf2e3186f6ddd1a65"),
    ("restart-replay", {},
     "81dba78291c48097aba05639dadc180ce410d78d57efb85d0896d1f3c9c6ef5a"),
    ("root-cause-mix", {},
     "ab83c6b1ce5ebc02c6665b31ee6f65b6f64b2c37d72c2281eebba5aae34f4ee2"),
    ("scheduling-cost", {},
     "7d594cd73282fbd3d442436447d026547730e83783ff93f2a2815d62e9d5fab3"),
    ("stack-aggregation", {},
     "b7ed13cbc78e1466c61df3a526a657e38e1ca1d1cfad24f31aafb5d5446c452a"),
    ("staged", {"duration_s": 21600.0},
     "af84700ef97a5f5eebb7b9b18794d58cf7ac222c437111ca26d714b2dd6ae430"),
    ("standby-quantile", {},
     "7b3848859429e3d58914670f3aeeaa0f8ac5bb24c95673b401057751f7c987ee"),
    ("standby-sizing", {},
     "1b5cb28fac1134f9d3b2feabe116b495c8d4b7ce2d0033ff6aaa29345c8e2a46"),
    ("sweep-stress", {},
     "9732f111d2d5dd05afdd203e836365e6107997457870daa930e6e2393eee4b91"),
    ("sweep-stress-compute", {},
     "cd056a8d63918f42f3235a01ca7aa67fc8176a7e0b5933d46346bf2a427d9a28"),
    ("was-time", {},
     "35bb20f6e6f4500d1defbe4f35c039fd91b194c9b1129f0c937169ba2b14c884"),
]


def _digest(scenario, params):
    result = SweepRunner(workers=1, cache=None).run(
        SweepSpec(scenario, params=params))
    blob = json.dumps(result.to_dict(), sort_keys=True)
    return hashlib.sha256(blob.encode()).hexdigest()


@pytest.mark.parametrize("scenario,params,digest", GOLDEN + CATALOG,
                         ids=[case[0] for case in GOLDEN + CATALOG])
def test_golden_payload_digest(scenario, params, digest):
    assert _digest(scenario, params) == digest


@pytest.mark.parametrize("seed,digest", FULL_WIDTH,
                         ids=[str(case[0]) for case in FULL_WIDTH])
def test_fleet_quarter_full_width_digest(seed, digest):
    params = {"duration_s": 172800.0, "checkpoint_interval_s": 0.0,
              "seed": seed}
    assert _digest("fleet-quarter", params) == digest


def test_fleet_quarter_two_weeks_digest():
    params = {"duration_s": 14 * 86400.0, "checkpoint_interval_s": 0.0,
              "seed": 3}
    assert _digest("fleet-quarter", params) == FLEET_TWO_WEEKS


def test_spot_churn_ten_days_digest():
    assert _digest("fleet-spot-churn",
                   {"duration_s": 864000.0}) == SPOT_TEN_DAYS


def test_every_registered_scenario_is_pinned():
    pinned = [case[0] for case in GOLDEN + CATALOG]
    assert len(pinned) == len(set(pinned))
    assert sorted(pinned) == list_scenarios()
