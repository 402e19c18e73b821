"""Golden hashes: the demo configs must keep producing the same bytes.

The digests are those of ``rounds.csv`` and ``events.log`` from
``fedsim run`` on each ``demos/configs/*.json`` as shipped (numpy 2.x,
x86-64).  A change that moves any of them changes the simulator's
numerics or its output format and has to say so.
"""

import hashlib
from pathlib import Path

import pytest

from fedsim.cli import main

CONFIG_DIR = Path(__file__).resolve().parent.parent / "demos" / "configs"

GOLDEN = {
    "three_clients": {
        "rounds.csv": "6377cfd34e7b8581a926ee4e05b378b595f98130e777de20cce38cd9e62ebf06",
        "events.log": "36a0717c8e1c8ad9b914305d7efa3035db10d5fdafe2d5cde5d34b19a5194e85",
    },
    "leave_join": {
        "rounds.csv": "fd7d0e8077ba0a74495a62db7fef437a14771af4fc2842695b2b2c5f47133d0c",
        "events.log": "efd338b27316b56a1cf2e38cb45908e0a5814d46b3391d09c19fdb80ebc42159",
    },
    "delayed_update": {
        "rounds.csv": "e99e42239577772b94947ea60fc97b3ca4ad3576cb598effe0f19eca4d35154a",
        "events.log": "f1c34fed9b46dc377a9e412d067f5cc5fb7d3a9fadfa08a5467e0f20da89439b",
    },
    "ten_clients": {
        "rounds.csv": "a2455a362e3f5bc15406a202d56170ee5476f1477a04263d6d85b9cbdf8096ed",
        "events.log": "333b6d115f438146df36352eb84c0705c321097385dd8bf67d4e421f9bd06cc2",
    },
}


@pytest.mark.parametrize("stem", sorted(GOLDEN))
def test_demo_config_outputs_match_golden_hashes(stem, tmp_path):
    out = tmp_path / stem
    assert main(["run", "--config", str(CONFIG_DIR / f"{stem}.json"), "--out", str(out)]) == 0
    got = {name: hashlib.sha256((out / name).read_bytes()).hexdigest() for name in GOLDEN[stem]}
    assert got == GOLDEN[stem]


def test_every_demo_config_has_golden_hashes():
    assert sorted(p.stem for p in CONFIG_DIR.glob("*.json")) == sorted(GOLDEN)
