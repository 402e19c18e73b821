"""Golden hashes: the demo configs must keep producing the same bytes.

``DEMO_GOLDEN`` holds the digest of every file that ``fedsim run`` on each
``demos/configs/*.json`` as shipped and the three README ``sweep`` commands
write, keyed by its path under the output root (numpy 2.4.6, x86-64).  A
change that moves any of them changes the simulator's numerics or its
output format and has to say so.

The bits also depend on the CPU class: numpy's float64 ``exp`` loop and
OpenBLAS's core each move them, so the digests are keyed by that pair
(``cpu_class``).  Two classes are recorded: AVX-512, ``("X86_V4",
"SkylakeX")``, and AVX2, ``("X86_V3", "Haswell")``, which OpenBLAS's Zen
core also reports.  The AVX2 set was recorded on an AVX-512 machine under
``OPENBLAS_CORETYPE=Haswell NPY_DISABLE_CPU_FEATURES=X86_V4``.  Any other
class fails the golden test by name; record its set from the same code.
"""

import ctypes
import hashlib
import json
from pathlib import Path

import numpy as np

from fedsim.cli import main

CONFIG_DIR = Path(__file__).resolve().parent.parent / "demos" / "configs"
BENCH_DATA = CONFIG_DIR.parent.parent / "bench" / "data"

# The README's demo commands; each config writes under its own directory,
# as its ``output_dir`` would, so a config's run and sweep share a root.
DEMO_COMMANDS = [
    *(["run", "--config", p.name] for p in sorted(CONFIG_DIR.glob("*.json"))),
    ["sweep", "--config", "ten_clients.json", "--variable", "client-count", "--values", "3,10"],
    ["sweep", "--config", "three_clients.json", "--variable", "N_r", "--values", "1,5,10"],
    [
        "sweep",
        "--config",
        "delayed_update.json",
        "--variable",
        "policy",
        "--values",
        "drop-history+use-stale-accept-any,drop-history+exclude-until-current",
    ],
]


def cpu_class() -> tuple[str, str]:
    """(numpy's float64 ``exp`` dispatch target, the core of numpy's bundled OpenBLAS)."""
    info = np.lib.introspect.opt_func_info(func_name="^exp$", signature="float64")
    exp = info.get("exp", {}).get("dd", {}).get("current", "unknown")
    libs = sorted((Path(np.__file__).parent.parent / "numpy.libs").glob("libscipy_openblas64_*"))
    if not libs:
        return exp, "unknown"
    corename = ctypes.CDLL(str(libs[0])).scipy_openblas_get_corename64_
    corename.argtypes, corename.restype = [], ctypes.c_char_p
    return exp, corename().decode()


def _digests(lines: str) -> dict[str, str]:
    return dict(line.split() for line in lines.strip().splitlines())


AVX512 = ("X86_V4", "SkylakeX")
AVX2 = ("X86_V3", "Haswell")

# CPU class -> relative path under the output root -> sha256 of the file.
DEMO_GOLDEN = {AVX512: _digests("""
delayed_update/events.log f1c34fed9b46dc377a9e412d067f5cc5fb7d3a9fadfa08a5467e0f20da89439b
delayed_update/rounds.csv e99e42239577772b94947ea60fc97b3ca4ad3576cb598effe0f19eca4d35154a
delayed_update/summary.json 3857049a31f849f5d867f509ee5d937a4d602116fbaccc184f36d174dc411bc4
delayed_update/sweep_policy/averages.csv 8ce7dcced270089af924cf27c4ffe8070b162ca484ae3006ac6fdfd564c014cf
delayed_update/sweep_policy/comparison.csv 47cf88ff14cf3685b7940410627b721867d4ffc33817b57bb311cb7d875a0b4a
delayed_update/sweep_policy/policy=drop-history+exclude-until-current/events.log a5d73fde46509dda7d87c9d028dae88d30df680536481bbdfebe975174a72ce9
delayed_update/sweep_policy/policy=drop-history+exclude-until-current/rounds.csv 1a403e9a9b7bc64cdc2711f12d1c28882ebcfda87837172826a5089109f16cf5
delayed_update/sweep_policy/policy=drop-history+exclude-until-current/summary.json 441a3122ae94ab624c9145a023793e9c19495fda4bd56906a7d1a3fe10d51a94
delayed_update/sweep_policy/policy=drop-history+use-stale-accept-any/events.log f1c34fed9b46dc377a9e412d067f5cc5fb7d3a9fadfa08a5467e0f20da89439b
delayed_update/sweep_policy/policy=drop-history+use-stale-accept-any/rounds.csv e99e42239577772b94947ea60fc97b3ca4ad3576cb598effe0f19eca4d35154a
delayed_update/sweep_policy/policy=drop-history+use-stale-accept-any/summary.json 3857049a31f849f5d867f509ee5d937a4d602116fbaccc184f36d174dc411bc4
leave_join/events.log efd338b27316b56a1cf2e38cb45908e0a5814d46b3391d09c19fdb80ebc42159
leave_join/rounds.csv fd7d0e8077ba0a74495a62db7fef437a14771af4fc2842695b2b2c5f47133d0c
leave_join/summary.json e3528352eb94ef7332ddc49a5602e5059bf128760900fa500a6697c01ef12b5f
ten_clients/events.log 333b6d115f438146df36352eb84c0705c321097385dd8bf67d4e421f9bd06cc2
ten_clients/rounds.csv a2455a362e3f5bc15406a202d56170ee5476f1477a04263d6d85b9cbdf8096ed
ten_clients/summary.json a6b3fadf6455e250eced80f1e5bba76b6087353768782d03659f7d6013e04764
ten_clients/sweep_client-count/client-count=10/events.log 333b6d115f438146df36352eb84c0705c321097385dd8bf67d4e421f9bd06cc2
ten_clients/sweep_client-count/client-count=10/rounds.csv 86a3da518dadc5db6fc74e7819eafd5d74cf86c95d44cf89471467d1c2801bc0
ten_clients/sweep_client-count/client-count=10/summary.json 3ab025ff80e7a42dc38f9b0854315a016c697ab92d6c5fa781dc8c41731e72f2
ten_clients/sweep_client-count/client-count=3/events.log 413be946229ca7923ea1211e37d6496d810d533de463ad17ab1a1caadeb8bbc6
ten_clients/sweep_client-count/client-count=3/rounds.csv 334b5afd7f21097d1beab1f7f07a8de6ff17862c837196e1b5a8085e6d026b74
ten_clients/sweep_client-count/client-count=3/summary.json 22053f4a725918a0d9f77a4ab3855f6753f07b1551905399435bf3804d730d1d
ten_clients/sweep_client-count/comparison.csv 6492f959e544b02a9461122ab7dfc2aecf1eee5cc81b7f3fd1b7e9b466a3c470
three_clients/events.log 36a0717c8e1c8ad9b914305d7efa3035db10d5fdafe2d5cde5d34b19a5194e85
three_clients/roc_round1.csv 596757806a20ea15d00906fcf093bae5345f518dfb9eb21746aeda7c38c2d361
three_clients/roc_round10.csv 3e28f40c1db6c3555a67280b441ef18ef35472c0226558516d14f270a6c34bdc
three_clients/rounds.csv 6377cfd34e7b8581a926ee4e05b378b595f98130e777de20cce38cd9e62ebf06
three_clients/summary.json 43fd1d5e7aa97086c5d0cc237118c1322fffb342aadb8cb5de6303f192c309b4
three_clients/sweep_N-r/N_r=1/events.log c4137ab4fd431d758b8a0e4d8a0f6a33ffcaa887bb8b2b72b74ca8629031e19c
three_clients/sweep_N-r/N_r=1/roc_round1.csv af2ed80ac2932f6aec64d4448182598bb7d7e588c62b71c1d0f4f6fb0dab241e
three_clients/sweep_N-r/N_r=1/rounds.csv 4abc7f7f03d708d24823738ad4f625d9bd51912414e6877724be002763ed6b21
three_clients/sweep_N-r/N_r=1/summary.json 9b4a33c9a8a9cd590f26f06fb297c5990fabc6f4bf13325741bac359fd3e8726
three_clients/sweep_N-r/N_r=10/events.log 36a0717c8e1c8ad9b914305d7efa3035db10d5fdafe2d5cde5d34b19a5194e85
three_clients/sweep_N-r/N_r=10/roc_round1.csv 4174d95df5059a290e92a7610422c298282cfbc0dd4b58228662efda952bdb5a
three_clients/sweep_N-r/N_r=10/roc_round10.csv 030dd2b4f844769bef246f6756a865ac0d37388f8a575d2fc4bc4550bdbcfd2d
three_clients/sweep_N-r/N_r=10/rounds.csv 97601dc7f01a9241e2d75628982d254b1fa84a57af957842527e17c801c5d782
three_clients/sweep_N-r/N_r=10/summary.json cca97bcb330d54109c1143b3b2e18d657a52373c481a5a6ae029cac7170e5eeb
three_clients/sweep_N-r/N_r=5/events.log c1ce01b00a644c8871587b1d76b12e9ad38d93231bd38e3396fe517b870e67f9
three_clients/sweep_N-r/N_r=5/roc_round1.csv 9e8a0174462b0339e40508adb887b14ca3f70b9c27bc6638d78da52151831d90
three_clients/sweep_N-r/N_r=5/roc_round5.csv 985c2ecd68d5f7d40e5eb99303d25ace8e5e92fa4c8cef2bb9f47ab4688e6147
three_clients/sweep_N-r/N_r=5/rounds.csv 8c298a066e5576fb7e40e8f37b810598b476f5e08b5fac5218d66dd91ffdcda8
three_clients/sweep_N-r/N_r=5/summary.json e3cf04f777f6826417b4fd92332b9b0ca4f243da278ba537a738676a925686d0
three_clients/sweep_N-r/comparison.csv d0a382a6c4e626e2e3809ce6431528e1347de21445676543c62f653e768b9e28
""")}
# The AVX2 outputs differ in these 14 files; every events.log, ROC file and averages.csv matches.
DEMO_GOLDEN[AVX2] = {**DEMO_GOLDEN[AVX512], **_digests("""
delayed_update/rounds.csv 3496224b1dacc99b1aa22b883c8bb28e3a07f816bd7f5866eafd338dee04892a
delayed_update/sweep_policy/policy=drop-history+exclude-until-current/rounds.csv 09707421149eb6d347c8d2a807c28c8560aaebc392300281043564d37cb22b0e
delayed_update/sweep_policy/policy=drop-history+use-stale-accept-any/rounds.csv 3496224b1dacc99b1aa22b883c8bb28e3a07f816bd7f5866eafd338dee04892a
leave_join/rounds.csv 6e13453aad3029d75a28daeccf661d8932d5c258a08dd467b7b07609791601e0
ten_clients/rounds.csv 6eb3da6720f596ed8e89c96a4992612be0659c0235b16035e56eaa645a3fa7f6
ten_clients/summary.json dfa1f39e173f13f873ac06d1f26369ed87d5a0924060910c10c8236003bceb8e
ten_clients/sweep_client-count/client-count=10/rounds.csv 3ffad7f55b8aba4c7b4e4424ea92c29ae3b02d9681be21afb1699236483b3510
ten_clients/sweep_client-count/client-count=3/rounds.csv 6e3eb4ebe53a9387310dd3e86bbfb1c163316bccb60a12d3bc533eba2e3bd9ca
three_clients/rounds.csv a041549bc23046384033f6a5c04d9a99f2dcac69c381154a1ae2d3608eaed03b
three_clients/summary.json 898f2bb988d01124bcae1b9c2c5377347f6aac78de181682bd65e5242c2f3f71
three_clients/sweep_N-r/N_r=10/rounds.csv e12b769810bca3f545e12491d97f61ca9c4df9f5fcac258077d081babce7749d
three_clients/sweep_N-r/N_r=5/rounds.csv bc5f79155cb60eb074917ed7e09a7906bae6b20eaac9b7138c32335c82ac9c15
three_clients/sweep_N-r/N_r=5/summary.json 91020d9c7135df6023bdbe668a39da9ff57698cf13d7fb35b05c4a28496313fd
three_clients/sweep_N-r/comparison.csv 71c60c46b53a3a4c94ce9f0c82f0d5d3483d16d8d2695f5ff10003eabcb49a89
""")}


def test_every_demo_config_has_golden_hashes():
    stems = [p.stem for p in CONFIG_DIR.glob("*.json")]
    assert stems
    for golden in DEMO_GOLDEN.values():
        for stem in stems:
            assert f"{stem}/rounds.csv" in golden and f"{stem}/events.log" in golden, stem


def test_every_demo_output_matches_its_golden_hash(tmp_path):
    cls = cpu_class()
    assert cls in DEMO_GOLDEN, f"no golden hashes recorded for CPU class {cls}"
    for argv in DEMO_COMMANDS:
        cmd, _, config, *rest = argv
        out = tmp_path / Path(config).stem
        assert main([cmd, "--config", str(CONFIG_DIR / config), "--out", str(out), *rest]) == 0
    got = {
        p.relative_to(tmp_path).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(tmp_path.rglob("*"))
        if p.is_file()
    }
    assert got == DEMO_GOLDEN[cls]


def test_bench_copies_match_the_demo_configs_and_digests():
    # bench/ keeps its own copies of the demo configs and of their AVX-512 digests; either may
    # drift.  They are compared as recorded, whatever this machine's CPU class.
    bench_configs = sorted((BENCH_DATA / "configs").glob("*.json"))
    assert bench_configs
    for path in bench_configs:
        assert path.read_bytes() == (CONFIG_DIR / path.name).read_bytes(), path.name
    suite = json.loads((BENCH_DATA / "digests.json").read_text())["cli-suite"]
    golden = DEMO_GOLDEN[AVX512]
    shared = {name: digest for name, digest in suite.items() if name in golden}
    assert len(shared) >= 22
    assert shared == {name: golden[name] for name in shared}
