"""Golden outputs: the exact bytes of every file format edsim writes.

Criterion 12 only compares reruns of the same code, so a format drift that is
consistent across reruns passes it.  These digests pin the bytes themselves:
the runs/doctors/nurses CSV triplet of each (seed base, combo) grid cell, the
event trace of one CA and one FIFO run, the traces of a crowded roster under
every combo, the `run` stdout line and manifest, and the normalized config echo.
A seeded sweep of random configs pins the same bytes in the corners the fixed
configs never reach.
"""
from __future__ import annotations

import hashlib
import random
from pathlib import Path

import pytest

from edsim.cli import EXIT_OK, main
from edsim.domain import Role, config_echo
from edsim.engine import render_trace, run_shift
from edsim.metrics import run_rows, write_csvs

from conftest import COMBOS, SEED_BASES, make_config, run_with_invariant_checks

CSV_DIGESTS = {
    (1000, "baseline-ca"): "fe8e0f7b570fa1dc604ddbb78176c3a803525865944faebc281d3dc5194b0d52",
    (1000, "baseline-fifo"): "ec150eecd5dd52a346d9c9541a20de0032fdfa49c62c43ee920abbd5e9e5a45a",
    (1000, "replacement-ca"): "88102627b5ec49fe7a6f5387256a00364f3a08d0a0570186143bf7d447c98f27",
    (1000, "training-ca"): "142215674c5c7ef4547ac08bfaffdc04f907b47512770a1a34a427a9de84b666",
    (20001, "baseline-ca"): "08d81d5f92de4f4b744d442009e40d5dc42315f3b127fec24ac115bdf5981785",
    (20001, "baseline-fifo"): "3a9feffa4272801375644779b4c4ecaf0256e220251f673261582c2e21f25c28",
    (20001, "replacement-ca"): "984fc7a31bb9d324a608b138d244e02377341e21d5c21e35fb4ad947898d640e",
    (20001, "training-ca"): "cb17f713ab87a1461fa1df14b4a9346f623df2349273b0babdf8c649011c108e",
    (77000, "baseline-ca"): "7fada6c69200ac87b22224722181d02efffb8a9950ae953ab98f2958717b7752",
    (77000, "baseline-fifo"): "03d3b40f9e45d5afc6bdd99bee58b486a498f491e9288662c5ceaa9599106abb",
    (77000, "replacement-ca"): "64c17b0d428efd24f2f01ccf060ef0b4328ce035605b292a754a26699bc7fd00",
    (77000, "training-ca"): "028ec8c63b1da60d78d05eb4bd150e70985b6edb5a312b2d9bf8104a5fb18922",
}

# Three doctors of every style, three nurses, and a non-default horizon.
TRACE_CONFIG = {
    "doctors": "1:correct, 2:over, 3:under",
    "nurses": "1:low, 2:high, 3:low",
    "shiftLength": 1500,
    "seed": 42,
}
TRACE_DIGESTS = {
    "ca": "66992ccc25de5257011ad7e6a9d8226bba42266071f43e1258956a230a46b9b9",
    "fifo": "882410eb5b24440f09c662193075c2183d11a97c9de48d96de77133330c17ba2",
}

# The crowded benchmark roster on a shorter horizon: 20 doctors, 15 nurses with
# every third one low.  The backlog grows, low nurses classify themselves and
# are restricted, replacements spawn and trainees attach, so these traces pin
# the engine's decisions in states the small trace config never reaches.
CROWDED_CONFIG = {
    "doctors": ", ".join(f"{i}:correct" for i in range(1, 21)),
    "nurses": ", ".join(f"{i}:{'low' if i % 3 == 0 else 'high'}" for i in range(1, 16)),
    "bedsPerDoctor": 3,
    "bedCount": 60,
    "shiftLength": 3000,
    "seed": 1,
}
# combo -> (trace digest, nurses classified low, replacements, trainees)
CROWDED_TRACES = {
    "baseline-ca": ("41ef24b3ebe11f8f56db0ac7bee4bd93cd8e6d1d29977d6b650d5f4406b07e8b", 6, 0, 0),
    "baseline-fifo": ("1738adfe8ebe756ffc47684d44f52ac8ea730c6122f1ade78c0d507f3bca7782", 0, 0, 0),
    "replacement-ca": ("f5c4226c05cd69096b79e612564be32779c4d82eabf6f008e91fee4222bae052", 5, 5, 0),
    "training-ca": ("3531af5e4735c9208f1dfcd903777a37654a776e4bf452345c8d89b15cbd801d", 6, 0, 6),
}

RUN_STDOUT = "run-00000042,42,baseline,ca,1500.000000,15,83.398024,12481.709319"
RUN_MANIFEST = "tool = edsim 0.1.0\nexperiment = run\nruns = 1\nseeds = 42..42\n"

# A config that touches every key kind: an `off` bool, a non-uniform
# distribution, over/under doctor styles and non-default ints and reals.
ECHO_CONFIG = {
    "seed": 3,
    "scenario": "training",
    "doctors": "1:over, 2:under, 3:correct, 4:over",
    "nurses": "1:low, 2:high, 3:high",
    "bedCount": 8,
    "bedsPerDoctor": 2,
    "shiftLength": 1234.5,
    "trueLevelDistribution": "0.1, 0.2, 0.3, 0.25, 0.15",
    "utilityFailurePenalty": "off",
    "tasksPerPatient": 2,
    "easyLevelCap": 3,
    "trustInit": 0.6,
}
ECHO = """\
seed = 3
scenario = training
policy = ca
shiftLength = 1234.5
doctors = 1:over, 2:under, 3:correct, 4:over
nurses = 1:low, 2:high, 3:high
bedCount = 8
bedsPerDoctor = 2
examDuration = 10.0
travelTime = 5.0
prepTime = 5.0
initialSpawnInterval = 1.0
tasksPerPatient = 2
trueLevelDistribution = 0.1, 0.2, 0.3, 0.25, 0.15
trustInit = 0.6
trustLearningRate = 0.3
acceptThreshold = 0.5
restrictedAcceptThreshold = 0.4
reliabilityThreshold = 0.4
easyLevelCap = 3
trainerBonusPerTask = 0.1
trainerExitBonus = 0.9
highPerformerGoodChance = 0.9
utilityFailurePenalty = off
"""

# The paper's four comparisons over the seed-base-1000 grid, each combo written
# as `experiment` writes it: the CSV triplet plus the first run's config echo.
# (group a, group b) -> (comparisons.csv digest, report.txt digest)
ANALYZE_DIGESTS = {
    ("baseline-ca", "baseline-fifo"): (
        "5b78e9830c448ba66a66ae6ef74945fbf9d695e3a3de16bda17226cc739468b8",
        "dcbb51f5fd0a5543595deae7df018190b7fbeecfe0264299fce13dd69c2a9d26",
    ),
    ("baseline-ca", "replacement-ca"): (
        "33b54a99dc36adf3adf2427bc88266dfb35c62f7f13f4aca697da6c61a63800a",
        "bd90184a887ef3e89dc4265c50db9ed9f9e6c253b3fdd70e952d0e568eb3af57",
    ),
    ("baseline-ca", "training-ca"): (
        "9fd9368d5848629fd0377c4bd5c7eebb8f84fa3ca2d710fdede70c699cafbec6",
        "2d2c91a4133cb0e942250e817733f8390f6990fc563a6f5dba81083f7a2e0bfc",
    ),
    ("replacement-ca", "training-ca"): (
        "7f5fefda269ba3d58332e3f8e1f9974fc9ce3e9a0be40a3e69595b2866d21164",
        "181eeb7be511960896461a499dd643ec96ce7e1b96c00fe49c79374604da6c98",
    ),
}

# The same four comparisons with a short Monte Carlo and another analyzer
# seed, and over the seed-base-20001 grid at both settings.
# (seed base, --mc-draws, --mc-seed) -> (group a, group b) -> digests as above
ANALYZE_MORE_DIGESTS = {
    (1000, 50, 7): {
        ("baseline-ca", "baseline-fifo"): (
            "35952106de28b16dffc02d195db01a55030213c8925ce3d0791d719f4ebfae30",
            "9899f4f876d222653d50e4a6ae4bca26c96fea87e7e0bbeb23e49f7ce04b56bc",
        ),
        ("baseline-ca", "replacement-ca"): (
            "784548f2d7923a5d1e506f4cb24cd8478ad9e28795a20d59e4302737a7074b98",
            "62257b3bf075080ce38f8546f0a6d2e12d783c3e8d28777ea2ef7ec3526e1b3f",
        ),
        ("baseline-ca", "training-ca"): (
            "d05c04b30fe2d03b18c698b88da009ad694c7b016758e6eb564da5860aae3278",
            "66801cdb8bb9801148acaa8e0ebbcfd09f1ecdb3082fd6b0323b0c65e808a62a",
        ),
        ("replacement-ca", "training-ca"): (
            "34dc41c91392bdc060b1c128fd516cda79704eef1ec5c4fe592b13d1a7767361",
            "50cf622250e3f7d2eeae76a7f1585af2ab9d27bd1f873f7f1e95e2153342b14e",
        ),
    },
    (20001, 10000, 0): {
        ("baseline-ca", "baseline-fifo"): (
            "7df5c4ff92daf4c0c0980be87d032b74218f7c4eaf400bd4ea5e122dd1908610",
            "0c76bf664cd924eb74ca65ccf62d3203391bbce6be99716f9e25623eb4d69384",
        ),
        ("baseline-ca", "replacement-ca"): (
            "2df81623957e7397f6774f98ea0ae3327a8dcacf9acce00a0a557b4b110829be",
            "1b15c5db32dd1f4f2ace5153391f2795c565c211ea1878ddc9fc948ce8572ea3",
        ),
        ("baseline-ca", "training-ca"): (
            "838e9aa6986ca0e36351cd710fbb9bd34b2bea873137c414b2c2cfbb79c3806b",
            "93c8b93685fc349a749dca2cb98e49eb2f577939a734d2deac66f19b3efea007",
        ),
        ("replacement-ca", "training-ca"): (
            "0cb5d64db057cb4d7f06e449a714ebaa77152ff60ba3d8d9f6218553d8a453c4",
            "51fd59a2150839319d0d9de697924974450900db0cead5041caae2401a449f88",
        ),
    },
    (20001, 50, 7): {
        ("baseline-ca", "baseline-fifo"): (
            "e05022603b145d7f2f8f0efb0d6fef89dbe44f5f7b0296369c2d32c907e0d403",
            "222122614d6d6f3e43e4c3478615ab2961a2777e9256da32802b3ab9b9646096",
        ),
        ("baseline-ca", "replacement-ca"): (
            "196a2321227a61740b462695c721e7926837ef4590d9f18b4feb61c2cb8dfd5c",
            "96e17a0ce6da577e1858696b03f11ff85f1ba7f078d4fb338f382199c83de4c3",
        ),
        ("baseline-ca", "training-ca"): (
            "e2f663118372f8b4047ab3255742fa2bc9a013913c795d4f2d0b3d537e341e2a",
            "0883e66cfbdc11d3598e20efa3491bf4633e003d488e2e977590b060e3d52a57",
        ),
        ("replacement-ca", "training-ca"): (
            "8ff76e9cbd23f456723396581ceefff4536e87955d9d7411d6c84c4c906b62d1",
            "05f2c929d27847473b9cb7d207b7412870ed65c077574bbe71a372a45d1e2e07",
        ),
    },
}


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@pytest.mark.parametrize("seed_base", SEED_BASES)
def test_csv_triplet_digests(acceptance_grids, seed_base, tmp_path):
    for combo in COMBOS:
        rows = [
            run_rows(f"{combo}-{r.config.seed:08d}", r)
            for r in acceptance_grids[seed_base][combo]
        ]
        paths = write_csvs(rows, str(tmp_path / combo))
        data = b"".join(Path(paths[name]).read_bytes() for name in ("runs", "doctors", "nurses"))
        assert _sha256(data) == CSV_DIGESTS[(seed_base, combo)], (seed_base, combo)


@pytest.mark.parametrize("policy", sorted(TRACE_DIGESTS))
def test_trace_digest(policy):
    trace = render_trace(run_shift(make_config(policy=policy, **TRACE_CONFIG)))
    assert _sha256(trace.encode("utf-8")) == TRACE_DIGESTS[policy]


@pytest.mark.parametrize("combo", sorted(CROWDED_TRACES))
def test_crowded_trace_digest(combo):
    scenario, policy = COMBOS[combo]
    result = run_shift(make_config(scenario=scenario, policy=policy, **CROWDED_CONFIG))
    digest, classified_low, replacements, trainees = CROWDED_TRACES[combo]
    roles = [n.role for n in result.nurses.values()]
    assert sum(n.trust.classified_low_at is not None for n in result.nurses.values()) == classified_low
    assert (roles.count(Role.REPLACEMENT), roles.count(Role.TRAINEE)) == (replacements, trainees)
    assert _sha256(render_trace(result).encode("utf-8")) == digest


def test_run_stdout_and_manifest(tmp_path, capsys):
    cfg = tmp_path / "shift.cfg"
    cfg.write_text("".join(f"{k} = {v}\n" for k, v in TRACE_CONFIG.items()), encoding="utf-8")
    assert main(["run", str(cfg), "--out", str(tmp_path / "out")]) == EXIT_OK
    assert capsys.readouterr().out == RUN_STDOUT + "\n"
    assert (tmp_path / "out" / "manifest.txt").read_text(encoding="utf-8") == RUN_MANIFEST


def test_config_echo_literal():
    assert config_echo(make_config(**ECHO_CONFIG)) == ECHO


@pytest.fixture(scope="module")
def grid_dirs(acceptance_grids, tmp_path_factory):
    """The grids of the first two seed bases, each combo in its own directory."""
    roots = {}
    for base in SEED_BASES[:2]:
        root = roots[base] = tmp_path_factory.mktemp(f"grid{base}")
        for combo, results in acceptance_grids[base].items():
            out = root / combo
            rows = [run_rows(f"{combo}-{r.config.seed:08d}", r) for r in results]
            write_csvs(rows, str(out))
            (out / "config.echo").write_text(config_echo(results[0].config), encoding="utf-8", newline="\n")
    return roots


def _analyze_digests(root, pair, out, capsys, *options):
    """(comparisons.csv digest, report.txt digest) of one `analyze` run."""
    group_a, group_b = pair
    assert main(["analyze", str(root / group_a), str(root / group_b), "--out", str(out), *options]) == EXIT_OK
    report = (out / "report.txt").read_bytes()
    assert capsys.readouterr().out.encode("utf-8") == report
    return _sha256((out / "comparisons.csv").read_bytes()), _sha256(report)


@pytest.mark.parametrize("pair", sorted(ANALYZE_DIGESTS))
def test_analyze_digests(grid_dirs, pair, tmp_path, capsys):
    digests = _analyze_digests(grid_dirs[SEED_BASES[0]], pair, tmp_path / "analysis", capsys)
    assert digests == ANALYZE_DIGESTS[pair]


ANALYZE_MORE_CASES = [
    (*setting, pair) for setting, digests in sorted(ANALYZE_MORE_DIGESTS.items()) for pair in sorted(digests)
]


@pytest.mark.parametrize(
    "seed_base, mc_draws, mc_seed, pair", ANALYZE_MORE_CASES,
    ids=[f"{base}-{draws}-{seed}-{a}-vs-{b}" for base, draws, seed, (a, b) in ANALYZE_MORE_CASES],
)
def test_analyze_digests_other_settings(grid_dirs, seed_base, mc_draws, mc_seed, pair, tmp_path, capsys):
    options = ("--mc-draws", str(mc_draws), "--mc-seed", str(mc_seed))
    digests = _analyze_digests(grid_dirs[seed_base], pair, tmp_path / "analysis", capsys, *options)
    assert digests == ANALYZE_MORE_DIGESTS[(seed_base, mc_draws, mc_seed)][pair]


STYLES = ("correct", "over", "under")
# Each fraction key with the range of its non-corner draws.  Trust starts high
# and thresholds sit low, so most shifts run instead of stalling at once.
FRACTION_KEYS = {
    "trustInit": (0.4, 1.0),
    "trustLearningRate": (0.0, 1.0),
    "acceptThreshold": (0.0, 0.6),
    "restrictedAcceptThreshold": (0.0, 0.6),
    "reliabilityThreshold": (0.0, 1.0),
    "trainerBonusPerTask": (0.0, 1.0),
    "trainerExitBonus": (0.0, 1.0),
    "highPerformerGoodChance": (0.0, 1.0),
}


def sweep_configs(seed: int = 2, count: int = 40) -> list[dict]:
    """`count` valid raw configs drawn from one seeded generator.

    Each interval is zero a third of the time, which makes many events tie on
    time and exercises the `seq` tie-break; rosters are often a single doctor
    or nurse; fractions are often exactly 0 or 1; patients carry 1-4 tasks;
    and the level distribution is skewed, with some levels never drawn.
    """
    rng = random.Random(seed)

    def interval(hi):
        return "0" if rng.random() < 1 / 3 else repr(round(rng.uniform(0.5, hi), 3))

    def fraction(lo, hi):
        corner = rng.random()
        return "0" if corner < 1 / 6 else "1" if corner < 1 / 3 else repr(round(rng.uniform(lo, hi), 3))

    configs = []
    for _ in range(count):
        scenario, policy = COMBOS[rng.choice(sorted(COMBOS))]
        n_doctors = rng.choice((1, 1, 2, 3, 5, 8))
        beds = rng.randint(1, 4)
        weights = [rng.choice((0, 0, 1, 2, 5)) for _ in range(5)]
        weights[rng.randrange(5)] += 1
        raw = {
            "seed": str(rng.randrange(10**6)),
            "scenario": scenario,
            "policy": policy,
            "shiftLength": str(rng.choice((50, 500, 2000, 5000))),
            "doctors": ", ".join(f"{i}:{rng.choice(STYLES)}" for i in range(1, n_doctors + 1)),
            "nurses": ", ".join(
                f"{i}:{rng.choice(('low', 'high'))}" for i in range(1, rng.choice((1, 1, 2, 3, 6, 12)) + 1)
            ),
            "bedCount": str(n_doctors * beds),
            "bedsPerDoctor": str(beds),
            "examDuration": interval(20),
            "travelTime": interval(10),
            "prepTime": interval(10),
            "initialSpawnInterval": interval(3),
            "tasksPerPatient": str(rng.randint(1, 4)),
            "trueLevelDistribution": ", ".join(repr(w / sum(weights)) for w in weights),
            "easyLevelCap": str(rng.randint(1, 5)),
            "utilityFailurePenalty": rng.choice(("on", "off")),
        }
        raw.update((key, fraction(*FRACTION_KEYS[key])) for key in FRACTION_KEYS)
        configs.append(raw)
    return configs


SWEEP = sweep_configs()
# SHA-256 over, for each sweep config in order, the runs/doctors/nurses CSVs
# that `run` writes and its rendered trace.
SWEEP_DIGEST = "c81e1659cb39456357bf49421da9261349ebbf64d8dd80ecca0ed073f90981b9"


def test_sweep_covers_the_corners():
    def count(pred):
        return sum(1 for raw in SWEEP if pred(raw))

    assert count(lambda raw: raw["initialSpawnInterval"] == raw["examDuration"] == "0") > 0
    for key in ("examDuration", "travelTime", "prepTime", "initialSpawnInterval"):
        assert count(lambda raw: raw[key] == "0") > 0, key
    assert count(lambda raw: raw["doctors"].count(":") == 1) > 0
    assert count(lambda raw: raw["nurses"].count(":") == 1) > 0
    for key in FRACTION_KEYS:
        assert count(lambda raw: raw[key] == "0") > 0 and count(lambda raw: raw[key] == "1") > 0, key
    assert {raw["tasksPerPatient"] for raw in SWEEP} == {"1", "2", "3", "4"}
    assert count(lambda raw: "0.0" in raw["trueLevelDistribution"].split(", ")) > 0
    assert {(raw["scenario"], raw["policy"]) for raw in SWEEP} == set(COMBOS.values())


def test_sweep_digest(tmp_path):
    digest = hashlib.sha256()
    for k, raw in enumerate(SWEEP):
        result = run_shift(make_config(**raw))
        paths = write_csvs([run_rows(f"run-{result.config.seed:08d}", result)], str(tmp_path / str(k)))
        for name in ("runs", "doctors", "nurses"):
            digest.update(Path(paths[name]).read_bytes())
        digest.update(render_trace(result).encode("utf-8"))
    assert digest.hexdigest() == SWEEP_DIGEST


@pytest.mark.parametrize("k", range(len(SWEEP)))
def test_sweep_invariants_hold_after_every_event(k, monkeypatch):
    run_with_invariant_checks(make_config(**SWEEP[k]), monkeypatch)
