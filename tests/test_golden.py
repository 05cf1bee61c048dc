"""Golden outputs: sha256 of every sample-config scene and verify report,
the stdout of `hausdorff` on small scene pairs, and the failing nesting
witnesses of the fan's stages taken in reverse.

The digests pin the Scene JSON of each `configs/*.json` at stages 0..6 and
the report JSON of each supported (construction, check) pair over stages
0:3 and of the fan's three checks over 0:6, so a refactor that changes a
single output byte fails here.
"""

import hashlib
import json
from pathlib import Path

import pytest

from planarpi.cli import CONSTRUCTIONS, main
from planarpi.verify import check_nesting, reports_to_json

CONFIGS = Path(__file__).resolve().parent.parent / "configs"
CHECKS = ("nesting", "connectivity", "cut-dichotomy", "touch-chain")

BUILD = {
    ("basic-dendrite", 0): "4fb08c4137b7ac4e7bf33e85843bdf5dee3c32580c424a33bf0dc4515b3b0431",
    ("basic-dendrite", 1): "5313644d06443774cf87946de5cc1ccf2f4d06799af2c9efe6c762f6e2abe7d8",
    ("basic-dendrite", 2): "29fe103fb3760072c390c26f9010c1df8612c9a0983c989b67cade2c292b5eed",
    ("basic-dendrite", 3): "3985a15ab95f7e75669fef4d5c9a337b3c8974dc0339ec6fa0eaaddaa903c5a4",
    ("basic-dendrite", 4): "b4ede4296558ff00db2d67356e66a6bc8f621eac329d788745a8a26cb170f920",
    ("basic-dendrite", 5): "1e0747f9be38206d7646985ab4a7eaa5752dc0f8f87908fb7cc49cf2e37208f3",
    ("basic-dendrite", 6): "139db187a6d2ec188e2b522085c30bf383738f1e8ae9c0fd31713a183cd96ee5",
    ("cantor-fan-q", 0): "af98b521de14332a96786936d20568ecac855d003092e5fa78d858ed2171b301",
    ("cantor-fan-q", 1): "dd4215e1ec3d35ef3b6c47bafc3cedeb7b769e7a61e6ce80c1ba566538b7b2b8",
    ("cantor-fan-q", 2): "4dda7bccfa66e73f8583fde27b8d84e42e8a1917c6d83a83bfcd415474367f82",
    ("cantor-fan-q", 3): "96bd9d457f302ea3dae64c4c665bd1986b1ad1439a2c0c7cd7124359650b3a8c",
    ("cantor-fan-q", 4): "50daee0cd7966063bb78e76575caec3bce21d608d7e422fcdce6111b5a73515d",
    ("cantor-fan-q", 5): "67f1c610d2bbf76d2301392e34d4287857e2620fe37fd7b10ef9ac221c7b6d24",
    ("cantor-fan-q", 6): "67748ee63925f205a8baa65ad21352d0b1239b41e13b9fa67140eed23e47df3f",
    ("cantor-fan-q-injured", 0): "307829bcba428919270967fa101c11e66d1f82c65b56a211e2361916c8f5caca",
    ("cantor-fan-q-injured", 1): "7358ab80196688f9ccd1409401b710a1c7c700e9e10a59b8f1ab0b06d7008b8a",
    ("cantor-fan-q-injured", 2): "5ad5cf8d896a280a868374bd15d2df4f6bd004dd5a99da702fa98eaf88974e9b",
    ("cantor-fan-q-injured", 3): "efe6021075a239cc983956cf3dafd0b32cba0dd7036f2014153409ea1891154c",
    ("cantor-fan-q-injured", 4): "4acbacdacce6f6fc82d0bf972b31d79f9fbd66d2aebf3b9d83acbed0720f9687",
    ("cantor-fan-q-injured", 5): "8a14d1643d17510683c568aa9319f0f2927239938cc28c5b0a0be45aabc10927",
    ("cantor-fan-q-injured", 6): "95338684f07463db82e198303b22b941113cc1edbebd997cdbf2430b322253b0",
    ("cantor-fan", 0): "d5eb4a9358a61df6de7b36dffa43fdfce568db255a1559e8ad7dd739f0058190",
    ("cantor-fan", 1): "32f2d01bcb09bffae275f7f31434e076ec8470fccfa4688ec496bac0ad060bb0",
    ("cantor-fan", 2): "150e9ea3027ea4195671004a2e9b84d57ef21124219b7f93aa081167d36e020a",
    ("cantor-fan", 3): "b8f2f31ec74320416fd0bd6c604f84aabd23f45b553e7a1944201de4bf55e0a8",
    ("cantor-fan", 4): "ccd2b19950240314d6e8708e5ac52ac0a7e728fb84a2b48aadc7a6d2c1ac7139",
    ("cantor-fan", 5): "136437a53b8bc6f24af2d892f40af67f82aa44e1b80d90e155b8fb46b632c49e",
    ("cantor-fan", 6): "ecd6c388248785a364b2663e45cb35680a6e37e84ddaebe9139634a0e14da33b",
    ("dendrite-d", 0): "3c57f2cd8829dcc6abd4170ae2b2252b609d3d62c24ca2bf55f1316a6f4eedf2",
    ("dendrite-d", 1): "0690ffd0aeae8ae8514d3fad54a806c5c98ef707be36918e0559170d0c6c1863",
    ("dendrite-d", 2): "138cc14b75e7e5215bafe091482c43c888ed6370d05f3edb05a1afefa62bdf2b",
    ("dendrite-d", 3): "9c3365f6b3a6b7d075c730daf709b7ebb676e86b992702fe0097eb41986ae111",
    ("dendrite-d", 4): "1d7e03f781a1f3b5d2b091ad288c13ec75a13d675a39f5bf7c2d5de5914badfd",
    ("dendrite-d", 5): "2ddba904efca16366f9f371699250a93da68219eaa04410a6c98c29ff69ffe0c",
    ("dendrite-d", 6): "77e2abdb1e847185add79e13d44562ca77a5fb116d1fcd93e568526bcebcc549",
    ("dendrite-h", 0): "ab7472c1efab64dcdd45deaaaabe9f82e0ac6a76e46f8321590d47ca1df523f4",
    ("dendrite-h", 1): "ce63e156d79fb291d7832843c15065de7fd6cb247829c026f91f422c3245aa4a",
    ("dendrite-h", 2): "473a33c50fa24b4e2845f36268b0bdc0746eb9dcb183ce61eb7dd56c8bb627c4",
    ("dendrite-h", 3): "6a999c4701551bbf14aae53d24571080129dfb158923f6ed278b7905c99af072",
    ("dendrite-h", 4): "0603f32c20ba8b712d62d2cdb071f18d5eb7e34b8e1dd4831da02d03b941c60b",
    ("dendrite-h", 5): "781847239df3ecf563ab1d6e4f48caea30939d2d8b73bde9394afff596e31624",
    ("dendrite-h", 6): "b21c6b8152001ceda21ea3967f1fdb16e6fd87dd77e970aecd7e72dcd70f410f",
    ("dendroid-k", 0): "a34d04e354f4464eecbb30dc2c93ee2b94e8a9cbc253701e6556797999c94940",
    ("dendroid-k", 1): "2c2ff39520e58454c166a8fda2ae8ba79e5af1e6b8441de80f7ebec148c8e5b2",
    ("dendroid-k", 2): "f9491fabe3fc541cd8e48ca4dd6ce27935e55e57678be09a3d23f29da323ffc6",
    ("dendroid-k", 3): "cae3d6b0b7c6b9fdd475999f97ada6fcb42617ab3fc1aa759d3f80fb2aa4c3ec",
    ("dendroid-k", 4): "9af193166a830daa8338e716e5824091c76717c55354ef6ff165187e355036b9",
    ("dendroid-k", 5): "bb1875ea7348e014dd561cea7b5a377f707f5e0003d89ef41e36bc426f7bc401",
    ("dendroid-k", 6): "50b7fbb9a02d55538afa87ed0c36bc4e78b6da78e71e3ca8f91ef5e483f5aa5f",
    ("harmonic-comb", 0): "8d2846e47fe563b3c6730868c8395a1ecf27b72a57ed38f98690ce6453c929ce",
    ("harmonic-comb", 1): "2e5f75feba588dc609a3557fcdda558091822fe3b4b78a5bcb1c6c0defe2e2a9",
    ("harmonic-comb", 2): "c5fe7a121e7e68f585b1f362ecc5ad61d8547edde6d280da947bc3870eeef866",
    ("harmonic-comb", 3): "761467a34453063aefb0012bdf9100d4fddb47e5249f1d657f26fecc55cabce3",
    ("harmonic-comb", 4): "2949cdc2cbb397901e03fe6614cda283e7e1ae55cc8c11004c61b93ddff1585b",
    ("harmonic-comb", 5): "b4245e7e174853500b3bb69bb48de04bae99f8d145112f0ccc8a91a5f0d86cb9",
    ("harmonic-comb", 6): "a48ed1d6e641b1bba6022f3e7151f21658c63b7f2d58fb3a12eab57975e9ab7f",
    ("plotted-tree", 0): "0742a9c88fd4f242816c6993ad608c664da5150b010ec4b3ed995a49aef40f86",
    ("plotted-tree", 1): "927009b339b9ac6535410f65b91871fcfef894f18f5b4c8d0d94415543a4b151",
    ("plotted-tree", 2): "a0a9683706842db9e7e2da721d6aa6c7d8a1c99cd6d9fa697671f628155feb44",
    ("plotted-tree", 3): "fc4849eacc41ce4c9deb7b8497675ad372e385c5b42fffa1d8c84c5b71f09953",
    ("plotted-tree", 4): "f18bb274a3127bc7b51b2a2130f799da53a0e15aa00f51fca9cf1e18a3efadef",
    ("plotted-tree", 5): "2410afc21963d876e2d70dfd43bc00ec820b75c674de76f186c3c001e520df2b",
    ("plotted-tree", 6): "f0287c2918553f433e43df3f4010cac91e30bc6fa2525e00f1812553868b7432",
}
VERIFY = {
    ("cantor-fan-q", "connectivity"): (0, "76c4d5d81e6cebc6b0cd24585ce3ab2f761ddf062cee4c1a1694bc94ef1a67ac"),
    ("cantor-fan-q", "nesting"): (0, "377b4344b942cba653a73f7d02a2d8db731b79afc1c628d4adb1d03fd83fb6d7"),
    ("cantor-fan-q", "touch-chain"): (0, "f4890bbc060b13f54f2fb6c1958d2de23a52115565ef6bfbe3753c07a8220246"),
    ("cantor-fan-q-injured", "connectivity"): (0, "76c4d5d81e6cebc6b0cd24585ce3ab2f761ddf062cee4c1a1694bc94ef1a67ac"),
    ("cantor-fan-q-injured", "nesting"): (0, "377b4344b942cba653a73f7d02a2d8db731b79afc1c628d4adb1d03fd83fb6d7"),
    ("cantor-fan-q-injured", "touch-chain"): (0, "f4890bbc060b13f54f2fb6c1958d2de23a52115565ef6bfbe3753c07a8220246"),
    ("dendrite-d", "connectivity"): (0, "76c4d5d81e6cebc6b0cd24585ce3ab2f761ddf062cee4c1a1694bc94ef1a67ac"),
    ("dendrite-d", "cut-dichotomy"): (0, "29e85292bef0388061cfd9a2d900131dcdfc64ba1e0e297ad251e575354cad71"),
    ("dendrite-h", "connectivity"): (0, "76c4d5d81e6cebc6b0cd24585ce3ab2f761ddf062cee4c1a1694bc94ef1a67ac"),
    ("dendrite-h", "cut-dichotomy"): (0, "dba2b497ee94aa579df9f6b3f7ea96b271645f5f2b448c936fb8e905c9abb077"),
    ("dendroid-k", "connectivity"): (0, "76c4d5d81e6cebc6b0cd24585ce3ab2f761ddf062cee4c1a1694bc94ef1a67ac"),
    ("dendroid-k", "cut-dichotomy"): (0, "6a1e833816cff5013856e1b8b1b2fb53558e7e85bf599d4c42c3a6f96d9f70eb"),
}
FAN_VERIFY_0_6 = "3c240ef2a6ce4ac94e3bc66559ab2d30a1a5781da15f5f6564cd09fc5a528b01"

# (config, stage of scene a, stage of scene b) -> `hausdorff --tol-exp 12`
# stdout.  dendrite-d stage 1 lies inside stage 2; dendrite-h stages 1 and 2
# are not nested either way.
HAUSDORFF = {
    ("dendrite-d", 1, 2): "1/8 1/8\n",
    ("dendrite-d", 2, 1): "1/8 1/8\n",
    ("dendrite-h", 1, 2): "2503/16384 10013/65536\n",
    ("dendrite-h", 2, 1): "2503/16384 10013/65536\n",
    # polygon pieces: point-to-polygon distances, unlike the segment-only
    # dendrites
    ("cantor-fan-q", 2, 3): "629/16384 2517/65536\n",
    ("cantor-fan-q", 3, 4): "419/32768 839/65536\n",
}

# sha256 of the report JSON of `check_nesting([q(t+1), q(t)])` on the fan:
# each stage is not covered by the next, so these pin the failing witness
REVERSED_FAN_NESTING = [
    "ecc0e62f7612b5b194d7dd8157a3b4afde727522754c4342609ff0d5fc4cc81a",
    "a5f8a251f350a72fa5e0d77a2df68ad23af705a040c5b321e883ac9b6035aefb",
    "a40f530f5fa4489ab83ebb6d24f39aed1ae2986b587a553ebb81369b2b47b453",
    "5d25886cb8658c6a12258be543c427df20b296e60beb57ba8b6c75f535422a64",
    "fb926d686e452858ab75f445ba4023ad1c44536208e54715cc640532a1caef00",
    "6752541be8218fbe575815a1b4a2fa96b30ce48a976e58778e1ee36cd34c9721",
]

UNSUPPORTED = [
    (name, check)
    for name in sorted({name for name, _ in BUILD})
    for check in CHECKS
    if (name, check) not in VERIFY
]


def _digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.mark.parametrize("name,stage", sorted(BUILD))
def test_build_scene_bytes(tmp_path, name, stage):
    out = tmp_path / "scene.json"
    argv = ["build", "--config", str(CONFIGS / f"{name}.json"), "--stage", str(stage)]
    assert main(argv + ["--out", str(out)]) == 0
    assert _digest(out) == BUILD[name, stage]


@pytest.mark.parametrize("name,check", sorted(VERIFY))
def test_verify_report_bytes(tmp_path, name, check):
    out = tmp_path / "report.json"
    argv = ["verify", "--config", str(CONFIGS / f"{name}.json"), "--checks", check]
    code = main(argv + ["--stage-range", "0:3", "--out", str(out)])
    assert (code, _digest(out)) == VERIFY[name, check]


def test_fan_verify_report_bytes_0_6(tmp_path):
    # touch-chain checks each edge at stage hi, past the 0:3 reports
    out = tmp_path / "report.json"
    argv = ["verify", "--config", str(CONFIGS / "cantor-fan-q.json"), "--checks",
            "nesting,connectivity,touch-chain", "--stage-range", "0:6", "--out", str(out)]
    assert (main(argv), _digest(out)) == (0, FAN_VERIFY_0_6)


@pytest.mark.parametrize("name,stage_a,stage_b", sorted(HAUSDORFF))
def test_hausdorff_stdout(tmp_path, capsys, name, stage_a, stage_b):
    scenes = []
    for stage in (stage_a, stage_b):
        scenes.append(tmp_path / f"s{stage}.json")
        argv = ["build", "--config", str(CONFIGS / f"{name}.json"), "--stage", str(stage)]
        assert main(argv + ["--out", str(scenes[-1])]) == 0
    argv = ["hausdorff", "--scene-a", str(scenes[0]), "--scene-b", str(scenes[1])]
    assert main(argv + ["--tol-exp", "12"]) == 0
    assert capsys.readouterr().out == HAUSDORFF[name, stage_a, stage_b]


def test_reversed_fan_nesting_witness_bytes():
    config = json.loads((CONFIGS / "cantor-fan-q.json").read_text())
    snaps = CONSTRUCTIONS["cantor-fan-q"].replay(config, 0, 6)[0]
    digests = []
    for t in range(6):
        report = check_nesting([snaps[t + 1], snaps[t]])
        assert report.verdict == "fail"
        digests.append(hashlib.sha256(reports_to_json([report]).encode()).hexdigest())
    assert digests == REVERSED_FAN_NESTING


@pytest.mark.parametrize("name,check", UNSUPPORTED)
def test_unsupported_check_exits_2(tmp_path, name, check):
    out = tmp_path / "report.json"
    argv = ["verify", "--config", str(CONFIGS / f"{name}.json"), "--checks", check]
    assert main(argv + ["--stage-range", "0:3", "--out", str(out)]) == 2
    assert not out.exists()


def test_tables_cover_every_config():
    assert {name for name, _ in BUILD} == {p.stem for p in CONFIGS.glob("*.json")}
