"""Golden stdout: a fixed CLI battery pinned by exit code and sha256 of stdout.

Every subcommand runs through ``main()`` in text and JSON format on small
fixtures: the unit square, its tied edge objective (optimum not unique),
an infeasible line, an unbounded ray, a non-pointed strip, two dense
non-TU rational polytopes, circulation LPs of three digraphs and one
acyclic digraph, plus two ``bench`` seeds.  The digests in ``GOLDEN``
were recorded before any of the speed-ups they now guard, so a change
that claims byte-identical output is checked here, not by hand.

Check the battery against ``GOLDEN`` without pytest, for instance on an
interpreter that has none; the check prints each mismatch and exits 1 if
there is any:

    PYTHONPATH=src python tests/test_golden.py --check

Regenerate the table only for an intended output change, and say which
entries changed and why:

    PYTHONPATH=src python tests/test_golden.py
"""

import hashlib
import io
import os
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout

try:
    import pytest
except ImportError:  # ``--check`` runs the battery without pytest
    pytest = None

from ddcircuits.cli import main

SQUARE = "2 0 4\n1 0\n0 1\n-1 0\n0 -1\n1 1 0 0\n-1 -2\n"
EDGE = SQUARE.replace("-1 -2", "-1 0")
INFEASIBLE = "1 0 2\n1\n-1\n0 -1\n-1\n"
RAY = "1 0 1\n-1\n0\n-1\n"
STRIP = "2 0 2\n0 1\n0 -1\n1 0\n1 1\n"
DENSE1 = (
    "4 1 12\n-3/4 1/3 -1/2 2/3\n-1\n"
    "1 0 0 0\n0 1 0 0\n0 0 1 0\n0 0 0 1\n"
    "-1 0 0 0\n0 -1 0 0\n0 0 -1 0\n0 0 0 -1\n"
    "0 4/3 4 -1/2\n3/4 1/2 3/4 -1\n0 -3/2 -2/5 4/5\n-3/5 3 4/5 -1\n"
    "2 3 4 2 0 0 0 0 319/18 35/12 -5/6 28/5\n"
    "-3/4 1/2 2/3 2/5\n"
)
DENSE2 = (
    "4 1 12\n-2/5 -4/3 1 -4\n-548/45\n"
    "1 0 0 0\n0 1 0 0\n0 0 1 0\n0 0 0 1\n"
    "-1 0 0 0\n0 -1 0 0\n0 0 -1 0\n0 0 0 -1\n"
    "2/3 4 1/5 1/2\n1/4 1/3 -3/2 -2\n3 2 -1 -1/3\n-4/5 0 0 -2/5\n"
    "3 2 3 4 0 0 0 0 121/15 -179/36 49/9 -181/105\n"
    "-2/3 -2 1 1/4\n"
)
DENSE1_X0 = "4/3 5/3 10/3 5/3"
DENSE1_OPT = "2 43/57 0 85/228"
DENSE2_X0 = "1 4/3 2/3 8/3"

GRAPHS = {
    "triangle": "3 3\n1 2\n2 3\n3 1\n",
    "k3": "3 6\n1 2\n2 3\n3 1\n2 1\n3 2\n1 3\n",
    "twotwo": "4 4\n1 2\n2 1\n3 4\n4 3\n",
    "dag": "3 2\n1 2\n2 3\n",
}

INSTANCES = {
    "square": SQUARE,
    "edge": EDGE,
    "infeasible": INFEASIBLE,
    "ray": RAY,
    "strip": STRIP,
    "dense1": DENSE1,
    "dense2": DENSE2,
}

# (instance, start point) for the commands that take --from; "k3" and
# "twotwo" are the circulation LPs that ``reduce`` writes for those graphs.
STARTS = [
    ("square", "0 0"),
    ("edge", "0 0"),
    ("ray", "0"),
    ("strip", "0 0"),
    ("dense1", DENSE1_X0),
    ("dense2", DENSE2_X0),
    ("k3", "zeros"),
    ("twotwo", "zeros"),
]


def _battery():
    cases = []
    for fmt in ("text", "json"):
        f = ["--format", fmt]
        for name in ("square", "edge", "infeasible", "ray", "strip", "dense1", "dense2", "k3"):
            cases.append((f"solve-{name}-{fmt}", ["solve", f"{name}.lp", *f]))
        for name in ("square", "edge", "strip", "dense1", "dense2", "k3", "twotwo"):
            cases.append((f"circuits-{name}-{fmt}", ["circuits", f"{name}.lp", *f]))
        for name, start in STARTS:
            for mode in ("exact", "approx"):
                cases.append(
                    (
                        f"ddstep-{mode}-{name}-{fmt}",
                        ["ddstep", f"{name}.lp", "--from", start, "--mode", mode, *f],
                    )
                )
                cases.append(
                    (
                        f"augment-{mode}-{name}-{fmt}",
                        ["augment", f"{name}.lp", "--from", start, "--mode", mode,
                         "--trace", "-", *f],
                    )
                )
            cases.append((f"ocnp-{name}-{fmt}", ["ocnp", f"{name}.lp", "--from", start, *f]))
        for start in ("0 1", "1 1"):
            cases.append(
                (f"ocnp-square-{start.replace(' ', '')}-{fmt}",
                 ["ocnp", "square.lp", "--from", start, *f])
            )
        for name, start, target in (
            ("square", "0 0", "1 1"),
            ("edge", "0 0", "1 0"),
            ("dense1", DENSE1_X0, DENSE1_OPT),
            ("k3", "zeros", "1 1 1 0 0 0"),
            ("twotwo", "zeros", "1 1 1 1"),
        ):
            cases.append(
                (f"decompose-{name}-{fmt}",
                 ["decompose", f"{name}.lp", "--from", start, "--to", target, *f])
            )
        for graph in GRAPHS:
            for command in ("reduce", "longest-cycle", "verify"):
                cases.append((f"{command}-{graph}-{fmt}", [command, f"{graph}.graph", *f]))
        for nodes, trials, seed in (("4", "3", "7"), ("5", "2", "1")):
            cases.append(
                (f"bench-n{nodes}-s{seed}-{fmt}",
                 ["bench", "--nodes", nodes, "--trials", trials, "--seed", seed, *f])
            )
    return cases


BATTERY = _battery()


def _write_fixtures(directory: str) -> None:
    files = {f"{name}.lp": text for name, text in INSTANCES.items()}
    files.update({f"{name}.graph": text for name, text in GRAPHS.items()})
    for name, text in files.items():
        with open(os.path.join(directory, name), "w", encoding="ascii") as handle:
            handle.write(text)
    for name in ("k3", "twotwo"):
        path = os.path.join(directory, name)
        assert main(["reduce", f"{path}.graph", "-o", f"{path}.lp"]) == 0


def _run(argv, directory: str) -> tuple[int, str]:
    """Exit code and sha256 of stdout of one command run in ``directory``."""
    out, err = io.StringIO(), io.StringIO()
    argv = [os.path.join(directory, a) if a.endswith((".lp", ".graph")) else a for a in argv]
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    return code, hashlib.sha256(out.getvalue().encode("ascii")).hexdigest()


def _digests():
    """(case id, (exit code, sha256 of stdout)) of each battery command, in
    a fresh fixture directory, without the work budget's variable."""
    os.environ.pop("DDCIRCUITS_WORK_BUDGET", None)
    with tempfile.TemporaryDirectory() as directory:
        _write_fixtures(directory)
        for case_id, argv in BATTERY:
            yield case_id, _run(argv, directory)


if pytest is not None:

    @pytest.fixture(scope="module")
    def fixture_dir():
        with tempfile.TemporaryDirectory() as directory:
            _write_fixtures(directory)
            yield directory

    @pytest.mark.parametrize("case_id, argv", BATTERY, ids=[case for case, _ in BATTERY])
    def test_golden_stdout(case_id, argv, fixture_dir, monkeypatch):
        monkeypatch.delenv("DDCIRCUITS_WORK_BUDGET", raising=False)
        assert _run(argv, fixture_dir) == GOLDEN[case_id]


def test_battery_covers_every_subcommand():
    commands = {argv[0] for _, argv in BATTERY}
    assert commands == {
        "solve", "circuits", "ddstep", "ocnp", "decompose", "augment",
        "reduce", "longest-cycle", "verify", "bench",
    }
    assert set(GOLDEN) == {case for case, _ in BATTERY}


GOLDEN = {
    "solve-square-text": (0, "674d95327cc1c78c9e063602d75a9c31be34c12937ad5f9a5a6907220d7fd1c0"),
    "solve-edge-text": (0, "eca35bda4da829b2e196f29e14209785b0c79b32af1c96cd22db0469dc0b8292"),
    "solve-infeasible-text": (4, "b43e896af105daa9b36d402e5d72d01e2ee470122109af5d4c5cab9399fdb549"),
    "solve-ray-text": (5, "d341dd99cf0f8c1ff369a309a18337d1f86b06bd3f92fc0448856ce09afd22c9"),
    "solve-strip-text": (65, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "solve-dense1-text": (0, "25527a26c2072db35e410cbdfec21fb56fb9d0ee50183c8159111a630c321bc7"),
    "solve-dense2-text": (0, "5fc4b09cb91e906c939b9eed7f8a08f31bfa69be54484f5287287795b3066aab"),
    "solve-k3-text": (0, "fbc112a630ac9b3e100cb253aa7794ae6600cc5295e164f37c7d715fd6ddf37a"),
    "circuits-square-text": (0, "19d8e8cf6b93224d3388548d5f8bdee4cd4e033d416d8631b8c44db208da788d"),
    "circuits-edge-text": (0, "19d8e8cf6b93224d3388548d5f8bdee4cd4e033d416d8631b8c44db208da788d"),
    "circuits-strip-text": (65, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "circuits-dense1-text": (0, "033647fd7079350d7ced7b336e99b5988670f415fc9c6c2b58200e67b4db3e56"),
    "circuits-dense2-text": (0, "c49dc193425737023896f292aa660e452791da5f3aacbd992a5c2fc01f282939"),
    "circuits-k3-text": (0, "58a4bdc0952152147e869ab240aac0075ddaa79d754f5706092ef73c4d456077"),
    "circuits-twotwo-text": (0, "596d10a28701ca0b1a5f9bf654048899df543279f56e015e4afecd1b0eb86a75"),
    "ddstep-exact-square-text": (0, "a8e44791c037a8f98c21deb6da4fb6cb2221acd0a3caf40cbbcc148e5347ce70"),
    "augment-exact-square-text": (0, "7ce85534c52de771c5307dc3be5cee27e00d9a238d986bdff16d414630ac8d63"),
    "ddstep-approx-square-text": (0, "a8e44791c037a8f98c21deb6da4fb6cb2221acd0a3caf40cbbcc148e5347ce70"),
    "augment-approx-square-text": (0, "7ce85534c52de771c5307dc3be5cee27e00d9a238d986bdff16d414630ac8d63"),
    "ocnp-square-text": (1, "b5edf0593edfd1d5957e20c8bada4118b40e3734ba0b414ed47aaf4f8cf5c8d9"),
    "ddstep-exact-edge-text": (0, "a4cf3a382a9bfecdb53b456bdeb10b992279b850bb57c5669d54fffcfb19d65e"),
    "augment-exact-edge-text": (0, "5cae663d405712d6e5074502be54b9d5646b1f52b8243d158abb91e71ac23929"),
    "ddstep-approx-edge-text": (0, "a4cf3a382a9bfecdb53b456bdeb10b992279b850bb57c5669d54fffcfb19d65e"),
    "augment-approx-edge-text": (0, "5cae663d405712d6e5074502be54b9d5646b1f52b8243d158abb91e71ac23929"),
    "ocnp-edge-text": (3, "30021606f8a1a689ff3bd1cf5eb588b5962a8941e48cf40fdcaf6655b2cf2f52"),
    "ddstep-exact-ray-text": (5, "a75393fb73208554b33c8e15f557b739d6c3a952c9e2157e4f6168d12300c1bb"),
    "augment-exact-ray-text": (5, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "ddstep-approx-ray-text": (5, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "augment-approx-ray-text": (5, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "ocnp-ray-text": (5, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "ddstep-exact-strip-text": (65, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "augment-exact-strip-text": (65, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "ddstep-approx-strip-text": (65, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "augment-approx-strip-text": (65, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "ocnp-strip-text": (65, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "ddstep-exact-dense1-text": (0, "e1d3fbdd8a94fa787a494e88997dae98969a657fa21224c6cc66224ba1517836"),
    "augment-exact-dense1-text": (0, "dae99bb319b674fbe6c0fac976ee5b33b76334b23b44d199be42e5d1e674ccb4"),
    "ddstep-approx-dense1-text": (0, "7bced2c50ee04a1e1e7ff4b3109f2015859b09544d8e786ed682e6745836c38b"),
    "augment-approx-dense1-text": (0, "6656a2b199aed352f319ccc9d150482c4206995af1dd5764d89a2a1746e7bbe4"),
    "ocnp-dense1-text": (1, "407379b9ecaddef1af5a253eb0c0fa99953f848e5b6bf7ac9966de3d97be6f4b"),
    "ddstep-exact-dense2-text": (0, "0709e8381e45c72d346710dcffa6fa2312cb0de578faef4b6433ee1817aba0e1"),
    "augment-exact-dense2-text": (0, "2db7904e3eb0d10a2744de328c9286d8d214bc3fcdb7e732eca1d94f6c49f2ab"),
    "ddstep-approx-dense2-text": (0, "234f41fd6751c322956f5efd65ff1207880e5e4ff8b337e8a9acce96c12f6b94"),
    "augment-approx-dense2-text": (0, "d7dc9baf90021b83234c5f0f29dc5f13bdd29805b42788f8ea215c46fc82bce2"),
    "ocnp-dense2-text": (1, "97731f7801fa5f23dd1fa1f689ed6d7fb31ad2708340aa4739ec6d271122e4a2"),
    "ddstep-exact-k3-text": (0, "e3d66087f151f927242b242c925062220cc4c6a1731d437ad54511ad0159c393"),
    "augment-exact-k3-text": (0, "459451ee203b310c10b9c7eda9d83cbb46450ada1854883a00be40c28ebe765a"),
    "ddstep-approx-k3-text": (0, "e3d66087f151f927242b242c925062220cc4c6a1731d437ad54511ad0159c393"),
    "augment-approx-k3-text": (0, "459451ee203b310c10b9c7eda9d83cbb46450ada1854883a00be40c28ebe765a"),
    "ocnp-k3-text": (1, "8ce0a6724a9da2c40ca7a4fd7a0a974742acf30696472b27bfb1e71b4dae7555"),
    "ddstep-exact-twotwo-text": (0, "8d9d19d96d3a1dda6f2f31369ef0b2ae9fa089049772efe665335e96036feb3f"),
    "augment-exact-twotwo-text": (0, "15634b7aa41de48c108ee60b699fa5c623af481f0af9b009dbe5ce1aa9d94221"),
    "ddstep-approx-twotwo-text": (0, "8d9d19d96d3a1dda6f2f31369ef0b2ae9fa089049772efe665335e96036feb3f"),
    "augment-approx-twotwo-text": (0, "15634b7aa41de48c108ee60b699fa5c623af481f0af9b009dbe5ce1aa9d94221"),
    "ocnp-twotwo-text": (1, "9009738f03766f16b419ab3aecae33b385841c03b53b1e3f44ce4df4b21ef425"),
    "ocnp-square-01-text": (0, "c0874cc2308f4dee6a28aeb7824a557f2b6ca086b37cabe325cfcb98a6404bdf"),
    "ocnp-square-11-text": (2, "04bcafa208361f81c50b6315fff051d7d7a19f5bfc0bdc543a7743f17bf2e10a"),
    "decompose-square-text": (0, "48ea6c8f773a05777332ae0e5427293028fd95f0465ea9f56ae68bae3f4f7382"),
    "decompose-edge-text": (0, "f63bf505b26287012ac8c576b14582b6f0c37337c3a5f354ac2a31a1b6304bcc"),
    "decompose-dense1-text": (0, "0d6211b38ead4219bbc9963d625efa905c4962d9810faaf63a33664df091c72b"),
    "decompose-k3-text": (0, "f7cda47d27823e41989d2f5202bd4b609ac13fd583974c89427c1d90bfba1a76"),
    "decompose-twotwo-text": (0, "3c76a29700c13b7cbaa55d95a8e2d19c5db1efdd81a9b9b0380bdc68151c482e"),
    "reduce-triangle-text": (0, "8c977092796f034a9f5434b2db779c44c04ec477e8ede7c06ff6605f2cab7af9"),
    "longest-cycle-triangle-text": (0, "be812b2c76f5e802e1a73763948d798ee5543687be9a1dfec573c4720b9505b5"),
    "verify-triangle-text": (0, "8a8cfe43a35cbce88345f8ffccef32c70440922a77fa005b75df0bfe8cdb9fea"),
    "reduce-k3-text": (0, "b8524fbc45a4a07c3a6edcb655b5574bc897751de808b42efcf1d676367727d9"),
    "longest-cycle-k3-text": (0, "be812b2c76f5e802e1a73763948d798ee5543687be9a1dfec573c4720b9505b5"),
    "verify-k3-text": (0, "8a8cfe43a35cbce88345f8ffccef32c70440922a77fa005b75df0bfe8cdb9fea"),
    "reduce-twotwo-text": (0, "98a8eb049057eb25772e554d343e36067368e31beff1fe01d39df8a0241a2b1b"),
    "longest-cycle-twotwo-text": (0, "5a2635c9462cfadf464b881cba71e3ad478ae73bfc95b215e2caf29c890899cc"),
    "verify-twotwo-text": (0, "8a8cfe43a35cbce88345f8ffccef32c70440922a77fa005b75df0bfe8cdb9fea"),
    "reduce-dag-text": (0, "af6ae2c8a8f4597aead86b72291e6d5eca82e5eb1408b3f68b2ccad480473364"),
    "longest-cycle-dag-text": (0, "980d189f2b6114ee08cb0da05743a27550cbcfa54e300703b35fef14c5d4479d"),
    "verify-dag-text": (0, "8a8cfe43a35cbce88345f8ffccef32c70440922a77fa005b75df0bfe8cdb9fea"),
    "bench-n4-s7-text": (0, "6e5b9493fd42fad8ad98a059f8ce4d4b5808e3eeb1d1e1e62238b466460c6406"),
    "bench-n5-s1-text": (0, "20d0112303f211e611cd06c05b3cae1c3dd3dc7c5f88f8ea17070d5189930806"),
    "solve-square-json": (0, "d7d6291a24503b2943a7d4b029e7ea54266ae2feb2747a2bac231273b490c02b"),
    "solve-edge-json": (0, "515f7d87df4097748d51f5716b048f9d35c0f65db77b111cdc006f95e6a5206b"),
    "solve-infeasible-json": (4, "5c43d2dd274b19b20bd18d3dd72a6f99adc034824cf53f81218af99b492dd769"),
    "solve-ray-json": (5, "b54093a2f119e472a0ca8d7a3d902a69f6e2446bfaffe8e0395e19677c0951f2"),
    "solve-strip-json": (65, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "solve-dense1-json": (0, "ad7902deb682e4dff924ee95db94aca6694a44c8c6bb217bbea075660a870eb0"),
    "solve-dense2-json": (0, "7ce94f01534cace316ff575f1cdb54a878db135289ed4a3adc7ea0027181e366"),
    "solve-k3-json": (0, "aae1d9c29b604ef780a8a8d463dcc3dbe413502f3bd32c6eb920a03a3f7523e9"),
    "circuits-square-json": (0, "d0bc9573f576547dadf2c3dc4a90137300b70f01faf25474587d855678619859"),
    "circuits-edge-json": (0, "d0bc9573f576547dadf2c3dc4a90137300b70f01faf25474587d855678619859"),
    "circuits-strip-json": (65, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "circuits-dense1-json": (0, "09813e967042cb559e24e7b03bf6602e52f6f358595477ebe26b8d94f2de6e98"),
    "circuits-dense2-json": (0, "8fbc42b5f3a1f5060308bc9a91310f38a5fd50714d9909e8c9a80f78de52a878"),
    "circuits-k3-json": (0, "b2c949768fa50086ee5e13bba90b83639676ab33860f74b127aabf7401b91b4c"),
    "circuits-twotwo-json": (0, "96631c2d6ea95f5082dd14746676c6c363e472008556de279173429febc8a30a"),
    "ddstep-exact-square-json": (0, "b6a6295d21354070c5333dca3a4c17c3d49e8cbe2569f5c14b41597e251b30fb"),
    "augment-exact-square-json": (0, "10b072a6449a9216d9561bde941ca39cb9fc73c9ec050472ef80bde298cbf246"),
    "ddstep-approx-square-json": (0, "b6a6295d21354070c5333dca3a4c17c3d49e8cbe2569f5c14b41597e251b30fb"),
    "augment-approx-square-json": (0, "10b072a6449a9216d9561bde941ca39cb9fc73c9ec050472ef80bde298cbf246"),
    "ocnp-square-json": (1, "f8f6d93052eb5ca6134fcc0b37e299d87359ea2cca20e00ed523264bf0a304c3"),
    "ddstep-exact-edge-json": (0, "9e11bfed03f5b00ef41cbc1455137dacfa058aa7931cb7fdff0fbbf0f8e24a2e"),
    "augment-exact-edge-json": (0, "7c0b788a5ff8b80f04986bbd5f5c7600d7386f0d013d88fc9a2e5b92a6f11eef"),
    "ddstep-approx-edge-json": (0, "9e11bfed03f5b00ef41cbc1455137dacfa058aa7931cb7fdff0fbbf0f8e24a2e"),
    "augment-approx-edge-json": (0, "7c0b788a5ff8b80f04986bbd5f5c7600d7386f0d013d88fc9a2e5b92a6f11eef"),
    "ocnp-edge-json": (3, "4165d4e29b15f7912c301b75adda2810a57c08adca3490a4c7754b35abcce46b"),
    "ddstep-exact-ray-json": (5, "4373865f727eced7494e360c9d242627955661c95063ad55a5c65d7093bf7ebc"),
    "augment-exact-ray-json": (5, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "ddstep-approx-ray-json": (5, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "augment-approx-ray-json": (5, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "ocnp-ray-json": (5, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "ddstep-exact-strip-json": (65, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "augment-exact-strip-json": (65, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "ddstep-approx-strip-json": (65, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "augment-approx-strip-json": (65, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "ocnp-strip-json": (65, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "ddstep-exact-dense1-json": (0, "51aa5778f6f4ca31bf7fb6aa77137198a76de5c6be9e22cc37e25c828ce678aa"),
    "augment-exact-dense1-json": (0, "1a8e01ff953c1e760ea6588231ebbba3d96caa1b7ffdcf6146864c6d1e63eb80"),
    "ddstep-approx-dense1-json": (0, "647292c677163f6a766d069c52a6f30675c0c9c54dc6fccda84646acf1b73fe0"),
    "augment-approx-dense1-json": (0, "8d723f250af11c9ea2603ff3a0f211e1999d4478b4b86bafc48efd613e9c042d"),
    "ocnp-dense1-json": (1, "99538bce347adbe9162b4597b5bc4391f276dad3a448275cda4c241ea65c5a9c"),
    "ddstep-exact-dense2-json": (0, "91c28f2ae859bc6c6253a90f844b93b66c7ef0ca6828b52a9c7dab57289121b6"),
    "augment-exact-dense2-json": (0, "a371da3934c2280a3772b8cfb2e615335b193fd57df2b38a159a362f40480861"),
    "ddstep-approx-dense2-json": (0, "543755c1d39e0127bf540f73a4ae3b3891e3976386c2381bd6414e7e7202fa74"),
    "augment-approx-dense2-json": (0, "4e9375b8951eab397abbef822d480858f967be4e0ee2b47f76924460c9d7a06d"),
    "ocnp-dense2-json": (1, "0f472c90c924d123fda52cf465cf83b6b7e9ec7a2b63b10128bd432bdc8a32f9"),
    "ddstep-exact-k3-json": (0, "7c0fc22322bafe0645917916ee74868d3fabe59ae2cc39513e5266472b21c41d"),
    "augment-exact-k3-json": (0, "ee129178f56a69746dd37e050309ddd9f9dd38ba25ff2d26b4e43008cb14032a"),
    "ddstep-approx-k3-json": (0, "7c0fc22322bafe0645917916ee74868d3fabe59ae2cc39513e5266472b21c41d"),
    "augment-approx-k3-json": (0, "ee129178f56a69746dd37e050309ddd9f9dd38ba25ff2d26b4e43008cb14032a"),
    "ocnp-k3-json": (1, "d9a9780c46043c9b72f8c4908b51dbc41fa2391fc79fa13af53364d8cbc6e003"),
    "ddstep-exact-twotwo-json": (0, "c1344b378d9939eb935834d863656fd7a529a7a9ade2560c49b7fd35caca3978"),
    "augment-exact-twotwo-json": (0, "23b4687b4e63b061cebf31ca20308244b735f9390f2b3fc93b3ee5836b49d938"),
    "ddstep-approx-twotwo-json": (0, "c1344b378d9939eb935834d863656fd7a529a7a9ade2560c49b7fd35caca3978"),
    "augment-approx-twotwo-json": (0, "23b4687b4e63b061cebf31ca20308244b735f9390f2b3fc93b3ee5836b49d938"),
    "ocnp-twotwo-json": (1, "17364748c6def8fd33aff3d3807f48c7686301a1cb154eb18ad4b106ff3a92d8"),
    "ocnp-square-01-json": (0, "3164bb73445578694ec02fd1c2aebdebfb372b085b1e3e6cacbff7f8aea5c6ee"),
    "ocnp-square-11-json": (2, "af4f18150b8a68335b60f2b730325b23c4e18fb5078a4532a5fd28812e156768"),
    "decompose-square-json": (0, "90e91906be3e3cee8da9d92d6488f10adce966fe3d58c27f918dd63181c8bcd3"),
    "decompose-edge-json": (0, "132b3a63719c696998674c7c45336d099839dd87fcc4c7de112e8d08eab98d99"),
    "decompose-dense1-json": (0, "304117d104239ab73a7b128933fe768d43d23afb3aab47fe37633cedb69e9f9a"),
    "decompose-k3-json": (0, "efe3101aa21dd12e1142f90850b8041ca66290ace2f60d4248cb3082d6239c90"),
    "decompose-twotwo-json": (0, "4a8afcad02512bf8b9d3446403ef660beb813c8ec84ea97298c4b721fc10a1d7"),
    "reduce-triangle-json": (0, "4babfe51517524c3d21cf347bb16d9659c9a2aed454c59ce63022db250b17d31"),
    "longest-cycle-triangle-json": (0, "09441c5ef0b9089a0460fe0cd73f2efa22683ced8356a09905bff32d36874a5e"),
    "verify-triangle-json": (0, "a3bb32d5df1434a2b264ad04302b07892b5d31262e06fff4795d585c25dee369"),
    "reduce-k3-json": (0, "e8a7e1d4d135ca2346cd6a18662eef0fa5b08672237a5345d41a3f8b599b5477"),
    "longest-cycle-k3-json": (0, "09441c5ef0b9089a0460fe0cd73f2efa22683ced8356a09905bff32d36874a5e"),
    "verify-k3-json": (0, "a3bb32d5df1434a2b264ad04302b07892b5d31262e06fff4795d585c25dee369"),
    "reduce-twotwo-json": (0, "a27be96b9b0f6b7d59ee100677b9297d501fae6a11c61e2a68e062d5c54ee116"),
    "longest-cycle-twotwo-json": (0, "9269bc6518a525250cdd9f515fbc09abba84e1ff8440dd7be7477e9d73f929f7"),
    "verify-twotwo-json": (0, "a3bb32d5df1434a2b264ad04302b07892b5d31262e06fff4795d585c25dee369"),
    "reduce-dag-json": (0, "2b4307c134f4b2610e43af2c8a260a14079126e974b5b856f0fc89776ab2aa2c"),
    "longest-cycle-dag-json": (0, "dbefd099040cec54e3122d7ae6f1106985a9256dec3eab75a9e4f44e27a40f1c"),
    "verify-dag-json": (0, "a3bb32d5df1434a2b264ad04302b07892b5d31262e06fff4795d585c25dee369"),
    "bench-n4-s7-json": (0, "d369a8ab3805a3fd6449fccee2dbd5e68a5b8514a48cf0c85151bf5bd9542b87"),
    "bench-n5-s1-json": (0, "e44cc8e7c0ff35163b2217233b0df45d21d508b3ab0bb4b65390e521ab558124"),
}


def _check() -> int:
    """Compare every battery command with its ``GOLDEN`` entry, print each
    mismatch and a summary line, and return 1 if any differs, else 0."""
    bad = 0
    for case_id, got in _digests():
        if got != GOLDEN.get(case_id):
            bad += 1
            print(f"mismatch {case_id}: got {got}, pinned {GOLDEN.get(case_id)}")
    version = sys.version.split()[0]
    print(f"{len(BATTERY) - bad} of {len(BATTERY)} GOLDEN entries match on Python {version}")
    return 1 if bad else 0


if __name__ == "__main__":
    if sys.argv[1:] == ["--check"]:
        sys.exit(_check())
    print("GOLDEN = {")
    for case_id, (code, digest) in _digests():
        print(f'    "{case_id}": ({code}, "{digest}"),')
    print("}")
