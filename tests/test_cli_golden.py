"""CLI output pinned byte for byte: sha256 of (exit code, stdout) per command.

Every command runs in-process through ``hlgysin.cli.main``.  The digests
were recorded while ``schur_s`` was still the Jacobi-Trudi determinant,
before it became the Demazure form, so they pin that the swap changed no
byte.  Running this file as a script prints the table for the current
checkout:

    PYTHONPATH=src python tests/test_cli_golden.py
"""

import contextlib
import hashlib
import io

import pytest

from hlgysin.cli import main

COMPUTE = [
    ["--kind", "r", "--n", "3", "--lambda", "2,1,0"],
    ["--kind", "p", "--n", "3", "--lambda", "1,1,0"],
    ["--kind", "schur-s", "--n", "2", "--lambda", "2,1"],
    ["--kind", "schur-s", "--n", "5", "--lambda", "3,2,2,1"],
    ["--kind", "schur-s", "--n", "9", "--lambda", "1"],
    ["--kind", "schur-s", "--n", "12", "--lambda", "2,1"],
    ["--kind", "schur-p", "--n", "4", "--nu", "3,1"],
    ["--kind", "gaussian", "--a", "3", "--b", "2"],
    ["--kind", "v", "--m", "4"],
]

COMMANDS = [
    ["compute", *args, "--format", fmt]
    for args in COMPUTE
    for fmt in ("text", "json", "latex")
] + [
    ["table", "--kind", "r", "--n", "3", "--entry-max", "2"],
    ["table", "--kind", "p", "--n", "3", "--entry-max", "2"],
    ["verify", "--identity", "t0-jlp", "--n-max", "4"],
    ["verify", "--identity", "t-minus1", "--n-max", "4"],
    # exit 1: the normalizer does not divide R
    ["compute", "--kind", "p", "--n", "4", "--lambda", "0,2,0,2"],
    # exit 2: not a partition, unknown identity, malformed sequence
    ["compute", "--kind", "schur-s", "--n", "3", "--lambda", "1,2"],
    ["verify", "--identity", "bogus"],
    ["compute", "--kind", "r", "--n", "2", "--lambda", "1,x"],
    # exit 3: permutation bound
    ["compute", "--kind", "r", "--n", "9", "--lambda", "0,0,0,0,0,0,0,0,0"],
]

DIGESTS = {
    "compute --kind r --n 3 --lambda 2,1,0 --format text": "bee6bd0c977320ae5128e278892257cf4892a6cced32477c0f7666f981482985",
    "compute --kind r --n 3 --lambda 2,1,0 --format json": "1644f2ea641b2bedb3d03aeb4b4387e1932d39d9980596dd8f45eab7606b7dec",
    "compute --kind r --n 3 --lambda 2,1,0 --format latex": "46cf8d89efcae0558dfae732a02c89388e4b4fb84acdd8505868b4d974ab148c",
    "compute --kind p --n 3 --lambda 1,1,0 --format text": "606840fda9bab5f5ccb35af93e4a60b4b076fe76d1a84846f6f2a88658ed43ff",
    "compute --kind p --n 3 --lambda 1,1,0 --format json": "84eacd3860e2558d2f8607899655c81a6cc5744d94ec5d90461bb28c3beebd02",
    "compute --kind p --n 3 --lambda 1,1,0 --format latex": "31c1f3aa106d085d8d08b609b0301ca6e79a7e93f439e345da1837d1bf4d68f0",
    "compute --kind schur-s --n 2 --lambda 2,1 --format text": "6aa3d4fe47b9b266e71bca3504edac4fe79c017faf474f8d476f4b2294e80437",
    "compute --kind schur-s --n 2 --lambda 2,1 --format json": "fb3f5bb8f3a1f3ec88c0d4bf57fff4a15c2d4a17a05041c336f8e97a32984c1e",
    "compute --kind schur-s --n 2 --lambda 2,1 --format latex": "72de7bfe201da7f1eecea1a50a77ec6c15e78cff8be70083f28109d8df5dce19",
    "compute --kind schur-s --n 5 --lambda 3,2,2,1 --format text": "54905479bfbff6b42330138103a0176642523db160ebc4fa93c81641baa9010e",
    "compute --kind schur-s --n 5 --lambda 3,2,2,1 --format json": "50821d23c978fa63ef7377178d3d64535628dc9cff057d683c3d391811474e59",
    "compute --kind schur-s --n 5 --lambda 3,2,2,1 --format latex": "0b3f0e100290014945d999dc593be3ece46db2cf7640960d0ebc4b64c789c182",
    "compute --kind schur-s --n 9 --lambda 1 --format text": "39f8443f4ca8d8ad6b4c1bc2bfc148b2a37f3c558e1d2521e8c5e8c324b960cc",
    "compute --kind schur-s --n 9 --lambda 1 --format json": "2aa1d40c3f07b645e8dbf659c6cf3e139aedff57b951da43c3f57f9e75d4510f",
    "compute --kind schur-s --n 9 --lambda 1 --format latex": "0d9ac621f096305e4f285775776ec15beabd63dcd0bce808c1915587474d8c61",
    "compute --kind schur-s --n 12 --lambda 2,1 --format text": "4d8f3fafcf561bd3a0c92c17382a9ef8373442d455b0d2ab30b12b58872f9c7b",
    "compute --kind schur-s --n 12 --lambda 2,1 --format json": "24a525604b0b9d1d471ece678c1620451ddc1dedcd901d695cdae5c511bc8463",
    "compute --kind schur-s --n 12 --lambda 2,1 --format latex": "a3443e371f9250d0d89aff9aad0379f78cccb32bac00f3edc3daf676a5e48103",
    "compute --kind schur-p --n 4 --nu 3,1 --format text": "8065ce9d100b41158545efa4c19f883c5a8e96f358c67e0022daf51dbcb8a3c4",
    "compute --kind schur-p --n 4 --nu 3,1 --format json": "e05e64e4d5f86871176403af870303834093f462c82eed00b68b25654f9b879e",
    "compute --kind schur-p --n 4 --nu 3,1 --format latex": "6b419bc92f13becd0898c9332b2e5d9cba74265d674368dc6e58c7d10c841a9a",
    "compute --kind gaussian --a 3 --b 2 --format text": "6fce6cbfb1cbb74566f12b56a6c0f565efc5323806d3b54b43976209a0ac19d3",
    "compute --kind gaussian --a 3 --b 2 --format json": "7b767230ea53107f6a0cc2bae3cdab2ed4fe6b2a5c60b859b53e944d43ab8222",
    "compute --kind gaussian --a 3 --b 2 --format latex": "82157656b00d770bbafda21a5786909b131bb5a67470260913513b9a533594ab",
    "compute --kind v --m 4 --format text": "82ab016fda2a58e5660572e8ee1cbe997e80473fa077fba58874658e16e96159",
    "compute --kind v --m 4 --format json": "517476432ed675c2ce3b35c06f021cb6d1a3b18701b22535d3fb65e2ea1eaf94",
    "compute --kind v --m 4 --format latex": "f1c748ef0f5d94ce2585bb5fd33b11b3a1a9fec6f485d6853b5f7e1369d36977",
    "table --kind r --n 3 --entry-max 2": "5caffd1449d364be3085280b7ce12d2e5a231e795c59a4ad9b6da37ef3848aab",
    "table --kind p --n 3 --entry-max 2": "951e2ecd657100c704cb2d198e76788284675812b34e79f979ff402e4bc3b349",
    "verify --identity t0-jlp --n-max 4": "8a15534c721427be5933139ada1e6d1ba6c1609a2cbe8147ae8c8ee219e27760",
    "verify --identity t-minus1 --n-max 4": "555969417b5fcaa097ffc4ecdd56b2d6ce9d4825e320ab49759fa6c91f5797b6",
    "compute --kind p --n 4 --lambda 0,2,0,2": "e79e418e48623569d75e2a7b09ae88ed9b77b126a445b9ff9dc6989a08efa079",
    "compute --kind schur-s --n 3 --lambda 1,2": "913da1f8df6f8fd47593840d533ba0458cc9873996bf310460abb495b34c232a",
    "verify --identity bogus": "913da1f8df6f8fd47593840d533ba0458cc9873996bf310460abb495b34c232a",
    "compute --kind r --n 2 --lambda 1,x": "913da1f8df6f8fd47593840d533ba0458cc9873996bf310460abb495b34c232a",
    "compute --kind r --n 9 --lambda 0,0,0,0,0,0,0,0,0": "ac11339ffa8f270c4f781e0a3922bb1c80d9dee6e4b6911ca34538ed9ae03caa",
}


def digest(argv):
    """sha256 of the exit code and stdout of ``hlgysin`` run with argv."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = main(list(argv))
        except SystemExit as exc:  # argparse rejects malformed flags this way
            code = exc.code
    return hashlib.sha256(f"{code}\0{out.getvalue()}".encode()).hexdigest()


@pytest.mark.parametrize(
    "argv", COMMANDS, ids=lambda argv: "_".join(a.lstrip("-") for a in argv)
)
def test_cli_output_matches_recorded_digest(argv):
    assert digest(argv) == DIGESTS[" ".join(argv)]


def test_every_command_has_a_digest():
    assert sorted(DIGESTS) == sorted(" ".join(argv) for argv in COMMANDS)


if __name__ == "__main__":
    for argv in COMMANDS:
        print(f'    "{" ".join(argv)}": "{digest(argv)}",')
