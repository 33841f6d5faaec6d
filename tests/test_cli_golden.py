"""CLI output pinned byte for byte: sha256 of (exit code, stdout) per command,
and the exit code and stderr of each command, verbatim for those that fail.

Every command runs in-process through ``hlgysin.cli.main``.  The Schur S
digests pin both swaps of ``schur_s``: Jacobi-Trudi determinant ->
Demazure form -> the rows with c = 0.  Those at n = 2, 5, 9 and 12 were
recorded while it was still the Jacobi-Trudi determinant, and the one at
n = 10 while it was the Demazure form; neither swap changed a byte.
Those of R and P at n = 6..8 were recorded while each level of R still
built the whole product of its row and the tail class, and those of the
Grassmann verifiers at n = 5 and 6 while each built the whole product of
its cross factor and block classes and pushed it forward by the plain
divided-difference chain.  Those of Schur P at n = 6 and 8 were recorded
while P_nu was still the leading-flag push-forward of its whole coset
core x^nu prod (x_i + x_j).  Those of lemma-sum, of the randomized
suites, of t-minus1's randomized refusal and of the v, gaussian and
formatted p tables were recorded while each verify suite was still its own
generator and compute and table each wrote their own output.  Those of the
fallback forms, theorem-main and cor-gaussian at n <= 5 with entries <= 2,
were recorded while P still packed its quotients for the expander to read
back and prop-juxtaposition still chose its own packed t.  Running this
file as a script prints the table for the current checkout:

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
    ["--kind", "schur-s", "--n", "10", "--lambda", "3,2,1"],
    ["--kind", "schur-s", "--n", "12", "--lambda", "2,1"],
    ["--kind", "schur-p", "--n", "4", "--nu", "3,1"],
    ["--kind", "gaussian", "--a", "3", "--b", "2"],
    ["--kind", "v", "--m", "4"],
]

# R and P at n = 6..8: a partition, a contiguous sequence that is not a
# partition and, for P, a sequence whose normalizer does not divide R (exit 1)
LARGE_CLASSES = [
    ["--kind", kind, "--n", str(len(lam.split(","))), "--lambda", lam]
    for lam, kinds in [
        ("2,1,1,0,0,0", "rp"),
        ("1,1,2,0,0,0", "rp"),
        ("2,0,2,0,0,0", "p"),
        ("2,1,0,0,0,0,0", "rp"),
        ("1,2,2,0,0,0,0", "rp"),
        ("0,2,0,2,1,1,1", "p"),
        ("2,1,1,0,0,0,0,0", "rp"),
        ("0,0,0,0,0,0,1,1", "rp"),
        ("0,1,2,1,0,0,0,0", "p"),
    ]
    for kind in kinds
]

# Schur P at n = 6 and 8
SCHUR_P_CLASSES = [("6", "3,2,1"), ("8", "4,2,1"), ("8", "5,3,1"), ("8", "4,3,2,1")]

COMMANDS = [
    ["compute", *args, "--format", fmt]
    for args in COMPUTE
    for fmt in ("text", "json", "latex")
] + [
    ["table", "--kind", "r", "--n", "3", "--entry-max", "2"],
    ["table", "--kind", "p", "--n", "3", "--entry-max", "2"],
    ["verify", "--identity", "t0-jlp", "--n-max", "4"],
    ["verify", "--identity", "t-minus1", "--n-max", "4"],
    # the Grassmann verifiers at n = 5 and 6
    ["verify", "--identity", "t-minus1", "--n-min", "5", "--n-max", "6", "--entry-max", "2"],
    *(
        ["verify", "--identity", identity, "--n-min", "5", "--n-max", "5", "--entry-max", "1"]
        for identity in ("theorem-main", "cor-gaussian", "prop-juxtaposition", "t0-jlp")
    ),
    # the fallback forms: theorem-main's cleared, reduced and cleared plus
    # reduced forms, and cor-gaussian's reduced form and shared-part probes
    *(
        ["verify", "--identity", identity, "--n-max", "5", "--entry-max", "2"]
        for identity in ("theorem-main", "cor-gaussian")
    ),
    # exit 1: the normalizer does not divide R
    ["compute", "--kind", "p", "--n", "4", "--lambda", "0,2,0,2"],
    # exit 2: not a partition, unknown identity, malformed sequence
    ["compute", "--kind", "schur-s", "--n", "3", "--lambda", "1,2"],
    ["verify", "--identity", "bogus"],
    ["compute", "--kind", "r", "--n", "2", "--lambda", "1,x"],
    # exit 3: permutation bound
    ["compute", "--kind", "r", "--n", "9", "--lambda", "0,0,0,0,0,0,0,0,0"],
] + [
    ["compute", *args, "--format", fmt]
    for args in LARGE_CLASSES
    for fmt in ("text", "json")
] + [
    ["compute", "--kind", "schur-p", "--n", n, "--nu", nu, "--format", fmt]
    for n, nu in SCHUR_P_CLASSES
    for fmt in ("text", "json")
] + [
    # exit 3: permutation bound
    ["compute", "--kind", "schur-p", "--n", "9", "--nu", "1"],
    # exit 3: permutation bound, checked on verify's --n-max and table's --n
    ["verify", "--identity", "t-minus1", "--n-min", "10", "--n-max", "10", "--entry-max", "1"],
    ["table", "--kind", "r", "--n", "9", "--entry-max", "0"],
] + [
    # the front end around the engine: every suite builder, randomized
    # draws, and each table kind and format
    ["verify", "--identity", "lemma-sum", "--n-max", "5"],
    *(
        ["verify", "--identity", identity, "--mode", "randomized", "--count", "20",
         "--seed", "7", "--n-min", "5", "--n-max", "5"]
        for identity in ("prop-juxtaposition", "theorem-main", "t0-jlp")
    ),
    # exit 2: a suite with no randomized mode
    ["verify", "--identity", "t-minus1", "--mode", "randomized"],
    ["table", "--kind", "p", "--n", "3", "--entry-max", "2", "--format", "json"],
    ["table", "--kind", "p", "--n", "3", "--entry-max", "2", "--format", "latex"],
    ["table", "--kind", "v", "--m-max", "4"],
    ["table", "--kind", "gaussian", "--a-max", "2", "--b-max", "2"],
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
    "compute --kind schur-s --n 10 --lambda 3,2,1 --format text": "d4e2b7caba4b900ed6c83947b19228d45259fb72f15430ce76cdf4437f0bd047",
    "compute --kind schur-s --n 10 --lambda 3,2,1 --format json": "11cdcc599740024e9b4c2e3b83318bfe762654dae61586d32387fa53e6ecc1d4",
    "compute --kind schur-s --n 10 --lambda 3,2,1 --format latex": "1370eb8b6e6c642c27239aadf41e87f01969d6e116f37e3c156347d7c78b3d30",
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
    "verify --identity t-minus1 --n-min 5 --n-max 6 --entry-max 2": "68bd3e2fba2b2b38d4e3c1cb0dd385541e83fb7bcae5fa11dc13b21bf7b24cd1",
    "verify --identity theorem-main --n-min 5 --n-max 5 --entry-max 1": "0ec42571777b263521a48b842b57c99b91821ed2b333cd57af140e928bf47722",
    "verify --identity cor-gaussian --n-min 5 --n-max 5 --entry-max 1": "d877cd514c678b72f55883d40c47ac68834ed5ef3ca7f5ec44d046c46ba4f6c2",
    "verify --identity prop-juxtaposition --n-min 5 --n-max 5 --entry-max 1": "d918c76e5c43ebb590e7d2d8c1b8b76323dababad8bd8db97af21b7176d5242b",
    "verify --identity t0-jlp --n-min 5 --n-max 5 --entry-max 1": "631e1d3beb7130dcd2b876c07117e1aa86a85b5f58b50e523b1057370f37c465",
    "verify --identity theorem-main --n-max 5 --entry-max 2": "9e385dfe07bd8087066c744ba2610aceda38e47b2440bda8a6a32e3b2025cb8c",
    "verify --identity cor-gaussian --n-max 5 --entry-max 2": "6c6262ca5cdc58c91a89f8394e88bf9139f62d6216ae5344ead8b284762ff66f",
    "compute --kind p --n 4 --lambda 0,2,0,2": "e79e418e48623569d75e2a7b09ae88ed9b77b126a445b9ff9dc6989a08efa079",
    "compute --kind schur-s --n 3 --lambda 1,2": "913da1f8df6f8fd47593840d533ba0458cc9873996bf310460abb495b34c232a",
    "verify --identity bogus": "913da1f8df6f8fd47593840d533ba0458cc9873996bf310460abb495b34c232a",
    "compute --kind r --n 2 --lambda 1,x": "913da1f8df6f8fd47593840d533ba0458cc9873996bf310460abb495b34c232a",
    "compute --kind r --n 9 --lambda 0,0,0,0,0,0,0,0,0": "ac11339ffa8f270c4f781e0a3922bb1c80d9dee6e4b6911ca34538ed9ae03caa",
    "compute --kind r --n 6 --lambda 2,1,1,0,0,0 --format text": "ebaff94a7bedf95d6a3135da98148002783c80f5831e230b1f42a5bbfb128346",
    "compute --kind r --n 6 --lambda 2,1,1,0,0,0 --format json": "8b5319abc2082d0d31bba78476fe9c022e17c95a339373320614e778925b651f",
    "compute --kind p --n 6 --lambda 2,1,1,0,0,0 --format text": "3730dabfa4514d4241722c4d4c8f9fb36108d33170d890d250d8463d85ebafee",
    "compute --kind p --n 6 --lambda 2,1,1,0,0,0 --format json": "b69e4e37c05efad4a538985b1dc79f5f0cf243ff9a399253eb7c37bc1884862f",
    "compute --kind r --n 6 --lambda 1,1,2,0,0,0 --format text": "ed664b29953139cf39a613d03b2e9ed90b5d7cd6612912a56028d151360a07b7",
    "compute --kind r --n 6 --lambda 1,1,2,0,0,0 --format json": "5c0bc89efd8447ce85ec81740efb0cee66ba7c600dd889c825d7467e87d80ed9",
    "compute --kind p --n 6 --lambda 1,1,2,0,0,0 --format text": "0ec0800e04ae1e38a52a0e958c03a92327eb4c768167d1c045a4c992d533646d",
    "compute --kind p --n 6 --lambda 1,1,2,0,0,0 --format json": "79d7697f9e871e4328b43dfeeac3fcb68d337bb12b97bb960d0130985871335e",
    "compute --kind p --n 6 --lambda 2,0,2,0,0,0 --format text": "e79e418e48623569d75e2a7b09ae88ed9b77b126a445b9ff9dc6989a08efa079",
    "compute --kind p --n 6 --lambda 2,0,2,0,0,0 --format json": "e79e418e48623569d75e2a7b09ae88ed9b77b126a445b9ff9dc6989a08efa079",
    "compute --kind r --n 7 --lambda 2,1,0,0,0,0,0 --format text": "8e7f31bfe081e75046a2fb9e5ba1ee63d86ae00b6200be3d2d5d5a7b2e73fec8",
    "compute --kind r --n 7 --lambda 2,1,0,0,0,0,0 --format json": "fbfad486cf5ee9a64cd9930573b9026d28686b2efb7d24d6561d9b5bd274f73c",
    "compute --kind p --n 7 --lambda 2,1,0,0,0,0,0 --format text": "fa499d3d4703bfb9be3e7526084d981a649fe1963e7dc3e3ac81694a66c9bbef",
    "compute --kind p --n 7 --lambda 2,1,0,0,0,0,0 --format json": "f8dc3166361510118b3a04c16310bbd91c76be9c5a8c4d494d53b8d2a9015590",
    "compute --kind r --n 7 --lambda 1,2,2,0,0,0,0 --format text": "5e85373f21ce097858dafb97ec30e9ea172f31b117b261c8b81e354ee23a1a6b",
    "compute --kind r --n 7 --lambda 1,2,2,0,0,0,0 --format json": "b7af91ab1c110ff6c3d88c0cb7ccf9c2e813723afab544c9b1738c2d16d58ad4",
    "compute --kind p --n 7 --lambda 1,2,2,0,0,0,0 --format text": "43c24f7b160ff090a155910768d1e1f06ace721fa0d2bb323e34cf76c0e83017",
    "compute --kind p --n 7 --lambda 1,2,2,0,0,0,0 --format json": "26021bf53716e1c9ad95349807a72680784e9a4a07994af225587998c87505c3",
    "compute --kind p --n 7 --lambda 0,2,0,2,1,1,1 --format text": "e79e418e48623569d75e2a7b09ae88ed9b77b126a445b9ff9dc6989a08efa079",
    "compute --kind p --n 7 --lambda 0,2,0,2,1,1,1 --format json": "e79e418e48623569d75e2a7b09ae88ed9b77b126a445b9ff9dc6989a08efa079",
    "compute --kind r --n 8 --lambda 2,1,1,0,0,0,0,0 --format text": "4567fc470fd37bc288ff3cf38321344de84701724a79be0b39295d8663b77d5a",
    "compute --kind r --n 8 --lambda 2,1,1,0,0,0,0,0 --format json": "51aa2b4d2864800ea58c9045b1eb930ebca293ce582a7a56ec8de127915a473c",
    "compute --kind p --n 8 --lambda 2,1,1,0,0,0,0,0 --format text": "21c362668a803441efa42baac97ca64fcfaf14cbee45440b6be479e69236a9e5",
    "compute --kind p --n 8 --lambda 2,1,1,0,0,0,0,0 --format json": "d4b014cfbf502a08447746abd7b00f1ded06ec5fcb41fae934e8bdc47e9f27cd",
    "compute --kind r --n 8 --lambda 0,0,0,0,0,0,1,1 --format text": "a548e48607891ef6fb7edd5e4d451362bd2c235b08587950674d8c6d9e413844",
    "compute --kind r --n 8 --lambda 0,0,0,0,0,0,1,1 --format json": "bf7798ae39dfa21a56ec2217e5305c9d0f9f3489a80bc60e5224b1b62662eb70",
    "compute --kind p --n 8 --lambda 0,0,0,0,0,0,1,1 --format text": "c44c77542b5d63cc0bf6ec0037d4d085d114db400c09502510cb6917d65e22aa",
    "compute --kind p --n 8 --lambda 0,0,0,0,0,0,1,1 --format json": "708da7e80262dd4a6e5a0f57a58b5e34d04906ee9e59f13b6f402910bf1296e4",
    "compute --kind p --n 8 --lambda 0,1,2,1,0,0,0,0 --format text": "e79e418e48623569d75e2a7b09ae88ed9b77b126a445b9ff9dc6989a08efa079",
    "compute --kind p --n 8 --lambda 0,1,2,1,0,0,0,0 --format json": "e79e418e48623569d75e2a7b09ae88ed9b77b126a445b9ff9dc6989a08efa079",
    "compute --kind schur-p --n 6 --nu 3,2,1 --format text": "5d2e78d6a33e23b98238be3956d2205454cdabc0c9b5a365894408f13fdb6ec4",
    "compute --kind schur-p --n 6 --nu 3,2,1 --format json": "86e7d616e53e53685b0a157a2b53d136161dedfeca1d4879dae331b3a7d19418",
    "compute --kind schur-p --n 8 --nu 4,2,1 --format text": "b73b21f718342154e7d702990437267e80628371fdc6f2e807cd3929bff7c292",
    "compute --kind schur-p --n 8 --nu 4,2,1 --format json": "8ee8c2b9191856bcc1a8650d7ba1e66cb5be393108ecb565dc96ccb4e501a2c7",
    "compute --kind schur-p --n 8 --nu 5,3,1 --format text": "318ac6042057f4b2d3742d50d3bd671b673cfa1c2e64e3ab7ff22964382b2ed7",
    "compute --kind schur-p --n 8 --nu 5,3,1 --format json": "14b2e7ed745639025019a0b857fd5a448d5957ae03d45c26d10f9847f017190b",
    "compute --kind schur-p --n 8 --nu 4,3,2,1 --format text": "17d47ef317e6598f6be8454108b5ab279f7b39536d759999e320427105fce836",
    "compute --kind schur-p --n 8 --nu 4,3,2,1 --format json": "866c7e961b4e4bb8aa3a77a768ef5cf1916db568023d6d58af0fa1d9f12d9f32",
    "compute --kind schur-p --n 9 --nu 1": "ac11339ffa8f270c4f781e0a3922bb1c80d9dee6e4b6911ca34538ed9ae03caa",
    "verify --identity t-minus1 --n-min 10 --n-max 10 --entry-max 1": "ac11339ffa8f270c4f781e0a3922bb1c80d9dee6e4b6911ca34538ed9ae03caa",
    "table --kind r --n 9 --entry-max 0": "ac11339ffa8f270c4f781e0a3922bb1c80d9dee6e4b6911ca34538ed9ae03caa",
    "verify --identity lemma-sum --n-max 5": "665f4fab731e9227747698b3b22459824847e447d092e15769f1f7ccac0a0967",
    "verify --identity prop-juxtaposition --mode randomized --count 20 --seed 7 --n-min 5 --n-max 5": "5aa9cfc4b31cff891c6eca920800b4a8f233420e3c0ce24da6d5ba87ca1de019",
    "verify --identity theorem-main --mode randomized --count 20 --seed 7 --n-min 5 --n-max 5": "720a14d99b01b24dad36c4d47c6a8f458dccecea7ad633880d166fac8d2499a9",
    "verify --identity t0-jlp --mode randomized --count 20 --seed 7 --n-min 5 --n-max 5": "f276c050f6e6545dd77b96da7dd05ade10246d76cd2d22ca6179dd640cd70098",
    "verify --identity t-minus1 --mode randomized": "913da1f8df6f8fd47593840d533ba0458cc9873996bf310460abb495b34c232a",
    "table --kind p --n 3 --entry-max 2 --format json": "6b82ea33ff31239fb7eb4330bde6870d8e4c838c2a9f05fd3726cae535b25319",
    "table --kind p --n 3 --entry-max 2 --format latex": "573f8ff76f2886b5f12b717b7164dc453efb7632fcbcbc35121065b184108055",
    "table --kind v --m-max 4": "17b5e5da3653f5786a86847b76f994d62abe18659f122cfb52bc3aae75031c3e",
    "table --kind gaussian --a-max 2 --b-max 2": "8cde6913c830a5dc3eb9885addf58414139ab1d50697911af014cc2252b3ded8",
}


NOT_DIVISIBLE = (
    "not divisible: normalizer does not divide the symmetrized class for {}; "
    "the normalized class is undefined for this sequence\n"
)

# exit code and stderr of every command above that fails; the digests hash
# stdout only, which is empty for all of them
FAILURES = {
    "compute --kind p --n 4 --lambda 0,2,0,2": (1, NOT_DIVISIBLE.format((0, 2, 0, 2))),
    **{
        f"compute --kind p --n {n} --lambda {lam} --format {fmt}": (
            1,
            NOT_DIVISIBLE.format(tuple(int(a) for a in lam.split(","))),
        )
        for n, lam in [(6, "2,0,2,0,0,0"), (7, "0,2,0,2,1,1,1"), (8, "0,1,2,1,0,0,0,0")]
        for fmt in ("text", "json")
    },
    "compute --kind schur-s --n 3 --lambda 1,2": (2, "error: not a partition: (1, 2)\n"),
    "verify --identity bogus": (
        2,
        "unknown identity 'bogus'; choose from cor-gaussian, lemma-sum, "
        "prop-juxtaposition, t-minus1, t0-jlp, theorem-main\n",
    ),
    # argparse wraps the usage to the terminal width, fixed at 80 columns below
    "compute --kind r --n 2 --lambda 1,x": (
        2,
        "usage: hlgysin compute [-h] --kind {r,p,schur-s,schur-p,gaussian,v} [--n N]\n"
        "                       [--lambda LAM] [--nu NU] [--m M] [--a A] [--b B]\n"
        "                       [--format {text,latex,json}] [--out OUT]\n"
        "hlgysin compute: error: argument --lambda: expected comma-separated "
        "integers, got '1,x'\n",
    ),
    "compute --kind r --n 9 --lambda 0,0,0,0,0,0,0,0,0": (
        3,
        "bound exceeded: n = 9 exceeds permutation bound 8\n",
    ),
    "compute --kind schur-p --n 9 --nu 1": (
        3,
        "bound exceeded: n = 9 exceeds permutation bound 8\n",
    ),
    "verify --identity t-minus1 --n-min 10 --n-max 10 --entry-max 1": (
        3,
        "bound exceeded: n = 10 exceeds permutation bound 8\n",
    ),
    "table --kind r --n 9 --entry-max 0": (
        3,
        "bound exceeded: n = 9 exceeds permutation bound 8\n",
    ),
    "verify --identity t-minus1 --mode randomized": (
        2,
        "error: identity 't-minus1' has no randomized mode; randomized mode "
        "samples prop-juxtaposition, t0-jlp, theorem-main\n",
    ),
}


def run(argv):
    """Exit code, stdout and stderr of ``hlgysin`` run with argv."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(list(argv))
        except SystemExit as exc:  # argparse rejects malformed flags this way
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def digest(argv):
    """sha256 of the exit code and stdout of ``hlgysin`` run with argv."""
    code, out, _ = run(argv)
    return hashlib.sha256(f"{code}\0{out}".encode()).hexdigest()


@pytest.mark.parametrize(
    "argv", COMMANDS, ids=lambda argv: "_".join(a.lstrip("-") for a in argv)
)
def test_cli_output_matches_recorded_digest(argv):
    assert digest(argv) == DIGESTS[" ".join(argv)]


@pytest.mark.parametrize(
    "argv", COMMANDS, ids=lambda argv: "_".join(a.lstrip("-") for a in argv)
)
def test_cli_exit_code_and_stderr(argv, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    code, _, err = run(argv)
    assert (code, err) == FAILURES.get(" ".join(argv), (0, ""))


def test_every_command_has_a_digest():
    assert sorted(DIGESTS) == sorted(" ".join(argv) for argv in COMMANDS)


def test_every_failure_is_a_command():
    assert set(FAILURES) <= set(DIGESTS)


if __name__ == "__main__":
    for argv in COMMANDS:
        print(f'    "{" ".join(argv)}": "{digest(argv)}",')
