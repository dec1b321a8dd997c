"""The setup layer is part of the contract: the paired basis z_alpha of
g(-1), its dual z*_alpha and the nilpotent e actually used (rescaled when
r is odd) must not move, and neither may the structure-constant tables.
The digests were taken before the even and odd pairing passes were merged
into one and before psl(2|2) was built through `subalgebra`; those of the
sl(2|1), osp(3|2) and gl(2|2) tables before the form was stored as its
nonzero entries."""

import hashlib
import json

import pytest

from wsuper.algebra import build_psl22, export_table
from wsuper.catalog import family_setup

# family selection -> sha256 of (zbasis, zdual, triple.e).  The sweep has
# s = 0 and r = 0 as well as both nonzero, and every odd r (all osp(m|n)
# with m odd) takes the middle-vector rescale of e.
SETUP_DIGESTS = {
    ("sl", 2, 1): "16e7fc18b3bbab1ac6d65c6fb776a0c5006909dd826d93beb6f8259c3a407e41",
    ("sl", 3, 1): "fe742e8422430e824e21227455f9ed28716557487884951bc2e3996dbd5236ad",
    ("sl", 4, 1): "91d384c6d1b0cd89c5594cd04f2f17aeaeeeca82331892db0168e7e5f38517ea",
    ("sl", 5, 1): "8f3505c60d1a0320016cef3c43def842897b13baea76b755f06eddf95eee274f",
    ("sl", 3, 2): "8b2c5375dcb0d616e3c3c3307a73d026ef257e313120a0be29578b457bae57d8",
    ("sl", 4, 2): "72b65201f4d4f861edad7333354c62149fbd5c7e47d1f0b33adc2dadaa1ced9b",
    ("sl", 5, 3): "a9d5e04a9096b4b75b83f6466947c3985d3f9b608b95542fc80e2aa921eb72f9",
    ("sl", 2, 3): "c3a4d6f1f1eb980c93e51bc076ed8026a02faed0c2eb4f413140f8a8c54f088c",
    ("gl", 2, 1): "1f57570def2d604649e0a5f1f72a9bbb7213dbf424a6c0119b73b1877f18256c",
    ("gl", 3, 1): "b7937944d80783aba2f6926162ec4622aa27bc0e57d316028f9db61e57637cfc",
    ("gl", 2, 2): "921669ca85e6deff0b3ba30a3c8d9adae7e8385de2e53e4aa49b70acca11e317",
    ("gl", 4, 2): "662c8d8bb9d4626750bbcb7f61070c3368e86dee34f2eb6d8f1d599a10dc7afe",
    ("osp", 1, 2): "d082ca5c04a938070df5de00291547cb0b4419581672f33d29a0e617101bdee7",
    ("osp", 3, 2): "c3f6e84aeaaf22c0badec5b209fe23cbb7e4d67845fdc6b1a7bd64a5397d2a60",
    ("osp", 5, 2): "aadb717a42c933f9484e45322eb3cdb63612092f82e8b6a367eb83ef27e0f003",
    ("osp", 7, 2): "4bd0afe95692d85719fa5135c34968618a0d226da398da42c51fc5d2c61f4733",
    ("osp", 1, 4): "833a9de4b9569a55872e68b1a2affe4f9d450261de0b8bfa3680b676563b9419",
    ("osp", 1, 6): "da929811bbfb4338e93090792f46c74ea9e3cceafa86d5e80c852803128ddb89",
    ("osp", 3, 4): "2814923a218e0be68c34935b88a346ba31b49fdba7731518885bfc2d48e6dc8d",
    ("osp", 5, 4): "3c5e1f182c0f36af9666ffcd4957cd7a5cdac79404cd42b9ed11558fca259bd4",
    ("osp", 2, 2): "093b7c81e1988a4ec710ade10374e4758a3bdb88832bfa5ab432dc675e3bf076",
    ("osp", 4, 2): "215be26b02df9ce500570f3ea5d55617ae4328ce462697b24b3adf18691d1cc4",
    ("osp", 2, 4): "f7bd72506c90b89018d4cf18229c3fbdfe453ee523671f6f961ffd272ca6fcbd",
    ("osp", 0, 4): "c770d753c2ebd734c1b3a7c39083f832dde4bfb97ff2f510f46366a490de5e1a",
    ("psl22",): "56c39bea09c8ef8a668fe605574013faa7c74badd67a91ec4e198798ee5f4c3a",
}

# sha256 of [export_table(alg), basis_names]: psl(2|2) as built, and the
# other three with the form normalized by their setup, as `export` writes them
TABLE_DIGESTS = {
    ("psl22",): "29c366ab4ff95aba34414277249a226126305bac4f88c55fe765450333d17c92",
    ("sl", 2, 1): "8dc5362c398a4c9229a707bbe8faa621ffa9f9b7d12a0f2f4a8c84c52b7e14e5",
    ("osp", 3, 2): "6b2654c9196a24d8db75bb276307521bc7622662f22c39ec94a2c177f0293db5",
    ("gl", 2, 2): "644868b20f22af9668e65515755f83744a6e6b7d38f2feca00c65b5fb55c0bbf",
}


def _sha(obj):
    return hashlib.sha256(json.dumps(obj).encode()).hexdigest()


def _vec(v):
    return [[k, str(c)] for k, c in sorted(v.items())]


@pytest.mark.parametrize("selection", sorted(SETUP_DIGESTS),
                         ids=lambda sel: "".join(map(str, sel)))
def test_paired_basis_dual_and_e_are_pinned(selection):
    setup = family_setup(*selection)
    doc = [[_vec(v) for v in setup.zbasis], [_vec(v) for v in setup.zdual],
           _vec(setup.triple.e)]
    assert _sha(doc) == SETUP_DIGESTS[selection]


@pytest.mark.parametrize("selection", sorted(TABLE_DIGESTS),
                         ids=lambda sel: "".join(map(str, sel)))
def test_table_and_names_are_pinned(selection):
    alg = build_psl22() if selection == ("psl22",) else family_setup(*selection).alg
    assert _sha([export_table(alg), list(alg.basis_names)]) == TABLE_DIGESTS[selection]
