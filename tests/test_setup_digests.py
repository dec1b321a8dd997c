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

from wsuper import algebra
from wsuper.algebra import build_gl, build_psl22, export_table
from wsuper.catalog import family_algebra, family_setup
from wsuper.grading import build_minimal_setup

from conftest import NONUNIT, get_setup

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

# selection (or a name get_setup builds) -> sha256 of the rest of the
# setup: the grading and g^e(0..2) per grade, in order, the dual bases of
# g^e(0), the letters with their names, grades and parities, s and r.
# Taken before the letter system moved into MinimalSetup.
REST_DIGESTS = {
    ("gl", 2, 1): "de660046c79bc506e63ea935738497556f1f3f754a619f55f142c630088844a9",
    ("gl", 2, 2): "d709d4cedb1d7d0133541b1e7e4b76ba15c77b0117f1f1a259515cacb2988bc2",
    ("gl", 3, 1): "e8fba8a983ac35438eb44e72527b27eb962f1442db083fe5ff6583406c8dd868",
    ("gl", 4, 2): "99c4c4df1f6c2332d37a463cf12b0dd0adfd1cfc7259757163d2e2ba833c0d79",
    ("osp", 0, 4): "0a27e6f19ebfbe3da7256e3b0272f260cf9f053d8316c0431c2f7f922705f3a2",
    ("osp", 1, 2): "9a98282ccf9e8bca890014da6e15f3f22ca5d577b7f0ab4e8cde49743443cf69",
    ("osp", 1, 4): "c5473487194eb16575a0c8151a98321a1e15e84124c0cd2e028826e0d48e3efe",
    ("osp", 1, 6): "72e6d0c4a77cc3b6850ba3bbf8d615e9392c403fde885c2c4ecfeca2128d744c",
    ("osp", 2, 2): "76fb597a85f102fb057c20d46c1895313ec5b516cae94a585e445d4726da5258",
    ("osp", 2, 4): "302282b3ec3c57779df2c76f6711b2cd21c97ad766488d297f8d3c49454e7dfb",
    ("osp", 3, 2): "3f3ea212e75cade935e227cec8ed3bda7417f66dc195ded9b360725f03c0fbde",
    ("osp", 3, 4): "b440117e7fc8e55c7f8a84c1d533a3ef752655ac1dd4acbfa3638748be2a776a",
    ("osp", 4, 2): "9234bc9704af0c8b0b0510148d7f9ea6fae61630fff03df5b9c5bb08241304d9",
    ("osp", 5, 2): "d92f7d2334b660eda562c0931de85901051a96c1d2d0c36c3f0c5aba1b48d800",
    ("osp", 5, 4): "6b10ea024cad74bd2a79541281ece925bab6d5880ea261b14dd1f744bd6a6cf3",
    ("osp", 7, 2): "5640399219057952cf3cb09eab1ffad5f5b2ab4d1039e19baf0b0049a706d6cd",
    ("psl22",): "1ca39884569090d5a1d4d7f8b06b737d4d026a21bfb57e8088aaa65a186eaa6b",
    ("sl", 2, 1): "6718eb2c7a95813e3a4ec2d86ebbabc6148e7348ccc1d9d5e1dcfaa739f7bc26",
    ("sl", 2, 3): "af9eda79d86ed5972908fc53c22054842485452ad09f2c988645e2569bb299c9",
    ("sl", 3, 1): "b8f936adf59740e82079037d6596d93ee1da79dbfde096e5ff7fc91b09463818",
    ("sl", 3, 2): "1615c07899cb3cfa5abc1ecc5d81a18ab67ab3edfa0e450e6c1f5d2d2152c593",
    ("sl", 4, 1): "3794fab6627676a3725b56d23399c34d9f064517db807465f47af6ea28ee883c",
    ("sl", 4, 2): "c9e14b130b472d5db55b54fd7d93a79c70a11e0e434cb98d71125b374a84c954",
    ("sl", 5, 1): "3a7cfceacc2de47d66d6f6cb56fbcf9bfe7abdb20616f6c3fc2dd977d92d3060",
    ("sl", 5, 3): "e74a3313b87ea368cf646f3250fc4485688d31be41b8221daef88842f0258f76",
    NONUNIT: "29aa455fcb13bf218ef7fce760e0a6794d7c069553c3e6740f878c7381e51af6",
}

# sha256 of [export_table(alg), basis_names] for every SETUP_DIGESTS
# selection: psl(2|2) as built, the others with the form normalized by their
# setup, as `export` writes them.  Those of psl(2|2), sl(2|1), osp(3|2) and
# gl(2|2) were taken before the form was stored as its nonzero entries, the
# rest before construction summed the subalgebra constants over the stored
# brackets.
TABLE_DIGESTS = {
    ("gl", 2, 1): "2dea0a923ba4c3bbc18c0607f4f09361f70a8b05be0fc765cdf7da997a89373d",
    ("gl", 2, 2): "644868b20f22af9668e65515755f83744a6e6b7d38f2feca00c65b5fb55c0bbf",
    ("gl", 3, 1): "0286ac4cf7e7f80997c5dee603663b2a2e8916a40b350f17a96ab83e92abed33",
    ("gl", 4, 2): "adb0b86712f246e722caa374fc6265eb202ab47f67aaa5fa5967d7ff84330558",
    ("osp", 0, 4): "6d81cbb20024f089a20cb1789082faab5a8f5625943e7011f0c7402318214ba5",
    ("osp", 1, 2): "14175df32e0ea2019a68999d34c96ec1e2550b4b64c81095acac13c59a74712e",
    ("osp", 1, 4): "0ee9548778139fad445242e11e50bebe956ddf32eb88da19c6ced37be9f72d2f",
    ("osp", 1, 6): "4fcf983978baa7d572335659a642b51326176b5f582560880d6218a116a6e47f",
    ("osp", 2, 2): "37b4357cac677143197546efc747dd3189cff28a598885e71a1e61cb5bdb6671",
    ("osp", 2, 4): "c2c66d940e733913e9fdfcb6304b191547c205a6c0ca99d581389e9ba084dfce",
    ("osp", 3, 2): "6b2654c9196a24d8db75bb276307521bc7622662f22c39ec94a2c177f0293db5",
    ("osp", 3, 4): "a1ed2441118674d199f610cc0f4c66e4b55d9e28a2edf2de98bf2bf8b1955ad6",
    ("osp", 4, 2): "270be8628e0069f5f7ed1c068024a6b6b1642b53a4bf37ade738b9afcc63801b",
    ("osp", 5, 2): "06d1e7ecf8bccc63961f64ca6dccef0504229da8dd8599bb70b24d9c6fbfe7e7",
    ("osp", 5, 4): "80459e781fca32d0cfce4b31835a23934b53ad156dc66e7e551f5dbc0dc43a1a",
    ("osp", 7, 2): "92845cc6b9bf65f6f0c15a3cfbc79b6026ae6aae74f20ce28747fad53ed6964d",
    ("psl22",): "29c366ab4ff95aba34414277249a226126305bac4f88c55fe765450333d17c92",
    ("sl", 2, 1): "8dc5362c398a4c9229a707bbe8faa621ffa9f9b7d12a0f2f4a8c84c52b7e14e5",
    ("sl", 2, 3): "5b7ca813cef15df077c9518e02f6daf3e8dd40c0646bf78e00522900896fb7be",
    ("sl", 3, 1): "5b2490c27760c6794d142c870ad87bf5170806b29c458751ef74ec37be12e6c6",
    ("sl", 3, 2): "d8d85d7c4f335d543bf2b38521405dfb7882cc4f3099fe0db4f0c94a29c19c4a",
    ("sl", 4, 1): "6cfc425842a5906ebde7467559b004e80284cc70aea3b34b21b542c3727cb0d6",
    ("sl", 4, 2): "1bb347bbdda3c9fa7ebe892721df3fed42461f20ce55b0907ad7998cdec43d76",
    ("sl", 5, 1): "b609639b8a5bf645b984734a730e9503cbabf0f680c31b32e141cd03314d7cbe",
    ("sl", 5, 3): "775bdc3263970bd312c3483072c397d774a473481e62c5c7bac7804762627fcf",
}

# (m, n) -> sha256 of build_gl(m, n).brackets in insertion order, each
# terms dict in its own key order: export_table sorts both away, but
# bracket and the tables built from it iterate them.  Taken before gl was
# built over its nonzero pairs only.
GL_ORDER_DIGESTS = {
    (2, 1): "21a7ee7dd17b1cf03726ae6f12cbc9d68cfde02db3660fa2f3ac68b6c419e3a7",
    (3, 1): "90c83a52cd7a6dbb1b0397bba47e52a6d99230c98ae65b69da61a144ffb42f94",
    (2, 2): "c0c67edf8b38d338501459ebebeb38ef0e2de34a016a291281e80443aa368750",
    (4, 2): "11db1a301c959d7f585d8b71ecb505f66634939cd670d7adcabc7e0d33ab6231",
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
    # _rows and bracket iterate the pairs in insertion order
    assert list(alg.brackets) == sorted(alg.brackets)


@pytest.mark.parametrize("m,n", sorted(GL_ORDER_DIGESTS), ids=lambda x: str(x))
def test_bare_gl_table_and_its_order_are_pinned(m, n):
    # (E[0,1], E[1,0]) = 1 already, so the bare table is the one exported
    alg = build_gl(m, n)
    assert _sha([export_table(alg), list(alg.basis_names)]) == TABLE_DIGESTS["gl", m, n]
    assert list(alg.brackets) == sorted(alg.brackets)
    ordered = [[i, j, [[k, str(c)] for k, c in terms.items()]]
               for (i, j), terms in alg.brackets.items()]
    assert _sha(ordered) == GL_ORDER_DIGESTS[m, n]


def _blocks(blocks):
    return [[i, [_vec(v) for v in blocks[i]]] for i in sorted(blocks)]


@pytest.mark.parametrize("selection", sorted(REST_DIGESTS, key=str),
                         ids=lambda sel: "".join(map(str, sel)) if sel != NONUNIT else "nonunit")
def test_grading_centralizer_and_letters_are_pinned(selection):
    setup = get_setup(selection) if selection == NONUNIT else family_setup(*selection)
    doc = [_blocks(setup.grading), _blocks(setup.cent),
           [_vec(v) for v in setup.dual_a], [_vec(v) for v in setup.dual_b],
           [_vec(v) for v in setup.letters], list(setup.letter_names),
           list(setup.letter_grade), list(setup.letter_parity),
           setup.sdim, setup.rdim]
    assert _sha(doc) == REST_DIGESTS[selection]


def test_setup_restricts_the_form_to_the_centralizer(monkeypatch):
    # the Gram of g^e(0) comes from the stored form entries; only the
    # independent check of (a_i, b_j) = delta pays n0^2 form_value calls
    alg, e = family_algebra("sl", 5, 3)
    calls = []
    form_value = algebra.SuperAlgebra.form_value

    def counted(self, x, y):
        calls.append(1)
        return form_value(self, x, y)

    monkeypatch.setattr(algebra.SuperAlgebra, "form_value", counted)
    setup = build_minimal_setup(alg, e)
    n0 = len(setup.cent[0])
    assert n0 == 36
    assert len(calls) < 2 * n0 ** 2
