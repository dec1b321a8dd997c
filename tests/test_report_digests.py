"""Reports are part of the contract: the full suite, with fail_fast off,
must render to the same bytes, in JSON and in text, with and without the
negative control.  The digests were taken before the algebra layer moved
from dense tuples to sparse dict vectors; a change of representation must
not move a single byte.  The JSON digests of the five negative controls
whose one_dim has no pair with a_C != 0 were retaken when one_dim began to
note an undetermined c0 there instead of reporting c0 = 0."""

import hashlib
import json

import pytest

from wsuper.catalog import family_setup
from wsuper.relations import run_suite

from conftest import NONUNIT, get_setup

# name -> (family selection, or None for a name get_setup builds,
#          {corrupt: (json sha256, text sha256)})
DIGESTS = {
    "sl(2|1)": (("sl", 2, 1), {
        None: ("87ad7b00bb0cd021e049771e9383dfd963d482fcfd95629f5e1afd9030f66363",
               "d3fd32a359c2f2d56b0aacb916f240c0ed1a460c41426753d809944700235b1d"),
        "theta-v-sign": (
            "e11dd8d464f708aa67162ad6aa91098663f75ce0576409d8014310ed389782fa",
            "162c1b15df9353eb923814c03121e7340364d6f9a21e81dd788b9b17e49ac984")}),
    "osp(1|2)": (("osp", 1, 2), {
        None: ("0d30fc046ba5e1c7f4dd771b216cb358d91a2183ead864f9844350afbeceb181",
               "b896ac61ba4ed370401904a864b24b3fae275be546a8043c272dd7a646f89807"),
        "theta-v-sign": (
            "0d30fc046ba5e1c7f4dd771b216cb358d91a2183ead864f9844350afbeceb181",
            "b896ac61ba4ed370401904a864b24b3fae275be546a8043c272dd7a646f89807")}),
    "psl22": (("psl22",), {
        None: ("315e36099449f9357a4a298698ec4ab0a789f1b3b21b9e4cc9e354c6e0efc15e",
               "e7ad9e50dfd544b3d844e34a70d609a099ab04d5d950bfcbf0ff45ab8123264b"),
        "theta-v-sign": (
            "a04441ade6acf79c31690a9a2045c0eb362202b7bf61162d414bf52e005e2789",
            "69eeeb8f35a46649ebe4d97f00a470eb10aa30ba3632e11dc07374068f0b1eb9")}),
    "osp(3|2)": (("osp", 3, 2), {
        None: ("5fad096b33b38b7034d81b693a3b40b8646735a513040387396fb213b3a4b467",
               "839cfc9c24f4247563da161c474f4640ded4290e6853489f3eaa3dc4cd13726f"),
        "theta-v-sign": (
            "4b20feb23adacd2946ee44d356355a061c0f1e6b7368420be9aa1881b26a7ef1",
            "37d142b2d20304ffa4797f753ca1b307f7655aac52935cd75f2581223af9c003")}),
    "sl(3|1)": (("sl", 3, 1), {
        None: ("583dfd0933242f5fdf00aa82bcf519a0c1a166bc1892f36e456300ce0d9f277e",
               "0e056824aafdb3d1e14e3243a6b5f51ae4e74e38b979faadb871317a9cd5f62b"),
        "theta-v-sign": (
            "d24427357ffa7bbdb7557450a9d191096707e0859eecc3a1a27b34bb78b46533",
            "02b26eda5652b3d6b9d6e9c00cedf43bfe56f8d6da54377f3916ca8bb055fbc3")}),
    "osp(5|2)": (("osp", 5, 2), {
        None: ("d8f5635db44815864927a8b63af403eff187fc050d81ee2005566adce836f259",
               "60b7116b8ecdbac8042a70696637bc3f173e3d8fbef800c02be5ce7a7f5f5fb5"),
        "theta-v-sign": (
            "bb9bfd2ed5ee93b65170951cc3596c576487a543b6f3d7a3b9d26c107addfd00",
            "fd9223590bd8960efb554964750a2e05e8667de87ec1710596fb2a23d7f1ee0d")}),
    "gl(2|2)": (("gl", 2, 2), {
        None: ("c387ea74eb399e64b132af260a4451bfcaca5a04c0379a9f8a858b6cd964d224",
               "f7779b1c5f96bb33e2c9a782efc8af4b4b539eee1d42399b240cfb6113a0f4b4"),
        "theta-v-sign": (
            "4a3d2d5ff4de5763785b71d8e3ba5bb7970de91d2dd279ad0872ac369631233d",
            "ab7db6e0b913285ddc90a62608ac4fc513f27ba8bb31ac2d5201e76925249b86")}),
    # a setup whose letters are mostly not unit vectors; taken before the
    # letter brackets were tabulated from the stored structure constants
    NONUNIT: (None, {
        None: ("b7b548db947115830a0ff869d2be3a960c93e500dc9ff614cca77077276e4320",
               "9e13be8cf670ea2556d5547b38492c99eaee94304def1c340c7eb984d0f4591b"),
        "theta-v-sign": (
            "ebdd2596689c97c41338e5e21ccb13a91e0ce04e53a767e1246a1ef3ceb9c135",
            "882968bd147e2ca63a7f6a712badd9e95324e487021cd4e7317837a94f372142")}),
}


def _sha(text):
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("name", sorted(DIGESTS))
def test_full_suite_reports_are_byte_identical(name):
    selection, pins = DIGESTS[name]
    setup = get_setup(name) if selection is None else family_setup(*selection)
    for corrupt, (want_json, want_text) in pins.items():
        result = run_suite(setup, fail_fast=False, corrupt=corrupt)
        assert _sha(json.dumps(result.as_json(), indent=2)) == want_json, corrupt
        assert _sha("\n".join(result.lines())) == want_text, corrupt


def test_the_negative_control_moves_the_digests():
    # every pin above is only as good as its power to see a change
    moved = [name for name, (_, pins) in DIGESTS.items()
             if pins[None] != pins["theta-v-sign"]]
    assert moved == [name for name in DIGESTS if name != "osp(1|2)"]
