"""Report bytes pinned by SHA-256 digest.

Canonical bases are compared exactly everywhere else, but a change to the
kernel that reorders or rescales a basis would still shift the JSON the CLI
prints.  These digests are of the stdout of `trilie spaces --builtin NAME
--json` and `trilie decompose --builtin NAME --levels 4 --json` for the six
built-ins, captured before factorization became fraction-free, and of
`trilie sample --builtin NAME --kind KIND --levels 4 --json` for the six
built-ins and three kinds, captured before products and brackets went
through sparse tables: the same seed must give the same sampled sequence.
Recapture them only for a change that is meant to alter the reports.
"""

import hashlib

import pytest

from trilie.cli import main

SPACES = {
    "tri_q_q_q": "1de2c6118796d02d32c02ebbacb1eac82d7e1f34afa1a74fc2d68b6788202553",
    "tri_qq_plane_q": "91b2d220c156bfa880ca4e6d2a3bb365e6f5601bf98e08796041c7a4ca3af3ab",
    "tri_q_plane_qq": "84ac21a6e9205525a77490b9a111e26197f96da7eb9342b21b2be9c013aa1830",
    "tri_dual_dual_dual": "49399c5a3943989557535be5fe411ccc2d08fb410e9635994afd4ad5dd33c0a1",
    "tri_t2_plane_q": "fbb46406a41122ab0215f7c6c97de536c56aaff9f2e09d2d3efc087f3a807c7d",
    "tri_qq_plane_qq": "cc55c2dddfd897c0dc7eb3a5e5343613a808b936bc8a4e2365452153033a43fd",
}

DECOMPOSE = {
    "tri_q_q_q": "d312197c2e4fa08247086653385a95efed66e25a6dba3a1cddd33b9aa0d14e19",
    "tri_qq_plane_q": "302018cbe6962d62112513d91052290e832bd90e250bf1f212014b1fa9652e62",
    "tri_q_plane_qq": "d72e6020915aebc637dfdd3129dcb99ed8eb2f14058ccbefd52d775a6a2031ce",
    "tri_dual_dual_dual": "cff64bc55a5190a36944e196adb4ef6e82576dd2d965d4fc2f1e030c2749a732",
    "tri_t2_plane_q": "cfbe3ea2b54e64907f832e6e6ca7deed7cfc8be740115851bb465949255eb46e",
    "tri_qq_plane_qq": "0faa24ed1070eda5f4ceb0bdd2f4fa2ad1e6ffe3a01748bc068122655df29361",
}

SAMPLE = {
    ("tri_dual_dual_dual", "higher"): "f5582eb81d82ec34afd59504ba4933da66d58c6aacc5da9fcfcd72778b8b0276",
    ("tri_q_plane_qq", "higher"): "f456b3a85d5712ca6cc0443bbe6c475a3b21d4f0cc7dec7fae05a9b7bb038423",
    ("tri_q_q_q", "higher"): "20f15ae63091f2471e1a1aa20ea438b6684e66ac1561e79213d4255b57e2d06e",
    ("tri_qq_plane_q", "higher"): "3ca4403e10ba8ab7594b4776902c6b32d7b6be3e997fc7f63f51870b9a9f515e",
    ("tri_qq_plane_qq", "higher"): "941e2b7a4a164a2a2474aabfe61f9955980ab14b8f06a6522154e7c3cd7d877f",
    ("tri_t2_plane_q", "higher"): "4a5a87be4aa96aa3ef365f21f75c558e76a4bed60eb93b8b0efe49d55515b56b",
    ("tri_dual_dual_dual", "lie-higher"): "d62adaefe85373ed522ef25a3b3d947b7c8dc2481acdf5a5208ea37b10de2353",
    ("tri_q_plane_qq", "lie-higher"): "ee562540aa8ddac6e7e2a7a22a6698802d3ac819bb66014e3d7b5d133303f9f2",
    ("tri_q_q_q", "lie-higher"): "e765dd41677335934ee19f96f086de620b88e8e53a5f0abd3d1ae23885675fba",
    ("tri_qq_plane_q", "lie-higher"): "30e320dccf7719bd7088c989706934034d99a485e12ad16825b4cd874c248830",
    ("tri_qq_plane_qq", "lie-higher"): "4ac11d4675f8527acfd8f2938a80a6f021fae535269ed572c65cb9174f8a2b5d",
    ("tri_t2_plane_q", "lie-higher"): "2a9f46e2067c33c31e1e64fa86ba2d0879ba930e057be0983760b449e4cfe50f",
    ("tri_dual_dual_dual", "lie-triple-higher"): "823f339a38acfd243d2bffe3f41ec0c7878a2e4d25fad9193ec9860475a9a6bf",
    ("tri_q_plane_qq", "lie-triple-higher"): "630a9a361ed342da8284726a14dbf0715cbcda3e37b2e3f9721a31cf69eb6726",
    ("tri_q_q_q", "lie-triple-higher"): "05d0072423d24b183fb93681397433bed3b62c28a7cba433f3e37d8f83a91756",
    ("tri_qq_plane_q", "lie-triple-higher"): "f9225f8b1770eeedf7d03a881516e64330c990401ddf999264a5d3ca506137ff",
    ("tri_qq_plane_qq", "lie-triple-higher"): "e8a2efd88d17c0521b52b5527adab3394e29c96ada0d73642908e286a1877159",
    ("tri_t2_plane_q", "lie-triple-higher"): "c650c1483fb4b90c141b38b986821f414f1cb3be7d17974ed8f10df2b02b76ab",
}


def stdout_digest(capsys, *argv):
    assert main(list(argv)) == 0
    return hashlib.sha256(capsys.readouterr().out.encode("utf-8")).hexdigest()


@pytest.mark.parametrize("name", sorted(SPACES))
def test_spaces_report_bytes(name, capsys):
    assert stdout_digest(capsys, "spaces", "--builtin", name, "--json") == SPACES[name]


@pytest.mark.parametrize("name", sorted(DECOMPOSE))
def test_decompose_report_bytes(name, capsys):
    digest = stdout_digest(capsys, "decompose", "--builtin", name, "--levels", "4", "--json")
    assert digest == DECOMPOSE[name]


@pytest.mark.parametrize("name, kind", sorted(SAMPLE))
def test_sample_report_bytes(name, kind, capsys):
    digest = stdout_digest(capsys, "sample", "--builtin", name, "--kind", kind,
                           "--levels", "4", "--json")
    assert digest == SAMPLE[(name, kind)]
