"""Report bytes pinned by SHA-256 digest.

Canonical bases are compared exactly everywhere else, but a change to the
kernel that reorders or rescales a basis would still shift the JSON the CLI
prints.  These digests are of the stdout of `trilie spaces --builtin NAME
--json` and `trilie decompose --builtin NAME --levels 4 --json` for the six
built-ins, captured before factorization became fraction-free.  Recapture
them only for a change that is meant to alter the reports.
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
