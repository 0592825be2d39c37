"""Golden stdout of the CLI: sha256 of in-process ``main()`` stdout and the
exit code for a fixed command list.

The digests pin every identity's ``verify``, ``explain`` and ``eval`` output
byte for byte, including out-of-hypothesis cells and the negative control,
so a refactor of the command-line front end cannot change what it prints.
"""

import hashlib
import shlex

import pytest

from qidentities.cli import main

GOLDEN = {
    # verify grids, each with out-of-hypothesis cells
    "verify --identity thm1 --d0 1..8 --d1 0..7":
        (0, "94c92b867482863803729983d68090e48b44f3da1c4973fc572ba7ae6e51f3d4"),
    "verify --identity thm2 --d1 0..6 --d2 0..5":
        (0, "ecbaedc57c269faa0fb82201929fe32846f7aa8150a268627d3e6933739728b1"),
    "verify --identity thm2 --d1 11..14 --d2 1..3":
        (0, "1d2444d5e7c70163866c158fb9f25d0e67934911e292af876adc8c8006012637"),
    "verify --identity prop3 --D 0..9 --d1 0..5 --k0 0..5":
        (0, "c0f83e27921d12763303edb86fa91afe398c5bbb383d8311eb1630cd6652f146"),
    # the deep theorem cells: sums of up to 16 products, and chains of up
    # to 6 factors
    "verify --identity thm2 --d1 22..24 --d2 8..10":
        (0, "563c79910218992cec96c2ea510ec73662e5920129d92c9abd08b7b5b5eb9bd7"),
    # small D: negative tops several levels deep, so 28 of its sums of
    # products add terms of both signs, read back from biased slots
    "verify --identity prop3 --D 1..4 --d1 6..8 --k0 1..8":
        (0, "604e4269d97348c1d58ad64a80cf909b7dc76b01f18ce51613d25c4a1eafb5d3"),
    "verify --identity saalschutz --a=-3..3 --b=-3..3 --c=-3..3 --N=-1..3":
        (0, "4bfb492d80635a477c6526568cbc8cb8ce594e75f40f07c2574b212c8ccea1bc"),
    # longer series, whose cells differ most in cost
    "verify --identity saalschutz --a=-3..3 --b=-2..2 --c=-3..3 --N=4..7":
        (0, "0dfb1b0a4045eb0d50fd778d5835a0e40a1de5cbb7e52be4e74d39b9bfcdd856"),
    # 12 of its 33 Kronecker products have mixed-sign operands that are
    # both zero at every odd offset: biased slots at stride 2
    "verify --identity saalschutz --a=-6 --b=-6..-4 --c=4..6 --N=3":
        (0, "a5c5ffb903ee59b7bb8eaabc512af6e2d1b3ba3ee10df6351c8f0d944712ef8f"),
    # negative control
    "verify --identity thm2 --d1 1..3 --d2 1..3 --selftest-corrupt":
        (1, "73ba184918b091f51c57aae43f40811a578a7123fda3c5235a7a87176cc937aa"),
    "verify --identity saalschutz --a=-2..2 --b=0..2 --c=-1..3 --N=1..2 --selftest-corrupt":
        (1, "d6e76eab3a4792a658007b83dce50e156cb630fa89753940fc09be2135ef18d1"),
    # explain, in and out of hypothesis, and an empty refined sum
    "explain --identity thm1 --d0 4 --d1 2":
        (0, "61493df051bad310b81490d39468ee5490ab5dbc7db58ef59ad719d9f21aa476"),
    "explain --identity thm1 --d0 2 --d1 2":
        (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "explain --identity thm2 --d1 3 --d2 2":
        (0, "0fff9f5ab58cbd26a0fc44170be0c5c9cd1bd8a7c59c423a977a29e28173a425"),
    "explain --identity thm2 --d1 0 --d2 2":
        (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "explain --identity prop3 --D 9 --d1 4 --k0 2":
        (0, "c99235151a5e4d3e7fe3cf74166c098e7106bc621b76c9aadc13706e825068c6"),
    "explain --identity prop3 --D 8 --d1 2 --k0 5":
        (0, "d77da764b6f2b08777af92d569105ce5810305bdf99e8060dd03a79473d96726"),
    # eval of both sides of every identity, and the other kinds
    "eval --kind lhs --identity thm1 --d0 4 --d1 2":
        (0, "4046c84cfd2e70b485c89155d0527574429c7ecbb352f1bdca710c03294b420e"),
    "eval --kind rhs --identity thm1 --d0 4 --d1 2":
        (0, "4046c84cfd2e70b485c89155d0527574429c7ecbb352f1bdca710c03294b420e"),
    "eval --kind rhs --identity thm1 --d0 2 --d1 2":
        (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "eval --kind lhs --identity thm2 --d1 2 --d2 3 --format json":
        (0, "4ea439c1376aba8d08c455384143ccdc09a365bce45d8b6270258b27cd3bb697"),
    "eval --kind rhs --identity thm2 --d1 2 --d2 3 --format latex":
        (0, "5ccebc64ae677c19d454ccce1eb88c4400ccdabeb9b1edf1c9563ee7c2c0cd40"),
    "eval --kind lhs --identity prop3 --D 1 --d1 4 --k0 2":
        (0, "602385a7663770456afd7300126c9fe6fc5bd8f454f320919f201fd561f5d7c5"),
    "eval --kind rhs --identity prop3 --D 1 --d1 4 --k0 2":
        (0, "602385a7663770456afd7300126c9fe6fc5bd8f454f320919f201fd561f5d7c5"),
    "eval --kind qbinom --n 6 --k 3":
        (0, "e164030e4b95add747d2ccdb06fcdb175f6ca99ebe79d68187b152f83fc48016"),
    "eval --kind qint --alpha -2":
        (0, "cc0b2578a5022600b974bf128af9f068a7fcb5dfd1ed81176b13af5f8eb4bc5f"),
    "eval --kind f --D 9 --d1 4 --k0 2 --format json":
        (0, "3981dbb299995c606c19c51e0b082b6e15cc298eb56f50313cf837be6a9302e7"),
    "eval --kind nlog --surface F0_04 --p 2 --r 3":
        (0, "dd6f5d703211c986d9607328412890e08366e51e70e9977d42616909b7438267"),
}


def run_digest(command, capsys):
    """(exit code, sha256 of stdout) of one in-process CLI run."""
    try:
        code = main(shlex.split(command))
    except SystemExit as exc:
        code = exc.code
    out = capsys.readouterr().out
    return code, hashlib.sha256(out.encode()).hexdigest()


@pytest.mark.parametrize("command", sorted(GOLDEN))
def test_cli_stdout_is_golden(command, capsys):
    assert run_digest(command, capsys) == GOLDEN[command]
