"""Golden trace digests: every non-replay command's default trace is pinned.

A refactor that changes no behaviour must leave each trace byte-identical.
The digests are the sha256 of the trace file each command writes with
`--out` at its default configuration (no `--g`, `--in` or `--budget.*`).
"""

import hashlib

import pytest

from dnrlab.cli import EXIT_OK, main

GOLDEN = {
    ("blocking-prefix", 0): "d2114e648208ff141f0a228c29a1611e83a754f972e0dfdfa1835c337a674552",
    ("blocking-prefix", 7): "45047b8e9e05fb4fa9352bdb067ccc19caa03beeeb424060aec95125d0995143",
    ("bushy-check", 0): "8527ce991a05562719804598c462a5aee29825d29cd96610a730c3936c271d29",
    ("bushy-check", 7): "67c06449e4fd75f0347254343fa2b8f544d809dbf73c5da50cfd45aa9f20c5f3",
    ("closure", 0): "a917a56697073f762767a7b07943e6e16faedcaf2ce9d34772356721e7611715",
    ("closure", 7): "97b543623228b6655a32605e967a7f560ebf65a262504bf4c28a26f1aeb5bac2",
    ("density-search", 0): "a9a3ee8310a84dee947d9d0ea418ce47aa7b53b8f54acd375104d6890072960b",
    ("density-search", 7): "bb11dd82f7f76b498092af617d32b2fc98fa8670ccedeea9e4b4a364a0e2bf4f",
    ("dnr-audit", 0): "6d27cc2b17b6b2cc4e9a8feb9365b7f3e475e8fcf34f8be9a110f9a9d2518f7f",
    ("dnr-audit", 7): "4c4e6efa309dc7b385750f3a7177a5eca2d62e38e6943398739af36f6e9a9cb9",
    ("ei-construct", 0): "fe5307931530efd14d3d4e6683981552d85704b02a54fdf1e7022bca04972989",
    ("ei-construct", 7): "bef88f48fa0b76a04b3592779496c4775b9a129b729e290f76d8f43ba36a6f0b",
    ("fusion-check", 0): "1ca8ea5b554e151dae7232dd9f6281863afa0bca2248a699aa9440fca7c2a9f5",
    ("fusion-check", 7): "5acd9aa2951fe3e6da6f8ea7b37e4a5e28781c68de2de0272f1ce13d65cf71fc",
    ("lemma-sweep", 0): "2e8e86cd2c494d54c6d324b72aaade67059127d8d2bf233dc605591085880ed8",
    ("lemma-sweep", 7): "8b9816324557376f58cbc00c4ebeba7f00f129def235f127b9c85ed23fafb7c8",
    ("lowness-check", 0): "38dae873f16da49a5cac9be8fd1cf1f40b682af1dd9ad9d39ee581472c267b84",
    ("lowness-check", 7): "05e75638fe1c26b1ba1244ceef664dbc5bb2238913db990dc9aff35c1757e569",
    ("schnorr-measure", 0): "deffa49a239be4fbaa23a17eadab37a7b1e5a46b3521597cd9e4af0684dfd375",
    ("schnorr-measure", 7): "d515bca71c18aa7f4b74c800fd0aa3264878db04ee53f5c3d8e59d992aae0854",
    ("snr-demo", 0): "3aabfba442a2da7dc118185ca4f65e81efef88f4d36274e85635dd3e71c7f78a",
    ("snr-demo", 7): "16e7d445ec7f5323b41cd72cb16fa3125372098de43a0eb9e9115c6fcd1bff31",
}


@pytest.mark.parametrize("command,seed", sorted(GOLDEN))
def test_default_trace_digest(command, seed, tmp_path, capsys):
    out = tmp_path / "trace.jsonl"
    assert main(["--command", command, "--seed", str(seed), "--out", str(out)]) == EXIT_OK
    capsys.readouterr()
    assert hashlib.sha256(out.read_bytes()).hexdigest() == GOLDEN[(command, seed)]
