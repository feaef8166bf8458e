"""Seeded command outputs, pinned by their SHA-256 digests.

The digests were taken with numpy 2.4.6 and scipy 1.17.1.  Any change that
moves a byte of these files must say so and pin the new digests; another
numpy or scipy release may round differently and move them too.
"""

import hashlib

import pytest

from smap.cli import main

GOLDEN = {
    "run --iters 2000 --seed 4": {
        "trace.csv": "e4723882778b17245cbbb2c4e87f972ecbe9dc6b9c1787198654043742dc9ae8",
        "summary.txt": "5798d9d40981775fdd1ced0f6138e96ce434b41a9cb16bf2e478a65f53436690",
    },
    "run --iters 2000 --reuse 5 --taps 12 --seed 3": {
        "trace.csv": "22a85d3c3ca1d48c303b15741517f32a8d1c13331a9e4c168e50326efcd9f79f",
        "summary.txt": "659c6f7caeea29e082cbcd5f4fc2ac685d07c788ba1d537f2435baa2e4a50f8d",
    },
    "run --iters 2000 --cv sccv --seed 3": {
        "trace.csv": "006746cf324047aeaff813d635ae240ce63251af96ddd86ecea8e16a7ed1ef26",
        "summary.txt": "6cf795a45c0ee160277fdbce904e4ea994eae666410ee6a2f9e313d5b85be6f3",
    },
    "run --iters 2000 --cv noise --noise-scale 0.5 --seed 5": {
        "trace.csv": "ee716943e5c75888c61ebfb0a5da0058900fc001ff1e303fbb4f0eea8dc239a7",
        "summary.txt": "af19a6ab0f2fed26701881ea7313f3655ad160298df6a5d67bfe05b80f652258",
    },
    "run --iters 1000 --mu 0.5": {
        "trace.csv": "fd95c89095fc2a4a3463274c19b9fd46c735ce703fae66a895d4803b66a3ff04",
        "summary.txt": "9460c9ddd587981e55a621f34cb91e0d731b1a958aa2d02ac6d24f06dd2bc710",
    },
    "run --iters 1000 --ar=-0.9 --seed 2": {
        "trace.csv": "29488051f6d09941fad97f2832ffe912b0d4d253c38530fe2ea2a2c261993287",
        "summary.txt": "1582d2ee4cab18e54712fda935eaee09ee4570d7bc916d50f43ffbd4198311ae",
    },
    "run --iters 500 --ar=0 --taps 1 --reuse 0 --seed 6": {
        "trace.csv": "cee135e8d04aba20fce6ca28b31d426e2b9970ab524a761f146081225606906b",
        "summary.txt": "f1fe471691967ac4bc9d25efb1cfe72c48c6ec928c120c50e713d623da8f9e88",
    },
    "mc --iters 300 --runs 5 --reuse 4 --algos smap:fixed,smap:sccv,ap:0.5": {
        "mse.csv": "33707a3d39d1a20dbba9d97632f304064ed36c55cf86171cec90eb1399d054c9",
        "summary.txt": "366a6df918e6404165641e519f28ed329b42f99587d38c209640126069db4b3b",
    },
    # taken with the engine that stepped every run one sample at a time
    "mc --iters 2000 --runs 8 --algos smap:sccv,smap:zero,smap:fixed,smap:noise --seed 7": {
        "mse.csv": "c2ae507d7100cbf5f31c3107a4819ac97132fcf5b5ec6278477903a0b880596b",
        "summary.txt": "6751f1ed81e04954eccc26236d0613e700ccfbc51791eaca399b9f2096e48b9c",
    },
}


@pytest.mark.parametrize("command", list(GOLDEN))
def test_seeded_outputs_match_pinned_digests(command, tmp_path, capsys):
    assert main(command.split() + ["--out-dir", str(tmp_path)]) == 0
    digests = {
        name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
        for name in GOLDEN[command]
    }
    assert digests == GOLDEN[command]
