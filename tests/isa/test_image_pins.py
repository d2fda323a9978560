"""Assembled images are pinned byte for byte.

The digests cover the text, data, symbols, relocations and entry of
every workload (standalone and hosted) and every Spectre variant (both
flush methods), as the per-token ``.word`` encoder produced them.  The
one-call packing of all-literal ``.word`` lines must reproduce them.
"""

import hashlib

import pytest

from repro.attack import SPECTRE_VARIANTS, SpectreConfig, build_spectre
from repro.isa.assembler import assemble
from repro.workloads import ALL_WORKLOADS

PINNED = {
    "basicmath/app": "a1cbbafa8d0052504b08ebb8fb5471ff84a505a443cba9644cbe79c778702373",
    "basicmath/host": "7af88b6a77be4409f492a80d36833f55c3755fd26065de60453099240b7b1b39",
    "bitcount/app": "059e64b0c000050ecad2dd336db3430f3aef402909b27a89f6027265ba281eea",
    "bitcount/host": "1d362e419510e4e098d5fdb5d4687204eed91f9ee1cb3694ff2a3f77966643a0",
    "sha/app": "71f1eeeaafa05474ec92ced3aff398063a4decc249a3def39e8d43a3d40bad4d",
    "sha/host": "547e9e78dd89b02b4eab6dd60a3aea76e1e8e30feccee1cbcdc8ec0572ccddc7",
    "qsort/app": "01a0f5bc871782ff4ddbb4f6ad7cb01b977066b52211b4f9765e690c568e1574",
    "qsort/host": "ce17d7c539f356b119e66203fcf4c70eacf51c3004e2b88512fffc67e53791cc",
    "crc32/app": "dcf59b96d1022d32997433207a5e9f7c4b29e41e70c6af163e3e67b912c92535",
    "crc32/host": "418961185441e9b26727b787310a60dac8d2101fefb66077e0f113e049099e79",
    "stringsearch/app": "e81a813a20463a52cda4db58765cc9b36526444a795c9fda720bd23350a83107",
    "stringsearch/host": "c860525b7d19d8477f1b898349de522ba2fa1236f9339428be6f20dadc412e38",
    "dijkstra/app": "da3c26a59a431c0444516506d31412032a07fb50a4bf9a267ef8c304f4054bc7",
    "dijkstra/host": "a7c189f080995a8eb9a7e2363e7ad7d16c8020cbedf941ea22a6c4f6d694954d",
    "fft/app": "97a3e212c7ad838f291661da1e276f753851143166257ade36875f04eff9a139",
    "fft/host": "da42596e94a2014a6b5f01d92c4e8627822048018a327ca478e819f776a3aee0",
    "rijndael/app": "e3b3dbdcbe0d6d4136c7ccc087f216e3a20b4369059665681c7a452df85dd622",
    "rijndael/host": "c193f04c8fc9dd9671999b75d602344f1692f31669fa57ea7aebc432dac78fdd",
    "adpcm/app": "f6f5a2929b684bd83b7c4fd824e11b86e5bd0b010d4752328a1f2b4279de0e01",
    "adpcm/host": "69e4da569ec3d5d5ea83ebc41ffea533a8103dffce4898010d1ccbe1e3c66bdb",
    "patricia/app": "3982f814fd0f30d602ff22cda3acdddb839b315fee9d9b0e4581f7284c165298",
    "patricia/host": "ffd8df2385db91d809c726b11a5efb266ebf52762ae565db3d757b36b4cca24c",
    "susan/app": "141016ec3097100e62e4000ae7474e122be2a16d85fd040c316d2fe33eb575e0",
    "susan/host": "81a40997371920133b44744d7b9e34339e6582ed9b1361899253d32191c2f733",
    "browser/app": "0b5481cb261214f159623eec61dc39ca71a34329add2527716520f535d8eb2d0",
    "browser/host": "98ed608b5c94b7cc170a9bf58cf3aeccd400f17eaf720a35fda0871bdd055057",
    "editor/app": "65585f71ade340aee64c88ac6316deded772a9f2f0a1c8dc2aaf86b1fe2ce52a",
    "editor/host": "63c36e60338ffa1ff4044ce82997c03e0e1b7a5da21fb949b683d17ca84dd15a",
    "hid_daemon_light/app": "da4be36a7f6f45b42a89c429bbc61689e84a2cec0c71499ed302094da001d0e7",
    "hid_daemon_light/host": "723ff46946bdee55c3e40c96c8251b9f9c4ad877f203f8787cec1ee871d7b2c7",
    "hid_daemon_heavy/app": "53844d3a55a92046cc9032283ecfefce1e4ef52c4f7acd15a6c972fab1420ca0",
    "hid_daemon_heavy/host": "b4c8ffa6eb0f8cc07d40a2d8757529b74f4f8822475d5e49c4dbda994690fdbd",
    "spectre/btb": "2fdced8e969d737cc83bc1b6e70dd005ee42d037d50502ead9800c41788d2595",
    "spectre/btb/evict": "16f1525ba06a4b83c325c8ee2dbc16b6f1a6d9ebc061913701808a8e908cb484",
    "spectre/rsb": "afb9df515bb00cf15be08dcc18209514efbd223fc168e0e685b9b9afc61fbe12",
    "spectre/rsb/evict": "a7ec13abfba7cc0f3cc0736eb239358960e1f0fc390b60b462e32ce134c778b5",
    "spectre/sbo": "31d9bd6f04f85de33b41bd18552c8419da84d5023ad33d2c2c360527a65ce980",
    "spectre/sbo/evict": "fb9c18e43da6b6ccfd8bcc6011ff946aef248ba115ec136b14450a71f91a1107",
    "spectre/v1": "8ce2d2b9787f9656e93b978954f4dccdc48ed29f92918aadccacd5f584652f04",
    "spectre/v1/evict": "9239aad06c87cdd597f0f4350c796eef7811b7b975da897c2a6fce3ac574ace1",
}


def _digest(program):
    h = hashlib.sha256()
    h.update(program.text + b"\0" + program.data + b"\0")
    h.update(repr(sorted(program.symbols.items())).encode())
    h.update(repr(list(program.relocations)).encode())
    h.update(program.entry.encode())
    return h.hexdigest()


def _build(key):
    name, variant = key.split("/", 1)
    if name == "spectre":
        variant, _, flush = variant.partition("/")
        return build_spectre(variant, SpectreConfig(
            flush_method=flush or "clflush"))
    workload = {w.name: w for w in ALL_WORKLOADS}[name]
    return workload.build(hosted=variant == "host")


def test_every_build_is_pinned():
    expected = {f"{w.name}/{kind}" for w in ALL_WORKLOADS
                for kind in ("app", "host")}
    for variant in SPECTRE_VARIANTS:
        expected |= {f"spectre/{variant}", f"spectre/{variant}/evict"}
    assert set(PINNED) == expected


@pytest.mark.parametrize("key", sorted(PINNED))
def test_image_is_unchanged(key):
    assert _digest(_build(key)) == PINNED[key]


def test_literal_and_mixed_word_lines_agree():
    """A literal line packs in one call; a line with a symbol or a
    char literal goes token by token; both give the same bytes."""
    program = assemble(
        ".data\n"
        "x: .word 1, -1, 0x2A, 0b101, 4294967295\n"
        "y: .word 1, -1, 0x2A, 0b101, 'A'\n"
        "z: .word 1, x+4, 0x2A\n"
        ".text\nmain: ret\n"
    )
    words = [int.from_bytes(program.data[i:i + 4], "little")
             for i in range(0, len(program.data), 4)]
    assert words == [1, 0xFFFFFFFF, 0x2A, 5, 0xFFFFFFFF,
                     1, 0xFFFFFFFF, 0x2A, 5, 65,
                     1, 0, 0x2A]
    [reloc] = program.relocations
    assert (reloc.symbol, reloc.offset, reloc.addend) == ("x", 44, 4)
