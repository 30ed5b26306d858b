"""Frozen stdout digests and exit codes of fixed CLI runs.

Each case's sha256 of stdout and its exit code were recorded on the commit
before the layer it guards changed, so any change to the output bytes of
these runs fails here.  The first group was recorded before the deletion
layer moved from a pair sweep to shared deletion variants.  It covers two
default catalogs, a small widened-g2 catalog, and ``check --deletion`` at
both granularities on codes of constant words (the exact-sweep fallback), on
the zero code (fewer than 2 words), on pool-sized codes whose nucleotide
maximum is 2n-1 or 2n-2, and on both cap exits.  The second group was
recorded before enumeration moved from a breadth-first closure to the Z4
span of the generator rows: ``tables`` in both formats, ``--emit-words``,
a spec the condition checkers refuse (deg g2 > deg g1, exit 1), and
``catalog 7 --cap 1024``, whose ``skipped`` entries pin the cap message.
The third group was recorded before ``PolyZ4`` and ``PolyR`` came to share
one arithmetic body: ``factor N`` in both formats for N in {1, 3, 7, 9, 15,
21, 23, 31}, and a ``--strict`` refusal of a non-divisor (exit 1).
The fourth group was recorded before every subcommand came to build one
document that ``main`` prints as JSON or renders as text: text catalogs for
n in {1, 3, 5, 7} (n=1's zero code prints ``dmin=None``; ``--cap 1024`` at
n=7 prints pair-cap ``skipped:`` strings) and a small widened-g2 one, the
text "deletion unavailable" line of the zero code, ``check`` with every
generator analysis in both formats, and the full widened n=3 catalog (all 16
coefficients, deg g2 <= 1, about 8 s), the only catalog that reaches all 15
ideals.
The fifth group was recorded before codes were sized from a basis ahead of
enumeration, before the reversible and rc verdicts came from generator
membership, and before the catalog analysed each distinct code once:
``catalog 9 --cap 16384 --json`` (the benchmark's catalog op), ``check`` of
a 4,096-word n=7 code that is neither reversible nor rc-closed, and of a
256-word n=9 code that is reversible but not rc-closed.
The sixth group was recorded before x^n - 1 came to be split mod 2 by the
cyclotomic-coset idempotents instead of through minimal polynomials over
GF(2^m): ``factor N`` in both formats for the odd N <= 31 the third group
leaves out, {5, 11, 13, 17, 19, 25, 27, 29}, which with it pins the factor
order and the power-form text of every length the default bound accepts.

A change that means to alter one of these outputs says so in CHANGES.md and
re-records only that case.
"""

import hashlib
import json

import pytest

from dnacyclic.cli import build_parser, main

# All 16 elements of Z4 + uZ4: with --g2-degree-bound 1 the widened n=3
# catalog reaches all 15 ideals.
ALL_COEFFS = "0,u,2u,3u,1,1+u,1+2u,1+3u,2,2+u,2+2u,2+3u,3,3+u,3+2u,3+3u"

FROZEN = [
    (["catalog", "3", "--json"], 0, "40ff0d968d3d0a8084777e0364a68e9bbf081822ed7603176b3b74473fb3b147"),
    (["catalog", "5", "--cap", "4096", "--json"], 0, "420f43559abc7b202a18bb76f5c4c1c0856b57af692f8e985037f299b93bece7"),
    (["catalog", "3", "--g2-degree-bound", "1", "--g2-coeffs", "0,1,1+u", "--json"], 0, "9816821cc99160a0a2fbe82632ef68193ff9f5fe42f9371c8ac9e807828b3dfc"),
    (["check", "--n", "3", "--g1", "[1,1,1]", "--g2", "[1,1,1]", "--reversible", "--rc", "--gc", "--deletion", "--granularity", "symbol", "--json"], 0, "b500dd10402d8f8206560098e97bea0a0195d678210f3b1c60fa17d872afa2a4"),
    (["check", "--n", "3", "--g1", "[1,1,1]", "--g2", "[1,1,1]", "--reversible", "--rc", "--gc", "--deletion", "--granularity", "nucleotide", "--json"], 0, "e0a7f20cb510f0462c98fcf1a02ae9a393caba4a1343e7d1d53ff53e6c76cafc"),
    (["check", "--n", "3", "--g1", "[3,0,0,1]", "--g2", "[3,0,0,1]", "--g3", "[1,1,1]", "--deletion", "--granularity", "symbol"], 0, "30601bc511836a612d22b05600f6a9a728f762fed4e9f2bb23920ecf2762883a"),
    (["check", "--n", "3", "--g1", "[3,0,0,1]", "--g2", "[3,0,0,1]", "--g3", "[1,1,1]", "--deletion", "--granularity", "nucleotide"], 0, "ff93e3916ec09bddf00ad39443a750eddce2af24b4f963a0fe1af9868ca1991d"),
    (["check", "--n", "3", "--g1", "[3,0,0,1]", "--deletion", "--granularity", "symbol", "--json"], 0, "030bf2895365347bae90d04c44267007eddf8be95ea7ae00928b014df9af4dc9"),
    (["check", "--n", "3", "--g1", "[3,0,0,1]", "--deletion", "--granularity", "nucleotide", "--json"], 0, "030bf2895365347bae90d04c44267007eddf8be95ea7ae00928b014df9af4dc9"),
    (["check", "--n", "3", "--g1", "[3,1]", "--reversible", "--rc", "--deletion", "--granularity", "symbol"], 1, "9baba5434a622c572e560797db18578cc28a5809df0531ce319d5e71d4d6e4e1"),
    (["check", "--n", "3", "--g1", "[3,1]", "--reversible", "--rc", "--deletion", "--granularity", "nucleotide"], 1, "9185e77c230d5807b01eeea32a0e764b19bb161cd4cf347e52e60210aff7d3e8"),
    (["check", "--n", "5", "--g1", "[3,0,0,0,0,1]", "--g2", "[3,1]", "--deletion", "--granularity", "symbol", "--json"], 0, "816c71dd002e30317102f47aa85972f4d855c37cede78ca9665fcdfebbdf882e"),
    (["check", "--n", "5", "--g1", "[3,0,0,0,0,1]", "--g2", "[3,1]", "--deletion", "--granularity", "nucleotide", "--json"], 0, "a4056a8d83e924c35ef86f831056923b2dde0bc70448c33d10de5cfd61d20380"),
    (["check", "--n", "7", "--g1", "[3,0,0,0,0,0,0,1]", "--g2", "[1,1,3,2,1]", "--gc", "--deletion", "--granularity", "symbol"], 0, "2592a709452e18ade3e55c18a1c6f9873ad17d5f2e35c5ec1f2a3bc00bf250d2"),
    (["check", "--n", "7", "--g1", "[3,0,0,0,0,0,0,1]", "--g2", "[1,1,3,2,1]", "--gc", "--deletion", "--granularity", "nucleotide"], 0, "ed355c75e437ffb743fc47e6b889ee68a5c616be5d96ddad5079acaeafcfbbd7"),
    (["check", "--n", "9", "--g1", "[3,1,0,3,1,0,3,1]", "--deletion", "--granularity", "symbol", "--json"], 0, "aa5354e6bf6abe551afa2d6b0832e9cadf7f866067e4ec30eb1948e8124e67b8"),
    (["check", "--n", "9", "--g1", "[3,1,0,3,1,0,3,1]", "--deletion", "--granularity", "nucleotide", "--json"], 0, "659cddf86e127d0a54f0ddfa07a1210f3105f6fa0f8d620d1462c69942d4fdf2"),
    (["check", "--n", "9", "--g1", "[3,0,0,0,0,0,0,0,0,1]", "--g2", "[1,0,0,1,0,0,1]", "--g3", "[1,1,1,1,1,1,1,1,1]", "--deletion", "--granularity", "symbol"], 0, "9e8f6f0efb182af7b352f80c3168065c783adbc0236e83d464c41c12f10b5e0d"),
    (["check", "--n", "9", "--g1", "[3,0,0,0,0,0,0,0,0,1]", "--g2", "[1,0,0,1,0,0,1]", "--g3", "[1,1,1,1,1,1,1,1,1]", "--deletion", "--granularity", "nucleotide"], 0, "5a51831defbbad0069f8d9bb4928abb82985d8424cfa040995d48b39432d4bda"),
    (["check", "--n", "9", "--g1", "[1,1,1,1,1,1,1,1,1]", "--g2", "[1,1,1,1,1,1,1,1,1]", "--deletion", "--granularity", "symbol", "--json"], 0, "6004313dbadcaebccbf81c0a2ba499415110e716b9e210118255d26a8ed65669"),
    (["check", "--n", "9", "--g1", "[1,1,1,1,1,1,1,1,1]", "--g2", "[1,1,1,1,1,1,1,1,1]", "--deletion", "--granularity", "nucleotide", "--json"], 0, "9a3e5745dbcadcd48c8f726b5357e3a532cdd831129385d4149952261fb3a82d"),
    (["check", "--n", "3", "--g1", "[1]", "--cap", "5000", "--deletion"], 3, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    (["check", "--n", "3", "--g1", "[1,1,1]", "--g2", "[1,1,1]", "--deletion", "--pair-cap", "10"], 3, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    (["tables"], 0, "d0c1af0be7e85eb411c26652bf5c5a85785346d4d58081085928e54b87e0bd2c"),
    (["tables", "--json"], 0, "ca7981a1387ef311a9dbb4147aa255c2e7ba6b8ad8e2915602faaf4ac520a758"),
    (["check", "--n", "3", "--g1", "[1,1,1]", "--g2", "[1,1,1]", "--emit-words"], 0, "0319ad6d246664b7ab73821d982b2bacda31e879f38499b301eba9898f70febf"),
    (["check", "--n", "5", "--g1", "[3,0,0,0,0,1]", "--g2", "[3,1]", "--emit-words", "--json"], 0, "8e0c0ebd6120cdb17d83d71d7d4834afc4e1e4654a1bf8ccfb8349e693a53371"),
    (["check", "--n", "3", "--g1", "[3,1]", "--g2", "[1,1,1]", "--reversible", "--rc"], 1, "edb43c8d9f9e6ee901b20680e4cb9988349b825119bbc320851e995aaa3b456d"),
    (["check", "--n", "3", "--g1", "[3,1]", "--g2", "[1,1,1]", "--reversible", "--rc", "--json"], 1, "4873d145ccf9936ae82377598129036a3f43d2a76165af57f190021ebcd07a78"),
    (["catalog", "7", "--cap", "1024", "--json"], 0, "42837cf1ad4a076b0b14dff538fb76805689532752e90e2e3c648c4656b4380a"),
    (["factor", "1"], 0, "f2f459aa97efde88b6d799e4b448653d2cbfc05f82b3ce956c45ded49cee7b42"),
    (["factor", "1", "--json"], 0, "50f97c986d33343cc104abab8356362f223c511fee4e58e55e9ca1a6e8beff2b"),
    (["factor", "3"], 0, "badcf247a4f14f1da6f904bdf06c92d29654e0d20a050ecae616b4c10906b986"),
    (["factor", "3", "--json"], 0, "836783f8cbba9480c054f68715b2ede423a155ecf2d22bdd25b3ab9b31ff571b"),
    (["factor", "7"], 0, "6f6b47d2c49649868599f263b50ca352663a8a85df12f652b00d69bddb1593a8"),
    (["factor", "7", "--json"], 0, "ed67081e4e7520a81a2be0857dfc9a6fa5acf91c39c3393275b96c0e4eb6b25b"),
    (["factor", "9"], 0, "0da8034cc265cdf8ad641d86173ddae529431ce19a7f22a148bf22bdf626bff8"),
    (["factor", "9", "--json"], 0, "88061ac5ac8e32fd8ecfcea7c065735a7d2d69266ae4e9609a632c702d2900a4"),
    (["factor", "15"], 0, "53c0ec5806f54c8b03fe52f9adf669ff5259afba355a28706dcbcc21454b5ba1"),
    (["factor", "15", "--json"], 0, "f468d521069919205c8571ee22ba4e367816f9f6dbf3663ff1338053d1ddfbe5"),
    (["factor", "21"], 0, "ba3493433908b0955a76e23e97b337eedac907042156fdb3847181aac3cb03ac"),
    (["factor", "21", "--json"], 0, "e67e123a863a4f58b8fb9c70d9fbc9e63242970eb9919280bb1f621f3eed87ca"),
    (["factor", "23"], 0, "38cbc106de453d4c5e8cab5e14e091bcdd06c7161c4b193616462835add802ea"),
    (["factor", "23", "--json"], 0, "aae9db60ebbb42fcbd16b06c6cdef8b3c56cd3879e32e550a7783997963b1e37"),
    (["factor", "31"], 0, "2b0cbc550a31a00bbfa37440c2d367f4a232a4875a125b1493570d902922612f"),
    (["factor", "31", "--json"], 0, "95e68c224099cd1d6eaf06157a2e84b4e105ad74b0a1700ab4314db4cc6ea6f4"),
    (["check", "--n", "3", "--g1", "[1,1]", "--strict"], 1, "3794dcf738f0110b6058d4a4f3f551439fcdf0699f41425ba0af0e9a8dfa500a"),
    (["catalog", "1"], 0, "ee579752fbda6c33fbd6e07ab09c8b54aad111004c4f88a6fae67dbf98e20285"),
    (["catalog", "3"], 0, "1180af781929461d28e2cd5015699198b40c4f8635b9d502c755506caf94eb6d"),
    (["catalog", "5", "--cap", "4096"], 0, "ab511316d18107471badc9b15dddca061c5cc6621fa5c0039c4da63041d9d608"),
    (["catalog", "7", "--cap", "1024"], 0, "a589aed347eaa92e5cfb3945fba4a7b3dfb5400ec7323609b0168b96f79ee4f1"),
    (["catalog", "3", "--g2-degree-bound", "1", "--g2-coeffs", "0,1,1+u"], 0, "c99ec1e9e256d8861a864c8b512637abb43deea536a7cc80bb37840641566f5e"),
    (["check", "--n", "3", "--g1", "[3,0,0,1]", "--deletion"], 0, "7bae14004838264a179cd10db38f5ecebeaa9bcd472f6c51465e99ff651782a8"),
    (["check", "--n", "5", "--g1", "[3,0,0,0,0,1]", "--g2", "[3,1]", "--reversible", "--rc", "--gc"], 1, "0c403efeb7179e812ffd2addbaddc4865524d0dddd2868d9422c25240109e456"),
    (["check", "--n", "5", "--g1", "[3,0,0,0,0,1]", "--g2", "[3,1]", "--reversible", "--rc", "--gc", "--json"], 1, "69e7e229156739ec713326ff5f9081fe361067f083eda5485c627056736568b7"),
    (["catalog", "3", "--g2-degree-bound", "1", "--g2-coeffs", ALL_COEFFS, "--json"], 0, "0aca428fec17aa4bc573403cfc75c35e944b8011850c1bd9a6e37cc4fb100742"),
    (["catalog", "9", "--cap", "16384", "--json"], 0, "cb1ef5e351da0a9af08c7d3cd9c3bbe98b057a514b83cef15234aecf43327de4"),
    (["check", "--n", "7", "--g1", "[1,1,3,2,1]", "--reversible", "--rc", "--gc", "--json"], 1, "b3827702c0c7dae88eae6496b0bf2ebb68d7e8105138f618871bf5f73a47e4d6"),
    (["check", "--n", "9", "--g1", "[3,1,0,3,1,0,3,1]", "--reversible", "--rc"], 1, "a1b8f762fa0ca53d188fd6a20cc9b1396ae2504f2c7a8038ba33c9ce7de4c9fb"),
    (["factor", "5"], 0, "c8494b32c8c85ba9c60dd30388a65e90969ce34288873fa2c8e53eff68a13f5f"),
    (["factor", "5", "--json"], 0, "e09bdac3eb1cdb1c9515d72d38511d4dac66e40ba473e763ea84a496436da446"),
    (["factor", "11"], 0, "60bad368c37adfa881aa91f0b316c5384fb1f990426825486873b9e3be9c8854"),
    (["factor", "11", "--json"], 0, "271dd58a4f2c3fde87e6cdfccd366b25c5e1e771b8892d41d48e1f6496d73fa3"),
    (["factor", "13"], 0, "53f145468cff291115fffe3bef2304ef8058eb3ba51b7b87ab91205cb1773426"),
    (["factor", "13", "--json"], 0, "cbd7e557efa5d57affda069b98e626573e0b343759c638271ecce376924f04af"),
    (["factor", "17"], 0, "688e8449bd3a4f477122b5abbacfc801e9a684aef4c4761cd0864179bf153728"),
    (["factor", "17", "--json"], 0, "d528f4687967101907dd28c76b4aaf4f83b8032f6c78567f621082a89fcb9ed5"),
    (["factor", "19"], 0, "34cdd7a1769893ab8ab6b42673797e96cbb09e9e7a77e489dc99c0c715d7babb"),
    (["factor", "19", "--json"], 0, "e8fb4c5c48421d0ee018b1ac292f4e80d84b602caa5c96190f523a05fca650ef"),
    (["factor", "25"], 0, "ad3b40dc7003082dc7d5649371de210e18d053b5cb4a66d5796a46895c214eb6"),
    (["factor", "25", "--json"], 0, "501d67139b52d5e6885c3ead0b66cb5b7e6c11a0fed9b3e23e4e7810ed984847"),
    (["factor", "27"], 0, "a724ada2b4664a13e6ef911c23ccdfed254cada9d007a3804bc39d805b63d41e"),
    (["factor", "27", "--json"], 0, "90cd31dac4292f68872af59d21df928cfd5bb7dda6cb7a1eb787f6db4fb997a6"),
    (["factor", "29"], 0, "54d31759b32b1f7e934945d70232acc0fd572a4b7042d7bf991da45552c79221"),
    (["factor", "29", "--json"], 0, "f05ed5a7e7079b3c594d4dba1a43cbcf9cf57ae11cb237f6726c525fb4cf4463"),
]


@pytest.mark.parametrize(
    "argv, exit_code, digest", FROZEN, ids=[" ".join(c[0]) for c in FROZEN]
)
def test_output_matches_frozen_digest(capsys, argv, exit_code, digest):
    assert main(list(argv)) == exit_code
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == digest


# Every distinct argv above with --json dropped, except the cap exits, which
# print nothing.
TEXT_ARGVS = sorted(
    {tuple(a for a in argv if a != "--json") for argv, code, _ in FROZEN if code != 3}
)


@pytest.mark.parametrize("argv", TEXT_ARGVS, ids=[" ".join(a) for a in TEXT_ARGVS])
def test_text_output_renders_the_json_document(capsys, argv):
    # The text form is the subcommand's renderer applied to the document
    # that --json prints, so the two forms cannot drift apart.
    json_exit = main([*argv, "--json"])
    doc = json.loads(capsys.readouterr().out)
    assert main(list(argv)) == json_exit
    render = build_parser().parse_args(list(argv)).render
    assert capsys.readouterr().out == "\n".join(render(doc)) + "\n"
