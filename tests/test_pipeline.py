"""Report bytes of the non-solver commands, and the work they skip.

The digests were recorded before reachability graphs built their
canonical edge lists lazily and before ``unfold`` decided contact without
a canonical graph, so any change in a report shows up here.
"""

import hashlib
import io
import random

import pytest

from helpers import chain_net
from petrigames import fixtures
from petrigames import game as game_module
from petrigames import nets as nets_module
from petrigames import unfold as unfold_module
from petrigames.cli import build_parser, config_from_args, run
from petrigames.nets import check_contact_free, format_net, parse_net, reachability_graph, \
    validate_net
from petrigames.randnet import _draw, random_net
from petrigames.unfold import parse_play

#: Commands pinned on every net below.
COMMANDS = {
    "reach": ["reach", "{net}", "--dot"],
    "build-game": ["build-game", "{net}"],
    "export-game": ["export", "{net}", "--what", "game", "--dot"],
    "export-fairness": ["export", "{net}", "--what", "fairness"],
    "unfold": ["unfold", "{net}", "--depth", "3", "--dot"],
}

#: Commands pinned on chain(2..4) only.
TRANSLATE = {
    "translate-play": ["translate", "{net}", "--play", "{play}"],
    "translate-lasso": ["translate", "{net}", "--lasso", "{lasso}"],
}


def net_text(name):
    kind, n = name.split(":")
    return chain_net(int(n)) if kind == "chain" else format_net(random_net(int(n)))


def undo_play(k):
    """Every user takes ``a_i`` in turn, then one step fires all k
    concurrent undo moves ``ra_i``; the toggle cycles forever."""
    return (" ".join(f"a{i}" for i in range(k)) + " "
            + "+".join(f"ra{i}" for i in range(k)) + "\ncycle: te01 te10\n")


def undo_lasso(k):
    """The first linearisation of :func:`undo_play`, with one idle step per
    user appended to the cycle so that the computation is fair."""
    steps = [f"a{i}" for i in range(k)] + sorted(f"ra{i}" for i in range(k))
    idles = " ".join(f"pass@u{i}" for i in range(k))
    return " ".join(steps) + f"\ncycle: te01 te10 {idles}\n"


def invoke(tmp_path, argv, net, play="", lasso=""):
    paths = {}
    for kind, text in (("net", net), ("play", play), ("lasso", lasso)):
        paths[kind] = tmp_path / f"input.{kind}"
        paths[kind].write_text(text, encoding="utf-8")
    args = build_parser().parse_args([a.format(**paths) for a in argv])
    out = io.StringIO()
    code = run(config_from_args(args), stdout=out)
    return code, out.getvalue()


def digest(code, text):
    return hashlib.sha256(f"{code}\n{text}".encode("utf-8")).hexdigest()


NETS = [f"chain:{k}" for k in range(1, 5)] + [f"random:{s}" for s in range(1, 31)]

#: net -> command -> sha256 of the exit code and the full report
GOLDEN = {
    "chain:1": {
        "reach": "a4a719f04e4d9ddc41eb1dcd7df3bec44be1d6234a336f103271b01f69d1e38c",
        "build-game": "8214da66cd842f2ba52f94d653567bc017b9daa1701250dcff1057b258951377",
        "export-game": "2082fc9b6c903b002827edce5dde17cae1dae25489edbbc392a9145289520be9",
        "export-fairness": "5594043a57afe061c1c3566ae459a0ab19ff4bfd50b9b13da4cbc9a722e4fb4e",
        "unfold": "2f047b775ace98599478236e417f965c1c87785b1be4e2bb5904a59de1022a55",
    },
    "chain:2": {
        "reach": "115f7ef1116e623026cfdffe6cd73bea59aebfd658253c85a6c537dca3111c39",
        "build-game": "e0345e8df20e47215faa31c0535e539785698099d3ca566dde81cf41c04dc1c0",
        "export-game": "4ef56a0f26c39fdf5e6e599641c0d285f908a11b23c9e40014e99cd43f6294a4",
        "export-fairness": "4d9ba6e0ea1087e3a765e6f9b3f63728c619ff80c3eec7cfb56df1429a9f1c9f",
        "unfold": "4b80b0dde2c9b35be02a74ac7b0b08ff859416008373eb32936c0009dcd36a3b",
    },
    "chain:3": {
        "reach": "88d248d803b35392aaf941bb84f08c9f2ec641b4054a46dd80c507e2ffb91324",
        "build-game": "37cfce73fbf82773b168fcaf7e5e1bbe6704db2fadaca1022799051c014b918e",
        "export-game": "246a6cc304f5d042897a0911d3f60b71439569a8907186f7f6eeae60f02972ca",
        "export-fairness": "54ceb69f4f2b12d60c26eb7831e344c70403db74e0447610dd69aad50e47549a",
        "unfold": "06d1d6d70fb9939e66ef7fcca29b64d9d77581faea751603e159e2ef9dbb0b35",
    },
    "chain:4": {
        "reach": "3097fe1f3c0024fe8134553168b543d79a173dd690fa16bcea46d6e59550c1d6",
        "build-game": "e0662bd8265880d35589c480726d4c3c1bf3a379d48b90d1a3319db6cbdc0576",
        "export-game": "3ff20f6f7a81c48f7a0e8c16e07c7c512bac65edf6329d695275e5cce33ac73f",
        "export-fairness": "b4abad29612205951772a1273c901615039a5f1dabbbe15a7c3e08529f752245",
        "unfold": "bc92fbcc0c0f930a90097fa2d04593d398f66aa7f283be9b597233989da3f55d",
    },
    "random:1": {
        "reach": "ea3e32d6aa030414f589ebd5a4d335925458c8da0937d768b4f5b761ae6ef83c",
        "build-game": "53419f218b61a6f64a90886a0056fb3e9b2f7346530df1710efe62bacd0f9509",
        "export-game": "236c329ffa4e588f2cd38acadbcf5fdf1c8cdc16e6410d4b2355b289f2532274",
        "export-fairness": "2822a05a71cdc82f9ba1b55341dde2b1bed3b4c2fa510e496b25ec5aa6fb8efb",
        "unfold": "96ff44cfcab5465375b76213ab4f55c14d267ff48f428130e1de805d5f288f26",
    },
    "random:2": {
        "reach": "5d6b5ea99080e079aa7e3d883358b11ee06d37b8111fa2d84053275714076b34",
        "build-game": "18d10b16895c5230b259bda1140664960144451ab41df6ceeaa4cefa9b3299d7",
        "export-game": "07764ac9c06a924ecab9434284d5a3bcc4ebe365b181cc6e7aa7a91e4843d6f8",
        "export-fairness": "c29aa351c504a0ad29efdbd253719f9515195f823a577217bbd8a9cd64b5c7c7",
        "unfold": "8758dffb2491a2767a5c79de869e36f13e883980499c8830d2bcb5738e3280d6",
    },
    "random:3": {
        "reach": "ecf0b410256efbdd8788e761f205d1c68176760f281a557b662c0af99eadf729",
        "build-game": "3a820b19a5d719d8bf55fe8ab31063814fa0e8fd94a806f29e449c7fb1f2d446",
        "export-game": "25a74d8933531245ad8f7a4dcea4587c79a471b087d042b76511be2ea1694933",
        "export-fairness": "27977b97a2bd1e16a84de5afe3a348a1d1ff5bfdcb5fee0c634212e060c0a3cb",
        "unfold": "b1c03398dd30d13a6eeb61b58a4b1292023c3003c285323cbdfd404dc43c8102",
    },
    "random:4": {
        "reach": "04d77ba7bc458fea2b5857e8c2e2fce918d54ffccdf2fa3fa892b8b6ab67ff2b",
        "build-game": "18f19dbffbb513a98880d80686c954e48ed07d862787166df26619d281ce7dc5",
        "export-game": "7c9be65e946eb1c97e45235bc5946cb3eb9b561d678c32eefdcd0d73ae1cc31e",
        "export-fairness": "1795e3851e05c55cc36a96b5ae1379c4c037eaad7fcec56c56e90011dd61c9bd",
        "unfold": "f874b6dd538a32bdbaab49d5878af2149f74fc71860f55b19a0338a969ca9a4f",
    },
    "random:5": {
        "reach": "9c67f84a33e0e378cab90c5542b5c775093188a780c5812588667396e4b6bcff",
        "build-game": "71555db1299c66b0e1cee64cd3029a70de2233ffe3af4c72865055c1d0dda819",
        "export-game": "48be02ba1461e8940aa8dc5a47d0878a1c382431d69b07668a1887473a1e016d",
        "export-fairness": "313317414d99e88f96c55acca055d775923be7feebef4c1e103cf3a89a62be99",
        "unfold": "2508b886149c19dfebf3f81296dcc286e4e6fd5a351fb0051010c564e989f64c",
    },
    "random:6": {
        "reach": "33a03f4cd08f8f535f1f805b48bb70936940f0fb32a9dd58483a3c3171f5fcc4",
        "build-game": "ae058beed1918c2ae6529a277bbf3eef0110b48ba9edde77d26769b7e174de86",
        "export-game": "09d890729d31bb10ddd3e00de4b99de2036c34864eb8cb11b491801b991c964f",
        "export-fairness": "ffb4bde4bdab48b8aac1f379cb0fd51e2922cdc41d8cc85fb90ec58e82281724",
        "unfold": "b87a364ef2cff45c12fdb198dce7507eaf53d15c62b542304708b82201f40603",
    },
    "random:7": {
        "reach": "b0e1a02670b6242c5e1d7d014edb466bdfa36c9fe2c4c315131f1a5ba5ac0aab",
        "build-game": "8174c4e3898642b28ed4268d40ac3469c859b4e8b554a0f2c5ba1eac482f5634",
        "export-game": "f2fb5a9dd2453db48d51146eae59a217fbbe878e945b902c2debea0e919abd39",
        "export-fairness": "148e4e5049b7d7c722ee4fc9a84e21ac5a3d3fbdb2f877c1cef9ce6f40fb48ed",
        "unfold": "74676f389fecec17141124ce4439a315457f208b7de153c58e8a132f6a6a5594",
    },
    "random:8": {
        "reach": "6173ccce0e23ada1b3161e86a1d86855d4d1fbfd1798aeb66f7fabe3bce03671",
        "build-game": "7b4053f00d94a015ec83e3add8876afc57aabd9266bff2cb00a8abd0e2943ac4",
        "export-game": "26f9d2eec18b05f3f8a210f4244ab756c8a6430f209d49e70df6620e40b28627",
        "export-fairness": "d786ba02be4ee53d53e4a4727ba1bc7ad690f11c67760d2f39d010d581106fe4",
        "unfold": "30e12ee4c4f205229fc15e9a8d715d7ec38cb4eb947d10c4ce77f626d1f2974a",
    },
    "random:9": {
        "reach": "76fa10593a53a2bc8656a826169634fbbffb7fbebee6520818612440f4d7e096",
        "build-game": "dfacfb8b96f53d21d6d8d896756915ab6e63d6916cbcf7eaf8e187cb9e7d9871",
        "export-game": "d10938ef254ed4e05d76c58e6e2da83ccf0c7ad60eace12fb2d05c745beb2b79",
        "export-fairness": "e3b2e5c50164872ebda8597265d379b8413baf07f8f535bf12cdd6a8ce8ec353",
        "unfold": "3363ce4f3460c95d52e21c2d1c3fb7ad260db9f9bcc84c31556f37592756fdeb",
    },
    "random:10": {
        "reach": "8e7bd28c7be5e9fc18c0065a76f6cd20a6c1ff2c0173218a554ee39877e5775e",
        "build-game": "0e86094f493764d614680f8a325a4ede3f84fd6c2b4f0ec9a62f709dccd2560a",
        "export-game": "02b8d84e154efdca69c48eceb1846568368d38c0fb62a16ceca31b0b21e98006",
        "export-fairness": "d848f670af834848bcc054d01b1307f1e3690c1eb0e4cbb8bdbe6f48d56d9eb9",
        "unfold": "a318ef57a408d615ca31cbb63379faa5715b2d48e60529395d1edc226803d964",
    },
    "random:11": {
        "reach": "aa1a8a9b73a4464bba1539456d0d80d2b41030a53bc7c6a20dfbc3d771f35101",
        "build-game": "c20045d9baf71e8d40faf40d57d385c35ae89754a2676eca03998145137fd311",
        "export-game": "2fd5763de97ad0c8a2dc45e840d5b7856f48befff028945750099c0f8c5facc7",
        "export-fairness": "091b54d44bb3fd1441a42226f4ae7b168c0c9baed2861a6fb30d31cb063019d5",
        "unfold": "43e6f5c91377e4a3c0e84596ea4461462dd80faddca98107c4e646f123b6f41b",
    },
    "random:12": {
        "reach": "29d4bbe579d0a6b399c7e5b37357ab51bdc645bd659017078b487e59d0e9adc7",
        "build-game": "db929a32004c2cb7ffad4c42a9af470ebf92726a39abe3be9df267f3433a2b88",
        "export-game": "b607647686f7a5ec8e1408d5770d47e2d7326505900a5b23c60abe694df73134",
        "export-fairness": "ad92f285bff5591037efb1c5f3ca42aaee3a77a01754681c5b8370771a2afca3",
        "unfold": "232f002ddfc93c8c53846311c7aee27d954236160fdcc137fb0d136d015046f0",
    },
    "random:13": {
        "reach": "3f9030c77ab4152e89fb31a661e59d8bee6160cbf7bd31209ee73cd0cadb5fc4",
        "build-game": "f2e1fe9c826276bd0e763a3cb93ea35f7e31a84ade80da07226e8d2dd017a69a",
        "export-game": "14e0a94c4bf65606b7525df485bcd0dbc629c0379acb49e2407f013658c0206e",
        "export-fairness": "5d87b2bc768f1c71385b7b86fa58a73079cf1af869b39e2aef6e51ff61c811fc",
        "unfold": "99ee943bb3f1e300b7c8dc24ef470f3fb81a0781c4d15edc5700f93c8a9bbd25",
    },
    "random:14": {
        "reach": "d34d9f360dbcb8140a72f687d384bfbc12cd1f3906af08a7d38c1e2b2c041461",
        "build-game": "235e50c25c3d61c518452de1adb5deddd6d17b3bc049e8bc5a03c93e2a79fab7",
        "export-game": "897e9feeb6c1ab368dfaccfab9ba65d8224a9d00ac87e0aacb6b84b68c506a35",
        "export-fairness": "1ac98b0aa4b5a37c1935874a358f2a944dde5221c104776fae54725988996806",
        "unfold": "906661a0623c045a8fe81fbe3006f25e2f2a53852e01b3d8129f0ef55f247e05",
    },
    "random:15": {
        "reach": "39d4a9ab8a8af3e46f8b3b55da73b22bf444016716e0684c4e60b7c16c0283b2",
        "build-game": "70677ef4076227971eefc8b370783e459d666d701c513f125d162870318103cb",
        "export-game": "e6a2a31c60bed968fdfc91762456629888a62b50cc0ab169badf646affe1f7b6",
        "export-fairness": "5e33f6e0ff25e77fca15fee551d2419d963d14785dbefe04b7cb9aa84d361b4d",
        "unfold": "993eb025f9a3795253e79137fdc043ecbd3bca52e3a26286c6a5c30833f72ff2",
    },
    "random:16": {
        "reach": "04540a79f9cdb804533170fd8d1f7ddf1e277116d99e3fccdbcb7b3c9c0eaa8e",
        "build-game": "14ce1ab5e6bdf54926e305e77fc01adceef516b16ebf41c6ad69618f4db488b9",
        "export-game": "9c83dae44febfadadeb956da6c3ef50f5f5d4caf6dc49c6f8f932e1d93b5b6f2",
        "export-fairness": "7aeb5d061897bfccc2a99a2e13f81da99b558b06f9642eb15be404361c6b3e1a",
        "unfold": "34a4b8419b2288362450037dbf8759bce73c7d67394761e103b843cf19072571",
    },
    "random:17": {
        "reach": "f52ff37999d44c0abc7ac86c8fc19b186df4ea94df544e81f4064795693a74e0",
        "build-game": "bc31da205ec7786210c73b7fa9bcb1a79b44b5566c95a472ecf411955e3c4a49",
        "export-game": "bac29cedb953bacb814d574d4a6d0d45376d1ec7c0dca7b3d36f52a88d54a89e",
        "export-fairness": "492cefd0bbcdf9301e7015564e8b9b8bdd0019f3b475d12ee6a8f217223c023d",
        "unfold": "2d62878d3b7563d610a6841996320132e669c7b85fec8d0b0ae733ba23cacc94",
    },
    "random:18": {
        "reach": "be99da0022a66d4546fabbdf8a99211385c07b208ab70915cb9dae015f6f6739",
        "build-game": "71830715d6055f74c56186e817f95506255f09eb5ec8cf0fe66d927ceb22f74f",
        "export-game": "721fe0969a59d91abd74c4e0b5bfa1bf2e5d67fe375653b10b7c678f6205d48f",
        "export-fairness": "4148b9b80eaced1697efa80d9c10e3fb161205586f7c85d81dc418f47e12eb69",
        "unfold": "3572edf5fcb772e869634a033cb7eeed13cf38d3c19b4024c11259c3252ebbb8",
    },
    "random:19": {
        "reach": "6f3f6a60db49e65f718cf022ee24d9760ae7d8737486247225afcef15dbbc9ce",
        "build-game": "d623abc7a8472adc502f2f23d71eb2eab861902622d0e5039478a7ad6a8303f7",
        "export-game": "e5d80d2afc0f24a01c8ad6ca527eb0086d466bdfdb383bd99c78cbb5fb7db146",
        "export-fairness": "a36cf1a8b612e24a97796c7cf53033c79e099d8173c8698fdf933773c0bcb918",
        "unfold": "bf8a73cca599cbbba0c1bc350f8ae217270c07216edca0fc62b6858eddf71429",
    },
    "random:20": {
        "reach": "c4efd1337dc8dba04c304bfed1adcf83cb00c0e07c64f1c375956925999cca3f",
        "build-game": "29fd389e386154d7a05705dba9b41bb12e03b134b96b50cd5021960cdfa80d27",
        "export-game": "597a1d1e72687643e37dd22d7f2245fa57638c28e39138b41d9e60392919ad64",
        "export-fairness": "b54a1bea3dff2077caf35e12b58d421fd4c81826106e6d345489f3e2449359e8",
        "unfold": "02eb824bd49a63b9dea233c6a4c05e9160f0b6990aedcf9bdf896551f6a19e8a",
    },
    "random:21": {
        "reach": "5d2a1197d08e17faea5fd83cff86f63c5a5fbc2db21c75cc0cc2952d25d22778",
        "build-game": "e94c63b26f2a4c21e1aa09341884e127b6b9b4d838f0d949f56c09bd9c2b3cb8",
        "export-game": "64afb2b4ad9d0cee87eba24a251a1d4d9bae603630b6502a3655b75c79501373",
        "export-fairness": "50d02da0a5d0da9d5dd382bd44bb38df98c01093ce8799f643dc518795f63739",
        "unfold": "b6da217bb4fb7d0c724476daa7995c2fa293b8dbf06ce72f76d9f205bd9f5d0e",
    },
    "random:22": {
        "reach": "c72fe8d0b4fb9963fafe878269681e3ef33ade7d3573f19754cb6c92c28d0d72",
        "build-game": "9e9e1bcd9d822ed882c155067b006c0a7eeaee01be9360877c7430a153ef8cdc",
        "export-game": "01bdb102a19ee0050b029aef4198870fd4f4e54e71183ead9d2145b57bc41a5a",
        "export-fairness": "66254762e6ecd580cc973f10a329d399b707fde6409cec34eb56469b9401a501",
        "unfold": "b58f50e02e337fa5e0981eccc22119684f40f749740f6354bce07260c27f4ae4",
    },
    "random:23": {
        "reach": "cd8bb5611f7cd9a87d907e4ae825968bef2271797797da10bf85da948be1d0b1",
        "build-game": "0838b6285e89202ae57ad2bc6b34560169fe75c6345436ec6639d6141b020587",
        "export-game": "2ee9b322f96087b6353cd96bc98eec7dd8fba606e8db6fca21e0d260d9fb4227",
        "export-fairness": "d5c02d841b1ed817fe028d309bd641e33202c0b3a9cad955b71c690871e2c5c4",
        "unfold": "78176a128ef74f4190557251231ed69a4bd92f04860cddf4e1bbaa66fe1e0906",
    },
    "random:24": {
        "reach": "c320c2f1e1ef184aeb730006f10ccddd6e59e5e76b7557eabb635547e94d3aef",
        "build-game": "ab6115131703f4fbdf87db877311a3cca38a90f633b71ae578280ee9d5b7efac",
        "export-game": "72868839d07eb2f5fdc37bd4e881a14d710982475570b8bb2ea486c79b8e635e",
        "export-fairness": "2af8039aed827e435a03115fd5d35be403eca1049c4035dbc0d1a4bb3ee07c8b",
        "unfold": "7fdcfc2854835e1d0a97e45eeffdf4ffb4522935f36837b6d04d5e5107a7c703",
    },
    "random:25": {
        "reach": "30e2a194fbfb00f3ab296f312de43c66fc7a88789ae35746a748112f455097dd",
        "build-game": "8a3d0bcfb0dfc41dd2a6b2487c50fdeb29f1bb6cddb5f68aad4323b152b6f1b8",
        "export-game": "60a11aae1a3afa26b183f38af53dd792600a1153e5b4b9e63dff9ad7ce82f3bd",
        "export-fairness": "03f60ca72356824c107e1345ec778421444051e3024169bbcfd1b5b509cf39b9",
        "unfold": "e9a529a66b6f9ae4095f0b731a663f37700fa87cfcdab94de48c4d9e242749a6",
    },
    "random:26": {
        "reach": "345f2bde298ad7deb31c79404ee1686612eb365daf5661db58d4a2c36ea5ad84",
        "build-game": "b99c53545ee06f7a21f5d5dcd00efc268b3c18d6ff7d5192247e43e41f16b1d7",
        "export-game": "62e83be730aa968b37a33109f12144f398a5dbefb57a9148a5241ccd56e6ca12",
        "export-fairness": "9481a51f1c1d3f611059cbe7f5388ce956b6fc674ff7bd2e1a19902af5d4cbf3",
        "unfold": "f4e766a0cb259d7394aab7001c630fd3227ca69331dc053fd4d7c5179a7675b0",
    },
    "random:27": {
        "reach": "1eba16215259e83abc026b0c5487375445e2c3332c7e1f37b0c02d9ca101dd9e",
        "build-game": "8709434e7d5e0f32fb6f78ee826438ddd6a4fb466b659f9df23c56f10ec50e11",
        "export-game": "70a2ae75800be71511caced99cb0215830494b4010ed9d6bb5976815a73a3b91",
        "export-fairness": "bf7634fd6c23eb462341e82cae5bd5295b1d001a3ebd0cedea933e7390fea0b3",
        "unfold": "6350b3d88e86a6296cf817ce31bff922404b7d57d0fc0b47e4c6e4cbac6e99d2",
    },
    "random:28": {
        "reach": "e71187aca63ed33dd75b72dcef7fa1772439c933f3e2ab3f231a456bcc7a4884",
        "build-game": "d416d52fc5fc88bb1db5c6e8643537e042ce3df47a7246e9c0907002638c7aec",
        "export-game": "554471422366229eba64d045c2796a13e4614a177c6c193ef0b093e00f34e305",
        "export-fairness": "7ba7d4451f91ff65c3d1eb4bdc73209dc59335ae01af3c8bfa035e7dd364bea5",
        "unfold": "4d877b8e3fc6f4f2d83f036aa0dadbcfc3e9bb498eaa202f9a7d54418e3370dd",
    },
    "random:29": {
        "reach": "8fcfb1aab8a839b54f687acec0142cf9da44ba26a07eddfa263dcd19670bd6cf",
        "build-game": "82012f2b237a530d2ff1f56534166b16f8b0541f62cd84e408961e6af1d62d65",
        "export-game": "8f1e157f2d6d140f3090aec69090e8408667a711b0286b041c1b97bbc018ba10",
        "export-fairness": "116b18f4925d8c5b82a33d9bdeecec44dba81748ec9c2d98159845ec1aa88fec",
        "unfold": "3367cd40559522ea9f9d8af55dcb94495979a494cbc947833ec77a6675878543",
    },
    "random:30": {
        "reach": "2b51033a98787442478085586b7be64977e953470330eb834e15ad988db83517",
        "build-game": "d3419b3dcaa0b42f82c4cb2ee760523c2172806b5e8d59a1ec6a2761dd172eb9",
        "export-game": "eaf3832651286350684aaa179c27b9ea0d5ae1dae0f8a7483c2371ca66d26544",
        "export-fairness": "9a19e5fd744ae670ae9b91960af88b0ceb595a266cba913181b4d22eea643a58",
        "unfold": "0e29ad501e31afcf49b480c901895bfd108b2fb43aa2ac3a67f832d9bd355185",
    },
}

#: chain(k) -> command -> sha256 of the exit code and the full report
GOLDEN_TRANSLATE = {
    2: {
        "translate-play": "b90ed408aa4f540bf946788cb721cf30862e1c039c03f736a6df2d41c7b4df70",
        "translate-lasso": "dd99da53284abb50c4902f1caf7b7001fc5eb5d5fd0651dc4447238dbb46fd41",
    },
    3: {
        "translate-play": "e1e67c3d6bbbd51e3b3906099430301655fd034bc54a5562490fa17126a52b5c",
        "translate-lasso": "0f83675389d2e12053dea27c505929a3afbfb42893fa49d6e2511445918544c5",
    },
    4: {
        "translate-play": "588ce656d7bf743316027469f4b4f75f31784bb018ba43b7372ff0d5dff43b43",
        "translate-lasso": "5fa72d60344188feb9ff5b26b56248e6735a72bca141591c000705ec2614d169",
    },
}


@pytest.mark.parametrize("name", NETS)
def test_reports_match_golden_digests(tmp_path, name):
    text = net_text(name)
    got = {cmd: digest(*invoke(tmp_path, argv, text)) for cmd, argv in COMMANDS.items()}
    assert got == GOLDEN[name]


@pytest.mark.parametrize("k", [2, 3, 4])
def test_translate_reports_match_golden_digests(tmp_path, k):
    got = {cmd: digest(*invoke(tmp_path, argv, chain_net(k),
                               undo_play(k), undo_lasso(k)))
           for cmd, argv in TRANSLATE.items()}
    assert got == GOLDEN_TRANSLATE[k]


def test_unfold_contact_error_report(tmp_path):
    code, out = invoke(tmp_path, ["unfold", "{net}", "--depth", "3", "--machine"],
                       fixtures.CONTACT)
    assert code == 2
    assert out == (
        "error: net is not contact-free: transition t has a marked post-set "
        "at reachable marking {p0,p1}\n"
        "---\n"
        "command: unfold\n"
        "net: contact\n"
        "error: net is not contact-free: transition t has a marked post-set "
        "at reachable marking {p0,p1}\n"
        "exit: 2\n")


# -- contact without a canonical graph ------------------------------------------------

def test_contact_only_check_agrees_with_graph_on_drawn_candidates():
    """Raw random candidates, many of them not contact-free."""
    contact_nets = 0
    for seed in range(1, 201):
        net = _draw(random.Random(seed), 6, 6, 2)
        if net is None or validate_net(net):
            continue
        witness = reachability_graph(net).contact
        assert check_contact_free(net) == (witness is None, witness)
        contact_nets += witness is not None
    assert contact_nets >= 20


# -- work the commands skip -----------------------------------------------------------

def count_out_reads(monkeypatch):
    reads = []
    build = nets_module.ReachabilityGraph.out.func

    def out(graph):
        reads.append(graph)
        return build(graph)

    monkeypatch.setattr(nets_module.ReachabilityGraph, "out", property(out))
    return reads


@pytest.mark.parametrize("argv", [
    ["build-game", "{net}"],
    ["export", "{net}", "--what", "game", "--dot"],
    ["export", "{net}", "--what", "fairness"],
    ["translate", "{net}", "--play", "{play}"],
    ["translate", "{net}", "--lasso", "{lasso}"],
])
def test_game_commands_never_read_canonical_successors(tmp_path, monkeypatch, argv):
    reads = count_out_reads(monkeypatch)
    code, _ = invoke(tmp_path, argv, chain_net(4), undo_play(4), undo_lasso(4))
    assert code == 0
    assert reads == []


def test_reach_reads_canonical_successors(tmp_path, monkeypatch):
    reads = count_out_reads(monkeypatch)
    code, _ = invoke(tmp_path, ["reach", "{net}", "--dot"], chain_net(4))
    assert code == 0
    assert reads


@pytest.mark.parametrize("argv", [
    ["unfold", "{net}", "--depth", "3", "--dot"],
    ["export", "{net}", "--what", "unfolding"],
])
def test_unfold_never_builds_canonical_states(tmp_path, monkeypatch, argv):
    built = []
    init = nets_module.ReachabilityGraph.__init__

    def counted(graph, *args, **kwargs):
        built.append(graph)
        init(graph, *args, **kwargs)

    monkeypatch.setattr(nets_module.ReachabilityGraph, "__init__", counted)
    code, _ = invoke(tmp_path, argv, chain_net(4))
    assert code == 0
    assert built == []


def count_calls(monkeypatch, name):
    calls = []
    original = getattr(game_module, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(game_module, name, counted)
    return calls


def test_translate_play_decides_fairness_once_per_computation(tmp_path, monkeypatch):
    calls = count_calls(monkeypatch, "_cycle_fairness")
    code, out = invoke(tmp_path, ["translate", "{net}", "--play", "{play}"],
                       chain_net(4), undo_play(4))
    assert code == 0
    printed = out.count("-- computation ")
    assert printed == 25                  # 4! orders plus the repaired one
    assert len(calls) == printed


def test_translate_play_materialises_once(tmp_path, monkeypatch):
    # validation's two-pass run also gives the linearised prefix gaps
    built = []
    init = unfold_module.MaterialisedPlay.__init__

    def counted(mat, *args, **kwargs):
        built.append(mat)
        init(mat, *args, **kwargs)

    monkeypatch.setattr(unfold_module.MaterialisedPlay, "__init__", counted)
    code, _ = invoke(tmp_path, ["translate", "{net}", "--play", "{play}"],
                     chain_net(4), undo_play(4))
    assert code == 0
    assert len(built) == 1


@pytest.mark.parametrize("k", [2, 3, 4])
def test_play_computations_are_not_validated_again(monkeypatch, k):
    # play_to_computations builds each computation with tau, so it applies
    # only the fairness rule; lasso_is_fair, which validates first, agrees
    net = parse_net(chain_net(k))
    g = game_module.build_game(net)
    fcs = game_module.build_fairness(net, g)
    validated = count_calls(monkeypatch, "validate_lasso")
    lassos = game_module.play_to_computations(net, g, fcs, parse_play(undo_play(k)))
    assert validated == []
    assert lassos.fair == tuple(game_module.lasso_is_fair(g, fcs, lam).fair
                                for lam in lassos)
    assert len(validated) == len(lassos)
