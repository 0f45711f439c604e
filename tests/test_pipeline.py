"""Report bytes of the non-solver commands, and the work they skip.

The digests were recorded before reachability graphs built their
canonical edge lists lazily and before ``unfold`` decided contact without
a canonical graph, so any change in a report shows up here.
"""

import hashlib
import io

import pytest

from helpers import chain_net, corpus_net, undo_play
from petrigames import fixtures
from petrigames import game as game_module
from petrigames import nets as nets_module
from petrigames import unfold as unfold_module
from petrigames.cli import build_parser, config_from_args, run
from petrigames.nets import format_net, parse_net
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
    return chain_net(int(n)) if kind == "chain" else format_net(corpus_net(int(n)))


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
        "reach": "bbe1add8f61a6fa579b5f5c84d80865dd01491832f805e8ecc8c826ff41065b4",
        "build-game": "ba9b89f4b190be9fe417d3f0539010b42a8e60988ae062d70892aad972c2f4e1",
        "export-game": "2082fc9b6c903b002827edce5dde17cae1dae25489edbbc392a9145289520be9",
        "export-fairness": "5594043a57afe061c1c3566ae459a0ab19ff4bfd50b9b13da4cbc9a722e4fb4e",
        "unfold": "b4d53d99b53a757a065c808109f565160e93b86b53a9444fc9d4f107ddeedd2d",
    },
    "chain:2": {
        "reach": "29d6cb34ebcd5f62060c28a7462ec551320b640d2a30530356afef1c08b02102",
        "build-game": "f71cf80815303253eb6175e25631f4fbb76f48f0feef3b801a36c5df076498f3",
        "export-game": "4ef56a0f26c39fdf5e6e599641c0d285f908a11b23c9e40014e99cd43f6294a4",
        "export-fairness": "4d9ba6e0ea1087e3a765e6f9b3f63728c619ff80c3eec7cfb56df1429a9f1c9f",
        "unfold": "0e8ab34c89fbda0d3be3d054c62321ac743edda94382e6e265aa40f551a5b382",
    },
    "chain:3": {
        "reach": "7a262e5a92eb5a513ec2246bfb01b9c1915e9618b5e7a738a15d7529fc9c4399",
        "build-game": "26f1de3965bfb4e0f717d392ce6de07501c7f93ddcda272001e67d4a589b28cc",
        "export-game": "246a6cc304f5d042897a0911d3f60b71439569a8907186f7f6eeae60f02972ca",
        "export-fairness": "54ceb69f4f2b12d60c26eb7831e344c70403db74e0447610dd69aad50e47549a",
        "unfold": "47d72d090725acd6d0c6925d5e5931e7d943350c2232828767f73319ff1ef739",
    },
    "chain:4": {
        "reach": "c7a26de1a6b64deaa0a55c883fe0a4481ad173b73a80c5981ecf0600c653b9df",
        "build-game": "da1a6ec77f98349a221dd7f085be682f2a2604932b0336b644433c5726a393af",
        "export-game": "3ff20f6f7a81c48f7a0e8c16e07c7c512bac65edf6329d695275e5cce33ac73f",
        "export-fairness": "b4abad29612205951772a1273c901615039a5f1dabbbe15a7c3e08529f752245",
        "unfold": "a4834ac75e86cc09b10abd089cda993b2080419f05e4ea538dd3a7b42842f564",
    },
    "random:1": {
        "reach": "76055541f12ef7f774189adba124d1eb53c7a80a0c4ab558765b141e61790355",
        "build-game": "53891cbf57d577027bc862d41566a022f144a21054726e90bf6918e81cb8e996",
        "export-game": "236c329ffa4e588f2cd38acadbcf5fdf1c8cdc16e6410d4b2355b289f2532274",
        "export-fairness": "2822a05a71cdc82f9ba1b55341dde2b1bed3b4c2fa510e496b25ec5aa6fb8efb",
        "unfold": "4e6b44b38a0a2f8ebf82674e98b17ea4973cb0fd8a998f756d13cace036ff0d6",
    },
    "random:2": {
        "reach": "753ad2f7ef25a2f8dbec153a14e81d660ff58228fde13cc1946d098af1820352",
        "build-game": "0675563460284191961464a1f2de547df270fb05c7259be70a2d05c431831657",
        "export-game": "07764ac9c06a924ecab9434284d5a3bcc4ebe365b181cc6e7aa7a91e4843d6f8",
        "export-fairness": "c29aa351c504a0ad29efdbd253719f9515195f823a577217bbd8a9cd64b5c7c7",
        "unfold": "3d5eab56b651f809a492dd2d287cff09a175335ba51f2039faaeb7e0aa967b58",
    },
    "random:3": {
        "reach": "129a99980e210089635124dc9dd7355ba76a3348fe9ad36943b658623c5dfda5",
        "build-game": "51a81de9aa6332899ce5bea13a551624d919b0377a62b9a5a29c5f189697617f",
        "export-game": "25a74d8933531245ad8f7a4dcea4587c79a471b087d042b76511be2ea1694933",
        "export-fairness": "27977b97a2bd1e16a84de5afe3a348a1d1ff5bfdcb5fee0c634212e060c0a3cb",
        "unfold": "9de994f34b891b06362e1d351c60032a903a3b235ad15eeb96f7a494a7dfc7d7",
    },
    "random:4": {
        "reach": "15028076836721d5476207613565edc51efb868e22c766f0a37abf8d0e21d53b",
        "build-game": "6cd5d33fd1590dd7e6aa85b95ffa399c908c4482cfcfa202799113624af94004",
        "export-game": "7c9be65e946eb1c97e45235bc5946cb3eb9b561d678c32eefdcd0d73ae1cc31e",
        "export-fairness": "1795e3851e05c55cc36a96b5ae1379c4c037eaad7fcec56c56e90011dd61c9bd",
        "unfold": "7db05081a584c0ddbc6f849162347a87a5e32be9107737cbad1312f36236d6b7",
    },
    "random:5": {
        "reach": "f9bd8e4e7f0f141e309fffc4f679674afbb7727dfed7c8ecf24d279e9685be7c",
        "build-game": "11c45c03f511b82a118f3ab820c69bc8dcaf4338cfd70b67c016864073568738",
        "export-game": "48be02ba1461e8940aa8dc5a47d0878a1c382431d69b07668a1887473a1e016d",
        "export-fairness": "313317414d99e88f96c55acca055d775923be7feebef4c1e103cf3a89a62be99",
        "unfold": "b3077b38d8283f539152f7e830da1d90caee80ee246b067f015fac3a09278b46",
    },
    "random:6": {
        "reach": "c18632973bcf7853201adfe9f10149b9d2aad8a47e32e01bcffdcc8a1e249f82",
        "build-game": "b0b69396849c21911e1a8822a2a80abe24f431d71448eb5438a1d839882d014e",
        "export-game": "09d890729d31bb10ddd3e00de4b99de2036c34864eb8cb11b491801b991c964f",
        "export-fairness": "ffb4bde4bdab48b8aac1f379cb0fd51e2922cdc41d8cc85fb90ec58e82281724",
        "unfold": "aa9e6b42de0657d752c5d7d96cafc28486c4ea223ae7b8b41d7f38b010184451",
    },
    "random:7": {
        "reach": "86bc96be75b45cbb306ad21428729a1324a381e39b30c16fd628b2e3fbd870c3",
        "build-game": "3812f257d6789d01a24e5d5cad45bb88d3537dffaf6b08b56fcb9e7b94f59258",
        "export-game": "f2fb5a9dd2453db48d51146eae59a217fbbe878e945b902c2debea0e919abd39",
        "export-fairness": "148e4e5049b7d7c722ee4fc9a84e21ac5a3d3fbdb2f877c1cef9ce6f40fb48ed",
        "unfold": "6f61b199d383c49a4251607276de82f28d6c0cfb008362788c905abf66a1669b",
    },
    "random:8": {
        "reach": "562a66247f1184d3a344ec42b629b9532edcc5a9f46780d23997148921fbde09",
        "build-game": "f45ede21d7ecceedc4d6f4d9eee5d6f044e48fb9caaf885842ed3874f2608b97",
        "export-game": "26f9d2eec18b05f3f8a210f4244ab756c8a6430f209d49e70df6620e40b28627",
        "export-fairness": "d786ba02be4ee53d53e4a4727ba1bc7ad690f11c67760d2f39d010d581106fe4",
        "unfold": "d2104668e6029c694bfc2605c88627df80cb66119d67b3e3815292a62c7539c3",
    },
    "random:9": {
        "reach": "4b8d09a05245ea6d77abf9fdab5eba8ac643f351a8690f4959acf7afbed60062",
        "build-game": "de2b28f5a564a71b9192f571f4033586cdb0f93b41f26abab7f62435110ab568",
        "export-game": "d10938ef254ed4e05d76c58e6e2da83ccf0c7ad60eace12fb2d05c745beb2b79",
        "export-fairness": "e3b2e5c50164872ebda8597265d379b8413baf07f8f535bf12cdd6a8ce8ec353",
        "unfold": "755c260b953ecb30d1e5a07656ed321a705d9fd596172e2dfd1e544e3871234c",
    },
    "random:10": {
        "reach": "a3e5966f2b2ae006b3c7a7e8ee057e4f7ce5fdb076f5cbac3e5d4792bf98d2f5",
        "build-game": "b642480dbc8e74188ca69339030af358424c682f6044c54796e6167b0c381346",
        "export-game": "02b8d84e154efdca69c48eceb1846568368d38c0fb62a16ceca31b0b21e98006",
        "export-fairness": "d848f670af834848bcc054d01b1307f1e3690c1eb0e4cbb8bdbe6f48d56d9eb9",
        "unfold": "a85148f901d59347fc4564e90f0d6e651bb6b5e45e07e83438a4d7354d8b494f",
    },
    "random:11": {
        "reach": "8befbef3945689baaaffc01aa5b916cb577ebce0af547a3a6ae3bc0d19799f25",
        "build-game": "e59ed50d7e353b3eab45ed2de4b5d5ae0dd479457daec0c6e436d41638e0273b",
        "export-game": "2fd5763de97ad0c8a2dc45e840d5b7856f48befff028945750099c0f8c5facc7",
        "export-fairness": "091b54d44bb3fd1441a42226f4ae7b168c0c9baed2861a6fb30d31cb063019d5",
        "unfold": "6a906e5fbc94ff2d263f7d6044309bcb0e7381d73195242f6f8192976ff72076",
    },
    "random:12": {
        "reach": "34ed47f9614d762e05dec997f63cf81c6ab2312d5ff3ca79e9c18717ef47256d",
        "build-game": "14232238acfbca8aaa4ee10a35eccc74e034fdada0fac4588d178f22fd9069dd",
        "export-game": "b607647686f7a5ec8e1408d5770d47e2d7326505900a5b23c60abe694df73134",
        "export-fairness": "ad92f285bff5591037efb1c5f3ca42aaee3a77a01754681c5b8370771a2afca3",
        "unfold": "a0664dff96cca03fc9e810ad3248c205e4470b13ed8d7b32f7b5bde955501f1d",
    },
    "random:13": {
        "reach": "a0898a974fe2246a0691c858bae7b3614066b58593649a115fb66ea1f2510d0d",
        "build-game": "0d16ceccc91f122f848e0902f02288f1db23457b4c977e0436fd09cb0ef7f128",
        "export-game": "14e0a94c4bf65606b7525df485bcd0dbc629c0379acb49e2407f013658c0206e",
        "export-fairness": "5d87b2bc768f1c71385b7b86fa58a73079cf1af869b39e2aef6e51ff61c811fc",
        "unfold": "e25d3435657ce658cf03c6199bae95636641519b1449448809f1178dc9edd823",
    },
    "random:14": {
        "reach": "99bf030e10c57437a9c7817c397969bb204123716a0f8e689915acedad56926b",
        "build-game": "d34911813bef1fcfe3b2fe5f0ddca80fc5e45e7661392cd2b744eea5052d3676",
        "export-game": "897e9feeb6c1ab368dfaccfab9ba65d8224a9d00ac87e0aacb6b84b68c506a35",
        "export-fairness": "1ac98b0aa4b5a37c1935874a358f2a944dde5221c104776fae54725988996806",
        "unfold": "7eb610d26f92971da701ef8385ff58c47b5d17d5dc3afc9a99b415b37b6f8a1c",
    },
    "random:15": {
        "reach": "21e055b75d10a3b268640a23ed6f2b4745b769f971f0091898fd2bddaf95b168",
        "build-game": "015998e46e7fe8cb6762f27a8d14667f37ecf59a7f24fe89751e1a16f359ad1e",
        "export-game": "e6a2a31c60bed968fdfc91762456629888a62b50cc0ab169badf646affe1f7b6",
        "export-fairness": "5e33f6e0ff25e77fca15fee551d2419d963d14785dbefe04b7cb9aa84d361b4d",
        "unfold": "1ac758da1fa562c352fafbbc5bfd5972b4463320b5fb26c72740d33f219d1a0c",
    },
    "random:16": {
        "reach": "2b3eb488bd07696298d7559375ffb9a4ce3a0102709635f955bed33499f02f01",
        "build-game": "5e9394caefaf6114afd270608647827f43d91a72bdf4f415e70e61111d8959ad",
        "export-game": "9c83dae44febfadadeb956da6c3ef50f5f5d4caf6dc49c6f8f932e1d93b5b6f2",
        "export-fairness": "7aeb5d061897bfccc2a99a2e13f81da99b558b06f9642eb15be404361c6b3e1a",
        "unfold": "ac6a85fe5b9e49de828b5341a9ecba7c77cba3d692e51099ae929bcfa99fdce7",
    },
    "random:17": {
        "reach": "799685d482b13f03fb01fb49d640108d806489908053da61fc6738bbe4a59221",
        "build-game": "b0b271556957feeeb96a497ef3bf5efd0aab4d4e880ccd7a9e25e1e18eca9b93",
        "export-game": "bac29cedb953bacb814d574d4a6d0d45376d1ec7c0dca7b3d36f52a88d54a89e",
        "export-fairness": "492cefd0bbcdf9301e7015564e8b9b8bdd0019f3b475d12ee6a8f217223c023d",
        "unfold": "5bf0ae3481d4e1dad0f0b175bbf13abde30c70534a0cf7f6b10a49c0fb63b28c",
    },
    "random:18": {
        "reach": "d1a0aaba5e55edf50b0071a3387d5638ccb8a183d20ecb44e35ade2db8f48c14",
        "build-game": "1ecc664557bf1598f92c08ccd10f97cb4d4c39f19b212afb3a27b0dc273ee2b6",
        "export-game": "721fe0969a59d91abd74c4e0b5bfa1bf2e5d67fe375653b10b7c678f6205d48f",
        "export-fairness": "4148b9b80eaced1697efa80d9c10e3fb161205586f7c85d81dc418f47e12eb69",
        "unfold": "93d4162cbd1fbb46eebc1c8ef59d82688c72e1f6666ea9e9d8cfeea8f2b70d1a",
    },
    "random:19": {
        "reach": "549dbbaffc228305ed25fa50fa9a45a36771d11db4a713c80c12531e63e6cce7",
        "build-game": "134e6e3a5eddf1eba390a051668a823a6af69eead207994230e6bc66496745bf",
        "export-game": "e5d80d2afc0f24a01c8ad6ca527eb0086d466bdfdb383bd99c78cbb5fb7db146",
        "export-fairness": "a36cf1a8b612e24a97796c7cf53033c79e099d8173c8698fdf933773c0bcb918",
        "unfold": "5a4c5d61aa1fcdef10f104bbd29097467588d42a61eefb7ca60b87f5f1078fa2",
    },
    "random:20": {
        "reach": "f8d40cb7da02a40eb2a9c86ec56bc6f5f2dd52bcf976380ee75b0cafcfda69ac",
        "build-game": "0bb9b58bf9019a4aa4ac2f12eef5048c89a1d3aab94e36ee82f03aa92ff32f65",
        "export-game": "597a1d1e72687643e37dd22d7f2245fa57638c28e39138b41d9e60392919ad64",
        "export-fairness": "b54a1bea3dff2077caf35e12b58d421fd4c81826106e6d345489f3e2449359e8",
        "unfold": "a2a8e98d7300126abe31baae5834c07940c0712d65a408b439f0d8cf69b158c9",
    },
    "random:21": {
        "reach": "3bb5ce94d7d4d82186b2b8903f178111a474c0dab3d5dd058951351434c8a740",
        "build-game": "2437f7e0e81e75a11ecc050db76987d6b66912c3416e279652608df3433ffe44",
        "export-game": "64afb2b4ad9d0cee87eba24a251a1d4d9bae603630b6502a3655b75c79501373",
        "export-fairness": "50d02da0a5d0da9d5dd382bd44bb38df98c01093ce8799f643dc518795f63739",
        "unfold": "4586e23753eead23f71a4516b587a22f60a361c4177d937cf8e6c5c9ab5e0128",
    },
    "random:22": {
        "reach": "0068e2d5e6bab579fb35d9cb4efdef838ac8d781e1321a71e75cbc972afab372",
        "build-game": "d5baea3160f5bd82c4426cb49bb7e4b195b50aa1b76d0f0b50c4f93bf8dc6a19",
        "export-game": "01bdb102a19ee0050b029aef4198870fd4f4e54e71183ead9d2145b57bc41a5a",
        "export-fairness": "66254762e6ecd580cc973f10a329d399b707fde6409cec34eb56469b9401a501",
        "unfold": "552aa7171b2168acfc7770e9506e4361c1cd671a4bae7b5abe889d3da201699a",
    },
    "random:23": {
        "reach": "b76318b32ae739a19782d2f10ea984cc0c60e524d3908e954b89455693ecf33a",
        "build-game": "c8e0cc6dc977e34f7629d191006ddcead1f2ce5b1426c7200674f434f2e64090",
        "export-game": "2ee9b322f96087b6353cd96bc98eec7dd8fba606e8db6fca21e0d260d9fb4227",
        "export-fairness": "d5c02d841b1ed817fe028d309bd641e33202c0b3a9cad955b71c690871e2c5c4",
        "unfold": "a3e58fb7b8c79c24580acf9b3f1a27ddb65f1c4a94f066ee5fb0c9a256040211",
    },
    "random:24": {
        "reach": "021061ce877b0bdac91e78856483be1f249328234dabe5fa1d9b8174abf770db",
        "build-game": "9d794a57f780f2b14a1124027418694376a42aecd52e2bee39383c83c26c034c",
        "export-game": "72868839d07eb2f5fdc37bd4e881a14d710982475570b8bb2ea486c79b8e635e",
        "export-fairness": "2af8039aed827e435a03115fd5d35be403eca1049c4035dbc0d1a4bb3ee07c8b",
        "unfold": "cd3dd5c0a137e5bcfcbba47ba1291fc70da11c4f5aaae35a0e07768a0a10fade",
    },
    "random:25": {
        "reach": "219830be838ea189578439d88ddac548867ea56c3cc11bb7064371c4d98ef177",
        "build-game": "a5f23ea5880efe4c6787aeb477bce8ebb525ee5621fd8ddae9cace3c8323a4ee",
        "export-game": "60a11aae1a3afa26b183f38af53dd792600a1153e5b4b9e63dff9ad7ce82f3bd",
        "export-fairness": "03f60ca72356824c107e1345ec778421444051e3024169bbcfd1b5b509cf39b9",
        "unfold": "c8928e47a08d04d6700a5f635fcec23db00d2ef8d6db3635aeffe53610876e57",
    },
    "random:26": {
        "reach": "782406a0b3441226ce40a3eb216905d174bc23b6ea399e89bf9fc018f5671c62",
        "build-game": "b83460e6220edd4e6589560c68fac7f2ada092afdc55415fbe20694de2c23906",
        "export-game": "62e83be730aa968b37a33109f12144f398a5dbefb57a9148a5241ccd56e6ca12",
        "export-fairness": "9481a51f1c1d3f611059cbe7f5388ce956b6fc674ff7bd2e1a19902af5d4cbf3",
        "unfold": "095f7a4ccdf1ee870aa862387e0df6db5c19e9514bf4c201ce8729dc8e664acd",
    },
    "random:27": {
        "reach": "ee49a8e820cfd1f5774698d2553288480e316ea2e4dbe8c03f417a41fd6f07f8",
        "build-game": "b4b83bfcd3e25af0b92c4ebf532f3c842feff705d1dfa0c1bb9db3417ff19c41",
        "export-game": "70a2ae75800be71511caced99cb0215830494b4010ed9d6bb5976815a73a3b91",
        "export-fairness": "bf7634fd6c23eb462341e82cae5bd5295b1d001a3ebd0cedea933e7390fea0b3",
        "unfold": "87b7c12a39f01cd9c5c06457b3c583b6487f55f9236858317327ead44e44d7ba",
    },
    "random:28": {
        "reach": "285f4649ac18f9deece07dd31e525100b6012293c230351787b61856dda69aae",
        "build-game": "7a1c3002e1583e72c82064bf6106c8b7667c05eb8a1dd3b68ea0f1bbbd54767c",
        "export-game": "554471422366229eba64d045c2796a13e4614a177c6c193ef0b093e00f34e305",
        "export-fairness": "7ba7d4451f91ff65c3d1eb4bdc73209dc59335ae01af3c8bfa035e7dd364bea5",
        "unfold": "5ddc83bacfe5b9425de5b3b6971e4517d4d8cc197f8a3047ef9ab01ace32642b",
    },
    "random:29": {
        "reach": "862e21982a7567c7ae59d960a41572f5449f7e2cd3ef868ad5f516c5e79c700a",
        "build-game": "2c4ff709657729833e05a7f27bc3675c8809923c454d3185a24e7e11d9bbadd1",
        "export-game": "8f1e157f2d6d140f3090aec69090e8408667a711b0286b041c1b97bbc018ba10",
        "export-fairness": "116b18f4925d8c5b82a33d9bdeecec44dba81748ec9c2d98159845ec1aa88fec",
        "unfold": "a1faa7cbc5ce2470e9feb49dd25e0d4503883ce928875bb679334134f8ae9033",
    },
    "random:30": {
        "reach": "af0212f9764d4d73fced1ea3ceb6c6ee9946f6a41bac3ea0b7bae70c3ac0dd68",
        "build-game": "9d91f0104a9f3c4de959ab76816dcc8aa1664d18e353718cdfe27b43049b7551",
        "export-game": "eaf3832651286350684aaa179c27b9ea0d5ae1dae0f8a7483c2371ca66d26544",
        "export-fairness": "9a19e5fd744ae670ae9b91960af88b0ceb595a266cba913181b4d22eea643a58",
        "unfold": "8895e5b35d1ab5b26f255640a16174ae76dbe4ef64a92c4ff401353ad9738901",
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
    # the contact check's graph is read only for its witness
    built = []
    init = nets_module.ReachabilityGraph.__init__

    def counted(graph, *args, **kwargs):
        built.append(graph)
        init(graph, *args, **kwargs)

    monkeypatch.setattr(nets_module.ReachabilityGraph, "__init__", counted)
    code, _ = invoke(tmp_path, argv, chain_net(4))
    assert code == 0
    assert len(built) == 1
    assert not {"_keys", "_order", "states"} & vars(built[0]).keys()


def count_calls(monkeypatch, name):
    calls = []
    original = getattr(game_module, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(game_module, name, counted)
    return calls


@pytest.mark.parametrize("net, play, printed, decided", [
    (chain_net(4), undo_play(4), 25, 2),  # 4! orders, then the repaired one
    (fixtures.FIG4, "t3\ncycle: t0 t5 t3 t1\n", 1, 1),
    (fixtures.FIG4, "t3 t0+t5\ncycle: t3 t1 t5 t0\n", 2, 1),
], ids=["chain4-undo", "F4-fair", "F4-merged"])
def test_translate_play_decides_fairness_once_per_play(tmp_path, monkeypatch,
                                                       net, play, printed, decided):
    # every plain computation shares the play's cycle: one decision for
    # them all, and one more for a repaired computation
    calls = count_calls(monkeypatch, "_cycle_fairness")
    code, out = invoke(tmp_path, ["translate", "{net}", "--play", "{play}"], net, play)
    assert code == 0
    assert out.count("-- computation ") == printed
    assert len(calls) == decided


def test_translate_play_materialises_once(tmp_path, monkeypatch):
    # validation's run also gives the linearised prefix gaps
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
    lassos = game_module.play_to_computations(g, fcs, parse_play(undo_play(k)))
    assert validated == []
    assert lassos.fair == tuple(game_module.lasso_is_fair(g, fcs, lam).fair
                                for lam in lassos)
    assert len(validated) == len(lassos)
