"""Pinned ``config_hash`` and canonical JSON of every shipped spec.

Every result carries the ``config_hash`` of the spec that produced it,
so a change to the spec JSON form silently breaks provenance.  These
values were recorded before the field-derived codec replaced the
hand-written serialisers; they pin the ``config_hash`` and the sha256
of ``to_json(indent=2)`` for each ``examples/specs/*.json`` file and
for every spec of every registered scenario.
"""

from __future__ import annotations

import hashlib
from pathlib import Path

import pytest

from repro.api.campaign import CampaignSpec
from repro.api.platform import PlatformSpec
from repro.api.scenarios import build_scenario, scenario_names
from repro.api.spec import RunSpec
from repro.api.stream import StreamSpec

SPECS_DIR = Path(__file__).resolve().parents[2] / "examples" / "specs"

#: example file stem -> the spec class it holds.
EXAMPLE_LOADERS = {
    "campaign": CampaignSpec,
    "platform": PlatformSpec,
    "quickstart": RunSpec,
    "stream": StreamSpec,
}

#: ``examples/<file>`` or ``<scenario>/<index>`` ->
#: (config_hash, sha256 of to_json(indent=2)).
PINS = {
    'examples/campaign.json': ('1d813f237f40e839', 'e4ff66b8f0d2fab39583808557ed8483cc399f4e1ac5d5f42a974afcd476729d'),
    'examples/platform.json': ('41e253682f33d44a', 'cbe335caae9aaed48250fa64fd1e4f69c5a48fdac15813a5761333612e4bd03b'),
    'examples/quickstart.json': ('cbe4b5d7212cd39e', '398b723582bdf06f049ce81e6471e5e47611300b6b7daa3725d4f9dd78d67167'),
    'examples/stream.json': ('bf9d3e5bdd50648e', '6d9411c70a094c63b722eb805a48a897d6b8d2b28e3f5f78c0b45f440e86fbc9'),
    'benchmark/0': ('fdfe1bbb227170ca', '3bf2e770e642f19bd74f933600574cab9c1fe46c039d73f2ff33bc5171832be8'),
    'coverage/0': ('31ac95c285aa5703', '14f44ecf3c8d1e5bd7410f156e6bb57626fdebb389341d740ca6d8b7a3c3c2b4'),
    'coverage/1': ('5e983499e0a786e6', '1c054d3e059b310f08314fd67e037845521a7999f5debe1645b711eb1a7cb450'),
    'coverage/2': ('6a0bff844b5f38e9', '13f3299e785619acffa0fa2f90b88b900a7092aa167dcd40290be2244c3aa26f'),
    'fig3/0': ('f33de58fd0f51f1c', 'bd01ab6db65f81e4e904df043ffbbef3ff622d3d4dbe2b8852af80f7c89d63f0'),
    'fig3/1': ('8cef74b475b1c3fc', '711316becb9968b2e16b01ac269e96ecfcc7563c0e4980fdbe41de70d9811147'),
    'fig3/2': ('bebd20096f705cf1', '1899bd10bfc313abfa228b8ebf4cc7e982907f45b090c6c5e476174c038bcbce'),
    'fig3/3': ('e7014fd4c8a0fc9c', 'd1cfc45bb3a84502da95e4f70428fce75e68df558953f0bb56b76d13003c814c'),
    'fig4/0': ('fda1a2d1cc259efa', '0117ae3642aac777df3d2e631e47efd5ad6aed51b2342913da948078ef18e555'),
    'fig4/1': ('63818736360a430c', '19b6fbe4e0e24758f586afd3750a40f10815bc17bbcd22a57e63965947686398'),
    'fig4/2': ('328f5923c5778a9f', '11e0d906fcf36bfa1b3f2ca243d055df0631252e43477967e9bda05b4112e9c6'),
    'fig4/3': ('548dc3c2e96716e9', '1e3e1f32a4bfdb1e9771f310f306d4780799c233afa71635db6db246896df6ef'),
    'fig4/4': ('3826cf0b07b4b8f4', '50bac2237a6f9e5257afade2a26c94daa230de461bc208fc4b37178f5e799712'),
    'fig4/5': ('d3f6ed2ad46fe1d7', 'c7972434f847df3b6bc5d21f667a6ba5909c794a18242275330420e9cad9486c'),
    'fig4/6': ('7e53a6ab510641de', '66ad5a76035c033a78cb58b5cc9a2450c55eca1712ff20def9197033a20160d5'),
    'fig4/7': ('4bcfcd6dd61281d2', 'b7524f4681b9a24c260ee1efa764ff09c57dd4f3bc5bbc825b9e17808ee7af1c'),
    'fig4/8': ('0e499739cd95ddca', '026d3a81fd5f66b25248e6507fc5369d00087b3b836776aeb7ee69131cd264ed'),
    'fig4/9': ('5fd521f18d49efe2', 'e39dd411583d4e899300c0a328ad27e837875a09307ea0db23e61ef489e08eb2'),
    'fig4/10': ('9bde3111bc81a5d7', '1ccfc2626e2d3de9e6dc676349090ce9e3b44d14964958286ac07a9100418a54'),
    'fig4/11': ('8a6ad864bb026ec8', '3bdfb1cb5ad851fc74588199bc17fdf4f9f008a7f7b399a7a9e631da900fe2f3'),
    'fig4/12': ('26f730a6d66acdcb', '8af19608c0cbae36c4513c65207a7a826d07fd9ec45e898f9c7bba0253557736'),
    'fig4/13': ('74c5efb7d1c5fcb5', '8329002b61e2cf71cc6095941311c28617457a61a43b610938d6745c876f7718'),
    'fig4/14': ('fdfe1bbb227170ca', '3bf2e770e642f19bd74f933600574cab9c1fe46c039d73f2ff33bc5171832be8'),
    'fig4/15': ('4c469fe35ee68db2', 'add13ab496a9d2c0e676aca6f9b0f22cc0270e1f4e6e9caa236630ba6d09f349'),
    'fig4/16': ('9f6c5c35ad8961cd', 'be1575b256707ff9c6bfd13e52049c2fc5af745b41884ddacf9e28b6b6a8decd'),
    'fig4/17': ('00040eb2ca7ba362', '00e9c5e2380872e6d3a11c2dfcb72e9f6e9260224a8bbf3d56727b61a130850a'),
    'fig4/18': ('eae97bfe48125fd9', 'fa69d1b7c8331a3adca8c7a2e75482fcd9ccacf65c0e92ebb15dd6b7e1156352'),
    'fig4/19': ('802df212a8989cba', '301ce621215b93aec7472afc1fcfd8f1633dcc3ac35de3faa50f7c8eac93eb3f'),
    'fig4/20': ('7e7cfb126e548b7e', 'beb9784056319b08396aeb51848832ab770682812698cf18a76eed559a7ae58b'),
    'fig4/21': ('00c294fffd460dc0', 'ab6c60a33ffc277498f44fc77a08869d38d59f2a3d708b17388a550b69e94ea4'),
    'fig4/22': ('4fbeba8dba31cf77', '14fb849a4bc22ec54343dae381c1c72b307ca7eeffc856ca0cb5e28329c6a30b'),
    'fig4/23': ('b945daf6efba8b20', '51d8d8182cb5c950cc29789e1a08420c5ce4788455435b3fb38bd30d502b0542'),
    'fig4/24': ('db725adb6c2a34a3', '770936df69ff298135efbf2fa7d7fde60a6144c50ef6b8cd5b4b77c471745217'),
    'fig4/25': ('4a358ad7518538ee', 'cc290723a635bbd48f8eaf9541aba3ed41d61c24fc53c1a52b07ea551ba5923a'),
    'fig4/26': ('bf5ac236f86fcc19', '9d8758b6347186d41f9241cb35556ad1c6ba1c56383825cf6fd60725ccfbc84e'),
    'fig4/27': ('4591b2c9ee271c67', '803b180c50ba9eafeff12ba34c9904bbfd27e09b52da294676d7d388dbae2efe'),
    'fig4/28': ('1177ab1acb107c96', 'ac0305b1ba3eab3a33ca55370e57150030389c431333b70b37acd83259d98322'),
    'fig4/29': ('554dcf8ad8a00f79', '68f75d0e7a3107deb2bad207c03c1d97c3d5b79974815ebfd36aa341f615c996'),
    'fig4/30': ('988ee8e4a2f58f54', '27837066819f1f4c28a72ed059b570021bb27f015b90fe22dc5c3cac133b3291'),
    'fig4/31': ('75c467dc045bcc15', 'bcaf4412c8b35c58d268adf8c09970eb2149d90e035bfe4a078bf58acdeb092f'),
    'fig4/32': ('3f821c41c1a04289', 'c85bb031eaf3fb82814f278635369a7eae83e12f04a4e643baf0bab6f8a9f944'),
    'fig5/0': ('561e21d5d162b814', '18d777996c00ab9705029e25c4ce080964643657e4cea5ced6691553f61a260e'),
    'fig5/1': ('95a371697d4c5f32', 'd77bfd433c24f385e7486b6d701f58be63780c2f69f5e6c67d817b5b16a72c60'),
    'fig5/2': ('062e23630c1d4ba9', '98ebbead81631bb6eecef3e23003eeae6754acca65b5b14c01719ad78abf03b9'),
    'fig5/3': ('02247b1a6184613d', 'f6d0cce5f3baabb44d75600c3fc6df520719ce857d99da254fec9995bee1f23b'),
    'fig5/4': ('0c7a1e23a9e6186c', 'c0c7b3cba73b9b000792ec52f2796c8927c9d2e8e58d627f332d67c4b23307be'),
    'fig5/5': ('10bb6778a333c270', '3f4370e86171eeb25510bcd269e897f776c7e4a6cc2bd35bd87efdfcb79e0626'),
    'fig5/6': ('b1e2963aef72e057', '64e624da9b41c86448bab855df1a2827d2d89d68b1be3467ce96b7947755e5e7'),
    'fig5/7': ('a374e1e687174ec4', '032c42aea87dff5d61b9ec86df6998f6276660a0d9a4ea77b9fb4081451bbeef'),
    'fig5/8': ('ce3f3da5ffbe147e', '8fa97117d8b921ad7a8f3a0d33eddea5cebda8f19f397841d3a9ba82a9a0e6c9'),
    'fig5/9': ('6babc5c29ee91364', '30391bb89eef3ef6fdad62cba89e6af27a4f9815505e0f682a72a2544ed09db9'),
    'fig5/10': ('b4924838a0c0d806', '86e5c516c2cdecfa387a2ae315601750e73c750b95c1e16ecc19d9fa1dfd58bf'),
    'fig5/11': ('18c41d4cf1df7680', 'b533c609b9e9afd67aa29cd91e76a72cae13d2e78f9728004c6641c67b614dd5'),
    'fig5/12': ('0aa92982564fcb39', 'b9f3b17244ede1e8f52670112ec448107cb0d04268fdd7a95e2c595ac60298cd'),
    'fig5/13': ('3a114b6bbf45f198', 'e1f8d0a65c21ed68f008a7f0628b70322139a50597f210078ad54280bbc66b2c'),
    'fig5/14': ('fcde61d9b2faa875', 'ef7e9735b14390126cce4583c8469d5f9f88cd644beb097f9757e15327cebdc9'),
    'fig5/15': ('a7d7468d0906fc35', '125eb5cb24431e2b26f5e1df67012f5365e2eaab941662d47de84ae20fe975e4'),
    'fig5/16': ('e5233107b11d0d93', '2fee3d20415d9dd4a58b234941e56b62bae0020d0c4ab95a1e9f5bce8593379e'),
    'fig5/17': ('978521679083732e', 'ba0b28770a4b6db200a7d00a6c325bbaf864083687cc8ddaa403c2982f7dfb99'),
    'fig5/18': ('8b389e9580a1e62f', 'cc048193de4383870fccad6fb536fb130feff67e7f52ec1dcddc20e62b449757'),
    'fig5/19': ('b5ba382ade149d60', '55370f7dd74f9400195c7b5b328155a40dcf200de29bd01e92764370631ce9ad'),
    'fig5/20': ('b39594ec796daddc', 'ef0b7486a8e1b76529a54250d4866202b7d101dbb21c6779340f8e4966a4179b'),
    'policyfit/0': ('b84e2b9021604a85', 'a4f578afb30074b78dd83a77223f3447dc6680037c9396c900eb802afe87a729'),
    'policyfit/1': ('6e09665fa62713d8', 'c641de79fe05abfaf96f7a545070a6fe59cac67fd130bb7bbf2103bbf5cb56b2'),
    'policyfit/2': ('de7e5d54092c102b', 'f34b7752099dcedb26f5baf6378948f2e47024b1e5e754b80c5ff87b48734492'),
    'policyfit/3': ('b74ab40a287beb13', '2ea403b68fdf039565efc5699a69ced7a6eae3ee1a41db1a6b106c125e3ef860'),
    'policyfit/4': ('53b4a8c2afecd103', '6fc84b61b36ae7a6ac3bd4cb60f926809b3e20d3508d7d0d332d4f36f024a824'),
    'policyfit/5': ('498dfef3c25f9ec4', 'cd11cb9630efbe5d42b3eeb4aafd020f5f2270c8c3afd183d06aa2bc164a5844'),
    'policyfit/6': ('e181ead8d1e26cb1', '4d18125d832110b1353d79bb8701f7909f8beb00bf419125e1bafc6a8cf3a253'),
    'policyfit/7': ('0d998ca23c40a293', '8a673b4556f7c6c648c133e8cdecc85986d794dcb2108eb4ce70c83caa10fb06'),
    'policyfit/8': ('3fc24784349d88f3', '81d8de1a687b7532bde71f86aeb803e0f21b7cec8fbfe5e8634d101f0e8e4191'),
    'policyfit/9': ('e0d7bf46a7313884', '02e86d2146fe4554f1e34c60c251c646ab21fe86f695a5295011b2e650ef201d'),
    'policyfit/10': ('10d5ecdcc4607ac8', 'c64f34bfd5a7879dd090da6fead8532c37bef855b4c5e21f9b4edc47c030c891'),
    'policyfit/11': ('28282d45564859dd', '1aa1883baef320a7183856693b2c7a8c3c7adc5303f71f0a5d869ba8a7874179'),
    'quickstart/0': ('72548f573df93f63', '48e904130b8ec27da3b9de3a4e6a2640a4d2f3bf9c5a4bdf6eb484a22cdf8aad'),
    'quickstart/1': ('db3a6bc0a7ea577a', '6fc163667e18568068a6de0827b099e00336368a45d68ba83bdc26c1047cf2cd'),
    'quickstart/2': ('e0fc11f095c8fe39', 'a14c4db06813e48eb1f761484bf9f04657378cd8013e84fc22b4925c8018ae8a'),
    'sweep-dispatch/0': ('14626d718f2209ef', '3df61969d0082fa2a08bd04e5116b026a7bd4906e487a97aaf049b1481e59a60'),
    'sweep-dispatch/1': ('8f6cff0c0e20206d', 'c03c95b1b639fb2de11f04cfa5967a920be9a1c45216b8c7dcbd7ea4245a38c2'),
    'sweep-dispatch/2': ('8a8757614876ccd6', '0a436c509e82d8e027a65921e39a68473cc1858740e555c2531103a685d6405b'),
    'sweep-dispatch/3': ('ef6d2e7a282c3ed2', 'ee180adde44045a4df274d3e30b5061a566c160499f402b8f7cb0943efa93fbc'),
    'sweep-dispatch/4': ('1daf06c969e330f3', '492a60536a6db47e834071fc49b10f29d1acaf9a509fb3ad7cf1b4a9913713fb'),
    'sweep-dispatch/5': ('f6dbfe44ea83a0a2', '0e7b6de4a0d1562fefcdcb3483dab3ec426c45f25a48dcdb135d450a59921aa9'),
    'sweep-dispatch/6': ('5550cca707cfcbf1', '45d3989c2e267f3fcdfee752807296702e08bbedaadf9b08b2510b6056d15d6b'),
    'sweep-dispatch/7': ('22914912023b6e0a', '20938b6bfbbca328a1cca840ecc74de4c6a9a7ec0a87abec8fc693d4c5f3ef21'),
    'sweep-dispatch/8': ('925c9083241ca850', 'e9d1f293de57cdf362588d73226614abe044d50526d0cbfaa7afe64699e817eb'),
    'sweep-dispatch/9': ('01d8d0da28785a58', 'b0cdcfa0d6daa16a476ac8188315e6b3f78290a018e2feeef1134265c23ec8c6'),
    'sweep-dispatch/10': ('a86e86ffde1e5cbe', 'fbc95fdec26b216a5233f35646b4d6edf091c82882964ab5362f4d6cd3ac141d'),
    'sweep-dispatch/11': ('4a72ed43c886e7df', '72d7d259f6ebdefcfb96942b2d96f62c3d11f678e249f9a85f8ff4f9326e9a55'),
    'sweep-dispatch/12': ('d6e84e9f9dc55bbd', '6fb24b29cab6c56871c926bcf1a4c9bb77a840412eb27de0ac1b49796b5fe204'),
    'sweep-dispatch/13': ('cfbc2b3db20185a3', '93696c50f6ce2a971bb5c79beb7ca28a6fac267a1ccd06e43cd8a3b1c6af1314'),
    'sweep-dispatch/14': ('dd82baec336e3956', '6830a229db40d53b761634a3193c512ed79e1ffeae82498a0ef328cec6004213'),
    'sweep-sms/0': ('661622eb99f2d151', 'e5d4a46a399be40ea625926cb5fec6c4a4177a6a27cfe2159805a71feb2c6341'),
    'sweep-sms/1': ('32cd554e153ad99a', '035ba40b76c688c81abf31e76967965c1f9a2daa884d87ff6a841d859e0bc15e'),
    'sweep-sms/2': ('b3d5f345574db49e', 'f3e982f748faa35c199a6a9d1bed51137ffc05fa93502b24495bd660659abf37'),
    'sweep-sms/3': ('76dfed9b6c3cd633', 'f9b325033784e7315f824d345395d637e79b68ac795ad2739e9166dd1ed26526'),
    'sweep-sms/4': ('1f70cc5c216f1132', 'e6bd3d6009455a5f71f6cab574e2304faf2ec09a07840f7879bb7766c0a480e9'),
    'sweep-sms/5': ('76be623dbbc0d95b', 'f5553f1458400b3412f1451f4d06f5b7b832f94c72b26ce4567757720358f4cc'),
    'sweep-sms/6': ('f3de10d2b0a20df4', '7590de55aaf829372ffe2910c7655d391f4dc7ab6943d895d2073ecd8ec2c719'),
    'sweep-sms/7': ('490445c47c5cb521', '43b3af75e8914c210fd9f29bdcdec1d61c0692ab119d4706c593c7111dd0d294'),
    'sweep-sms/8': ('95b52bfdb0830013', '70c77db2c736a299995f515e136dd346ae7975d162a25afe031635b309528cbf'),
    'sweep-sms/9': ('fc1a088dac455134', 'e71338f20c762182a48ec1df1f3743efb558708c6c02dcb87426ccd2f2c963bd'),
    'sweep-sms/10': ('d06a1ba166632aab', '85dc12cdcaa9a33d03d91b4065b055407d06383f4c6e9ea88c41ec879130822c'),
    'sweep-sms/11': ('bdaeb6485308f094', 'cd46e0242c94d099337369c3177c300941843ad40921d686a182378b86eb9f4e'),
    'sweep-sms/12': ('8bdae98b86bb5865', '0fbfb366aed4dd4d5e7a54084521b1d00092a3a2fd0a9d1f85f8eb21f4727995'),
    'sweep-sms/13': ('6854e1706ebf2662', '96aef58cbf173bdc58ca8cdb178060ef2d20fd9036abf58a871b9eb8782c208d'),
    'sweep-sms/14': ('3d941bb8aa6091b9', 'fc9f7b1ccfcb6e67ade77f674a0dd813e88e474b189a719de55579f7141d6e4b'),
    'sweep-sms/15': ('784f18dc7ca3158b', '779f9b8431066384de515097f182ab97421123b074f42ed1a4c2eb30aad7aa6c'),
    'sweep-sms/16': ('a8077f6f9aad607d', 'dcf24488506461f4628954dd6be0814af933e894bef024eaab5a3610b17d0808'),
    'sweep-sms/17': ('9db497a4231993c3', 'd4722bdf07caff5e0ade443fa5455670dc04f3cd525d18c3c581dbb45296c6c0'),
}


def _pin(spec):
    text = spec.to_json(indent=2)
    return spec.config_hash, hashlib.sha256(text.encode("utf-8")).hexdigest()


def _shipped_specs():
    for path in sorted(SPECS_DIR.glob("*.json")):
        yield f"examples/{path.name}", (
            EXAMPLE_LOADERS[path.stem].from_json(path.read_text()))
    for name in scenario_names():
        for index, spec in enumerate(build_scenario(name)):
            yield f"{name}/{index}", spec


def test_every_shipped_spec_is_pinned():
    assert sorted(key for key, _ in _shipped_specs()) == sorted(PINS)


@pytest.mark.parametrize("key", sorted(PINS))
def test_spec_json_and_hash_match_the_pin(key):
    spec = dict(_shipped_specs())[key]
    assert _pin(spec) == PINS[key]
