"""Byte-level pins of the timing model's outputs.

Every (application, protection, sample rate) cell below is simulated
untraced and traced; the canonical JSON of the ``SimReport`` and the
rendered Perfetto document and the session's per-object attribution
summary must hash to the committed digests.  These pins catch any
change to the simulated timing, to the order of trace events, to the
order of the sampling RNG's draws, or to the per-object totals —
including the ones that a traced-vs-untraced equality check cannot
see, because both modes run the same code.

Regenerate (only for an intended model change) with::

    PYTHONPATH=src python tests/sim/test_trace_golden.py
"""

from __future__ import annotations

import dataclasses
import hashlib
import json

import pytest

from repro.core.manager import ReliabilityManager
from repro.core.protection import ProtectionSpec
from repro.kernels.registry import create_app
from repro.obs.perfetto import render_chrome_trace
from repro.obs.trace import TraceConfig, TraceSession

APPS = ("P-BICG", "P-ATAX", "A-Laplacian", "A-SRAD")
CONFIGS = ("baseline", "detection-hot", "correction-hot", "mixed")
RATES = (1.0, 0.25)
#: A category-filtered session: every other category's sites intern
#: to ``-1`` and must record nothing.
FILTERED = ("P-BICG", "detection-hot", ("warp", "dram"))

#: sha256 of the canonical ``SimReport`` JSON per (app, config).
REPORT_DIGESTS = {
    ("P-BICG", "baseline"):
        "8acb4b93caae1ee993d893c9d16a21eecff3970a983d7816f1c0b1621dd7c585",
    ("P-BICG", "detection-hot"):
        "808752ab775954f1253f74c53343c625c1f5ec0653cda77a1ed71c34848dc0de",
    ("P-BICG", "correction-hot"):
        "b53180e6ca9a112197a936a33db56bfe8d2b940047e28fe3e712b1c28b742599",
    ("P-BICG", "mixed"):
        "332ee3cfe1205e66379d42e71c7a2879df0a48107ef477f101f83e1c0b961b1a",
    ("P-ATAX", "baseline"):
        "a94a74624dba25aa4dc3d777767a153653356f84a4ac6b922cde2311fd8e945e",
    ("P-ATAX", "detection-hot"):
        "8dff525d795d2b26998bd17ebb691c47cfeef41370237ab9d686d35129c25754",
    ("P-ATAX", "correction-hot"):
        "87208fb6eeb6699b35fb56000b6043e12105ce33069471eca8cde70200639c22",
    ("P-ATAX", "mixed"):
        "e65b4fe60d588405bb66a2cc15234a790a25ec39f79b8b99a131ba91b3bf0977",
    ("A-Laplacian", "baseline"):
        "383660d48af9e82784cca839dcf3181e15024a05bf3b5413acccf6f39acd2254",
    ("A-Laplacian", "detection-hot"):
        "963b82235f3f39df31a8491d45d20568e2f1a33875c760419f686af6786e82b9",
    ("A-Laplacian", "correction-hot"):
        "3225877acc802232ce4036231289d827a55f019dc08425136afc7a1077d839c7",
    ("A-Laplacian", "mixed"):
        "58778e6ed90bafb3d5c5be8441d136202e83d6e4ede8e11a146ba1d27bdfdd37",
    ("A-SRAD", "baseline"):
        "eb34ebebca5133f53e824fdda2bc29c4da7bcd97c9180d3b74939691623040c4",
    ("A-SRAD", "detection-hot"):
        "ff3d26e90c8a105ca45e0f3ec853ec0367f1f062f7941f2b8b0dfefa8b62e389",
    ("A-SRAD", "correction-hot"):
        "987be06ea597b89d70417fd461f736dbdd4f59d32900e0a698fed5ac16f5b040",
    ("A-SRAD", "mixed"):
        "5f07a90f46c393ab93ecb8552fe8c2011f10c7f83fde4ec78b38adb5a3a2be14",
}

#: sha256 of ``render_chrome_trace`` per (app, config, sample rate).
TRACE_DIGESTS = {
    ("P-BICG", "baseline", 1.0):
        "e35e0d585cf9e464b874ce24acbf4533e32f49f645ec3c19a1d4677e311ca41e",
    ("P-BICG", "baseline", 0.25):
        "4bf8948aa01c5b234ba3fda6495a761fb1dde0fce425bce5a8250f327b0727b6",
    ("P-BICG", "detection-hot", 1.0):
        "5e06fd5b90bcb003d7b158d13094b96fb8ddd3296eb160ebc60cb348ebdd05d1",
    ("P-BICG", "detection-hot", 0.25):
        "3ff7392279f8cd46b68d9ba7242db515c71f0ea7beea2abb39796ef651b48d1d",
    ("P-BICG", "correction-hot", 1.0):
        "76394a018a3a7018101c4d7418f064921141b2a3a557665f6333ff7e64e985ab",
    ("P-BICG", "correction-hot", 0.25):
        "c508ce251e89e6a78bd11dd90f5945958a55faa9f13f8fa61f1b36404026d887",
    ("P-BICG", "mixed", 1.0):
        "fca0c94071a49e6fc29caa681b28e8a286f90d517407690610e7414fe83d3a73",
    ("P-BICG", "mixed", 0.25):
        "29ac171676c4352e9c0769f1771692a01d5bb8b076d64b2259a8228972993dad",
    ("P-ATAX", "baseline", 1.0):
        "6c6154fa69796fe4fc5b019f87e26e6e7cb8c86310313132c38ab3794316d1a9",
    ("P-ATAX", "baseline", 0.25):
        "d6a718ea98da35d7226a1bc5e881de033a494b5019ef980b6bfb40c530465663",
    ("P-ATAX", "detection-hot", 1.0):
        "077c6b66df1c7fa9ca966d5b328b92160b9eb9c3bc2447395e693c69d03c3a3e",
    ("P-ATAX", "detection-hot", 0.25):
        "0e371d0062c8a20db924f3e8017802ab695840a29377bc69d12da89cfd2aaebc",
    ("P-ATAX", "correction-hot", 1.0):
        "bc1ae51b14a96f48ad2506b66337b1ee17554bd5e0ec19b5808b0032e322877b",
    ("P-ATAX", "correction-hot", 0.25):
        "f56ff0ec2ba71d17239656b9d8deb974f0d96430bb4ed947874295e36e535891",
    ("P-ATAX", "mixed", 1.0):
        "72087ae35e81e3bb6e8fc20263817b8a9200749dbeeb1c7673c801cfdaa7373a",
    ("P-ATAX", "mixed", 0.25):
        "0b4a3179ade320c6a5e796500043de06be5ae4dde50d43f4390d7cee0462e721",
    ("A-Laplacian", "baseline", 1.0):
        "b43223c101b4705e6d3d18682e6bc14408bdf55d98ad696a83c5dd5b110dfe1d",
    ("A-Laplacian", "baseline", 0.25):
        "47c81f3649f58b30ebf5b359060a9dbcbb64658084074e6bfc222687ce931962",
    ("A-Laplacian", "detection-hot", 1.0):
        "c0aebe64ca1ff2c4061a743d5979455dde9b9290d282e59f564c3f6ac70c5cd1",
    ("A-Laplacian", "detection-hot", 0.25):
        "fc607b819602e4cc7a4bdb95fd9a4f4a23cc73578a01fecc039be61ae37de97f",
    ("A-Laplacian", "correction-hot", 1.0):
        "203769abc007da9d98b4cdbe575654d52a309bc678b837a68405c8cf63aac6c1",
    ("A-Laplacian", "correction-hot", 0.25):
        "bdaed44c816a13e0ee4a16f48b6777413baab99f0e7c693056620c686b7e32db",
    ("A-Laplacian", "mixed", 1.0):
        "bd2997f4a6b6a92c30d3fc6e5090813b1d5b39ca24d69a351922ffcb9035bb30",
    ("A-Laplacian", "mixed", 0.25):
        "535ba3666a0cc91a41e569813c71b0bed78e934871cc95cf59ca8b0d378162d6",
    ("A-SRAD", "baseline", 1.0):
        "3067a3d0fcd06cee80eb1a1e395a31c46aae130e176d28f10ac13efc6c63a905",
    ("A-SRAD", "baseline", 0.25):
        "66d9b72fe42f1845407c59d927c927ef2a67c053bbcf3dbf82729dc21677857a",
    ("A-SRAD", "detection-hot", 1.0):
        "bb2f8648fb28314d0141ae8d87a9772434d49bac00682c33c4b8835adab1129b",
    ("A-SRAD", "detection-hot", 0.25):
        "03c4ab134645cec3a7ffe66aa23caab7d16d46182209feebeb570cfe224672d9",
    ("A-SRAD", "correction-hot", 1.0):
        "d1e2f38c552d003f97ba9f3334cb5206494459aa7872f8f0a0dbfdf1b9bc9e97",
    ("A-SRAD", "correction-hot", 0.25):
        "e8fb29146dde8d9f8d3bd5b6e925fec88d6dad3a3be29853fe7840fc189e43a9",
    ("A-SRAD", "mixed", 1.0):
        "087839a9d7745046cf4b4868010e29d947ea87e5afccd0449381dd18d0655f20",
    ("A-SRAD", "mixed", 0.25):
        "f8aba012a98bedc8d9e326c5c9deb41d895a7b33c8ca2fd982746de772c94722",
}

#: sha256 of the canonical ``object_summary()`` JSON per
#: (app, config, sample rate).
OBJECT_DIGESTS = {
    ("P-BICG", "baseline", 1.0):
        "d2b69600056d2bcb9fa75ccc6652dd2b37053a9a10283b42f6302d1a4d00038b",
    ("P-BICG", "baseline", 0.25):
        "d2b69600056d2bcb9fa75ccc6652dd2b37053a9a10283b42f6302d1a4d00038b",
    ("P-BICG", "detection-hot", 1.0):
        "41e672d1e81195b2642c1b98701a93711d57a98a387edab9f759e23ce0fe2e44",
    ("P-BICG", "detection-hot", 0.25):
        "41e672d1e81195b2642c1b98701a93711d57a98a387edab9f759e23ce0fe2e44",
    ("P-BICG", "correction-hot", 1.0):
        "518306a3ad3b2e1847cc2758488c38ca725f9849e0299c93ca389fc5ad28cf3e",
    ("P-BICG", "correction-hot", 0.25):
        "518306a3ad3b2e1847cc2758488c38ca725f9849e0299c93ca389fc5ad28cf3e",
    ("P-BICG", "mixed", 1.0):
        "182be05562b2b795b1578b0523d4869e91b1b00ebbd985f635ceffc85cc2bc19",
    ("P-BICG", "mixed", 0.25):
        "182be05562b2b795b1578b0523d4869e91b1b00ebbd985f635ceffc85cc2bc19",
    ("P-ATAX", "baseline", 1.0):
        "7373490db18bf77dabdbaa04cea69fdceac8161a2b7e44f2bfcc0e4aa546444c",
    ("P-ATAX", "baseline", 0.25):
        "7373490db18bf77dabdbaa04cea69fdceac8161a2b7e44f2bfcc0e4aa546444c",
    ("P-ATAX", "detection-hot", 1.0):
        "f323bc32d159ffa882060695d50421ef4c0e2b824fcbbc65b93ee09878f655ba",
    ("P-ATAX", "detection-hot", 0.25):
        "f323bc32d159ffa882060695d50421ef4c0e2b824fcbbc65b93ee09878f655ba",
    ("P-ATAX", "correction-hot", 1.0):
        "b7e96f396964b5bd4ce226ab08d887366127599899aed524a4d82349699bf628",
    ("P-ATAX", "correction-hot", 0.25):
        "b7e96f396964b5bd4ce226ab08d887366127599899aed524a4d82349699bf628",
    ("P-ATAX", "mixed", 1.0):
        "f82671f78ed824614417e1246f7b1b74bb5e1a5cc69f897b41bea42c1645a0f8",
    ("P-ATAX", "mixed", 0.25):
        "f82671f78ed824614417e1246f7b1b74bb5e1a5cc69f897b41bea42c1645a0f8",
    ("A-Laplacian", "baseline", 1.0):
        "7693ab58caa1fc41810be8ebb13c9557328aa319dfdaaef0f629ed96fe6e7afa",
    ("A-Laplacian", "baseline", 0.25):
        "7693ab58caa1fc41810be8ebb13c9557328aa319dfdaaef0f629ed96fe6e7afa",
    ("A-Laplacian", "detection-hot", 1.0):
        "faffb286d1878271896e62ffb3013b16e44d02c86caf39f25f1583994e8b15e0",
    ("A-Laplacian", "detection-hot", 0.25):
        "faffb286d1878271896e62ffb3013b16e44d02c86caf39f25f1583994e8b15e0",
    ("A-Laplacian", "correction-hot", 1.0):
        "e13622bfc88a814b3e6644e18ba7a25eaf313cef523725588dc845386acf8eab",
    ("A-Laplacian", "correction-hot", 0.25):
        "e13622bfc88a814b3e6644e18ba7a25eaf313cef523725588dc845386acf8eab",
    ("A-Laplacian", "mixed", 1.0):
        "d56a9a59cbecdc91008e9b08f3c239e0425619697d23a0b501f4fee9db52b02f",
    ("A-Laplacian", "mixed", 0.25):
        "d56a9a59cbecdc91008e9b08f3c239e0425619697d23a0b501f4fee9db52b02f",
    ("A-SRAD", "baseline", 1.0):
        "2a604ebe4ad9f54d89d10ca00f57002aa449ed6a94f06d89767f6ba3e0b69ae7",
    ("A-SRAD", "baseline", 0.25):
        "2a604ebe4ad9f54d89d10ca00f57002aa449ed6a94f06d89767f6ba3e0b69ae7",
    ("A-SRAD", "detection-hot", 1.0):
        "fe04242ba20ce91642c143ca35db1cb101935f3363867319b78814cddf60f7ab",
    ("A-SRAD", "detection-hot", 0.25):
        "fe04242ba20ce91642c143ca35db1cb101935f3363867319b78814cddf60f7ab",
    ("A-SRAD", "correction-hot", 1.0):
        "91b7f9447df6ee253c782bca3b1910c6eacb20bc4994c79be3e92acb3265d4f6",
    ("A-SRAD", "correction-hot", 0.25):
        "91b7f9447df6ee253c782bca3b1910c6eacb20bc4994c79be3e92acb3265d4f6",
    ("A-SRAD", "mixed", 1.0):
        "f1ab42f8c639e3e898886d5c5abac2765c0e29b43c697be7c28a2bd2f830a275",
    ("A-SRAD", "mixed", 0.25):
        "f1ab42f8c639e3e898886d5c5abac2765c0e29b43c697be7c28a2bd2f830a275",
}

FILTERED_DIGEST = (
    "4f0c5f90321ad7e08a24e1f1308d098c2c82f302f721523e4f841ced65e9ccbb"
)


def _manager(app: str) -> ReliabilityManager:
    return ReliabilityManager(create_app(app, scale="small"))


def _protection(manager: ReliabilityManager, config: str) -> dict:
    """``simulate_performance`` keyword arguments for one config."""
    if config == "baseline":
        return {"scheme": "baseline", "protect": "none"}
    if config == "mixed":
        # Hot objects under correction, the first cold one under
        # detection.
        order = manager.app.object_importance
        hot = manager.app.hot_object_names
        parts = [f"{n}=correction" for n in order if n in hot]
        parts.append(f"{[n for n in order if n not in hot][0]}=detection")
        return {"protect": ProtectionSpec.parse(",".join(parts))}
    scheme, protect = config.split("-")
    return {"scheme": scheme, "protect": protect}


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _canonical(doc) -> str:
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


def report_digest(report) -> str:
    return _sha(_canonical(dataclasses.asdict(report)))


def run_cell(manager, config: str, sample_rate: float | None = None,
             categories=None):
    """One timing run; traced when ``sample_rate`` is given.

    Returns the report, the rendered trace and the canonical
    per-object attribution summary (both ``None`` untraced).
    """
    tracer = None
    if sample_rate is not None:
        tracer = TraceSession(TraceConfig(
            sample_rate=sample_rate,
            categories=frozenset(categories) if categories else None,
        ))
    report = manager.simulate_performance(
        tracer=tracer, **_protection(manager, config))
    if tracer is None:
        return report, None, None
    return (report, render_chrome_trace(tracer),
            _canonical(tracer.object_summary()))


@pytest.fixture(scope="module")
def managers():
    return {app: _manager(app) for app in APPS}


@pytest.mark.parametrize("config", CONFIGS)
@pytest.mark.parametrize("app", APPS)
def test_outputs_match_pinned_digests(managers, app, config):
    manager = managers[app]
    report, _, _ = run_cell(manager, config)
    assert report_digest(report) == REPORT_DIGESTS[(app, config)]
    for rate in RATES:
        traced, trace, objects = run_cell(manager, config, rate)
        assert report_digest(traced) == REPORT_DIGESTS[(app, config)]
        assert _sha(trace) == TRACE_DIGESTS[(app, config, rate)], rate
        assert _sha(objects) == OBJECT_DIGESTS[(app, config, rate)], rate


def test_category_filtered_trace_matches_pinned_digest(managers):
    app, config, categories = FILTERED
    _, trace, _ = run_cell(managers[app], config, 1.0, categories)
    assert _sha(trace) == FILTERED_DIGEST


if __name__ == "__main__":
    managers_ = {app: _manager(app) for app in APPS}
    print("REPORT_DIGESTS = {")
    for app in APPS:
        for config in CONFIGS:
            report, _, _ = run_cell(managers_[app], config)
            print(f'    ("{app}", "{config}"):\n'
                  f'        "{report_digest(report)}",')
    traced = {
        (app, config, rate): run_cell(managers_[app], config, rate)
        for app in APPS for config in CONFIGS for rate in RATES
    }
    for name, slot in (("TRACE_DIGESTS", 1), ("OBJECT_DIGESTS", 2)):
        print(f"}}\n\n{name} = {{")
        for (app, config, rate), cell in traced.items():
            print(f'    ("{app}", "{config}", {rate!r}):\n'
                  f'        "{_sha(cell[slot])}",')
    print("}\n")
    app, config, categories = FILTERED
    _, trace, _ = run_cell(managers_[app], config, 1.0, categories)
    print(f'FILTERED_DIGEST = (\n    "{_sha(trace)}"\n)')
