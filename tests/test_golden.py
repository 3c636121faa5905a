"""Byte-identity gate: sha256 digests of pinned CLI outputs.

Every built-in example of realize, sheafify, descent-check and compare, the
example kits, and runs that load every input file kind are rendered in both formats and
compared with digests recorded from a known-good build.  A refactor that
keeps the answers must keep these bytes.

To print the digests of the current build (for example after a deliberate
output change, which must then be explained in the change record):

    PYTHONPATH=src python tests/test_golden.py
"""

import contextlib
import hashlib
import io
from pathlib import Path

import pytest

from finsite.canon import cjson
from finsite.cli import EXAMPLE_KITS, main
from finsite.sset import from_json as sset_from_json

KITS = "kits"

EXAMPLES = {
    "realize": ("pseudo_circle_terminal", "point_site", "bz2", "action_z2_free"),
    "sheafify": ("pseudo_circle_constant2", "collapse"),
    "descent-check": (
        "pseudo_circle_order_complex",
        "pseudo_circle_constant_point_F",
        "interval_cover",
        "sierpinski_maximal",
    ),
    "compare": ("collapse", "constant2", "identity"),
}

FILE_RUNS = {
    # twelve opens on the whole interval: the largest saturation in the gallery
    "sheafify-interval-constant2": [
        "sheafify",
        "--space",
        f"{KITS}/interval_cover.space.json",
        "--presheaf",
        "constant:0,1",
    ],
    # the set presheaf and space file loaders, discretized for realize
    "realize-pseudo-circle-collapse-file": [
        "realize",
        "--space",
        f"{KITS}/pseudo_circle.space.json",
        "--presheaf",
        f"{KITS}/pseudo_circle.collapse.presheaf.json",
        "--dim-cap",
        "3",
    ],
    # the simplicial presheaf loader: a circle with the trivial order-two action
    "realize-bz2-circle-file": [
        "realize",
        "--cat",
        f"{KITS}/bz2.category.json",
        "--presheaf",
        f"{KITS}/bz2.circle.presheaf.json",
        "--dim-cap",
        "3",
    ],
    # the benchmark's realize-render job one cap lower: bar tables, the
    # nondegenerate scan and the full realization JSON
    "realize-interval-cover-cap4-deg0": [
        "realize",
        "--space",
        f"{KITS}/interval_cover.space.json",
        "--dim-cap",
        "4",
        "--max-deg",
        "0",
    ],
    "validate-pseudo-circle-space": [
        "validate",
        "--space",
        f"{KITS}/pseudo_circle.space.json",
    ],
}


def _cases() -> dict[str, list[str]]:
    cases = {}
    for command, names in EXAMPLES.items():
        for name in names:
            cases[f"{command}-{name}"] = [command, "--example", name]
    for kit in EXAMPLE_KITS:
        cases[f"examples-{kit}"] = ["examples", kit, "--dir", KITS]
    cases.update(FILE_RUNS)
    return {
        f"{case}.{fmt}": argv + ["--format", fmt]
        for case, argv in cases.items()
        for fmt in ("json", "text")
    }


CASES = _cases()

STDOUT_SHA256 = {
    "compare-collapse.json": "378580388fba59c028d86510697af016e4c010d6c577c30c2e7dd805815e79ed",
    "compare-collapse.text": "032674402f7f502880a5c9c1785af8eeeca9a0c81fef6ae33548c38f2de299d0",
    "compare-constant2.json": "a4411f885aa1296daee55feb0987dd8cbf7325f5eb2fad14291669674c0f354f",
    "compare-constant2.text": "0b04dd128592f00dc05b0ee8be1fbf289a00eb5377b8572b252680afe4c708b9",
    "compare-identity.json": "a4411f885aa1296daee55feb0987dd8cbf7325f5eb2fad14291669674c0f354f",
    "compare-identity.text": "0b04dd128592f00dc05b0ee8be1fbf289a00eb5377b8572b252680afe4c708b9",
    "descent-check-interval_cover.json": "5ef3bf4f2d585cc6c3beefe32c2cf451528ea7be258f930f0c39c688a2a4fdfe",
    "descent-check-interval_cover.text": "52cecd06ba6bdc0221cc479c1c54c0a14cd65954d27095860b6692d86471709b",
    "descent-check-pseudo_circle_constant_point_F.json": "25d277fe61e894d122b79c5220c34db7ac41e6f93d485a718c6c500d03d5a9e0",
    "descent-check-pseudo_circle_constant_point_F.text": "9b3b747c3f0f461a3692dd81e8d8177123054d0bf08ace5b9d4e1a8941ca3ad4",
    "descent-check-pseudo_circle_order_complex.json": "9b087feed64aa6f2bcabcc801d03e43a09ecaea08e36f446879e28757d8ad1ab",
    "descent-check-pseudo_circle_order_complex.text": "7698d82e6ed88932778602c949fed7beadff4731a0c5535deaa1a47fc006587d",
    "descent-check-sierpinski_maximal.json": "c11cf8fe24f6e749051955feca8fec01da3f7a1ed8fd6cad54eba237d77c0168",
    "descent-check-sierpinski_maximal.text": "6ff5a63d333cb357babf7f09bb691f22dc4301827df759940a320c36f40d5d9b",
    "examples-action_z2_free.json": "d49bedb3f9051d1704553bb2f8d79ba4e892a99b0f0f74dfab58b461a09c1682",
    "examples-action_z2_free.text": "7001844f2b46b7bf158d533283e6bd1ce25ae1dfcbdbc21d63b26af0e0c961d8",
    "examples-bz2.json": "f56df199369d6d08e8eb31c2ced82008a7b886b6de32ff85ec3993ed4f99f749",
    "examples-bz2.text": "3b78d98e54558733725af7f9004656b988b87ab4447f73bd69ca2f7fdfcc2928",
    "examples-interval_cover.json": "323ec93314025b3f537327ec50c98827a3d9fbe34656fb7a072325127ddd97a6",
    "examples-interval_cover.text": "368ba362f7fc149a6b33f72f407a5168a7f16b0e0c31bc132762bd4b4f967c40",
    "examples-pseudo_circle.json": "9dfbcf33355293aada4f3ba33c181a88bc8cdff3fedaa5376bc4e1dc0056c713",
    "examples-pseudo_circle.text": "9fbf73234d06f9f2fb7dc87e7ade53451a78dbb738703e5e6395d55a42a1704a",
    "examples-sierpinski.json": "6388498db37839f6437e8a8dc3743eb2c2fc60dc14987fa9e5405055e8d7389b",
    "examples-sierpinski.text": "e4cd7cffa205ae3b7096d9bc38de41eb8096b2a07ed63ad5611842781234dedc",
    "realize-action_z2_free.json": "c197170b91870679722f5cdaf80d81b17d9641dc322c85793615191d37058251",
    "realize-action_z2_free.text": "cb31c2b3f99b270c8cadf296c344c4bfa449f2eebe97a0ce83a7daf1da4cad80",
    "realize-bz2-circle-file.json": "12591ad27f9e679c59e0a4237dd3a1ad69a8de5850e95b987d35fda2ee19839a",
    "realize-bz2-circle-file.text": "627cc98466b217c3dae77a2cefb1c0df968380b7ef7bf73ac9593248eb123164",
    "realize-bz2.json": "489a506c21f296044c1ffb996b464c811db107cfabf8e6e9e4e1e64721cf8633",
    "realize-bz2.text": "551eebc116ffb6b7a4ad8b96369a53f7e5dfd1137652bcaf9c65c9c4acc097e3",
    "realize-interval-cover-cap4-deg0.json": "68696062e4c1247ea1b61e60f84f6328c5465d5f4920403803f2d79024a134e6",
    "realize-interval-cover-cap4-deg0.text": "ec1736d5fa75c9cf5910ce6e06308a8a22b3bbde756f6f95565689b09619f239",
    "realize-point_site.json": "b276effadea544f0cccb1a212646986a7feeed8d644cba8b7f43f6771a363491",
    "realize-point_site.text": "e2831dfe2081fd99f5c4e02100059a9f327efa04ddb55cdc3c1579d2365620d1",
    "realize-pseudo-circle-collapse-file.json": "4b718b8185649274e88e388131d4efe83231ba78396fb30fffba82b5e5c79a20",
    "realize-pseudo-circle-collapse-file.text": "6c2f1b703758b108b7de33095ed7d61d2c394a78864650f2b2c45f1363bf9f5c",
    "realize-pseudo_circle_terminal.json": "4dc0ff1772de42c755c2446599e5c9341d1900b4eb34f9d1e4ecc34d4fd36ed0",
    "realize-pseudo_circle_terminal.text": "605902e4fe30c28efb6d70aa605a628560cab38c3ff75fe2172c0b18f488b0c7",
    "sheafify-collapse.json": "77cc7b2e57d36eb9f944ce6370baad4b1914b0f3739520918f8e42c3320dced0",
    "sheafify-collapse.text": "1f90bc55872e1689e51969d054607f04ddcfe64c8b86e7fee52d5bc7caef7df7",
    "sheafify-interval-constant2.json": "7f87ce1421d703bf07dd527d7a18ed044497e5732639568e698dc6fd9b776c85",
    "sheafify-interval-constant2.text": "5f47908fc68ca5ec23a56cbfe873bd0390f200e9f7a288389b5b944ec6dfd518",
    "sheafify-pseudo_circle_constant2.json": "4a1874124840c9887345e36e2949a62965bf3a6ea6d63804b2ebd660cb6f76ca",
    "sheafify-pseudo_circle_constant2.text": "8fb963240ba5520aa8bfa61f8f861e858e1eb6f9851974de525d7b62730eac23",
    "validate-pseudo-circle-space.json": "19306270dbd597da4ab16b4b39cc77c209d405d9f965fc6f964985f6c632952b",
    "validate-pseudo-circle-space.text": "250d2037d2f68c160ba28b3c6e282f2fa0d47245dd15414589abe6d93e306f77",
}

KIT_SHA256 = {
    "sierpinski": "ae61d528aa7d786b7b8724f958f0b1d36bcf81b01ecaa325b37b969c76df57d6",
    "pseudo_circle": "c8f7e6f1570c7f6a7d3125e9702ce1ffb01575923cb51fefb08c1898e753cc72",
    "interval_cover": "d7d3700875d79f624c075d7bf0a0af913bcc742c3e6f77da0842fca236980de0",
    "bz2": "723052e17bd79396d1c4899ae82d1f708420a5789b36b7e5923b80de777da68a",
    "action_z2_free": "4be0be61a5402ca57fad30e5dbdcd766a2cb27c207d0a3bac0c34acc1cccef21",
}


def _run(argv: list[str]) -> tuple[int, bytes]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    return code, out.getvalue().encode()


def _kit_digest(kit_dir: Path, names: list[str]) -> str:
    h = hashlib.sha256()
    for name in sorted(names):
        h.update(name.encode() + b"\0" + (kit_dir / name).read_bytes() + b"\0")
    return h.hexdigest()


def _circle_presheaf() -> dict:
    circle = {
        "dim_cap": 3,
        "nondegenerate": {"0": ["v"], "1": ["e"]},
        "faces": {"1": {"e": ["v", "v"]}},
    }
    s = sset_from_json(circle)
    ident = {str(k): {z: z for z in s.simplices(k)} for k in range(4)}
    return {"values": {"*": circle}, "actions": {"t": ident}}


def _write_kits(root: Path) -> dict[str, str]:
    """Writes every kit under root/kits, plus a simplicial presheaf file;
    returns kit name -> file digest."""
    digests = {}
    for kit in EXAMPLE_KITS:
        kit_dir = root / KITS / kit
        code, _ = _run(["examples", kit, "--dir", str(kit_dir)])
        assert code == 0
        digests[kit] = _kit_digest(kit_dir, [p.name for p in kit_dir.iterdir()])
        for p in kit_dir.iterdir():
            (root / KITS / p.name).write_bytes(p.read_bytes())
    (root / KITS / "bz2.circle.presheaf.json").write_text(cjson(_circle_presheaf()))
    return digests


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    root = tmp_path_factory.mktemp("golden")
    return root, _write_kits(root)


@pytest.mark.parametrize("case", sorted(CASES))
def test_stdout_digest(case, workdir, monkeypatch):
    root, _ = workdir
    monkeypatch.chdir(root)
    code, out = _run(CASES[case])
    assert code == 0
    assert hashlib.sha256(out).hexdigest() == STDOUT_SHA256[case]


@pytest.mark.parametrize("kit", EXAMPLE_KITS)
def test_kit_files_digest(kit, workdir):
    _, digests = workdir
    assert digests[kit] == KIT_SHA256[kit]


if __name__ == "__main__":
    import os
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        kits = _write_kits(Path(tmp))
        os.chdir(tmp)
        print("STDOUT_SHA256 = {")
        for case in sorted(CASES):
            code, out = _run(CASES[case])
            assert code == 0, case
            print(f'    "{case}": "{hashlib.sha256(out).hexdigest()}",')
        print("}\n\nKIT_SHA256 = {")
        for kit, digest in kits.items():
            print(f'    "{kit}": "{digest}",')
        print("}")
