import json

import numpy as np
import pytest

from galaxyid.codefile import FORMAT_VERSION, deserialize, load, save, serialize
from galaxyid.experiments import _params_key
from galaxyid.galaxy import GalaxyCode, GalaxyNode, GalaxyParams, build_code
from galaxyid.spherical import SphericalCode


@pytest.fixture(scope="module")
def code():
    return build_code(
        GalaxyParams(
            n=8, power=260.0, k=8, m_per_level=4, master_seed=13, t_bar=2,
            max_roots=3, saturation_probes=100,
        )
    )


def test_roundtrip_bit_identical(code):
    text = serialize(code)
    back = deserialize(text)
    assert serialize(back) == text
    for name in ("codewords", "centers", "ancestors", "index_paths"):
        a, b = getattr(code, name), getattr(back, name)
        assert (a.shape, a.dtype, a.tobytes()) == (b.shape, b.dtype, b.tobytes()), name


def test_roundtrip_preserves_metadata(code):
    back = deserialize(serialize(code))
    assert back.params == code.params
    assert back.packing_saturated == code.packing_saturated
    assert back.degraded == code.degraded
    assert len(back.roots) == len(code.roots)


def test_coordinates_are_hex_strings(code):
    doc = json.loads(serialize(code))
    assert doc["format_version"] == FORMAT_VERSION
    sample = doc["trees"][0]["center"][0]
    assert isinstance(sample, str)
    assert float.fromhex(sample) is not None


def test_unknown_version_rejected(code):
    doc = json.loads(serialize(code))
    doc["format_version"] = 999
    with pytest.raises(ValueError, match="format_version"):
        deserialize(json.dumps(doc))


def test_save_and_load(tmp_path, code):
    path = tmp_path / "code.json"
    save(code, path)
    back = load(path)
    assert serialize(back) == serialize(code)


def test_params_record_bytes_fixed():
    # a one-root depth-2 code and the sweep cell key, byte for byte as format v2 writes them
    p = GalaxyParams(
        n=8, power=260.0, k=8, m_per_level=4, master_seed=13, t_bar=2, r_min_coeff=0.5,
        max_roots=3, saturation_probes=100,
    )
    point = np.eye(8)[0] * 12.0  # at the root radius r k = 12 from the origin
    leaf = GalaxyNode(height=1, code=SphericalCode(
        center=point, radius=1.5, points=(point + 1.5 * np.eye(8)[1])[None, :]))
    root = GalaxyNode(height=2, code=SphericalCode(
        center=np.zeros(8), radius=12.0, points=point[None, :]), children=[leaf])
    zeros = ',"0x0.0p+0"' * 6
    text = (
        '{"achieved":{"packing_saturated":false},"format_version":2,"params":{"b":0.0,'
        '"enforce_cross_galaxy_margin":true,"k":8,"m_per_level":4,"master_seed":13,'
        '"max_attempts":20000,"max_roots":3,"n":8,"power":260.0,"r_min_coeff":0.5,'
        '"saturation_probes":100,"sigma":1.0,"t_bar":2,"theta":1.910633236249019},'
        '"trees":[{"center":["0x0.0p+0","0x0.0p+0"' + zeros + '],'
        '"children":[{"points":[["0x1.8000000000000p+3","0x1.8000000000000p+0"' + zeros + ']]}],'
        '"points":[["0x1.8000000000000p+3","0x0.0p+0"' + zeros + ']]}]}\n'
    )
    assert serialize(GalaxyCode(p, [root], packing_saturated=False)) == text
    assert serialize(deserialize(text)) == text
    assert _params_key(p) == "8|260.0|0.0|8|1.910633236249019|4|1.0|13|2|0.5|True|3|100|20000"


def test_params_coerced_by_declared_type(code):
    doc = json.loads(serialize(code))
    pd = doc["params"]
    pd.update(n=8.0, power=260, k=8.0, master_seed=13.0, enforce_cross_galaxy_margin=1,
              r_min_coeff=None)
    back = deserialize(json.dumps(doc)).params
    assert back == code.params
    assert type(back.n) is int and type(back.power) is float
    assert back.enforce_cross_galaxy_margin is True and back.r_min_coeff is None
    pd["r_min_coeff"] = 1
    assert deserialize(json.dumps(doc)).params.r_min_coeff == 1.0
    assert type(deserialize(json.dumps(doc)).params.r_min_coeff) is float
