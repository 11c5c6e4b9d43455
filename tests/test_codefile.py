import base64
import json

import numpy as np
import pytest

from galaxyid.cli import _params_key
from galaxyid.codefile import FORMAT_VERSION, deserialize, load, save, serialize
from galaxyid.galaxy import GalaxyCode, GalaxyParams, build_code


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
    for name in ("codewords", "centers", "counts", "ancestors"):
        a, b = getattr(code, name), getattr(back, name)
        assert (a.shape, a.dtype, a.tobytes()) == (b.shape, b.dtype, b.tobytes()), name


def test_roundtrip_preserves_metadata(code):
    back = deserialize(serialize(code))
    assert back.params == code.params
    assert back.packing_saturated == code.packing_saturated
    assert back.degraded == code.degraded
    assert len(back.roots) == len(code.roots)


def test_coordinates_are_base64_blocks(code):
    doc = json.loads(serialize(code))
    assert doc["format_version"] == FORMAT_VERSION == 4
    assert doc["counts"] == code.counts.tolist()
    for name in ("centers", "codewords"):
        raw = base64.b64decode(doc[name], validate=True)
        assert raw == getattr(code, name).astype("<f8").tobytes(), name


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
    # a one-root depth-2 code and the sweep cell key, byte for byte as format v4 writes them
    p = GalaxyParams(
        n=8, power=260.0, k=8, m_per_level=4, master_seed=13, t_bar=2, r_min_coeff=0.5,
        max_roots=3, saturation_probes=100,
    )
    point = np.eye(8)[0] * 12.0  # at the root radius r k = 12 from the origin
    code = GalaxyCode(p, np.array([np.zeros(8), point]), [1, 1],
                      (point + 1.5 * np.eye(8)[1])[None, :], packing_saturated=False)
    # little-endian doubles: 12.0 is 00..00 28 40, 1.5 is 00..00 f8 3f
    text = (
        '{"achieved":{"packing_saturated":false},'
        '"centers":"' + "A" * 93 + "ChA" + "A" * 75 + '=",'
        '"codewords":"AAAAAAAAKEAAAAAAAAD4P' + "w" + "A" * 64 + '==",'
        '"counts":[1,1],"format_version":4,"params":{"b":0.0,'
        '"enforce_cross_galaxy_margin":true,"k":8,"m_per_level":4,"master_seed":13,'
        '"max_attempts":20000,"max_roots":3,"n":8,"power":260.0,"r_min_coeff":0.5,'
        '"saturation_probes":100,"sigma":1.0,"t_bar":2,"theta":1.910633236249019}}\n'
    )
    assert serialize(code) == text
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
