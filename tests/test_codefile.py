import base64
import json
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from galaxyid import codefile
from galaxyid.cli import _params_key
from galaxyid.codefile import FORMAT_VERSION, deserialize, load, save, serialize
from galaxyid.galaxy import GalaxyCode, GalaxyParams, build_code
from galaxyid.spherical import greedy_prefix
from reference import stack_galaxies
from test_galaxy import BENCHMARK_BUILDS, EQUIVALENCE_GRID, _cli_params
from test_verify import one_node_radius, pulled


@pytest.fixture(scope="module")
def code():
    return build_code(
        GalaxyParams(
            n=8, power=260.0, k=8, m_per_level=4, master_seed=13, t_bar=2,
            max_roots=3, saturation_probes=100,
        )
    )


ARRAYS = ("centers", "counts", "codewords", "heights", "parents", "roots", "ancestors")


def assert_same_code(a, b):
    for name in ARRAYS:
        x, y = getattr(a, name), getattr(b, name)
        assert (x.shape, x.dtype, x.tobytes()) == (y.shape, y.dtype, y.tobytes()), name
    assert (a.params, a.packing_saturated, a.degraded) == (b.params, b.packing_saturated,
                                                           b.degraded)


def roundtrip(code):
    """The code's file text, after checking that it loads as the same code and
    that the loaded code writes the same text."""
    text = serialize(code)
    back = deserialize(text)
    assert_same_code(back, code)
    assert serialize(back) == text
    return text


def exception_nodes(text):
    return json.loads(text)["exceptions"]["nodes"]


def test_roundtrip_bit_identical(code):
    roundtrip(code)


def test_roundtrip_preserves_metadata(code):
    back = deserialize(serialize(code))
    assert back.params == code.params
    assert back.packing_saturated == code.packing_saturated
    assert back.degraded == code.degraded
    assert len(back.roots) == len(code.roots)


@pytest.mark.parametrize(
    "params",
    [pytest.param(GalaxyParams(**kw), id=name) for name, kw in EQUIVALENCE_GRID.items()]
    + [pytest.param(_cli_params(*flags, "--seed", str(seed)), id=f"{name}-{seed}")
       for name, flags in BENCHMARK_BUILDS.items() for seed in (100, 103, 107)],
)
def test_built_codes_roundtrip(params):
    code = build_code(params)
    nodes = exception_nodes(roundtrip(code))
    run = greedy_prefix(params.n, params.theta, params.m_per_level, params.max_attempts)
    if run.stopped:  # grown from the prefix alone: nothing to store but the roots
        assert nodes == []
    else:  # the nodes whose draws took a point past the prefix, and only those (at
        # k = 16 and n <= 6 the orthoplex prefix leaves no room: tail-n* have none)
        assert nodes == np.flatnonzero(code.counts != len(run.accepted)).tolist()
        assert bool(nodes) == (params.theta < 1)


@pytest.mark.parametrize("change", [pulled, one_node_radius, lambda c: stack_galaxies(c, 0.5)],
                         ids=["pulled", "one-node-radius", "stacked"])
def test_tampered_codes_roundtrip(change):
    code = change(build_code(_cli_params(*BENCHMARK_BUILDS["large-n"], "--seed", "100")))
    assert exception_nodes(roundtrip(code))


def test_code_of_exceptions_only_roundtrips(code):
    # every non-root center moved by 1e-3 and every codeword by 2e-3: no node's
    # points are its center plus the scaled prefix any more
    n_roots = len(code.roots)
    centers = code.centers.copy()
    centers[n_roots:] += 1e-3
    moved = GalaxyCode(code.params, centers, code.counts, code.codewords + 2e-3,
                       code.packing_saturated)
    assert exception_nodes(roundtrip(moved)) == list(range(len(code.centers)))


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_one_ulp_or_zero_sign_is_an_exception(code, data):
    tables = {"centers": code.centers.copy(), "codewords": code.codewords.copy()}
    name = data.draw(st.sampled_from(sorted(tables)))
    table = tables[name]
    first = len(code.roots) if name == "centers" else 0  # a root center is stored as it is
    row = data.draw(st.integers(first, len(table) - 1))
    col = data.draw(st.integers(0, table.shape[1] - 1))
    old = table[row, col]
    if old == 0.0 and data.draw(st.booleans()):
        table[row, col] = -old  # -0.0 == 0.0, but not bit for bit
    else:
        table[row, col] = np.nextafter(old, data.draw(st.sampled_from([-np.inf, np.inf])))
    changed = GalaxyCode(code.params, tables["centers"], code.counts, tables["codewords"],
                         code.packing_saturated)
    cells = data.draw(st.sampled_from([1, 3 * code.params.m_per_level * code.params.n,
                                       codefile._COMPARE_CELLS]))  # 1, 3 or all nodes a block
    with mock.patch.object(codefile, "_COMPARE_CELLS", cells):
        nodes = exception_nodes(roundtrip(changed))
    # the point belongs to the node that owns its row: the parent for a center
    owner = code.parents[row] if name == "centers" else code.ancestors[row, 0]
    assert owner in nodes


def test_serialize_memory_is_a_block_not_a_level():
    # 16384 codewords of n = 64, an 8.4 MB table: each level is re-grown and
    # compared in blocks, so `build` holds about one codeword table
    code = build_code(GalaxyParams(n=64, power=1e7, k=16, m_per_level=8, t_bar=3,
                                   max_roots=32, master_seed=3))
    serialize(code)
    tracemalloc.start()
    try:
        text = serialize(code)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert exception_nodes(text) == []
    assert peak <= 4 * 8 * codefile._COMPARE_CELLS <= code.codewords.nbytes // 4


def test_coordinates_are_base64_blocks(code):
    doc = json.loads(serialize(code))
    assert doc["format_version"] == FORMAT_VERSION == 5
    p = code.params
    blocks = {
        "roots": code.roots,
        "prefix": greedy_prefix(p.n, p.theta, p.m_per_level, p.max_attempts).accepted,
    }
    for name, table in blocks.items():
        raw = base64.b64decode(doc[name], validate=True)
        assert raw == table.astype("<f8").tobytes(), name
    assert doc["exceptions"] == {"counts": [], "nodes": [], "points": ""}


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


def test_text_path_of_the_benchmark_harness(tmp_path):
    # benchmarks/layers.py run_pass: serialize, write_text, count the encoded
    # bytes, read_text, deserialize; it needs str both ways
    code = build_code(_cli_params(*BENCHMARK_BUILDS["large-n"], "--seed", "103"))
    path = tmp_path / "code.json"
    text = codefile.serialize(code)
    assert isinstance(text, str)
    path.write_text(text)
    assert len(text.encode()) == path.stat().st_size
    back = codefile.deserialize(path.read_text())
    assert_same_code(back, code)
    assert path.read_bytes() == text.encode()


def test_params_record_bytes_fixed():
    # a one-root depth-2 code and the sweep cell key, byte for byte as format v5 writes them
    p = GalaxyParams(
        n=8, power=260.0, k=8, m_per_level=4, master_seed=13, t_bar=2, r_min_coeff=0.5,
        max_roots=3, saturation_probes=100,
    )
    point = np.eye(8)[0] * 12.0  # at the root radius r k = 12 from the origin
    code = GalaxyCode(p, np.array([np.zeros(8), point]), [1, 1],
                      (point + 1.5 * np.eye(8)[1])[None, :], packing_saturated=False)
    # little-endian doubles: 12.0 is 00..00 28 40, 1.5 is 00..00 f8 3f; the
    # prefix is the 4-point simplex of k = 8 (sqrt(3)/2 on each vertex's own
    # coordinate, -1/(2 sqrt(3)) on the other three of the first four), and
    # both nodes hold 1 point, not 4, so both are exceptions
    prefix = (
        "q0xY6Hq26z8dM5BFp3nSvx0zkEWnedK/HTOQRad50r8AAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAB"
        "0zkEWnedK/q0xY6Hq26z8dM5BFp3nSvx0zkEWnedK/AAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAd"
        "M5BFp3nSvx0zkEWnedK/q0xY6Hq26z8dM5BFp3nSvwAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAHT"
        "OQRad50r8dM5BFp3nSvx0zkEWnedK/q0xY6Hq26z8AAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAA=="
    )
    text = (
        '{"achieved":{"packing_saturated":false},'
        '"exceptions":{"counts":[1,1],"nodes":[0,1],'
        '"points":"' + "A" * 8 + "KE" + "A" * 83 + "Ch" + "A" * 9 + "+D8" + "A" * 64 + '="},'
        '"format_version":5,"params":{"b":0.0,'
        '"enforce_cross_galaxy_margin":true,"k":8,"m_per_level":4,"master_seed":13,'
        '"max_attempts":20000,"max_roots":3,"n":8,"power":260.0,"r_min_coeff":0.5,'
        '"saturation_probes":100,"sigma":1.0,"t_bar":2,"theta":1.910633236249019},'
        '"prefix":"' + prefix + '",'
        '"roots":"' + "A" * 86 + '=="}\n'
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
