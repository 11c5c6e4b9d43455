import base64
import json
import tracemalloc
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from galaxyid import codefile
from galaxyid.cli import _params_key
from galaxyid.codefile import FORMAT_VERSION, deserialize, load, save, serialize
from galaxyid.galaxy import GalaxyCode, GalaxyParams, build_code
from galaxyid.spherical import greedy_prefix
from reference import assert_same_code, codeword_table, from_arrays, node_points, stack_galaxies
from test_galaxy import BENCHMARK_BUILDS, EQUIVALENCE_GRID, SHAPED_BUILDS, _cli_params
from test_verify import one_node_radius, pulled


@pytest.fixture(scope="module")
def code():
    return build_code(
        GalaxyParams(
            n=8, power=260.0, k=8, m_per_level=4, master_seed=13, t_bar=2,
            max_roots=3, saturation_probes=100,
        )
    )


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
    moved = from_arrays(code.params, centers, code.counts, codeword_table(code) + 2e-3,
                        code.packing_saturated)
    assert exception_nodes(roundtrip(moved)) == list(range(len(code.centers)))


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_one_ulp_or_zero_sign_is_an_exception(code, data):
    # an exception node whose points differ from the grown ones by one ulp, or
    # by the sign of a zero (-0.0 == 0.0, but not bit for bit), keeps its bits
    node = data.draw(st.integers(0, len(code.centers) - 1))
    points = node_points(code, node).copy()
    row = data.draw(st.integers(0, len(points) - 1))
    col = data.draw(st.integers(0, points.shape[1] - 1))
    old = points[row, col]
    if old == 0.0 and data.draw(st.booleans()):
        points[row, col] = -old
    else:
        points[row, col] = np.nextafter(old, data.draw(st.sampled_from([-np.inf, np.inf])))
    changed = GalaxyCode(code.params, code.roots, ([node], [len(points)], points),
                         code.packing_saturated)
    assert node_points(changed, node).view(np.uint64).tolist() == \
        points.view(np.uint64).tolist()
    assert exception_nodes(roundtrip(changed)) == [node]


def test_serialize_memory_is_a_block_not_a_level():
    # 16384 codewords of n = 64, an 8.4 MB table: serialize writes the
    # code's roots and exception nodes and grows none of it again, so `build`
    # holds about one codeword table
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
    assert peak <= 2 << 20 <= codeword_table(code).nbytes // 4


def test_load_holds_its_centers_once(tmp_path):
    """Loading the scale-ladder code at R = 64 roots (n = 256, N = 32768)
    grows each level into its slice of one centers table, so it peaks under
    1.5 times the centers and ancestors it keeps.  Growing every level apart
    and then joining them peaked at 2.02 times."""
    path = tmp_path / "r64.json"
    save(build_code(_cli_params("--n", "256", "--k", "16", "--m", "8", "--depth", "3",
                                "--r-min-coeff", "2", "--power", "1e7", "--seed", "5",
                                "--max-roots", "64")), path)
    load(path)  # leave one-time import and cache allocations out of the peak
    tracemalloc.start()
    try:
        code = load(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(code.codewords) == 32768
    assert peak <= 1.5 * (code.centers.nbytes + code.ancestors.nbytes)


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
    code = from_arrays(p, np.array([np.zeros(8), point]), [1, 1],
                       (point + 1.5 * np.eye(8)[1])[None, :], False)
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


# JSON values of every kind, each small: what an edited document may hold
_JSON = st.one_of(
    st.none(), st.booleans(), st.integers(-3, 40), st.integers(-(2**70), 2**70),
    st.floats(allow_nan=True, allow_infinity=True), st.text(max_size=4),
    st.lists(st.integers(-3, 40), max_size=3), st.dictionaries(st.text(max_size=3), st.none(),
                                                             max_size=1),
)
_PARAM = {
    "int": st.one_of(st.integers(-2, 4), st.integers(-(2**70), 2**70), _JSON),
    "float": st.one_of(st.floats(-1e3, 1e3), st.sampled_from([0.5, 1.0, 3.0, 1e300]), _JSON),
    "bool": st.one_of(st.booleans(), st.integers(0, 2), _JSON),
}


def _encoded(values) -> str:
    return base64.b64encode(np.array(values, dtype="<f8").tobytes()).decode("ascii")


def _rows(n):
    """base64 of 0-12 rows of n coordinates, most of them finite, or of a
    partial row."""
    cells = st.integers(0, 12).map(lambda rows: rows * n) | st.integers(0, 3 * n)
    coords = st.floats(-1e3, 1e3) | st.floats(allow_nan=True, allow_infinity=True)
    return cells.flatmap(lambda k: st.lists(coords, min_size=k, max_size=k)).map(_encoded)


def _editable(ex, n) -> bool:
    """Whether ex is an exceptions section whose points are those its counts give."""
    try:
        return len(ex["nodes"]) == len(ex["counts"]) and all(
            type(c) is int and 0 <= c <= 20 for c in ex["counts"]
        ) and len(base64.b64decode(ex["points"], validate=True)) == 8 * n * sum(ex["counts"])
    except (TypeError, KeyError, ValueError):
        return False


def _exception_edit(draw, ex, n):
    """ex with one exception node moved, recounted (with as many new points),
    dropped or added; or with its nodes or counts list edited alone."""
    nodes, counts = list(ex["nodes"]), list(ex["counts"])
    points = np.frombuffer(base64.b64decode(ex["points"]), dtype="<f8").reshape(-1, n).tolist()
    ends = np.cumsum([0] + counts).tolist()
    i = draw(st.integers(0, len(nodes)))
    index = st.integers(-3, 40) | st.integers(2**62, 2**70)
    point = st.lists(st.floats(-1e3, 1e3) | st.just(np.nan), min_size=n, max_size=n)
    how = draw(st.sampled_from(["move", "recount", "drop", "add", "nodes", "counts"]))
    if how == "add" or not nodes:
        nodes.insert(i, draw(index))
        counts.insert(i, 0)
        ends.insert(i, ends[i])
        how = "recount"
    i = min(i, len(nodes) - 1)
    if how == "move":
        nodes[i] = draw(index)
    elif how == "recount":
        counts[i] = draw(st.integers(-1, 20))
        points[ends[i] : ends[i + 1]] = draw(st.lists(point, min_size=max(counts[i], 0),
                                                      max_size=max(counts[i], 0)))
    elif how == "drop":
        del nodes[i], counts[i], points[ends[i] : ends[i + 1]]
    else:
        values = nodes if how == "nodes" else counts
        values[i : i + draw(st.integers(0, 1))] = draw(st.lists(index | _JSON, max_size=2))
    return {**ex, "nodes": nodes, "counts": counts, "points": _encoded(points)}


@st.composite
def _edited(draw, doc):
    doc = json.loads(json.dumps(doc))
    n = doc["params"]["n"]
    for _ in range(draw(st.integers(1, 3))):
        part = draw(st.sampled_from(["exception"] * 6 + ["points", "roots", "params", "params",
                                                         "achieved", "exceptions"]))
        ex = doc["exceptions"]
        if part == "exception" and _editable(ex, n):
            doc["exceptions"] = _exception_edit(draw, ex, n)
        elif part == "points" and isinstance(ex, dict):
            ex["points"] = draw(_rows(n) | _JSON)
        elif part == "roots":
            doc["roots"] = draw(_rows(n) | _JSON)
        elif part == "exceptions":
            doc["exceptions"] = draw(_JSON)
        elif part == "achieved":
            doc["achieved"] = draw(st.fixed_dictionaries({"packing_saturated": _JSON}) | _JSON)
        elif part == "params":
            field = draw(st.sampled_from(sorted(fields(GalaxyParams), key=lambda f: f.name)))
            # t_bar stays small: the loader grows every level, and a huge
            # depth runs for as long as its level radii take to compute
            kind = field.type.partition(" | ")[0]
            doc["params"][field.name] = draw(st.integers(-2, 4) if field.name == "t_bar"
                                             else _PARAM[kind])
    return doc


@pytest.fixture(scope="module")
def tail_doc():
    # nodes that draw past the prefix hold uneven counts: exceptions to edit
    code = build_code(GalaxyParams(**SHAPED_BUILDS["tails-n4"], master_seed=1))
    doc = json.loads(serialize(code))
    assert doc["exceptions"]["nodes"]
    return doc


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow])
@given(data=st.data())
def test_loader_raises_only_what_the_cli_maps_to_exit_two(tail_doc, data):
    # an edited document either loads or raises ValueError or OverflowError,
    # which `cli.main` reports as exit 2; never TypeError, IndexError or
    # MemoryError, which would end in a traceback
    text = json.dumps(data.draw(_edited(tail_doc)))
    try:
        deserialize(text)
    except (ValueError, OverflowError):
        pass
