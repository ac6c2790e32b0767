import copy
import gc
import hashlib
import json
import pickle
import random
import re
from contextlib import contextmanager

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tracelink.errors import IntegrityError, ParseError, PathSyntaxError, TracelinkError
from tracelink.gtm import ElemNode, change_impact, origin_track, query_gtm
from tracelink.m2c import augment_template, parse_template, print_template
from tracelink.m2m import augment_m2m, execute_m2m, parse_m2m
from tracelink.model import canonical_json, parse_metamodel, parse_model
from tracelink.paths import ROOT_PATH, ElementPath, parse_path
from tracelink.trace import (
    CodeSpan,
    ElementRef,
    LocalTraceModel,
    TraceLink,
    build_identifier_tree,
    load_trace,
    save_trace,
    span_at,
)

from conftest import copy_workspace, run_enactment, source_path_key


def path(s):
    return parse_path(s)


def test_two_branch_tree_structure():
    tree = build_identifier_tree([path("filters[0].sections[1]"), path("filters[1].sections[0]")])
    root = tree.root
    assert sorted(root.children) == [("filters", 0), ("filters", 1)]
    left = root.children[("filters", 0)]
    right = root.children[("filters", 1)]
    assert list(left.children) == [("sections", 1)]
    assert list(right.children) == [("sections", 0)]
    assert left.children[("sections", 1)].terminal
    assert not left.terminal
    assert [str(p) for p in tree.paths()] == ["filters[0].sections[1]", "filters[1].sections[0]"]


def test_empty_tree():
    tree = build_identifier_tree([])
    assert tree.root.children == {}
    assert tree.paths() == []


def test_duplicate_insert_is_noop():
    p = path("a[0].b[1]")
    tree = build_identifier_tree([p, p, p])
    assert tree.paths() == [p]


def test_root_path_inserts_as_terminal_root():
    tree = build_identifier_tree([ROOT_PATH, path("a[0]")])
    assert tree.root.terminal
    assert set(tree.paths()) == {ROOT_PATH, path("a[0]")}


def test_prefix_paths_survive_enumeration():
    paths = [path("a[0]"), path("a[0].b[0]")]
    tree = build_identifier_tree(paths)
    assert set(tree.paths()) == set(paths)


def test_hundred_random_paths_round_trip():
    rng = random.Random(7)
    pool = []
    for _ in range(100):
        text = ".".join(f"{rng.choice('abcdef')}[{rng.randint(0, 5)}]" for _ in range(rng.randint(1, 4)))
        pool.append(parse_path(text))
    tree = build_identifier_tree(pool)
    assert set(tree.paths()) == set(pool)


def test_paths_come_in_source_path_order():
    paths = [ROOT_PATH, path("a.b"), path("a[2]"), path("a[10]"), path("a[2].b[0]")]
    assert build_identifier_tree(paths).paths() == ["a.b", "a[2]", "a[2].b[0]", "a[10]", "root"]


def test_an_index_longer_than_int_reads_is_a_one_line_error():
    # parse_path takes any run of ASCII digits; int() converts at most 4,300 of them.
    with pytest.raises(TracelinkError) as info:
        build_identifier_tree([path("a[0]"), path("a[" + "9" * 5000 + "].b[1]")])
    assert str(info.value) == "path index of 5000 digits in 'a' is too large"
    assert build_identifier_tree([path("a[" + "9" * 4000 + "]")]).root.children.keys() == {("a", int("9" * 4000))}


_seg = st.tuples(st.sampled_from(("a", "b", "root", "s")), st.one_of(st.none(), st.integers(0, 11)))
_path = st.lists(_seg, min_size=1, max_size=4).map(
    lambda segs: parse_path(".".join(n if i is None else f"{n}[{i}]" for n, i in segs)))


@given(st.lists(_path, max_size=30))
def test_tree_enumeration_equals_input_set(paths):
    assert build_identifier_tree(paths).paths() == sorted(set(paths), key=source_path_key)


# -- links and serialization --------------------------------------------------

def _sample_trace():
    return LocalTraceModel(
        id="trace:Sample",
        transformation_id="TransformationM2M:Sample.m2m",
        execution_stamp=3,
        links=(
            TraceLink(
                sources=(ElementRef("in.model.json", path("wsn[0].device[0]")),),
                targets=(ElementRef("out.model.json", path("networks[0].platforms[0]")),),
                tags={"rule": "Device2Platform"},
            ),
            TraceLink(
                sources=(ElementRef("out.model.json", path("networks[0].platforms[0]")),),
                targets=(CodeSpan("Sink.c", 10, 32, 2, 1),),
                tags={"template": "Sink.c"},
            ),
        ),
    )


def test_trace_round_trip():
    t = _sample_trace()
    assert load_trace(save_trace(t)) == t


def test_empty_links_round_trip():
    t = LocalTraceModel("trace:empty", "TransformationM2C:X.m2c", 1, ())
    assert load_trace(save_trace(t)) == t


# Text that json escapes or writes as is: quotes, backslashes, control
# characters, U+2028 and non-ASCII letters, among any other characters.
_text = st.text(st.one_of(st.sampled_from('"\\\x00\x1f\x7f\u2028é中😀'), st.characters()), max_size=4)
_element = st.builds(ElementRef, _text, _path)
_span = st.builds(lambda file, start, length, line, col: CodeSpan(file, start, start + length, line, col),
                  _text, st.integers(0, 10**6), st.integers(0, 99), st.integers(1, 10**4), st.integers(1, 500))
_link = st.builds(
    TraceLink,
    st.lists(_element, min_size=1, max_size=2).map(tuple),
    st.one_of(st.lists(_element, min_size=1, max_size=2), st.lists(_span, min_size=1, max_size=2)).map(tuple),
    st.dictionaries(_text.filter(bool), _text, max_size=2),
)
_trace = st.builds(LocalTraceModel, _text, _text, st.integers(-2**70, 2**70),
                   st.lists(_link, max_size=3).map(tuple))


def _trace_document(t):
    """A trace as the document its file holds, for json and canonical_json."""
    def endpoint(e):
        if isinstance(e, CodeSpan):
            return {"file": e.file_uri, "startByte": e.start_byte, "endByte": e.end_byte,
                    "startLine": e.start_line, "startCol": e.start_col}
        return {"model": e.model_uri, "path": str(e.path)}

    return {"id": t.id, "transformation": t.transformation_id, "executionStamp": t.execution_stamp,
            "links": [{"sources": [endpoint(s) for s in link.sources],
                       "targets": [endpoint(x) for x in link.targets], "tags": link.tags}
                      for link in t.links]}


@settings(max_examples=60)
@given(_trace)
def test_a_trace_is_written_as_json_writes_its_document_and_loads_back(t):
    document = _trace_document(t)
    expected = json.dumps(document, ensure_ascii=False, indent=2, sort_keys=True) + "\n"
    assert save_trace(t) == canonical_json(document) == expected
    assert load_trace(save_trace(t)) == t


@pytest.mark.parametrize("fields", [("f", True, 5, 1, 1), ("f", 0, 5.0, 1, 1), ("f", 0, 5, None, 1),
                                    ("f", 0, 5, 1, "1"), (b"f", 0, 5, 1, 1), (None, 0, 5, 1, 1)])
def test_span_that_would_not_load_back_rejected(fields):
    with pytest.raises(IntegrityError, match="trace span f"):
        CodeSpan(*fields)


@pytest.mark.parametrize("sources, targets, tags, message", [
    ((CodeSpan("f", 0, 1, 1, 1),), (ElementRef("m", ROOT_PATH),), {}, "sources must be model elements"),
    ((("m", ROOT_PATH),), (ElementRef("m", ROOT_PATH),), {}, "sources must be model elements"),
    ((ElementRef("m", ROOT_PATH),), (("m", ROOT_PATH),), {}, "targets must be model elements or code spans"),
    ((ElementRef("m", ROOT_PATH),), (ElementRef("m", ROOT_PATH),), {"rule": 5}, "'tags' must be an object"),
    ((ElementRef("m", ROOT_PATH),), (ElementRef("m", ROOT_PATH),), {5: "x"}, "'tags' must be an object"),
    ((ElementRef("m", ROOT_PATH),), (ElementRef("m", ROOT_PATH),), ["rule"], "'tags' must be an object"),
    ((ElementRef("m", ROOT_PATH),), (ElementRef("m", ROOT_PATH),), {"": "x"}, "empty tag key"),
])
def test_link_that_would_not_load_back_rejected(sources, targets, tags, message):
    with pytest.raises(IntegrityError, match=message):
        TraceLink(sources, targets, tags)


@pytest.mark.parametrize("header", [(7, "t", 1), ("i", None, 1), ("i", "t", True), ("i", "t", 1.0),
                                    ("i", "t", "1")])
def test_trace_header_that_would_not_load_back_rejected(header):
    with pytest.raises(IntegrityError, match="must be strings, executionStamp an integer"):
        LocalTraceModel(*header)


@contextmanager
def nothing_left_to_collect():
    """Run the block with the cyclic collector off, then assert that it left
    no unreachable object behind."""
    gc.collect()
    enabled = gc.isenabled()
    gc.disable()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        yield
        gc.collect()
        assert gc.garbage == []
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
        if enabled:
            gc.enable()


def test_writers_leave_no_reference_cycles(enacted):
    """Nor do the reader, the identifier tree of a trace's sources, a whole
    query, and parsing the fixture PIM and running an augmented fixture M2M
    on it, so what they build is freed when dropped, without the cyclic
    collector."""
    ws, _mgm, result = enacted
    mgm = result.megamodel
    document = {"a": [1, {"b": [2.5, None, True, []]}, "x"], "c": {"d": {"e": "f"}}}
    trace = _sample_trace()
    text = (ws / "traces/MapContiki.trace.json").read_text(encoding="utf-8")
    sources = [source.path for link in load_trace(text).links for source in link.sources]
    metamodels = {name: parse_metamodel((ws / f"{name}.mm.json").read_text(encoding="utf-8"))
                  for name in ("PIMM", "PSMM")}
    pim_text = (ws / "Input.pim.model.json").read_text(encoding="utf-8")
    rules = augment_m2m(parse_m2m((ws / "MapContiki.m2m").read_text(encoding="utf-8"), metamodels))
    with nothing_left_to_collect():
        canonical_json(document)
        save_trace(trace)
        load_trace(text)
        assert len(build_identifier_tree(sources).paths()) == len(set(sources)) > 1
        pim = parse_model(pim_text, metamodels["PIMM"], uri="Input.pim.model.json")
        execute_m2m(rules, {"pim": pim}, metamodels, "psm.model.json")
        del pim
        g = query_gtm(mgm, ws, "Input.pim.model.json", forward=True)
        change_impact(g, ElemNode("Input.pim.model.json", parse_path("indirect[0].indirectdevice[0]")))
        g = query_gtm(mgm, ws, "out/GenContiki/Sink.c", forward=False)
        origin_track(g, location=("out/GenContiki/Sink.c", 200))
        del g


def test_an_augmented_enactment_leaves_no_reference_cycles(tmp_path):
    """Nor do a whole augmented fixture enactment and the `augment-m2c` path
    (parse, augment, print) of each fixture template."""
    ws = copy_workspace(tmp_path)
    psmm = {"PSMM": parse_metamodel((ws / "PSMM.mm.json").read_text(encoding="utf-8"))}
    templates = [path.read_text(encoding="utf-8") for path in sorted(ws.glob("Gen*.m2c"))]
    with nothing_left_to_collect():
        run_enactment(ws)
        for text in templates:
            print_template(augment_template(parse_template(text, psmm)))


def test_a_reference_by_path_equals_one_by_its_text():
    by_path, by_text = ElementRef("m", parse_path("a[0]")), ElementRef("m", "a[0]")
    assert by_path == by_text and hash(by_path) == hash(by_text)
    assert str(by_path) == str(by_text) == "m:a[0]"


def test_link_without_sources_rejected():
    with pytest.raises(IntegrityError):
        TraceLink(sources=(), targets=(CodeSpan("f", 0, 1, 1, 1),))


def test_link_mixing_target_kinds_rejected():
    with pytest.raises(IntegrityError):
        TraceLink(
            sources=(ElementRef("m", ROOT_PATH),),
            targets=(ElementRef("m", ROOT_PATH), CodeSpan("f", 0, 1, 1, 1)),
        )


def test_stored_file_with_empty_sources_rejected():
    import json

    data = json.loads(save_trace(_sample_trace()))
    data["links"][0]["sources"] = []
    with pytest.raises(IntegrityError):
        load_trace(json.dumps(data))


def test_code_span_as_source_rejected():
    import json

    data = json.loads(save_trace(_sample_trace()))
    data["links"][0]["sources"] = [{"file": "f", "startByte": 0, "endByte": 1,
                                    "startLine": 1, "startCol": 1}]
    with pytest.raises(IntegrityError):
        load_trace(json.dumps(data))


@pytest.mark.parametrize("field", ["startByte", "endByte", "startLine", "startCol"])
@pytest.mark.parametrize("value", [1.5, "x", True, None])
def test_span_field_that_is_no_integer_rejected(field, value):
    import json

    data = json.loads(save_trace(_sample_trace()))
    data["links"][1]["targets"][0][field] = value
    with pytest.raises(IntegrityError):
        load_trace(json.dumps(data))


@pytest.mark.parametrize("value", [1.5, True, None, [], {}])
def test_element_path_that_is_no_string_rejected(value):
    data = json.loads(save_trace(_sample_trace()))
    data["links"][0]["sources"][0]["path"] = value
    with pytest.raises(IntegrityError, match=f"trace element path must be a string: {re.escape(repr(value))}$"):
        load_trace(json.dumps(data))


def test_a_stored_path_in_other_text_loads_as_its_canonical_text():
    data = json.loads(save_trace(_sample_trace()))
    data["links"][0]["sources"][0]["path"] = "root.wsn[00].device[0]"
    loaded = load_trace(json.dumps(data))
    assert loaded == _sample_trace() and type(loaded.links[0].sources[0].path) is ElementPath


def test_a_stored_path_that_is_no_path_rejected_before_a_later_fault():
    data = json.loads(save_trace(_sample_trace()))
    data["links"][0]["sources"][0]["path"] = "wsn[0]..device[0]"
    del data["links"][1]["tags"]["template"]
    data["links"][1]["tags"][""] = "x"
    with pytest.raises(PathSyntaxError, match="expected identifier at offset 7"):
        load_trace(json.dumps(data))


@pytest.mark.parametrize("field, value", [
    ("id", 7), ("id", None), ("transformation", {"a": 1}), ("transformation", [1]),
    ("executionStamp", True), ("executionStamp", 1.0), ("executionStamp", "3"),
])
def test_mistyped_header_field_rejected(field, value):
    import json

    data = json.loads(save_trace(_sample_trace()))
    data[field] = value
    with pytest.raises(IntegrityError, match="must be strings, executionStamp an integer"):
        load_trace(json.dumps(data))


def test_negative_span_rejected():
    with pytest.raises(IntegrityError):
        CodeSpan("f", 5, 4, 1, 1)


@pytest.mark.parametrize("line, col", [(0, 1), (1, 0), (0, -3), (-1, 5)])
def test_span_starting_before_line_or_column_one_rejected(line, col):
    with pytest.raises(IntegrityError, match=f"bad span start {line}:{col}"):
        CodeSpan("f", 0, 1, line, col)


def test_stored_span_at_line_zero_rejected():
    import json

    data = json.loads(save_trace(_sample_trace()))
    data["links"][1]["targets"][0].update(startLine=0, startCol=-3)
    with pytest.raises(IntegrityError, match="bad span start 0:-3"):
        load_trace(json.dumps(data))


def test_endpoints_are_tuples_of_their_fields():
    ref, span = ElementRef("m", parse_path("a[0]")), CodeSpan("f", 0, 3, 1, 1)
    assert ref == ("m", "a[0]") and hash(ref) == hash(("m", "a[0]"))
    assert span == ("f", 0, 3, 1, 1) and hash(span) == hash(("f", 0, 3, 1, 1))
    assert repr(ref) == "ElementRef(model_uri='m', path=parse_path('a[0]'))"
    assert repr(span) == "CodeSpan(file_uri='f', start_byte=0, end_byte=3, start_line=1, start_col=1)"
    assert (str(ref), str(span)) == ("m:a[0]", "f:1:1")


@given(uri=st.text(max_size=5), index=st.integers(0, 20), start=st.integers(0, 20),
       length=st.integers(0, 20), line=st.integers(1, 20), col=st.integers(1, 20))
def test_an_element_ref_never_equals_a_code_span(uri, index, start, length, line, col):
    ref, span = ElementRef(uri, parse_path(f"a[{index}]")), CodeSpan(uri, start, start + length, line, col)
    assert ref != span and span != ref and len({ref, span}) == 2


@pytest.mark.parametrize("endpoint", [ElementRef("m", parse_path("x_1[10].y")), CodeSpan("f", 2, 9, 1, 3)],
                         ids=["element", "code"])
def test_endpoints_copy_and_pickle(endpoint):
    for twin in (copy.copy(endpoint), copy.deepcopy(endpoint), pickle.loads(pickle.dumps(endpoint))):
        assert twin == endpoint and type(twin) is type(endpoint) and str(twin) == str(endpoint)
    assert type(pickle.loads(pickle.dumps(endpoint))[1]) is type(endpoint[1])


def test_rebuilding_a_bad_span_rejected():
    span = CodeSpan("f", 2, 9, 1, 3)
    with pytest.raises(IntegrityError, match=r"bad span \[9, 2\)"):
        span._replace(start_byte=9, end_byte=2)
    with pytest.raises(IntegrityError, match="bad span start 0:3"):
        CodeSpan._make(["f", 2, 9, 0, 3])
    rebuild, args = span.__reduce_ex__(pickle.HIGHEST_PROTOCOL)[:2]  # what pickle.loads calls
    with pytest.raises(IntegrityError, match=r"bad span \[-1, 9\)"):
        rebuild(args[0], "f", -1, 9, 1, 3)


# sha256 of each trace file of the enacted fixture, as the writer saved it.
TRACE_DIGESTS = {
    "GenArduino": "d74c83f8259531b716014d8396677bb4882b588ffb174c909a11ad57a2b03ebb",
    "GenContiki": "8b3723b0d371e2e7d9bf62410fc0fb58843f535a76e6a724c8a8d4378a2e3028",
    "GenGateway": "08ea68fdd8d67280ee9f1dbe7e4e3a6743ff2daa0a03b5e419e729de81183f6f",
    "GenRIOT": "5e142ea701314ae04a362f14eadb69de7b53e7663fa6f478ff89d796887a8ae4",
    "MapArduino": "e6a8596dcf4e336fb8d0fffd2c440e05cd5e72930d6bfdc36507bb3e5bd9101c",
    "MapContiki": "d7423f8d0bb0ea83bcdfe9dedd95c447b68e9f349ed735b511c8d14f0ccb5d3c",
    "MapDataCollector": "a0f3929965aaf6bd7253f0c39d455d09ff8632cbf87512239b611d69916744f7",
    "MapRIOT": "f1a692de9f7af2231ea3b0753fe60fa9c94f72b0e2b18e504717515089a0e7ee",
}


def test_enacted_trace_files_keep_their_bytes(enacted):
    ws, _mgm, _result = enacted
    digests = {p.name.removesuffix(".trace.json"): hashlib.sha256(p.read_bytes()).hexdigest()
               for p in (ws / "traces").glob("*.trace.json")}
    assert digests == TRACE_DIGESTS


def test_malformed_trace_json():
    with pytest.raises(ParseError):
        load_trace("{oops")


def newline_offsets(clean):
    return [i for i, byte in enumerate(clean) if byte == ord("\n")]


def test_span_line_col_derivation():
    clean = b"line one\nline two\nline three\n"
    span = span_at("f", newline_offsets(clean), clean.find(b"two"), clean.find(b"two") + 3)
    assert (span.start_line, span.start_col) == (2, 6)
    first = span_at("f", newline_offsets(clean), 0, 4)
    assert (first.start_line, first.start_col) == (1, 1)


@given(st.binary(max_size=60).map(lambda b: b.replace(b"\r", b"\n")), st.data())
def test_span_line_col_matches_a_count_of_the_preceding_bytes(clean, data):
    start = data.draw(st.integers(0, len(clean)))
    span = span_at("f", newline_offsets(clean), start, start)
    assert span.start_line == clean.count(b"\n", 0, start) + 1
    assert span.start_col == start - clean.rfind(b"\n", 0, start)


def test_forward_and_backward_indexes_are_transposes():
    links = _sample_trace().links
    forward = {(s, t) for link in links for s in link.sources for t in link.targets}
    backward = {(t, s) for link in links for s in link.sources for t in link.targets}
    assert {(s, t) for (t, s) in backward} == forward
    for s, t in forward:
        assert (t, s) in backward
