import copy
import pickle
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from tracelink.errors import IntegrityError, ParseError
from tracelink.paths import ROOT_PATH, parse_path
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

from conftest import source_path_key


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
