import copy
import pickle
import string

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tracelink.errors import PathSyntaxError
from tracelink.paths import ROOT_PATH, ElementPath, parse_path


def test_two_segment_indexed_path():
    p = parse_path("filters[0].sections[1]")
    assert type(p) is ElementPath and p == "filters[0].sections[1]"


def test_sibling_path():
    p = parse_path("filters[1].sections[0]")
    assert p == "filters[1].sections[0]" and p != parse_path("filters[0].sections[1]")


def test_bare_root_segment():
    assert parse_path("root") == ROOT_PATH == "root"


@pytest.mark.parametrize("text", [
    "filters[0].sections[1]",
    "filters[1].sections[0]",
    "root",
    "a",
    "a[0]",
    "x_1[10].y[0].z[3]",
])
def test_print_parse_round_trip(text):
    assert str(parse_path(text)) == text


@pytest.mark.parametrize("text,offset", [
    ("", 0),
    ("[0]", 0),
    ("a.", 2),
    ("a..b", 2),
    ("a[", 2),
    ("a[]", 2),
    ("a[1", 3),
    ("a[1].", 5),
    ("a[x]", 2),
    ("a b", 1),
    ("1a", 0),
])
def test_syntax_errors_carry_offsets(text, offset):
    with pytest.raises(PathSyntaxError) as exc:
        parse_path(text)
    assert exc.value.offset == offset


@pytest.mark.parametrize("text,offset", [
    ("wsn[\u00b2]", 4),  # superscript two: str.isdigit, but int() rejects it
    ("wsn[\u0663]", 4),  # Arabic-Indic three: int() reads it as 3
    ("wsn[1\u0663]", 5),
])
def test_an_index_is_ascii_digits(text, offset):
    with pytest.raises(PathSyntaxError, match="expected index") as exc:
        parse_path(text)
    assert exc.value.offset == offset


def test_leading_zeros_are_read_and_printed_without():
    p = parse_path("a[007].b[00].c[10]")
    assert p == parse_path("a[7].b[0].c[10]")
    assert str(p) == "a[7].b[0].c[10]"


_ident = st.from_regex(r"[a-z_][a-z0-9_]{0,5}", fullmatch=True)
_segment = st.tuples(_ident, st.one_of(st.none(), st.integers(0, 50)))


@given(st.lists(_segment, min_size=1, max_size=6))
def test_path_round_trip_property(segs):
    text = ".".join(n if i is None else f"{n}[{i}]" for n, i in segs)
    parsed = parse_path(text)
    assert parsed == text and hash(parsed) == hash(text) and str(parsed) == text
    assert type(ElementPath(text)) is ElementPath and ElementPath(text) == parsed
    assert character_loop_parse(text) == text


@settings(max_examples=50)
@given(st.lists(st.tuples(_ident, st.integers(0, 50), st.integers(0, 3)), min_size=1, max_size=6))
def test_non_canonical_spellings_equal_their_canonical_form(segs):
    spelled = ".".join(f"{n}[{'0' * zeros}{i}]" for n, i, zeros in segs)
    canonical = ".".join(f"{n}[{i}]" for n, i, _ in segs)
    assert parse_path(spelled) == parse_path(canonical)
    assert str(parse_path(spelled)) == canonical


_IDENT_START = frozenset(string.ascii_letters + "_")
_IDENT_CONT = frozenset(string.ascii_letters + string.digits + "_")


def character_loop_parse(s: str) -> str:
    """The parser that compiled scanning replaced, kept as the oracle for its
    errors and its canonical text. One line differs, marked: an index is ASCII
    digits only; the old loop took any ``str.isdigit`` character, so ``int()``
    raised ValueError or read ``[\u0663]`` as ``[3]``."""
    if not s:
        raise PathSyntaxError("empty path", 0)
    steps: list[str] = []
    i = 0
    n = len(s)
    while True:
        start = i
        if i >= n or s[i] not in _IDENT_START:
            raise PathSyntaxError("expected identifier", i)
        i += 1
        while i < n and s[i] in _IDENT_CONT:
            i += 1
        segment = s[start:i]
        if i < n and s[i] == "[":
            j = i + 1
            digits_start = j
            while j < n and s[j].isdigit():
                if s[j] not in string.digits:  # the one change
                    raise PathSyntaxError("expected index", j)
                j += 1
            if j == digits_start:
                raise PathSyntaxError("expected index", j)
            if j >= n or s[j] != "]":
                raise PathSyntaxError("expected ']'", j)
            segment += f"[{int(s[digits_start:j])}]"
            i = j + 1
        steps.append(segment)
        if i == n:
            break
        if s[i] != ".":
            raise PathSyntaxError("expected '.'", i)
        i += 1
        if i == n:
            raise PathSyntaxError("trailing '.'", i)
    return ".".join(steps)


def _outcome(parse, s):
    try:
        return str(parse(s))
    except PathSyntaxError as exc:
        return f"PathSyntaxError: {exc} ({exc.offset})"


# Near-paths: an identifier, then pieces of segments and stray characters.
_near_paths = st.builds(
    lambda head, rest: head + "".join(rest),
    st.sampled_from(("a", "b_", "")),
    st.lists(st.sampled_from(("a", ".b", "[", "]", ".", "0", "09", "[1]", "[0]", "\u00b2", "\u0663", " ")),
             max_size=6))


@settings(max_examples=600)
@given(st.one_of(st.text(alphabet="ab_09[].\u00b2\u0663 ", max_size=12), _near_paths))
def test_parse_path_agrees_with_the_character_loop(s):
    assert _outcome(parse_path, s) == _outcome(character_loop_parse, s)


def test_a_path_is_its_canonical_text():
    p = parse_path("a[007].b")
    assert p == "a[7].b" and hash(p) == hash("a[7].b")
    assert isinstance(p, str) and p != "a[007].b"
    assert repr(p) == "parse_path('a[7].b')"


@pytest.mark.parametrize("clone", [copy.copy, copy.deepcopy, lambda p: pickle.loads(pickle.dumps(p))])
def test_copies_stay_paths(clone):
    p = parse_path("x_1[10].y")
    assert type(clone(p)) is ElementPath and clone(p) == p and repr(clone(p)) == repr(p)


def test_empty_segments_rejected():
    with pytest.raises(PathSyntaxError, match="empty path"):
        ElementPath("")


@pytest.mark.parametrize("text,canonical", [("a[007]", "a[7]"), ("abc", "abc"), ("filters[0]", "filters[0]")])
def test_element_path_parses_its_text(text, canonical):
    p = ElementPath(text)
    assert type(p) is ElementPath and p == canonical and p == parse_path(text)


@pytest.mark.parametrize("text", ["filters[", "a..b", "[0]"])
def test_element_path_rejects_what_parse_path_rejects(text):
    with pytest.raises(PathSyntaxError):
        ElementPath(text)
