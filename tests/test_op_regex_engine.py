"""Regex engine: syntax coverage, semantics vs Python's re as oracle."""

import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.errors import RegexSyntaxError
from repro.operators.regex_engine import CompiledRegex


def search(pattern, data):
    return CompiledRegex(pattern).search(data)


def fullmatch(pattern, data):
    return CompiledRegex(pattern).fullmatch(data)


# --- literals and basic operators ----------------------------------------------

def test_literal():
    assert fullmatch("abc", b"abc")
    assert not fullmatch("abc", b"abd")
    assert not fullmatch("abc", b"ab")


def test_search_finds_substring():
    assert search("bc", b"abcd")
    assert not search("bd", b"abcd")


def test_dot_matches_any_but_newline():
    assert fullmatch("a.c", b"axc")
    assert not fullmatch("a.c", b"a\nc")


def test_star():
    assert fullmatch("ab*c", b"ac")
    assert fullmatch("ab*c", b"abbbbc")
    assert not fullmatch("ab*c", b"abxc")


def test_plus():
    assert not fullmatch("ab+c", b"ac")
    assert fullmatch("ab+c", b"abc")
    assert fullmatch("ab+c", b"abbbc")


def test_question():
    assert fullmatch("ab?c", b"ac")
    assert fullmatch("ab?c", b"abc")
    assert not fullmatch("ab?c", b"abbc")


def test_alternation():
    assert fullmatch("cat|dog", b"cat")
    assert fullmatch("cat|dog", b"dog")
    assert not fullmatch("cat|dog", b"cow")


def test_grouping_with_repetition():
    assert fullmatch("(ab)+", b"ababab")
    assert not fullmatch("(ab)+", b"aba")


def test_nested_groups():
    assert fullmatch("(a(bc)?)+", b"aabca")
    assert fullmatch("((a|b)c)*", b"acbc")


# --- classes and escapes ---------------------------------------------------------

def test_char_class():
    assert fullmatch("[abc]+", b"cab")
    assert not fullmatch("[abc]+", b"cad")


def test_char_class_range():
    assert fullmatch("[a-z]+", b"hello")
    assert not fullmatch("[a-z]+", b"Hello")


def test_negated_class():
    assert fullmatch("[^0-9]+", b"abc!")
    assert not fullmatch("[^0-9]+", b"ab1")


def test_class_with_literal_dash():
    assert fullmatch("[a-]+", b"a-a")


def test_escape_classes():
    assert fullmatch(r"\d+", b"12345")
    assert not fullmatch(r"\d+", b"12a45")
    assert fullmatch(r"\w+", b"word_42")
    assert fullmatch(r"\s", b" ")
    assert fullmatch(r"\D+", b"abc")
    assert fullmatch(r"\S+", b"abc")


def test_escaped_metacharacters():
    assert fullmatch(r"a\.b", b"a.b")
    assert not fullmatch(r"a\.b", b"axb")
    assert fullmatch(r"\(\)", b"()")
    assert fullmatch(r"a\\b", b"a\\b")


def test_escape_in_class():
    assert fullmatch(r"[\d,]+", b"1,2,3")


# --- bounded repetition ------------------------------------------------------------

def test_exact_count():
    assert fullmatch("a{3}", b"aaa")
    assert not fullmatch("a{3}", b"aa")
    assert not fullmatch("a{3}", b"aaaa")


def test_min_count():
    assert fullmatch("a{2,}", b"aa")
    assert fullmatch("a{2,}", b"aaaaa")
    assert not fullmatch("a{2,}", b"a")


def test_range_count():
    assert fullmatch("a{2,4}", b"aa")
    assert fullmatch("a{2,4}", b"aaaa")
    assert not fullmatch("a{2,4}", b"aaaaa")


def test_braces_on_group():
    assert fullmatch("(ab){2}", b"abab")


# --- anchors -------------------------------------------------------------------------

def test_start_anchor():
    assert search("^abc", b"abcdef")
    assert not search("^bcd", b"abcdef")


def test_end_anchor():
    assert search("def$", b"abcdef")
    assert not search("cde$", b"abcdef")


def test_both_anchors():
    assert search("^abc$", b"abc")
    assert not search("^abc$", b"abcd")


# --- syntax errors ----------------------------------------------------------------------

@pytest.mark.parametrize("bad", [
    "a**",        # repeated operator with nothing new to repeat is ok in re
    "*a",         # leading star
    "(ab",        # unbalanced paren
    "[abc",       # unterminated class
    "a{2,1}",     # inverted bounds
    "a{",         # unterminated brace
    "a\\",        # dangling escape
    "a)b",        # stray close paren
])
def test_syntax_errors(bad):
    if bad == "a**":
        # Our engine treats ** as star-of-star: legal (like grep -E).
        CompiledRegex(bad)
        return
    with pytest.raises(RegexSyntaxError):
        CompiledRegex(bad)


# --- pathological patterns stay linear -----------------------------------------------------

def test_no_catastrophic_backtracking():
    """(a+)+b on a^n is exponential for backtrackers; NFA stays linear."""
    pattern = CompiledRegex("(a+)+b")
    assert not pattern.search(b"a" * 200)
    assert pattern.search(b"a" * 200 + b"b")


def test_state_count_reasonable():
    assert CompiledRegex("(a|b)*c{1,8}[d-f]+").num_states < 200


# --- oracle comparison against Python re -----------------------------------------------------

ORACLE_PATTERNS = [
    "abc", "a.c", "ab*c", "ab+c", "ab?c", "a|bc", "(ab|cd)+",
    "[abc]+d", "[^ab]+", "a{2,3}b", r"\d+x", r"\w+", "x(y|z)*w",
    "^start", "end$", "^full$",
]


@settings(max_examples=150, deadline=None)
@given(pattern=st.sampled_from(ORACLE_PATTERNS),
       data=st.binary(min_size=0, max_size=24,
                      ).map(lambda b: bytes(x % 128 for x in b)))
def test_search_agrees_with_re(pattern, data):
    ours = CompiledRegex(pattern).search(data)
    theirs = re.search(pattern.encode(), data) is not None
    assert ours == theirs, f"pattern={pattern!r} data={data!r}"


@settings(max_examples=150, deadline=None)
@given(pattern=st.sampled_from([p for p in ORACLE_PATTERNS
                                if "^" not in p and "$" not in p]),
       data=st.binary(min_size=0, max_size=24,
                      ).map(lambda b: bytes(x % 128 for x in b)))
def test_fullmatch_agrees_with_re(pattern, data):
    ours = CompiledRegex(pattern).fullmatch(data)
    theirs = re.fullmatch(pattern.encode(), data) is not None
    assert ours == theirs, f"pattern={pattern!r} data={data!r}"
