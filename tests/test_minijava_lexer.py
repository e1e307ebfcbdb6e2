"""Unit tests for the MiniJava lexer."""

import hashlib

import pytest

from repro.minijava.errors import LexError
from repro.minijava.lexer import tokenize
from repro.workloads import (
    AWFY_NAMES,
    MICROSERVICE_NAMES,
    awfy_workload,
    microservice_workload,
)


def kinds(source):
    return [t.kind for t in tokenize(source)]


def texts(source):
    return [t.text for t in tokenize(source)[:-1]]


class TestBasicTokens:
    def test_empty_source_yields_eof(self):
        toks = tokenize("")
        assert len(toks) == 1
        assert toks[0].kind == "eof"

    def test_identifiers_and_keywords(self):
        toks = tokenize("class Foo extends Bar")
        assert [t.kind for t in toks[:-1]] == ["keyword", "ident", "keyword", "ident"]

    def test_underscore_identifier(self):
        toks = tokenize("_x x_1 __a")
        assert all(t.kind == "ident" for t in toks[:-1])

    def test_int_literal(self):
        toks = tokenize("42")
        assert toks[0].kind == "int" and toks[0].text == "42"

    def test_hex_literal(self):
        toks = tokenize("0xFF")
        assert toks[0].kind == "int" and toks[0].text == "255"

    def test_double_literal(self):
        toks = tokenize("3.25")
        assert toks[0].kind == "double" and toks[0].text == "3.25"

    def test_double_with_exponent(self):
        toks = tokenize("1.5e3 2e-2")
        assert toks[0].kind == "double"
        assert toks[1].kind == "double"

    def test_int_then_dot_method_not_double(self):
        # "x.length" after an int-looking context; `1.foo` is not valid Java
        # anyway, but "arr[0].f" must not treat "0." as a double.
        toks = tokenize("a[0].f")
        assert [t.text for t in toks[:-1]] == ["a", "[", "0", "]", ".", "f"]

    def test_string_literal(self):
        toks = tokenize('"hello world"')
        assert toks[0].kind == "string" and toks[0].text == "hello world"

    def test_string_escapes(self):
        toks = tokenize(r'"a\nb\tc\\d\"e"')
        assert toks[0].text == 'a\nb\tc\\d"e'

    def test_char_literal_becomes_code_point(self):
        toks = tokenize("'A' '\\n'")
        assert toks[0].kind == "char" and toks[0].text == "A"
        assert toks[1].text == "\n"


class TestOperators:
    def test_maximal_munch(self):
        assert texts("a<<=b") == ["a", "<<=", "b"]
        assert texts("a<=b") == ["a", "<=", "b"]
        assert texts("a<b") == ["a", "<", "b"]

    def test_increment_vs_plus(self):
        assert texts("a+++b") == ["a", "++", "+", "b"]

    def test_logical_operators(self):
        assert texts("a&&b||!c") == ["a", "&&", "b", "||", "!", "c"]

    @pytest.mark.parametrize("op", ["==", "!=", "+=", "-=", "*=", "/=", "%=", ">>", "<<"])
    def test_compound_ops(self, op):
        assert texts(f"a{op}b") == ["a", op, "b"]


class TestTriviaAndPositions:
    def test_line_comment(self):
        assert texts("a // comment\nb") == ["a", "b"]

    def test_block_comment(self):
        assert texts("a /* x\ny */ b") == ["a", "b"]

    def test_unterminated_block_comment(self):
        with pytest.raises(LexError):
            tokenize("/* oops")

    def test_unterminated_string(self):
        with pytest.raises(LexError):
            tokenize('"oops')

    def test_string_across_newline_rejected(self):
        with pytest.raises(LexError):
            tokenize('"a\nb"')

    def test_line_numbers(self):
        toks = tokenize("a\nb\n  c")
        assert toks[0].line == 1
        assert toks[1].line == 2
        assert toks[2].line == 3 and toks[2].col == 3

    def test_unexpected_character(self):
        with pytest.raises(LexError):
            tokenize("a # b")

    def test_block_comment_tracks_lines(self):
        toks = tokenize("/* a\nb\nc */ x")
        assert toks[0].line == 3


class TestMalformedInput:
    @pytest.mark.parametrize("source", ["0x", "int a = 0X;", "0xg"])
    def test_hex_prefix_needs_a_hex_digit(self, source):
        with pytest.raises(LexError, match="hex literal"):
            tokenize(source)

    @pytest.mark.parametrize("source", ["\u00b2", "x = \u0663;", "\u00e91", "caf\u00e9"])
    def test_non_ascii_outside_literals_is_rejected(self, source):
        with pytest.raises(LexError, match="unexpected character"):
            tokenize(source)

    def test_non_ascii_inside_literals_and_comments_is_kept(self):
        toks = tokenize('"\u00e9\u00b2" \'\u00e9\' // \u00b2\n/* \u00e9 */ x')
        assert [(t.kind, t.text) for t in toks[:-1]] == [
            ("string", "\u00e9\u00b2"), ("char", "\u00e9"), ("ident", "x")]
        assert toks[2].line == 2

    def test_error_positions(self):
        with pytest.raises(LexError) as info:
            tokenize("a\n  b # c")
        assert (info.value.line, info.value.col) == (2, 5)

    @pytest.mark.parametrize("source", ["'\n' x", "'\\\n' x"],
                             ids=["raw", "escaped"])
    def test_line_break_in_char_literal_is_rejected(self, source):
        with pytest.raises(LexError, match="unterminated char literal") as info:
            tokenize(source)
        assert (info.value.line, info.value.col) == (1, 1)
        assert "\n" not in str(info.value)

    @pytest.mark.parametrize("source", ['"ab\\\ncd"', '"ab\\\n'],
                             ids=["continued", "at-end"])
    def test_escaped_line_break_in_string_literal_is_rejected(self, source):
        with pytest.raises(LexError, match="unterminated string literal") as info:
            tokenize(source)
        assert (info.value.line, info.value.col) == (1, 1)
        assert "\n" not in str(info.value)


def workload_source(name):
    if name in MICROSERVICE_NAMES:
        return microservice_workload(name).source
    return awfy_workload(name).source


def token_stream_sha256(source):
    """SHA-256 over one ``kind, text, line, col`` line per token."""
    digest = hashlib.sha256()
    for tok in tokenize(source):
        digest.update(f"{tok.kind}\t{tok.text!r}\t{tok.line}\t{tok.col}\n".encode())
    return digest.hexdigest()


#: Token streams of the 17 workload sources; any change to what the lexer
#: produces for real programs (kinds, spellings, positions) moves a digest.
TOKEN_STREAM_SHA256 = {
    "Bounce": "b0a23e5d8267fd87b4cd897243da1dfe204a9e2152e7faa79c476d9fc025b4f2",
    "CD": "0609318df7fa1d6c002d8b0f0b2d5b7941dcc3778f6ec08ee08c680ff07bd2cc",
    "DeltaBlue": "a9be38d5b314b730c41dbc786837ef05f714f03eaba24f523cbd774766823b06",
    "Havlak": "d8f636be217d8fe81c303224a197abb3c9dc67c581d8f96f576b4f2aa8619c91",
    "Json": "818f02f975e7c36dee463c415eb388381d7e68ca017206b4d71cbc02397543a5",
    "List": "b10fe204e6f3134dce3cab10f58318c6fa32f328efd8baa3ded205dd318a8e71",
    "Mandelbrot": "ad754214f7177f9e877e48bd7d1691d2499769f2fe3b338f0930727f957ca3dd",
    "NBody": "b58bc63784dfef03750b6eb261a5dd9ad5166b88506b4fe880f23e18f9835890",
    "Permute": "02d3e31fb38c9694827e6b158204c1b51431ee5e57a248eaba03fa9ac57e00a9",
    "Queens": "b38199e3910bf5a498e55511a422a054ae51bb26a180846609ede71449fd0578",
    "Richards": "ae2a9f8426c6bbce1ef245a33830970ecd8491dd2ce460c58ac37def8ff0fdc2",
    "Sieve": "f0fe2a2dc0033ae04866b5b720d026ce4aea614964978d4a0493ff49ebb46829",
    "Storage": "2d99e62a62c00fabda954433b984dd94c849347323ad14a9cdd9f92899500d34",
    "Towers": "17115412023852624d92de2025205fb8066504113fb79e2aaf09a68f8486f2e1",
    "micronaut": "2985bc76761eb3d48d7b131947fa44d977baa04c693a419b715e33ff0aecb490",
    "quarkus": "ef6f79e3a947fe371e381ccee2f6f44ecc024fc50d29f74d23ffcc2a2afda50b",
    "spring": "580979cb15b8d36ecd5e23fc46ad1072d1a7e49997ca4ff7322307f4433d4871",
}


class TestWorkloadTokenStreams:
    @pytest.mark.parametrize("name", tuple(AWFY_NAMES) + tuple(MICROSERVICE_NAMES))
    def test_token_stream_is_unchanged(self, name):
        assert token_stream_sha256(workload_source(name)) == TOKEN_STREAM_SHA256[name]
