"""Option grammar: parsing, validation, canonical text."""

import pytest
from hypothesis import given, settings, strategies as st

from leastpriv.options import (
    BoolFlag,
    CatalogError,
    LIST_MAX,
    Compound,
    CompoundPart,
    DuplicateOptionError,
    IntRange,
    ListOf,
    Literal,
    OneOf,
    OptionSpec,
    UnknownOptionError,
    ValueParseError,
    ValueRangeError,
    default_catalog,
    integer_bounds,
    parse_catalog,
    parse_syntax,
    validate_value,
)


def spec_for(expression, category="string", name="opt"):
    return OptionSpec(name, category, parse_syntax(expression), expression)


class TestSyntaxParsing:
    def test_bool_token(self):
        assert isinstance(parse_syntax("<Bool>"), BoolFlag)

    def test_unsigned_width(self):
        node = parse_syntax("<U18>")
        assert node == IntRange(0, 1 << 18, signed=False)

    def test_signed_width(self):
        node = parse_syntax("<I16>")
        assert node == IntRange(-(1 << 15), 1 << 15)

    def test_continuous_range_is_half_open(self):
        node = parse_syntax("(1000, 1000000)")
        assert isinstance(node, IntRange)
        assert (node.lo, node.hi) == (1000, 1000000)

    def test_range_with_power_of_two_bound(self):
        node = parse_syntax("<Continuous_range>:(0, U16)")
        assert (node.lo, node.hi) == (0, 1 << 16)

    @pytest.mark.parametrize("expression,node,window", [
        ("<U1>", IntRange(0, 2, signed=False), (0, 1)),
        ("<U64>", IntRange(0, 1 << 64, signed=False), (0, (1 << 64) - 1)),
        ("<I2>", IntRange(-2, 2), (-2, 1)),
        ("<I64>", IntRange(-(1 << 63), 1 << 63), (-(1 << 63), (1 << 63) - 1)),
        ("(1000, 1000000)", IntRange(1000, 1000000), (1000, 999999)),
        ("<Continuous_range>:(0, U16)", IntRange(0, 1 << 16), (0, (1 << 16) - 1)),
    ])
    def test_integer_syntax_is_one_window(self, expression, node, window):
        assert parse_syntax(expression) == node
        assert integer_bounds(node) == window

    @pytest.mark.parametrize("expression,message", [
        ("<U0>", "unsigned bit width out of range: 0"),
        ("<U65>", "unsigned bit width out of range: 65"),
        ("<I1>", "signed bit width out of range: 1"),
        ("<I65>", "signed bit width out of range: 65"),
        ("(5, 5)", "empty range (5, 5)"),
        ("(0, U0)", "unsigned bit width out of range: 0"),
        ("<Continuous_range>:(0, U65)", "unsigned bit width out of range: 65"),
        ("<Continuous_range>:(0, U30000000)", "unsigned bit width out of range: 30000000"),
        (f"({'9' * 5000}, 10)", "integer of 5000 digits is too long"),
        (f"(0, {'9' * 4301})", "integer of 4301 digits is too long"),
        (f"(0, U{'1' * 4301})", "integer of 4301 digits is too long"),
        (f"<U{'1' * 4301}>", "integer of 4301 digits is too long"),
        (f"(-{'9' * 5000}, 10)", "integer of 5000 digits is too long"),
        # after "(" an integer starts a range body: "lo, hi)" or "lo, Uw)"
        ("(5)", "expected ',' but found ')' in '(5)'"),
        ("((5))", "expected ',' but found ')' in '((5))'"),
        ('(5, "a")', """bad range bound '"a"' in '(5, "a")'"""),
        ("(5, 6, 7)", "expected ')' but found ',' in '(5, 6, 7)'"),
        ("(1, 4", "unexpected end of syntax in '(1, 4'"),
        ("<Continuous_range>:(5)", "expected ',' but found ')' in '<Continuous_range>:(5)'"),
        # and syntax errors outside an integer
        ("<U8> )", "trailing tokens after syntax: ')' in '<U8> )'"),
        ('"a" <List>:(<U8>)', "lists cannot nest inside compounds"),
        ('""', "empty literal"),
        ("5", "unexpected token '5' in '5'"),
        ("<List>:(<Bool>)", "unsupported list element syntax"),
    ])
    def test_integer_syntax_errors(self, expression, message):
        with pytest.raises(CatalogError) as excinfo:
            parse_syntax(expression)
        assert str(excinfo.value) == message

    def test_enum_alternation_of_literals(self):
        node = parse_syntax('"bridge" | "host" | "none"')
        assert node == OneOf((Literal("bridge"), Literal("host"), Literal("none")))
        # longest first, so one literal cannot shadow its own extension
        assert parse_syntax('"a" | "ab"') == OneOf((Literal("ab"), Literal("a")))

    def test_byte_size_is_a_compound_with_its_integer_window(self):
        node = parse_syntax('<U32> [("b" | "k" | "m" | "g")]')
        assert node == Compound((
            CompoundPart(IntRange(0, 1 << 32, signed=False), False),
            CompoundPart(OneOf(tuple(map(Literal, "bkmg"))), True),
        ))
        assert integer_bounds(node) == (0, (1 << 32) - 1)

    def test_compound_with_separators(self):
        node = parse_syntax('<U16> ":" <U16>')
        assert isinstance(node, Compound)
        assert len(node.parts) == 3

    def test_list_wrapper(self):
        node = parse_syntax('<List>:(<U16> ":" <U16>)')
        assert isinstance(node, ListOf)
        assert LIST_MAX == 4

    def test_mixed_alternation_becomes_oneof(self):
        node = parse_syntax('"-1" | <U22>')
        assert isinstance(node, OneOf)
        assert len(node.branches) == 2

    def test_rejects_garbage(self):
        with pytest.raises(CatalogError):
            parse_syntax("<U18> <U18")
        with pytest.raises(CatalogError):
            parse_syntax("<Wat>")
        with pytest.raises(CatalogError):
            parse_syntax('<List>:(<U8>) | "none"')


class TestCatalog:
    def test_default_catalog_parses_and_has_known_rows(self):
        cat = default_catalog()
        assert len(cat) >= 20
        for name in ("tty", "init", "cpu-shares", "cpu-period", "memory", "network", "publish"):
            assert name in cat

    def test_unknown_option_raises(self):
        cat = default_catalog()
        with pytest.raises(UnknownOptionError):
            cat["no-such-option"]

    def test_duplicate_name_rejected(self):
        text = "tty\tbool\t<Bool>\ntty\tbool\t<Bool>\n"
        message = r"^d\.catalog:2: option 'tty' declared twice$"
        with pytest.raises(DuplicateOptionError, match=message):
            parse_catalog(text, "d.catalog")

    @pytest.mark.parametrize("depth", [33, 400, 3000])
    def test_deep_nesting_rejected(self, depth):
        text = f'a\tstring\t{"(" * depth}"x"{")" * depth}\n'
        message = r"^d\.catalog:1: option 'a': brackets nest deeper than 32 levels$"
        with pytest.raises(CatalogError, match=message):
            parse_catalog(text, "d.catalog")

    @pytest.mark.parametrize("syntax,message", [
        ("<Continuous_range>:(0, U30000000)", "unsigned bit width out of range: 30000000"),
        (f"({'9' * 5000}, 10)", "integer of 5000 digits is too long"),
    ])
    def test_range_bound_errors_name_the_line(self, syntax, message):
        with pytest.raises(CatalogError) as excinfo:
            parse_catalog(f"a\tint\t{syntax}\n", "d.catalog")
        assert str(excinfo.value) == f"d.catalog:1: option 'a': {message}"

    def test_nesting_to_the_bound_parses(self):
        assert parse_syntax("[" * 16 + '"x"' + "]" * 16 + "(" * 16 + '"y"' + ")" * 16)
        assert parse_syntax("(" * 32 + '"x"' + ")" * 32) == Literal("x")

    def test_bad_category_rejected(self):
        with pytest.raises(CatalogError):
            parse_catalog("x\tfloat\t<U8>\n")

    def test_field_count_enforced(self):
        with pytest.raises(CatalogError):
            parse_catalog("just-a-name\n")


class TestValidation:
    def test_bool_accepts_empty_true_false(self):
        spec = spec_for("<Bool>", "bool")
        assert validate_value(spec, "").text == "true"
        assert validate_value(spec, "true").text == "true"
        assert validate_value(spec, "false").text == "false"
        with pytest.raises(ValueParseError):
            validate_value(spec, "yes")

    def test_a_bool_flag_in_an_alternation_takes_only_its_words(self):
        (spec,) = parse_catalog('x\tstring\t<Bool> | "auto"\n')
        assert [validate_value(spec, raw).text for raw in ("true", "false", "auto")] == [
            "true", "false", "auto"
        ]
        with pytest.raises(ValueParseError) as excinfo:
            validate_value(spec, "")
        assert str(excinfo.value) == """option 'x': '' does not match '<Bool> | "auto"'"""

    def test_unsigned_range_checked(self):
        spec = spec_for("<U8>", "int")
        assert validate_value(spec, "255").number == 255
        with pytest.raises(ValueRangeError):
            validate_value(spec, "256")

    def test_continuous_range_upper_bound_excluded(self):
        spec = spec_for("(1000, 1000000)", "int")
        assert validate_value(spec, "999999").number == 999999
        with pytest.raises(ValueRangeError):
            validate_value(spec, "1000000")
        with pytest.raises(ValueRangeError):
            validate_value(spec, "999")

    def test_bytes_unit_checked(self):
        spec = spec_for('<U32> [("b" | "k" | "m" | "g")]', "bytes")
        val = validate_value(spec, "512m")
        assert (val.text, val.number) == ("512m", 512)
        assert validate_value(spec, "512").text == "512"
        with pytest.raises(ValueParseError) as excinfo:
            validate_value(spec, "512q")
        assert type(excinfo.value) is ValueParseError
        assert str(excinfo.value) == (
            """option 'opt': '512q' does not match '<U32> [("b" | "k" | "m" | "g")]'"""
        )

    def test_list_cap(self):
        spec = spec_for('<List>:(<U16> ":" <U16>)', "list")
        validate_value(spec, "80:8080,443:8443")
        with pytest.raises(ValueParseError):
            validate_value(spec, "1:1,2:2,3:3,4:4,5:5")

    @pytest.mark.parametrize("name,raw", [("cpu-shares", "-0"), ("memory", "-0k")])
    def test_unsigned_window_takes_no_minus_sign(self, name, raw):
        with pytest.raises(ValueParseError) as excinfo:
            validate_value(default_catalog()[name], raw)
        assert type(excinfo.value) is ValueParseError

    @pytest.mark.parametrize("name,raw,error,message", [
        ("pids-limit", "4194304", ValueRangeError, "4194304 outside [0, 4194304)"),
        ("pids-limit", "-2", ValueRangeError, "-2 outside [0, 4194304)"),
        ("pids-limit", "x", ValueParseError, """'x' does not match '"-1" | <U22>'"""),
        ("publish", "70000:80", ValueRangeError, "70000 outside [0, 65536)"),
        ("publish", "80:80,443:70000/tcp", ValueRangeError, "70000 outside [0, 65536)"),
        ("publish", "80:80/sctp", ValueParseError, "'80:80/sctp' does not match '<List>:("),
    ])
    def test_out_of_range_integer_in_alternation_names_the_window(self, name, raw, error, message):
        with pytest.raises(ValueParseError) as excinfo:
            validate_value(default_catalog()[name], raw)
        assert type(excinfo.value) is error
        assert str(excinfo.value).startswith(f"option {name!r}: {message}")

    def test_enum_rejects_unlisted_word(self):
        spec = spec_for('"bridge" | "host" | "none"', "string")
        assert validate_value(spec, "host").text == "host"
        with pytest.raises(ValueParseError):
            validate_value(spec, "overlay")

    def test_optional_parts_match_in_one_pass(self, monkeypatch):
        """Each part is tried once per position it can start at, not once per parse."""
        calls = []
        match = Literal.match
        monkeypatch.setattr(Literal, "match", lambda *args: calls.append(1) or match(*args))
        parts, raw = 16, "x" * 8 + "y"
        spec = spec_for('["x"] ' * parts, "string")
        with pytest.raises(ValueParseError):
            validate_value(spec, raw)
        assert 0 < len(calls) <= parts * (len(raw) + 1)

    def test_optional_parts_keep_the_first_parse(self):
        spec = spec_for('["x" <U8>] ["x"] ["x" <U8>]', "string")
        assert validate_value(spec, "x1x").text == "x1"
        assert validate_value(spec, "x1xx2").text == "x1xx2"  # "x1x2" is another value

    @pytest.mark.parametrize("row,texts", [
        ('x\tint\t["1"] <U8>', ["2", "12", "27", "127"]),
        ('y\tstring\t<U8> ["x" ["y"]] "z"', ["5xyz", "5xz", "5z"]),
    ])
    def test_an_optional_literal_followed_by_text_stays_in_the_text(self, row, texts):
        (spec,) = parse_catalog(row + "\n")
        assert [validate_value(spec, raw).text for raw in texts] == texts

    @pytest.mark.parametrize("raw,number", [("2", 2), ("12", 12), ("127", 127), ("1255", 255)])
    def test_skipping_an_optional_part_is_tried_first(self, raw, number):
        (spec,) = parse_catalog('x\tint\t["1"] <U8>\n')
        value = validate_value(spec, raw)
        assert (value.text, value.number) == (raw, number)

    def test_long_compound_does_not_recurse(self):
        spec = spec_for('"x" ' * 3000, "string")
        assert validate_value(spec, "x" * 3000).text == "x" * 3000
        with pytest.raises(ValueParseError):
            validate_value(spec, "x" * 2999)

    def test_oneof_takes_either_branch(self):
        spec = spec_for('"-1" | <U22>', "int")
        assert validate_value(spec, "-1").number is None
        assert validate_value(spec, "04096").number == 4096
        with pytest.raises(ValueParseError):
            validate_value(spec, "-2")


class TestIntegerBounds:
    def test_unsigned_window(self):
        assert integer_bounds(parse_syntax("<U18>")) == (0, (1 << 18) - 1)

    def test_range_window(self):
        assert integer_bounds(parse_syntax("(1000, 1000000)")) == (1000, 999999)

    def test_enum_has_no_window(self):
        assert integer_bounds(parse_syntax('"a" | "b"')) is None

    def test_catalog_mutation_targets(self):
        cat = default_catalog()
        assert integer_bounds(cat["cpu-shares"].syntax) == (0, 262143)
        assert integer_bounds(cat["cpu-period"].syntax) == (1000, 999999)

    # explore mutates an option by validating bare integers from its window
    @pytest.mark.parametrize("spec", [
        *(spec for spec in default_catalog() if integer_bounds(spec.syntax)),
        spec_for('<U32> [("b" | "k")]', "string", "string-byte-size"),
        spec_for('[":"] <I8> [<Signals>]', "string", "signed-compound"),
    ], ids=lambda spec: spec.name)
    def test_every_window_can_be_explored(self, spec):
        lo, hi = integer_bounds(spec.syntax)
        for number in (lo, (lo + hi) // 2, hi):
            value = validate_value(spec, str(number))
            assert (value.text, value.number) == (str(number), number)

    @pytest.mark.parametrize("expression,category,raw", [
        ('<U32> ("b" | "k")', "bytes", "512k"),
        ('<U8> ":" <U8>', "string", "1:2"),
        ('"x" <U8>', "string", "x5"),
        ('[<U8>] ["-"] [<U8>]', "string", "1-2"),
    ])
    def test_a_compound_whose_integer_is_not_a_value_has_no_window(self, expression,
                                                                    category, raw):
        spec = spec_for(expression, category)
        assert integer_bounds(spec.syntax) is None
        assert validate_value(spec, raw).number is None

    def test_a_byte_size_reads_alike_in_every_category(self):
        bytes_spec = spec_for('<U32> [("b" | "k")]', "bytes")
        string_spec = spec_for('<U32> [("b" | "k")]', "string")
        assert integer_bounds(bytes_spec.syntax) == integer_bounds(string_spec.syntax)
        for raw, text, number in (("0512k", "512k", 512), ("512", "512", 512), ("7b", "7b", 7)):
            for spec in (bytes_spec, string_spec):
                value = validate_value(spec, raw)
                assert (value.text, value.number) == (text, number)


# At least one raw value per shipped option, with its canonical text.
# Non-canonical spellings (a bare bool flag, an empty optional tail) must
# read as the canonical form and validate back from it to an equal value.
ROUND_TRIP_VALUES = [
    ("attach", "stdin", "stdin"),
    ("attach", "stdout,stderr,stdin", "stdout,stderr,stdin"),
    ("detach", "", "true"),
    ("tty", "false", "false"),
    ("interactive", "true", "true"),
    ("stop-signal", "SIGTTOU", "SIGTTOU"),
    ("health-retries", "4294967295", "4294967295"),
    ("publish", "80:8080", "80:8080"),
    ("publish", "0:65535/udp,443:8443/tcp", "0:65535/udp,443:8443/tcp"),
    ("publish", "-0:80", "0:80"),
    ("pids-limit", "-1", "-1"),
    ("pids-limit", "4194303", "4194303"),
    ("memory", "512m", "512m"),
    ("memory", "512", "512"),
    ("memory-swap", "0", "0"),
    ("memory-reservation", "1024", "1024"),
    ("kernel-memory", "65536", "65536"),
    ("cpu-shares", "262143", "262143"),
    ("cpu-period", "1000", "1000"),
    ("stop-timeout", "10", "10"),
    ("volume", "/data", "/data"),
    ("volume", "/data:", "/data"),
    ("volume", "/srv/export:/data:ro,/mnt/ingest:rw", "/srv/export:/data:ro,/mnt/ingest:rw"),
    ("oom-score-adj", "-1024", "-1024"),
    ("oom-score-adj", "-0", "0"),
    ("shm-size", "64", "64"),
    ("init", "", "true"),
    ("network", "host", "host"),
]


def test_round_trip_table_covers_the_shipped_catalog():
    assert {name for name, _, _ in ROUND_TRIP_VALUES} == set(default_catalog().names())


@pytest.mark.parametrize("name,raw,text", ROUND_TRIP_VALUES)
def test_validate_render_validate_round_trip(name, raw, text):
    spec = default_catalog()[name]
    value = validate_value(spec, raw)
    assert value.text == text
    again = validate_value(spec, text)
    assert again == value
    assert again.text == text


def spellings(node):
    """Raw strings in a node's value space, non-canonical ones included:
    zero-padded and negative-zero integers, empty optional tails."""
    if isinstance(node, BoolFlag):
        return st.sampled_from(["", "true", "false"])
    if isinstance(node, IntRange):
        return st.builds(
            lambda v, zeros, sign: ("-" if v < 0 or sign else "") + "0" * zeros + str(abs(v)),
            st.integers(node.lo, node.hi - 1), st.integers(0, 2),
            st.booleans() if node.lo < 0 else st.just(False),
        )
    if isinstance(node, Literal):
        return st.just(node.text)
    if isinstance(node, Compound):
        parts = [
            st.one_of(st.just(""), spellings(p.node)) if p.optional else spellings(p.node)
            for p in node.parts
        ]
        return st.tuples(*parts).map("".join)
    if isinstance(node, OneOf):
        return st.one_of([spellings(branch) for branch in node.branches])
    if isinstance(node, ListOf):
        return st.lists(spellings(node.element), min_size=1, max_size=LIST_MAX).map(",".join)
    raise TypeError(node)


shipped_spellings = st.sampled_from(list(default_catalog())).flatmap(
    lambda spec: st.tuples(st.just(spec), spellings(spec.syntax))
)


@settings(max_examples=500, deadline=None)
@given(case=shipped_spellings)
def test_canonical_text_revalidates_to_an_equal_value(case):
    spec, raw = case
    value = validate_value(spec, raw)
    again = validate_value(spec, value.text)
    assert again == value
    assert again.text == value.text
