"""File input and output: the YAML loader's limits, the YAML writer's
bytes with and without libyaml, atomic output files, and the rule that
only `leastpriv._files` reads YAML, finds package data or opens, reads or
writes a file."""

import ast
import os
from collections import Counter
from importlib import resources
from pathlib import Path

import pytest
import yaml
from hypothesis import HealthCheck, given, settings, strategies as st

import leastpriv
from leastpriv import _files
from leastpriv.cli import main
from leastpriv.events import LISTED_LIMIT, MAX_QUOTED, listed, quoted


class Malformed(ValueError):
    pass


def safe_load_or_raise(text):
    """SafeLoader's document, or None when it raises for this text."""
    try:
        return [yaml.load(text, Loader=yaml.SafeLoader)]
    # SafeLoader lets a bad `!!bool` or `!!timestamp` value out as KeyError or AttributeError
    except (yaml.YAMLError, ValueError, LookupError, AttributeError):
        return None


def load_text(tmp_path, text):
    path = tmp_path / "doc.yaml"
    path.write_text(text)
    return _files.load_yaml(path, Malformed)


def alias_chain(links):
    """A mapping whose last list sits `links` + 1 levels deep once aliases expand."""
    return "a0: &a0 [x]\n" + "".join(f"a{i}: &a{i} [*a{i - 1}]\n" for i in range(1, links + 1))


def laughs(levels):
    """A mapping whose list l<levels> expands to 10**levels scalars: a "billion laughs"."""
    return "l0: &l0 [a, a, a, a, a, a, a, a, a, a]\n" + "".join(
        f"l{i}: &l{i} [{', '.join([f'*l{i - 1}'] * 10)}]\n" for i in range(1, levels + 1)
    )


@pytest.fixture(params=["libyaml", "pure"])
def loader(request, monkeypatch):
    """Run each test with libyaml and with the pure-Python fallback."""
    if request.param == "pure":
        monkeypatch.setattr(_files, "_LOADER", yaml.SafeLoader)
    elif not yaml.__with_libyaml__:
        pytest.skip("PyYAML was built without libyaml")


@pytest.mark.usefixtures("loader")
class TestLoadYaml:
    @pytest.mark.parametrize("text", [
        "[" * 100_000 + "]" * 100_000,
        "{a: " * 5000 + "b" + "}" * 5000,
        "[" * (_files.MAX_DEPTH + 1) + "]" * (_files.MAX_DEPTH + 1),
        "a: &a [*a]\n",
        alias_chain(_files.MAX_DEPTH),
    ], ids=["flow-100000", "mapping-5000", "one-past-the-limit", "cycle", "alias-chain"])
    def test_too_deep_is_the_callers_error(self, tmp_path, text):
        with pytest.raises(Malformed, match="collections nest deeper than 32 levels$"):
            load_text(tmp_path, text)

    def test_alias_expansion_is_the_callers_error(self, tmp_path):
        with pytest.raises(Malformed, match="aliases expand to more than 10000 nodes$"):
            load_text(tmp_path, laughs(5))

    def test_at_the_limit_loads(self, tmp_path):
        depth = _files.MAX_DEPTH
        assert load_text(tmp_path, "[" * depth + "]" * depth) is not None
        doc = load_text(tmp_path, alias_chain(depth - 2))
        assert doc["a0"] == ["x"] and len(doc) == depth - 1

    def test_shared_aliases_load(self, tmp_path):
        assert load_text(tmp_path, "a: &a [1, 2]\nb: *a\nc: [*a, *a]\n") == {
            "a": [1, 2], "b": [1, 2], "c": [[1, 2], [1, 2]],
        }

    @pytest.mark.parametrize("text", ["a: [1\n", "a: *undefined\n", "a: 1\n---\nb: 2\n"],
                             ids=["unclosed", "undefined-alias", "two-documents"])
    def test_malformed_yaml_is_the_callers_error(self, tmp_path, text):
        with pytest.raises(Malformed, match=r"doc\.yaml: "):
            load_text(tmp_path, text)

    @pytest.mark.parametrize("text", [
        "",
        "base: &b {a: 1, b: 2}\nx: {<<: *b, b: 3, c: 4}\ny: {c: 0, <<: *b}\n",
        "a: &a {x: 1, y: 1}\nb: &b {y: 2, z: 2}\nlist: {<<: [*a, *b], z: 3}\n"
        "keys: {<<: *a, <<: *b}\nnested: {<<: {<<: *a, w: 0}}\n",
        "{&m <<: {a: 1}, *m : {b: 2}}",
        "{<<: &a {1: a, true: b}, true: c}",
        "shared: &s [1, {k: v}]\nboth: [*s, *s]\n",
        "[!!str 1, ! 1, '1', \"1.0\", ~, null, Null, '', !!null '', !!float 1, !!int 0x1f]",
        "[2001-12-14t21:59:43.10-05:00, 2002-12-14, !!timestamp 2002-12-14 1:02:03]",
        "[yes, no, on, off, 0o17, 0b101, 1_000, 190:20:30, .inf, -.inf, 0x_1f, +12, 1e3, 1.5e3]",
        "{=: 1, a: 1, a: 2, 1: x, 1.0: y}",
        "!!binary aGVsbG8=",
        "{[1]: 2}",
        "? [a]\n: b\n",
        "a: !!bool maybe\n",
        "a: !!timestamp junk\n",
        "a: !!int x\n",
        "a: !tag x\n",
        "a: !tag [x]\n",
        "a: !!str [x]\n",
        "a: !!map [x]\n",
        "a: !!seq x\n",
        "a: =\n",
        "a: <<\n",
        "{<<: 1}",
        "{<<: [{a: 1}, 1]}",
        "{&m <<: {a: 1}, b: *m}",
        "a: &x 1\nb: &x 2\n",
        "0", "-0", "+0", "+12", "007", "010", "0o17", "0x1F", "0b101", "1_000", "1:30",
        "!!int 12", '!!int "12"', "{1: a, -2: b, 0: c, +3: d}", "a: &n 12\nb: *n\nc: [*n, -0]\n",
        "b: &b {1: x, 2: y}\nm: {<<: *b, 2: z, 3: w}\n",
    ], ids=["empty", "merge", "merge-order", "aliased-merge-key", "merge-equal-keys",
            "shared-alias", "scalars", "timestamps", "numbers", "keys", "binary",
            "flow-unhashable", "block-unhashable", "bad-bool", "bad-timestamp", "bad-int",
            "unknown-scalar-tag", "unknown-collection-tag", "str-collection", "map-sequence",
            "seq-scalar", "value-tag", "merge-value", "merge-scalar", "merge-list-of-scalar",
            "merge-key-as-value", "duplicate-anchor", "int-zero", "int-minus-zero",
            "int-plus-zero", "int-plus", "int-octal-7", "int-octal-8", "int-0o", "int-hex",
            "int-binary", "int-underscore", "int-sexagesimal", "int-tagged", "int-tagged-quoted",
            "int-keys", "int-alias", "int-keys-merge"])
    def test_same_document_as_safe_loader(self, tmp_path, text):
        expected = safe_load_or_raise(text)
        if expected is None:
            with pytest.raises(Malformed, match=r"doc\.yaml: "):
                load_text(tmp_path, text)
        else:
            assert repr(load_text(tmp_path, text)) == repr(expected[0])

    @settings(max_examples=150, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(doc=st.recursive(
        st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False) | st.text(),
        lambda children: st.lists(children, max_size=4) | st.dictionaries(
            st.none() | st.booleans() | st.integers() | st.text(), children, max_size=4),
        max_leaves=12,
    ), flow=st.booleans())
    def test_dumped_documents_read_as_safe_loader_reads_them(self, tmp_path, doc, flow):
        text = yaml.dump(doc, Dumper=yaml.SafeDumper, default_flow_style=flow)
        assert repr(load_text(tmp_path, text)) == repr(yaml.load(text, Loader=yaml.SafeLoader))

    def test_an_alias_is_the_object_its_anchor_names(self, tmp_path):
        doc = load_text(tmp_path, "a: &a [1]\nb: *a\nc: {<<: &m {k: [2]}}\nd: *m\n")
        assert doc["b"] is doc["a"] and doc["c"]["k"] is doc["d"]["k"]

    @pytest.mark.parametrize("text", ["!!set {a, b}", "!!omap [a: 1]", "!!pairs [a: 1]"])
    def test_sets_and_pairs_are_the_callers_error(self, tmp_path, text):
        with pytest.raises(Malformed, match="cannot read a collection tagged 'tag:yaml.org,"):
            load_text(tmp_path, text)

    def test_an_explicit_int_too_long_for_int_is_the_callers_error(self, tmp_path):
        digits = "9" * (_files.MAX_DIGITS + 1)
        with pytest.raises(Malformed, match=f"integer of {len(digits)} digits is too long$"):
            load_text(tmp_path, f"a: !!int {digits}\n")
        assert load_text(tmp_path, f"a: !!str {digits}\n") == {"a": digits}

    def test_a_plain_int_too_long_for_int_is_refused_before_int(self, tmp_path, monkeypatch):
        def checked_int(value, *base):
            assert len(str(value)) <= _files.MAX_DIGITS, "int() met a long integer"
            return int(value, *base)

        for module in (_files, yaml.constructor):
            monkeypatch.setattr(module, "int", checked_int, raising=False)
        digits = "9" * (_files.MAX_DIGITS + 1)
        with pytest.raises(Malformed, match=f"integer of {len(digits)} digits is too long$"):
            load_text(tmp_path, f"a: {digits}\n")
        assert load_text(tmp_path, f"a: {digits[1:]}\n") == {"a": int(digits[1:])}

    def test_the_first_fault_in_the_stream_is_reported(self, tmp_path):
        with pytest.raises(Malformed, match="cannot read 'maybe' as tag:yaml.org,2002:bool"):
            load_text(tmp_path, "a: !!bool maybe\nb: [\n")

    def test_the_file_is_parsed_once_and_never_composed(self, tmp_path, monkeypatch):
        calls = Counter()

        def counting(name, real):
            def call(*args, **kwargs):
                calls[name] += 1
                return real(*args, **kwargs)
            return call

        class Loader(_files._LOADER):
            def __init__(self, stream):
                calls["stream"] += 1
                super().__init__(stream)

            def dispose(self):
                calls["dispose"] += 1
                super().dispose()

        for name in ("parse", "load", "safe_load", "compose", "compose_all", "load_all"):
            monkeypatch.setattr(yaml, name, counting(name, getattr(yaml, name)))
        monkeypatch.setattr(_files, "_LOADER", Loader)
        assert load_text(tmp_path, "a: &a {b: [1, 2]}\nc: {<<: *a}\n") == {
            "a": {"b": [1, 2]}, "c": {"b": [1, 2]},
        }
        assert calls == {"stream": 1, "dispose": 1}

    @pytest.mark.parametrize("name", ["fixtures/redis.yaml", "fixtures/nginx.yaml"])
    def test_same_document_as_the_pure_python_loader(self, name):
        resource = resources.files("leastpriv").joinpath(f"data/{name}")
        with resources.as_file(resource) as path:
            assert _files.load_yaml(path, Malformed) == yaml.load(
                path.read_text(), Loader=yaml.SafeLoader
            )


def test_dump_writes_the_golden_plan_bytes(tmp_path):
    golden = Path(__file__).parent / "golden" / "plan-noncanonical.yaml"
    _files.dump_yaml(yaml.safe_load(golden.read_text()), tmp_path / "plan.yaml")
    assert (tmp_path / "plan.yaml").read_bytes() == golden.read_bytes()


# -- the YAML writer ---------------------------------------------------------

# Printable ASCII strings as a written file holds them: YAML indicators,
# number, bool and null lookalikes, spaces, and strings around column 80.
INDICATORS = "-?:#'\"{}[]!&*%@`,|>="
LOOKALIKES = ["010", "1e3", "yes", "no", "~", ".inf", "-.inf", ".nan", "null", "true", "0x1f",
              "1_000", "2001-12-14", "-", "? a", ": b", "#c", "a #b", "a: b", "- a", "'", '"',
              " ", " a", "a ", "a  b", "<<", ""]
PRINTABLE = st.characters(min_codepoint=0x20, max_codepoint=0x7E)
ascii_text = st.one_of(
    st.sampled_from(LOOKALIKES),
    st.text(st.sampled_from(INDICATORS + " ab1."), max_size=12),
    st.text(PRINTABLE, max_size=12),
    st.text(PRINTABLE, min_size=79, max_size=200),
    st.text(st.sampled_from(INDICATORS + " " * 6 + "ab"), min_size=79, max_size=200),
)
names = st.lists(ascii_text, max_size=6)
event_block = st.fixed_dictionaries({}, optional={"syscalls": names, "capabilities": names})
score = st.floats(0, 1) | st.sampled_from([0.0, 1.0, 0.5, 1e-7])
policy_doc = st.fixed_dictionaries({
    "policy_version": st.just(1) | st.integers(),
    "container": ascii_text,
    "achieved_security": score,
    "achieved_functionality": score,
    "allowed": event_block,
    "classes": st.fixed_dictionaries({"always": event_block, "sporadic_included": event_block,
                                      "sporadic_excluded": event_block}),
}, optional={"targets": st.fixed_dictionaries({"security_min": score,
                                               "functionality_min": score})})
environment_doc = st.fixed_dictionaries({
    "options": st.lists(st.fixed_dictionaries({"name": ascii_text, "value": ascii_text}),
                        max_size=3),
    "workload": st.none() | st.dictionaries(
        st.sampled_from(["read_ops", "update_ops", "field_count", "field_length"]),
        st.integers(0, 10**6), max_size=4),
})
plan_doc = st.fixed_dictionaries({
    "plan_version": st.just(1),
    "baseline": environment_doc,
    "factors": st.lists(st.builds(lambda factor_id, env: {"id": factor_id, **env},
                                  ascii_text, environment_doc), max_size=3),
    "pairs": st.lists(st.lists(ascii_text, min_size=2, max_size=2), max_size=3),
})
# any nesting of printable ASCII: keys of any length, empty containers
free_doc = st.recursive(
    st.none() | st.booleans() | st.integers() | score | ascii_text,
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(ascii_text, children, max_size=4),
    max_leaves=12,
)


def safe_dumper_bytes(doc, dump=yaml.dump) -> bytes:
    """SafeDumper's bytes for doc, from yaml.dump as it was before any test patched it."""
    return dump(doc, Dumper=yaml.SafeDumper, sort_keys=False).encode()


@pytest.fixture
def dumpers(monkeypatch):
    """The Dumper of each yaml.dump call that dump_yaml makes."""
    used = []
    real = yaml.dump

    def recording(doc, stream, **kwargs):
        used.append(kwargs["Dumper"])
        return real(doc, stream, **kwargs)

    monkeypatch.setattr(_files.yaml, "dump", recording)
    return used


@pytest.mark.skipif(not yaml.__with_libyaml__, reason="PyYAML was built without libyaml")
class TestDumpThroughLibyaml:
    @settings(max_examples=300, derandomize=True, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(doc=policy_doc | plan_doc)
    def test_a_policy_or_plan_is_written_as_safe_dumper_writes_it(self, tmp_path, dumpers, doc):
        _files.dump_yaml(doc, tmp_path / "doc.yaml")
        assert (tmp_path / "doc.yaml").read_bytes() == safe_dumper_bytes(doc)
        assert dumpers[-1] is yaml.CSafeDumper

    @settings(max_examples=300, derandomize=True, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(doc=free_doc)
    def test_any_printable_ascii_document_is_written_as_safe_dumper_writes_it(self, tmp_path,
                                                                              doc):
        _files.dump_yaml(doc, tmp_path / "doc.yaml")
        assert (tmp_path / "doc.yaml").read_bytes() == safe_dumper_bytes(doc)

    @pytest.mark.parametrize("doc", [
        {"syscalls": ["x" * 90 + "é" + "x" * 10]},
        {"syscalls": ["a\tb"]},
        {"container": "\x7f"},
        {"": 1},
        {"k" * 123: 1},
        {"k" * 128: 1},
        {1: "a"},
        [{"a": {None: []}}],
    ], ids=["non-ascii", "tab", "delete", "empty-key", "key-123", "key-128", "int-key",
            "null-key"])
    def test_any_other_document_is_written_by_safe_dumper(self, tmp_path, dumpers, doc):
        _files.dump_yaml(doc, tmp_path / "doc.yaml")
        assert (tmp_path / "doc.yaml").read_bytes() == safe_dumper_bytes(doc)
        assert dumpers == [yaml.SafeDumper]

    def test_a_key_short_of_the_limit_goes_through_libyaml(self, tmp_path, dumpers):
        doc = {"k" * 122: ["x" * 200], "k": ""}
        _files.dump_yaml(doc, tmp_path / "doc.yaml")
        assert (tmp_path / "doc.yaml").read_bytes() == safe_dumper_bytes(doc)
        assert dumpers == [yaml.CSafeDumper]


class TestDumpWithoutLibyaml:
    @pytest.fixture(autouse=True)
    def no_libyaml(self, monkeypatch):
        monkeypatch.setattr(_files.yaml, "__with_libyaml__", False)

    def test_the_golden_plan_is_written_by_safe_dumper(self, tmp_path, dumpers):
        golden = Path(__file__).parent / "golden" / "plan-noncanonical.yaml"
        _files.dump_yaml(yaml.safe_load(golden.read_text()), tmp_path / "plan.yaml")
        assert (tmp_path / "plan.yaml").read_bytes() == golden.read_bytes()
        assert dumpers == [yaml.SafeDumper]

    @pytest.mark.parametrize("doc", [
        {"policy_version": 1, "container": "web", "allowed": {"syscalls": ["read", "x" * 200]}},
        {"syscalls": ["x" * 90 + "é" + "x" * 10]},
    ], ids=["printable-ascii", "non-ascii"])
    def test_every_document_is_written_by_safe_dumper(self, tmp_path, dumpers, doc):
        _files.dump_yaml(doc, tmp_path / "doc.yaml")
        assert (tmp_path / "doc.yaml").read_bytes() == safe_dumper_bytes(doc)
        assert dumpers == [yaml.SafeDumper]


# -- line formats ------------------------------------------------------------

def test_decode_lines_yields_each_value_before_reading_the_next_line():
    def lines():
        yield "header"
        yield "first"
        raise AssertionError("line 3 was read before the first value was taken")

    values = _files.decode_lines(lines(), "header", "src", Malformed, str.upper)
    assert next(values) == "FIRST"
    unchecked = _files.decode_lines(iter(["wrong"]), "header", "src", Malformed, str.upper)
    with pytest.raises(Malformed, match="^src: bad header 'wrong', expected 'header'$"):
        next(unchecked)


def test_a_quoted_value_past_the_limit_is_shown_by_its_length():
    short = "x" * MAX_QUOTED
    assert quoted(short) == repr(short)
    assert quoted(short + "x") == f"of {MAX_QUOTED + 1} characters"
    wide = "\U0001f600" * (MAX_QUOTED // 4)  # as many UTF-8 bytes as the limit
    assert quoted(wide) == repr(wide)
    assert quoted(wide + "x") == f"of {MAX_QUOTED // 4 + 1} characters"
    assert quoted([wide + "x"]) == "list of length 1"


@pytest.mark.parametrize("value,shown", [
    ([1, 2], "[1, 2]"),
    ({"a": None}, "{'a': None}"),
    (list(range(2000)), "list of length 2000"),
    ({"k": "x" * 100}, "dict of length 1"),
    (7 ** 100, "int of 85 characters"),
])
def test_any_value_is_quoted_by_its_type_and_length_when_long(value, shown):
    assert quoted(value) == shown


@pytest.mark.parametrize("values,shown", [
    (["read"], "1 event: 'read'"),
    (["a", "b"], "2 events: 'a', 'b'"),
    ([f"e{i:03d}" for i in range(301)], "301 events: 'e000', 'e001', 'e002' and 298 more"),
    (["x" * 5000, "y"], "2 events: of 5000 characters, 'y'"),
    ([7 ** 100, 3], "2 events: int of 85 characters, 3"),
    # a name of wide characters is named by its length, whatever it encodes to
    (["\U0001f600" * LISTED_LIMIT, "é" * LISTED_LIMIT],
     "2 events: of 20 characters, of 20 characters"),
])
def test_a_listed_value_names_its_count_and_a_few_short_items(values, shown):
    text = listed(values, "event")
    assert text == shown
    assert len(text.encode()) < 100


# -- atomic output files -----------------------------------------------------

def _policy(syscalls, capabilities):
    events = f"{{syscalls: [{syscalls}], capabilities: [{capabilities}]}}"
    return (f"policy_version: 1\ncontainer: web\nachieved_security: 1.0\n"
            f"achieved_functionality: 1.0\nallowed: {events}\nclasses: {{always: {events}}}\n")


def _argv(output, inputs, path, version):
    """A command writing `output` to path; versions 1 and 2 write different bytes."""
    if output in ("seccomp", "caps"):
        policy = inputs / f"v{version}.policy"
        policy.write_text(_policy("read", "CAP_CHOWN") if version == 1
                          else _policy("read, write", "CAP_CHOWN, CAP_KILL"))
        return ["emit", str(policy), f"--{output}", str(path)]
    if output == "plan":
        return ["plan", "default", *["tty"] * (version - 1), "--out", str(path)]
    return ["explore", "redis", "cpu-shares", "--seed", str(version), "--log", str(path)]


def _write_half_then_fail(real_open):
    def opener(file, mode="r", *args, **kwargs):
        handle = real_open(file, mode, *args, **kwargs)
        if mode != "r":
            write = handle.write

            def write_half(text):
                write(text[: len(text) // 2])
                raise OSError("disk full")

            handle.write = write_half
        return handle

    return opener


@pytest.mark.parametrize("output", ["plan", "log", "seccomp", "caps"])
def test_failed_write_keeps_the_old_bytes(tmp_path, monkeypatch, capsys, output):
    outputs = tmp_path / "out"
    outputs.mkdir()
    path = outputs / "artifact"
    assert main(_argv(output, tmp_path, path, 1)) == 0
    before = path.read_bytes()
    monkeypatch.setattr(_files, "open", _write_half_then_fail(open), raising=False)
    capsys.readouterr()
    assert main(_argv(output, tmp_path, path, 2)) == 1
    out, err = capsys.readouterr()
    assert out == "" and err == "error: OSError: disk full\n"
    assert path.read_bytes() == before
    assert os.listdir(outputs) == ["artifact"]
    monkeypatch.undo()
    assert main(_argv(output, tmp_path, path, 2)) == 0
    assert path.read_bytes() != before
    assert os.listdir(outputs) == ["artifact"]


# -- one owner ---------------------------------------------------------------


# What a call that opens, reads or writes a file is named, as open(p),
# handle.open(), Path(p).read_text() or Path(p).write_text(t).
_FILE_CALLS = ("open", "read_text", "read_bytes", "write_text", "write_bytes")


def _opens_a_file(call: ast.Call) -> bool:
    func = call.func
    name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
    return name in _FILE_CALLS


def test_only_the_files_module_reads_yaml_or_opens_for_writing():
    offenders = []
    for path in sorted(Path(leastpriv.__file__).parent.glob("*.py")):
        if path.name == "_files.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                modules = [node.module or ""]
            else:
                modules = []
            if any(module.split(".")[0] == "yaml" for module in modules):
                offenders.append(f"{path.name}:{node.lineno}: imports yaml")
            if isinstance(node, ast.Call) and _opens_a_file(node):
                offenders.append(f"{path.name}:{node.lineno}: opens a file")
    assert offenders == []


def test_only_the_files_module_finds_package_data():
    """No module but `_files` imports importlib; the test above holds `open`."""
    offenders = []
    for path in sorted(Path(leastpriv.__file__).parent.glob("*.py")):
        if path.name == "_files.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                modules = [node.module or ""]
            else:
                continue
            if any(module.split(".")[0] == "importlib" for module in modules):
                offenders.append(f"{path.name}:{node.lineno}: imports importlib")
    assert offenders == []
