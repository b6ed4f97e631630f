import re

import pytest
from hypothesis import given, strategies as st

from tmfsim.model import Alphabet, ValidationError
from tmfsim.parser import (
    DefinitionError,
    MetafileEntry,
    load_machine,
    parse_alphabet_file,
    parse_metafile,
    parse_script_file,
    parse_states_file,
    parse_transitions_file,
    parse_word_file,
)
from tmfsim.trace import TraceRecord, parse_trace

from conftest import corpus_meta, write_definition


def issues_of(metafile):
    """The (code, message) pairs validation reports for a definition."""
    with pytest.raises(ValidationError) as err:
        load_machine(metafile)
    return [(i.code, i.message) for i in err.value.issues]


class TestStatesFile:
    def test_basic(self):
        assert parse_states_file("initial q0\nhalting qf\ninternal q1 q2") == \
            ("q0", "qf", ["q1", "q2"])

    def test_duplicate_initial(self):
        with pytest.raises(DefinitionError, match="duplicate section: initial"):
            parse_states_file("initial q0\ninitial q1\nhalting qf")

    def test_initial_takes_one_name(self):
        complaint = "line 1: initial expects exactly one state name"
        with pytest.raises(DefinitionError, match=f"^{complaint}$"):
            parse_states_file("initial q0 q1\nhalting qf")

    def test_missing_initial(self):
        with pytest.raises(DefinitionError, match="missing section: initial"):
            parse_states_file("# comment\nhalting qf")

    def test_comments_and_crlf(self):
        text = "initial q0  # start here\r\n\r\nhalting qf\r\n"
        assert parse_states_file(text) == ("q0", "qf", [])

    def test_bad_keyword_reports_line(self):
        with pytest.raises(DefinitionError) as err:
            parse_states_file("initial q0\nhalting qf\nstates q1")
        assert err.value.line == 3


class TestAlphabetFile:
    def test_basic(self):
        assert parse_alphabet_file("empty b\ninput 0 1") == \
            Alphabet("b", input=("0", "1"), internal=())

    def test_overlap_rejected(self, tmp_path):
        meta = write_definition(tmp_path, alphabet="empty b\ninput b")
        assert issues_of(meta) == [("overlapping-classes", "symbol 'b' in both empty and input")]

    def test_internal_symbols(self):
        alpha = parse_alphabet_file("empty b\ninput 0 1\ninternal X")
        assert alpha.internal == ("X",)

    def test_reserved_marker_rejected(self, tmp_path):
        meta = write_definition(tmp_path, alphabet="empty b\ninput ! 1")
        assert issues_of(meta) == [("bad-symbol", "input symbol: symbol '!' is reserved")]

    def test_missing_empty(self):
        with pytest.raises(DefinitionError, match="missing section: empty"):
            parse_alphabet_file("input 0 1")


class TestTransitionsFile:
    def test_plain_rule(self):
        delta, gamma = parse_transitions_file("q0 1 -> q0 1 R")
        assert len(delta) == 1 and not gamma
        assert not delta[0].checkpoint

    def test_checkpoint_mark(self):
        delta, _ = parse_transitions_file("q0 b -> qf 1 N *")
        assert delta[0].checkpoint

    def test_fault_keyword(self):
        delta, gamma = parse_transitions_file("fault q0 1 -> q0 0 R")
        assert not delta and len(gamma) == 1

    def test_fault_with_checkpoint_rejected(self):
        with pytest.raises(DefinitionError, match="cannot be a checkpoint"):
            parse_transitions_file("fault q0 1 -> q0 0 R *")

    def test_unknown_state(self, tmp_path):
        meta = write_definition(tmp_path, rules="q9 1 -> q0 1 R")
        assert issues_of(meta) == [
            ("unknown-state", "program rule 'q9 1 -> q0 1 R': from-state 'q9' unknown")]

    def test_unknown_symbol(self, tmp_path):
        meta = write_definition(tmp_path, rules="q0 z -> q0 1 R")
        assert issues_of(meta) == [
            ("unknown-symbol", "program rule 'q0 z -> q0 1 R': read symbol 'z' unknown")]

    def test_marker_can_be_read(self):
        delta, _ = parse_transitions_file("q0 ! -> q0 ! R")
        assert delta[0].read == "!"

    def test_syntax_error_reports_line(self):
        with pytest.raises(DefinitionError) as err:
            parse_transitions_file("q0 1 -> q0 1 R\nq0 1 q0 1 R")
        assert err.value.line == 2


class TestWordFile:
    ALPHA = Alphabet("b", input=("0", "1"))

    def test_word(self):
        assert parse_word_file("1 0 1", self.ALPHA) == ("1", "0", "1")

    def test_empty_file_is_empty_word(self):
        assert parse_word_file("# nothing\n\n", self.ALPHA) == ()

    def test_internal_symbol_rejected(self):
        alpha = Alphabet("b", input=("1",), internal=("X",))
        with pytest.raises(DefinitionError, match="unknown symbol 'X'"):
            parse_word_file("1 X", alpha)

    def test_second_line_rejected(self, tmp_path):
        with pytest.raises(DefinitionError) as err:
            parse_word_file("1 1\n# more\n1 1 1 1\n", self.ALPHA)
        assert err.value.line == 3
        meta = write_definition(tmp_path, word="1 1\n1 1 1 1\n")
        with pytest.raises(DefinitionError) as err:
            load_machine(meta)
        assert str(err.value).startswith(f"{tmp_path / 'm.word'}:2: ")


class TestMetafile:
    def test_row_fields(self):
        rows = parse_metafile("m.desc 1 m.states m.alpha m.rules m.word\n")
        assert rows[0].n_master_tapes == 1
        assert rows[0].input_word_files == ("m.word",)

    def test_row_is_a_read_only_record(self):
        row = parse_metafile("m.desc 1 m.states m.alpha m.rules m.word\n")[0]
        assert MetafileEntry._fields == (
            "description_file", "n_master_tapes", "states_file", "alphabet_file",
            "transitions_file", "input_word_files")
        assert repr(row) == (
            "MetafileEntry(description_file='m.desc', n_master_tapes=1, "
            "states_file='m.states', alphabet_file='m.alpha', transitions_file='m.rules', "
            "input_word_files=('m.word',))")
        assert str(row) == repr(row)
        with pytest.raises(AttributeError):
            row.n_master_tapes = 2

    def test_word_file_count_must_match(self):
        with pytest.raises(DefinitionError, match="expected 2 input word"):
            parse_metafile("m.desc 2 m.states m.alpha m.rules m.word\n")

    @pytest.mark.parametrize("count", ["+1", "0_1"])
    def test_master_tape_count_is_canonical(self, count):
        """`int()` would read both as 1, and the row as one master tape."""
        complaint = f"bad master-tape count: non-canonical integer {count!r}"
        with pytest.raises(DefinitionError, match=f"^line 1: {re.escape(complaint)}$"):
            parse_metafile(f"d {count} s a r w\n")

    def test_master_tape_count_must_be_positive(self):
        with pytest.raises(DefinitionError, match="^line 1: master-tape count must be positive$"):
            parse_metafile("d 0 s a r w\n")

    def test_empty_metafile(self):
        with pytest.raises(DefinitionError, match="no rows"):
            parse_metafile("# only a comment\n")


class TestLoadMachine:
    def test_corpus_fixture(self):
        machine, word = load_machine(corpus_meta("unary"))
        assert word == ("1", "1")
        assert machine.initial == "q0"
        assert machine.gamma_map[("q0", "1")].write == "0"
        assert "appender" in machine.description.lower()

    def test_multiple_master_tapes_unsupported(self, tmp_path):
        for name in ("m.desc", "m.states", "m.alpha", "m.rules", "m.word", "m.word2"):
            (tmp_path / name).write_text("")
        (tmp_path / "m.states").write_text("initial q0\nhalting qf\n")
        (tmp_path / "m.alpha").write_text("empty b\ninput 1\n")
        (tmp_path / "meta").write_text("m.desc 2 m.states m.alpha m.rules m.word m.word2\n")
        with pytest.raises(DefinitionError, match="multiple master tapes"):
            load_machine(str(tmp_path / "meta"))

    def test_word_with_non_input_symbol(self, tmp_path):
        meta = write_definition(tmp_path, alphabet="empty b\ninput 1\ninternal X\n",
                                word="1 X\n")
        with pytest.raises(DefinitionError, match="unknown symbol 'X'") as err:
            load_machine(meta)
        assert err.value.path and err.value.path.endswith("m.word")

    def test_missing_file(self, tmp_path):
        (tmp_path / "meta").write_text("m.desc 1 m.states m.alpha m.rules m.word\n")
        with pytest.raises(DefinitionError, match="cannot read"):
            load_machine(str(tmp_path / "meta"))

    def test_non_utf8_file_is_a_diagnostic(self, tmp_path):
        (tmp_path / "meta").write_bytes(b"\xff\xfe broken")
        with pytest.raises(DefinitionError, match="not valid UTF-8"):
            load_machine(str(tmp_path / "meta"))

    def test_multicharacter_symbols(self, tmp_path):
        meta = write_definition(
            tmp_path, states="initial start\nhalting done\n",
            alphabet="empty blank\ninput one +\n", word="one + one\n",
            rules="start one -> start + R *\nstart + -> start + R\n"
                  "start blank -> done one N\nfault start one -> start blank R\n")
        machine, word = load_machine(meta)
        assert word == ("one", "+", "one")
        assert machine.delta_map[("start", "one")].write == "+"
        # the user-level "+" does not clash with the position-tape mark
        from tmfsim.executor import init_configuration, run, run_basic_oracle
        from tmfsim.stages import compile_machine
        result, _ = run(init_configuration(compile_machine(machine), word))
        assert result.outcome == "shutdown"
        assert result.final_master_word == run_basic_oracle(machine, word)

    def test_validation_errors_carry_all_issues(self, tmp_path):
        meta = write_definition(
            tmp_path, rules="q0 1 -> q0 1 R\nq0 1 -> qf 1 N\nfault q0 1 -> q0 1 R\n")
        assert "duplicate-rule" in {code for code, _ in issues_of(meta)}

    def test_row_selection(self):
        machine, word = load_machine(corpus_meta("unary").replace("unary.meta", "all.meta"),
                                     row=1)
        assert machine.initial == "q0"
        assert word == ("1", "0", "1", "1")
        with pytest.raises(DefinitionError, match="metafile has 1 row\\(s\\), row 5 requested"):
            load_machine(corpus_meta("unary"), row=5)


# Text rich in what the parsers split on and read: tabs, `=`, `,`, digits
# (non-canonical ones too), line breaks, and the trace keys.
rich_text = st.lists(
    st.sampled_from(["\t", "=", ",", " ", "#", "0", "1", "01", "+", "-", "_", "\u0663",
                     "\n", "\r\n", "\r", "\x0b", "\x85", "\u2028", "active", "->",
                     *(f"{field}=" for field in TraceRecord._fields)])
    | st.text(max_size=3),
    max_size=60).map("".join)


@given(text=st.text(max_size=200) | rich_text)
@pytest.mark.parametrize("parse", (parse_states_file, parse_alphabet_file,
                                   parse_transitions_file, parse_metafile,
                                   parse_script_file, parse_trace))
def test_parsers_are_total(parse, text):
    """Arbitrary text either parses or raises a diagnostic, never crashes.
    `parse_trace` raises a plain ValueError that names its line."""
    try:
        parse(text)
    except DefinitionError:
        assert parse is not parse_trace
    except ValueError as exc:
        assert parse is parse_trace
        assert re.match("line [1-9][0-9]*: ", str(exc)), exc
