"""The assembler's comment stripping and operand splitting: the
``str``-method fast path for lines without a string literal must agree
with the character loops it short-circuits, kept here as the reference."""

from hypothesis import given, settings, strategies as st

from repro.isa.assembler import _split_operands, _strip_comment
from repro.kernel.libc import LIBC_SOURCE
from repro.workloads import ALL_WORKLOADS


def _reference_strip_comment(line):
    out = []
    in_string = False
    for ch in line:
        if ch == '"':
            in_string = not in_string
        if ch in ";#" and not in_string:
            break
        out.append(ch)
    return "".join(out).strip()


def _reference_split_operands(text):
    parts = []
    current = []
    in_string = False
    for ch in text:
        if ch == '"':
            in_string = not in_string
        if ch == "," and not in_string:
            parts.append("".join(current).strip())
            current = []
        else:
            current.append(ch)
    tail = "".join(current).strip()
    if tail:
        parts.append(tail)
    return [p for p in parts if p]


def _check(line):
    assert _strip_comment(line) == _reference_strip_comment(line), line
    stripped = _reference_strip_comment(line)
    rest = stripped.partition(" ")[2]
    for text in (line, stripped, rest):
        assert _split_operands(text) == _reference_split_operands(text), (
            text)


#: Assembly-ish characters, the lexer's delimiters over-represented.
_LINE = st.text(alphabet=st.sampled_from(
    list("abcx019 \t,;#\"'[]+-:.") + ["é"]), max_size=40)


@settings(max_examples=400, deadline=None)
@given(_LINE)
def test_random_lines_match_the_character_loops(line):
    _check(line)


def test_every_workload_and_libc_line_matches():
    sources = [LIBC_SOURCE]
    for workload in ALL_WORKLOADS:
        sources.append(workload.source())
        sources.append(workload.source(hosted=True))
    lines = 0
    for source in sources:
        for line in source.splitlines():
            _check(line)
            lines += 1
    assert lines > 2000
