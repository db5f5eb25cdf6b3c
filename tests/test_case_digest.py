"""The table of ``case_digest.py``: its spellings, its case names and its sampled
rows.  The cases themselves run in the base-commit comparison, not here."""

import math

import pytest

import tensortree
from case_digest import CASES, INPUTS, SPELLINGS

# 101 data lines; line 2 holds two two-digit states and line 51 one.
PLAIN = b"a,b\n10,13\n" + b"1,2\n" * 48 + b"12,1\n" + b"2,1\n" * 51

# The bytes each spelling's shell line writes from PLAIN.
SHELL_OUTPUT = {
    # sed 's/$/\r/'
    "crlf": b"a,b\r\n10,13\r\n" + b"1,2\r\n" * 48 + b"12,1\r\n" + b"2,1\r\n" * 51,
    # { printf '\357\273\277'; cat; }
    "bom": b"\xef\xbb\xbfa,b\n10,13\n" + b"1,2\n" * 48 + b"12,1\n" + b"2,1\n" * 51,
    # sed 's/,/, /g'
    "spaced": b"a, b\n10, 13\n" + b"1, 2\n" * 48 + b"12, 1\n" + b"2, 1\n" * 51,
    # awk '{ print } NR % 100 == 0 { print "" }'
    "blank": b"a,b\n10,13\n" + b"1,2\n" * 48 + b"12,1\n" + b"2,1\n" * 49 + b"\n" + b"2,1\n" * 2,
    # sed '2,50s/\([0-9]\)\([0-9]\)/\1_\2/'
    "underscore": b"a,b\n1_0,13\n" + b"1,2\n" * 48 + b"12,1\n" + b"2,1\n" * 51,
}


@pytest.mark.parametrize("spelling", sorted(SHELL_OUTPUT))
def test_spelling_writes_the_shell_lines_bytes(spelling):
    assert SPELLINGS[spelling](PLAIN) == SHELL_OUTPUT[spelling]


def test_every_spelling_is_checked():
    assert sorted(SPELLINGS) == sorted(SHELL_OUTPUT)


def test_case_names_are_unique_and_compared_with_earlier_cases():
    names = [case.name for case in CASES]
    assert len(set(names)) == len(names)
    for i, case in enumerate(CASES):
        assert case.same_as is None or case.same_as in names[:i]


def test_sampled_cases_draw_fewer_quartets_than_their_model_has(tmp_path):
    sampled = [case.argv for case in CASES if case.name.endswith("-sampled")]
    assert sampled
    for argv in sampled:
        model = argv[argv.index("--model") + 1]
        INPUTS[model](tensortree, tmp_path / model)
        d = tensortree.read_model(tmp_path / model).d
        assert int(argv[argv.index("--max-quartets") + 1]) < math.comb(d, 4), argv
