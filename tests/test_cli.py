"""End-to-end CLI behaviour through main(), with frozen output strings."""

import itertools
import json
import sys
from math import comb

import pytest
from hypothesis import given, settings, strategies as st

from ncwords import cooperad
from ncwords.cli import main

FIVE_TERM_LINES = [
    "f={1,2,3} | outer=b123 | inner=[a1,a2,a1,a3]",
    "f={1,2}{3} | outer=b12,b3 | inner=[a1,a2; a3]",
    "f={1,3}{2} | outer=b13,b2 | inner=[a1,a3; a2]",
    "f={1}{2,3} | outer=b1,b23,b1,b23 | inner=[a1; a2,a3]",
    "f={1}{2}{3} | outer=b1,b2,b1,b3 | inner=[a1; a2; a3]",
]


def run(capsys, *args):
    code = main(list(args))
    out, err = capsys.readouterr()
    return code, out, err


@pytest.fixture
def moments_file(tmp_path):
    path = tmp_path / "moments.json"
    path.write_text(
        json.dumps(
            {
                "vars": ["v"],
                "moments": [
                    {"word": ["v"], "value": "1/2"},
                    {"word": ["v", "v"], "value": "1/3"},
                    {"word": ["v", "v", "v"], "value": "1/5"},
                ],
            }
        )
    )
    return str(path)


class TestReduce:
    def test_single_char(self, capsys):
        assert run(capsys, "reduce", "aabca") == (0, "abc\n", "")

    def test_comma_syntax_is_preserved(self, capsys):
        assert run(capsys, "reduce", "a,a,b,c,a") == (0, "a,b,c\n", "")

    def test_malformed_word(self, capsys):
        code, _, err = run(capsys, "reduce", "a,,b")
        assert code == 1
        assert err.startswith("error:")


class TestCheck:
    def test_all_flags_true(self, capsys):
        code, out, _ = run(capsys, "check", "abcb")
        assert code == 0
        assert out == "reduced=true\nnon-crossing=true\npangrammatic=true\n"

    def test_crossing_word(self, capsys):
        _, out, _ = run(capsys, "check", "abab")
        assert out == "reduced=true\nnon-crossing=false\npangrammatic=true\n"

    def test_unreduced_word(self, capsys):
        _, out, _ = run(capsys, "check", "aab")
        assert out.splitlines()[0] == "reduced=false"


class TestDecompose:
    def test_five_terms(self, capsys):
        code, out, _ = run(capsys, "decompose", "a1,a2,a1,a3")
        assert code == 0
        assert out.splitlines() == FIVE_TERM_LINES

    def test_noncrossing_drops_one_term(self, capsys):
        code, out, _ = run(capsys, "decompose", "a1,a2,a1,a3", "--nc")
        assert code == 0
        assert out.splitlines() == [
            FIVE_TERM_LINES[0],
            FIVE_TERM_LINES[1],
            FIVE_TERM_LINES[2],
            FIVE_TERM_LINES[4],
        ]

    def test_crossing_word_full_decomposition(self, capsys):
        code, out, _ = run(capsys, "decompose", "abab")
        assert code == 0
        assert out.splitlines() == [
            "f={1,2} | outer=b12 | inner=[abab]",
            "f={1}{2} | outer=b1,b2,b1,b2 | inner=[a; b]",
        ]

    def test_noncrossing_rejects_crossing_word(self, capsys):
        code, _, err = run(capsys, "decompose", "abab", "--nc")
        assert code == 1
        assert "crossing" in err

    def test_rejects_unreduced_word(self, capsys):
        code, _, err = run(capsys, "decompose", "aa")
        assert code == 1
        assert "reduced" in err


class TestCoassoc:
    def test_exhaustive_word_mode(self, capsys):
        code, out, _ = run(capsys, "coassoc", "--alphabet-size", "2", "--max-len", "4")
        assert code == 0
        assert out == (
            "PASS coassociativity (word cooperad): 5 words, "
            "alphabet size <= 2, length <= 4\n"
        )

    def test_exhaustive_nc_mode(self, capsys):
        code, out, _ = run(
            capsys, "coassoc", "--alphabet-size", "2", "--max-len", "3", "--nc"
        )
        assert code == 0
        assert out == (
            "PASS coassociativity (nc cooperad): 3 words, "
            "alphabet size <= 2, length <= 3\n"
        )

    def test_words_longer_than_the_recursion_limit(self, capsys):
        code, out, err = run(capsys, "coassoc", "--alphabet-size", "2", "--max-len", "1200")
        assert (code, err) == (0, "")
        assert out == (
            "PASS coassociativity (word cooperad): 1201 words, "
            "alphabet size <= 2, length <= 1200\n"
        )

    def test_random_mode_reports_seed(self, capsys):
        code, out, _ = run(
            capsys,
            "coassoc",
            "--alphabet-size", "3",
            "--max-len", "6",
            "--samples", "5",
            "--seed", "3",
        )
        assert code == 0
        assert out == (
            "PASS coassociativity (word cooperad): 5 random words, "
            "alphabet size <= 3, length <= 6, seed 3\n"
        )

    def test_random_mode_is_reproducible(self, capsys):
        args = ("coassoc", "--alphabet-size", "4", "--max-len", "7", "--samples", "3")
        assert run(capsys, *args) == run(capsys, *args)

    def test_validation(self, capsys):
        code, _, err = run(capsys, "coassoc", "--alphabet-size", "0", "--max-len", "4")
        assert code == 1 and "alphabet-size" in err

    @pytest.mark.parametrize("extra, message", [
        (("--max-len", "0"), "--max-len must be >= 1"),
        (("--max-len", "4", "--samples", "0"), "--samples must be >= 1"),
    ])
    def test_sizes_below_one(self, capsys, extra, message):
        assert run(capsys, "coassoc", "--alphabet-size", "2", *extra) == (
            1, "", f"error: {message}\n",
        )

    @pytest.mark.parametrize("nc, label", [((), "word cooperad"), (("--nc",), "nc cooperad")])
    def test_faulty_kernel_fails_with_the_word(self, capsys, monkeypatch, nc, label):
        real = cooperad._term

        def reversed_outer(seq, f):
            outer, blocks = real(seq, f)
            return outer[::-1], blocks

        monkeypatch.setattr(cooperad, "_term", reversed_outer)
        assert run(capsys, "coassoc", "--alphabet-size", "2", "--max-len", "2", *nc) == (
            1, f"FAIL coassociativity ({label}): word 12\n", "",
        )

    def test_sampler_give_up_is_one_error_line(self, capsys):
        code, out, err = run(
            capsys,
            "coassoc",
            "--alphabet-size", "16",
            "--max-len", "16",
            "--samples", "1",
            "--seed", "12",
        )
        assert code == 1 and out == ""
        assert err.startswith("error:") and err.count("\n") == 1
        assert "Traceback" not in err
        assert "k=16" in err and "max_len=16" in err and "100000 draws" in err


class TestPartitionListing:
    def test_ncpartitions_count(self, capsys):
        assert run(capsys, "ncpartitions", "4", "--count-only") == (0, "14\n", "")

    def test_ncpartitions_listing(self, capsys):
        code, out, _ = run(capsys, "ncpartitions", "3")
        assert code == 0
        assert out.splitlines() == [
            "{1,2,3}",
            "{1,2}{3}",
            "{1,3}{2}",
            "{1}{2,3}",
            "{1}{2}{3}",
        ]

    def test_ncpartitions_excludes_crossing(self, capsys):
        _, out, _ = run(capsys, "ncpartitions", "4")
        lines = out.splitlines()
        assert len(lines) == 14
        assert "{1,3}{2,4}" not in lines

    def test_surjections_listing(self, capsys):
        code, out, _ = run(capsys, "surjections", "3")
        assert code == 0
        assert len(out.splitlines()) == 5

    def test_surjections_include_crossing(self, capsys):
        _, out, _ = run(capsys, "surjections", "4")
        lines = out.splitlines()
        assert len(lines) == 15
        assert "{1,3}{2,4}" in lines

    def test_validation(self, capsys):
        assert run(capsys, "ncpartitions", "0")[0] == 1
        assert run(capsys, "surjections", "0")[0] == 1

    @pytest.mark.parametrize("command", ["ncpartitions", "surjections"])
    def test_size_below_one_is_one_error_line(self, capsys, command):
        assert run(capsys, command, "0") == (1, "", "error: N must be >= 1\n")


class TestCumulantsCommand:
    def test_free_value(self, capsys, moments_file):
        code, out, _ = run(
            capsys, "cumulants", "--moments", moments_file, "--kind", "free",
            "--args", "v,v",
        )
        assert (code, out) == (0, "1/12\n")

    def test_free_json_record(self, capsys, moments_file):
        _, out, _ = run(
            capsys, "cumulants", "--moments", moments_file, "--kind", "free",
            "--args", "v,v", "--json",
        )
        assert out == '{"kind": "free", "N": 2, "args": ["v", "v"], "value": "1/12"}\n'

    def test_boolean_and_classical(self, capsys, moments_file):
        for kind in ("boolean", "classical"):
            code, out, _ = run(
                capsys, "cumulants", "--moments", moments_file, "--kind", kind,
                "--args", "v,v",
            )
            assert (code, out) == (0, "1/12\n")

    def test_word_kind(self, capsys, moments_file):
        code, out, _ = run(
            capsys, "cumulants", "--moments", moments_file, "--kind", "word",
            "--word", "ab", "--args", "v,v",
        )
        assert (code, out) == (0, "1/12\n")

    def test_word_kind_json_names_the_word(self, capsys, moments_file):
        _, out, _ = run(
            capsys, "cumulants", "--moments", moments_file, "--kind", "word",
            "--word", "ab", "--args", "v,v", "--json",
        )
        assert out == (
            '{"kind": "word", "N": 2, "args": ["v", "v"], '
            '"value": "1/12", "word": "ab"}\n'
        )

    def test_word_kind_requires_word(self, capsys, moments_file):
        code, _, err = run(
            capsys, "cumulants", "--moments", moments_file, "--kind", "word",
            "--args", "v,v",
        )
        assert code == 1 and "--word" in err

    def test_word_flag_rejected_elsewhere(self, capsys, moments_file):
        code, _, err = run(
            capsys, "cumulants", "--moments", moments_file, "--kind", "free",
            "--word", "ab", "--args", "v,v",
        )
        assert code == 1 and "--word" in err

    @pytest.mark.parametrize("kind", ["free", "boolean", "classical"])
    def test_word_flag_rejected_in_batch_mode(self, capsys, moments_file, kind):
        assert run(
            capsys, "cumulants", "--moments", moments_file, "--kind", kind,
            "--word", "ab", "--args", "v", "--up-to", "2",
        ) == (1, "", f"error: --word does not apply to --kind {kind}\n")

    def test_crossing_word_rejected(self, capsys, moments_file):
        code, _, err = run(
            capsys, "cumulants", "--moments", moments_file, "--kind", "word",
            "--word", "abab", "--args", "v,v",
        )
        assert code == 1 and "crossing" in err

    def test_batch_mode(self, capsys, moments_file):
        code, out, _ = run(
            capsys, "cumulants", "--moments", moments_file, "--kind", "free",
            "--args", "v", "--up-to", "3",
        )
        assert code == 0
        assert out == "1 1/2\n2 1/12\n3 -1/20\n"

    def test_batch_json(self, capsys, moments_file):
        _, out, _ = run(
            capsys, "cumulants", "--moments", moments_file, "--kind", "boolean",
            "--args", "v", "--up-to", "2", "--json",
        )
        records = [json.loads(line) for line in out.splitlines()]
        assert [r["N"] for r in records] == [1, 2]
        assert records[1] == {
            "kind": "boolean", "N": 2, "args": ["v", "v"], "value": "1/12",
        }

    def test_batch_validation(self, capsys, moments_file):
        base = ("cumulants", "--moments", moments_file)
        assert run(capsys, *base, "--kind", "word", "--word", "ab", "--args", "v",
                   "--up-to", "2")[0] == 1
        assert run(capsys, *base, "--kind", "free", "--args", "v", "--up-to", "0")[0] == 1
        assert run(capsys, *base, "--kind", "free", "--args", "v,w", "--up-to", "2")[0] == 1

    def test_batch_mode_takes_one_variable(self, capsys, tmp_path):
        path = tmp_path / "two.json"
        path.write_text(json.dumps({"vars": ["v", "w"], "moments": []}))
        assert run(
            capsys, "cumulants", "--moments", str(path), "--kind", "free",
            "--args", "v,w", "--up-to", "2",
        ) == (1, "", "error: batch mode takes exactly one variable in --args\n")

    def test_batch_prints_each_order_before_a_missing_moment(self, capsys, tmp_path):
        path = tmp_path / "v.json"
        path.write_text(json.dumps({"vars": ["v"], "moments": [{"word": ["v"], "value": "1/2"}]}))
        assert run(
            capsys, "cumulants", "--moments", str(path), "--kind", "free",
            "--args", "v", "--up-to", "3",
        ) == (2, "1 1/2\n", "error: moment undefined for monomial v*v\n")

    def test_free_batch_of_the_semicircle_to_order_30(self, capsys, tmp_path):
        # Catalan moments: the second cumulant is 1 and every other is 0.
        path = tmp_path / "semicircle.json"
        moments = [
            {"word": ["v"] * n, "value": f"{comb(n, n // 2) // (n // 2 + 1) if n % 2 == 0 else 0}/1"}
            for n in range(1, 31)
        ]
        path.write_text(json.dumps({"vars": ["v"], "moments": moments}))
        code, out, err = run(
            capsys, "cumulants", "--moments", str(path), "--kind", "free",
            "--args", "v", "--up-to", "30",
        )
        assert (code, err) == (0, "")
        assert out.splitlines() == [f"{n} {'1/1' if n == 2 else '0/1'}" for n in range(1, 31)]

    @pytest.mark.parametrize("kind", ["free", "boolean", "classical"])
    def test_batch_past_the_table_stops_at_its_end(self, capsys, tmp_path, kind):
        # Each order's query is built when its turn comes, so an --up-to
        # far past the table costs no more than the table's orders.
        path = tmp_path / "v.json"
        path.write_text(json.dumps({"vars": ["v"], "moments": [
            {"word": ["v"], "value": "1/2"}, {"word": ["v", "v"], "value": "1/3"},
        ]}))
        code, out, err = run(
            capsys, "cumulants", "--moments", str(path), "--kind", kind,
            "--args", "v", "--up-to", str(10**20),
        )
        assert code == 2
        assert len(out.splitlines()) == 2
        assert err == "error: moment undefined for monomial v*v*v\n"

    def test_word_kind_needs_one_variable_per_letter(self, capsys, moments_file):
        assert run(
            capsys, "cumulants", "--moments", moments_file, "--kind", "word",
            "--word", "ab", "--args", "v",
        ) == (1, "", "error: --args names 1 variables but 'ab' has 2 letters\n")

    def test_missing_moment_exit_code(self, capsys, moments_file):
        code, _, err = run(
            capsys, "cumulants", "--moments", moments_file, "--kind", "free",
            "--args", "v,v,v,v",
        )
        assert code == 2
        assert "v*v*v*v" in err

    @pytest.mark.parametrize("kind", ["free", "boolean", "classical", "word"])
    def test_unknown_variable_is_a_validation_error(self, capsys, moments_file, kind):
        word = ("--word", "ab") if kind == "word" else ()
        code, out, err = run(
            capsys, "cumulants", "--moments", moments_file, "--kind", kind, *word,
            "--args", "v,w",
        )
        assert code == 1 and out == ""
        assert err.count("\n") == 1 and "'w'" in err

    def test_mixed_classical_rejected(self, capsys, tmp_path):
        path = tmp_path / "two.json"
        path.write_text(json.dumps({
            "vars": ["a", "b"],
            "moments": [
                {"word": ["a"], "value": "0/1"},
                {"word": ["b"], "value": "0/1"},
                {"word": ["a", "b"], "value": "1/1"},
                {"word": ["b", "a"], "value": "1/1"},
            ],
        }))
        code, _, err = run(
            capsys, "cumulants", "--moments", str(path), "--kind", "classical",
            "--args", "a,b",
        )
        assert code == 1 and "single variable" in err

    def test_empty_arg_name(self, capsys, moments_file):
        code, _, _ = run(
            capsys, "cumulants", "--moments", moments_file, "--kind", "free",
            "--args", "v,,v",
        )
        assert code == 1

    def test_missing_table_file(self, capsys, tmp_path):
        code, _, err = run(
            capsys, "cumulants", "--moments", str(tmp_path / "nope.json"),
            "--kind", "free", "--args", "v",
        )
        assert code == 1 and "error:" in err


class TestMomentsCommand:
    def write(self, tmp_path, payload):
        path = tmp_path / "cumulants.json"
        path.write_text(payload if isinstance(payload, str) else json.dumps(payload))
        return str(path)

    def test_semicircle_moments(self, capsys, tmp_path):
        path = self.write(tmp_path, {"cumulants": [
            {"order": 1, "value": "0/1"},
            {"order": 2, "value": "1/1"},
            {"order": 3, "value": "0/1"},
            {"order": 4, "value": "0/1"},
        ]})
        code, out, _ = run(capsys, "moments", "--cumulants", path, "--up-to", "4")
        assert code == 0
        assert out == "0 1/1\n1 0/1\n2 1/1\n3 0/1\n4 2/1\n"

    def test_up_to_zero_prints_unit(self, capsys, tmp_path):
        path = self.write(tmp_path, {"cumulants": []})
        assert run(capsys, "moments", "--cumulants", path, "--up-to", "0") == (
            0, "0 1/1\n", "",
        )

    def test_negative_up_to(self, capsys, tmp_path):
        path = self.write(tmp_path, {"cumulants": []})
        assert run(capsys, "moments", "--cumulants", path, "--up-to", "-1") == (
            1, "", "error: --up-to must be >= 0\n",
        )

    def test_missing_order(self, capsys, tmp_path):
        path = self.write(tmp_path, {"cumulants": [{"order": 2, "value": "1/1"}]})
        code, _, err = run(capsys, "moments", "--cumulants", path, "--up-to", "2")
        assert code == 1 and "missing orders" in err

    def test_missing_orders_are_one_short_line(self, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        self.write(tmp_path, {"cumulants": [{"order": 1, "value": "1/1"}]})
        code, out, err = run(
            capsys, "moments", "--cumulants", "cumulants.json", "--up-to", "1000000"
        )
        assert (code, out) == (1, "")
        assert err.count("\n") == 1 and len(err) < 200
        assert err.startswith("error: cumulant table cumulants.json: missing orders [2, 3, 4, ")
        assert err.endswith(", ...], 999999 in all, for --up-to 1000000\n")

    @pytest.mark.parametrize("payload", [
        "nope {",
        {"cumulants": [{"order": 0, "value": "1/1"}]},
        {"cumulants": [{"order": True, "value": "1/1"}]},
        {"cumulants": [{"order": 1, "value": "1/1"}, {"order": 1, "value": "2/1"}]},
        {"cumulants": [{"order": 1}]},
        {"wrong": []},
    ])
    def test_malformed_tables(self, capsys, tmp_path, payload):
        path = self.write(tmp_path, payload)
        code, out, err = run(capsys, "moments", "--cumulants", path, "--up-to", "1")
        assert (code, out) == (1, "")
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_bad_value_names_the_table_and_order(self, capsys, tmp_path):
        path = self.write(tmp_path, {"cumulants": [{"order": 2, "value": "1/0"}]})
        assert run(capsys, "moments", "--cumulants", path, "--up-to", "2") == (
            1, "",
            f"error: cumulant table {path}: order 2: zero denominator in rational value '1/0'\n",
        )

    def test_invalid_json_names_the_table(self, capsys, tmp_path):
        path = self.write(tmp_path, "nope {")
        assert run(capsys, "moments", "--cumulants", path, "--up-to", "1") == (
            1, "",
            f"error: cumulant table {path}: invalid JSON "
            "(Expecting value: line 1 column 1 (char 0))\n",
        )


@pytest.mark.parametrize(
    "argv, what",
    [
        (("cumulants", "--kind", "free", "--args", "v", "--moments"), "moment table"),
        (("moments", "--up-to", "1", "--cumulants"), "cumulant table"),
    ],
    ids=["cumulants", "moments"],
)
def test_deeply_nested_json_is_one_line(capsys, tmp_path, argv, what):
    # json.load ends in a RecursionError on 100000 nested arrays
    path = tmp_path / "nested.json"
    path.write_text("[" * 100000 + "]" * 100000)
    code, out, err = run(capsys, *argv, str(path))
    assert (code, out) == (1, "")
    assert err.startswith(f"error: {what} {path}: invalid JSON (") and err.count("\n") == 1


LETTERS = ",".join(f"a{i}" for i in range(1100))


@pytest.mark.parametrize(
    "argv",
    [
        ("surjections", "1200"),
        ("ncpartitions", "1200", "--count-only"),
        ("decompose", LETTERS),
        ("decompose", LETTERS, "--nc"),
        ("cumulants", "--kind", "free", "--args", ",".join(["v"] * 1100), "--moments"),
    ],
    ids=["surjections", "ncpartitions", "decompose", "decompose-nc", "free-cumulant"],
)
def test_search_past_the_recursion_limit_is_one_line(capsys, moments_file, argv):
    # Each search recurses once per element or letter, so at Python's
    # default limit of 1000 frames it ends in a RecursionError at once.
    if argv[-1] == "--moments":
        argv += (moments_file,)
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)
    try:
        result = run(capsys, *argv)
    finally:
        sys.setrecursionlimit(limit)
    message = "input too large for a recursive search (maximum recursion depth exceeded)"
    assert result == (1, "", f"error: {message}\n")


@pytest.mark.parametrize("length", [64, 5000])
@pytest.mark.parametrize(
    "case",
    [
        "malformed-args",
        "unknown-variable",
        "letter-count",
        "malformed-word",
        "crossing-word",
        "bad-order",
    ],
)
def test_error_line_cuts_a_long_input(capsys, moments_file, tmp_path, case, length):
    # A value of up to 64 characters shows whole; a longer one shows its
    # first 64 characters and its length, so the line stays short.
    def shown(value):
        return repr(value) if len(value) <= 64 else f"'{value[:64]}…' ({len(value)} characters)"

    cumulants = ("cumulants", "--moments", moments_file)
    if case == "malformed-args":
        value = "," + "v" * (length - 1)
        argv = (*cumulants, "--kind", "free", "--args", value)
        message = f"malformed --args {shown(value)}: empty variable name"
    elif case == "unknown-variable":
        value = "w" * length
        argv = (*cumulants, "--kind", "free", "--args", value)
        message = f"--args names {shown(value)}, which is not a variable of {moments_file}"
    elif case == "letter-count":
        value = "ab" * (length // 2)
        argv = (*cumulants, "--kind", "word", "--word", value, "--args", "v")
        message = f"--args names 1 variables but {shown(value)} has 2 letters"
    elif case == "malformed-word":
        value = "a,," + "b" * (length - 3)
        argv = ("reduce", value)
        message = f"malformed word {shown(value)}: empty letter name"
    elif case == "crossing-word":
        value = "ab" * (length // 2)
        argv = ("decompose", value, "--nc")
        message = f"word {shown(value)} is crossing"
    else:
        value = "1" * length
        path = tmp_path / "cumulants.json"
        path.write_text(json.dumps({"cumulants": [{"order": value, "value": "1/1"}]}))
        argv = ("moments", "--cumulants", str(path), "--up-to", "1")
        message = f"cumulant table {path}: bad order {shown(value)}"
    assert run(capsys, *argv) == (1, "", f"error: {message}\n")


class TestTopLevel:
    def test_unknown_command(self, capsys):
        assert run(capsys, "bogus")[0] == 1

    def test_no_command(self, capsys):
        assert run(capsys)[0] == 1

    def test_help_exits_zero(self, capsys):
        assert run(capsys, "--help")[0] == 0

    def test_help_prints_usage_to_stdout(self, capsys):
        for argv in (["--help"], ["cumulants", "--help"]):
            code, out, err = run(capsys, *argv)
            assert (code, err) == (0, ""), argv
            assert out.startswith("usage: ncwords"), argv

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["surjections", "x"], "argument n: invalid int value: 'x'"),
            # later Pythons list the choices without quotes
            (["cumulants", "--moments", "m.json", "--kind", "other", "--args", "v"],
             "argument --kind: invalid choice: 'other'"),
            (["coassoc", "--alphabet-size", "2"],
             "the following arguments are required: --max-len"),
            (["reduce", "ab", "--bogus"], "unrecognized arguments: --bogus"),
            ([], "the following arguments are required: command"),
        ],
        ids=["invalid-int", "invalid-choice", "missing-option", "unknown-option", "no-command"],
    )
    def test_usage_error_is_one_line(self, capsys, argv, message):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (1, "")
        assert err.startswith(f"error: {message}") and err.count("\n") == 1 and err.endswith("\n")


# Tables for the fuzzed argv: valid, malformed and missing files.
FUZZ_TABLES = {
    "one.json": {
        "vars": ["v"],
        "moments": [{"word": ["v"] * n, "value": f"1/{n + 1}"} for n in range(1, 7)],
    },
    "two.json": {
        "vars": ["a", "b"],
        "moments": [
            {"word": list(t), "value": f"{len(t)}/{t.count('a') + 2}"}
            for n in range(1, 5)
            for t in map("".join, itertools.product("ab", repeat=n))
        ],
    },
    "kappas.json": {"cumulants": [{"order": n, "value": f"{n % 3}/1"} for n in range(1, 7)]},
    "bad-value.json": {"vars": ["v"], "moments": [{"word": ["v"], "value": "x"}]},
    "bad-shape.json": [1, 2],
    "bad-order.json": {"cumulants": [{"order": 0, "value": "1/1"}]},
}
FUZZ_FILES = [*FUZZ_TABLES, "syntax.json", "missing.json"]
# Sizes stay small enough that no search recurses past the limit: words
# of at most 6 letters, alphabets of at most 3, N <= 7.
SIZES = st.sampled_from(["1", "2", "3", "0", "-1", "x", "2.5"])
ORDERS = st.sampled_from(["1", "4", "6", "0", "-1", "x"])
WORDS = st.one_of(
    st.text("abc", min_size=1, max_size=6),
    st.lists(st.sampled_from(["1", "2", "3"]), min_size=1, max_size=6).map(",".join),
    st.sampled_from(["", "a,,b", "a b", ",", "-"]),
)


@st.composite
def fuzz_argv(draw, tmp_path):
    command = draw(
        st.sampled_from(
            ["reduce", "check", "decompose", "coassoc", "ncpartitions", "surjections",
             "cumulants", "moments", "bogus"]
        )
    )
    flag = st.booleans()
    if command in ("reduce", "check", "decompose"):
        return [command, draw(WORDS)] + ["--nc"] * (command == "decompose" and draw(flag))
    if command == "coassoc":
        argv = [command, "--alphabet-size", draw(SIZES), "--max-len"]
        argv.append(draw(st.sampled_from(["1", "3", "5", "0", "x"])))
        if draw(flag):
            argv += ["--samples", draw(SIZES), "--seed", draw(st.sampled_from(["0", "7"]))]
        return argv + ["--nc"] * draw(flag)
    if command in ("ncpartitions", "surjections"):
        argv = [command, draw(st.sampled_from(["1", "4", "7", "0", "-1", "x"]))]
        return argv + ["--count-only"] * (command == "ncpartitions" and draw(flag))
    if command == "bogus":
        return [command]
    # Half the runs name a valid table and fitting options, so that the
    # cumulant routes run too; the rest mix anything with anything.
    valid = draw(flag)
    name = draw(st.sampled_from(["one.json", "two.json"] if valid else FUZZ_FILES))
    path = str(tmp_path / name)
    if command == "moments":
        if valid:
            return [command, "--cumulants", str(tmp_path / "kappas.json"), "--up-to", draw(ORDERS)]
        return [command, "--cumulants", path] + ["--up-to", draw(ORDERS)] * draw(flag)
    kinds = ["free", "boolean", "classical", "word"] + ["other"] * (not valid)
    kind = draw(st.sampled_from(kinds))
    word = draw(WORDS)
    names = ["a", "b"] if name == "two.json" else ["v"]
    count = len(set(word)) if kind == "word" else draw(st.integers(1, 6))
    args = ",".join(draw(st.lists(st.sampled_from(names), min_size=count, max_size=count)))
    argv = [command, "--moments", path, "--kind", kind] + ["--json"] * draw(flag)
    if valid:
        if kind == "word":
            return argv + ["--word", word, "--args", args]
        if name == "one.json" and draw(flag):
            return argv + ["--args", "v", "--up-to", draw(ORDERS)]
        return argv + ["--args", args]
    argv += ["--args", draw(st.sampled_from([args, "", "v,", "w"]))]
    argv += ["--word", word] * draw(flag)
    return argv + ["--up-to", draw(ORDERS)] * draw(flag)


def test_main_exits_0_1_or_2_on_generated_argv(tmp_path, capsys):
    for name, table in FUZZ_TABLES.items():
        (tmp_path / name).write_text(json.dumps(table))
    (tmp_path / "syntax.json").write_text('{"vars": ["v"], "moments": [')

    @settings(max_examples=300, derandomize=True, deadline=None, database=None)
    @given(fuzz_argv(tmp_path))
    def check(argv):
        assert main(argv) in (0, 1, 2), argv

    check()
    capsys.readouterr()
