"""Twenty reference commands of the CLI against their recorded output.

Each entry holds the exit code, the exact stderr, and the sha256 and line
count of stdout, recorded by running the command through ``main``.
Output is meant to stay byte-identical across refactors and speed-ups;
a change that means to alter it records the new entry and says why.  The ``cumulants``
commands read the moment table ``MOMENTS``, written to a temporary file,
whose denominators make a cumulant table's scale grow at each order.
"""

import hashlib
import json

import pytest

from ncwords.cli import main

MOMENTS = {
    "vars": ["v"],
    "moments": [
        {"word": ["v"] * n, "value": value}
        for n, value in enumerate(
            ["1/2", "1/3", "1/5", "2/7", "3/11", "-1/13", "5/17", "1/19"], start=1
        )
    ],
}

# (command, exit code, stderr, stdout sha256, stdout line count);
# MOMENTS in a command stands for the moment table's path.
REFERENCE = [
    (
        "decompose a1,a2,a1,a3",
        0,
        "",
        "be65475adc33366b9412444c282810cb871a902148e206a3f6ecf7e0734b7da4",
        5,
    ),
    (
        "decompose a1,a2,a1,a3 --nc",
        0,
        "",
        "5f545d677ac8d5862ce04acdc67816caf633451fdc57b0e0cff471bd1f4e644a",
        4,
    ),
    (
        "decompose abcbda",
        1,
        "error: word 'abcbda' is not reduced\n",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        0,
    ),
    (
        "decompose abcbda --nc",
        1,
        "error: word 'abcbda' is not reduced\n",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        0,
    ),
    (
        "decompose abab",
        0,
        "",
        "09607e255d316c01364fd4c2f5fb814476c6b47ccf6e03a20be9551c9141408e",
        2,
    ),
    (
        "decompose abab --nc",
        1,
        "error: word 'abab' is crossing\n",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        0,
    ),
    (
        "decompose aa",
        1,
        "error: word 'aa' is not reduced\n",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        0,
    ),
    (
        "coassoc --alphabet-size 3 --max-len 5",
        0,
        "",
        "61a08e7638e06d4f360e57cc2a81c3bbd18de13d9a111cd40da93e659289e009",
        1,
    ),
    (
        "coassoc --alphabet-size 3 --max-len 5 --nc",
        0,
        "",
        "e2db7d6884da1c9ee71406827c931c7a13b471ecf9c97da3d2f5741ead960e52",
        1,
    ),
    (
        "coassoc --alphabet-size 4 --max-len 7 --nc",
        0,
        "",
        "416e601c8d456ea8906b22373ef56b92d57468b3a6e94ecbcf0a5ef4f7cf129e",
        1,
    ),
    (
        "coassoc --alphabet-size 5 --max-len 9 --samples 30 --seed 4",
        0,
        "",
        "68df835661feb5b56483a6d56705754205ff079f367f320aa6f8131a4b237ff4",
        1,
    ),
    (
        "coassoc --alphabet-size 5 --max-len 9 --samples 30 --seed 4 --nc",
        0,
        "",
        "b912aecc05a9d27c7ecf0041c700757578cdb90ea2b96978c969fe96a0a9e9ea",
        1,
    ),
    (
        "ncpartitions 8",
        0,
        "",
        "54a9e740877cdbf557f30c6c1ca70cf3e85158fbabe2a7b47fc4df2a5215dcf9",
        1430,
    ),
    (
        "ncpartitions 8 --count-only",
        0,
        "",
        "e043c662bc456d809131f79ac8444973f9aed48a3287965dab7964a5f080c180",
        1,
    ),
    (
        "ncpartitions 0",
        1,
        "error: N must be >= 1\n",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        0,
    ),
    (
        "ncpartitions 1",
        0,
        "",
        "c773fd8ec85c689854404a4a543a1f8c141f42085c8ec1a5d4de8386b3618cdf",
        1,
    ),
    (
        "surjections 5",
        0,
        "",
        "b32daeb0a66fdc75f6ac8bd66df99c7440cc9b94abc60925e8eafd3696a3ac56",
        52,
    ),
    (
        "cumulants --moments MOMENTS --kind word --word 1232 --args v,v,v",
        0,
        "",
        "aeadc579bd1e0c3f93123bf8208610873ca948fc41b0bc700305f11cf1227db8",
        1,
    ),
    (
        "cumulants --moments MOMENTS --kind word --word 1232 --args v,v,v --json",
        0,
        "",
        "cacfb292152882a44f618bb3965c15e08720e3c94a4d675ea4a10194e83dad45",
        1,
    ),
    (
        "cumulants --moments MOMENTS --kind free --args v --up-to 8",
        0,
        "",
        "f2e6fcc131535474e9b0b76bb2e944d08e1e41f48a42a37499ff33ff8cb0065b",
        8,
    ),
]


def replay(command, moments_path, capsys):
    code = main([moments_path if a == "MOMENTS" else a for a in command.split()])
    out, err = capsys.readouterr()
    return code, err, hashlib.sha256(out.encode()).hexdigest(), len(out.splitlines())


@pytest.fixture
def moments_path(tmp_path):
    path = tmp_path / "moments.json"
    path.write_text(json.dumps(MOMENTS))
    return str(path)


@pytest.mark.parametrize(
    "command, code, err, digest, lines", REFERENCE, ids=[r[0] for r in REFERENCE]
)
def test_reference_command(command, code, err, digest, lines, moments_path, capsys):
    assert replay(command, moments_path, capsys) == (code, err, digest, lines)
