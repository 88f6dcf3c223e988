"""Each input has one refusal: ``lrc <command>`` and ``lrc check`` word a bad
input alike, in the words of the engine that owns its rule."""

import io
import json

import pytest

from lonelyrunner import certificates, cli, fieldsearch, viewobstruct

# Per producing command: (a valid argv, the flag made bad, its bad value,
# the refusal).  The bad argv is the valid one with that flag's value
# replaced, or with the flag added.
BAD_INPUTS = {
    "gap": [
        ("gap --speeds 1,2,3 --grid 600", "--grid", "3", "resolution must be an integer from 6 to 4194304, got 3"),
        ("gap --speeds 1,2,3", "--speeds", "0,1", "speed must be an integer >= 1, got 0"),
    ],
    "lonely": [
        ("lonely --speeds 0,1,2 --focus 0", "--focus", "5", "focus must be an integer from 0 to 2, got 5"),
    ],
    "verify": [
        ("verify --k 3 --max-speed 12", "--k", "11", "k must be an integer from 1 to 10, got 11"),
        (
            "verify --k 3 --max-speed 12",
            "--max-speed",
            "1099511627777",
            "max_speed must be an integer from 3 to 2048, got 1099511627777",
        ),
    ],
    "kappa": [
        ("kappa --speeds 1,2", "--speeds", "1,-2", "speed must be an integer >= 1, got -2"),
    ],
    "obstruct": [
        ("obstruct --direction 1,2", "--direction", "0,1", "direction coordinate must be an integer >= 1, got 0"),
        ("obstruct --direction 1,2 --alpha 1/3", "--alpha", "3/2", "alpha must lie strictly between 0 and 1"),
    ],
    "kscan": [
        ("kscan --k 3 --max-coord 8", "--k", "1", "k must be an integer from 2 to 10, got 1"),
        ("kscan --k 3 --max-coord 12", "--k", "11", "k must be an integer from 2 to 10, got 11"),
        (
            "kscan --k 3 --max-coord 8",
            "--max-coord",
            "1099511627777",
            "max_coord must be an integer from 3 to 2048, got 1099511627777",
        ),
    ],
    "billiard": [
        ("billiard --slope 1/2 --segments 8", "--segments", "0", "segments must be an integer from 1 to 16384, got 0"),
        (
            "billiard --slope 1/2 --segments 8",
            "--segments",
            "16385",
            "segments must be an integer from 1 to 16384, got 16385",
        ),
    ],
    "triangle": [
        ("triangle --slope 16/11 --strikes 40", "--strikes", "0", "strikes must be an integer from 1 to 16384, got 0"),
        (
            "triangle --slope 16/11 --strikes 40",
            "--strikes",
            "16385",
            "strikes must be an integer from 1 to 16384, got 16385",
        ),
        (
            "triangle --slope 16/11 --alpha 1/3 --horizon 10",
            "--horizon",
            "0",
            "horizon must be an integer >= 1, got 0",
        ),
    ],
    "invisible": [
        ("invisible --speeds 1,2,3 --d 1", "--d", "3", "d must be an integer from 0 to 2, got 3"),
        (
            "invisible --speeds 1,2,3 --d 1",
            "--prime-budget",
            "1099511627777",
            "prime_budget must be an integer from 1 to 1099511627776, got 1099511627777",
        ),
    ],
    "conj34": [
        ("conj34 --speeds 1,3", "--speeds", "0,3", "speed must be an integer >= 1, got 0"),
        ("conj34 --speeds 1,3", "--speeds", "3", "need at least two speeds"),
    ],
}

# A path document's count is held to its stored path before the rebuild
# (see certificates._stored_path_count), which bounds the check's cost by
# the document's size.  So a bad count in a document is reported as a
# mismatch with that path, not in the producer's words, and these rows
# test only the command.
STORED_PATH_COUNTS = {"--segments", "--strikes"}

ROWS = [
    pytest.param(valid, flag, value, refusal, id=f"{command} {flag} {value}")
    for command, rows in BAD_INPUTS.items()
    for valid, flag, value, refusal in rows
]
DOCUMENT_ROWS = [row for row in ROWS if row.values[1] not in STORED_PATH_COUNTS]


def invoke(argv):
    out, err = io.StringIO(), io.StringIO()
    code = cli.run(argv, out=out, err=err)
    return code, out.getvalue(), err.getvalue()


def bad_argv(valid: str, flag: str, value: str) -> list[str]:
    argv = valid.split()
    if flag in argv:
        argv[argv.index(flag) + 1] = value
    else:
        argv += [flag, value]
    return argv


def document_inputs(argv: list[str]) -> dict:
    """The inputs ``lrc`` hands the producer for ``argv``."""
    args = vars(cli.build_parser().parse_args(argv))
    return {key: value for key, value in args.items() if key not in cli._NOT_INPUTS}


def test_every_producing_command_has_rows():
    assert set(BAD_INPUTS) == set(certificates._PRODUCERS)


@pytest.mark.parametrize("valid, flag, value, refusal", ROWS)
def test_command_refuses_with_one_line(valid, flag, value, refusal):
    assert invoke(bad_argv(valid, flag, value)) == (1, "", f"error: {refusal}\n")


@pytest.mark.parametrize("valid, flag, value, refusal", DOCUMENT_ROWS)
def test_check_calls_the_same_input_malformed(valid, flag, value, refusal):
    code, text, _ = invoke(valid.split())
    assert code == 0
    doc = certificates.parse(text)
    bad = document_inputs(bad_argv(valid, flag, value))
    assert [key for key in bad if bad[key] != doc.inputs[key]] == [flag[2:].replace("-", "_")]
    doc.inputs = bad
    assert certificates.validate_document(doc) == [f"malformed document: {refusal}"]


def check(tmp_path, text: str) -> dict:
    path = tmp_path / "doc.json"
    path.write_text(text)
    code, out, _ = invoke(["check", str(path)])
    report = json.loads(out)
    assert code == 0, report
    return report


@pytest.mark.parametrize(
    "argv", ["billiard --slope 355/113 --segments 16384", "triangle --slope 16/11 --strikes 16384"]
)
def test_path_at_the_cap_is_produced_and_checked(tmp_path, argv):
    code, text, _ = invoke(argv.split())
    assert code == 0
    doc = json.loads(text)
    path = doc["result"]["path"]
    assert len(path if isinstance(path, list) else path["segments"]) == 2**14
    assert check(tmp_path, text)["result"] == {"valid": True, "issues": []}


def test_library_budget_follows_the_check(tmp_path):
    with pytest.raises(ValueError) as info:
        fieldsearch.invisible_subset((1, 2, 3), 1, prime_budget=2**40 + 1)
    assert str(info.value) == "prime_budget must be an integer from 1 to 1099511627776, got 1099511627777"
    cert = fieldsearch.invisible_subset((1, 2, 3), 1, prime_budget=2**40)
    text = certificates.serialize(certificates.invisible_document(cert, 2**40))
    assert check(tmp_path, text)["result"]["valid"] is True


def test_library_kscan_at_the_k_cap_passes_the_check(tmp_path):
    report = viewobstruct.kprime_scan(10, 12)
    text = certificates.serialize(certificates.kscan_document(report))
    assert check(tmp_path, text)["result"]["valid"] is True
