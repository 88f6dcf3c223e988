"""Each input has one refusal: ``lrc <command>`` and ``lrc check`` word a bad
input alike, in the words of the engine that owns its rule."""

import copy
import io
import json
import re

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

ROWS = [
    pytest.param(valid, flag, value, refusal, id=f"{command} {flag} {value}")
    for command, rows in BAD_INPUTS.items()
    for valid, flag, value, refusal in rows
]


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


@pytest.mark.parametrize("valid, flag, value, refusal", ROWS)
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


@pytest.mark.parametrize("budget", [0, -5])
def test_library_budget_below_one_is_refused_as_lrc_refuses_it(budget):
    argv = ["invisible", "--speeds", "1,2,3", "--d", "1", "--prime-budget", str(budget)]
    code, out, err = invoke(argv)
    with pytest.raises(ValueError) as info:
        fieldsearch.invisible_subset((1, 2, 3), 1, prime_budget=budget)
    assert (code, out, err) == (1, "", f"error: {info.value}\n")


def test_library_kscan_at_the_k_cap_passes_the_check(tmp_path):
    report = viewobstruct.kprime_scan(10, 12)
    text = certificates.serialize(certificates.kscan_document(report))
    assert check(tmp_path, text)["result"]["valid"] is True


# One valid document per producing command, as CI produces them.
LEAF_DOCUMENTS = [
    "gap --speeds 1,2,3 --grid 600",
    "lonely --speeds 0,1,2,3 --focus 0",
    "verify --k 3 --max-speed 12",
    "kappa --speeds 3,5",
    "obstruct --direction 1,2 --alpha 1/3",
    "kscan --k 3 --max-coord 8",
    "billiard --slope 6/17 --alpha 82/115 --segments 46",
    "triangle --slope 16/11 --strikes 40",
    "invisible --speeds 1,2,3 --d 1",
    "conj34 --speeds 1,3",
]
MISMATCH = re.compile(r"\w+ mismatch")


def leaves(node, path=()):
    """Every (path, value) of a JSON value that is neither an object nor a list."""
    if isinstance(node, (dict, list)):
        for key, child in node.items() if isinstance(node, dict) else enumerate(node):
            yield from leaves(child, path + (key,))
    else:
        yield path, node


def replaced(node, path, value):
    node = copy.deepcopy(node)
    *parents, last = path
    target = node
    for key in parents:
        target = target[key]
    target[last] = value
    return node


def as_json(value) -> str:
    return json.dumps(value, sort_keys=True)


def mutants(value):
    """0, true, null and 2.5 in place of the leaf, and v - 1 and v + 1 for an int."""
    values = [0, True, None, 2.5]
    if isinstance(value, int) and not isinstance(value, bool):
        values += [value - 1, value + 1]
    return [new for new in values if as_json(new) != as_json(value)]


def test_leaf_documents_cover_every_producing_command():
    assert {argv.split()[0] for argv in LEAF_DOCUMENTS} == set(certificates._PRODUCERS)


@pytest.mark.parametrize("argv", LEAF_DOCUMENTS, ids=lambda argv: argv.split()[0])
def test_every_input_leaf_mutant_is_judged_as_its_producer_judges_it(argv):
    """Whatever ``produce`` refuses, the check lists as malformed in the same
    words.  A rebuilt document is valid exactly when ``produce`` gives it
    back, and is otherwise invalid only by mismatches."""
    code, text, _ = invoke(argv.split())
    assert code == 0
    doc = certificates.parse(text)
    rebuilt = doc.command not in certificates._WITNESS_CHECKS
    disagreements = []
    for path, value in leaves(doc.inputs):
        for new in mutants(value):
            mutant = certificates.CertificateDocument(doc.command, replaced(doc.inputs, path, new), doc.result)
            try:
                produced = certificates.produce(doc.command, copy.deepcopy(mutant.inputs))
            except (KeyError, TypeError, ValueError) as exc:
                expected = [f"malformed document: {exc}"]
            else:
                if not rebuilt:
                    continue
                same = as_json([produced.inputs, produced.result]) == as_json([mutant.inputs, mutant.result])
                expected = [] if same else None
            issues = certificates.validate_document(mutant)
            if expected is None:
                agrees = bool(issues) and all(MISMATCH.fullmatch(issue) for issue in issues)
            else:
                agrees = issues == expected
            if not agrees:
                disagreements.append((path, new, issues))
    assert disagreements == []


# One small document per producing command: LEAF_DOCUMENTS with short paths.
SMALL_DOCUMENTS = [argv for argv in LEAF_DOCUMENTS if argv.split()[0] not in ("billiard", "triangle")] + [
    "billiard --slope 6/17 --alpha 82/115 --segments 4",
    "triangle --slope 16/11 --strikes 3 --alpha 1/3",
    "triangle --slope sqrt3*1/5 --min-obstacle --horizon 100",
]


def test_every_result_leaf_mutant_is_refused():
    """A rebuilt document's result is what its inputs produce, and a witness
    document's is what its inputs and witness decide, so no result leaf can
    change and still check valid."""
    accepted, judged = [], 0
    for argv in SMALL_DOCUMENTS:
        code, text, _ = invoke(argv.split())
        assert code == 0
        doc = certificates.parse(text)
        for path, value in leaves(doc.result):
            for new in mutants(value):
                mutant = certificates.CertificateDocument(doc.command, doc.inputs, replaced(doc.result, path, new))
                judged += 1
                if certificates.validate_document(mutant) == []:
                    accepted.append((argv, path, new))
    assert accepted == []
    assert judged == 955
