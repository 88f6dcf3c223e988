"""Certificate bytes pinned to known output.

Each document below is the exact serialized output of its invocation, so
any change to the engines or the document layer that alters a byte fails
here; ``lrc-cert/1`` documents stay byte-identical across refactors.
"""

import io

import pytest

from lonelyrunner.cli import run

PINNED = [
    (
        ["conj34", "--speeds", "1,3"],
        """{
  "version": "lrc-cert/1",
  "command": "conj34",
  "inputs": {
    "speeds": [
      1,
      3
    ]
  },
  "result": {
    "n": 4,
    "x": 2,
    "m": 1,
    "residues": [
      2,
      2
    ]
  }
}
""",
    ),
    (
        ["conj34", "--speeds", "2,3,7"],
        """{
  "version": "lrc-cert/1",
  "command": "conj34",
  "inputs": {
    "speeds": [
      2,
      3,
      7
    ]
  },
  "result": {
    "n": 5,
    "x": 1,
    "m": 1,
    "residues": [
      2,
      3,
      2
    ]
  }
}
""",
    ),
    (
        ["invisible", "--speeds", "1,2,3", "--d", "1"],
        """{
  "version": "lrc-cert/1",
  "command": "invisible",
  "inputs": {
    "speeds": [
      1,
      2,
      3
    ],
    "d": 1,
    "prime_budget": 100000
  },
  "result": {
    "kept": [
      2,
      3
    ],
    "removed": [
      1
    ],
    "bound": {
      "num": 1,
      "den": 3
    },
    "kept_delta": {
      "num": 2,
      "den": 5
    },
    "witness": {
      "prime": 5,
      "multiplier": 1,
      "band": 1,
      "residues": [
        2,
        3
      ]
    }
  }
}
""",
    ),
    (
        ["invisible", "--speeds", "1,2,3,4,5,6,7", "--d", "2"],
        """{
  "version": "lrc-cert/1",
  "command": "invisible",
  "inputs": {
    "speeds": [
      1,
      2,
      3,
      4,
      5,
      6,
      7
    ],
    "d": 2,
    "prime_budget": 100000
  },
  "result": {
    "kept": [
      2,
      3,
      4,
      5,
      6,
      7
    ],
    "removed": [
      1
    ],
    "bound": {
      "num": 3,
      "den": 14
    },
    "kept_delta": {
      "num": 2,
      "den": 9
    },
    "witness": {
      "prime": 11,
      "multiplier": 1,
      "band": 1,
      "residues": [
        2,
        3,
        4,
        5,
        6,
        7
      ]
    }
  }
}
""",
    ),
]


@pytest.mark.parametrize("argv, expected", PINNED, ids=[" ".join(a) for a, _ in PINNED])
def test_document_bytes(argv, expected):
    out = io.StringIO()
    assert run(argv, out=out) == 0
    assert out.getvalue() == expected


def test_star_import():
    # Every name in __all__ must exist, so a deleted function cannot linger there.
    exec("from lonelyrunner import *", {})
