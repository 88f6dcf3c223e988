"""Certificate bytes pinned to known output.

Each entry is one invocation and its document as a Python literal (keys in
document order, ``True``/``None`` for JSON ``true``/``null``).  The
invocation's output must be exactly that document as ``lrc-cert/1`` prints
it: two-space indent, keys in the given order, one trailing newline.  So any
change to the engines or the document layer that alters a byte fails here;
``lrc-cert/1`` documents stay byte-identical across refactors.  There is one
document per command, with its optional flags set, and a few whose gap
witness pair is not the first pair (0, 1).
"""

import io
import json

import pytest

from lonelyrunner.cli import run

PINNED = [
    (
        ['gap', '--speeds', '2,3', '--grid', '600'],
        {'version': 'lrc-cert/1',
         'command': 'gap',
         'inputs': {'speeds': [2, 3], 'grid': 600},
         'result': {'delta': {'num': 2, 'den': 5},
                    'witness_time': {'num': 1, 'den': 5},
                    'witness_pair': {'i': 0, 'j': 1, 'a': 1},
                    'per_speed_norms': [{'num': 2, 'den': 5}, {'num': 2, 'den': 5}],
                    'grid_oracle': {'resolution': 600, 'value': {'num': 2, 'den': 5}}}},
    ),
    (
        ['lonely', '--speeds', '0,1,2,3', '--focus', '0'],
        {'version': 'lrc-cert/1',
         'command': 'lonely',
         'inputs': {'speeds': [0, 1, 2, 3], 'focus': 0},
         'result': {'loneliest_time': {'num': 1, 'den': 4},
                    'min_separation': {'num': 1, 'den': 4},
                    'lonely': True,
                    'separation_floor': {'num': 1, 'den': 6}}},
    ),
    (
        ['verify', '--k', '3', '--max-speed', '10'],
        {'version': 'lrc-cert/1',
         'command': 'verify',
         'inputs': {'k': 3, 'max_speed': 10},
         'result': {'bound': {'num': 1, 'den': 4},
                    'checked': 109,
                    'tight': [[1, 2, 3]],
                    'counterexamples': []}},
    ),
    (
        ['kappa', '--speeds', '3,5'],
        {'version': 'lrc-cert/1',
         'command': 'kappa',
         'inputs': {'speeds': [3, 5]},
         'result': {'lower': {'num': 1, 'den': 4},
                    'upper': {'num': 1, 'den': 3},
                    'delta': {'num': 1, 'den': 2},
                    'holds': True}},
    ),
    (
        ['obstruct', '--direction', '1,2', '--alpha', '1/3'],
        {'version': 'lrc-cert/1',
         'command': 'obstruct',
         'inputs': {'direction': [1, 2], 'alpha': {'num': 1, 'den': 3}},
         'result': {'min_scale': {'num': 1, 'den': 3},
                    'witness': {'hit_time': {'num': 1, 'den': 3},
                                'cube_center': [{'num': 1, 'den': 2},
                                                {'num': 1, 'den': 2}]}}},
    ),
    (
        ['kscan', '--k', '2', '--max-coord', '6'],
        {'version': 'lrc-cert/1',
         'command': 'kscan',
         'inputs': {'k': 2, 'max_coord': 6},
         'result': {'observed_sup': {'num': 1, 'den': 3},
                    'extremal': [1, 2],
                    'matches_conjecture': True,
                    'cap': {'num': 1, 'den': 2}}},
    ),
    (
        ['billiard', '--slope', '1/2', '--alpha', '1/3', '--segments', '4'],
        {'version': 'lrc-cert/1',
         'command': 'billiard',
         'inputs': {'slope': {'num': 1, 'den': 2},
                    'alpha': {'num': 1, 'den': 3},
                    'segments': 4},
         'result': {'min_obstacle': {'num': 1, 'den': 3},
                    'path': [[[{'num': 0, 'den': 1}, {'num': 0, 'den': 1}],
                              [{'num': 1, 'den': 1}, {'num': 1, 'den': 2}]],
                             [[{'num': 1, 'den': 1}, {'num': 1, 'den': 2}],
                              [{'num': 0, 'den': 1}, {'num': 1, 'den': 1}]],
                             [[{'num': 0, 'den': 1}, {'num': 1, 'den': 1}],
                              [{'num': 1, 'den': 1}, {'num': 1, 'den': 2}]],
                             [[{'num': 1, 'den': 1}, {'num': 1, 'den': 2}],
                              [{'num': 0, 'den': 1}, {'num': 0, 'den': 1}]]],
                    'contact': 'boundary'}},
    ),
    (
        ['triangle', '--slope', 'sqrt3*1/5', '--alpha', '1/4', '--horizon', '20', '--strikes', '2', '--min-obstacle', '--tolerance', '1/16'],
        {'version': 'lrc-cert/1',
         'command': 'triangle',
         'inputs': {'slope': {'a': {'num': 0, 'den': 1}, 'b': {'num': 1, 'den': 5}},
                    'alpha': {'num': 1, 'den': 4},
                    'horizon': 20,
                    'strikes': 2,
                    'tolerance': {'num': 1, 'den': 16}},
         'result': {'hit': {'found': True,
                            'index': 0,
                            'row': 0,
                            'col': 0,
                            'orientation': 'up',
                            'grazing': True},
                    'path': {'segments': [[[{'a': {'num': 0, 'den': 1},
                                             'b': {'num': 0, 'den': 1}},
                                            {'a': {'num': 0, 'den': 1},
                                             'b': {'num': 0, 'den': 1}}],
                                           [{'a': {'num': 5, 'den': 6},
                                             'b': {'num': 0, 'den': 1}},
                                            {'a': {'num': 0, 'den': 1},
                                             'b': {'num': 1, 'den': 6}}]],
                                          [[{'a': {'num': 5, 'den': 6},
                                             'b': {'num': 0, 'den': 1}},
                                            {'a': {'num': 0, 'den': 1},
                                             'b': {'num': 1, 'den': 6}}],
                                           [{'a': {'num': 1, 'den': 2},
                                             'b': {'num': 0, 'den': 1}},
                                            {'a': {'num': 0, 'den': 1},
                                             'b': {'num': 0, 'den': 1}}]]],
                             'terminated_at_corner': False},
                    'min_obstacle': {'lo': {'num': 3, 'den': 16},
                                     'hi': {'num': 1, 'den': 4}}}},
    ),
    (
        ['gap', '--speeds', ','.join(map(str, range(1, 41)))],
        {'version': 'lrc-cert/1',
         'command': 'gap',
         'inputs': {'speeds': list(range(1, 41)), 'grid': None},
         'result': {'delta': {'num': 1, 'den': 41},
                    'witness_time': {'num': 1, 'den': 41},
                    'witness_pair': {'i': 0, 'j': 39, 'a': 1},
                    'per_speed_norms': [{'num': min(s, 41 - s), 'den': 41} for s in range(1, 41)],
                    'grid_oracle': None}},
    ),
    (
        ['gap', '--speeds', '3,5,8'],
        {'version': 'lrc-cert/1',
         'command': 'gap',
         'inputs': {'speeds': [3, 5, 8], 'grid': None},
         'result': {'delta': {'num': 4, 'den': 13},
                    'witness_time': {'num': 6, 'den': 13},
                    'witness_pair': {'i': 1, 'j': 2, 'a': 6},
                    'per_speed_norms': [{'num': 5, 'den': 13},
                                        {'num': 4, 'den': 13},
                                        {'num': 4, 'den': 13}],
                    'grid_oracle': None}},
    ),
    (
        ['conj34', '--speeds', '1,3'],
        {'version': 'lrc-cert/1',
         'command': 'conj34',
         'inputs': {'speeds': [1, 3]},
         'result': {'n': 4, 'x': 2, 'm': 1, 'residues': [2, 2]}},
    ),
    (
        ['conj34', '--speeds', '2,3,7'],
        {'version': 'lrc-cert/1',
         'command': 'conj34',
         'inputs': {'speeds': [2, 3, 7]},
         'result': {'n': 5, 'x': 1, 'm': 1, 'residues': [2, 3, 2]}},
    ),
    (
        ['conj34', '--speeds', '1,4,9,13'],
        {'version': 'lrc-cert/1',
         'command': 'conj34',
         'inputs': {'speeds': [1, 4, 9, 13]},
         'result': {'n': 22, 'x': 9, 'm': 4, 'residues': [9, 14, 15, 7]}},
    ),
    (
        ['invisible', '--speeds', '1,2,3', '--d', '1'],
        {'version': 'lrc-cert/1',
         'command': 'invisible',
         'inputs': {'speeds': [1, 2, 3], 'd': 1, 'prime_budget': 100000},
         'result': {'kept': [2, 3],
                    'removed': [1],
                    'bound': {'num': 1, 'den': 3},
                    'kept_delta': {'num': 2, 'den': 5},
                    'witness': {'prime': 5,
                                'multiplier': 1,
                                'band': 1,
                                'residues': [2, 3]}}},
    ),
    (
        ['invisible', '--speeds', '1,2,3,4,5,6,7', '--d', '2'],
        {'version': 'lrc-cert/1',
         'command': 'invisible',
         'inputs': {'speeds': [1, 2, 3, 4, 5, 6, 7], 'd': 2, 'prime_budget': 100000},
         'result': {'kept': [2, 3, 4, 5, 6, 7],
                    'removed': [1],
                    'bound': {'num': 3, 'den': 14},
                    'kept_delta': {'num': 2, 'den': 9},
                    'witness': {'prime': 11,
                                'multiplier': 1,
                                'band': 1,
                                'residues': [2, 3, 4, 5, 6, 7]}}},
    ),
]


@pytest.mark.parametrize("argv, document", PINNED, ids=[" ".join(a) for a, _ in PINNED])
def test_document_bytes(argv, document):
    out = io.StringIO()
    assert run(argv, out=out) == 0
    assert out.getvalue() == json.dumps(document, indent=2) + "\n"


def test_star_import():
    # Every name in __all__ must exist, so a deleted function cannot linger there.
    exec("from lonelyrunner import *", {})
