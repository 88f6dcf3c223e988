"""Certificate bytes pinned to known output.

Each entry is one invocation and its document as a Python literal (keys in
document order, ``True``/``None`` for JSON ``true``/``null``).  The
invocation's output must be exactly that document as ``lrc-cert/1`` prints
it, ``json.dumps(document, separators=(",", ":"))``: one line with no
whitespace between tokens, keys in the given order, one trailing newline
(``python -m json.tool`` indents it for reading).  So any
change to the engines or the document layer that alters a byte fails here;
``lrc-cert/1`` documents stay byte-identical across refactors.  There is one
document per command, with its optional flags set, a few whose gap
witness pair is not the first pair (0, 1), three ``gap`` and ``kappa``
documents of one speed, and long billiard paths, written
with the helpers ``r``, ``q`` and ``chain``.  ``TRIANGLE_HITS`` pins
triangle obstruction answers past the base cell, each with its exit code.
``SVG_DIGESTS`` pins the sha256 of every render scene's SVG: the defaults,
three obstacle scales each, and the tiled scenes at extents 1 to 100.
``SWEEP_DIGEST`` pins one sha256 over the ``verify`` and ``kscan`` documents
of the benchmark's sweep ladder and a few larger boxes.  ``TAMPERED`` pins the
issue list ``lrc check`` reports, with exit code 2, for a produced document
with one result value replaced: a wrong or undecodable stored gap of each
command that stores one, and a later maximizer as the witness time.
"""

import hashlib
import io
import json

import pytest

from lonelyrunner import certificates, gap, viewobstruct
from lonelyrunner.cli import run
from tests.test_gap import KSCAN_LADDER, VERIFY_LADDER


def r(num, den):
    """A rational as a document encodes it."""
    return {'num': num, 'den': den}


def q(a_num, a_den, b_num, b_den):
    """The element a + b*sqrt3 of Q(sqrt 3) as a document encodes it."""
    return {'a': r(a_num, a_den), 'b': r(b_num, b_den)}


def chain(points):
    """The segments [start, end] of the path through ``points``."""
    return [[list(a), list(b)] for a, b in zip(points, points[1:])]


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
        ['triangle', '--slope', 'sqrt3*1/5', '--alpha', '1/4', '--horizon', '20', '--strikes', '2', '--min-obstacle', '1/16'],
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
    # One speed: delta 1/2 at the least maximizer 1/(2s), and no pair.
    (
        ['gap', '--speeds', '7'],
        {'version': 'lrc-cert/1',
         'command': 'gap',
         'inputs': {'speeds': [7], 'grid': None},
         'result': {'delta': {'num': 1, 'den': 2},
                    'witness_time': {'num': 1, 'den': 14},
                    'witness_pair': None,
                    'per_speed_norms': [{'num': 1, 'den': 2}],
                    'grid_oracle': None}},
    ),
    (
        ['gap', '--speeds', '7', '--grid'],
        {'version': 'lrc-cert/1',
         'command': 'gap',
         'inputs': {'speeds': [7], 'grid': 448},
         'result': {'delta': {'num': 1, 'den': 2},
                    'witness_time': {'num': 1, 'den': 14},
                    'witness_pair': None,
                    'per_speed_norms': [{'num': 1, 'den': 2}],
                    'grid_oracle': {'resolution': 448, 'value': {'num': 1, 'den': 2}}}},
    ),
    (
        ['kappa', '--speeds', '7'],
        {'version': 'lrc-cert/1',
         'command': 'kappa',
         'inputs': {'speeds': [7]},
         'result': {'lower': {'num': 1, 'den': 2},
                    'upper': {'num': 1, 'den': 2},
                    'delta': {'num': 1, 'den': 2},
                    'holds': True}},
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
    # Long paths, captured before the folds moved to integers.  The second
    # stops at a corner after 4 of its 60 strikes.
    (
        ['triangle', '--slope', '16/11', '--strikes', '40'],
        {'version': 'lrc-cert/1',
         'command': 'triangle',
         'inputs': {'slope': q(16, 11, 0, 1),
                    'alpha': None,
                    'horizon': 10000,
                    'strikes': 40,
                    'tolerance': None},
         'result': {'hit': None,
                    'path': {'segments': chain([
                                 (q(0, 1, 0, 1), q(0, 1, 0, 1)),
                                 (q(363, 107, -176, 107), q(528, 107, -256, 107)),
                                 (q(3, 4, -11, 64), q(-33, 64, 3, 4)),
                                 (q(-1131, 107, 704, 107), q(0, 1, 0, 1)),
                                 (q(3, 2, -11, 32), q(33, 32, -1, 2)),
                                 (q(1857, 214, -528, 107), q(-1584, 107, 1857, 214)),
                                 (q(-3, 2, 33, 32), q(0, 1, 0, 1)),
                                 (q(2583, 214, -704, 107), q(2112, 107, -2369, 214)),
                                 (q(3, 2, -11, 16), q(-33, 16, 3, 2)),
                                 (q(-2988, 107, 1760, 107), q(0, 1, 0, 1)),
                                 (q(9, 4, -55, 64), q(165, 64, -5, 4)),
                                 (q(1857, 107, -1056, 107), q(-3168, 107, 1857, 107)),
                                 (q(-3, 1, 33, 16), q(0, 1, 0, 1)),
                                 (q(2220, 107, -1232, 107), q(3696, 107, -2113, 107)),
                                 (q(9, 4, -77, 64), q(-231, 64, 9, 4)),
                                 (q(-4845, 107, 2816, 107), q(0, 1, 0, 1)),
                                 (q(3, 1, -11, 8), q(33, 8, -2, 1)),
                                 (q(5571, 214, -1584, 107), q(-4752, 107, 5571, 214)),
                                 (q(-9, 2, 99, 32), q(0, 1, 0, 1)),
                                 (q(6297, 214, -1760, 107), q(5280, 107, -6083, 214)),
                                 (q(3, 1, -55, 32), q(-165, 32, 3, 1)),
                                 (q(-6702, 107, 3872, 107), q(0, 1, 0, 1)),
                                 (q(-279, 107, 176, 107), q(528, 107, -279, 107)),
                                 (q(3714, 107, -2112, 107), q(6336, 107, -3607, 107)),
                                 (q(15, 4, -121, 64), q(-363, 64, 15, 4)),
                                 (q(-7833, 107, 4576, 107), q(0, 1, 0, 1)),
                                 (q(9, 2, -33, 16), q(99, 16, -7, 2)),
                                 (q(8559, 214, -2464, 107), q(-7392, 107, 8559, 214)),
                                 (q(-15, 2, 143, 32), q(0, 1, 0, 1)),
                                 (q(9285, 214, -2640, 107), q(7920, 107, -9071, 214)),
                                 (q(9, 2, -77, 32), q(-231, 32, 9, 2)),
                                 (q(-9690, 107, 5632, 107), q(0, 1, 0, 1)),
                                 (q(21, 4, -165, 64), q(495, 64, -17, 4)),
                                 (q(5208, 107, -2992, 107), q(-8976, 107, 5208, 107)),
                                 (q(-9, 1, 11, 2), q(0, 1, 0, 1)),
                                 (q(5571, 107, -3168, 107), q(9504, 107, -5464, 107)),
                                 (q(21, 4, -187, 64), q(-561, 64, 21, 4)),
                                 (q(-11547, 107, 6688, 107), q(0, 1, 0, 1)),
                                 (q(6, 1, -99, 32), q(297, 32, -5, 1)),
                                 (q(12273, 214, -3520, 107), q(-10560, 107, 12273, 214)),
                                 (q(-21, 2, 209, 32), q(0, 1, 0, 1)),
                             ]),
                             'terminated_at_corner': False},
                    'min_obstacle': None}},
    ),
    (
        ['triangle', '--slope', 'sqrt3*1/5', '--strikes', '60'],
        {'version': 'lrc-cert/1',
         'command': 'triangle',
         'inputs': {'slope': q(0, 1, 1, 5),
                    'alpha': None,
                    'horizon': 10000,
                    'strikes': 4,
                    'tolerance': None},
         'result': {'hit': None,
                    'path': {'segments': chain([
                                 (q(0, 1, 0, 1), q(0, 1, 0, 1)), (q(5, 6, 0, 1), q(0, 1, 1, 6)),
                                 (q(1, 2, 0, 1), q(0, 1, 0, 1)), (q(1, 6, 0, 1), q(0, 1, 1, 6)),
                                 (q(1, 1, 0, 1), q(0, 1, 0, 1)),
                             ]),
                             'terminated_at_corner': True},
                    'min_obstacle': None}},
    ),
    (
        ['billiard', '--slope', '6/17', '--alpha', '82/115', '--segments', '46'],
        {'version': 'lrc-cert/1',
         'command': 'billiard',
         'inputs': {'slope': r(6, 17),
                    'alpha': r(82, 115),
                    'segments': 46},
         'result': {'min_obstacle': r(1, 23),
                    'path': chain([
                        (r(0, 1), r(0, 1)), (r(1, 1), r(6, 17)), (r(0, 1), r(12, 17)),
                        (r(5, 6), r(1, 1)), (r(1, 1), r(16, 17)), (r(0, 1), r(10, 17)),
                        (r(1, 1), r(4, 17)), (r(1, 3), r(0, 1)), (r(0, 1), r(2, 17)),
                        (r(1, 1), r(8, 17)), (r(0, 1), r(14, 17)), (r(1, 2), r(1, 1)),
                        (r(1, 1), r(14, 17)), (r(0, 1), r(8, 17)), (r(1, 1), r(2, 17)),
                        (r(2, 3), r(0, 1)), (r(0, 1), r(4, 17)), (r(1, 1), r(10, 17)),
                        (r(0, 1), r(16, 17)), (r(1, 6), r(1, 1)), (r(1, 1), r(12, 17)),
                        (r(0, 1), r(6, 17)), (r(1, 1), r(0, 1)), (r(0, 1), r(6, 17)),
                        (r(1, 1), r(12, 17)), (r(1, 6), r(1, 1)), (r(0, 1), r(16, 17)),
                        (r(1, 1), r(10, 17)), (r(0, 1), r(4, 17)), (r(2, 3), r(0, 1)),
                        (r(1, 1), r(2, 17)), (r(0, 1), r(8, 17)), (r(1, 1), r(14, 17)),
                        (r(1, 2), r(1, 1)), (r(0, 1), r(14, 17)), (r(1, 1), r(8, 17)),
                        (r(0, 1), r(2, 17)), (r(1, 3), r(0, 1)), (r(1, 1), r(4, 17)),
                        (r(0, 1), r(10, 17)), (r(1, 1), r(16, 17)), (r(5, 6), r(1, 1)),
                        (r(0, 1), r(12, 17)), (r(1, 1), r(6, 17)), (r(0, 1), r(0, 1)),
                        (r(1, 1), r(6, 17)), (r(0, 1), r(12, 17)),
                    ]),
                    'contact': 'interior'}},
    ),
]


def triangle_hit(slope, alpha, horizon, hit):
    """A triangle obstruction document with no path and no bracket."""
    return {'version': 'lrc-cert/1',
            'command': 'triangle',
            'inputs': {'slope': slope,
                       'alpha': alpha,
                       'horizon': horizon,
                       'strikes': None,
                       'tolerance': None},
            'result': {'hit': hit, 'path': None, 'min_obstacle': None}}


TRIANGLE_HITS = [
    (
        ['triangle', '--slope', '7/8', '--alpha', '251/1000', '--horizon', '2000'],
        0,
        triangle_hit(q(7, 8, 0, 1), r(251, 1000), 2000,
                     {'found': True, 'index': 3, 'row': 1, 'col': 0,
                      'orientation': 'down', 'grazing': False}),
    ),
    (
        ['triangle', '--slope', 'sqrt3*2/3', '--alpha', '3/10', '--horizon', '2000'],
        0,
        triangle_hit(q(0, 1, 2, 3), r(3, 10), 2000,
                     {'found': True, 'index': 2, 'row': 1, 'col': 0,
                      'orientation': 'up', 'grazing': False}),
    ),
    (
        ['triangle', '--slope', 'sqrt3*1/5', '--alpha', '1/5', '--horizon', '150'],
        3,  # no hit within the horizon
        triangle_hit(q(0, 1, 1, 5), r(1, 5), 150, {'found': False}),
    ),
]


SVG_DIGESTS = [
    (['--scene', 'obstruction2d'],
     '9bd7431b1e3e2b4a11f4c489c911a019275eeef1e170958e039eadf728ed5dc2'),
    (['--scene', 'obstruction2d', '--alpha', '1/1000'],
     '7edb2f05610b33cf68f91dd2c9a85fef7f211ac6289544f84d1b0539a7a2b95e'),
    (['--scene', 'obstruction2d', '--alpha', '1/2'],
     '2e5d6ecf3d92a1c20b1a7bab6f343c12efff2fe9faf442b6b3e551f0874be59b'),
    (['--scene', 'obstruction2d', '--alpha', '99/100'],
     'b6b953cdb69d85e21df141abb3293513143229bc3656c8b07fdc7ada1ebe1eac'),
    (['--scene', 'obstruction2d', '--extent', '1'],
     '3795915969c1604783a9399f26690c6759bb37bc785bf1b78261747a4b5a183b'),
    (['--scene', 'obstruction2d', '--extent', '8'],
     'b08e43c8383515773db20e4c4a71976b259ce2d55b60c53407ae4400c1fe715a'),
    (['--scene', 'obstruction2d', '--extent', '37'],
     '6abac74f4b515ead6c753b151e5bae9ffb08d00fb6fe61c9f561149a52fcdd10'),
    (['--scene', 'obstruction2d', '--extent', '100'],
     '397aa8b0e991a963bd2282e293b5e5897bca0cdd11b7540f000d4d8870506b43'),
    (['--scene', 'triangle_tiling'],
     '7d55d1928941d38d53803f6467e996175dbacce62317534cd7427260a6edf7dd'),
    (['--scene', 'triangle_tiling', '--alpha', '1/1000'],
     'c94271d41fdfe1fb7dcb04a0184fa710d6405a59ba6662501d1292fab86435fa'),
    (['--scene', 'triangle_tiling', '--alpha', '1/2'],
     '001a549e2fe0c4fd6bbe0fec23bce527ec3d633f62378d9238fc5a5a24bb1a7e'),
    (['--scene', 'triangle_tiling', '--alpha', '99/100'],
     '42b6b253210e295f3f51a74d368f5267932272f0329cb186c9a8ec3fb98778ad'),
    (['--scene', 'triangle_tiling', '--extent', '1'],
     '192c998debcd51617c9844066e821d48c7590a868ee48f486c14e5b52bcb10da'),
    (['--scene', 'triangle_tiling', '--extent', '8'],
     '7d55d1928941d38d53803f6467e996175dbacce62317534cd7427260a6edf7dd'),
    (['--scene', 'triangle_tiling', '--extent', '37'],
     '89097cdc54bea9199f811e7915e86f90acb905fe4c1583300adcdcb3759d388b'),
    (['--scene', 'triangle_tiling', '--extent', '100'],
     'fcaf6b8d85eb866c6b61a60812e0b35538cdfa5963a52029fff14cd59d02e926'),
    (['--scene', 'obstruction2d', '--rays', '3,1,1/9,17/5'],
     'ee324123808d51da5e33205e2e3aa471e036fabf6ff78933aea8c35c846921aa'),
    (['--scene', 'triangle_tiling', '--rays', '1,sqrt3*1/2,1/7,sqrt3*99/100'],
     '929fa7e9c9447a889aeebb6c66c6ccfca2633a986d79f187b1dabaeac852ec27'),
    (['--scene', 'square_billiard', '--slope', '6/17'],
     '29ae8ddb596468e0030981c052b0e54445bc02d35446cfdba321dac4f83f9059'),
    (['--scene', 'square_billiard', '--slope', '6/17', '--alpha', '1/1000'],
     'b29ac0da2bb80878de0841acb05dd9eeb74a91aa796c9b8648bb032b32039fa3'),
    (['--scene', 'square_billiard', '--slope', '6/17', '--alpha', '1/3'],
     'cc50b821a1afb18560e9d77bc4cc1de5a26d4045f789f2e18fe420f220ef0bec'),
    (['--scene', 'square_billiard', '--slope', '6/17', '--alpha', '99/100'],
     'e5f93d6353ddd8d633db920841022bd133646b0b446b7c4b69060d426d40716e'),
    (['--scene', 'triangle_billiard', '--slope', '16/11'],
     'fc1b54cca03d8991f3ef2b9e47043e62c5a9028e41afbbb739a2fa4f7614a37d'),
    (['--scene', 'triangle_billiard', '--slope', '16/11', '--alpha', '1/1000'],
     '7830a55796cc62d4942c979d2442763a89d961aa3ed2e48255aa2e7b6999cc75'),
    (['--scene', 'triangle_billiard', '--slope', '16/11', '--alpha', '1/3'],
     '978cc2a10e379dee9b1937f85d9a565a38ea0b159959b4e606270ecdd4fbcc1d'),
    (['--scene', 'triangle_billiard', '--slope', '16/11', '--alpha', '99/100'],
     '5f17f69a12d7aa7079532073c30d8dc939e922c014140b822d60d45431f105a9'),
    (['--scene', 'triangle_billiard', '--slope', 'sqrt3*1/5', '--alpha', '1/4', '--strikes', '40'],
     'af7cf1d33ae47387788054748cb670a0cefedceb3448cf84ebba630ea52ed994'),
]


# The sha256 of the serialized verify documents of the boxes VERIFY_SWEEP,
# then of the kscan documents of KSCAN_SWEEP, in that order.
VERIFY_SWEEP = VERIFY_LADDER + [(7, 20), (7, 30)]
KSCAN_SWEEP = KSCAN_LADDER + [(5, 12), (6, 12)]
SWEEP_DIGEST = '27cd9dd363e3ae9a90ff1cc4b8ccea6199d92a9966913b33d87dab37042e8e0b'


def test_sweep_document_bytes():
    digest = hashlib.sha256()
    for k, max_speed in VERIFY_SWEEP:
        report = gap.verify_lrc(k, max_speed)
        digest.update(certificates.serialize(certificates.verify_document(report)).encode())
    for k, max_coord in KSCAN_SWEEP:
        report = viewobstruct.kprime_scan(k, max_coord)
        digest.update(certificates.serialize(certificates.kscan_document(report)).encode())
    assert digest.hexdigest() == SWEEP_DIGEST


TAMPERED = [
    (['lonely', '--speeds', '0,1,2,3', '--focus', '0'], 'min_separation', r(1, 3),
     ['min_separation mismatch']),
    (['kappa', '--speeds', '3,5'], 'delta', r(1, 3), ['delta mismatch']),
    (['gap', '--speeds', '1,2,3'], 'witness_time', r(3, 4), ['witness_time mismatch']),
    (['obstruct', '--direction', '1,2', '--alpha', '1/3'], 'min_scale', r(1, 5),
     ['min_scale mismatch']),
    (['invisible', '--speeds', '1,2,3', '--d', '1'], 'kept_delta', r(1, 4),
     ['kept_delta mismatch']),
    (['gap', '--speeds', '1,2,3'], 'delta', r(1, 0),
     ["malformed document: zero denominator in rational encoding: {'num': 1, 'den': 0}"]),
    (['gap', '--speeds', '1,2,3'], 'delta', '1/4',
     ["malformed document: not a rational encoding: '1/4'"]),
    (['kappa', '--speeds', '3,5'], 'delta', r(1, 0),
     ["malformed document: zero denominator in rational encoding: {'num': 1, 'den': 0}"]),
    (['lonely', '--speeds', '0,1,2,3', '--focus', '0'], 'min_separation', r(True, 3),
     ['min_separation mismatch']),
    (['obstruct', '--direction', '1,2', '--alpha', '1/3'], 'min_scale', None,
     ['malformed document: not a rational encoding: None']),
    (['invisible', '--speeds', '1,2,3', '--d', '1'], 'kept_delta', [1, 4],
     ['malformed document: not a rational encoding: [1, 4]']),
    (['gap', '--speeds', '1,2,3', '--grid', '600'], 'delta', r(1, 3), ['delta mismatch']),
    (['gap', '--speeds', '7'], 'delta', r(1, 3), ['delta mismatch']),
    (['kappa', '--speeds', '7'], 'delta', r(1, 4), ['delta mismatch']),
    # The true delta 1/4, stored unreduced or with a bool numerator.
    (['gap', '--speeds', '1,2,3'], 'delta', r(2, 8), ['delta mismatch']),
    (['gap', '--speeds', '1,2,3'], 'delta', r(True, 4), ['delta mismatch']),
    (['gap', '--speeds', '1,2,3'], 'delta', r(-1, 4), ['delta mismatch']),
    (['obstruct', '--direction', '1,2'], 'min_scale', r(1, 5), ['min_scale mismatch']),
    (['invisible', '--speeds', '1,2,3,4', '--d', '1'], 'kept_delta', r(1, 2),
     ['kept_delta mismatch']),
]


@pytest.mark.parametrize(
    "argv, key, value, issues", TAMPERED, ids=[f"{' '.join(a)} {k}={v}" for a, k, v, _ in TAMPERED]
)
def test_tampered_report(argv, key, value, issues, monkeypatch):
    out = io.StringIO()
    run(argv, out=out)
    doc = json.loads(out.getvalue())
    doc["result"][key] = value
    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(doc)))
    out = io.StringIO()
    assert run(["check", "-"], out=out) == 2
    assert json.loads(out.getvalue())["result"] == {"valid": False, "issues": issues}


@pytest.mark.parametrize("argv, digest", SVG_DIGESTS, ids=[" ".join(a) for a, _ in SVG_DIGESTS])
def test_svg_bytes(argv, digest):
    out = io.StringIO()
    assert run(["render", *argv], out=out) == 0
    assert hashlib.sha256(out.getvalue().encode()).hexdigest() == digest


@pytest.mark.parametrize("argv, document", PINNED, ids=[" ".join(a) for a, _ in PINNED])
def test_document_bytes(argv, document):
    out = io.StringIO()
    assert run(argv, out=out) == 0
    assert out.getvalue() == json.dumps(document, separators=(",", ":")) + "\n"


@pytest.mark.parametrize(
    "argv, code, document", TRIANGLE_HITS, ids=[" ".join(a) for a, _, _ in TRIANGLE_HITS]
)
def test_triangle_hit_bytes(argv, code, document):
    out = io.StringIO()
    assert run(argv, out=out) == code
    assert out.getvalue() == json.dumps(document, separators=(",", ":")) + "\n"


def test_star_import():
    # Every name in __all__ must exist, so a deleted function cannot linger there.
    exec("from lonelyrunner import *", {})
