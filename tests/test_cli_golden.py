"""Golden outputs of the deciding subcommands.

Each case runs ``homind.cli.main`` in process on fixed graph files with a
fixed seed and compares the exit code, stdout and stderr with the text
recorded below, once in key=value line mode and once with --json.  The
seeded output is part of the command-line contract: a change to any of
these strings is a behaviour change, to be recorded in CHANGES.md along
with the new expectation.
"""

import pytest

from homind.cli import main
from homind.graphs import (
    Graph,
    complete_graph,
    cycle_graph,
    disjoint_union,
    path_graph,
    serialize_graph,
)

GRAPHS = {
    "c6": cycle_graph(6),
    "c6r": Graph.from_edges(6, [(3, 0), (0, 4), (4, 1), (1, 5), (5, 2), (2, 3)]),
    "2k3": disjoint_union(complete_graph(3), complete_graph(3)),
    "p3": path_graph(3),
    "p3r": Graph.from_edges(3, [(0, 2), (2, 1)]),
    "p4": path_graph(4),
    "star": Graph.from_edges(4, [(0, 1), (0, 2), (0, 3)]),
    # one-state k=2 closure rejects this pair at prime 3, after accepting at 2
    "a5": Graph.from_edges(5, [(0, 2), (0, 4), (1, 2), (1, 3), (1, 4), (2, 4)]),
    "b5": Graph.from_edges(5, [(0, 3), (0, 4), (1, 2), (1, 3), (2, 4), (3, 4)]),
    "k3": complete_graph(3),
    # equal walk counts, but 1-WL tells them apart: the tw-all partition
    # cannot certify their accept under paths, so random mode draws primes
    "g7": Graph.from_edges(7, [(0, 1), (0, 2), (0, 4), (1, 3), (1, 5), (2, 6),
                               (3, 5), (3, 6), (5, 6)]),
    "h7": Graph.from_edges(7, [(0, 1), (0, 2), (1, 5), (1, 6), (2, 4), (3, 5),
                               (3, 6), (4, 6), (5, 6)]),
}

# one state, every transition to it, accepting, no small stage
ONE_STATE_NONE = ("k 2\nstates 1\nstart 0\naccept 0\nglue 0 0 -> 0\n"
                  "J 1 0 -> 0\nJ 2 0 -> 0\nA 1 2 0 -> 0\nsmall none\n")

TW2 = ("homind", "--builtin", "tw-all", "--k", "2")
TW3 = ("homind", "--builtin", "tw-all", "--k", "3")
PATHS = ("--builtin", "paths")
NONE = ("--automaton", "none.aut")
SINGLE = ("--mode", "single-prime", "--prime")
CRT = ("--mode", "deterministic")

CASES = {
    "homind-random-reject": (*TW2, "--seed", "7", "p4", "star"),
    "homind-random-c6-2k3": (*TW2, "--seed", "7", "c6", "2k3"),
    "homind-random-c6-relabelled": (*TW2, "--seed", "7", "c6", "c6r"),
    "homind-prime-bits-k2": (*TW2, "--seed", "7", "--prime-bits", "12", "c6", "2k3"),
    "homind-prime-bits-k3": (*TW3, "--seed", "7", "--prime-bits", "12", "c6", "2k3"),
    "homind-parallel": (*TW2, "--seed", "7", "--parallel", "2", "c6", "c6r"),
    "homind-bit-cap": (*TW2, "--seed", "7", "--bit-cap", "20", "c6", "c6r"),
    "homind-single-prime": (*TW3, *SINGLE, "101", "c6", "2k3"),
    "homind-deterministic": (*TW2, *CRT, "c6", "c6r"),
    "homind-paths-deterministic": ("homind", *PATHS, *CRT, "c6", "c6r"),
    "homind-paths-random": ("homind", *PATHS, "--mode", "random", "--seed", "7",
                            "p4", "star"),
    "modhomind-tw3": ("modhomind", "--builtin", "tw-all", "--k", "3",
                      "--prime", "2147483647", "c6", "c6r"),
    "modhomind-paths": ("modhomind", *PATHS, "--prime", "7", "p4", "star"),
    "pwhomind-crt-accept": ("pwhomind", *PATHS, *CRT, "c6", "2k3"),
    "pwhomind-crt-reject": ("pwhomind", *PATHS, *CRT, "p4", "star"),
    "pwhomind-random": ("pwhomind", *PATHS, "--seed", "7", "g7", "h7"),
    "pwhomind-random-exact": ("pwhomind", *PATHS, "--seed", "7", "c6", "2k3"),
    "pwhomind-random-witness": ("pwhomind", *PATHS, "--seed", "7", "p3", "k3"),
    "pwhomind-random-reject": ("pwhomind", *PATHS, "--seed", "7", "p4", "star"),
    "pwhomind-random-bits": ("pwhomind", *PATHS, "--seed", "7", "--prime-bits", "12",
                             "g7", "h7"),
    "pwhomind-random-parallel": ("pwhomind", *PATHS, "--seed", "7", "--parallel", "2",
                                 "g7", "h7"),
    "pwhomind-single-prime": ("pwhomind", *PATHS, *SINGLE, "101", "p4", "star"),
    "pwhomind-bit-cap": ("pwhomind", *PATHS, "--seed", "7", "--bit-cap", "4",
                         "p4", "star"),
    "lasserre-single-prime": ("lasserre", "--t", "1", *SINGLE, "101", "p4", "star"),
    "lasserre-single-prime-bits": ("lasserre", "--t", "1", *SINGLE, "101",
                                   "--prime-bits", "16", "p4", "star"),
    "lasserre-random": ("lasserre", "--t", "1", "--seed", "7", "c6", "c6r"),
    "lasserre-deterministic": ("lasserre", "--t", "1", *CRT, "p4", "star"),
    "lasserre-random-bits": ("lasserre", "--t", "1", "--seed", "7",
                             "--prime-bits", "16", "c6", "c6r"),
    "none-homind-random": ("homind", *NONE, "--seed", "3", "c6", "c6r"),
    "none-homind-random-bits": ("homind", *NONE, "--seed", "3",
                                "--prime-bits", "12", "c6", "c6r"),
    "none-pwhomind-random": ("pwhomind", *NONE, "--seed", "3", "g7", "h7"),
    "none-pwhomind-random-exact": ("pwhomind", *NONE, "--seed", "3", "c6", "c6r"),
    "none-homind-single-prime": ("homind", *NONE, *SINGLE, "101", "c6", "c6r"),
    "none-pwhomind-crt-accept": ("pwhomind", *NONE, *CRT, "c6", "c6r"),
    "none-pwhomind-crt-reject": ("pwhomind", *NONE, *CRT, "a5", "b5"),
}

# case -> (exit code, line-mode stdout, --json stdout, stderr)
EXPECTED = {
    # one-state treewidth classes are decided over the integers: random mode
    # echoes the seed, then the exact verdict, with no prime
    'homind-random-reject': (
        1, 'seed=7\nverdict=reject\nmode=exact\nwitness=none\n',
        '{"seed": 7, "verdict": "reject", "mode": "exact", "witness": "none"}\n',
        ''),
    'homind-random-c6-2k3': (
        0, 'seed=7\nverdict=accept\nmode=exact\nwitness=none\n',
        '{"seed": 7, "verdict": "accept", "mode": "exact", "witness": "none"}\n',
        ''),
    'homind-random-c6-relabelled': (
        0, 'seed=7\nverdict=accept\nmode=exact\nwitness=none\n',
        '{"seed": 7, "verdict": "accept", "mode": "exact", "witness": "none"}\n',
        ''),
    # --prime-bits and --bit-cap no longer matter for a one-state class
    'homind-prime-bits-k2': (
        0, 'seed=7\nverdict=accept\nmode=exact\nwitness=none\n',
        '{"seed": 7, "verdict": "accept", "mode": "exact", "witness": "none"}\n',
        ''),
    'homind-prime-bits-k3': (
        1, 'seed=7\nverdict=reject\nmode=exact\nwitness=n 3 m 3 0 1 0 2 1 2\n',
        '{"seed": 7, "verdict": "reject", "mode": "exact", "witness": "n 3 m 3 0 1 0 2 1 2"}\n',
        ''),
    'homind-parallel': (
        0, 'seed=7\nverdict=accept\nmode=exact\nwitness=none\n',
        '{"seed": 7, "verdict": "accept", "mode": "exact", "witness": "none"}\n',
        ''),
    # a bound over the cap used to exit 2; no bound is needed now
    'homind-bit-cap': (
        0, 'seed=7\nverdict=accept\nmode=exact\nwitness=none\n',
        '{"seed": 7, "verdict": "accept", "mode": "exact", "witness": "none"}\n',
        ''),
    'homind-single-prime': (
        1, 'verdict=reject\nmode=single-prime\nprime=101\nrejecting_prime=101\nwitness=n 3 m 3 0 1 0 2 1 2\n',
        '{"verdict": "reject", "mode": "single-prime", "prime": 101, "rejecting_prime": 101, "witness": "n 3 m 3 0 1 0 2 1 2"}\n',
        ''),
    # deterministic mode of a one-state class is the exact decision, and of
    # a multi-state treewidth automaton still a usage error
    'homind-deterministic': (
        0, 'verdict=accept\nmode=exact\nwitness=none\n',
        '{"verdict": "accept", "mode": "exact", "witness": "none"}\n',
        ''),
    'homind-paths-deterministic': (
        2, '',
        '',
        'error: deterministic CRT mode is defined for the pathwidth variant\n'),
    # multi-state, treewidth flavour: P4 against K_{1,3} is uncertified, and
    # the closure rejects at the first prime, of 836 bits
    'homind-paths-random': (
        1, 'seed=7\nverdict=reject\nmode=randomized\nprime=44479975276230222008104880361903471434878568125341838868041212045466654133909368140308455841478118396388731179914534031814516624218239861863699550742525644811208112776153443955952424489527873085307322946793147491225014403522207165094477359618453273163\nrejecting_prime=44479975276230222008104880361903471434878568125341838868041212045466654133909368140308455841478118396388731179914534031814516624218239861863699550742525644811208112776153443955952424489527873085307322946793147491225014403522207165094477359618453273163\nwitness=none\n',
        '{"seed": 7, "verdict": "reject", "mode": "randomized", "prime": 44479975276230222008104880361903471434878568125341838868041212045466654133909368140308455841478118396388731179914534031814516624218239861863699550742525644811208112776153443955952424489527873085307322946793147491225014403522207165094477359618453273163, "rejecting_prime": 44479975276230222008104880361903471434878568125341838868041212045466654133909368140308455841478118396388731179914534031814516624218239861863699550742525644811208112776153443955952424489527873085307322946793147491225014403522207165094477359618453273163, "witness": "none"}\n',
        ''),
    'modhomind-tw3': (
        0, 'verdict=accept\nmode=single-prime\nprime=2147483647\nwitness=none\n',
        '{"verdict": "accept", "mode": "single-prime", "prime": 2147483647, "witness": "none"}\n',
        ''),
    'modhomind-paths': (
        1, 'verdict=reject\nmode=single-prime\nprime=7\nrejecting_prime=7\nwitness=none\n',
        '{"verdict": "reject", "mode": "single-prime", "prime": 7, "rejecting_prime": 7, "witness": "none"}\n',
        ''),
    'pwhomind-crt-accept': (
        0, 'verdict=accept\nmode=deterministic-crt\nprime=2\nprime=3\nprime=5\nprime=7\nprime=11\nprime=13\nprime=17\nprime=19\nprime=23\nprime=29\nprime=31\nprime=37\nprime=41\nprime=43\nprime=47\nprime=53\nprime=59\nprime=61\nprime=67\nprime=71\nprime=73\nprime=79\nprime=83\nprime=89\nprime=97\nprime=101\nprime=103\nprime=107\nprime=109\nprime=113\nprime=127\nprime=131\nprime=137\nprime=139\nprime=149\nprime=151\nprime=157\nprime=163\nprime=167\nprime=173\nprime=179\nprime=181\nprime=191\nprime=193\nprime=197\nprime=199\nprime=211\nprime=223\nprime=227\nprime=229\nprime=233\nprime=239\nprime=241\nprime=251\nprime=257\nprime=263\nprime=269\nprime=271\nprime=277\nprime=281\nprime=283\nprime=293\nprime=307\nprime=311\nprime=313\nprime=317\nprime=331\nprime=337\nprime=347\nprime=349\nprime=353\nprime=359\nprime=367\nprime=373\nprime=379\nprime=383\nprime=389\nprime=397\nprime=401\nprime=409\nprime=419\nprime=421\nprime=431\nprime=433\nprime=439\nprime=443\nprime=449\nprime=457\nprime=461\nprime=463\nprime=467\nprime=479\nprime=487\nprime=491\nprime=499\nprime=503\nprime=509\nprime=521\nprime=523\nprime=541\nprime=547\nprime=557\nprime=563\nprime=569\nprime=571\nprime=577\nprime=587\nprime=593\nprime=599\nprime=601\nprime=607\nprime=613\nprime=617\nprime=619\nprime=631\nprime=641\nprime=643\nprime=647\nprime=653\nprime=659\nprime=661\nprime=673\nprime=677\nprime=683\nprime=691\nprime=701\nprime=709\nprime=719\nprime=727\nprime=733\nprime=739\nprime=743\nprime=751\nprime=757\nprime=761\nprime=769\nprime=773\nprime=787\nprime=797\nprime=809\nprime=811\nprime=821\nprime=823\nprime=827\nprime=829\nprime=839\nprime=853\nprime=857\nprime=859\nprime=863\nprime=877\nprime=881\nprime=883\nprime=887\nprime=907\nprime=911\nprime=919\nprime=929\nprime=937\nprime=941\nprime=947\nprime=953\nprime=967\nprime=971\nprime=977\nprime=983\nprime=991\nprime=997\nprime=1009\nprime=1013\nprime=1019\nprime=1021\nprime=1031\nprime=1033\nprime=1039\nprime=1049\nprime=1051\nprime=1061\nprime=1063\nprime=1069\nprime=1087\nprime=1091\nprime=1093\nprime=1097\nprime=1103\nprime=1109\nprime=1117\nprime=1123\nprime=1129\nprime=1151\nprime=1153\nprime=1163\nprime=1171\nprime=1181\nprime=1187\nprime=1193\nprime=1201\nprime=1213\nprime=1217\nprime=1223\nprime=1229\nprime=1231\nprime=1237\nprime=1249\nprime=1259\nprime=1277\nprime=1279\nprime=1283\nprime=1289\nprime=1291\nprime=1297\nprime=1301\nprime=1303\nprime=1307\nprime=1319\nprime=1321\nprime=1327\nprime=1361\nprime=1367\nprime=1373\nprime=1381\nprime=1399\nprime=1409\nprime=1423\nprime=1427\nprime=1429\nprime=1433\nprime=1439\nprime=1447\nprime=1451\nprime=1453\nprime=1459\nprime=1471\nprime=1481\nprime=1483\nprime=1487\nprime=1489\nprime=1493\nprime=1499\nprime=1511\nprime=1523\nprime=1531\nprime=1543\nprime=1549\nprime=1553\nprime=1559\nprime=1567\nprime=1571\nprime=1579\nprime=1583\nprime=1597\nprime=1601\nprime=1607\nprime=1609\nprime=1613\nprime=1619\nprime=1621\nprime=1627\nprime=1637\nprime=1657\nprime=1663\nprime=1667\nprime=1669\nprime=1693\nprime=1697\nprime=1699\nprime=1709\nprime=1721\nprime=1723\nwitness=none\n',
        '{"verdict": "accept", "mode": "deterministic-crt", "prime": [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67, 71, 73, 79, 83, 89, 97, 101, 103, 107, 109, 113, 127, 131, 137, 139, 149, 151, 157, 163, 167, 173, 179, 181, 191, 193, 197, 199, 211, 223, 227, 229, 233, 239, 241, 251, 257, 263, 269, 271, 277, 281, 283, 293, 307, 311, 313, 317, 331, 337, 347, 349, 353, 359, 367, 373, 379, 383, 389, 397, 401, 409, 419, 421, 431, 433, 439, 443, 449, 457, 461, 463, 467, 479, 487, 491, 499, 503, 509, 521, 523, 541, 547, 557, 563, 569, 571, 577, 587, 593, 599, 601, 607, 613, 617, 619, 631, 641, 643, 647, 653, 659, 661, 673, 677, 683, 691, 701, 709, 719, 727, 733, 739, 743, 751, 757, 761, 769, 773, 787, 797, 809, 811, 821, 823, 827, 829, 839, 853, 857, 859, 863, 877, 881, 883, 887, 907, 911, 919, 929, 937, 941, 947, 953, 967, 971, 977, 983, 991, 997, 1009, 1013, 1019, 1021, 1031, 1033, 1039, 1049, 1051, 1061, 1063, 1069, 1087, 1091, 1093, 1097, 1103, 1109, 1117, 1123, 1129, 1151, 1153, 1163, 1171, 1181, 1187, 1193, 1201, 1213, 1217, 1223, 1229, 1231, 1237, 1249, 1259, 1277, 1279, 1283, 1289, 1291, 1297, 1301, 1303, 1307, 1319, 1321, 1327, 1361, 1367, 1373, 1381, 1399, 1409, 1423, 1427, 1429, 1433, 1439, 1447, 1451, 1453, 1459, 1471, 1481, 1483, 1487, 1489, 1493, 1499, 1511, 1523, 1531, 1543, 1549, 1553, 1559, 1567, 1571, 1579, 1583, 1597, 1601, 1607, 1609, 1613, 1619, 1621, 1627, 1637, 1657, 1663, 1667, 1669, 1693, 1697, 1699, 1709, 1721, 1723], "witness": "none"}\n',
        ''),
    'pwhomind-crt-reject': (
        1, 'verdict=reject\nmode=deterministic-crt\nprime=2\nprime=3\nrejecting_prime=3\nwitness=none\n',
        '{"verdict": "reject", "mode": "deterministic-crt", "prime": [2, 3], "rejecting_prime": 3, "witness": "none"}\n',
        ''),
    # G7/H7 is uncertified: the accept decides five primes above L
    'pwhomind-random': (
        0, 'seed=7\nverdict=accept\nmode=randomized\nprime=7826339\nprime=2158801\nprime=4284893\nprime=10119209\nprime=639637\nwitness=none\n',
        '{"seed": 7, "verdict": "accept", "mode": "randomized", "prime": [7826339, 2158801, 4284893, 10119209, 639637], "witness": "none"}\n',
        ''),
    # a certified accept and a small-stage reject are exact: no prime
    'pwhomind-random-exact': (
        0, 'seed=7\nverdict=accept\nmode=exact\nwitness=none\n',
        '{"seed": 7, "verdict": "accept", "mode": "exact", "witness": "none"}\n',
        ''),
    'pwhomind-random-witness': (
        1, 'seed=7\nverdict=reject\nmode=exact\nwitness=n 2 m 1 0 1\n',
        '{"seed": 7, "verdict": "reject", "mode": "exact", "witness": "n 2 m 1 0 1"}\n',
        ''),
    # a closure reject: the witness is none, the small stage passed
    'pwhomind-random-reject': (
        1, 'seed=7\nverdict=reject\nmode=randomized\nprime=683831\nrejecting_prime=683831\nwitness=none\n',
        '{"seed": 7, "verdict": "reject", "mode": "randomized", "prime": 683831, "rejecting_prime": 683831, "witness": "none"}\n',
        ''),
    # 44 primes below 2^12, each running the closure on G7/H7
    'pwhomind-random-bits': (
        0, 'seed=7\nverdict=accept\nmode=randomized\nprime=3767\nprime=4057\nprime=3547\nprime=3851\nprime=2399\nprime=3583\nprime=2311\nprime=2131\nprime=3257\nprime=3929\nprime=3457\nprime=2411\nprime=3571\nprime=3631\nprime=3449\nprime=3769\nprime=3307\nprime=3733\nprime=3691\nprime=3931\nprime=2851\nprime=2311\nprime=2593\nprime=3413\nprime=2141\nprime=2243\nprime=2351\nprime=4003\nprime=2087\nprime=2837\nprime=3919\nprime=2917\nprime=2887\nprime=3413\nprime=2539\nprime=2053\nprime=2339\nprime=3989\nprime=2939\nprime=3769\nprime=3203\nprime=3907\nprime=3331\nprime=2179\nwitness=none\nnote=heuristic: prime-bits mode, error bound not certified\n',
        '{"seed": 7, "verdict": "accept", "mode": "randomized", "prime": [3767, 4057, 3547, 3851, 2399, 3583, 2311, 2131, 3257, 3929, 3457, 2411, 3571, 3631, 3449, 3769, 3307, 3733, 3691, 3931, 2851, 2311, 2593, 3413, 2141, 2243, 2351, 4003, 2087, 2837, 3919, 2917, 2887, 3413, 2539, 2053, 2339, 3989, 2939, 3769, 3203, 3907, 3331, 2179], "witness": "none", "note": "heuristic: prime-bits mode, error bound not certified"}\n',
        ''),
    'pwhomind-random-parallel': (
        0, 'seed=7\nverdict=accept\nmode=randomized\nprime=7826339\nprime=2158801\nprime=4284893\nprime=10119209\nprime=639637\nwitness=none\n',
        '{"seed": 7, "verdict": "accept", "mode": "randomized", "prime": [7826339, 2158801, 4284893, 10119209, 639637], "witness": "none"}\n',
        ''),
    'pwhomind-single-prime': (
        1, 'verdict=reject\nmode=single-prime\nprime=101\nrejecting_prime=101\nwitness=none\n',
        '{"verdict": "reject", "mode": "single-prime", "prime": 101, "rejecting_prime": 101, "witness": "none"}\n',
        ''),
    # an uncertified pair needs the bound, which overflows the cap
    'pwhomind-bit-cap': (
        2, 'seed=7\n',
        '',
        'error: bound needs 9 bits, cap is 4; rerun with prime_bits for a heuristic decision\n'),
    'lasserre-single-prime': (
        1, 'verdict=reject\nmode=single-prime\nprime=101\nrejecting_prime=101\nwitness=none\n',
        '{"verdict": "reject", "mode": "single-prime", "prime": 101, "rejecting_prime": 101, "witness": "none"}\n',
        ''),
    # --prime-bits is refused outside random mode, as homind does
    'lasserre-single-prime-bits': (
        2, '',
        '',
        'error: --prime-bits requires --mode random\n'),
    'lasserre-random': (
        0, 'seed=7\nverdict=accept\nmode=exact\nwitness=none\n',
        '{"seed": 7, "verdict": "accept", "mode": "exact", "witness": "none"}\n',
        ''),
    'lasserre-deterministic': (
        1, 'verdict=reject\nmode=exact\nwitness=none\n',
        '{"verdict": "reject", "mode": "exact", "witness": "none"}\n',
        ''),
    'lasserre-random-bits': (
        0, 'seed=7\nverdict=accept\nmode=exact\nwitness=none\n',
        '{"seed": 7, "verdict": "accept", "mode": "exact", "witness": "none"}\n',
        ''),
    # this case and the next two: a random-mode accept carries the
    # small-stage caveat, as single-prime and CRT accepts do
    'none-homind-random': (
        0, 'seed=3\nverdict=accept\nmode=exact\nwitness=none\nnote=small stage skipped (policy none): verdict covers only class members on more than k vertices\n',
        '{"seed": 3, "verdict": "accept", "mode": "exact", "witness": "none", "note": "small stage skipped (policy none): verdict covers only class members on more than k vertices"}\n',
        ''),
    'none-homind-random-bits': (
        0, 'seed=3\nverdict=accept\nmode=exact\nwitness=none\nnote=small stage skipped (policy none): verdict covers only class members on more than k vertices\n',
        '{"seed": 3, "verdict": "accept", "mode": "exact", "witness": "none", "note": "small stage skipped (policy none): verdict covers only class members on more than k vertices"}\n',
        ''),
    'none-pwhomind-random-exact': (
        0, 'seed=3\nverdict=accept\nmode=exact\nwitness=none\nnote=small stage skipped (policy none): verdict covers only class members on more than k vertices\n',
        '{"seed": 3, "verdict": "accept", "mode": "exact", "witness": "none", "note": "small stage skipped (policy none): verdict covers only class members on more than k vertices"}\n',
        ''),
    # G7/H7 under the one-state pathwidth class: uncertified, and a
    # closure reject, sound whatever the small members are: no caveat
    'none-pwhomind-random': (
        1, 'seed=3\nverdict=reject\nmode=randomized\nprime=78979\nrejecting_prime=78979\nwitness=none\n',
        '{"seed": 3, "verdict": "reject", "mode": "randomized", "prime": 78979, "rejecting_prime": 78979, "witness": "none"}\n',
        ''),
    'none-homind-single-prime': (
        0, 'verdict=accept\nmode=single-prime\nprime=101\nwitness=none\nnote=small stage skipped (policy none): verdict covers only class members on more than k vertices\n',
        '{"verdict": "accept", "mode": "single-prime", "prime": 101, "witness": "none", "note": "small stage skipped (policy none): verdict covers only class members on more than k vertices"}\n',
        ''),
    'none-pwhomind-crt-accept': (
        0, 'verdict=accept\nmode=deterministic-crt\nprime=2\nprime=3\nprime=5\nprime=7\nprime=11\nprime=13\nprime=17\nprime=19\nprime=23\nprime=29\nprime=31\nprime=37\nprime=41\nprime=43\nprime=47\nprime=53\nprime=59\nprime=61\nprime=67\nprime=71\nprime=73\nprime=79\nprime=83\nprime=89\nprime=97\nprime=101\nprime=103\nprime=107\nprime=109\nprime=113\nprime=127\nprime=131\nprime=137\nprime=139\nprime=149\nwitness=none\nnote=small stage skipped (policy none): verdict covers only class members on more than k vertices\n',
        '{"verdict": "accept", "mode": "deterministic-crt", "prime": [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67, 71, 73, 79, 83, 89, 97, 101, 103, 107, 109, 113, 127, 131, 137, 139, 149], "witness": "none", "note": "small stage skipped (policy none): verdict covers only class members on more than k vertices"}\n',
        ''),
    # a reject is sound whatever the small members are: no caveat
    'none-pwhomind-crt-reject': (
        1, 'verdict=reject\nmode=deterministic-crt\nprime=2\nprime=3\nrejecting_prime=3\nwitness=none\n',
        '{"verdict": "reject", "mode": "deterministic-crt", "prime": [2, 3], "rejecting_prime": 3, "witness": "none"}\n',
        ''),
}


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    """Graph and automaton files of the cases, by their name in CASES."""
    root = tmp_path_factory.mktemp("golden")
    paths = {}
    for name, g in GRAPHS.items():
        paths[name] = root / f"{name}.graph"
        paths[name].write_text(serialize_graph(g))
    paths["none.aut"] = root / "none.aut"
    paths["none.aut"].write_text(ONE_STATE_NONE)
    return {name: str(path) for name, path in paths.items()}


def run_case(name, inputs, as_json, capsys):
    argv = [inputs.get(arg, arg) for arg in CASES[name]]
    rc = main(argv + ["--json"] if as_json else argv)
    out, err = capsys.readouterr()
    return rc, out, err


def test_every_case_has_an_expectation():
    assert sorted(CASES) == sorted(EXPECTED)


@pytest.mark.parametrize("as_json", [False, True], ids=["lines", "json"])
@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_output(name, as_json, inputs, capsys):
    rc, lines, as_json_text, err = EXPECTED[name]
    assert run_case(name, inputs, as_json, capsys) == (
        rc, as_json_text if as_json else lines, err)
