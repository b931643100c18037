"""The benchmark's workloads: which CLI argvs a run feeds to lame2.

The workload seed picks the item order and, for ``covers``, one argv per slot
from a fixed pool whose members have equal cover field degrees and so
comparable costs.  Every argv any seed can pick has a golden output digest in
``golden.json``; the program itself only ever sees the generated argv.
"""

import random

# Torsion-basis seeds for the tame supersingular covers, n = 3..13.  Seed 2
# is left out: for n = 13 its cover needs GF(2^48) instead of GF(2^24).
TAME_ORDERS = [3, 5, 7, 9, 11, 13]
TAME_SEEDS = [0, 1, 3, 4, 5]

# Wild ordinary covers Y^2 + XY = X^3 + tX.  Within a slot the t values are
# Frobenius conjugates over the base field, so every choice certifies a
# conjugate cover over the same splitting field (degree in the comment).
# t = 1b, the fifth conjugate in GF(2^5), is left out: it costs 30% more.
WILD_SLOTS = [
    # GF(2^24)
    [["ramify", "--order", "5", "--ordinary", "1", "--field", "3"]],
    # GF(2^48)
    [["ramify", "--order", "7", "--ordinary", t, "--field", "4"]
     for t in ("2", "4", "3", "5")],
    # GF(2^40)
    [["ramify", "--order", "3", "--ordinary", t, "--field", "5"]
     for t in ("2", "4", "10", "d")],
]

# Items of the benchmark's self-test only.
SELFTEST = [
    ["moduli", "--d", "2"],
    ["ramify", "--order", "3", "--seed", "0"],
    ["classify", "--order", "3"],
]

CLI_COLD = [
    ["classify", "--order", "3"],
    ["classify", "--order", "13"],
    ["counts", "--max-n", "13"],
    ["ramify", "--order", "13"],
    ["moduli", "--d", "4"],
    ["hyper", "--genus", "3", "--field", "12"],
    ["triples", "--degree", "101"],
    ["jcheck", "--samples", "100"],
]


class Workload:
    """A named item generator.

    per_process: run each item in its own fresh interpreter (a pass is then
    one round over all items); otherwise one interpreter runs a whole pass.
    pass_s: nominal seconds of one untraced pass on a 2-vCPU 2.0 GHz Xeon VM;
    a run makes round(--seconds / pass_s) passes (at least MIN_PASSES), so
    the amount of work depends on --seconds only, never on machine speed.
    """

    def __init__(self, name, per_process, pass_s, generate):
        self.name = name
        self.per_process = per_process
        self.pass_s = pass_s
        self._generate = generate

    def items(self, seed):
        return self._generate(random.Random(seed))


def _shuffled(rng, items):
    items = [list(a) for a in items]
    rng.shuffle(items)
    return items


def _covers(rng):
    tame = [["ramify", "--order", str(n), "--seed", str(rng.choice(TAME_SEEDS))]
            for n in TAME_ORDERS]
    wild = [rng.choice(slot) for slot in WILD_SLOTS]
    return _shuffled(rng, tame + wild)


# Why each workload exists is recorded in BENCHMARK.json.
WORKLOADS = {w.name: w for w in [
    Workload("covers", False, 11.0, _covers),
    Workload("cli-cold", True, 9.0, lambda rng: _shuffled(rng, CLI_COLD)),
]}


def pool():
    """Every argv some seed can generate, for the golden digest table."""
    tame = [["ramify", "--order", str(n), "--seed", str(s)]
            for n in TAME_ORDERS for s in TAME_SEEDS]
    wild = [argv for slot in WILD_SLOTS for argv in slot]
    return tame + wild + CLI_COLD + [
        argv for argv in SELFTEST if argv not in CLI_COLD + tame]
