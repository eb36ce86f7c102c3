"""Request streams for the ``repro serve`` end-to-end benchmark.

Every workload is built from tenant-renamed copies of the repository's
own knowledge bases: the steepening staircase, the inflating elevator,
transitive closure over a chain, ``layered(5, 2)`` and the managers KB.
A tenant renames every fact term (constants get a lowercase prefix,
nulls an uppercase one), so answers do not change but KB fingerprints
do.  The prefixes keep the relative order of term names, so the chase
breaks ties between triggers exactly as on the original KB.

The rule texts are copied here instead of imported, so the bytes the
server receives do not change when the library's KB modules do.

A *shape* is everything about a request except its tenant; it keys the
expected answer in ``expected.json``.  :func:`build` turns a shape and a
tenant into a request body.

A workload's stream is a sequence of *rounds*.  Every round holds the
same multiset of shapes; the seed only shuffles their order, and the
benchmark measures whole rounds.  So every seed and every repetition
times the same mix of requests, and the seed-to-seed spread of the
metrics is down to what the machine adds.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from typing import Callable, Iterator, Optional

STAIRCASE_RULES = """\
[Rh1] h(X, X) -> c(Yp), h(X, Y), h(Xp, Yp), v(X, Xp), v(Y, Yp)
[Rh2] h(X, X), h(Xp, Xp), h(Xp, Yp), v(X, Xp) -> c(Yp), h(X, Y), v(Y, Yp)
[Rh3] f(X), h(X, X), h(X, Y) -> f(Y), h(Y, Y)
[Rh4] c(Xp), h(X, X), v(X, Xp) -> h(Xp, Xp)
"""

ELEVATOR_RULES = """\
[Rv1] c(X), h(X, Y) -> c(Ypp), v(Y, Yp), v(Yp, Ypp)
[Rv2] d(X), f(X), v(X, Xp) -> f(Yp), h(Xp, Yp)
[Rv3] h(X, Y), v(X, Xp) -> h(Xp, Yp), v(Y, Yp)
[Rv4] c(X) -> d(X)
[Rv5] d(Xp), v(X, Xp) -> d(X)
[Rv6] d(Y), f(Y), h(X, Y) -> f(X), v(X, X)
[Rv7] c(X), f(Yp), h(X, Y), v(Y, Yp) -> h(X, Yp)
"""

CHAIN_RULES = "[Trans] e(X, Y), e(Y, Z) -> e(X, Z)\n"

LAYERED_RULES = "".join(
    f"[L{i}f{k}] l{i}(X) -> l{i + 1}(Y), r{k}(X, Y)\n"
    for i in range(5)
    for k in range(2)
)

MANAGERS_RULES = "[Mgr] emp(X) -> emp(Y), mgr(X, Y)\n"


def kb_text(facts: list, rules: str) -> str:
    """A KB in the sectioned text format ``repro serve`` parses."""
    return "[facts]\n" + "\n".join(facts) + "\n\n[rules]\n" + rules


def null(tenant: str, name: str) -> str:
    return f"T{tenant}_{name}"


def const(tenant: str, name: str) -> str:
    return f"{tenant}_{name}"


def staircase_facts(tenant: str) -> list:
    x = null(tenant, "Xh_0_0")
    return [f"f({x})", f"h({x}, {x})"]


def elevator_facts(tenant: str) -> list:
    x0, x1 = null(tenant, "Xv_0_0"), null(tenant, "Xv_1_0")
    return [f"c({x0})", f"d({x0})", f"f({x1})", f"h({x0}, {x1})"]


def chain_facts(tenant: str, length: int) -> list:
    return [
        f"e({const(tenant, f'v{i}')}, {const(tenant, f'v{i + 1}')})"
        for i in range(length)
    ]


def chain_query(tenant: str, source: int, target: int) -> str:
    return f"e({const(tenant, f'v{source}')}, {const(tenant, f'v{target}')})"


# Query pools: name -> (text, answer by construction or None).  ``{a}``
# and ``{ann}`` are the tenant's renamed constants.  None answers come
# from the naive reference run (``run.py --regen-expected``).
LAYERED_QUERIES = {
    # l0(a) starts five waves of l_i -> l_{i+1} existential steps.
    "deep": ("l5(X)", True),
    "path": ("r0(X, Y), r1(Y, Z), l2(Z)", True),
    "absent": ("l6(X)", False),  # no rule derives l6
    "into": ("r0(X, {a})", False),  # r-edges only reach fresh nulls
}
MANAGERS_QUERIES = {
    "pair": ("mgr(X, Y), mgr(Y, Z)", True),
    "direct": ("mgr({ann}, X), emp(X)", True),
    "selfloop": ("emp(X), mgr(X, X)", False),  # the chase is a simple path
    "above": ("mgr(X, {ann})", False),  # managers are always fresh nulls
}
STAIRCASE_QUERIES = {
    "vpath": ("v(X, Y), v(Y, Z)", None),
    "cloop": ("c(X), h(X, X)", None),
    "fhv": ("f(X), h(X, Y), v(Y, Z)", None),
}
# Not entailed, and refuted by a countermodel of at most four elements.
STAIRCASE_REFUTATIONS = {
    "vloop": "v(X, X)",
    "cf": "c(X), f(X)",
    "vcycle": "v(X, Y), v(Y, X)",
}
ELEVATOR_REFUTATIONS = {
    "hloop": "h(X, X)",
    "vhback": "v(X, Y), h(Y, X)",
}

ROUTED_CHAIN_LENGTHS = range(4, 9)
# kind -> (source, target) as a function of the chain length
ROUTED_CHAIN_QUERIES = {
    "fwd": lambda n: (0, n),
    "back": lambda n: (n, 0),
    "inner": lambda n: (1, n - 1),
    "self": lambda n: (2, 2),
}
# Copies of every pool query per routed-fleet round, next to one copy of
# every chain shape.  Most requests are the tiny layered and managers
# jobs, so the median sits inside that cluster, not on its edge.
ROUTED_COPIES = {"layered": 6, "managers": 6, "staircase": 4}
# Coarse steps keep a round short: it must fit a repetition a few times.
DEEP_STAIRCASE_BUDGETS = range(25, 41, 3)
DEEP_ELEVATOR_BUDGETS = range(20, 31, 2)
DEEP_REFUTE_BUDGETS = (40, 50, 60, 70)
DEEP_MODEL_BUDGETS = (4, 5, 6)
# Sessions of 9-12 requests: long enough to pass the snapshot store's
# re-checkpoint depth of 8, short enough that the chase on the grown
# chain does not drown the snapshot writes.
GROW_START, GROW_END = 2, 16
GROW_BUDGET = 1000


# ---------------------------------------------------------------------------
# shapes -> request bodies
# ---------------------------------------------------------------------------


def _fill(text: str, tenant: str) -> str:
    return text.format(a=const(tenant, "a"), ann=const(tenant, "ann"))


def build(shape: str, tenant: str) -> dict:
    """The request body (no ``id``) for *shape* under *tenant*."""
    workload, family, *rest = shape.split("/")
    if workload == "routed-fleet":
        # No "planner" key: the server's default routing applies.
        if family == "chain":
            length = int(rest[0])
            source, target = ROUTED_CHAIN_QUERIES[rest[1]](length)
            return {
                "op": "entail",
                "kb_text": kb_text(chain_facts(tenant, length), CHAIN_RULES),
                "query": chain_query(tenant, source, target),
            }
        pool = {
            "layered": LAYERED_QUERIES,
            "managers": MANAGERS_QUERIES,
            "staircase": STAIRCASE_QUERIES,
        }[family]
        return {
            "op": "entail",
            "kb_text": kb_text(*_small_kb(family, tenant)),
            "query": _fill(pool[rest[0]][0], tenant),
        }
    if workload == "deep-cold":
        if family == "chase":
            facts, rules = _paper_kb(rest[0], tenant)
            return {
                "op": "chase",
                "kb_text": kb_text(facts, rules),
                "variant": "core",
                "core_every": 1,
                "max_steps": int(rest[1]),
                "planner": False,
            }
        kb_name, query_name, budget, model_budget = rest
        facts, rules = _paper_kb(kb_name, tenant)
        pool = STAIRCASE_REFUTATIONS if kb_name == "staircase" else ELEVATOR_REFUTATIONS
        return {
            "op": "entail",
            "kb_text": kb_text(facts, rules),
            "query": pool[query_name],
            "variant": "restricted",
            "max_steps": int(budget),
            "model_budget": int(model_budget),
            "planner": False,
        }
    if workload == "grow-by-k":
        length = int(family)
        source, target = (0, length) if rest[0] == "fwd" else (length, 0)
        return {
            "op": "entail",
            "kb_text": kb_text(chain_facts(tenant, length), CHAIN_RULES),
            "query": chain_query(tenant, source, target),
            "variant": "restricted",
            "max_steps": GROW_BUDGET,
            "planner": False,
        }
    if workload == "warm-herd":
        return HOT_PAIRS[family](tenant)
    raise ValueError(f"unknown shape {shape!r}")


def _paper_kb(name: str, tenant: str) -> tuple:
    if name == "staircase":
        return staircase_facts(tenant), STAIRCASE_RULES
    return elevator_facts(tenant), ELEVATOR_RULES


def _small_kb(name: str, tenant: str) -> tuple:
    """(facts, rules) of one of the repository's KBs under *tenant*."""
    if name == "layered":
        return [f"l0({const(tenant, 'a')})"], LAYERED_RULES
    if name == "managers":
        return [f"emp({const(tenant, 'ann')})"], MANAGERS_RULES
    return _paper_kb(name, tenant)


def _hot_chase(kb: str, variant: str, budget: int) -> Callable[[str], dict]:
    def body(tenant: str) -> dict:
        return {
            "op": "chase",
            "kb_text": kb_text(*_small_kb(kb, tenant)),
            "variant": variant,
            "max_steps": budget,
            "planner": False,
        }

    return body


def _hot_entail(kb: str, query: str, budget: int) -> Callable[[str], dict]:
    def body(tenant: str) -> dict:
        return {
            "op": "entail",
            "kb_text": kb_text(*_small_kb(kb, tenant)),
            "query": query,
            "variant": "restricted",
            "max_steps": budget,
            "planner": False,
        }

    return body


def _hot_chain(length: int, source: int, target: int) -> Callable[[str], dict]:
    def body(tenant: str) -> dict:
        return {
            "op": "entail",
            "kb_text": kb_text(chain_facts(tenant, length), CHAIN_RULES),
            "query": chain_query(tenant, source, target),
            "variant": "restricted",
            "max_steps": GROW_BUDGET,
            "planner": False,
        }

    return body


# The warm-herd hot set.  chain10 -> chain14 -> chain16 share one tenant
# and are primed in that order during warm-up, so the later two are
# filed as delta records on the earlier ones' snapshot chains and every
# warm hit on them replays a chain.
HOT_PAIRS = {
    "stair-chase30": _hot_chase("staircase", "core", 30),
    "stair-chase36": _hot_chase("staircase", "core", 36),
    "elev-chase24": _hot_chase("elevator", "core", 24),
    "elev-chase28": _hot_chase("elevator", "core", 28),
    "layered-chase": _hot_chase("layered", "restricted", 200),
    "mgr-chase40": _hot_chase("managers", "restricted", 40),
    "stair-vpath": _hot_entail("staircase", "v(X, Y), v(Y, Z)", 60),
    "elev-cfh": _hot_entail("elevator", "c(X), f(X), h(X, Y)", 60),
    "mgr-pair": _hot_entail("managers", "mgr(X, Y), mgr(Y, Z)", 50),
    "chain10": _hot_chain(10, 0, 10),
    "chain14": _hot_chain(14, 14, 0),
    "chain16": _hot_chain(16, 3, 16),
}
HOT_CHAIN_ORDER = ("chain10", "chain14", "chain16")
HOT_CHAIN_ANSWERS = {"chain10": True, "chain14": False, "chain16": True}


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Request:
    """One request of a stream: its expected-answer key and its body."""

    shape: str
    body: dict


def _routed_round() -> list:
    shapes = [
        f"routed-fleet/chain/{n}/{kind}"
        for n in ROUTED_CHAIN_LENGTHS
        for kind in ROUTED_CHAIN_QUERIES
    ]
    for family, pool in (
        ("layered", LAYERED_QUERIES),
        ("managers", MANAGERS_QUERIES),
        ("staircase", STAIRCASE_QUERIES),
    ):
        shapes += [f"routed-fleet/{family}/{name}" for name in pool] * ROUTED_COPIES[family]
    return shapes


def _deep_refutations() -> list:
    return [("staircase", q) for q in STAIRCASE_REFUTATIONS] + [
        ("elevator", q) for q in ELEVATOR_REFUTATIONS
    ]


def _deep_round() -> list:
    """Every chase budget once, and two refutations per query.  The
    query's index staggers its two budgets and model budgets, so the
    round covers every value of both about evenly."""
    shapes = [f"deep-cold/chase/staircase/{b}" for b in DEEP_STAIRCASE_BUDGETS]
    shapes += [f"deep-cold/chase/elevator/{b}" for b in DEEP_ELEVATOR_BUDGETS]
    for i, (kb, query) in enumerate(_deep_refutations()):
        for j in (i, i + 2):
            budget = DEEP_REFUTE_BUDGETS[j % len(DEEP_REFUTE_BUDGETS)]
            model_budget = DEEP_MODEL_BUDGETS[j % len(DEEP_MODEL_BUDGETS)]
            shapes.append(f"deep-cold/refute/{kb}/{query}/{budget}/{model_budget}")
    return shapes


def _grow_template(steps: tuple, back_every: int, back_offset: int) -> list:
    """One session: the chain starts at GROW_START edges and grows by
    the cycled *steps* up to GROW_END; every *back_every*-th request
    (from *back_offset*) asks the reverse, unentailed query."""
    shapes = []
    length = GROW_START
    for index, step in zip(itertools.count(), itertools.cycle(steps)):
        if length > GROW_END:
            return shapes
        kind = "back" if index % back_every == back_offset else "fwd"
        shapes.append(f"grow-by-k/{length}/{kind}")
        length += step


# Four session shapes with 1-2 edge steps and one reverse query in four.
GROW_TEMPLATES = (
    _grow_template((1, 2), 4, 3),
    _grow_template((2, 1), 4, 1),
    _grow_template((1, 1, 2), 4, 2),
    _grow_template((2, 2, 1), 4, 0),
)


def _unique(shapes: list) -> list:
    return list(dict.fromkeys(shapes))


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    shapes: Callable[[], list]
    #: seed -> infinite iterator of rounds (lists of Requests)
    rounds: Callable[[int], Iterator[list]]
    #: requests answered in order before timing starts
    warmup: Callable[[], list]


def _rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"{workload}|{seed}")


def _shuffled_rounds(workload: str, seed: int, shapes: list, prefix: str) -> Iterator[list]:
    """*shapes* in a fresh seeded order every round, each request under
    a tenant of its own."""
    rng = _rng(workload, seed)
    tenants = itertools.count()
    while True:
        order = list(shapes)
        rng.shuffle(order)
        yield [Request(s, build(s, f"{prefix}n{next(tenants)}")) for s in order]


def routed_rounds(seed: int) -> Iterator[list]:
    return _shuffled_rounds("routed-fleet", seed, _routed_round(), "rf")


def routed_warmup() -> list:
    shapes = [
        "routed-fleet/chain/4/fwd",
        "routed-fleet/layered/deep",
        "routed-fleet/managers/pair",
        "routed-fleet/staircase/vpath",
    ]
    return [Request(s, build(s, f"rfw{i}")) for i, s in enumerate(shapes)]


def deep_rounds(seed: int) -> Iterator[list]:
    return _shuffled_rounds("deep-cold", seed, _deep_round(), "dc")


def deep_warmup() -> list:
    shapes = ("deep-cold/chase/staircase/25", "deep-cold/refute/staircase/vloop/40/4")
    return [Request(s, build(s, f"dcw{i}")) for i, s in enumerate(shapes)]


def grow_rounds(seed: int) -> Iterator[list]:
    """One session per template a round, served turn by turn: each turn
    sends the next request of every unfinished session, in a seeded
    order.  Every session runs under a tenant of its own."""
    rng = _rng("grow-by-k", seed)
    sessions = itertools.count()
    while True:
        live = [(next(sessions), iter(template)) for template in GROW_TEMPLATES]
        requests = []
        while live:
            for entry in rng.sample(live, len(live)):
                session, shapes = entry
                shape = next(shapes, None)
                if shape is None:
                    live.remove(entry)
                else:
                    requests.append(Request(shape, build(shape, f"gks{session}")))
        yield requests


def grow_warmup() -> list:
    # A session's first two steps: a cold save, then an ancestor resume.
    shapes = (f"grow-by-k/{GROW_START}/fwd", f"grow-by-k/{GROW_START + 1}/fwd")
    return [Request(s, build(s, "gkw")) for s in shapes]


def hot_request(name: str) -> Request:
    # The three chain pairs share one tenant: each one's facts extend
    # the previous one's, which is what makes them snapshot ancestors.
    tenant = "whchain" if name in HOT_CHAIN_ORDER else f"wh{name.replace('-', '')}"
    shape = f"warm-herd/{name}"
    return Request(shape, build(shape, tenant))


def herd_rounds(seed: int) -> Iterator[list]:
    rng = _rng("warm-herd", seed)
    names = list(HOT_PAIRS)
    while True:
        rng.shuffle(names)
        yield [hot_request(name) for name in names]


def herd_warmup() -> list:
    # The ancestor chain must be primed in order.
    others = [name for name in HOT_PAIRS if name not in HOT_CHAIN_ORDER]
    return [hot_request(name) for name in (*HOT_CHAIN_ORDER, *others)]


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "routed-fleet",
            "Tiny planner-routed jobs with fresh tenant facts: request "
            "overhead, parsing, the planner, the plan cache and cold "
            "snapshot saves dominate.",
            lambda: _unique(_routed_round()),
            routed_rounds,
            routed_warmup,
        ),
        Workload(
            "deep-cold",
            "Tenant-unique core chases and countermodel refutations, "
            "planner off: the chase engine, trigger index, core "
            "maintenance and model finder do most of the work.",
            lambda: _unique(_deep_round()),
            deep_rounds,
            deep_warmup,
        ),
        Workload(
            "grow-by-k",
            "Chain sessions that gain 1-2 edges per request: ancestor "
            "resolve, delta-chain saves and re-checkpointing, the write "
            "side of the snapshot layer.",
            lambda: sorted({shape for template in GROW_TEMPLATES for shape in template}),
            grow_rounds,
            grow_warmup,
        ),
        Workload(
            "warm-herd",
            "Twelve primed (KB, query/chase) pairs repeated in shuffled "
            "rounds: exact warm hits, chain replay and index rebuild, the "
            "read side of the snapshot layer.",
            lambda: [f"warm-herd/{name}" for name in HOT_PAIRS],
            herd_rounds,
            herd_warmup,
        ),
    )
}


# ---------------------------------------------------------------------------
# expected answers
# ---------------------------------------------------------------------------


def constructed_answer(shape: str) -> Optional[dict]:
    """The answer to *shape* known from how its KB is built, or None when
    only the reference engine can say."""
    workload, family, *rest = shape.split("/")
    if workload == "routed-fleet":
        if family == "chain":
            source, target = ROUTED_CHAIN_QUERIES[rest[1]](int(rest[0]))
            return {"entailed": source < target}
        pool = {"layered": LAYERED_QUERIES, "managers": MANAGERS_QUERIES}.get(family)
        if pool is not None:
            return {"entailed": pool[rest[0]][1]}
        return None
    if workload == "grow-by-k":
        return {"entailed": rest[0] == "fwd"}
    if workload == "warm-herd":
        if family in HOT_CHAIN_ANSWERS:
            return {"entailed": HOT_CHAIN_ANSWERS[family]}
        if family == "mgr-pair":
            return {"entailed": True}
    return None


def all_shapes() -> list:
    return [shape for w in WORKLOADS.values() for shape in w.shapes()]


def reference_request(shape: str) -> dict:
    """The body the naive reference run answers for *shape*: the
    served request with the server's planner default made explicit."""
    body = dict(build(shape, "ref"))
    body.setdefault("planner", True)
    return body
