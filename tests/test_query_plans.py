"""Tests for compiled query plans (repro.query.plans), the plan cache,
and the ``batch_entail`` service path."""

import asyncio
from contextlib import contextmanager

import pytest

from repro.kbs.generators import layered_kb
from repro.kbs.witnesses import manager_kb, transitive_closure_kb
from repro.logic.serialization import dump_kb
from repro.obs.metrics import MetricsRegistry
from repro.obs.observer import observing
from repro.obs.tracer import MetricsObserver
from repro.query import (
    QueryPlanCache,
    boolean_cq,
    default_plan_cache,
    query_shape,
)
from repro.service.jobs import JobRequest, execute_job
from repro.service.snapshots import SnapshotStore

MANAGERS = dump_kb(manager_kb())
TC = dump_kb(transitive_closure_kb(3))
CHAIN = dump_kb(transitive_closure_kb(5))
#: CHAIN with one appended edge: its chase resumes from CHAIN's snapshot.
CHAIN_GROWN = CHAIN.replace("[facts]", "[facts]\ne(v5, v6)", 1)

#: One entry per way the job path settles a query: (id, the method the
#: entail job must report, its request fields, the fields of a chase
#: that primes the job's store first or None).
ROUTES = [
    ("prefix-hit", "chase-prefix-hit", {"kb_text": TC, "query": "e(v0, v2)"}, None),
    ("fixpoint-miss", "chase-fixpoint-miss", {"kb_text": TC, "query": "e(v2, v0)"}, None),
    (
        "budget-exhausted",
        "chase-budget-exhausted",
        {"kb_text": MANAGERS, "query": "mgr(ann, ann)", "max_steps": 5},
        None,
    ),
    (
        "finite-countermodel",
        "finite-countermodel",
        {"kb_text": MANAGERS, "query": "mgr(ann, ann)", "max_steps": 5, "model_budget": 4},
        None,
    ),
    (
        "race-undecided",
        "race-undecided",
        {
            "kb_text": MANAGERS,
            "query": "mgr(X, Y), mgr(Y, Z), mgr(Z, W)",
            "max_steps": 1,
            "model_budget": 2,
        },
        None,
    ),
    (
        "deadline-expired",
        "deadline-expired",
        {
            "kb_text": dump_kb(transitive_closure_kb(6)),
            "query": "e(v6, v0)",
            "timeout": 0.0,
            "max_steps": 500,
        },
        None,
    ),
    ("warm-hit", "warm-snapshot-hit", {"kb_text": TC, "query": "e(v0, v3)"}, {"kb_text": TC}),
    (
        "ancestor-hit",
        "ancestor-snapshot-hit",
        {"kb_text": CHAIN_GROWN, "query": "e(v0, v5)"},
        {"kb_text": CHAIN},
    ),
    (
        "rewrite-hit",
        "ucq-rewrite-hit",
        {"kb_text": MANAGERS, "query": "mgr(X, Y)", "rewrite": True},
        None,
    ),
    (
        "rewrite-miss",
        "ucq-rewrite-miss",
        {"kb_text": MANAGERS, "query": "nosuch(X)", "rewrite": True},
        None,
    ),
]


class TestQueryShape:
    def test_alpha_variants_share_a_shape(self):
        a = query_shape(boolean_cq("mgr(X, Y), emp(Y)").atoms)
        b = query_shape(boolean_cq("mgr(U, V), emp(V)").atoms)
        assert a == b

    def test_different_join_patterns_differ(self):
        a = query_shape(boolean_cq("mgr(X, Y), emp(Y)").atoms)
        b = query_shape(boolean_cq("mgr(X, Y), emp(X)").atoms)
        assert a != b

    def test_constants_are_not_variables(self):
        a = query_shape(boolean_cq("mgr(ann, Y)").atoms)
        b = query_shape(boolean_cq("mgr(X, Y)").atoms)
        assert a != b
        assert "c:ann" in a

    def test_shape_ignores_atom_order(self):
        a = query_shape(boolean_cq("emp(Y), mgr(X, Y)").atoms)
        b = query_shape(boolean_cq("mgr(X, Y), emp(Y)").atoms)
        assert a == b


class TestPlanRoundTrip:
    def test_negative_plan_answers_none(self):
        cache = QueryPlanCache()
        plan = cache.plan_for(transitive_closure_kb(2), boolean_cq("e(X, Y)"))
        assert not plan.rewritable
        assert plan.evaluate(transitive_closure_kb(2).facts) is None


@contextmanager
def counting():
    """Count plan lookups and cache hits the way the ``stats`` op does:
    through the metric updates of the lookups' ``query_rewrite``
    events.  Yields the registry's counter accessor."""
    registry = MetricsRegistry()
    with observing(MetricsObserver(registry)):
        yield registry.counter


class TestCacheTiers:
    def test_memory_tier_hits_for_alpha_variants(self):
        cache = QueryPlanCache()
        kb = manager_kb()
        with counting() as counter:
            first = cache.plan_for(kb, boolean_cq("mgr(X, Y)"))
            second = cache.plan_for(kb, boolean_cq("mgr(A, B)"))
        assert second is first  # same object: compiled joins stay warm
        assert counter("query.plan_lookups").value == 2
        assert counter("query.plan_cache_hits").value == 1

    def test_ruleset_change_invalidates(self):
        cache = QueryPlanCache()
        query = boolean_cq("l4(X)")
        with counting() as counter:
            shallow = cache.plan_for(layered_kb(2), query)
            deep = cache.plan_for(layered_kb(4), query)
        # different fingerprints: the deeper ruleset recomputes and the
        # two plans coexist under distinct keys
        assert counter("query.plan_cache_hits").value == 0
        assert len(cache) == 2
        assert len(deep.disjuncts) != len(shallow.disjuncts)

    def test_memory_lru_evicts_oldest(self):
        cache = QueryPlanCache(memory_limit=2)
        kb = manager_kb()
        with counting() as counter:
            cache.plan_for(kb, boolean_cq("mgr(X, Y)"))
            cache.plan_for(kb, boolean_cq("emp(X)"))
            cache.plan_for(kb, boolean_cq("mgr(ann, Y)"))
            assert len(cache) == 2
            cache.plan_for(kb, boolean_cq("mgr(X, Y)"))  # evicted: recompute
        assert counter("query.plan_cache_hits").value == 0

    def test_lookups_emit_observer_events(self):
        registry = MetricsRegistry()
        cache = QueryPlanCache()
        kb = manager_kb()
        with observing(MetricsObserver(registry)):
            cache.plan_for(kb, boolean_cq("mgr(X, Y)"))
            cache.plan_for(kb, boolean_cq("mgr(U, V)"))
        snap = registry.snapshot()
        assert snap["query.plan_lookups"]["value"] == 2
        assert snap["query.rewrites"]["value"] == 1
        assert snap["query.plan_cache_hits"]["value"] == 1


class TestBatchEntailJob:
    def test_mixed_batch_over_rewritable_kb(self):
        result = execute_job(
            JobRequest(
                op="batch_entail",
                kb_text=MANAGERS,
                queries=["mgr(X, Y)", "emp(X), mgr(X, X)", "nosuch(X)"],
                planner=True,
                max_steps=60,
                model_budget=4,
            )
        )
        assert result.ok
        assert result.op == "batch_entail"
        assert result.strategy == "rewrite-first"
        answers = {r["query"]: r["entailed"] for r in result.results}
        assert answers["mgr(X, Y)"] is True
        assert answers["nosuch(X)"] is False
        methods = {r["query"]: r["method"] for r in result.results}
        assert methods["mgr(X, Y)"] == "ucq-rewrite-hit"
        assert methods["nosuch(X)"] == "ucq-rewrite-miss"

    def test_batch_on_terminating_kb_settles_all_from_one_chase(self):
        result = execute_job(
            JobRequest(
                op="batch_entail",
                kb_text=TC,
                queries=["e(v0, v3)", "e(v3, v0)", "e(v0, X), e(X, v3)"],
                max_steps=200,
            )
        )
        assert result.ok and result.terminated
        answers = [r["entailed"] for r in result.results]
        assert answers == [True, False, True]
        miss = result.results[1]
        assert miss["method"] == "chase-fixpoint-miss"
        assert not result.incomplete

    def test_batch_verdicts_match_single_query_jobs(self):
        queries = ["e(v0, v2)", "e(v2, v0)", "e(X, X)"]
        batch = execute_job(
            JobRequest(op="batch_entail", kb_text=TC, queries=queries)
        )
        for row in batch.results:
            single = execute_job(
                JobRequest(op="entail", kb_text=TC, query=row["query"])
            )
            assert row["entailed"] == single.entailed, row["query"]

    @pytest.mark.parametrize(
        "method, fields, prime", [route[1:] for route in ROUTES], ids=[r[0] for r in ROUTES]
    )
    def test_one_query_batch_matches_entail_job(self, tmp_path, method, fields, prime):
        results = {}
        for op in ("entail", "batch_entail"):
            store = SnapshotStore(tmp_path / op)
            if prime is not None:
                assert execute_job(JobRequest(op="chase", **prime), store).ok
            request = dict(fields)
            if op == "batch_entail":
                request["queries"] = [request.pop("query")]
            results[op] = execute_job(JobRequest(op=op, **request), store)
        single, batch = results["entail"], results["batch_entail"]
        assert single.ok and batch.ok, (single.error, batch.error)
        assert single.method == method
        (row,) = batch.results
        assert (row["entailed"], row["method"], row["incomplete"]) == (
            single.entailed,
            single.method,
            single.incomplete,
        )
        for name in (
            "warm",
            "ancestor",
            "applications",
            "total_applications",
            "atoms",
            "terminated",
            "deadline_expired",
        ):
            assert getattr(batch, name) == getattr(single, name), name

    def test_batch_reuses_warm_snapshot(self, tmp_path):
        store = SnapshotStore(tmp_path)
        chase = JobRequest(op="chase", kb_text=TC, max_steps=200)
        assert execute_job(chase, store=store).ok
        result = execute_job(
            JobRequest(
                op="batch_entail",
                kb_text=TC,
                queries=["e(v0, v3)", "e(v3, v0)"],
                max_steps=200,
            ),
            store=store,
        )
        assert result.warm
        assert result.applications == 0
        answers = [r["entailed"] for r in result.results]
        assert answers == [True, False]
        assert result.results[0]["method"] == "warm-snapshot-hit"

    def test_empty_batch_is_error_result(self):
        result = execute_job(
            JobRequest(op="batch_entail", kb_text=MANAGERS, queries=[])
        )
        assert not result.ok
        assert "queries" in result.error

    def test_string_queries_is_error_result(self):
        # A string is not split into one-character queries: the request
        # is refused where it is built.
        with pytest.raises(ValueError, match="'queries'"):
            JobRequest(
                op="batch_entail",
                kb_text=dump_kb(transitive_closure_kb(2)),
                queries="ep",
            )

    def test_list_query_is_error_result(self):
        with pytest.raises(ValueError, match="'query'"):
            JobRequest(op="entail", kb_text=TC, query=["e(v0, v3)"])

    def test_expired_deadline_leaves_open_queries_incomplete(self):
        result = execute_job(
            JobRequest(
                op="batch_entail",
                kb_text=dump_kb(transitive_closure_kb(6)),
                queries=["e(v0, v6)", "e(v6, v0)"],
                timeout=0.0,
                max_steps=500,
            )
        )
        assert result.ok
        assert result.deadline_expired and result.incomplete
        for row in result.results:
            assert row["entailed"] is None
            assert row["method"] == "deadline-expired"
            assert row["incomplete"]

    def test_request_round_trip_with_queries(self):
        req = JobRequest(
            op="batch_entail",
            kb_text=MANAGERS,
            queries=["mgr(X, Y)", "emp(X)"],
            rewrite=True,
        )
        back = JobRequest.from_obj(req.to_obj())
        assert back == req
        assert back.dedup_key() == req.dedup_key()
        other = JobRequest(
            op="batch_entail", kb_text=MANAGERS, queries=["emp(X)"]
        )
        assert other.dedup_key() != req.dedup_key()


class TestRewriteRouting:
    def test_explicit_rewrite_false_forces_chase(self):
        result = execute_job(
            JobRequest(
                op="entail",
                kb_text=MANAGERS,
                query="mgr(X, Y)",
                planner=True,
                rewrite=False,
            )
        )
        assert result.entailed is True
        assert result.method == "chase-prefix-hit"

    def test_planner_routes_rewrite_hit_with_zero_applications(self):
        result = execute_job(
            JobRequest(
                op="entail", kb_text=MANAGERS, query="mgr(X, Y)", planner=True
            )
        )
        assert result.entailed is True
        assert result.method == "ucq-rewrite-hit"
        assert result.strategy == "rewrite-first"
        assert not result.applications

    def test_explicit_rewrite_true_without_planner(self):
        result = execute_job(
            JobRequest(
                op="entail", kb_text=MANAGERS, query="nosuch(X)", rewrite=True
            )
        )
        assert result.entailed is False
        assert result.method == "ucq-rewrite-miss"

    def test_inconclusive_rewrite_falls_back_to_race(self):
        # transitive closure is not rewritable: rewrite=True must not
        # change the verdict, only fail over to the race.
        result = execute_job(
            JobRequest(
                op="entail",
                kb_text=TC,
                query="e(v0, v3)",
                rewrite=True,
                max_steps=200,
            )
        )
        assert result.entailed is True
        assert result.method == "chase-prefix-hit"


class TestServerBatchOp:
    def test_batch_entail_over_the_wire_and_stats(self, tmp_path):
        from tests.test_service_server import (
            request_lines,
            shut_down,
            start_server,
        )

        # In-process jobs share the process's plan cache, which an
        # earlier test may already have filled with these plans.
        default_plan_cache().clear()

        async def scenario():
            server, executor, task = await start_server(tmp_path)
            [batch] = await request_lines(
                server.port,
                [
                    {
                        "op": "batch_entail",
                        "kb_text": MANAGERS,
                        "queries": ["mgr(X, Y)", "nosuch(X)"],
                        "planner": True,
                        "id": "b1",
                    }
                ],
            )
            # stats only after the batch response: the counters are live
            [stats] = await request_lines(
                server.port, [{"op": "stats", "id": "s"}]
            )
            await shut_down(server, executor, task)
            return batch, stats

        batch, stats = asyncio.run(scenario())
        assert batch["id"] == "b1" and batch["ok"]
        answers = [r["entailed"] for r in batch["results"]]
        assert answers == [True, False]
        query_stats = stats["query"]
        assert query_stats["plan_lookups"] >= 2
        assert query_stats["rewrites"] >= 1

    def test_malformed_query_fields_over_the_wire(self, tmp_path):
        # A string is not split into one-character queries on its way
        # to the worker, and a list query is a job error naming the
        # field, not an internal error of the server's dedup.
        from tests.test_service_server import (
            request_lines,
            shut_down,
            start_server,
        )

        async def scenario():
            server, executor, task = await start_server(tmp_path)
            responses = await request_lines(
                server.port,
                [
                    {"op": "batch_entail", "kb_text": TC, "queries": "ep", "id": "s"},
                    {"op": "entail", "kb_text": TC, "query": ["e(v0, v3)"], "id": "l"},
                ],
            )
            await shut_down(server, executor, task)
            return {response["id"]: response for response in responses}

        by_id = asyncio.run(scenario())
        assert not by_id["s"]["ok"] and "queries" in by_id["s"]["error"]
        assert not by_id["l"]["ok"] and "'query'" in by_id["l"]["error"]
