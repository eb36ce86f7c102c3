"""Tests for service jobs (repro.service.jobs) and deadlines."""

import pytest

from repro import elevator_kb, staircase_kb
from repro.kbs.witnesses import transitive_closure_kb
from repro.logic.serialization import dump_kb, load_kb
from repro.obs.observer import Observer, observing
from repro.service.deadline import Deadline
from repro.service.jobs import JobRequest, JobResult, execute_job
from repro.service.snapshots import SnapshotStore

STAIRCASE = dump_kb(staircase_kb())
ELEVATOR = dump_kb(elevator_kb())
#: A vertical chain of length two: needs a handful of staircase steps.
STAIR_QUERY = "v(X, Y), v(Y, Z)"


class TestDeadline:
    def test_unlimited_never_expires(self):
        deadline = Deadline(None)
        assert not deadline.expired()
        assert not deadline()
        assert deadline.unlimited
        assert deadline.remaining() > 1e9

    def test_zero_budget_expired_immediately(self):
        deadline = Deadline(0.0)
        assert deadline.expired()
        assert deadline.remaining() == 0.0

    def test_injectable_clock(self):
        now = [100.0]
        deadline = Deadline(5.0, clock=lambda: now[0])
        assert not deadline.expired()
        assert deadline.remaining() == pytest.approx(5.0)
        now[0] = 104.9
        assert not deadline.expired()
        now[0] = 105.0
        assert deadline.expired()
        assert deadline.remaining() == 0.0


class TestJobWire:
    def test_request_round_trip(self):
        req = JobRequest(
            op="entail",
            kb_text=STAIRCASE,
            query=STAIR_QUERY,
            variant="core",
            max_steps=40,
            timeout=1.5,
            id="r1",
        )
        back = JobRequest.from_obj(req.to_obj())
        assert back == req

    def test_request_from_partial_obj_uses_defaults(self):
        req = JobRequest.from_obj({"op": "chase", "kb_text": STAIRCASE})
        assert req.variant == "restricted"
        assert req.max_steps == 200
        assert req.timeout is None

    def test_request_missing_fields_rejected(self):
        with pytest.raises(ValueError):
            JobRequest.from_obj({"op": "entail"})

    def test_dedup_key_ignores_id(self):
        a = JobRequest(op="entail", kb_text=STAIRCASE, query="f(X)", id="a")
        b = JobRequest(op="entail", kb_text=STAIRCASE, query="f(X)", id="b")
        assert a.dedup_key() == b.dedup_key()
        c = JobRequest(op="entail", kb_text=STAIRCASE, query="c(X)", id="a")
        assert a.dedup_key() != c.dedup_key()

    def test_result_round_trip(self):
        result = JobResult(
            op="entail",
            entailed=True,
            method="chase-prefix-hit",
            warm=True,
            applications=3,
            total_applications=9,
        )
        assert JobResult.from_obj(result.to_obj()) == result


class TestExecuteJob:
    def test_entail_yes(self):
        result = execute_job(
            JobRequest(
                op="entail", kb_text=STAIRCASE, query=STAIR_QUERY, max_steps=60
            )
        )
        assert result.ok
        assert result.entailed is True
        assert result.method == "chase-prefix-hit"
        assert not result.warm and not result.incomplete

    def test_entail_exact_no_at_fixpoint(self):
        kb_text = dump_kb(transitive_closure_kb(3))
        result = execute_job(
            JobRequest(
                op="entail",
                kb_text=kb_text,
                query="nosuch(X, Y)",
                max_steps=200,
            )
        )
        assert result.ok
        assert result.terminated
        assert result.entailed is False
        assert result.method == "chase-fixpoint-miss"

    def test_entail_budget_exhausted_undecided(self):
        result = execute_job(
            JobRequest(
                op="entail", kb_text=STAIRCASE, query="nosuch(X)", max_steps=5
            )
        )
        assert result.ok
        assert result.entailed is None
        assert result.method == "chase-budget-exhausted"
        assert not result.incomplete

    def test_entail_countermodel_no(self):
        kb_text = dump_kb(transitive_closure_kb(3))
        result = execute_job(
            JobRequest(
                op="entail",
                kb_text=kb_text,
                query="nosuch(X, Y)",
                max_steps=1,
                model_budget=4,
            )
        )
        assert result.ok
        assert result.entailed is False
        assert result.method == "finite-countermodel"

    def test_chase_returns_instance(self):
        result = execute_job(
            JobRequest(op="chase", kb_text=STAIRCASE, max_steps=6)
        )
        assert result.ok
        assert result.applications == 6
        assert result.atoms == len(result.instance)
        assert all(isinstance(atom, str) for atom in result.instance)

    def test_bad_op_is_error_result(self):
        result = execute_job(JobRequest(op="frobnicate", kb_text=STAIRCASE))
        assert not result.ok
        assert "frobnicate" in result.error

    def test_bad_kb_is_error_result(self):
        result = execute_job(JobRequest(op="chase", kb_text="not a kb"))
        assert not result.ok
        assert result.error

    def test_entail_without_query_is_error_result(self):
        result = execute_job(JobRequest(op="entail", kb_text=STAIRCASE))
        assert not result.ok
        assert "query" in result.error


class TestDeadlineDegradation:
    def test_expired_deadline_degrades_gracefully(self):
        result = execute_job(
            JobRequest(
                op="entail",
                kb_text=ELEVATOR,
                query="nosuch(X, Y)",
                variant="core",
                max_steps=10**6,
                timeout=0.0,
            )
        )
        assert result.ok
        assert result.entailed is None
        assert result.incomplete
        assert result.deadline_expired
        assert result.method == "deadline-expired"

    def test_chase_deadline_partial_instance(self):
        result = execute_job(
            JobRequest(
                op="chase", kb_text=STAIRCASE, max_steps=10**6, timeout=0.0
            )
        )
        assert result.ok
        assert result.incomplete and result.deadline_expired
        assert result.method == "chase-deadline"
        assert result.instance  # the sound partial model came back

    def test_hit_before_deadline_is_sound_yes(self):
        # A generous deadline: the hit fires long before expiry, so the
        # answer is exact despite the timeout being set.
        result = execute_job(
            JobRequest(
                op="entail",
                kb_text=STAIRCASE,
                query=STAIR_QUERY,
                max_steps=60,
                timeout=60.0,
            )
        )
        assert result.ok
        assert result.entailed is True
        assert not result.incomplete and not result.deadline_expired


class TestWarmStart:
    def test_second_identical_entail_is_warm_with_zero_applications(
        self, tmp_path
    ):
        store = SnapshotStore(tmp_path)
        req = JobRequest(
            op="entail", kb_text=STAIRCASE, query=STAIR_QUERY, max_steps=60
        )
        cold = execute_job(req, store)
        warm = execute_job(req, store)
        assert cold.entailed is True and not cold.warm
        assert warm.entailed is True and warm.warm
        assert warm.applications == 0
        assert warm.method == "warm-snapshot-hit"
        assert warm.total_applications == cold.total_applications

    def test_warm_hit_builds_no_trigger_index(self, tmp_path):
        store = SnapshotStore(tmp_path)
        req = JobRequest(
            op="entail", kb_text=STAIRCASE, query=STAIR_QUERY, max_steps=60
        )
        execute_job(req, store)
        compiles = []

        class Spy(Observer):
            def compile(self, **kw):
                compiles.append(kw)

        warm = execute_job(req, store, observer=Spy())
        with observing(Spy()):
            again = execute_job(req, store)
        assert warm.method == again.method == "warm-snapshot-hit"
        assert compiles == []

    def test_warm_chase_extends_snapshot(self, tmp_path):
        store = SnapshotStore(tmp_path)
        first = execute_job(
            JobRequest(op="chase", kb_text=STAIRCASE, max_steps=8), store
        )
        second = execute_job(
            JobRequest(op="chase", kb_text=STAIRCASE, max_steps=14), store
        )
        cold = execute_job(
            JobRequest(op="chase", kb_text=STAIRCASE, max_steps=14)
        )
        assert first.applications == 8
        assert second.warm
        assert second.applications == 6
        assert second.total_applications == 14
        assert second.instance == cold.instance

    def test_deeper_snapshot_not_used_for_smaller_budget(self, tmp_path):
        store = SnapshotStore(tmp_path)
        execute_job(
            JobRequest(op="chase", kb_text=STAIRCASE, max_steps=20), store
        )
        small = execute_job(
            JobRequest(op="chase", kb_text=STAIRCASE, max_steps=5), store
        )
        cold = execute_job(
            JobRequest(op="chase", kb_text=STAIRCASE, max_steps=5)
        )
        assert not small.warm
        assert small.instance == cold.instance

    def test_smaller_cold_run_does_not_clobber_deeper_snapshot(self, tmp_path):
        store = SnapshotStore(tmp_path)
        execute_job(
            JobRequest(op="chase", kb_text=STAIRCASE, max_steps=20), store
        )
        execute_job(
            JobRequest(op="chase", kb_text=STAIRCASE, max_steps=5), store
        )
        state = store.load(load_kb(STAIRCASE), "restricted", 1)
        assert state is not None
        assert state.applications == 20


CHAIN = dump_kb(transitive_closure_kb(5))
#: The same chain with one appended edge: a strict superset of CHAIN's
#: facts under identical rules — the ancestor-resume serving case.
CHAIN_GROWN = CHAIN.replace("[facts]", "[facts]\ne(v5, v6)", 1)


class TestAncestorResume:
    def test_grown_kb_resumes_from_ancestor(self, tmp_path):
        store = SnapshotStore(tmp_path)
        base = execute_job(
            JobRequest(op="chase", kb_text=CHAIN, max_steps=200), store
        )
        assert base.terminated
        incr = execute_job(
            JobRequest(op="chase", kb_text=CHAIN_GROWN, max_steps=200), store
        )
        cold = execute_job(
            JobRequest(op="chase", kb_text=CHAIN_GROWN, max_steps=200)
        )
        assert incr.ancestor and not incr.warm
        assert incr.instance == cold.instance
        assert incr.terminated
        # only the new edge's consequences were derived
        assert incr.applications < cold.applications
        assert incr.total_applications == cold.total_applications

    def test_entailed_in_ancestor_prefix_is_zero_work(self, tmp_path):
        store = SnapshotStore(tmp_path)
        execute_job(
            JobRequest(op="chase", kb_text=CHAIN, max_steps=200), store
        )
        # the query holds already in the ancestor's closure
        result = execute_job(
            JobRequest(
                op="entail",
                kb_text=CHAIN_GROWN,
                query="e(v0, v5)",
                max_steps=200,
            ),
            store,
        )
        assert result.entailed is True
        assert result.ancestor
        assert result.applications == 0
        assert result.method == "ancestor-snapshot-hit"

    def test_ancestor_save_makes_next_request_warm(self, tmp_path):
        store = SnapshotStore(tmp_path)
        execute_job(
            JobRequest(op="chase", kb_text=CHAIN, max_steps=200), store
        )
        first = execute_job(
            JobRequest(op="chase", kb_text=CHAIN_GROWN, max_steps=200), store
        )
        second = execute_job(
            JobRequest(op="chase", kb_text=CHAIN_GROWN, max_steps=200), store
        )
        assert first.ancestor
        assert second.warm and not second.ancestor
        assert second.applications == 0
        assert second.instance == first.instance

    def test_ancestor_resume_can_be_disabled(self, tmp_path):
        store = SnapshotStore(tmp_path, ancestor_resume=False)
        execute_job(
            JobRequest(op="chase", kb_text=CHAIN, max_steps=200), store
        )
        incr = execute_job(
            JobRequest(op="chase", kb_text=CHAIN_GROWN, max_steps=200), store
        )
        assert not incr.ancestor and not incr.warm

    def test_too_deep_ancestor_not_used_for_small_budget(self, tmp_path):
        store = SnapshotStore(tmp_path)
        deep = execute_job(
            JobRequest(op="chase", kb_text=CHAIN, max_steps=200), store
        )
        assert deep.applications > 3
        small = execute_job(
            JobRequest(op="chase", kb_text=CHAIN_GROWN, max_steps=3), store
        )
        cold = execute_job(
            JobRequest(op="chase", kb_text=CHAIN_GROWN, max_steps=3)
        )
        assert not small.ancestor and not small.warm
        assert small.instance == cold.instance
