"""Scores, event classes, policy synthesis, mitigation, persistence."""

import itertools
import os
import random
import stat
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

import leastpriv
from leastpriv import _files
from leastpriv.decision import (
    CVEDB_HEADER,
    CveDatabase,
    CveEntry,
    DbFormatError,
    DecisionError,
    Infeasible,
    OBSERVATIONS_HEADER,
    ObservationStore,
    Policy,
    ScoreTargets,
    StoreError,
    StoreFormatError,
    check_mitigation,
    classify_events,
    default_cvedb,
    dump_policy,
    functionality_score,
    load_cvedb,
    load_policy,
    load_store,
    parse_cvedb,
    parse_event_list,
    policy_from_doc,
    policy_to_doc,
    save_store,
    security_score,
    sweep,
    synthesize_policy,
)
from leastpriv.events import EventSet, Observation


def store_of(container="app", **envs):
    """envs: id -> comma-separated event names (CAP_ prefix = capability)."""
    store = ObservationStore(container)
    for env_id, names in envs.items():
        store.record(env_id, parse_event_list(names.split(",")) if names else EventSet.empty())
    return store


def db_of(**cvss_by_event):
    """One single-event CVE per entry: event name -> cvss."""
    entries = []
    for i, (name, cvss) in enumerate(sorted(cvss_by_event.items())):
        entries.append(CveEntry(f"CVE-0-{i:04d}", cvss, parse_event_list([name])))
    return CveDatabase(entries)


class TestSecurityScore:
    def test_empty_allowed_is_fully_secure(self):
        assert security_score(EventSet.empty(), db_of()) == 1.0

    def test_single_mapped_event(self):
        allowed = parse_event_list(["waitid"])
        assert abs(security_score(allowed, db_of(waitid=8.0)) - 0.2) < 1e-12

    def test_worst_event_dominates(self):
        allowed = parse_event_list(["waitid", "madvise", "read"])
        db = db_of(waitid=8.0, madvise=7.8, read=2.0)
        assert abs(security_score(allowed, db) - 0.2) < 1e-12

    def test_unmapped_events_count_zero(self):
        allowed = parse_event_list(["read", "close", "CAP_CHOWN"])
        assert security_score(allowed, db_of(waitid=8.0)) == 1.0

    def test_capability_vectors_scored_like_syscalls(self):
        allowed = parse_event_list(["CAP_SYS_ADMIN"])
        db = db_of(CAP_SYS_ADMIN=6.0)
        assert abs(security_score(allowed, db) - 0.4) < 1e-12

    def test_agrees_with_exact_rational_arithmetic(self):
        rng = random.Random(42)
        pool = ["read", "write", "open", "close", "waitid", "CAP_CHOWN", "CAP_NET_RAW"]
        for _ in range(40):
            mapped = {n: rng.choice([0.0, 2.5, 4.9, 7.8, 9.1, 10.0]) for n in pool}
            db = db_of(**mapped)
            chosen = rng.sample(pool, rng.randint(0, len(pool)))
            allowed = parse_event_list(chosen) if chosen else EventSet.empty()
            worst = max((Fraction(str(mapped[n])) for n in chosen), default=Fraction(0))
            expected = Fraction(1) - worst / 10
            assert abs(security_score(allowed, db) - float(expected)) < 1e-12


class TestFunctionalityScore:
    def test_covered_fraction(self):
        store = store_of(x1="a", x2="a,b")
        assert abs(functionality_score(parse_event_list(["a"]), store) - 0.5) < 1e-12
        assert functionality_score(parse_event_list(["a", "b"]), store) == 1.0
        assert functionality_score(EventSet.empty(), store) == 0.0

    def test_partial_cover_does_not_count(self):
        store = store_of(x1="a", x2="a,b")
        # b alone leaves x1 uncovered and covers nothing of x2's a
        assert functionality_score(parse_event_list(["b"]), store) == 0.0

    def test_agrees_with_exact_rational_arithmetic(self):
        rng = random.Random(43)
        pool = [f"e{i}" for i in range(8)]
        for _ in range(40):
            store = ObservationStore("app")
            sets = []
            for i in range(rng.randint(1, 6)):
                events = rng.sample(pool, rng.randint(1, len(pool)))
                sets.append(set(events))
                store.record(f"env{i}", parse_event_list(events))
            chosen = set(rng.sample(pool, rng.randint(0, len(pool))))
            allowed = parse_event_list(sorted(chosen)) if chosen else EventSet.empty()
            covered = sum(1 for s in sets if s <= chosen)
            expected = Fraction(covered, len(sets))
            assert abs(functionality_score(allowed, store) - float(expected)) < 1e-12


class TestClassification:
    def test_partition(self):
        store = store_of(x1="a,b", x2="a,c")
        classes = classify_events(store)
        assert classes.always == parse_event_list(["a"])
        assert classes.sporadic == parse_event_list(["b", "c"])

    def test_single_environment_has_no_sporadic(self):
        classes = classify_events(store_of(x1="a,b"))
        assert classes.always == parse_event_list(["a", "b"])
        assert not classes.sporadic


class TestTargets:
    def test_ceiling(self):
        assert ScoreTargets(0.5, 0.5).cvss_ceiling == 5.0
        assert ScoreTargets(0.0, 1.0).cvss_ceiling == 10.0
        assert ScoreTargets(1.0, 0.0).cvss_ceiling == 0.0

    def test_range_checked(self):
        with pytest.raises(Exception):
            ScoreTargets(-0.1, 0.5)
        with pytest.raises(Exception):
            ScoreTargets(0.5, 1.1)


class TestSynthesis:
    def test_tight_targets_are_infeasible_on_the_reference_example(self):
        store = store_of(x1="a", x2="a,b")
        db = db_of(b=9.0)
        result = synthesize_policy(store, db, ScoreTargets(0.5, 1.0))
        assert isinstance(result, Infeasible)
        assert result.blocking_events == (("SYS", "b"),)
        # best pair comes from the maximal admissible candidate {a}
        assert result.best_security == 1.0
        assert abs(result.best_functionality - 0.5) < 1e-12

    def test_relaxed_security_makes_it_feasible(self):
        store = store_of(x1="a", x2="a,b")
        db = db_of(b=9.0)
        policy = synthesize_policy(store, db, ScoreTargets(0.1, 1.0))
        assert isinstance(policy, Policy)
        assert policy.allowed == parse_event_list(["a", "b"])
        assert abs(policy.achieved_security - 0.1) < 1e-12
        assert policy.achieved_functionality == 1.0

    def test_relaxed_functionality_keeps_security(self):
        store = store_of(x1="a", x2="a,b")
        db = db_of(b=9.0)
        policy = synthesize_policy(store, db, ScoreTargets(0.5, 0.5))
        assert isinstance(policy, Policy)
        assert policy.allowed == parse_event_list(["a"])
        assert policy.achieved_security == 1.0
        assert abs(policy.achieved_functionality - 0.5) < 1e-12

    def test_security_shortfall_is_an_error(self, monkeypatch):
        monkeypatch.setattr("leastpriv.decision.security_score", lambda allowed, db: 0.0)
        store = store_of(x1="a", x2="a,b")
        with pytest.raises(DecisionError, match="below the target"):
            synthesize_policy(store, db_of(b=2.0), ScoreTargets(0.5, 1.0))

    def test_security_shortfall_is_an_error_under_python_O(self):
        snippet = (
            "import leastpriv.decision as d\n"
            "d.security_score = lambda allowed, db: 0.0\n"
            "store = d.ObservationStore('app')\n"
            "store.record('x1', d.parse_event_list(['a']))\n"
            "store.record('x2', d.parse_event_list(['a', 'b']))\n"
            "db = d.CveDatabase([d.CveEntry('CVE-0-0000', 2.0, d.parse_event_list(['b']))])\n"
            "try:\n"
            "    d.synthesize_policy(store, db, d.ScoreTargets(0.5, 1.0))\n"
            "except d.DecisionError:\n"
            "    print(__debug__, 'DecisionError')\n"
        )
        src = str(Path(leastpriv.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        env = {**os.environ, "PYTHONPATH": path}
        run = subprocess.run([sys.executable, "-O", "-c", snippet], env=env,
                             capture_output=True, text=True, check=True)
        assert run.stdout == "False DecisionError\n"

    def test_always_event_over_ceiling_is_infeasible(self):
        store = store_of(x1="a,risky", x2="a,risky")
        db = db_of(risky=9.9)
        result = synthesize_policy(store, db, ScoreTargets(0.5, 0.0))
        assert isinstance(result, Infeasible)
        assert ("SYS", "risky") in result.blocking_events

    def test_greedy_prefers_frequent_then_low_cvss_then_name(self):
        # all sporadic events admissible; functionality target needs one
        # environment beyond the always class
        store = ObservationStore("app")
        store.record("x1", parse_event_list(["base", "hot"]))
        store.record("x2", parse_event_list(["base", "hot"]))
        store.record("x3", parse_event_list(["base", "cold"]))
        db = db_of(hot=3.0, cold=1.0)
        policy = synthesize_policy(store, db, ScoreTargets(0.0, 0.6))
        assert isinstance(policy, Policy)
        # hot covers two of three environments, so greedy takes it first
        assert policy.sporadic_included == parse_event_list(["hot"])
        assert policy.sporadic_excluded == parse_event_list(["cold"])

    def test_cvss_breaks_frequency_ties(self):
        store = ObservationStore("app")
        store.record("x1", parse_event_list(["base", "safe"]))
        store.record("x2", parse_event_list(["base", "risky"]))
        db = db_of(safe=1.0, risky=4.0)
        policy = synthesize_policy(store, db, ScoreTargets(0.0, 0.5))
        assert policy.sporadic_included == parse_event_list(["safe"])

    def test_name_breaks_full_ties(self):
        store = ObservationStore("app")
        store.record("x1", parse_event_list(["base", "zeta"]))
        store.record("x2", parse_event_list(["base", "alpha"]))
        policy = synthesize_policy(store, db_of(), ScoreTargets(0.0, 0.5))
        assert policy.sporadic_included == parse_event_list(["alpha"])

    def test_no_events_beyond_target_admitted(self):
        store = store_of(x1="a,b", x2="a,c", x3="a,d")
        policy = synthesize_policy(store, db_of(), ScoreTargets(0.0, 0.0))
        assert isinstance(policy, Policy)
        assert policy.allowed == policy.always

    def test_empty_store_rejected(self):
        with pytest.raises(StoreError):
            synthesize_policy(ObservationStore("app"), db_of(), ScoreTargets(0.0, 0.0))

    def test_policy_classification_labels(self):
        store = store_of(x1="a,b", x2="a,c")
        db = db_of(c=9.9)
        policy = synthesize_policy(store, db, ScoreTargets(0.5, 0.5))
        assert policy.always == parse_event_list(["a"])
        assert policy.sporadic_included == parse_event_list(["b"])
        assert policy.sporadic_excluded == parse_event_list(["c"])

    def test_observed_events_partition_into_the_three_classes(self):
        store = store_of(x1="a,b,cold", x2="a,c", x3="a,b")
        db = db_of(c=9.9)
        policy = synthesize_policy(store, db, ScoreTargets(0.5, 0.6))
        classes = classify_events(store)
        observed = parse_event_list(["a", "b", "c", "cold"])
        assert classes.always | classes.sporadic == observed
        assert policy.always | policy.sporadic_included | policy.sporadic_excluded == observed
        assert not policy.sporadic_included & policy.sporadic_excluded
        assert policy.allowed == policy.always | policy.sporadic_included


def brute_force_feasible(store, db, targets):
    """Oracle: try every subset of the sporadic class."""
    classes = classify_events(store)
    ceiling = targets.cvss_ceiling
    sporadic = list(classes.sporadic.events())
    for mask in range(1 << len(sporadic)):
        chosen = [e for i, e in enumerate(sporadic) if mask >> i & 1]
        candidate = classes.always | EventSet.from_events(chosen)
        if any(db.max_cvss(*event) > ceiling for event in candidate.events()):
            continue
        if functionality_score(candidate, store) + 1e-12 < targets.functionality_min:
            continue
        return True
    return False


@settings(max_examples=120, deadline=None)
@given(data=st.data())
def test_greedy_feasibility_matches_brute_force(data):
    pool = [f"e{i}" for i in range(7)] + ["CAP_NET_RAW", "CAP_CHOWN"]
    n_envs = data.draw(st.integers(min_value=1, max_value=5))
    store = ObservationStore("app")
    for i in range(n_envs):
        events = data.draw(st.sets(st.sampled_from(pool), min_size=1, max_size=6))
        store.record(f"env{i}", parse_event_list(sorted(events)))
    mapped = data.draw(
        st.dictionaries(st.sampled_from(pool), st.sampled_from([1.0, 4.9, 5.0, 7.8, 10.0]), max_size=6)
    )
    db = db_of(**mapped)
    targets = ScoreTargets(
        data.draw(st.sampled_from([0.0, 0.3, 0.5, 0.51, 0.7, 1.0])),
        data.draw(st.sampled_from([0.0, 0.4, 0.5, 0.75, 1.0])),
    )
    result = synthesize_policy(store, db, targets)
    expected = brute_force_feasible(store, db, targets)
    assert isinstance(result, Policy) == expected
    if isinstance(result, Policy):
        assert result.achieved_security + 1e-9 >= targets.security_min
        assert result.achieved_functionality + 1e-12 >= targets.functionality_min
        assert result.always <= result.allowed
        ceiling = targets.cvss_ceiling
        assert all(db.max_cvss(*e) <= ceiling for e in result.allowed.events())


def reference_synthesis(store, db, targets):
    """Oracle: the greedy step by step, rescoring every environment before
    each admitted event, and blockers gathered from uncovered environments."""
    classes = classify_events(store)
    ceiling = targets.cvss_ceiling
    admissible = [e for e in classes.sporadic.events() if db.max_cvss(*e) <= ceiling]
    candidate_max = classes.always | EventSet.from_events(admissible)
    best = (security_score(candidate_max, db), functionality_score(candidate_max, store))
    over_always = [e for e in classes.always.events() if db.max_cvss(*e) > ceiling]
    if over_always:
        names = ", ".join(name for _, name in over_always)
        return Infeasible(f"always-required events exceed the CVSS ceiling {ceiling:g}: {names}",
                          tuple(over_always), *best)
    frequencies = store.event_frequencies()
    ordered = sorted(admissible, key=lambda e: (-frequencies[e], db.max_cvss(*e), e))
    allowed, included = classes.always, []
    for event in ordered:
        if functionality_score(allowed, store) >= targets.functionality_min:
            break
        allowed = allowed | EventSet.from_events([event])
        included.append(event)
    achieved = functionality_score(allowed, store)
    if achieved < targets.functionality_min:
        needs = set()
        for environment_id in store.environments():
            needs.update((store.events_for(environment_id) - candidate_max).events())
        blocking = tuple(sorted(needs))
        names = ", ".join(name for _, name in blocking)
        return Infeasible(
            f"functionality target {targets.functionality_min:g} unreachable: "
            f"required events sit above the CVSS ceiling {ceiling:g}: {names}",
            blocking, *best)
    included_set = EventSet.from_events(included)
    return Policy(store.container, allowed, security_score(allowed, db), achieved,
                  classes.always, included_set, classes.sporadic - included_set, targets)


_POOL = ["a", "b", "c", "d", "e", "risky", "CAP_NET_RAW", "CAP_CHOWN"]


@settings(max_examples=300, deadline=None)
@given(
    envs=st.lists(st.sets(st.sampled_from(_POOL), max_size=6), min_size=1, max_size=7),
    cvss=st.dictionaries(st.sampled_from(_POOL), st.sampled_from([0.5, 4.9, 5.0, 7.8, 10.0]),
                         max_size=5),
    pairs=st.lists(
        st.tuples(st.sampled_from([0.0, 0.3, 0.5, 0.51, 0.9, 1.0]),
                  st.one_of(st.sampled_from([0.0, 1 / 3, 0.5, 2 / 3, 0.75, 1.0]),
                            st.floats(0.0, 1.0))),
        min_size=1, max_size=4,
    ),
)
@example(envs=[{"a", "b"}, {"a", "c"}, {"a"}], cvss={}, pairs=[(0.0, 0.0)])
@example(envs=[{"a", "b"}, {"a", "c"}, {"a"}], cvss={"c": 7.8}, pairs=[(0.5, 1.0)])
@example(envs=[{"a", "b"}, {"a", "c"}, {"a", "d"}], cvss={}, pairs=[(0.0, 2 / 3)])
@example(envs=[set(), {"a"}, {"a", "risky"}], cvss={"risky": 10.0}, pairs=[(0.5, 0.5)])
@example(envs=[{"a", "risky"}, {"a", "risky", "b"}], cvss={"risky": 10.0}, pairs=[(0.5, 0.5)])
@example(envs=[{"a", "b"}, {"a", "c", "risky"}, {"a", "risky"}], cvss={"risky": 7.8, "b": 4.9},
         pairs=[(0.0, 1.0), (0.5, 1.0), (0.5, 1 / 3), (0.3, 2 / 3)])
def test_synthesis_matches_the_step_by_step_greedy(envs, cvss, pairs):
    """synthesize_policy and every row of a sweep over the same store."""
    store = ObservationStore("app")
    for i, names in enumerate(envs):
        store.record(f"env{i}", parse_event_list(sorted(names)))
    db = db_of(**cvss)
    target_list = [ScoreTargets(*pair) for pair in pairs]
    rows = sweep(store, db, target_list)
    assert [row[0] for row in rows] == target_list
    for targets, swept in rows:
        expected = reference_synthesis(store, db, targets)
        for result in (swept, synthesize_policy(store, db, targets)):
            if isinstance(expected, Policy):
                assert isinstance(result, Policy)
                assert policy_to_doc(result) == policy_to_doc(expected)
            else:
                assert result == expected


def test_synthesis_ranks_past_a_machine_word():
    """More sporadic events than a word has bits, so environments hold high bits."""
    rng = random.Random(7)
    names = [f"s{i:03d}" for i in range(160)] + ["CAP_NET_RAW", "CAP_CHOWN", "CAP_SYS_ADMIN"]
    store = ObservationStore("app")
    for i in range(24):
        chosen = rng.sample(names, rng.randint(5, 60))
        store.record(f"env{i:02d}", parse_event_list(["base", *chosen]))
    db = db_of(**{name: rng.choice([0.5, 4.9, 5.0, 7.8, 10.0])
                  for name in rng.sample(names, 25)})
    assert len(classify_events(store).sporadic) >= 150
    target_list = [ScoreTargets(s, f) for s in (0.0, 0.22, 0.5, 0.51, 0.95)
                   for f in (0.0, 0.25, 0.5, 0.9, 1.0)]
    rows = sweep(store, db, target_list)
    assert [row[0] for row in rows] == target_list
    results = []
    for targets, swept in rows:
        expected = reference_synthesis(store, db, targets)
        for result in (swept, synthesize_policy(store, db, targets)):
            if isinstance(expected, Policy):
                assert isinstance(result, Policy)
                assert policy_to_doc(result) == policy_to_doc(expected)
            else:
                assert result == expected
        results.append(expected)
    assert any(isinstance(result, Infeasible) for result in results)
    # a feasible cut admits events ranked past the 64th place
    assert max(len(result.sporadic_included) for result in results
               if isinstance(result, Policy)) > 64


class TestSweep:
    def test_reference_walk_is_monotone(self):
        store = store_of(x1="a", x2="a,b", x3="a,b,c")
        db = db_of(b=4.0, c=8.0)
        rows = sweep(store, db, [
            ScoreTargets(0.0, 1.0),
            ScoreTargets(0.5, 0.5),
            ScoreTargets(0.9, 0.0),
        ])
        sizes = [len(policy.allowed) for _, policy in rows if isinstance(policy, Policy)]
        assert sizes == sorted(sizes, reverse=True)
        assert len(rows) == 3

    def test_synthesis_never_rescores_the_store(self, monkeypatch):
        store = ObservationStore("app")
        for i in range(400):
            store.record(f"env{i:03d}", parse_event_list(["base", f"e{i % 37}", f"f{i % 11}"]))
        db = db_of(e1=9.0, f2=6.0, e5=3.0)
        calls = []

        def counted(allowed, store):
            calls.append(1)
            return functionality_score(allowed, store)

        monkeypatch.setattr("leastpriv.decision.functionality_score", counted)
        targets = [ScoreTargets(s, f) for s in (0.0, 0.5) for f in (0.5, 0.9, 1.0)]
        rows = sweep(store, db, targets)
        assert [isinstance(result, Policy) for _, result in rows] == [
            True, True, True, True, False, False]
        assert calls == []

    def test_synthesis_counts_event_frequencies_once(self, monkeypatch):
        store = store_of(x1="a,b", x2="a,c,CAP_CHOWN", x3="a")
        calls = []
        real = ObservationStore.event_frequencies

        def counted(self):
            calls.append(1)
            return real(self)

        monkeypatch.setattr(ObservationStore, "event_frequencies", counted)
        assert isinstance(synthesize_policy(store, db_of(c=9.0), ScoreTargets(0.5, 0.5)), Policy)
        assert len(calls) == 1
        # a sweep ranks the store once, whatever the number of targets
        targets = [ScoreTargets(s, f) for s in (0.0, 0.5) for f in (0.5, 0.9, 1.0)]
        rows = sweep(store, db_of(c=9.0), targets)
        assert [row[0] for row in rows] == targets
        assert len(calls) == 2

    def test_infeasible_rows_kept_in_order(self):
        store = store_of(x1="a", x2="a,b")
        db = db_of(a=9.5)
        rows = sweep(store, db, [ScoreTargets(0.9, 0.0), ScoreTargets(0.0, 0.0)])
        assert isinstance(rows[0][1], Infeasible)
        assert isinstance(rows[1][1], Policy)


class TestMitigation:
    def test_blocked_iff_some_vector_event_missing(self):
        db = CveDatabase([
            CveEntry("CVE-1", 7.0, parse_event_list(["socket", "setsockopt", "CAP_NET_RAW"])),
            CveEntry("CVE-2", 5.0, parse_event_list(["read"])),
        ])
        allowed = parse_event_list(["socket", "setsockopt", "read"])
        rows = {row.cve_id: row for row in check_mitigation(allowed, db)}
        # full vector needs CAP_NET_RAW, which the policy does not grant
        assert rows["CVE-1"].blocked
        assert rows["CVE-1"].missing == (("CAP", "CAP_NET_RAW"),)
        assert not rows["CVE-2"].blocked
        assert rows["CVE-2"].missing == ()

    def test_rows_follow_database_order(self):
        db = CveDatabase([
            CveEntry("CVE-B", 1.0, parse_event_list(["b"])),
            CveEntry("CVE-A", 1.0, parse_event_list(["a"])),
        ])
        rows = check_mitigation(EventSet.empty(), db)
        assert [r.cve_id for r in rows] == ["CVE-B", "CVE-A"]


class TestCveDbFiles:
    def test_default_db_loads(self):
        db = default_cvedb()
        assert len(db) >= 40
        assert db.max_cvss("SYS", "waitid") == 8.0
        assert db.max_cvss("SYS", "madvise") == 7.8
        assert db.max_cvss("SYS", "nosuchcall") == 0.0

    def test_parse_round_trip_semantics(self):
        text = f"{CVEDB_HEADER}\n# comment\nCVE-X\t7.5\tsocket,CAP_NET_RAW\n"
        db = parse_cvedb(text.splitlines())
        assert db.max_cvss("SYS", "socket") == 7.5
        assert db.max_cvss("CAP", "CAP_NET_RAW") == 7.5

    def test_header_required(self):
        with pytest.raises(DbFormatError):
            parse_cvedb(["CVE-X\t7.5\tsocket"])

    def test_cvss_bounds_checked(self):
        with pytest.raises(DbFormatError):
            parse_cvedb([CVEDB_HEADER, "CVE-X\t10.1\tsocket"])
        with pytest.raises(DbFormatError):
            parse_cvedb([CVEDB_HEADER, "CVE-X\tnan\tsocket"])

    def test_duplicate_ids_rejected(self):
        with pytest.raises(DbFormatError):
            parse_cvedb([CVEDB_HEADER, "CVE-X\t1.0\ta", "CVE-X\t2.0\tb"])

    def test_empty_vector_rejected(self):
        with pytest.raises(Exception):
            parse_cvedb([CVEDB_HEADER, "CVE-X\t1.0\t"])

    @pytest.mark.parametrize("line,shown", [
        ("\t7.5\tread", "<memory>:2: entry needs a CVE id"),
        ("CVE-X\t1.0\t", "<memory>:2: 'CVE-X': attack vector must name at least one event"),
        ("CVE-X\t1.0\t , ,", "<memory>:2: 'CVE-X': attack vector must name at least one event"),
    ], ids=["no-id", "empty-vector", "blank-names"])
    def test_a_bad_entry_is_reported_with_its_line(self, line, shown):
        with pytest.raises(DbFormatError) as raised:
            parse_cvedb([CVEDB_HEADER, line])
        assert type(raised.value) is DbFormatError
        assert str(raised.value) == shown


class TestStoreFiles:
    def test_round_trip_with_counts(self, tmp_path):
        store = ObservationStore("redis")
        store.record_observation(Observation("e" * 32, {"read": 5}, {"CAP_CHOWN": 2}))
        path = tmp_path / "obs.store"
        save_store(store, path)
        text = path.read_text()
        assert text.splitlines()[0] == OBSERVATIONS_HEADER
        again = load_store(path)
        assert again.container == "redis"
        assert again.environments() == store.environments()
        assert again.events_for("e" * 32) == store.events_for("e" * 32)
        sys_counts, cap_counts = again.counts_for("e" * 32)
        assert sys_counts == {"read": 5}
        assert cap_counts == {"CAP_CHOWN": 2}

    def test_merging_repeated_environments(self):
        store = ObservationStore("app")
        store.record_observation(Observation("x1", {"a": 2}))
        store.record_observation(Observation("x1", {"a": 1, "b": 4}))
        assert store.events_for("x1") == parse_event_list(["a", "b"])
        assert store.counts_for("x1")[0] == {"a": 3, "b": 4}
        assert len(store) == 1

    def test_recording_an_event_set_counts_one_occurrence_per_call(self):
        store = ObservationStore("app")
        store.record("x1", parse_event_list(["a", "CAP_CHOWN"]))
        store.record("x1", parse_event_list(["a"]))
        assert store.counts_for("x1") == ({"a": 2}, {"CAP_CHOWN": 1})

    def test_an_unknown_environment_is_quoted(self):
        store = store_of(x1="a")
        with pytest.raises(StoreError) as raised:
            store.events_for("e" * 5000)
        assert str(raised.value) == "unknown environment of 5000 characters"

    def test_events_are_the_counted_names(self):
        store = ObservationStore("app")
        store.record_observation(Observation("x1", {"a": 2, "ghost": 0}, {"CAP_CHOWN": 1}))
        sys_counts, cap_counts = store.counts_for("x1")
        assert store.events_for("x1") == EventSet(frozenset(sys_counts), frozenset(cap_counts))
        assert store.events_for("x1") == parse_event_list(["a", "ghost", "CAP_CHOWN"])

    def test_frequencies_count_environments_not_calls(self):
        store = store_of(x1="a,b", x2="a", x3="a")
        freqs = store.event_frequencies()
        assert freqs[("SYS", "a")] == 3
        assert freqs[("SYS", "b")] == 1

    def test_header_checked(self, tmp_path):
        path = tmp_path / "obs.store"
        path.write_text("bogus\n")
        with pytest.raises(StoreFormatError):
            load_store(path)

    def test_negative_count_rejected_with_line(self, tmp_path):
        path = tmp_path / "obs.store"
        path.write_text(f"{OBSERVATIONS_HEADER}\nCONTAINER app\nENV e1\nSYS read -3\n")
        with pytest.raises(StoreFormatError, match=f"^{path}:4: negative count -3$"):
            load_store(path)

    def test_container_mismatch_on_merge_is_an_error(self):
        store = ObservationStore("redis")
        with pytest.raises(StoreError):
            ObservationStore("")


class TestAtomicWrites:
    """save_store and dump_policy replace their file whole or leave it be."""

    def test_failed_store_write_keeps_the_old_bytes(self, tmp_path, monkeypatch):
        path = tmp_path / "obs.store"
        save_store(store_of(x1="a"), path)
        before = path.read_bytes()
        store = store_of(x1="a", x2="b")

        def first_then_fail():
            yield "x1"
            raise RuntimeError("disk full")

        monkeypatch.setattr(store, "environments", first_then_fail)
        with pytest.raises(RuntimeError):
            save_store(store, path)
        assert path.read_bytes() == before
        assert os.listdir(tmp_path) == ["obs.store"]

    def test_failed_policy_write_keeps_the_old_bytes(self, tmp_path, monkeypatch):
        path = tmp_path / "policy.yaml"
        policy = TestPolicyFiles().build()
        dump_policy(policy, path)
        before = path.read_bytes()

        def write_then_fail(doc, handle, **kwargs):
            handle.write("partial\n")
            raise RuntimeError("disk full")

        monkeypatch.setattr(_files.yaml, "dump", write_then_fail)
        with pytest.raises(RuntimeError):
            dump_policy(policy, path)
        assert path.read_bytes() == before
        assert os.listdir(tmp_path) == ["policy.yaml"]

    def test_mode_is_what_a_plain_open_gives(self, tmp_path):
        plain = tmp_path / "plain"
        plain.write_text("")
        fresh = tmp_path / "fresh.store"
        save_store(store_of(x1="a"), fresh)
        assert fresh.stat().st_mode == plain.stat().st_mode
        kept = tmp_path / "kept.policy"
        kept.write_text("")
        kept.chmod(0o640)
        dump_policy(TestPolicyFiles().build(), kept)
        assert stat.S_IMODE(kept.stat().st_mode) == 0o640
        assert sorted(os.listdir(tmp_path)) == ["fresh.store", "kept.policy", "plain"]


class TestPolicyFiles:
    def build(self):
        store = store_of(x1="a", x2="a,b")
        return synthesize_policy(store, db_of(b=2.0), ScoreTargets(0.5, 1.0))

    def test_round_trip(self, tmp_path):
        policy = self.build()
        assert isinstance(policy, Policy)
        path = tmp_path / "policy.yaml"
        dump_policy(policy, path)
        again = load_policy(path)
        assert again == policy

    def test_doc_round_trip_without_targets(self):
        policy = self.build()
        policy = Policy(
            policy.container,
            policy.allowed,
            policy.achieved_security,
            policy.achieved_functionality,
            policy.always,
            policy.sporadic_included,
            policy.sporadic_excluded,
            targets=None,
        )
        assert policy_from_doc(policy_to_doc(policy)) == policy

    def test_version_checked(self, tmp_path):
        policy = self.build()
        path = tmp_path / "policy.yaml"
        dump_policy(policy, path)
        path.write_text(path.read_text().replace("policy_version: 1", "policy_version: 2"))
        with pytest.raises(Exception):
            load_policy(path)

    DOC = {"policy_version": 1, "container": "web", "achieved_security": 1.0,
           "achieved_functionality": 1.0}
    CAPS = [f"CAP_X{i:03d}" for i in range(302)]

    @pytest.mark.parametrize("allowed,classes,shown", [
        ({"syscalls": ["x" * 5000]}, {},
         "allowed must equal always + sporadic_included; they differ in 1 event: "
         "of 5000 characters"),
        ({"capabilities": CAPS}, {"always": {"capabilities": CAPS[:1]}},
         "allowed must equal always + sporadic_included; they differ in 301 events: "
         "'CAP_X001', 'CAP_X002', 'CAP_X003' and 298 more"),
        ({"capabilities": CAPS}, {"always": {"capabilities": CAPS},
                                  "sporadic_excluded": {"capabilities": CAPS[1:]}},
         "event classes overlap in 301 events: 'CAP_X001', 'CAP_X002', 'CAP_X003' and 298 more"),
    ], ids=["long-name", "many-stray", "many-shared"])
    def test_stray_and_shared_events_are_counted_not_all_listed(self, allowed, classes, shown):
        with pytest.raises(DecisionError) as raised:
            policy_from_doc({**self.DOC, "allowed": allowed, "classes": classes})
        assert str(raised.value) == shown


class TestEventListParsing:
    def test_prefix_routes_kind(self):
        events = parse_event_list(["read", "CAP_NET_RAW", "cap_chown"])
        assert set(events.syscalls) == {"read"}
        assert set(events.capabilities) == {"CAP_NET_RAW", "CAP_CHOWN"}

    def test_unlisted_capability_names_pass_through(self):
        # traces can carry capabilities this build does not know; they
        # are kept verbatim and only rejected at docker-flag emission
        events = parse_event_list(["CAP_FUTURE_THING"])
        assert set(events.capabilities) == {"CAP_FUTURE_THING"}
