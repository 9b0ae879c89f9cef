"""Profile snapshots copy structurally, exactly like ``copy.deepcopy``.

``ProfileStore.snapshot`` and ``SharedProfileAggregator.merged_copy``
build their copies with the profiles' own ``copy()`` methods. The
oracle here is the ``copy.deepcopy`` they replaced: on hypothesis-
generated stores (context-sensitive or not, receiver histograms past
``MAX_RECORDED_TYPES``, type checks with nulls) and on pooled tenant
stores, the snapshot must match the oracle on every ``__slots__``
field of every object, dict order included, and must share no mutable
object with the live store.
"""

import copy

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as hst

from repro.interp.profiles import (
    MAX_RECORDED_TYPES,
    SNAPSHOT_ATTEMPTS,
    BranchProfile,
    MethodProfile,
    ProfileStore,
    ReceiverProfile,
    TypeCheckProfile,
)
from repro.obs import NULL_OBS, Observability
from repro.serve.profiles import SharedProfileAggregator, share_by_class_prefix

PROFILE_TYPES = (BranchProfile, ReceiverProfile, TypeCheckProfile,
                 MethodProfile)


class _Method:
    """The only part of a method a profile store reads."""

    def __init__(self, qualified_name):
        self.qualified_name = qualified_name


def _record(store, event):
    """Apply one write through the interpreter's write surface."""
    method, caller, kind, index, arg = event
    profile = store.of(
        _Method(method), None if caller is None else _Method(caller)
    )
    if kind == "invoke":
        profile.invocations += 1
    elif kind == "branch":
        profile.branch(index).record(arg % 2 == 0)
    elif kind == "backedge":
        profile.record_backedge(index)
    elif kind == "callsite":
        profile.record_callsite(index)
    elif kind == "receiver":
        profile.receiver(index).record("R%d" % arg)
    else:
        profile.typecheck(index).record(None if arg == 0 else "T%d" % arg)


_NAMES = ["Lib.get", "Lib.put", "Main.run", "Main.setup", "App.step"]

_events = hst.tuples(
    hst.sampled_from(_NAMES),
    hst.one_of(hst.none(), hst.sampled_from(_NAMES)),
    hst.sampled_from(
        ["invoke", "branch", "backedge", "callsite", "receiver", "typecheck"]
    ),
    hst.integers(0, 5),
    # More distinct receiver/operand types than a histogram records.
    hst.integers(0, MAX_RECORDED_TYPES + 3),
)


def _populated(store):
    """Fill *store* so every slot of every profile kind is non-default:
    overflowed receiver histograms, type checks with nulls and overflow."""
    events = []
    for index in range(2):
        events += [("Lib.get", "Main.run", "invoke", 0, 0)] * 2
        events += [("Lib.get", "Main.run", "branch", index, 0),
                   ("Lib.get", "Main.run", "branch", index, 1),
                   ("Lib.get", "Main.run", "backedge", index, 0),
                   ("Lib.get", "Main.run", "callsite", index, 0)]
        for arg in range(MAX_RECORDED_TYPES + 2):
            events += [("Lib.get", "Main.run", "receiver", index, arg),
                       ("Lib.get", "Main.run", "typecheck", index, arg)]
    events += [("Main.run", None, "invoke", 0, 0),
               ("Main.run", None, "receiver", 3, 1)]
    for event in events:
        _record(store, event)
    return store


# ----------------------------------------------------------------------
# Structural comparison
# ----------------------------------------------------------------------


def _slots(obj):
    return [
        slot
        for cls in type(obj).__mro__
        for slot in getattr(cls, "__slots__", ())
    ]


def _assert_same(actual, expected, path="store"):
    """*actual* equals *expected* slot by slot, dict order included."""
    assert type(actual) is type(expected), path
    if isinstance(expected, dict):
        assert list(actual) == list(expected), path
        for key, value in expected.items():
            _assert_same(actual[key], value, "%s[%r]" % (path, key))
    elif isinstance(expected, PROFILE_TYPES):
        for slot in _slots(expected):
            _assert_same(
                getattr(actual, slot), getattr(expected, slot),
                "%s.%s" % (path, slot),
            )
    else:
        assert actual == expected, path


def _mutable_ids(obj, into=None):
    """ids of every dict and profile object reachable from *obj*."""
    into = set() if into is None else into
    if isinstance(obj, dict):
        into.add(id(obj))
        for value in obj.values():
            _mutable_ids(value, into)
    elif isinstance(obj, PROFILE_TYPES):
        into.add(id(obj))
        for slot in _slots(obj):
            _mutable_ids(getattr(obj, slot), into)
    return into


def _live_ids(store):
    ids = _mutable_ids(store._methods)
    _mutable_ids(store._contexts, ids)
    aggregator = getattr(store, "_aggregator", None)
    if aggregator is not None:
        _mutable_ids(aggregator._global, ids)
    return ids


def _deepcopy_snapshot(store):
    """Oracle: the ``(methods, contexts)`` tables the ``copy.deepcopy``
    snapshot built, pooled overlay included."""
    methods = copy.deepcopy(store._methods)
    contexts = copy.deepcopy(store._contexts)
    if getattr(store, "merge", None) == "shared":
        aggregator = store._aggregator
        for name in aggregator.pooled_method_names():
            if not aggregator.shares(name):
                continue
            profile = aggregator._global.get(name)
            if profile is not None and profile.invocations > 0:
                methods[name] = copy.deepcopy(profile)
    return methods, contexts


def _assert_snapshot_matches(store):
    expected_methods, expected_contexts = _deepcopy_snapshot(store)
    snapshot = store.snapshot()
    assert type(snapshot) is ProfileStore
    _assert_same(snapshot._methods, expected_methods, "methods")
    _assert_same(snapshot._contexts, expected_contexts, "contexts")
    assert snapshot.context_sensitive == store.context_sensitive
    assert snapshot.generation == store.generation
    assert not _mutable_ids(snapshot._methods) & _live_ids(store)
    assert not _mutable_ids(snapshot._contexts) & _live_ids(store)
    return snapshot, (expected_methods, expected_contexts)


# ----------------------------------------------------------------------
# Tests
# ----------------------------------------------------------------------


@pytest.mark.parametrize("context_sensitive", [False, True])
def test_fixture_sets_every_slot(context_sensitive):
    """Guard for the parity tests: the fixture leaves no slot at its
    default, so a slot added later but not copied is caught."""
    store = _populated(ProfileStore(context_sensitive=context_sensitive))
    profile = store._methods["Lib.get"]
    objects = [profile, profile.branches[0], profile.receivers[0],
               profile.typechecks[0]]
    for obj in objects:
        fresh = type(obj)()
        for slot in _slots(obj):
            assert getattr(obj, slot) != getattr(fresh, slot), slot
    assert bool(store._contexts) == context_sensitive


@pytest.mark.parametrize("context_sensitive", [False, True])
def test_populated_snapshot_matches_deepcopy(context_sensitive):
    store = _populated(ProfileStore(context_sensitive=context_sensitive))
    _assert_snapshot_matches(store)
    profile = store._methods["Lib.get"]
    assert profile.receivers[0].is_megamorphic
    assert profile.typechecks[0].is_megamorphic
    assert profile.typechecks[0].nulls == 1


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(
    context_sensitive=hst.booleans(),
    events=hst.lists(_events, max_size=60),
    later=hst.lists(_events, min_size=1, max_size=20),
)
def test_snapshot_matches_deepcopy(context_sensitive, events, later):
    store = ProfileStore(context_sensitive=context_sensitive)
    for event in events:
        _record(store, event)
    snapshot, (methods, contexts) = _assert_snapshot_matches(store)
    # Writes after the snapshot never reach it.
    for event in later:
        _record(store, event)
    _assert_same(snapshot._methods, methods, "methods")
    _assert_same(snapshot._contexts, contexts, "contexts")


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(
    merges=hst.lists(hst.sampled_from(["shared", "isolated"]),
                     min_size=1, max_size=3),
    by_prefix=hst.booleans(),
    context_sensitive=hst.booleans(),
    writes=hst.lists(hst.tuples(hst.integers(0, 2), _events), max_size=60),
    later=hst.lists(_events, min_size=1, max_size=20),
)
def test_tenant_snapshot_matches_deepcopy(merges, by_prefix,
                                          context_sensitive, writes, later):
    aggregator = SharedProfileAggregator(
        share=share_by_class_prefix("Lib") if by_prefix else None
    )
    stores = [
        aggregator.store_for_tenant(
            merge=merge, context_sensitive=context_sensitive
        )
        for merge in merges
    ]
    for tenant, event in writes:
        _record(stores[tenant % len(stores)], event)
    snapshots = [_assert_snapshot_matches(store) for store in stores]
    for name in _NAMES:
        profile = aggregator._global.get(name)
        merged = aggregator.merged_copy(name)
        if profile is None or profile.invocations == 0:
            assert merged is None
        else:
            _assert_same(merged, copy.deepcopy(profile), name)
            assert not _mutable_ids(merged) & _mutable_ids(profile)
    for event in later:
        _record(stores[0], event)
    for snapshot, (methods, contexts) in snapshots:
        _assert_same(snapshot._methods, methods, "methods")
        _assert_same(snapshot._contexts, contexts, "contexts")


# ----------------------------------------------------------------------
# The fallback after SNAPSHOT_ATTEMPTS racing copies leaves a trace
# ----------------------------------------------------------------------


def _always_racing(monkeypatch):
    def copy_(self):
        raise RuntimeError("dictionary changed size during iteration")

    monkeypatch.setattr(MethodProfile, "copy", copy_)


def _racing_once(monkeypatch):
    real = MethodProfile.copy
    calls = []

    def copy_(self):
        calls.append(self)
        if len(calls) == 1:
            raise RuntimeError("dictionary changed size during iteration")
        return real(self)

    monkeypatch.setattr(MethodProfile, "copy", copy_)
    return calls


def test_snapshot_fallback_is_counted_and_recorded(monkeypatch):
    obs = Observability()
    store = _populated(ProfileStore(obs=obs))
    _always_racing(monkeypatch)
    snapshot = store.snapshot()
    assert len(snapshot) == 0 and not snapshot._contexts
    assert obs.metrics.value("profile.snapshot_fallbacks") == 1
    records = obs.flight.of_kind("profile.snapshot_fallback")
    assert [r["attrs"] for r in records] == [
        {"source": "store", "attempts": SNAPSHOT_ATTEMPTS}
    ]


def test_merged_copy_fallback_is_counted_and_recorded(monkeypatch):
    obs = Observability()
    aggregator = SharedProfileAggregator()
    store = _populated(aggregator.store_for_tenant(obs=obs))
    _always_racing(monkeypatch)
    assert aggregator.merged_copy("Lib.get", obs) is None
    # A compiler read falls back to the tenant-local profile.
    assert store.maybe_of(_Method("Lib.get")) is store._methods["Lib.get"]
    assert obs.metrics.value("profile.snapshot_fallbacks") == 2
    records = obs.flight.of_kind("profile.snapshot_fallback")
    assert [r["attrs"]["source"] for r in records] == ["Lib.get", "Lib.get"]


def test_one_racing_copy_retries_to_a_full_snapshot(monkeypatch):
    obs = Observability()
    store = _populated(ProfileStore(context_sensitive=True, obs=obs))
    expected_methods, expected_contexts = _deepcopy_snapshot(store)
    calls = _racing_once(monkeypatch)
    snapshot = store.snapshot()
    assert len(calls) > 1
    _assert_same(snapshot._methods, expected_methods, "methods")
    _assert_same(snapshot._contexts, expected_contexts, "contexts")
    assert "profile.snapshot_fallbacks" not in obs.metrics
    assert not obs.flight.of_kind("profile.snapshot_fallback")


def test_fallback_is_inert_without_observability(monkeypatch):
    for obs in (None, NULL_OBS):
        store = _populated(ProfileStore(obs=obs))
        _always_racing(monkeypatch)
        assert len(store.snapshot()) == 0
        monkeypatch.undo()
    assert NULL_OBS.metrics.value("profile.snapshot_fallbacks") == 0
    assert len(NULL_OBS.flight) == 0
