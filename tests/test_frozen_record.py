"""``policy.frozen_record``: every frozen dataclass of the package builds
through it, and behaves as the stdlib ``dataclass(frozen=True)`` twin
of its class: the same constructor signature, refusals, equality, hash,
repr and ``replace``, and assignment still raises."""

import importlib
import inspect
import pkgutil
from dataclasses import (FrozenInstanceError, dataclass, field, fields,
                         is_dataclass, replace)

import pytest

import p2psec
from p2psec import (
    AvcRecord,
    Band,
    BehaviorModel,
    Challenge,
    Decision,
    Domain,
    HistoryRecord,
    HistoryScore,
    NegotiationSession,
    Outcome,
    PeerPolicy,
    PermissionClass,
    PolicySlice,
    PolicyValidationError,
    PopulationParams,
    PropertyKind,
    Resource,
    SecurityContext,
    SecurityProperty,
    TrustComputation,
    TrustConfig,
    confidentiality,
    integrity,
)
from p2psec.bench import BenchPoint, BenchReport, LinearFit
from p2psec.mac import CompiledPolicy, MacRuleSet, Permission, VerifyResult
from p2psec.policy import frozen_record
from p2psec.policy_xml import DocDomain, DocFile, DocProperty, PolicyDocument
from p2psec.simnet import (
    AskAction,
    BehaviorStats,
    EditAction,
    EditRecord,
    ExperimentReport,
    NegotiationRecord,
    PeerDecl,
    RunReport,
    Scenario,
    ShowAction,
    ShowRecord,
)

MODULES = [importlib.import_module(f"p2psec.{info.name}")
           for info in pkgutil.iter_modules(p2psec.__path__)]

#: Every frozen dataclass of the package.
FROZEN = sorted({cls for module in MODULES for cls in vars(module).values()
                 if isinstance(cls, type) and cls.__module__ == module.__name__
                 and is_dataclass(cls) and cls.__dataclass_params__.frozen},
                key=lambda cls: (cls.__module__, cls.__name__))

_CONTEXT = SecurityContext("u", "r", "t")
_POLICY = PeerPolicy((Domain(1, "d"),), (Resource(2, "f", 1),), 3)
_ASK = AskAction("a", "b", "f", "d")
_COMPUTATION = TrustComputation(1, HistoryScore.CLEAN, 1.0, 1.0, 1.0,
                                Band.FULL, 0.5)


def _avc(pid):
    return AvcRecord("1.000", "1", Decision.DENIED, frozenset({"read"}), pid,
                     "cat", "f", "sda3", 7, _CONTEXT, _CONTEXT, "file")


#: Two unequal values of each class, each built by its constructor.
SAMPLES = {
    BenchPoint: (BenchPoint(10, 10, 1.5), BenchPoint(20, 20, 2.5)),
    LinearFit: (LinearFit(1.0, 0.0, 1.0), LinearFit(2.0, 0.5, 0.9)),
    BenchReport: (BenchReport((BenchPoint(1, 1, 1.0),), LinearFit(1, 0, 1),
                              None),
                  BenchReport((), LinearFit(1, 0, 1), LinearFit(2, 0, 1))),
    Permission: (Permission(PermissionClass.FILE, "read"),
                 Permission(PermissionClass.DIR, "search")),
    MacRuleSet: (MacRuleSet(), MacRuleSet(frozenset(
        {Permission(PermissionClass.FILE, "read")}))),
    SecurityContext: (_CONTEXT, SecurityContext("u", "s", "t")),
    CompiledPolicy: (CompiledPolicy({}, {}, {}, {}),
                     CompiledPolicy({"d": MacRuleSet()}, {}, {}, {})),
    AvcRecord: (_avc(1), _avc(2)),
    Challenge: (Challenge(_CONTEXT, "cat", "/f", Decision.DENIED,
                          frozenset({"read"}), _CONTEXT),
                Challenge(_CONTEXT, "vim", "/f", Decision.GRANTED,
                          frozenset(), _CONTEXT)),
    VerifyResult: (VerifyResult(True, "ok"), VerifyResult(False, "no")),
    PolicySlice: (PolicySlice("d"), PolicySlice("d", [integrity()])),
    NegotiationSession: (NegotiationSession(Resource(2, "f", 1), "d", ()),
                         NegotiationSession(Resource(2, "f", 1), "d",
                                            (integrity(),))),
    SecurityProperty: (confidentiality("a"), confidentiality("b")),
    Domain: (Domain(1, "d"), Domain(1, "d", [integrity()])),
    Resource: (Resource(2, "f", 1), Resource(2, "g", 1)),
    PeerPolicy: (_POLICY, PeerPolicy()),
    DocProperty: (DocProperty("integrity"), DocProperty("cooperation", (1,))),
    DocDomain: (DocDomain(1, "d"), DocDomain(1, "e")),
    DocFile: (DocFile(2, "f", 1), DocFile(2, "f", 1,
                                          (DocProperty("integrity"),))),
    PolicyDocument: (PolicyDocument(), PolicyDocument((DocDomain(1, "d"),))),
    PeerDecl: (PeerDecl("a", "A", _POLICY),
               PeerDecl("a", "A", _POLICY, BehaviorModel.LOG_FORGER,
                        (("b", 0.5),))),
    AskAction: (_ASK, AskAction("a", "b", "f", "e")),
    EditAction: (EditAction("a", "create_domain", ("d",)),
                 EditAction("a", "delete_domain", ("d",))),
    ShowAction: (ShowAction("a"), ShowAction("b")),
    Scenario: (Scenario(), Scenario(seed=3)),
    NegotiationRecord: (NegotiationRecord(_ASK, Outcome.REFUSED,
                                          BehaviorModel.HONEST),
                        NegotiationRecord(_ASK, Outcome.ACCEPTED,
                                          BehaviorModel.HONEST,
                                          ((integrity(), _COMPUTATION),),
                                          0, 0, "d", PolicySlice("d"), 1)),
    EditRecord: (EditRecord(EditAction("a", "create_domain", ("d",))),
                 EditRecord(EditAction("a", "create_domain", ("d",)),
                            "refused")),
    ShowRecord: (ShowRecord("a", _POLICY), ShowRecord("a", PeerPolicy())),
    RunReport: (RunReport(0, (), (), {}, TrustConfig()),
                RunReport(1, (), (("a", "b", 0.5),), {"a": "A"},
                          TrustConfig())),
    PopulationParams: (PopulationParams(), PopulationParams(seed=1)),
    BehaviorStats: (BehaviorStats(), BehaviorStats(1, 2)),
    ExperimentReport: (ExperimentReport(1, {}, 0, 0),
                       ExperimentReport(1, {BehaviorModel.HONEST:
                                            BehaviorStats(1, 0)}, 0, 0)),
    TrustConfig: (TrustConfig(), TrustConfig(refuse_threshold=0.1)),
    HistoryRecord: (HistoryRecord(1, "a", PropertyKind.INTEGRITY),
                    HistoryRecord(1, "a", PropertyKind.INTEGRITY, True, "b")),
    TrustComputation: (_COMPUTATION, replace(_COMPUTATION, tv=0.1)),
}

#: Arguments each class that checks its values refuses.
REFUSED = {
    Permission: (PermissionClass.FILE, "search"),
    SecurityContext: ("u r", "r", "t"),
    AvcRecord: ("1.000", "1", Decision.DENIED, frozenset({"read"}), -1,
                "cat", "f", "sda3", 7, _CONTEXT, _CONTEXT, "file"),
    Challenge: (_CONTEXT, "c a t", "/f", Decision.DENIED,
                frozenset({"read"}), _CONTEXT),
    SecurityProperty: (PropertyKind.INTEGRITY, frozenset({"x"})),
    Domain: (1, ""),
    Resource: (2, "", 1),
    PeerPolicy: ((Domain(1, "d"), Domain(1, "e")), (), 2),
    PolicyDocument: ([DocDomain(1, "d")],),
    Scenario: (0, (PeerDecl("a", "", _POLICY),)),
    PopulationParams: (0, 0),
    TrustConfig: (0.9,),
}

#: What ``dataclass`` and ``frozen_record`` add to a class.
_MADE = {"__init__", "__repr__", "__eq__", "__hash__", "__setattr__",
         "__delattr__", "__dataclass_fields__", "__dataclass_params__",
         "__match_args__", "__dict__", "__weakref__", "unchecked"}


def stdlib_twin(cls):
    """``cls`` as ``dataclass(frozen=True)`` alone makes it: its own
    methods and the same fields, without ``frozen_record``."""
    namespace = {name: value for name, value in vars(cls).items()
                 if name not in _MADE}
    namespace["__qualname__"] = cls.__qualname__
    for f in fields(cls):
        namespace[f.name] = field(default=f.default, init=f.init,
                                  repr=f.repr, hash=f.hash,
                                  compare=f.compare)
    return dataclass(frozen=True)(type(cls.__name__, (), namespace))


def init_values(value):
    return {f.name: getattr(value, f.name) for f in fields(value) if f.init}


def hashed(value):
    try:
        return hash(value)
    except TypeError as exc:
        return str(exc)


def test_every_frozen_dataclass_has_samples():
    assert set(SAMPLES) == set(FROZEN)


@pytest.mark.parametrize("cls", FROZEN, ids=lambda cls: cls.__name__)
def test_a_frozen_record_behaves_as_its_stdlib_twin(cls):
    twin = stdlib_twin(cls)
    assert inspect.signature(cls) == inspect.signature(twin)
    assert [f.name for f in fields(cls)] == [f.name for f in fields(twin)]
    a, b = SAMPLES[cls]
    twins = [twin(**init_values(value)) for value in (a, b)]
    assert a != b and twins[0] != twins[1]
    for value, value_twin in zip((a, b), twins):
        assert cls(**init_values(value)) == value
        assert cls(*init_values(value).values()) == value
        # Fields left out of the comparison too, as __post_init__ sets them.
        assert all(getattr(value, f.name) == getattr(value_twin, f.name)
                   for f in fields(cls))
        assert repr(value) == repr(value_twin)
        assert hashed(value) == hashed(value_twin)
        for f in fields(cls):
            with pytest.raises(FrozenInstanceError):
                setattr(value, f.name, None)
            with pytest.raises(FrozenInstanceError):
                delattr(value, f.name)
    changed = replace(a, **init_values(b))
    assert changed == b and type(changed) is cls
    assert repr(changed) == repr(replace(twins[0], **init_values(b)))
    with pytest.raises(TypeError):
        cls(*init_values(a).values(), None)
    if cls in REFUSED:
        refusals = []
        for build in (cls, twin):
            with pytest.raises(p2psec.P2PSecError if cls is not
                               PopulationParams else ValueError) as caught:
                build(*REFUSED[cls])
            refusals.append((type(caught.value), str(caught.value)))
        assert refusals[0] == refusals[1]


def test_every_class_that_checks_has_a_refusal():
    checking = {cls for cls in FROZEN if hasattr(cls, "__post_init__")}
    # A slice's __post_init__ derives its kinds and refuses nothing.
    assert checking - set(REFUSED) == {PolicySlice}


@pytest.mark.parametrize("cls", [cls for cls in FROZEN
                                 if hasattr(cls, "__post_init__")],
                         ids=lambda cls: cls.__name__)
def test_unchecked_builds_what_the_checked_constructor_builds(cls):
    """``unchecked`` takes every field, in order, and runs no check."""
    for value in SAMPLES[cls]:
        every = [getattr(value, f.name) for f in fields(cls)]
        built = cls.unchecked(*every)
        assert built == value and type(built) is cls
        assert [getattr(built, f.name) for f in fields(cls)] == every


def test_unchecked_runs_no_check():
    domain = Domain.unchecked(1, "", frozenset(), frozenset())
    assert domain.name == ""
    with pytest.raises(PolicyValidationError):
        Domain(1, "")


@pytest.mark.parametrize("namespace", [
    {"__annotations__": {"x": "list"}, "x": field(default_factory=list)},
    {"__annotations__": {"x": "int"}, "x": field(kw_only=True)},
    {"__annotations__": {"x": "int"}, "x": field(default=0, init=False)},
    {"__annotations__": {"x": "int"}, "__post_init__": lambda self: None,
     "unchecked": classmethod(lambda cls: None)},
], ids=["default_factory", "kw_only", "init-false-default", "own-unchecked"])
def test_what_the_decorator_cannot_build_is_refused(namespace):
    with pytest.raises(TypeError, match="frozen_record cannot build"):
        frozen_record(type("Refused", (), namespace))
