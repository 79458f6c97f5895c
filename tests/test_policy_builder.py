"""Stateful test of the policy edit path against a plain-dict model.

Random sequences of ``create_domain``, ``delete_domain``,
``add_property``, ``add_resource``, ``publish`` and ``drop_resource``
run on one ``PolicyBuilder`` and, one pure edit at a time, on a
``PeerPolicy``.  After every step both must agree with a reference model
kept in plain dicts: the same refusals (error type and message), the
same lookups, and equality with the policy built in one step from the
model.  A frozen builder's index is handed over without ``validate``,
so each policy must also equal the policy ``validate`` rebuilds from its
fields, hold the index that rebuild holds, answer every lookup as it
does, and delete each domain as it does.  See MacIver et al.,
"Hypothesis: A new approach to property-based testing", JOSS 2019, for
rule-based state machines.
"""

import itertools

import pytest
from hypothesis import settings, strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from p2psec import (
    DuplicateDomainError,
    DuplicateResourceError,
    Domain,
    PeerPolicy,
    PolicyBuilder,
    PolicyError,
    PolicyValidationError,
    PropertyConflictError,
    PropertyKind,
    PublicationForbiddenError,
    Resource,
    SecurityProperty,
    UnknownDomainError,
    UnknownResourceError,
    UnknownScopeError,
    confidentiality,
    conflicts,
    cooperation,
    nopublication,
)

# Names double as domain names and resource paths, so steps collide.
NAMES = st.sampled_from(("d", "e", "f"))
_PROPERTIES = ([SecurityProperty(kind) for kind in PropertyKind]
               + [confidentiality("partner"), cooperation("partner")])
PROPERTIES = st.sampled_from(_PROPERTIES)
PROPERTY_SETS = st.sampled_from([
    frozenset(combo) for size in range(3)
    for combo in itertools.combinations(_PROPERTIES, size)])

NOPUBLICATION_ON_A_FILE = (PolicyValidationError,
                           "nopublication applies to domains, not resources")


def outcome(lookup, key):
    """What ``lookup(key)`` returns, or the type and message it raises."""
    try:
        return lookup(key)
    except PolicyError as exc:
        return type(exc), str(exc)


def lookups(policy, name):
    """Every lookup of ``name`` as a domain name and as a path."""
    return [outcome(getattr(policy, method), name) for method in (
        "has_domain", "domain", "has_resource", "find_resource",
        "effective_properties")]


def clash(a, b):
    """A kind-level conflict that no explicit target excuses."""
    return conflicts(a.kind, b.kind) and not (a.targets or b.targets)


class PolicyMachine(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.builder = PolicyBuilder()
        self.policy = PeerPolicy()
        self.domains = {}   # name -> (id, properties)
        self.files = {}     # path -> (id, owning domain name, properties)
        self.next_id = 1

    def run(self, method, model_step, *args):
        """Apply ``model_step`` to the model, then ``method`` to the
        builder and as a pure policy edit: the model's refusal (type,
        message), or None, must be what both of them do."""
        refused = model_step(*args)
        pure = getattr(PeerPolicy, method, None) or (
            lambda policy, *args: getattr(policy.thaw(), method)(
                *args).freeze())
        for edit in (lambda: getattr(self.builder, method)(*args),
                     lambda: pure(self.policy, *args)):
            try:
                result = edit()
            except PolicyError as exc:
                assert (type(exc), str(exc)) == refused
            else:
                assert refused is None, refused
        if refused is None:
            self.policy = result

    # -- model steps: each returns its refusal, or applies and returns None

    def model_add_resource(self, path, domain, props):
        if domain not in self.domains:
            return UnknownDomainError, f"unknown domain {domain!r}"
        dom_id, dom_props = self.domains[domain]
        if any(clash(p, q) for p in props for q in dom_props | props):
            return (PropertyConflictError,
                    f"properties conflict in domain {domain!r}")
        if path in self.files:
            return DuplicateResourceError, f"resource {path!r} already exists"
        # Properties the domain already carries are dropped, not stored,
        # so only a nopublication the domain lacks is refused.
        attached = props - dom_props
        if any(p.kind is PropertyKind.NOPUBLICATION for p in attached):
            return NOPUBLICATION_ON_A_FILE
        self.files[path] = (self.next_id, domain, attached)
        self.next_id += 1
        return None

    def model_add_property(self, scope, prop):
        if scope in self.domains:
            dom_id, props = self.domains[scope]
            present = props.union(*(p for _, d, p in self.files.values()
                                    if d == scope))
            if prop in props:
                return None
            if any(clash(prop, q) for q in present):
                return (PropertyConflictError,
                        f"{prop.render()} conflicts at domain {scope!r}")
            self.domains[scope] = (dom_id, props | {prop})
            return None
        if scope in self.files:
            file_id, domain, props = self.files[scope]
            effective = self.domains[domain][1] | props
            if prop in effective:
                return None
            if any(clash(prop, q) for q in effective):
                return (PropertyConflictError,
                        f"{prop.render()} conflicts at resource {scope!r}")
            if prop.kind is PropertyKind.NOPUBLICATION:
                return NOPUBLICATION_ON_A_FILE
            self.files[scope] = (file_id, domain, props | {prop})
            return None
        return UnknownScopeError, f"no domain or resource named {scope!r}"

    # -- rules ---------------------------------------------------------

    @rule(name=NAMES)
    def create_domain(self, name):
        def model(name):
            if name in self.domains:
                return DuplicateDomainError, f"domain {name!r} already exists"
            self.domains[name] = (self.next_id, frozenset())
            self.next_id += 1
            return None
        self.run("create_domain", model, name)

    @rule(name=NAMES)
    def delete_domain(self, name):
        def model(name):
            if name not in self.domains:
                return UnknownDomainError, f"unknown domain {name!r}"
            del self.domains[name]
            self.files = {path: f for path, f in self.files.items()
                          if f[1] != name}
            return None
        self.run("delete_domain", model, name)

    @rule(scope=NAMES, prop=PROPERTIES)
    def add_property(self, scope, prop):
        self.run("add_property", self.model_add_property, scope, prop)

    @rule(path=NAMES, domain=NAMES, props=PROPERTY_SETS)
    def add_resource(self, path, domain, props):
        self.run("add_resource", self.model_add_resource, path, domain,
                 props)

    @rule(props=PROPERTY_SETS, path=NAMES, domain=NAMES)
    def publish(self, props, path, domain):
        def model(props, path, domain):
            if domain not in self.domains:
                return UnknownDomainError, f"unknown domain {domain!r}"
            if any(p.kind is PropertyKind.NOPUBLICATION for p in props):
                return NOPUBLICATION_ON_A_FILE
            if any(p.kind is PropertyKind.NOPUBLICATION
                   for p in self.domains[domain][1]):
                return (PublicationForbiddenError,
                        f"domain {domain!r} forbids publication")
            return self.model_add_resource(path, domain, props)
        self.run("publish", model, props, path, domain)

    @rule(path=NAMES)
    def drop_resource(self, path):
        def model(path):
            if path not in self.files:
                return UnknownResourceError, f"unknown resource {path!r}"
            del self.files[path]
            return None
        self.run("drop_resource", model, path)

    # -- checks --------------------------------------------------------

    @invariant()
    def agrees_with_the_model(self):
        ids = {name: dom_id for name, (dom_id, _) in self.domains.items()}
        one_step = PeerPolicy(tuple(
            Domain(dom_id, name, props)
            for name, (dom_id, props) in self.domains.items()), tuple(
            Resource(file_id, path, ids[domain], props)
            for path, (file_id, domain, props) in self.files.items()),
            self.next_id)
        for policy in (self.builder.freeze(), self.policy):
            assert policy == one_step
            self.check_handover(policy)
            for name in ("d", "e", "f"):
                self.check_lookups(policy, name)

    def check_handover(self, policy):
        """A frozen builder hands its index over unchecked; it must be
        what ``validate`` builds from the same fields."""
        rebuilt = PeerPolicy(policy.domains, policy.resources,
                             policy.next_id)
        assert policy == rebuilt
        assert vars(policy._index) == vars(rebuilt._index)
        for name in ("d", "e", "f"):
            assert lookups(policy, name) == lookups(rebuilt, name)
        for dom_id in range(self.next_id + 1):
            assert (outcome(policy.domain_by_id, dom_id)
                    == outcome(rebuilt.domain_by_id, dom_id))
        for name in self.domains:
            assert (policy.thaw().delete_domain(name).freeze()
                    == rebuilt.thaw().delete_domain(name).freeze())

    def check_lookups(self, policy, name):
        assert policy.has_domain(name) is (name in self.domains)
        if name in self.domains:
            dom_id, props = self.domains[name]
            checked = Domain(dom_id, name, props)
            assert policy.domain(name) == checked
            assert policy.domain(name).kinds == checked.kinds
            assert policy.domain_by_id(dom_id).name == name
        else:
            self.assert_refused(policy.domain, name, UnknownDomainError,
                                f"unknown domain {name!r}")
        assert policy.has_resource(name) is (name in self.files)
        if name in self.files:
            file_id, domain, props = self.files[name]
            assert policy.find_resource(name).id == file_id
            assert (policy.effective_properties(name)
                    == self.domains[domain][1] | props)
        else:
            self.assert_refused(policy.find_resource, name,
                                UnknownResourceError,
                                f"unknown resource {name!r}")

    @staticmethod
    def assert_refused(lookup, key, error, message):
        try:
            lookup(key)
        except PolicyError as exc:
            assert (type(exc), str(exc)) == (error, message)
        else:
            raise AssertionError(f"{lookup.__name__}({key!r}) succeeded")


PolicyMachine.TestCase.settings = settings(
    max_examples=100, stateful_step_count=25, deadline=None)
TestPolicyBuilder = PolicyMachine.TestCase


#: Refusals a builder step makes itself, before it builds its value
#: unchecked, with the wording ``Domain`` and ``Resource`` give the same
#: faults: (step, its arguments, the checked build that refuses alike).
STEP_REFUSALS = [
    ("create_domain", ("",), lambda: Domain(9, ""),
     "domain name must be non-empty"),
    ("add_resource", ("", "d"), lambda: Resource(9, "", 1),
     "resource path must be non-empty"),
    ("add_resource", ("p", "d", (nopublication(),)),
     lambda: Resource(9, "p", 1, (nopublication(),)),
     NOPUBLICATION_ON_A_FILE[1]),
    ("add_property", ("f", nopublication()),
     lambda: Resource(9, "f", 1, (nopublication(),)),
     NOPUBLICATION_ON_A_FILE[1]),
]


@pytest.mark.parametrize("method, args, build, message", STEP_REFUSALS,
                         ids=[f"{row[0]}{row[1]!r}" for row in STEP_REFUSALS])
def test_a_step_refuses_what_the_checked_value_refuses(method, args, build,
                                                       message):
    """Through the builder and through the ``PeerPolicy`` edit, a step
    raises ``PolicyValidationError`` with the wording of the checked
    value, and leaves the builder as it was."""
    builder = PolicyBuilder().create_domain("d").add_resource("f", "d")
    before = builder.freeze()
    for edit in (getattr(builder, method), getattr(before, method)):
        with pytest.raises(PolicyValidationError) as refused:
            edit(*args)
        assert type(refused.value) is PolicyValidationError
        assert str(refused.value) == message
    assert builder.freeze() == before
    with pytest.raises(PolicyValidationError, match=f"^{message}$"):
        build()


@pytest.mark.parametrize("scope, prop", [
    ("d", SecurityProperty(PropertyKind.NOSHARE)),
    ("d", SecurityProperty(PropertyKind.INTEGRITY)),      # already held
    ("d", SecurityProperty(PropertyKind.COOPERATION, frozenset({"x"}))),
    ("f", SecurityProperty(PropertyKind.CONFIDENTIALITY)),
    ("f", SecurityProperty(PropertyKind.INTEGRITY)),      # implied
    ("f", SecurityProperty(PropertyKind.SPREAD)),         # refused
])
def test_an_add_property_step_hashes_the_property_once(monkeypatch, scope,
                                                       prop):
    """The step hashes the new property once, whether it adds it, finds
    it already there or refuses it."""
    builder = (PolicyBuilder().create_domain("d")
               .add_property("d", SecurityProperty(PropertyKind.INTEGRITY))
               .add_resource("f", "d", (confidentiality(),)))
    hashes = []
    unhooked = SecurityProperty.__hash__

    def counted(self):
        hashes.append(self)
        return unhooked(self)
    monkeypatch.setattr(SecurityProperty, "__hash__", counted)
    try:
        builder.add_property(scope, prop)
    except PropertyConflictError:
        assert prop.kind is PropertyKind.SPREAD
    assert hashes == [prop]
