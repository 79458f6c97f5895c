"""Property model and local policy operations."""

from dataclasses import replace

import pytest

from p2psec import (
    CONFLICTING_KIND_PAIRS,
    Domain,
    DuplicateDomainError,
    DuplicateResourceError,
    PeerPolicy,
    PolicyValidationError,
    PropertyConflictError,
    PropertyKind,
    PublicationForbiddenError,
    Resource,
    SecurityProperty,
    UnknownDomainError,
    UnknownScopeError,
    confidentiality,
    conflicts,
    cooperation,
    integrity,
    nopublication,
    noshare,
    property_set_conflicts,
    render_properties,
    sort_properties,
    spread,
)

# Independently transcribed conflict truth table, rows and columns in
# kind declaration order.  An "x" marks a conflicting ordered pair.
MATRIX = {
    "confidentiality": {"spread": "x", "cooperation": "x"},
    "integrity": {},
    "noshare": {"spread": "x", "cooperation": "x"},
    "nopublication": {},
    "cooperation": {"confidentiality": "x", "noshare": "x"},
    "spread": {"confidentiality": "x", "noshare": "x"},
}


def test_kind_values():
    assert [k.value for k in PropertyKind] == [
        "confidentiality", "integrity", "noshare", "nopublication",
        "cooperation", "spread"]


def test_conflict_matrix_matches_truth_table():
    ordered = 0
    for a in PropertyKind:
        for b in PropertyKind:
            expected = MATRIX[a.value].get(b.value) == "x"
            assert conflicts(a, b) is expected, (a, b)
            ordered += int(expected)
    assert ordered == 8
    assert len(CONFLICTING_KIND_PAIRS) == 4


def test_conflicts_is_irreflexive():
    for kind in PropertyKind:
        assert not conflicts(kind, kind)


def test_property_targets_only_on_targeted_kinds():
    assert confidentiality("work").targets == frozenset({"work"})
    assert cooperation("a", "b").targets == frozenset({"a", "b"})
    with pytest.raises(PolicyValidationError):
        SecurityProperty(PropertyKind.INTEGRITY, frozenset({"work"}))
    with pytest.raises(PolicyValidationError):
        SecurityProperty(PropertyKind.SPREAD, frozenset({"work"}))


def test_property_render():
    assert integrity().render() == "integrity"
    assert confidentiality("b", "a").render() == "confidentiality(a, b)"
    assert render_properties([]) == "null"
    assert render_properties([spread(), integrity()]) == "[integrity, spread]"


def test_sort_properties_orders_by_kind_then_targets():
    props = [spread(), confidentiality("z"), confidentiality("a"), integrity()]
    assert [p.render() for p in sort_properties(props)] == [
        "confidentiality(a)", "confidentiality(z)", "integrity", "spread"]


def test_property_set_conflicts_kind_level():
    pairs = property_set_conflicts((confidentiality(),), (spread(),))
    assert len(pairs) == 1
    assert pairs[0] == (confidentiality(), spread())
    assert not property_set_conflicts((integrity(),), (spread(),))


def test_property_set_conflicts_scoped_exception():
    scoped = (cooperation("partner"),)
    plain = (confidentiality(),)
    assert not property_set_conflicts(plain, scoped)


class TestPeerPolicy:
    def build(self):
        policy = PeerPolicy()
        policy = policy.create_domain("work")
        policy = policy.add_property("work", confidentiality())
        return policy

    def test_create_domain_assigns_unique_ids(self):
        policy = self.build().create_domain("play")
        ids = [d.id for d in policy.domains]
        assert len(set(ids)) == len(ids)

    def test_duplicate_domain_rejected(self):
        with pytest.raises(DuplicateDomainError):
            self.build().create_domain("work")

    def test_add_conflicting_property_rejected(self):
        with pytest.raises(PropertyConflictError) as err:
            self.build().add_property("work", spread())
        assert str(err.value) == "spread conflicts at domain 'work'"

    def test_scoped_property_is_whitelisted_locally(self):
        policy = self.build().add_property("work", cooperation("partner"))
        assert cooperation("partner") in policy.domain("work").properties

    def test_unscoped_conflicting_property_still_rejected(self):
        with pytest.raises(PropertyConflictError):
            self.build().add_property("work", cooperation())

    def test_add_property_unknown_scope(self):
        with pytest.raises(UnknownScopeError):
            self.build().add_property("nowhere", integrity())

    def test_domain_property_conflicting_with_a_file_rejected(self):
        policy = PeerPolicy().create_domain("d").add_resource(
            "f", "d", (spread(),))
        with pytest.raises(PropertyConflictError) as err:
            policy.add_property("d", confidentiality())
        assert str(err.value) == "confidentiality conflicts at domain 'd'"
        scoped = policy.add_property("d", confidentiality("partner"))
        assert scoped.conflict_report() == ()

    def test_resource_effective_properties_union(self):
        policy = self.build().add_resource("report.pdf", "work",
                                           (integrity(),))
        effective = policy.effective_properties("report.pdf")
        assert effective == frozenset({confidentiality(), integrity()})

    def test_delete_domain_removes_resources(self):
        policy = self.build().add_resource("report.pdf", "work")
        policy = policy.delete_domain("work")
        assert not policy.has_domain("work")
        assert not policy.has_resource("report.pdf")

    def test_delete_unknown_domain(self):
        with pytest.raises(UnknownDomainError):
            self.build().delete_domain("nope")

    def test_duplicate_resource_path_rejected(self):
        policy = self.build().create_domain("play").add_resource(
            "report.pdf", "work")
        for domain in ("work", "play"):
            with pytest.raises(DuplicateResourceError):
                policy.add_resource("report.pdf", domain)

    def test_duplicate_resource_path_checked_after_domain_and_properties(
            self):
        policy = self.build().add_resource("report.pdf", "work")
        with pytest.raises(UnknownDomainError):
            policy.add_resource("report.pdf", "nowhere")
        with pytest.raises(PropertyConflictError):
            policy.add_resource("report.pdf", "work", (spread(),))


class TestPublication:
    def company_policy(self):
        policy = PeerPolicy()
        policy = policy.create_domain("private_company_A")
        return policy.add_property("private_company_A", confidentiality())

    def test_publish_dedups_implied_properties(self):
        # The domain already ensures confidentiality; publishing must
        # attach only the integrity property to the file itself.
        policy = self.company_policy().publish(
            (confidentiality(), integrity()), "reportA.pdf",
            "private_company_A")
        resource = policy.find_resource("reportA.pdf")
        assert resource.properties == frozenset({integrity()})
        assert policy.effective_properties("reportA.pdf") == frozenset(
            {confidentiality(), integrity()})

    def test_publish_into_nopublication_domain_refused(self):
        policy = PeerPolicy().create_domain("sealed")
        policy = policy.add_property("sealed", nopublication())
        with pytest.raises(PublicationForbiddenError):
            policy.publish((), "x.txt", "sealed")

    def test_publish_conflicting_properties_refused(self):
        with pytest.raises(PropertyConflictError):
            self.company_policy().publish((spread(),), "leak.txt",
                                          "private_company_A")

    def test_publish_nopublication_property_rejected(self):
        with pytest.raises(PolicyValidationError):
            self.company_policy().publish((nopublication(),), "x.txt",
                                          "private_company_A")

    def test_publish_unknown_domain(self):
        with pytest.raises(UnknownDomainError):
            self.company_policy().publish((), "x.txt", "elsewhere")

    def test_publish_held_path_refused(self):
        policy = self.company_policy().publish((), "x.txt",
                                               "private_company_A")
        with pytest.raises(DuplicateResourceError):
            policy.publish((integrity(),), "x.txt", "private_company_A")
        # The domain's own refusals keep their precedence.
        with pytest.raises(PropertyConflictError):
            policy.publish((spread(),), "x.txt", "private_company_A")


def test_conflict_report_lists_scoped_pairs():
    policy = PeerPolicy().create_domain("d")
    policy = policy.add_property("d", confidentiality())
    policy = policy.add_property("d", cooperation("partner"))
    report = policy.conflict_report()
    assert report == ()


def test_noshare_and_spread_conflict_via_add():
    policy = PeerPolicy().create_domain("d")
    policy = policy.add_property("d", noshare())
    with pytest.raises(PropertyConflictError):
        policy.add_property("d", spread())


def test_validate_accepts_built_policies():
    policy = PeerPolicy().create_domain("d")
    policy = policy.add_resource("f", "d")
    policy.validate()


def test_validate_rejects_duplicate_resource_paths():
    # Building the value validates it, so a broken policy never exists.
    policy = PeerPolicy().create_domain("d").add_resource("f", "d")
    with pytest.raises(PolicyValidationError, match="duplicate resource "
                                                    "path 'f'"):
        replace(policy, resources=policy.resources + (
            Resource(id=policy.next_id, path="f", domain_id=1),),
            next_id=policy.next_id + 1)


@pytest.mark.parametrize("build, message", [
    (lambda: SecurityProperty(PropertyKind.COOPERATION, frozenset({""})),
     "empty target domain name"),
    (lambda: Domain(1, ""), "domain name must be non-empty"),
    (lambda: Resource(2, "", 1), "resource path must be non-empty"),
    (lambda: PeerPolicy(domains=(Domain(1, "a"), Domain(1, "b")),
                        next_id=2), "duplicate id 1"),
    (lambda: PeerPolicy(domains=(Domain(1, "a"),),
                        resources=(Resource(1, "f", 1),), next_id=2),
     "duplicate id 1"),
    (lambda: PeerPolicy(domains=(Domain(1, "a"),),
                        resources=(Resource(2, "f", 9),), next_id=3),
     "resource 'f' owned by unknown domain id 9"),
], ids=["empty-target", "empty-domain-name", "empty-resource-path",
        "repeated-domain-id", "resource-id-is-a-domain-id",
        "undeclared-owner"])
def test_a_code_built_value_breaking_an_invariant_is_refused(build, message):
    with pytest.raises(PolicyValidationError) as err:
        build()
    assert str(err.value) == message
