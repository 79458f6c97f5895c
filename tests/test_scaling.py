"""An edit costs the size of the change, not the size of the policy.

Each edit below is profiled on ``synthetic_policy`` at three sizes, and
the number of Python-level calls it makes must not grow with the
policy.  Counting calls instead of timing them keeps the test free of
host noise.
"""

import cProfile
import pstats

import pytest

from p2psec import Resource, apply_transfer, integrity, synthetic_policy

SIZES = (250, 500, 1000)
# Index 7 of the synthetic mixes: no properties and two files.
DOMAIN = "dom00007"

EDITS = {
    "add_property": lambda policy: policy.add_property(DOMAIN, integrity()),
    "publish": lambda policy: policy.publish((), "/new/file", DOMAIN),
    "create_domain": lambda policy: policy.create_domain("fresh"),
    "delete_domain": lambda policy: policy.delete_domain(DOMAIN),
    "apply_transfer": lambda policy: apply_transfer(
        policy, Resource(1, "/received/file", 1), DOMAIN),
}


def calls(edit, policy):
    """Python-level calls one ``edit(policy)`` makes, after a warm-up
    run so that first-use caches are not counted."""
    edit(policy)
    profile = cProfile.Profile()
    profile.runcall(edit, policy)
    return pstats.Stats(profile).total_calls


@pytest.fixture(scope="module")
def policies():
    built = [synthetic_policy(size) for size in SIZES]
    for policy in built:
        assert not policy.domain(DOMAIN).properties
        assert policy.has_resource(f"/srv/{DOMAIN}/file1")
    return built


@pytest.mark.parametrize("name", sorted(EDITS))
def test_an_edit_makes_as_many_calls_at_every_size(name, policies):
    counts = [calls(EDITS[name], policy) for policy in policies]
    assert counts[0] == counts[1] == counts[2], counts
