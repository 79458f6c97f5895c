"""Seeded input generators for the three benchmark workloads.

Standard library only: policies are written as XML bytes and scenarios
as scenario text directly, never through the package under test, so
that generating an input costs the same at every commit and set-up time
does not time the program.  Every op input is a pure function of
``(seed, index)``; the warm-up op uses index ``-1``.

Each generator also returns what the checks in ``checks.py`` need to
judge the output independently: the reference data for the compile
projection, and the expected outcome of each scenario ask.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

# Kind names and the conflict relation, copied from the paper's
# conflict matrix (criterion 1) rather than imported from the package.
CONF, INTEG, NOSHARE, NOPUB, COOP, SPREAD = (
    "confidentiality", "integrity", "noshare", "nopublication",
    "cooperation", "spread")
KINDS = (CONF, INTEG, NOSHARE, NOPUB, COOP, SPREAD)
PROHIBITIONS = frozenset({CONF, INTEG, NOSHARE, NOPUB})
CONFLICTS = {
    CONF: {SPREAD, COOP},
    INTEG: set(),
    NOSHARE: {SPREAD, COOP},
    NOPUB: set(),
    COOP: {CONF, NOSHARE},
    SPREAD: {CONF, NOSHARE},
}

#: Golden-ratio step: op sizes follow a low-discrepancy sequence that is
#: the same for every seed, so the size mix of a run does not depend on
#: the seed and only the content does.
_STEP = 0.6180339887498949


def _rng(workload: str, seed: int, index: int) -> random.Random:
    return random.Random(f"{workload}:{seed}:{index}")


def _spread_fraction(index: int) -> float:
    return ((index + 1) * _STEP) % 1.0


def _compatible(kind: str, present) -> bool:
    return not any(other in CONFLICTS[kind] for other in present)


# ---------------------------------------------------------------------------
# compile: one XML policy document
# ---------------------------------------------------------------------------

#: Domain kind mixes; none holds a kind-level conflict, and together
#: they cover every kind.
_DOMAIN_MIXES = (
    (), (CONF,), (INTEG,), (NOSHARE,), (NOPUB,), (COOP,), (SPREAD,),
    (CONF, INTEG), (INTEG, COOP), (NOPUB, SPREAD), (CONF, INTEG, NOSHARE),
    (INTEG, NOPUB, COOP),
)
#: Kinds a single file may carry (nopublication is domain-only).
_FILE_KINDS = (CONF, INTEG, NOSHARE, COOP, SPREAD)
_DOMAIN_WORDS = ("alpha", "beta", "home", "work", "lab", "vault", "share",
                 "media", "docs", "build")

MIN_DOMAINS = 1000
MAX_DOMAINS = 1500


@dataclass(frozen=True)
class CompileInput:
    """One policy document plus the facts the reference projection needs.

    ``domains`` holds (name, kinds) per domain in document order and
    ``files`` holds (path, owning domain name, file-level kinds).
    """

    data: bytes
    domains: tuple[tuple[str, frozenset[str]], ...]
    files: tuple[tuple[str, str, frozenset[str]], ...]

    @property
    def units(self) -> int:
        return len(self.domains)


def _targets(rng: random.Random, domain_count: int) -> list[int]:
    """One or two target ids: a declared domain or an ``ext:`` id."""
    targets = set()
    for _ in range(rng.randint(1, 2)):
        if rng.random() < 0.5:
            targets.add(rng.randint(1, domain_count))
        else:
            targets.add(900000 + rng.randrange(100000))
    return sorted(targets)


def _property_lines(rng: random.Random, kind: str,
                    domain_count: int) -> list[str]:
    if kind in (CONF, COOP) and rng.random() < 0.3:
        lines = [f'    <property type="{kind}">']
        lines.extend(f'      <target domainid="{t}"/>'
                     for t in _targets(rng, domain_count))
        lines.append("    </property>")
        return lines
    return [f'    <property type="{kind}"/>']


def _element(open_tag: str, tag: str, body: list[str]) -> list[str]:
    if not body:
        return [open_tag + "/>"]
    return [open_tag + ">"] + body + [f"  </{tag}>"]


def compile_input(seed: int, index: int) -> CompileInput:
    """A policy of 1000-1500 domains with 1-3 files each."""
    rng = _rng("compile", seed, index)
    domain_count = MIN_DOMAINS + int(
        (MAX_DOMAINS - MIN_DOMAINS) * _spread_fraction(index))
    domain_lines: list[str] = []
    file_lines: list[str] = []
    domains = []
    files = []
    next_file_id = domain_count + 1
    for dom_id in range(1, domain_count + 1):
        name = f"{rng.choice(_DOMAIN_WORDS)}_{dom_id:05d}"
        kinds = rng.choice(_DOMAIN_MIXES)
        body: list[str] = []
        for kind in kinds:
            body.extend(_property_lines(rng, kind, domain_count))
        domain_lines.extend(_element(
            f'  <domain id="{dom_id}" name="{name}"', "domain", body))
        domains.append((name, frozenset(kinds)))
        for fileno in range(rng.randint(1, 3)):
            path = f"/srv/{name}/f{fileno}_{rng.randrange(1000):03d}.dat"
            file_kinds: tuple[str, ...] = ()
            if rng.random() < 0.3:
                choices = [k for k in _FILE_KINDS if _compatible(k, kinds)]
                file_kinds = (rng.choice(choices),)
            body = []
            for kind in file_kinds:
                body.extend(_property_lines(rng, kind, domain_count))
            file_lines.extend(_element(
                f'  <file id="{next_file_id}" path="{path}" '
                f'domainid="{dom_id}"', "file", body))
            files.append((path, name, frozenset(file_kinds)))
            next_file_id += 1
    text = "\n".join(["<policy>"] + domain_lines + file_lines
                     + ["</policy>"]) + "\n"
    return CompileInput(data=text.encode("utf-8"), domains=tuple(domains),
                        files=tuple(files))


# ---------------------------------------------------------------------------
# simulate: one scenario text
# ---------------------------------------------------------------------------

Prop = tuple[str, tuple[str, ...]]   # (kind, sorted targets)

#: Owner domain mixes.  Each carries a prohibition, so a peer that
#: enforces nothing always fails a probe, and none holds a kind-level
#: conflict, so an honest copy of it evaluates to 1 on every property.
_OWNER_MIXES: tuple[tuple[Prop, ...], ...] = (
    ((CONF, ()),),
    ((INTEG, ()),),
    ((NOSHARE, ()),),
    ((NOPUB, ()),),
    ((CONF, ()), (INTEG, ())),
    ((INTEG, ()), (COOP, ())),
    ((NOSHARE, ()), (INTEG, ())),
    ((CONF, ("ally1",)),),
    ((INTEG, ()), (SPREAD, ())),
    ((NOPUB, ()), (COOP, ("ally2",))),
)

OWNER = "own"
OWNER_DOMAINS = 100
DELEGATES = 3
HONEST, BLIND, INFORMED, FORGERS = 25, 7, 7, 6
#: Ask plan per scenario: H honest into a matching domain, N honest
#: into any of its domains, B blind liar, M informed liar, F log forger.
_ASK_PLAN = "H" * 70 + "N" * 8 + "B" * 7 + "M" * 8 + "F" * 7
#: An owner edit follows every this many asks.
EDIT_EVERY = 4


@dataclass(frozen=True)
class SimulateInput:
    """Scenario text plus one (requester, resource, expected) per ask.

    ``expected`` is ``"accepted"``, ``"refused"`` or ``None`` when the
    outcome depends on the program's trust arithmetic.
    """

    text: str
    asks: tuple[tuple[str, str, str | None], ...]

    @property
    def units(self) -> int:
        return len(self.asks)


def _prop_tokens(prop: Prop) -> str:
    kind, targets = prop
    return " ".join((kind,) + targets)


class _OwnerModel:
    """The generator's own view of the owner policy as edits apply."""

    def __init__(self):
        self.domains: dict[str, set[Prop]] = {}
        self.resources: dict[str, tuple[str, set[Prop]]] = {}

    def required(self, path: str) -> frozenset[Prop]:
        domain, props = self.resources[path]
        return frozenset(self.domains[domain] | props)

    def kinds_near(self, domain: str) -> set[str]:
        """Kinds on the domain and on every file it holds."""
        kinds = {k for k, _ in self.domains[domain]}
        for dom, props in self.resources.values():
            if dom == domain:
                kinds.update(k for k, _ in props)
        return kinds

    def askable(self) -> list[str]:
        """Resources whose required set holds a prohibition."""
        return [path for path in self.resources
                if any(k in PROHIBITIONS for k, _ in self.required(path))]


def simulate_input(seed: int, index: int) -> SimulateInput:
    """One owner with about 100 domains, 3 delegates, 45 requesters and
    100 asks, with an owner edit after every fourth ask."""
    rng = _rng("simulate", seed, index)
    lines = [f"seed {rng.randrange(1 << 30)}", f"peer {OWNER} name=Owner"]
    delegates = [f"k{i}" for i in range(DELEGATES)]
    honest = [f"h{i}" for i in range(HONEST)]
    blind = [f"b{i}" for i in range(BLIND)]
    informed = [f"m{i}" for i in range(INFORMED)]
    forgers = [f"f{i}" for i in range(FORGERS)]
    lines += [f"peer {uid}" for uid in delegates + honest]
    lines += [f"peer {uid} behavior=blind-liar" for uid in blind]
    lines += [f"peer {uid} behavior=informed-liar" for uid in informed]
    lines += [f"peer {uid} behavior=log-forger" for uid in forgers]
    lines += [f"knows {OWNER} {uid} {0.6 + 0.15 * i:.2f}"
              for i, uid in enumerate(delegates)]

    owner = _OwnerModel()
    for d in range(OWNER_DOMAINS):
        name = f"d{d:03d}"
        mix = rng.choice(_OWNER_MIXES)
        owner.domains[name] = set(mix)
        lines.append(f"domain {OWNER} {name}")
        lines += [f"property {OWNER} {name} {_prop_tokens(p)}" for p in mix]
        kinds = {k for k, _ in mix}
        for r in range(rng.randint(1, 2)):
            path = f"r{d:03d}{'ab'[r]}"
            props: set[Prop] = set()
            if rng.random() < 0.25:
                choices = [k for k in _FILE_KINDS
                           if _compatible(k, kinds)]
                props.add((rng.choice(choices), ()))
            owner.resources[path] = (name, props)
            lines.append(f"resource {OWNER} {path} {name}")
            lines += [f"property {OWNER} {path} {_prop_tokens(p)}"
                      for p in sorted(props)]

    # Requester domains copy required sets the owner really has, so
    # honest asks can target a matching domain.
    initial_sets = sorted({owner.required(p) for p in owner.askable()},
                          key=sorted)
    holders: dict[frozenset[Prop], list[tuple[str, str]]] = {}

    def declare(uid: str, domain: str, props) -> None:
        lines.append(f"domain {uid} {domain}")
        lines.extend(f"property {uid} {domain} {_prop_tokens(p)}"
                     for p in sorted(props))

    for uid in honest:
        for j, req in enumerate(rng.sample(initial_sets, 3)):
            declare(uid, f"keep{j}", req)
            holders.setdefault(req, []).append((uid, f"keep{j}"))
    for uid in blind + informed:
        declare(uid, "drop", ())
    for uid in forgers:
        declare(uid, "keep0", rng.choice(initial_sets))

    plan = list(_ASK_PLAN)
    rng.shuffle(plan)
    asks: list[tuple[str, str, str | None]] = []
    created = 0
    published = 0
    for number, kind in enumerate(plan, start=1):
        askable = owner.askable()
        if kind == "H":
            by_set: dict[frozenset[Prop], list[str]] = {}
            for path in askable:
                by_set.setdefault(owner.required(path), []).append(path)
            shared = sorted((s for s in by_set if s in holders), key=sorted)
            req = rng.choice(shared)
            path = rng.choice(by_set[req])
            uid, domain = rng.choice(holders[req])
            expected = "accepted"
        elif kind == "N":
            uid = rng.choice(honest)
            domain = f"keep{rng.randrange(3)}"
            path = rng.choice(askable)
            expected = None
        elif kind == "B":
            uid, domain, path = rng.choice(blind), "drop", rng.choice(askable)
            expected = None
        elif kind == "M":
            uid, domain = rng.choice(informed), "drop"
            path = rng.choice(askable)
            expected = "refused"
        else:
            uid, domain = rng.choice(forgers), "keep0"
            path = rng.choice(askable)
            expected = "refused"
        lines.append(f"ask {uid} {OWNER} {path} {domain}")
        asks.append((uid, path, expected))
        if number % EDIT_EVERY == 0:
            choice = rng.random()
            if choice < 0.2:
                created += 1
                name = f"new{created}"
                owner.domains[name] = set()
                lines.append(f"create-domain {OWNER} {name}")
            elif choice < 0.6:
                open_domains = sorted(
                    d for d, props in owner.domains.items()
                    if NOPUB not in {k for k, _ in props})
                domain = rng.choice(open_domains)
                kinds = {k for k, _ in owner.domains[domain]}
                props = set()
                if rng.random() < 0.5:
                    choices = [k for k in _FILE_KINDS
                               if _compatible(k, kinds)]
                    props.add((rng.choice(choices), ()))
                published += 1
                path = f"pub{published}"
                owner.resources[path] = (domain, props)
                lines.append(" ".join(
                    ["publish", OWNER, path, domain]
                    + [k for k, _ in sorted(props)]))
            else:
                domain = rng.choice(sorted(owner.domains))
                near = owner.kinds_near(domain)
                choices = [k for k in KINDS
                           if k not in near and _compatible(k, near)]
                if choices:
                    prop = (rng.choice(choices), ())
                    owner.domains[domain].add(prop)
                    lines.append(f"add-property {OWNER} {domain} "
                                 f"{_prop_tokens(prop)}")
    return SimulateInput(text="\n".join(lines) + "\n", asks=tuple(asks))


# ---------------------------------------------------------------------------
# experiment: one detection experiment call
# ---------------------------------------------------------------------------

EXPERIMENT_RUNS = 20


@dataclass(frozen=True)
class ExperimentInput:
    """Arguments for ``detection_experiment(PopulationParams(**params),
    runs)``."""

    params: tuple[tuple[str, int], ...]
    runs: int

    @property
    def population(self) -> dict[str, int]:
        return dict(self.params)

    @property
    def asks_per_run(self) -> int:
        pop = self.population
        return (2 * pop["honest_requesters"] + pop["blind_liars"]
                + pop["informed_liars"] + pop["log_forgers"])

    @property
    def units(self) -> int:
        return self.runs * self.asks_per_run


def experiment_input(seed: int, index: int) -> ExperimentInput:
    """A seeded population with 1-4 delegates and 1-2 requesters of each
    behaviour, over 20 runs of 5-10 asks."""
    rng = _rng("experiment", seed, index)
    params = (
        ("seed", rng.randrange(1 << 30)),
        ("delegates", rng.randint(1, 4)),
        ("honest_requesters", rng.randint(1, 2)),
        ("blind_liars", rng.randint(1, 2)),
        ("informed_liars", rng.randint(1, 2)),
        ("log_forgers", rng.randint(1, 2)),
    )
    return ExperimentInput(params=params, runs=EXPERIMENT_RUNS)


GENERATORS = {
    "compile": compile_input,
    "simulate": simulate_input,
    "experiment": experiment_input,
}
