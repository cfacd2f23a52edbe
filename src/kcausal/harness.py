"""Property suites that exercise the toolkit's guaranteed facts on random instances.

Each suite encodes a statement that is a theorem for the structures we build,
so every trial must pass; a failure is a bug by definition and is reported
with a full replay bundle (explicit space, measures, seeds).  Trials are
seeded individually through ``random.Random(f"{seed}:{suite}:{trial}")``,
which makes reports byte-reproducible and trials independent.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Mapping

from .errors import InputError, _shown
from .measures import (
    Measure,
    convex_combination,
    measure_to_jsonable,
    tv_distance,
)
from .structure import (
    DEFAULT_UPSET_BOUND,
    SEED_SPAN,
    CausalSpace,
    _check_count,
    _check_seed,
    _is_integer,
    _require_same_events,
    _sequence,
    iter_bits,
    lemma_complement_check,
    random_dag_space,
    space_to_jsonable,
    sprinkle_space,
)
from .timefunctions import (
    DEFAULT_ENUMERATION_BOUND,
    _linear_extensions,
    condition4_check,
    condition5_check,
    is_stably_causal,
    minguzzi_check,
)
from .transport import (
    Coupling,
    compose_couplings,
    condition2_check,
    condition3_check,
    decide_k_causal,
    marginals,
    mix_couplings,
    strassen_check,
    verify_coupling,
)

__all__ = [
    "SUITES",
    "TrialConfig",
    "TrialReport",
    "run_suite",
    "closedness_trial",
    "implication_chain_trial",
    "chain_violations",
    "random_space",
    "random_measure",
    "random_feasible_pair",
    "random_forward_push",
    "report_to_jsonable",
]

# ---------------------------------------------------------------------------
# Suite runners

# A runner checks one trial's space; it returns None on a pass, or the
# failure's fields for the replay bundle.
Runner = Callable[[random.Random, CausalSpace], dict | None]


def _closedness_runner(rng: random.Random, space: CausalSpace) -> dict | None:
    mu, nu, _ = random_feasible_pair(rng, space)
    mu_prime, nu_prime, _ = random_feasible_pair(rng, space)
    ok = closedness_trial(space, mu, nu, mu_prime, nu_prime, steps=10)
    return None if ok else dict(mu=mu, nu=nu, mu_prime=mu_prime, nu_prime=nu_prime)


def _transitivity_runner(rng: random.Random, space: CausalSpace) -> dict | None:
    mu = random_measure(rng, space.events)
    nu, omega1 = random_forward_push(rng, space, mu)
    rho, omega2 = random_forward_push(rng, space, nu)
    ok = (
        decide_k_causal(space, mu, nu).feasible
        and decide_k_causal(space, nu, rho).feasible
        and decide_k_causal(space, mu, rho).feasible
        and verify_coupling(space, compose_couplings(omega1, omega2), mu, rho)
    )
    return None if ok else dict(mu=mu, nu=nu, rho=rho)


def _chain_runner(rng: random.Random, space: CausalSpace) -> dict | None:
    mu, nu = _random_pair(rng, space)
    verdicts = implication_chain_trial(space, mu, nu)
    violated = chain_violations(verdicts)
    return dict(mu=mu, nu=nu, verdicts=verdicts, violated=violated) if violated else None


def _oracle_runner(rng: random.Random, space: CausalSpace) -> dict | None:
    mu, nu = _random_pair(rng, space)
    cert = decide_k_causal(space, mu, nu)
    oracle_feasible, oracle_violator = strassen_check(space, mu, nu)
    # decide_k_causal checks its own witness or violator before it returns.
    if cert.feasible == oracle_feasible:
        return None
    return dict(
        mu=mu,
        nu=nu,
        verdict=cert.verdict,
        oracle_feasible=oracle_feasible,
        oracle_violator=sorted(oracle_violator) if oracle_violator else None,
    )


def _lemma6_runner(rng: random.Random, space: CausalSpace) -> dict | None:
    for mask in range(1 << space.n):
        subset = space.events.labels_of(mask)
        if not lemma_complement_check(space, subset):
            return dict(subset=sorted(subset))
    return None


def _minguzzi_runner(rng: random.Random, space: CausalSpace) -> dict | None:
    # Intersection order over all linear extensions, compared against the
    # closure row by row; one random pair is re-checked through the public
    # per-pair operation.  meets[i] keeps the events at or after i in every
    # extension seen so far.
    n = space.n
    meets = [(1 << n) - 1] * n
    for order in _linear_extensions(space):
        suffix = 0
        for j in reversed(order):
            suffix |= 1 << j
            meets[j] &= suffix
    labels = space.events.labels
    for i, (meet, row) in enumerate(zip(meets, space.kplus.rows)):
        if meet != row:
            j = ((meet ^ row) & -(meet ^ row)).bit_length() - 1
            return dict(pair=[labels[i], labels[j]])
    i = rng.randrange(n)
    j = rng.randrange(n)
    if minguzzi_check(space, labels[i], labels[j]) != bool(meets[i] >> j & 1):
        return dict(pair=[labels[i], labels[j]], stage="per-pair")
    return None


def _remark8_runner(rng: random.Random, space: CausalSpace) -> dict | None:
    # condition4_check runs one scan for both half-line variants, so they agree by construction;
    # the per-threshold oracle in tests/test_exhaustive_oracles.py is what tells them apart.
    mu, nu = _random_pair(rng, space)
    open_verdict = condition4_check(space, mu, nu, half_line="open", mode="exhaustive")
    closed_verdict = condition4_check(space, mu, nu, half_line="closed", mode="exhaustive")
    if open_verdict == closed_verdict:
        return None
    return dict(mu=mu, nu=nu, open=open_verdict, closed=closed_verdict)


# Each suite's runner and the largest ``max_events`` it accepts: the suites
# that enumerate linear extensions cap the instance size harder than the
# subset-enumeration suites do.
_SUITES: dict[str, tuple[Runner, int]] = {
    "prop2-closedness": (_closedness_runner, DEFAULT_UPSET_BOUND),
    "prop2-transitivity": (_transitivity_runner, DEFAULT_UPSET_BOUND),
    "thm3-chain": (_chain_runner, DEFAULT_ENUMERATION_BOUND),
    "thm4-oracle": (_oracle_runner, DEFAULT_UPSET_BOUND),
    "lemma6": (_lemma6_runner, DEFAULT_UPSET_BOUND),
    "minguzzi": (_minguzzi_runner, DEFAULT_ENUMERATION_BOUND),
    "remark8": (_remark8_runner, DEFAULT_ENUMERATION_BOUND),
}

SUITES = tuple(_SUITES)

MEASURE_DENOMINATOR = 24


@dataclass(frozen=True)
class TrialConfig:
    """Which suites to run, how many trials each, and under which seed."""

    suites: tuple[str, ...] = SUITES
    trials: int = 200
    seed: int = 0
    max_events: int = 7

    def __post_init__(self):
        names = _sequence("suites", self.suites)
        for name in names:
            if name not in SUITES:
                raise InputError(f"unknown suite name: {_shown(name)}")
        ordered = tuple(s for s in SUITES if s in set(names))
        if not ordered:
            raise InputError("at least one suite is required")
        object.__setattr__(self, "suites", ordered)
        _check_count("trial count", self.trials)
        _check_seed(self.seed)
        _check_count("max_events", self.max_events)
        for name in ordered:
            bound = _SUITES[name][1]
            if self.max_events > bound:
                raise InputError(
                    f"suite {_shown(name)} caps max_events at {bound}, got {self.max_events}"
                )


@dataclass(frozen=True)
class TrialReport:
    """Per-suite pass/fail counts plus replay bundles for every failure."""

    config: TrialConfig
    counts: tuple[tuple[str, int, int], ...]
    failures: tuple[dict, ...]

    def __post_init__(self):
        object.__setattr__(self, "counts", _sequence("suite counts", self.counts, 3))
        for suite, passed, failed in self.counts:
            if not (_is_integer(passed) and _is_integer(failed)) or passed + failed != self.config.trials:
                raise InputError(f"suite {_shown(suite)} counts do not add up to the trial count")

    @property
    def total_failed(self) -> int:
        return sum(failed for _, _, failed in self.counts)

    @property
    def ok(self) -> bool:
        return self.total_failed == 0


def report_to_jsonable(report: TrialReport) -> dict:
    cfg = report.config
    return {
        "config": {
            "suites": list(cfg.suites),
            "trials": cfg.trials,
            "seed": cfg.seed,
            "max_events": cfg.max_events,
        },
        "suites": [
            {"suite": suite, "passed": passed, "failed": failed}
            for suite, passed, failed in report.counts
        ],
        "failures": list(report.failures),
    }


# ---------------------------------------------------------------------------
# Instance generation


def random_space(rng: random.Random, max_events: int) -> CausalSpace:
    """Random layered-edge or sprinkled space with 2..max_events events."""
    n = rng.randint(min(2, max_events), max_events)
    if rng.random() < 0.25:
        return sprinkle_space(
            n=n, dim=2, box=((0, 1), (-1, 1)), seed=rng.randrange(SEED_SPAN)
        )
    edge_prob = 0.2 + 0.5 * rng.random()
    return random_dag_space(n=n, edge_prob=edge_prob, seed=rng.randrange(SEED_SPAN))


def random_measure(rng: random.Random, events) -> Measure:
    """Random composition of ``MEASURE_DENOMINATOR`` unit weights over the events."""
    counts = [0] * len(events)
    for _ in range(MEASURE_DENOMINATOR):
        counts[rng.randrange(len(events))] += 1
    return Measure._of_units(events, MEASURE_DENOMINATOR, counts)


def random_forward_push(
    rng: random.Random,
    space: CausalSpace,
    mu: Measure,
) -> tuple[Measure, Coupling]:
    """Push each unit of mass to a random event in its causal future.

    The returned measure dominates ``mu`` by construction and the returned
    coupling witnesses it.
    """
    _require_same_events(space, mu, kinds=(CausalSpace, Measure))
    den, (scaled,) = mu._integer_weights
    rows = space.kplus.rows
    pair_units: dict[tuple[int, int], int] = {}
    for i, units in enumerate(scaled):
        if not units:
            continue
        targets = list(iter_bits(rows[i]))
        for _ in range(units):
            j = rng.choice(targets)
            pair_units[(i, j)] = pair_units.get((i, j), 0) + 1
    omega = Coupling._of_units(space.events, den, pair_units)
    return marginals(omega)[1], omega


def random_feasible_pair(rng: random.Random, space: CausalSpace) -> tuple[Measure, Measure, Coupling]:
    mu = random_measure(rng, space.events)
    nu, omega = random_forward_push(rng, space, mu)
    return mu, nu, omega


def _random_pair(rng: random.Random, space: CausalSpace) -> tuple[Measure, Measure]:
    # Half the pairs are feasible by construction so both verdict branches
    # show up; the other half are independent draws.
    if rng.random() < 0.5:
        mu, nu, _ = random_feasible_pair(rng, space)
        return mu, nu
    return random_measure(rng, space.events), random_measure(rng, space.events)


# ---------------------------------------------------------------------------
# Named trials


def closedness_trial(
    space: CausalSpace,
    mu: Measure,
    nu: Measure,
    mu_prime: Measure,
    nu_prime: Measure,
    steps: int = 10,
) -> bool:
    """Convex interpolation toward a feasible pair stays feasible at every step.

    Builds ``mu_n = (1 - 1/n) mu + (1/n) mu_prime`` (same for nu) for
    n = 1..steps, checks each pair both by an explicit mixed witness and by
    the decision procedure, and checks that the distance to the limit is
    exactly the endpoint distance divided by n.
    """
    _check_count("step count", steps)
    base = decide_k_causal(space, mu, nu)
    prime = decide_k_causal(space, mu_prime, nu_prime)
    if not base.feasible or not prime.feasible:
        raise InputError("interpolation trial needs feasible endpoint pairs")
    mu_gap = tv_distance(mu_prime, mu)
    nu_gap = tv_distance(nu_prime, nu)
    for n in range(1, steps + 1):
        lam = Fraction(1, n)
        mu_n = convex_combination(lam, mu_prime, mu)
        nu_n = convex_combination(lam, nu_prime, nu)
        omega_n = mix_couplings(lam, prime.witness, base.witness)
        if not verify_coupling(space, omega_n, mu_n, nu_n):
            return False
        if not decide_k_causal(space, mu_n, nu_n).feasible:
            return False
        if tv_distance(mu_n, mu) != lam * mu_gap or tv_distance(nu_n, nu) != lam * nu_gap:
            return False
    return base.feasible


def implication_chain_trial(space: CausalSpace, mu: Measure, nu: Measure) -> dict:
    """Verdicts of the five feasibility conditions on one instance.

    Conditions 4 and 5 are reported as None when the space admits no time
    functions; the others are always defined.
    """
    c1 = decide_k_causal(space, mu, nu).feasible
    c2 = condition2_check(space, mu, nu)
    c3 = condition3_check(space, mu, nu)
    if is_stably_causal(space):
        c4 = condition4_check(space, mu, nu, half_line="open", mode="exhaustive")
        c5 = condition5_check(space, mu, nu, mode="exact")
    else:
        c4 = None
        c5 = None
    return {"c1": c1, "c2": c2, "c3": c3, "c4": c4, "c5": c5}


def chain_violations(verdicts: Mapping[str, bool | None]) -> list[str]:
    """Names of the implication-chain links the verdict vector breaks.

    The full chain on our finite instances: 1 = 2 = 3, 3 implies 4 implies 5,
    and 5 implies 2 again (so all five agree whenever 4 and 5 are defined).
    """
    c1, c2, c3, c4, c5 = (verdicts[k] for k in ("c1", "c2", "c3", "c4", "c5"))
    out = []
    if c1 != c2:
        out.append("1eq2")
    if c2 != c3:
        out.append("2eq3")
    if c4 is not None and c3 and not c4:
        out.append("3to4")
    if c4 is not None and c5 is not None and c4 and not c5:
        out.append("4to5")
    if c5 is not None and c5 and not c2:
        out.append("5to2")
    return out


def run_suite(config: TrialConfig) -> TrialReport:
    """Run every configured suite for the configured number of trials."""
    counts = []
    failures = []
    for suite in config.suites:
        runner = _SUITES[suite][0]
        earlier = len(failures)
        for trial in range(config.trials):
            rng = random.Random(f"{config.seed}:{suite}:{trial}")
            space = random_space(rng, config.max_events)
            extra = runner(rng, space)
            if extra is not None:
                bundle = {"suite": suite, "trial": trial, "seed": config.seed, "space": space_to_jsonable(space)}
                for key, value in extra.items():
                    bundle[key] = measure_to_jsonable(value) if isinstance(value, Measure) else value
                failures.append(bundle)
        failed = len(failures) - earlier
        counts.append((suite, config.trials - failed, failed))
    return TrialReport(config=config, counts=tuple(counts), failures=tuple(failures))
