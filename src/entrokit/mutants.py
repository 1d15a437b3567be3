"""Targeted fault injection and the mutation coverage matrix.

Each mutation plants one defect and declares exactly which checks must fail
because of it.  Every defect is planted here, on a copy of its target; the
modules that define models, relations and reservoirs carry no hooks for
them.  The matrix runs a battery of the checks that ``entrokit all`` emits,
under the same names, on the intact ideal gas and on every mutant (and the
finite-relation checks on a chain fixture), then compares the set of newly
failing checks against the declaration; any difference, in either
direction, is a finding about the checks themselves.  The model battery is
the report's own: ``run_model_checks`` calls ``report.axiom_checks`` and
``report.theorem_checks`` with the smaller counts declared here.
"""

from __future__ import annotations

import copy
import os
import random
from typing import Union

from .axioms import (
    CheckResult,
    CheckStatus,
    check_comparison,
    check_reflexivity,
    check_transitivity,
)
from .catalog import FinitePreorderFixture, chain_fixture, ideal_gas
from .core import AccessibilityRelation, ModelSystem, states_equal
from .energy import check_path_independence
from .errors import CapabilityError, DomainError
from .reservoir import (
    BENCH_RESERVOIR,
    Reservoir,
    check_reservoir_independence,
    reference_reservoir,
)

# Each mutation, in the order the matrix runs them, and exactly the checks it
# must newly fail.
MUTATIONS = {
    "break_transitivity": frozenset({"transitivity"}),
    "break_scaling": frozenset({"scaling_invariance"}),
    "break_splitting": frozenset({"splitting"}),
    "composite_max": frozenset({"consistency", "splitting"}),
    "noisy_work": frozenset({"path_independence"}),
    "wrong_reservoir_temperature": frozenset({"reservoir_independence"}),
    "strict_only_comparison": frozenset({"stability"}),
}

MutationTarget = Union[ModelSystem, FinitePreorderFixture, Reservoir]


class _MaxComposite(AccessibilityRelation):
    """A composite's entropy is the largest of its parts' instead of their sum."""

    def _combine_columns(self, columns: list[list[float]]) -> list[float]:
        return [max(values) for values in zip(*columns)]


class _StrictOnly(AccessibilityRelation):
    """Two single states are ordered by strict inequality only; the diagonal
    is kept, so every state still precedes itself."""

    def _compare_rows(self, xs, ys, a: list[float], b: list[float], atol: float) -> list[bool]:
        if len(xs) != 1 or len(ys) != 1:
            return super()._compare_rows(xs, ys, a, b, atol)
        return [
            u < v - atol or states_equal(self._row(xs, i), self._row(ys, i))
            for i, (u, v) in enumerate(zip(a, b))
        ]


class _MiscalibratedReservoir(Reservoir):
    """Its physics runs 10 % hotter than its declared temperature."""

    def delta_energy_for_delta_entropy(self, d_entropy: float) -> float:
        return 1.1 * self.temperature * d_entropy


def mutate_model(target: MutationTarget, mutation: str) -> MutationTarget:
    """A copy of the target with one planted defect; ``MUTATIONS`` names the
    checks that must now fail.  The target itself is unchanged."""
    # A config may give any JSON value, and an array or object is unhashable.
    if not isinstance(mutation, str) or mutation not in MUTATIONS:
        raise DomainError(f"unknown mutation {mutation!r}")

    if mutation == "break_transitivity":
        if not isinstance(target, FinitePreorderFixture):
            raise CapabilityError("break_transitivity applies to finite fixtures")
        return _break_transitivity(target)

    if mutation == "wrong_reservoir_temperature":
        if not isinstance(target, Reservoir):
            raise CapabilityError("wrong_reservoir_temperature applies to reservoirs")
        return _MiscalibratedReservoir(**vars(target))

    if not isinstance(target, ModelSystem):
        raise CapabilityError(f"mutation {mutation!r} applies to model systems")

    if mutation in ("break_scaling", "break_splitting") and not target.supports_scaling:
        raise CapabilityError(f"mutation {mutation!r} needs a scalable model")

    clone = _clone_model(target)
    if mutation == "break_scaling":
        # Order-reversing only on enlarged copies: shrunk copies (splitting,
        # vanishing perturbations) stay intact, so only scaling invariance
        # can notice.
        _plant_oracle_defect(clone, lambda value, scale: -value if scale > 1.0 + 1e-12 else value)
    elif mutation == "break_splitting":
        # Superlinear scaling: a t-copy carries t times too much entropy, so
        # the split halves no longer recombine to the whole.
        _plant_oracle_defect(clone, lambda value, scale: value * scale)
    elif mutation in ("composite_max", "strict_only_comparison"):
        relation = _MaxComposite if mutation == "composite_max" else _StrictOnly
        clone.relation = lambda: relation.induced([clone])
    elif mutation == "noisy_work":
        connect = clone.process_engine.connect_polygonal

        def noisy(a, b, rng, legs=None):
            # Every leg reports 0.1 J more work than it did.
            poly = connect(a, b, rng, legs)
            return poly.replace(legs=tuple(
                (rec.replace(work_done=rec.work_done + 0.1), direction)
                for rec, direction in poly.legs
            ))

        clone.process_engine.connect_polygonal = noisy
    return clone


def _clone_model(model: ModelSystem) -> ModelSystem:
    """A shallow copy with its own engine, so a defect planted in either
    stays out of the original."""
    clone = copy.copy(model)
    clone.process_engine = copy.copy(model.process_engine)
    return clone


def _plant_oracle_defect(model: ModelSystem, defect) -> None:
    """Replace the model's oracle by ``defect(value, scale)`` of its value
    and the state's copy scale, in the per-state oracle and the batched
    entropies alike, where the t-copy of a state has scale t * state.scale:
    one function, so the two forms agree bit for bit.  The engine keeps
    nature's oracle."""
    base_oracle, base_scaled = model.oracle_entropy, model.scaled_entropies
    model.oracle_entropy = lambda state: defect(base_oracle(state), state.scale)

    def scaled(states, index, ts):
        scales = [t * states[k].scale for k, t in zip(index, ts)]
        return list(map(defect, base_scaled(states, index, ts), scales))

    model.scaled_entropies = scaled


def _break_transitivity(fixture: FinitePreorderFixture) -> FinitePreorderFixture:
    """Replace one closure pair (a, c) by its reverse: transitivity now has a
    witness while every element stays comparable.  The pairs a ≼ b are tried
    in sorted id order, or in file order where the ids do not sort together,
    and c in file order."""
    ids, rows = fixture.ids, fixture.rows
    try:
        order = sorted(range(len(ids)), key=ids.__getitem__)
    except TypeError:
        order = range(len(ids))
    for a in order:
        for b in order:
            if a == b or not rows[a] >> b & 1:
                continue
            for c in range(len(ids)):
                if c not in (a, b) and (rows[a] & rows[b]) >> c & 1 and not rows[c] >> a & 1:
                    broken = list(rows)
                    broken[a] ^= 1 << c
                    broken[c] |= 1 << a
                    return FinitePreorderFixture(list(ids), broken)
    raise CapabilityError("fixture has no transitive triple to break")


# ---------------------------------------------------------------------------
# The coverage matrix
# ---------------------------------------------------------------------------

# The matrix's model battery's sample counts, by check name (see
# ``report.axiom_checks`` and ``report.theorem_checks``): smaller than the
# report's, since it runs seven times.
AXIOM_COUNTS = {"reflexivity": 120, "transitivity": 120, "consistency": 60, "comparison": 120,
                "scaling_invariance": 40, "splitting": 40, "stability": 40,
                "nonequilibrium": 10, "n1_n2": 60}
THEOREM_COUNTS = {"lower_bound": 20, "entropy_nondecrease": 30, "pmm2": 200}


def run_model_checks(
    model: ModelSystem,
    reservoir: Reservoir,
    *,
    seed: int = 0,
) -> list[CheckResult]:
    """The coverage matrix's battery for parametric models: the report's
    axiom checks at ``seed``, path and reservoir independence, then its
    theorem checks at ``seed + 10``, at the counts above, every sample drawn
    from one ``Random(seed)``."""
    from .report import axiom_checks, theorem_checks  # report imports this module
    rng = random.Random(seed)
    engine = model.process_engine
    results = axiom_checks(model, rng, seed, AXIOM_COUNTS)

    drawn = engine.sample_states(rng, 10)
    pairs = list(zip(drawn[::2], drawn[1::2]))
    results.append(check_path_independence(model, pairs, k=4, seed=seed + 8))

    honest = Reservoir(id="aux-600", temperature=600.0)
    results.append(
        check_reservoir_independence(
            model,
            tuple(engine.sample_states(rng, 2)),
            [reservoir, honest, reference_reservoir().reservoir],
        )
    )
    return results + theorem_checks(model, reservoir, rng, seed + 10, THEOREM_COUNTS)


def run_fixture_checks(fixture: FinitePreorderFixture) -> list[CheckResult]:
    rel = fixture.relation()
    return [
        check_reflexivity(rel),
        check_transitivity(rel),
        check_comparison(rel),
    ]


def _statuses(results: list[CheckResult]) -> dict[str, str]:
    return {r.check_name: r.status.value for r in results}


class MatrixWorkers:
    """The matrix's seven model batteries (the intact gas's, then the model
    mutants' in ``MUTATIONS`` order) and min(usable CPUs, 7) - 1 forked
    workers (none where os.fork is missing), which take batteries from a
    queue and run them until it is empty.  Pass it to ``mutation_matrix``
    with the same seed, or ``close`` it.

    The queue is an os.pipe holding one byte per battery index but the
    baseline's, written and closed before any fork: each os.read(queue, 1)
    takes one whole index, and an empty queue reads as EOF.  A worker pipes
    back the statuses of the batteries it took, or its exception, and leaves
    through os._exit (no stdio flush, no atexit)."""

    def __init__(self, seed: int):
        self.seed = seed
        base_model = ideal_gas()
        # (mutation, model, reservoir), the intact gas's under None.
        self.batteries = [(None, base_model, BENCH_RESERVOIR)] + [
            (mutation, base_model, mutate_model(BENCH_RESERVOIR, mutation))
            if mutation == "wrong_reservoir_temperature"
            else (mutation, mutate_model(base_model, mutation), BENCH_RESERVOIR)
            for mutation in MUTATIONS if mutation != "break_transitivity"
        ]
        self._children: list[tuple[int, int]] = []  # (pid, reply pipe)
        self._queue, fill = os.pipe()
        os.write(fill, bytes(range(1, len(self.batteries))))
        os.close(fill)
        usable = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
        workers = min(usable, len(self.batteries)) - 1 if hasattr(os, "fork") else 0
        try:
            for _ in range(workers):
                self._fork()
        except BaseException:
            self.close()
            raise

    def _run(self, index: int) -> dict[str, str]:
        _, model, reservoir = self.batteries[index]
        return _statuses(run_model_checks(model, reservoir, seed=self.seed))

    def _take(self):
        """The next queued battery index, or None once the queue is empty."""
        byte = os.read(self._queue, 1)
        return byte[0] if byte else None

    def _fork(self) -> None:
        import pickle

        read_end, write_end = os.pipe()
        try:
            pid = os.fork()
        except BaseException:
            os.close(read_end)
            os.close(write_end)
            raise
        if pid == 0:
            try:
                try:
                    done = {}
                    while (index := self._take()) is not None:
                        done[index] = self._run(index)
                    reply = (None, done)
                except BaseException as exc:
                    reply = (exc, None)
                try:
                    pickle.loads(data := pickle.dumps(reply))
                except Exception:
                    data = pickle.dumps((RuntimeError(f"unpicklable {reply[0]!r}"), None))
                with open(write_end, "wb") as pipe:
                    pipe.write(data)
            finally:
                os._exit(0)
        os.close(write_end)
        self._children.append((pid, read_end))

    def finish(self) -> dict:
        """Each battery's statuses by its mutation.  This process runs the
        baseline's battery and every battery still queued, then reaps the
        workers and takes theirs; an exception raised here comes first, then
        a worker's (an unpicklable one as a RuntimeError)."""
        statuses = {}
        try:
            statuses[0] = self._run(0)
            while (index := self._take()) is not None:
                statuses[index] = self._run(index)
        finally:
            replies = self.close()
        if replies:
            import pickle
        for data in replies:
            exc, done = pickle.loads(data) if data else (RuntimeError("a worker sent no reply"), None)
            if exc is not None:
                raise exc
            statuses.update(done)
        return {mutation: statuses[index] for index, (mutation, _, _) in enumerate(self.batteries)}

    def close(self) -> list[bytes]:
        """Empty the queue, so each worker stops after its current battery,
        then read every worker's reply and reap it.  Returns the replies;
        a second call does nothing."""
        if self._queue is not None:
            while os.read(self._queue, 64):
                pass
            os.close(self._queue)
            self._queue = None
        replies = []
        while self._children:
            pid, read_end = self._children.pop(0)
            with open(read_end, "rb") as pipe:
                replies.append(pipe.read())
            os.waitpid(pid, 0)
        return replies


def mutation_matrix(*, seed: int = 0, workers: MatrixWorkers | None = None) -> dict:
    """Run every mutation against the intact baseline and compare the newly
    failing checks with its entry in ``MUTATIONS``.  The result is plain
    data: the report's ``mutation_matrix`` summary, statuses as strings.
    The model batteries run in ``workers`` (started here when none are
    given), which may have run most of them already; the fixture ones run
    here."""
    if workers is None:
        workers = MatrixWorkers(seed)
    elif workers.seed != seed:
        raise DomainError(f"matrix workers started with seed {workers.seed}, not {seed}")
    statuses_of = workers.finish()
    base_fixture = chain_fixture(6)
    baseline_model = statuses_of.pop(None)
    baseline_fixture = _statuses(run_fixture_checks(base_fixture))
    statuses_of["break_transitivity"] = _statuses(
        run_fixture_checks(mutate_model(base_fixture, "break_transitivity")))
    mutants = []
    for mutation, expected in MUTATIONS.items():
        statuses = statuses_of[mutation]
        baseline = baseline_fixture if mutation == "break_transitivity" else baseline_model
        newly_failed = sorted(
            name for name, status in statuses.items()
            if status == CheckStatus.FAIL and baseline[name] != CheckStatus.FAIL
        )
        mutants.append({
            "mutation": mutation,
            "expected_failures": sorted(expected),
            "newly_failed": newly_failed,
            "statuses": statuses,
            "exact": newly_failed == sorted(expected),
        })
    baseline_clean = CheckStatus.FAIL not in [*baseline_model.values(), *baseline_fixture.values()]
    return {
        "baseline_model": baseline_model,
        "baseline_fixture": baseline_fixture,
        "mutants": mutants,
        "ok": baseline_clean and all(m["exact"] for m in mutants),
    }
