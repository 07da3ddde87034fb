"""Section 4 runtime comparison: GP+A vs the exact MINLP solvers.

Paper: GP+A takes 0.78 s (Alex-16, 2 FPGAs) to 4.4 s (VGG, 8 FPGAs) while the
MINLP runs take minutes to hours (100x-1000x slower).  Our from-scratch exact
solvers were always much faster than Couenne, and PR 3 (incremental LP
relaxations, derivative-bracketed II probing, counting-bound packing proofs)
made the exact path comparable to the heuristic on these instances.  PR 6
(bin-completion packing, GP-step/allocation memos shared with the exact
seeds) retired the last slow rows: the whole nine-row table runs in ~50 ms
cold on the single-core reference container.  What this benchmark asserts
is (i) the paper's absolute heuristic budget, and (ii) the exact path's
work counters: packer search nodes (0 since bin-completion decides every
table packing at the root) and LP solves per branch-and-bound node, so a
relaxation-assembly or packing-bound regression fails loudly here (and in
the ``exact-smoke`` CI job, which runs this module under a wall-clock
budget).
"""

import time

from repro.core.exact import ExactSettings
from repro.core.solvers import solve
from repro.reporting.experiments import case_study, runtime_table
from repro.reporting.trace import cold_solver_caches

EXACT_SETTINGS = ExactSettings(max_nodes=3, time_limit_seconds=120.0)

#: Ceilings for the exact-path work counters.  The bin-completion packer
#: (PR 6) decides every runtime-table packing at the root, so the node
#: ceiling drops from the branching packer's 25k to 100 (measured: 0 search
#: nodes on all three cases; the PR 3 branching packer needed ~2.9k on
#: alex-16 and the seed ~400k on vgg-16).  The LP ceiling is 1.5x the
#: measured cold 3.0 LPs/node on vgg-16 (21 LPs over 7 nodes; the
#: derivative-sign bisection needed 7.0, the seed ~62).
MAX_LP_SOLVES_PER_NODE = 4.5
MAX_PACKER_SEARCH_NODES = 100


def test_runtime_table(benchmark, save_artifact):
    table = benchmark.pedantic(
        runtime_table,
        kwargs={
            "cases": ("alex-16", "alex-32", "vgg-16"),
            "methods": ("gp+a", "minlp", "minlp+g"),
            "resource_constraint": 70.0,
            "repetitions": 1,
            "exact_settings": EXACT_SETTINGS,
        },
        rounds=1, iterations=1,
    )
    save_artifact("runtime_comparison.txt", table.render())


def test_gp_a_runtime_within_paper_budget(benchmark):
    """GP+A solves the largest case (VGG on 8 FPGAs) well inside 4.4 s."""
    problem = case_study("vgg-16", resource_limit_percent=70.0)
    outcome = benchmark(lambda: solve(problem, method="gp+a"))
    assert outcome.succeeded
    assert outcome.runtime_seconds < 4.4


def test_exact_path_wall_clock_budget(benchmark):
    """The whole exact side of the runtime table solves in well under the
    ~5 s the seed needed (cold caches; generous 2.5 s CI budget)."""
    def exact_rows():
        cold_solver_caches()
        start = time.perf_counter()
        for case in ("alex-16", "alex-32", "vgg-16"):
            problem = case_study(case, resource_limit_percent=70.0)
            assert solve(problem, method="minlp", exact_settings=EXACT_SETTINGS).succeeded
            assert solve(
                problem.with_paper_weights(), method="minlp+g", exact_settings=EXACT_SETTINGS
            ).succeeded
        return time.perf_counter() - start

    elapsed = benchmark.pedantic(exact_rows, rounds=1, iterations=1)
    assert elapsed < 1.0


def test_exact_path_work_counters():
    """Packer search nodes and LP solves per node stay at their measured
    levels (0 search nodes: bin-completion decides every table packing at
    the root; at most 3.0 LPs/node cold, on vgg-16).  Pre-PR 3 baselines
    were ~62 LPs/node and ~400k packer nodes on the vgg-16 row; the PR 3-5
    branching packer still burned ~2.9k nodes on alex-16."""
    for case in ("alex-16", "vgg-16"):
        cold_solver_caches()
        problem = case_study(case, resource_limit_percent=70.0)

        exact = solve(problem, method="minlp", exact_settings=EXACT_SETTINGS)
        assert exact.succeeded
        counters = exact.counters
        assert counters["packs"] > 0
        assert counters["packer_search_nodes"] <= MAX_PACKER_SEARCH_NODES

        weighted = solve(
            problem.with_paper_weights(), method="minlp+g", exact_settings=EXACT_SETTINGS
        )
        assert weighted.succeeded
        counters = weighted.counters
        assert counters["node_solves"] > 0
        assert counters["lp_solves"] / counters["node_solves"] <= MAX_LP_SOLVES_PER_NODE


def test_warm_exact_replay_is_cached():
    """Re-solving the same exact instances hits the shared memo tiers."""
    problem = case_study("alex-16", resource_limit_percent=70.0)
    first = solve(problem, method="minlp", exact_settings=EXACT_SETTINGS)
    again = solve(problem, method="minlp", exact_settings=EXACT_SETTINGS)
    assert again.counters["packing_memo_hits"] == again.counters["packs"]
    assert again.counters["packer_search_nodes"] == 0
    assert first.objective == again.objective
