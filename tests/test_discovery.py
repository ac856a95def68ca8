"""Tests for Chapter 4: loop/task discovery, ranking, simulation."""

import pytest

from repro.cu.digraph import topological_sort
from repro.discovery.loops import LoopClass
from repro.discovery.ranking import (
    cu_imbalance,
    instruction_coverage,
    loop_local_speedup,
    rank_suggestions,
)
from repro.engine import DiscoveryEngine
from repro.simulate import (
    simulate_doall,
    simulate_pipeline,
    simulate_task_graph,
    whole_program_speedup,
)
from repro.workloads import get_workload


def _discover(name, scale=1, **kwargs):
    w = get_workload(name)
    return DiscoveryEngine.from_source(w.source(scale), **kwargs).run()


class TestLoopDetection:
    def test_doall_detected(self):
        res = DiscoveryEngine.from_source("""int a[100];
int main() {
  for (int i = 0; i < 100; i++) {
    a[i] = i * 2;
  }
  return a[99];
}
""").run()
        assert res.loops[0].classification == LoopClass.DOALL

    def test_reduction_detected(self):
        res = DiscoveryEngine.from_source("""int a[100];
int total;
int main() {
  for (int i = 0; i < 100; i++) { a[i] = i; }
  for (int i = 0; i < 100; i++) {
    total += a[i];
  }
  return total;
}
""").run()
        red = [l for l in res.loops
               if l.classification == LoopClass.DOALL_REDUCTION]
        assert len(red) == 1
        assert red[0].reduction_vars == {"total"}

    def test_recurrence_sequential(self):
        res = DiscoveryEngine.from_source("""int c[100];
int main() {
  c[0] = 1;
  for (int i = 1; i < 100; i++) {
    c[i] = c[i-1] * 2 % 997;
  }
  return c[99];
}
""").run()
        assert res.loops[0].classification == LoopClass.SEQUENTIAL
        assert res.loops[0].blocking

    def test_privatizable_war_does_not_block(self):
        res = DiscoveryEngine.from_source("""int a[50];
int b[50];
int tmp;
int main() {
  for (int i = 0; i < 50; i++) { a[i] = i; }
  for (int i = 0; i < 50; i++) {
    tmp = a[i] * 3;
    b[i] = tmp + 1;
  }
  return b[49];
}
""").run()
        second = [l for l in res.loops if l.start_line == 6][0]
        assert second.is_parallelizable
        assert "tmp" in second.private_vars

    def test_doacross_pipeline_detected(self):
        """A loop with a carried RAW on a small part of the body and
        independent heavy work should be DOACROSS."""
        res = DiscoveryEngine.from_source("""int state;
int out[60];
int work[60];
int main() {
  for (int i = 0; i < 60; i++) { work[i] = i * 7 % 23; }
  for (int i = 0; i < 60; i++) {
    int heavy = 0;
    for (int k = 0; k < 30; k++) {
      heavy += work[i] * k % 13;
    }
    out[i] = heavy + state % 5;
    state = (state * 3 + work[i]) % 97;
  }
  return state + out[59];
}
""").run()
        target = [l for l in res.loops if l.start_line == 6][0]
        assert target.classification in (LoopClass.DOACROSS,)
        assert target.parallel_fraction > 0.5

    def test_iteration_variable_ignored(self):
        res = DiscoveryEngine.from_source("""int a[40];
int main() {
  for (int i = 0; i < 40; i++) {
    a[i] = i;
  }
  return a[0];
}
""").run()
        info = res.loops[0]
        assert not any(d.var == "i" for d in info.blocking)

    def test_nested_loop_classification_independent(self):
        res = DiscoveryEngine.from_source("""float u[64];
int main() {
  for (int i = 1; i < 7; i++) {
    for (int j = 1; j < 7; j++) {
      u[i * 8 + j] = u[i * 8 + j] * 0.5 + 1.0;
    }
  }
  return __int(u[9] * 100.0);
}
""").run()
        assert all(l.is_parallelizable for l in res.loops)


class TestTaskDetection:
    def test_fib_spmd(self):
        res = _discover("fib")
        groups = res.functions["fib"].spmd_groups
        fib_group = [g for g in groups if g.callee == "fib"][0]
        assert fib_group.is_recursive
        assert fib_group.independent
        assert len(fib_group.call_lines) == 2

    def test_sort_recursive_tasks(self):
        res = _discover("sort")
        groups = res.functions["sort"].spmd_groups
        sort_group = [g for g in groups if g.callee == "sort"][0]
        assert sort_group.independent

    def test_strassen_conflicting_tasks(self):
        res = _discover("strassen")
        groups = res.functions["strassen"].spmd_groups
        mult = [g for g in groups if g.callee == "mult_block"][0]
        assert not mult.independent  # pairs update the same C quadrant

    def test_facedetection_mpmd_graph(self):
        """The Fig. 4.10 task graph lives inside the frame loop: the three
        scale builds / detections are independent MPMD tasks per frame."""
        res = _discover("facedetection")
        assert res.loop_tasks
        best = max(
            res.loop_tasks.values(),
            key=lambda a: a.task_graph.width if a.task_graph else 0,
        )
        assert best.task_graph.width >= 2
        assert best.task_graph.inherent_speedup > 1.1

    def test_mpmd_tasks_respect_dependences(self):
        res = _discover("rot-cc")
        tg = res.functions["main"].task_graph
        graph = tg.graph()
        # a topological order exists (it raises on a cycle) and covers
        # every node
        order = list(topological_sort(graph))
        assert sorted(order) == sorted(graph.nodes)
        for a, b in graph.edges():
            assert order.index(a) < order.index(b)

    def test_suggestions_ranked_descending(self):
        res = _discover("CG")
        scores = [s.scores.combined for s in res.suggestions]
        assert scores == sorted(scores, reverse=True)

    def test_pipeline_end_to_end_smoke(self):
        res = _discover("rgbyuv")
        assert res.suggestions
        top = res.suggestions[0]
        assert top.kind in (LoopClass.DOALL, LoopClass.DOALL_REDUCTION)
        assert "#pragma omp parallel for" in top.pragma()
        assert res.format_report()


class TestRanking:
    def test_instruction_coverage_bounds(self):
        assert instruction_coverage(50, 100) == 0.5
        assert instruction_coverage(200, 100) == 1.0
        assert instruction_coverage(1, 0) == 0.0

    def test_cu_imbalance_balanced(self):
        assert cu_imbalance([10, 10, 10, 10]) == 0.0

    def test_cu_imbalance_skewed(self):
        assert cu_imbalance([100, 1, 1, 1]) > 1.0

    def test_cu_imbalance_degenerate(self):
        assert cu_imbalance([]) == 0.0
        assert cu_imbalance([5]) == 0.0

    def test_loop_local_speedup_doall(self):
        from repro.discovery.loops import LoopInfo

        info = LoopInfo(0, "f", 1, 5, LoopClass.DOALL, iterations=100)
        assert loop_local_speedup(info, 4) == 4.0
        info2 = LoopInfo(0, "f", 1, 5, LoopClass.DOALL, iterations=2)
        assert loop_local_speedup(info2, 4) == 2.0

    def test_rank_suggestions_order(self):
        from repro.discovery.ranking import RankingScores
        from repro.discovery.suggestions import Suggestion

        lo = Suggestion("DOALL", "f", 1, 2,
                        scores=RankingScores(0.1, 2.0, 0.0))
        hi = Suggestion("DOALL", "f", 3, 4,
                        scores=RankingScores(0.9, 4.0, 0.0))
        assert rank_suggestions([lo, hi])[0] is hi


class TestSimulation:
    def test_doall_speedup_scales(self):
        costs = [100.0] * 64
        s2 = simulate_doall(costs, 2)
        s4 = simulate_doall(costs, 4)
        assert 1.5 < s2 < 2.0
        assert s2 < s4 <= 4.0

    def test_doall_bounded_by_iterations(self):
        assert simulate_doall([100.0, 100.0], 8) <= 2.0

    def test_doall_imbalance_hurts(self):
        uniform = simulate_doall([50.0] * 16, 4)
        skewed = simulate_doall([50.0] * 15 + [750.0], 4)
        assert skewed < uniform

    def test_pipeline_speedup(self):
        s = simulate_pipeline([100.0, 100.0, 100.0], iterations=50,
                              n_threads=3)
        assert 2.0 < s <= 3.0

    def test_pipeline_bottleneck_bound(self):
        s = simulate_pipeline([10.0, 300.0, 10.0], iterations=50, n_threads=3)
        assert s < 1.2  # the heavy middle stage dominates

    def test_task_graph_scheduling(self):
        from repro.discovery.tasks import TaskGraph, TaskNode

        nodes = [TaskNode(i, [i], {i}, work=5000) for i in range(4)]
        independent = TaskGraph(nodes, set())
        chain = TaskGraph(nodes, {(0, 1), (1, 2), (2, 3)})
        s_ind = simulate_task_graph(independent, 4)
        s_chain = simulate_task_graph(chain, 4)
        assert s_ind > 2.5
        assert s_chain < 1.2

    def test_whole_program_amdahl(self):
        s = whole_program_speedup([(0.5, 4.0)])
        assert abs(s - 1.0 / (0.5 + 0.125)) < 1e-9
        assert whole_program_speedup([]) == 1.0
        assert whole_program_speedup([(1.0, 4.0)]) == 4.0
