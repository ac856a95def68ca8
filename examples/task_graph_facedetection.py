"""Domain example: MPMD task discovery in FaceDetection (Fig. 4.10/4.11).

The per-frame pipeline — build three image scales, run detection per scale,
merge the hits — forms a task graph the framework extracts automatically
from the call-site-anchored CU graph.  We then schedule the graph on
increasing thread counts, reproducing the Fig. 4.11 speedup curve's shape.

Run:  python examples/task_graph_facedetection.py
"""

from repro.discovery.tasks import TaskGraph, TaskNode
from repro.engine import DiscoveryEngine
from repro.simulate import simulate_task_graph
from repro.workloads import get_workload


def main() -> None:
    workload = get_workload("facedetection")
    result = DiscoveryEngine.from_source(workload.source(1)).run()

    # the frame loop is the task container (Fig. 4.10)
    analysis = max(
        result.loop_tasks.values(),
        key=lambda a: a.task_graph.width if a.task_graph else 0,
    )
    graph = analysis.task_graph
    print("== per-frame task graph ==")
    for level_no, level in enumerate(graph.levels()):
        labels = ", ".join(
            f"{node.label} (work {node.work})" for node in level
        )
        print(f"  level {level_no}: {labels}")
    print(f"  width: {graph.width}, inherent speedup: "
          f"{graph.inherent_speedup:.2f}")

    print("\n== scheduled speedups (Fig. 4.11 shape) ==")

    def expanded(parallel_within: int) -> TaskGraph:
        # detection loops inside each task are DOALL: more threads split
        # the per-task work further
        nodes = [
            TaskNode(n.node_id, n.cu_ids, n.lines,
                     max(1, n.work // parallel_within))
            for n in graph.nodes
        ]
        return TaskGraph(nodes, set(graph.edges), graph.container_region)

    total_original = graph.total_work
    for threads in (1, 2, 4, 8, 16, 32):
        within = max(1, threads // max(1, graph.width))
        graph_w = expanded(within)
        makespan = graph_w.total_work / simulate_task_graph(graph_w, threads)
        speedup = min(float(threads), total_original / makespan)
        bar = "#" * int(speedup * 4)
        print(f"  {threads:3d} threads: {speedup:5.2f}x {bar}")


if __name__ == "__main__":
    main()
